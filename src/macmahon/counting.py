"""Enumerative consequences: counting admissible words three ways.

L(l) denotes the number of admissible words of length l over {1..m} (no k
consecutive strictly decreasing letters; the weak variant forbids weakly
decreasing windows).  Three independent routes are implemented:

  dp        a run-length automaton on states (last letter, run length),
  transfer  walk counting on the graph of (k-1)-letter windows,
  series    coefficients of 1 / (1 - m t + C(m,k) t^k - C(m,k+1) t^{k+1}
            + C(m,2k) t^{2k} - ...), binomials replaced by
            C(m+r-1, r) in the weak variant.

`f_series` checks the refined, marker-per-letter version of the same
generating function.  Its lhs comes from a content automaton: the `dp`
automaton with the letter counts added to the state, so each length yields
one t-monomial per content class with the number of admissible words of
that content, and no word is ever built (`enumerate_admissible` serves the
tests as the word-by-word oracle).  `egf_check` checks the exponential
analogue counting permutations without long descent runs, which it counts
by inserting letters by relative rank, and `n_m_check`
contrasts L with the plain m**l obtained when every generator product is
resummed through the all-ones matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product as iter_product
from fractions import Fraction
from math import comb, factorial
from typing import Union

from .charpoly import SymMatrix, _second_factor_degrees
from .identity import first_factor_totals
from .polyring import (
    Poly,
    TruncatedSeries,
    apply_transposition,
    complete_sym,
    elementary_sym,
    series_inverse,
    tvar,
)
from .words import (
    STRICT,
    AlgebraParams,
    Word,
    _check_variant,
)

DP = "dp"
TRANSFER = "transfer"
SERIES = "series"
_METHODS = (DP, TRANSFER, SERIES)


@dataclass(frozen=True)
class CountTable:
    """Counts of admissible words for lengths 0..len(values)-1."""

    params: AlgebraParams
    variant: str
    method: str
    values: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "m": self.params.m,
            "k": self.params.k,
            "variant": self.variant,
            "method": self.method,
            "values": [str(v) for v in self.values],
        }


def build_transfer_graph(params: AlgebraParams, variant: str = STRICT) -> dict[Word, tuple[Word, ...]]:
    """The adjacency dict {state: successors} of the length-(k-1) windows,
    states in lexicographic order; a walk of length l - (k-1) spells an
    admissible word of length l."""
    _check_variant(variant)
    m, k = params.m, params.k
    strict = variant == STRICT
    edges = {}
    for state in iter_product(range(1, m + 1), repeat=k - 1):
        if strict:
            decreasing = all(state[s] > state[s + 1] for s in range(k - 2))
        else:
            decreasing = all(state[s] >= state[s + 1] for s in range(k - 2))
        outs = []
        for c in range(1, m + 1):
            # appending c is forbidden exactly when it completes a
            # decreasing window of length k
            if decreasing and (state[-1] > c if strict else state[-1] >= c):
                continue
            outs.append(state[1:] + (c,))
        edges[state] = tuple(outs)
    return edges


def _count_dp(params: AlgebraParams, length: int, variant: str) -> list[int]:
    # states (last letter, run length); the empty word's letter 0 continues no run
    m, k = params.m, params.k
    strict = variant == STRICT
    values = [1]
    state = {(0, 0): 1}
    for _ in range(length):
        nxt: dict[tuple[int, int], int] = {}
        for (last, run), count in state.items():
            for c in range(1, m + 1):
                extends = last > c if strict else last >= c
                run2 = run + 1 if extends else 1
                if run2 == k:
                    continue
                key = (c, run2)
                nxt[key] = nxt.get(key, 0) + count
        state = nxt
        values.append(sum(state.values()))
    return values


def _count_transfer(params: AlgebraParams, length: int, variant: str) -> list[int]:
    # the graph's states are numbered once, in its order, so the walk keeps
    # its counts in a list and each state's successors as a list of indices
    m, k = params.m, params.k
    values = [m ** l for l in range(min(k - 1, length) + 1)]
    if length >= k:
        graph = build_transfer_graph(params, variant)
        index = {state: n for n, state in enumerate(graph)}
        successors = [[index[target] for target in targets] for targets in graph.values()]
        counts = [1] * len(successors)
        for _ in range(k, length + 1):
            nxt = [0] * len(successors)
            for count, targets in zip(counts, successors):
                for target in targets:
                    nxt[target] += count
            counts = nxt
            values.append(sum(counts))
    return values


def _reciprocal(denominator: dict[int, Union[int, Fraction]], length: int) -> list:
    # c_0..c_length of 1 / (1 + sum_r d_r u**r), denominator = {r: d_r} for
    # r >= 1: c_0 = 1 and c_n = -sum_r d_r c_{n-r}
    values = [1]
    for n in range(1, length + 1):
        values.append(-sum(d * values[n - r] for r, d in denominator.items() if r <= n))
    return values


def _count_series(params: AlgebraParams, length: int, variant: str) -> list[int]:
    m, k = params.m, params.k
    strict = variant == STRICT
    return _reciprocal({r: (-1) ** (r % k) * (comb(m, r) if strict else comb(m + r - 1, r))
                        for r in _second_factor_degrees(k, length)[1:]}, length)


def count_admissible(params: AlgebraParams, length: int, variant: str = STRICT,
                     method: str = DP) -> CountTable:
    """Count admissible words of each length 0..length by the chosen method."""
    _check_variant(variant)
    if length < 0:
        raise ValueError("length must be nonnegative")
    if method == DP:
        values = _count_dp(params, length, variant)
    elif method == TRANSFER:
        values = _count_transfer(params, length, variant)
    elif method == SERIES:
        values = _count_series(params, length, variant)
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {_METHODS}")
    return CountTable(params, variant, method, tuple(values))


def f_denominator(params: AlgebraParams, cap: int, variant: str = STRICT) -> Poly:
    """The alternating sum 1 - e_1 + e_k - e_{k+1} + e_{2k} - ... (strict)
    or its complete-homogeneous analogue with h_r (weak, truncated at cap)."""
    _check_variant(variant)
    m, k = params.m, params.k
    strict = variant == STRICT
    bound = m if strict else cap
    total = Poly.zero()
    for r in _second_factor_degrees(k, bound):
        part = elementary_sym(r, m) if strict else complete_sym(r, m)
        total = total + (-1) ** (r % k) * part
    return total


@dataclass(frozen=True)
class FSeriesResult:
    params: AlgebraParams
    variant: str
    cap: int
    denominator: Poly
    lhs: TruncatedSeries
    rhs: TruncatedSeries
    equal: bool

    def to_json_obj(self) -> dict:
        return {
            "m": self.params.m,
            "k": self.params.k,
            "variant": self.variant,
            "cap": self.cap,
            "denominator": self.denominator.to_json_terms(),
            "lhs": self.lhs.poly.to_json_terms(),
            "rhs": self.rhs.poly.to_json_terms(),
            "equal": self.equal,
        }


def _content_counts(params: AlgebraParams, cap: int, variant: str) -> dict:
    # The dp automaton on states (content, last letter, run length), where
    # content counts each letter; every length emits t_1^c_1 ... t_m^c_m
    # with the number of admissible words of that content.  Letters are
    # 0-based here, and the empty word's last letter -1 continues no run.
    m, k = params.m, params.k
    strict = variant == STRICT
    markers = [tvar(i) for i in range(1, m + 1)]
    acc: dict = {(): 1}
    state: dict[tuple, int] = {((0,) * m, -1, 0): 1}
    for _ in range(cap):
        nxt: dict[tuple, int] = {}
        for (content, last, run), count in state.items():
            for c in range(m):
                extends = last > c if strict else last >= c
                run2 = run + 1 if extends else 1
                if run2 == k:
                    continue
                key = (content[:c] + (content[c] + 1,) + content[c + 1:], c, run2)
                nxt[key] = nxt.get(key, 0) + count
        state = nxt
        totals: dict[tuple, int] = {}
        for (content, _, _), count in state.items():
            totals[content] = totals.get(content, 0) + count
        for content, count in totals.items():
            acc[tuple((markers[c], e) for c, e in enumerate(content) if e)] = count
    return acc


def f_series(params: AlgebraParams, cap: int, variant: str = STRICT) -> FSeriesResult:
    """Compare sum over admissible words of t_{w_1}...t_{w_l} with the
    inverse of the alternating e- (or h-) sum, up to t-degree cap.

    The lhs is counted per content class by the run-length automaton, one
    monomial per class and length; the rhs is `series_inverse` of
    `f_denominator`, an independent route."""
    _check_variant(variant)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    lhs = TruncatedSeries(Poly(_content_counts(params, cap, variant)), cap)
    denominator = f_denominator(params, cap, variant)
    rhs = series_inverse(denominator, cap)
    return FSeriesResult(params, variant, cap, denominator, lhs, rhs,
                         lhs.poly == rhs.poly)


def check_symmetry(series: Union[TruncatedSeries, Poly], m: int) -> bool:
    """True iff the polynomial is invariant under swapping adjacent markers."""
    poly = series.poly if isinstance(series, TruncatedSeries) else series
    return all(apply_transposition(poly, i) == poly for i in range(1, m))


def count_perms_no_long_descents(n: int, k: int) -> int:
    """Permutations of {1..n} whose strictly decreasing runs all have length < k.

    Counted by inserting letters by relative rank, in O(n**2 * k): the state
    is the relative rank of the last letter among those placed so far and the
    length of the strictly decreasing run it ends.  A new letter of rank j'
    among i + 1 lies below the last letter, of rank j among i, iff j' <= j."""
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    if n == 0:
        return 1
    # ways[r][j]: arrangements of i letters whose last letter has rank j
    # (0-based) and ends a decreasing run of r + 1 letters; here i = 1
    ways = [[1]] + [[0] for _ in range(k - 2)]
    for _ in range(n - 1):
        by_rank = [sum(column) for column in zip(*ways)]
        # a rise to rank j' follows any last letter of rank j < j' and
        # starts a run; a fall extends the run of a last letter of rank j >= j'
        rises = [0, *accumulate(by_rank)]
        falls = [[*accumulate(reversed(row))][::-1] + [0] for row in ways[:-1]]
        ways = [rises, *falls]
    return sum(map(sum, ways))


@dataclass(frozen=True)
class EgfReport:
    """`brute_counts` are the direct counts of `count_perms_no_long_descents`,
    `series_counts` the ones read off the exponential series."""

    k: int
    cap: int
    brute_counts: tuple[int, ...]
    series_counts: tuple[int, ...]
    passed: bool


def egf_check(k: int, cap: int) -> EgfReport:
    """Exponential analogue: n! times the x**n coefficient of
    1 / (sum of (-1)**eps x**(kj+eps) / (kj+eps)!) counts permutations of
    {1..n} without strictly decreasing runs of length k, for n <= cap."""
    if k < 2:
        raise ValueError("run length k must be at least 2")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    denominator = {r: Fraction((-1) ** (r % k), factorial(r))
                   for r in _second_factor_degrees(k, cap)[1:]}
    series_counts = []
    for n, coeff in enumerate(_reciprocal(denominator, cap)):
        value = Fraction(coeff * factorial(n))
        if value.denominator != 1:
            raise ArithmeticError(f"non-integer permutation count at n={n}")
        series_counts.append(int(value))
    brute_counts = [count_perms_no_long_descents(n, k) for n in range(cap + 1)]
    return EgfReport(k, cap, tuple(brute_counts), tuple(series_counts),
                     brute_counts == series_counts)


@dataclass(frozen=True)
class NmReport:
    """Row sums of the rewriting table for the all-ones matrix at k = m.

    `totals[l]` sums g(i) over admissible words of length l; the identity
    forces this to be m**l even though the number of admissible words is
    the much smaller L(l)."""

    m: int
    cap: int
    totals: tuple[int, ...]
    expected: tuple[int, ...]
    admissible_counts: tuple[int, ...]
    passed: bool


def n_m_check(m: int, cap: int) -> NmReport:
    params = AlgebraParams(m, m)
    by_length = [0] * (cap + 1)
    for content, total in first_factor_totals(SymMatrix.ones(m), params, cap).items():
        by_length[sum(content)] += total.constant_value()
    totals = tuple(by_length)
    expected = tuple(m ** l for l in range(cap + 1))
    admissible = count_admissible(params, cap, STRICT, TRANSFER).values
    return NmReport(m, cap, totals, expected, admissible, totals == expected)
