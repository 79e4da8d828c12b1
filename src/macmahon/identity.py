"""The master identity: first factor, and verification of the product.

For an m x m matrix A put y_i = sum_j a_ij x_j.  The coefficient of the
admissible monomial x_{i_1} ... x_{i_l} in the normal form of
y_{i_1} ... y_{i_l} is written g(i); the first factor of the identity is
the series sum over admissible words i of g(i) t_{i_1} ... t_{i_l}.  The
identity states that this series times the second factor (`charpoly`)
equals 1.

`first_factor` and `first_factor_totals` share one depth-first sweep over
all words j of length <= cap.  Expanding the product of the y's gives
g(i) = sum over j of c(i, j) a_{i_1 j_1} ... a_{i_l j_l}, where c(i, j) is
the coefficient of x_i in the normal form NF(j) of x_{j_1} ... x_{j_l}.
The sweep gets NF(j) from NF(j_2 ... j_l) by left-multiplying each term
with x_{j_1}, and hands the weight of each term of NF(j) to a sink.  Its
cost is the sum over j of |NF(j)|, and only the cap normal forms on the
current path of the walk are live at any time.

Two sinks read the one sweep.  The per-word sink of `first_factor` adds
each weight to g(i).  `verify_master` reads only the per-content totals
FF_gamma, the sum of g(i) over the words i of content gamma (the letter
counts), because all words of one content share their t-monomial.
Rewriting preserves content, so every term of NF(j) has the content of j;
the sweep carries that content along its path, and the per-content sink
of `first_factor_totals` adds each node's total weight to it.  `verify`
thus never builds the per-word table; `FirstFactorSeries.series()` sums
that table per content and serves as the cross-check.

The weight c(i, j) a_{i_1 j_1} ... a_{i_l j_l} of each term is carried
along the path: almost every left-multiplication x_a * w is already
admissible, and then the term (a,) + w of the child inherits a_aa times
the weight of w.  Only the prepends whose front k-window is strictly
decreasing are rewritten and cached, by `rewrite.PrependRewriter` (all
rewriting lives in `rewrite`), and weighed afresh.

The weight is linear in the coefficient c, so the last level of the
sweep (len(j) = cap, about (m-1)/m of all nodes) is never built: each
node of length cap - 1 scatters straight into the sink, once per letter
a, a_aa times the weight of each kept term and the weighed normal form
of each rewritten one.  The per-content sink sums the kept weights first,
so it multiplies by a_aa once per letter.

Relabelling the generators by a permutation s of {1..m} is an algebra
automorphism, because the relations (the antisymmetrizers) span a
GL_m-stable space.  The first factor is the graded trace of the map
x_i -> sum_j t_i a_ij x_j on the algebra, so it is unchanged by
conjugating that map with s: FF_gamma(A) = FF_{gamma o s}(A^s), where
A^s_ij = A_{s(i) s(j)}.  When A is invariant under relabelling, that is
A^s = rho_s(A) for every s, where rho_s renames each a_pq to
a_{s(p) s(q)}, the totals of the partitions lambda (c_1 >= ... >= c_m)
fix all others: if gamma_{s(i)} = lambda_i, then
FF_gamma = rho_s(FF_lambda).  The generic symbolic matrix is invariant,
and a numeric matrix is exactly when it is alpha*I + beta*J, where rho_s
does nothing.  For such matrices `first_factor_totals` sweeps only the
words j whose partition hull (gamma_i = max over i' >= i of c_{i'}) has
size <= cap: every suffix of such a word is such a word too, and the
words of partition content are among them.  It keeps the totals of the
partition contents and renames them into the others.  The per-word table
of `first_factor` always comes from the full sweep.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from itertools import product as iter_product
from operator import ge
from typing import Iterator, Optional, Sequence, Union

from .charpoly import SymMatrix, _second_factor_degrees, alpha, enumerate_partial_perms, second_factor
from .polyring import Poly, TruncatedSeries, avar, mono_mul, rename_vars, tvar, word_t_monomial
from .rewrite import PrependRewriter, _accumulate, _normal_form_terms
from .words import AlgebraParams, Word, is_admissible, validate_word

Coeff = Union[int, Fraction, Poly]

NUMERIC = "numeric"
SYMBOLIC = "symbolic"
COROLLARY = "corollary"


def _entry_coeff(entry: Poly) -> Coeff:
    return entry.constant_value() if entry.is_constant() else entry


def _path_weight(rows: list[list[Coeff]], c: int, i: Word, j: Word) -> Coeff:
    # c * prod_s a_{i_s j_s}, stopping at the first zero entry
    weight = c
    for a, b in zip(i, j):
        entry = rows[a - 1][b - 1]
        if not entry:
            return 0
        weight = weight * entry
    return weight


def _hull_size(content: tuple) -> int:
    # the size of the least partition above content: gamma_i = max(c_i, c_{i+1}, ...)
    size = top = 0
    for c in reversed(content):
        top = max(top, c)
        size += top
    return size


def _sweep(rows: list[list[Coeff]], params: AlgebraParams, cap: int, sink,
           pruned: bool = False) -> None:
    # depth-first over all words j: NF((a,) + j) is x_a times NF(j), and
    # each term c * i of NF(j) has the weight c * prod_s a_{i_s j_s}, which
    # the sink adds to g(i) or to the total of the content of j.
    # A term w whose prepend (a,) + w stays admissible passes to the child
    # with weight a_aa times its own; only the other terms are rewritten
    # and have their weight multiplied out afresh.
    # The sink gets `node` for each built node j, with the coefficients
    # and weights of NF(j); `kept_leaves` once per node of length cap - 1,
    # with its terms (w, c, weight, head), where the leaf (a,) + j keeps
    # (a,) + w with weight a_aa * weight when a <= head; and `add` for
    # each weighed term of a rewritten leaf.
    # When `pruned`, only the words whose partition hull has size <= cap
    # are built; on the last level these are the words of partition content.
    m = params.m
    rewriter = PrependRewriter(params)
    diagonals = [rows[a][a] for a in range(m)]
    hull_fits: dict[tuple, bool] = {}

    def fits(content: tuple) -> bool:
        ok = hull_fits.get(content)
        if ok is None:
            ok = hull_fits[content] = _hull_size(content) <= cap
        return ok

    def visit(j: Word, content: tuple, coeffs: dict[Word, int], weights: dict[Word, Coeff]) -> None:
        sink.node(content, coeffs, weights)
        if len(j) == cap:
            return
        terms = [(w, c, weights[w], rewriter.head(w)) for w, c in coeffs.items()]
        children = [(a, (a,) + j, content[:a - 1] + (content[a - 1] + 1,) + content[a:])
                    for a in range(1, m + 1)]
        if pruned:
            children = [child for child in children if fits(child[2])]
        if len(j) + 1 == cap:
            # the weight is linear in c, so the last level is never built:
            # kept terms go to the sink scaled by a_aa, and each rewritten
            # term scatters its weighed normal form
            sink.kept_leaves(children, diagonals, terms)
            fronts = [term for term in terms if term[3] < m]
            for a, child_j, child_content in children:
                for w, c, _, head in fronts:
                    if a > head:
                        for u, coeff in rewriter.front((a,) + w).items():
                            sink.add(child_content, u, _path_weight(rows, c * coeff, u, child_j))
            return
        for a, child_j, child_content in children:
            diagonal = diagonals[a - 1]
            child: dict[Word, int] = {}
            child_weights: dict[Word, Coeff] = {}
            rewritten: list[Word] = []
            for w, c, weight, head in terms:
                word = (a,) + w
                if a > head:
                    nf = rewriter.front(word)
                    for u, coeff in nf.items():
                        _accumulate(child, u, c * coeff)
                    rewritten.extend(nf)
                elif word in child:
                    # reached by a rewrite too, so its weight is redone below
                    _accumulate(child, word, c)
                else:
                    child[word] = c
                    child_weights[word] = diagonal * weight if diagonal and weight else 0
            # child_weights may keep words that cancelled out of child; only
            # the keys of child are ever read
            for u in rewritten:
                if u in child:
                    child_weights[u] = _path_weight(rows, child[u], u, child_j)
            visit(child_j, child_content, child, child_weights)

    visit((), (0,) * m, {(): 1}, {(): 1})


class _WordSink:
    """g(i) for each word i: the per-word table."""

    def __init__(self) -> None:
        self.table: dict[Word, Coeff] = {}

    def add(self, content: tuple, word: Word, weight: Coeff) -> None:
        if weight:
            self.table[word] = self.table.get(word, 0) + weight

    def node(self, content: tuple, coeffs: dict[Word, int], weights: dict[Word, Coeff]) -> None:
        table = self.table
        for i in coeffs:
            weight = weights[i]
            if weight:
                table[i] = table.get(i, 0) + weight

    def kept_leaves(self, children: list, diagonals: list[Coeff], terms: list) -> None:
        table = self.table
        for a, _, _ in children:
            diagonal = diagonals[a - 1]
            if not diagonal:
                continue
            for w, _, weight, head in terms:
                if a <= head and weight:
                    word = (a,) + w
                    table[word] = table.get(word, 0) + diagonal * weight


class _ContentSink:
    """FF_gamma = sum of g(i) over the words i of content gamma.

    Every term of NF(j) has the content of j, so each node adds its total
    weight once, keyed by the letter counts of j, and `add` does not read
    the word."""

    def __init__(self) -> None:
        self.scalars: dict[tuple, Coeff] = {}
        # Poly weights merge into one dict per content: adding Polys would
        # copy the running total at every step
        self.polys: dict[tuple, dict] = {}

    def add(self, content: tuple, word: Word, weight: Coeff) -> None:
        if isinstance(weight, Poly):
            acc = self.polys.get(content)
            if acc is None:
                acc = self.polys[content] = {}
            for mono, coeff in weight.terms.items():
                acc[mono] = acc.get(mono, 0) + coeff
        elif weight:
            self.scalars[content] = self.scalars.get(content, 0) + weight

    def node(self, content: tuple, coeffs: dict[Word, int], weights: dict[Word, Coeff]) -> None:
        self.add(content, (), sum(map(weights.__getitem__, coeffs)))

    def kept_leaves(self, children: list, diagonals: list[Coeff], terms: list) -> None:
        # x_a * w stays admissible exactly when a <= head(w), so the kept
        # terms of child a are those with head >= a; the suffix sums run
        # over every head, since a pruned sweep may hand over only some
        # of the children
        kept: list[Coeff] = [0] * len(diagonals)
        for _, _, weight, head in terms:
            if weight:
                kept[head - 1] = kept[head - 1] + weight
        for a in range(len(diagonals) - 1, 0, -1):
            kept[a - 1] = kept[a - 1] + kept[a]
        for a, _, child_content in children:
            diagonal = diagonals[a - 1]
            if diagonal and kept[a - 1]:
                self.add(child_content, (), diagonal * kept[a - 1])

    def totals(self) -> dict[tuple, Poly]:
        out = {}
        for content in self.scalars.keys() | self.polys.keys():
            total = Poly(self.polys.get(content)) + self.scalars.get(content, 0)
            if total:
                out[content] = total
        return out


class _PartitionSink(_ContentSink):
    """FF_lambda for the partition contents lambda only.

    The pruned sweep builds words of other contents on its way to these;
    their node totals are dropped.  Its leaves all have partition content."""

    def node(self, content: tuple, coeffs: dict[Word, int], weights: dict[Word, Coeff]) -> None:
        if all(map(ge, content, content[1:])):
            super().node(content, coeffs, weights)


def _relabelling(s: Sequence[int]) -> dict:
    """rho_s as a variable map: a_pq -> a_{s(p) s(q)}, with s 0-based."""
    return {avar(p + 1, q + 1): avar(s[p] + 1, s[q] + 1)
            for p in range(len(s)) for q in range(len(s))}


def _relabelling_invariant(matrix: SymMatrix) -> bool:
    """Whether A_{s(i) s(j)} = rho_s(A_ij) for every permutation s.

    The s for which this holds form a group (rho_s rho_u = rho_{su}), so
    the transposition (1 2) and the cycle (1 2 ... m), which generate S_m,
    are enough to check.
    """
    m, entries = matrix.m, matrix.entries
    for s in ((1, 0, *range(2, m)), (*range(1, m), 0)):
        names = _relabelling(s)
        for i in range(m):
            for j in range(m):
                if rename_vars(entries[i][j], names) != entries[s[i]][s[j]]:
                    return False
    return True


def _rearrangements(partition: tuple) -> Iterator[tuple[tuple, tuple]]:
    """Each distinct rearrangement gamma of a partition, once, with an s
    (0-based) such that gamma_{s(i)} = partition_i."""
    m = len(partition)
    blocks = [len(list(run)) for _, run in groupby(partition)]

    def place(free: tuple, blocks: list[int]) -> Iterator[tuple]:
        # s lists the positions of the largest part first, then the next
        if not blocks:
            yield ()
            return
        for chosen in combinations(free, blocks[0]):
            rest = tuple(p for p in free if p not in chosen)
            for tail in place(rest, blocks[1:]):
                yield chosen + tail

    for s in place(tuple(range(m)), blocks):
        gamma = [0] * m
        for i, p in enumerate(s):
            gamma[p] = partition[i]
        yield tuple(gamma), s


@dataclass(frozen=True)
class FirstFactorSeries:
    """All nonzero coefficients g(i) for admissible words of length <= cap."""

    params: AlgebraParams
    cap: int
    mode: str
    coeffs: dict

    def g(self, word: Sequence[int]) -> Poly:
        w = validate_word(word, self.params.m)
        if len(w) > self.cap:
            raise ValueError(f"word longer than cap {self.cap}")
        if not is_admissible(w, self.params):
            raise ValueError(f"word {w!r} is not admissible")
        value = self.coeffs.get(w, 0)
        return value if isinstance(value, Poly) else Poly.constant(value)

    def series(self) -> TruncatedSeries:
        """The first factor as a polynomial in the t (and perhaps a) variables."""
        # words of one content share their t-monomial, so sum g over each
        # content class first and attach the monomial once per class
        by_content: dict[Word, dict] = {}
        for w, value in self.coeffs.items():
            acc = by_content.setdefault(tuple(sorted(w)), {})
            if isinstance(value, Poly):
                for mono, coeff in value.terms.items():
                    _accumulate(acc, mono, coeff)
            else:
                _accumulate(acc, (), value)
        terms: dict = {}
        for content, acc in by_content.items():
            tmono = word_t_monomial(content)
            for mono, coeff in acc.items():
                _accumulate(terms, mono_mul(mono, tmono), coeff)
        return TruncatedSeries(Poly(terms), self.cap)


def max_sweep_cap() -> int:
    """The deepest cap the sweep accepts.

    The sweep recurses once per letter, and the rewriter below it up to
    twice more; with m >= 2 there are more than 2**cap words, so no cap
    refused here could finish anyway."""
    return sys.getrecursionlimit() // 4


def _sweep_rows(matrix: SymMatrix, params: AlgebraParams, cap: int) -> list[list[Coeff]]:
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if cap > max_sweep_cap():
        raise ValueError(f"cap {cap} is deeper than the sweep can recurse (at most {max_sweep_cap()})")
    return [[_entry_coeff(e) for e in row] for row in matrix.entries]


def first_factor(matrix: SymMatrix, params: AlgebraParams, cap: int) -> FirstFactorSeries:
    """Compute g(i) for every admissible word i with len(i) <= cap."""
    sink = _WordSink()
    _sweep(_sweep_rows(matrix, params, cap), params, cap, sink)
    mode = NUMERIC if matrix.is_numeric() else SYMBOLIC
    return FirstFactorSeries(params=params, cap=cap, mode=mode,
                             coeffs={i: value for i, value in sink.table.items() if value})


def first_factor_totals(matrix: SymMatrix, params: AlgebraParams, cap: int) -> dict[tuple[int, ...], Poly]:
    """FF_gamma, the sum of g(i) over the admissible words i of content gamma.

    A content is the tuple (c_1, ..., c_m) of letter counts, with
    c_1 + ... + c_m <= cap; contents whose total is zero are left out.

    When the matrix is invariant under relabelling the generators (the
    generic symbolic matrix, or numerically alpha*I + beta*J), only the
    words whose partition hull has size <= cap are swept, and each total
    of a non-partition content gamma is the total of its partition lambda
    with the a_pq renamed: FF_gamma = rho_s(FF_lambda) for any s with
    gamma_{s(i)} = lambda_i, since relabelling is an automorphism of the
    algebra (see the module docstring).  Other matrices take the full
    sweep.
    """
    rows = _sweep_rows(matrix, params, cap)
    if not _relabelling_invariant(matrix):
        sink = _ContentSink()
        _sweep(rows, params, cap, sink)
        return sink.totals()
    sink = _PartitionSink()
    _sweep(rows, params, cap, sink, pruned=True)
    numeric = matrix.is_numeric()
    totals = {}
    for partition, total in sink.totals().items():
        for content, s in _rearrangements(partition):
            totals[content] = total if numeric else rename_vars(total, _relabelling(s))
    return totals


def g_coefficient(matrix: SymMatrix, word: Sequence[int], params: AlgebraParams) -> Poly:
    """The coefficient g(i) of one admissible word, by incremental left-multiplication."""
    w = validate_word(word, params.m)
    if not is_admissible(w, params):
        raise ValueError(f"word {w!r} is not admissible")
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    rows = [[_entry_coeff(e) for e in row] for row in matrix.entries]
    nf_cache: dict[Word, dict[Word, int]] = {}
    vec: dict[Word, Coeff] = {(): 1}
    for letter in reversed(w):
        row = rows[letter - 1]
        nxt: dict[Word, Coeff] = {}
        for s, cw in vec.items():
            for j in range(1, params.m + 1):
                aij = row[j - 1]
                if not aij:
                    continue
                scale = aij * cw
                word = (j,) + s
                nf = nf_cache.get(word)
                if nf is None:
                    nf = nf_cache[word] = _normal_form_terms(word, params)
                for w2, coeff in nf.items():
                    _accumulate(nxt, w2, scale * coeff)
        vec = nxt
    value = vec.get(w, 0)
    return value if isinstance(value, Poly) else Poly.constant(value)


@dataclass(frozen=True)
class DegreeCheck:
    degree: int
    ok: bool
    residual_terms: int


@dataclass(frozen=True)
class VerificationReport:
    """Per-degree outcome of checking that a product of series equals 1."""

    params: AlgebraParams
    cap: int
    mode: str
    passed: bool
    per_degree: tuple[DegreeCheck, ...]
    first_failure: Optional[dict]

    def to_json_obj(self) -> dict:
        return {
            "params": {"m": self.params.m, "k": self.params.k},
            "cap": self.cap,
            "mode": self.mode,
            "pass": self.passed,
            "per_degree": [
                {"d": c.degree, "ok": c.ok, "residual_terms": c.residual_terms}
                for c in self.per_degree
            ],
            "first_failure": self.first_failure,
        }


def _report_from_residuals(params: AlgebraParams, cap: int, mode: str,
                           residuals: Sequence[Poly]) -> VerificationReport:
    checks = []
    first_failure = None
    for degree, residual in enumerate(residuals):
        ok = not residual
        checks.append(DegreeCheck(degree, ok, len(residual.terms)))
        if not ok and first_failure is None:
            first_failure = {"degree": degree, "residual": residual.to_json_terms()}
    return VerificationReport(
        params=params, cap=cap, mode=mode,
        passed=first_failure is None,
        per_degree=tuple(checks),
        first_failure=first_failure,
    )


def verify_master(matrix: SymMatrix, params: AlgebraParams, cap: int) -> VerificationReport:
    """Check first_factor(A) * second_factor(A) = 1 up to t-degree cap."""
    # words of one content share their t-monomial, so the series attaches
    # it once to each content total
    terms: dict = {}
    for content, total in first_factor_totals(matrix, params, cap).items():
        tmono = tuple((tvar(i), e) for i, e in enumerate(content, start=1) if e)
        for mono, coeff in total.terms.items():
            terms[mono_mul(mono, tmono)] = coeff
    product = TruncatedSeries(Poly._raw(terms), cap) * second_factor(matrix, params)
    residuals = [
        product.t_component(d) - (1 if d == 0 else 0)
        for d in range(cap + 1)
    ]
    mode = NUMERIC if matrix.is_numeric() else SYMBOLIC
    return _report_from_residuals(params, cap, mode, residuals)


def verify_corollary(matrix: SymMatrix, params: AlgebraParams, cap: int) -> VerificationReport:
    """Check the single-marker specialisation t_i = u of the identity for a
    numeric `SymMatrix` (a symbolic one raises `ValueError`).

    Both brackets are recomputed by routes independent of `first_factor`
    and `char_coeffs`: the degree-l coefficient of the first bracket sums
    normal-form coefficients over all m**l words, and the second bracket
    is expanded over partial permutations with sign
    (-1) ** (alpha(r) + r + inversions).
    """
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    rows = matrix.scalar_rows()
    m, k = params.m, params.k

    first = [1]
    for length in range(1, cap + 1):
        total = 0
        for j in iter_product(range(1, m + 1), repeat=length):
            for i, coeff in _normal_form_terms(j, params).items():
                weight = coeff
                for a, b in zip(i, j):
                    weight = weight * rows[a - 1][b - 1]
                total += weight
        first.append(total)

    second: dict[int, Coeff] = {}
    for r in _second_factor_degrees(k, m):
        acc = 0
        for pp in enumerate_partial_perms(m, r):
            weight = 1
            for j, image in zip(pp.support, pp.images):
                weight = weight * rows[j - 1][image - 1]
            acc += (-1) ** pp.inv * weight
        second[r] = (-1) ** (alpha(r, k) + r) * acc

    residuals = []
    for d in range(cap + 1):
        conv = sum(
            first[l] * second[d - l]
            for l in range(d + 1) if d - l in second
        )
        value = conv - (1 if d == 0 else 0)
        if not value:
            residuals.append(Poly.zero())
        elif d == 0:
            residuals.append(Poly.constant(value))
        else:
            residuals.append(Poly.monomial(((tvar(1), d),), value))
    return _report_from_residuals(params, cap, COROLLARY, residuals)
