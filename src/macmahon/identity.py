"""The master identity: first factor, and verification of the product.

For an m x m matrix A put y_i = sum_j a_ij x_j.  The coefficient of the
admissible monomial x_{i_1} ... x_{i_l} in the normal form of
y_{i_1} ... y_{i_l} is written g(i); the first factor of the identity is
the series sum over admissible words i of g(i) t_{i_1} ... t_{i_l}.  The
identity states that this series times the second factor (`charpoly`)
equals 1.

`first_factor` computes all g(i) up to a length cap in one depth-first
sweep over all words j of length <= cap.  Expanding the product of the
y's gives g(i) = sum over j of c(i, j) a_{i_1 j_1} ... a_{i_l j_l}, where
c(i, j) is the coefficient of x_i in the normal form NF(j) of
x_{j_1} ... x_{j_l}.  The sweep gets NF(j) from NF(j_2 ... j_l) by
left-multiplying each term with x_{j_1}, and scatters each term of NF(j)
into g(i).  Its cost is the sum over j of |NF(j)|, and only the cap
normal forms on the current path of the walk are live at any time.

The weight c(i, j) a_{i_1 j_1} ... a_{i_l j_l} of each term is carried
along the path: almost every left-multiplication x_a * w is already
admissible, and then the term (a,) + w of the child inherits a_aa times
the weight of w.  Only the prepends whose front k-window is strictly
decreasing are rewritten and cached, by `rewrite.PrependRewriter` (all
rewriting lives in `rewrite`), and weighed afresh.

Rewriting preserves the content (multiset of letters) of a word, and all
words of one content share their t-monomial, so `series()` sums g over
each content class before attaching the monomial once per class.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional, Sequence, Union

from .charpoly import SymMatrix, _second_factor_degrees, alpha, enumerate_partial_perms, second_factor
from .polyring import Poly, TruncatedSeries, mono_mul, tvar, word_t_monomial
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


def _sweep_table(rows: list[list[Coeff]], params: AlgebraParams, cap: int) -> dict[Word, Coeff]:
    # depth-first over all words j: NF((a,) + j) is x_a times NF(j), and
    # each term c * i of NF(j) adds its weight c * prod_s a_{i_s j_s} to g(i).
    # A term w whose prepend (a,) + w stays admissible passes to the child
    # with weight a_aa times its own; only the other terms are rewritten
    # and have their weight multiplied out afresh.
    m = params.m
    rewriter = PrependRewriter(params)
    table: dict[Word, Coeff] = {}

    def visit(j: Word, coeffs: dict[Word, int], weights: dict[Word, Coeff]) -> None:
        for i in coeffs:
            weight = weights[i]
            if weight:
                table[i] = table.get(i, 0) + weight
        if len(j) == cap:
            return
        terms = [(w, c, weights[w], rewriter.head(w)) for w, c in coeffs.items()]
        for a in range(1, m + 1):
            diagonal = rows[a - 1][a - 1]
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
            child_j = (a,) + j
            for u in rewritten:
                if u in child:
                    child_weights[u] = _path_weight(rows, child[u], u, child_j)
            visit(child_j, child, child_weights)

    visit((), {(): 1}, {(): 1})
    return {i: value for i, value in table.items() if value}


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

    def degree_totals(self) -> list[Coeff]:
        """Sum of g(i) over admissible words of each length 0..cap."""
        totals: list[Coeff] = [0] * (self.cap + 1)
        for w, value in self.coeffs.items():
            totals[len(w)] = totals[len(w)] + value
        return totals

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


def first_factor(matrix: SymMatrix, params: AlgebraParams, cap: int) -> FirstFactorSeries:
    """Compute g(i) for every admissible word i with len(i) <= cap."""
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    rows = [[_entry_coeff(e) for e in row] for row in matrix.entries]
    mode = NUMERIC if matrix.is_numeric() else SYMBOLIC
    table = _sweep_table(rows, params, cap)
    return FirstFactorSeries(params=params, cap=cap, mode=mode, coeffs=table)


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
    ff = first_factor(matrix, params, cap)
    product = ff.series() * second_factor(matrix, params)
    residuals = [
        product.t_component(d) - (1 if d == 0 else 0)
        for d in range(cap + 1)
    ]
    return _report_from_residuals(params, cap, ff.mode, residuals)


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
