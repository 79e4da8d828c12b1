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
with x_{j_1}, and hands the weight of each term of NF(j) to a sink; a
word whose coefficient cancels leaves the weights too, so a sink sees only
the live terms.  Its cost is the sum over j of |NF(j)|, and only the cap
normal forms on the current path of the walk are live at any time.

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
rewriting lives in `rewrite`).  The rewritten terms of a child are summed
per word first, and each word whose sum is nonzero is weighed once,
against the columns of A for the letters of j, which the walk carries
along its path: the child (a,) + j gets column a in front of its
parent's.  The children of a node depend only on its content, so each
content's list of (letter, child content), with the hull test of the
pruned sweep below applied, is built once per sweep.

The weight is linear in the coefficient c, so the last level of the
sweep (len(j) = cap, about (m-1)/m of all nodes) is never built: each
node of length cap - 1 hands the sink, in one call, its kept terms,
which leaf a keeps with a_aa times their weight, and for each leaf the
weighed normal forms of its rewritten terms, merged into one weight per
word.  The per-content sink sums the kept weights first, so it
multiplies by a_aa once per letter.

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
words of partition content are among them.  The one per-content sink
reads this sweep too.  Every word of a content whose hull fits in the
cap is swept, so the sink's totals of these contents are exact;
`first_factor_totals` keeps them and renames the partition totals into
the contents whose hull is larger, by moving each digit of their packed
monomials (below) to its renamed variable's place.
The per-word table of `first_factor` always comes from the full sweep.

No `Poly` arithmetic runs in the sweep, its sinks or the product that
`verify_master` checks.  A numeric entry stays a scalar; every other
entry becomes a packed weight, a map from monomials packed into one int
(`polyring.PackedCodec`) to coefficients, so multiplying two monomials
is one integer addition.  The sinks add up packed weights and decode to
`Poly` once, at the end.  `verify_master` gives each content total its
t-monomial by adding the content's t-digits to its keys, multiplies it
with the packed second factor bucket by bucket of t-degree, counts the
nonzero terms of each degree's residual, and decodes only the first
failing degree for the report.  `FirstFactorSeries.series()` and
`g_coefficient` stay in `Poly` as oracles.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from itertools import product as iter_product
from operator import ge, mul
from typing import Callable, Iterator, Optional, Sequence, Union

from .charpoly import SymMatrix, _second_factor_degrees, alpha, enumerate_partial_perms, second_factor
from .polyring import (PackedCodec, Poly, Scalar, TruncatedSeries, avar, mono_mul, mono_t_degree,
                       rename_vars, tvar, word_t_monomial)
from .rewrite import PrependRewriter, _accumulate, _normal_form_terms
from .words import AlgebraParams, Word, is_admissible, validate_word

Coeff = Union[int, Fraction, Poly]
Weight = Union[int, Fraction, "_Weight"]

NUMERIC = "numeric"
SYMBOLIC = "symbolic"
COROLLARY = "corollary"


class _Weight:
    """A polynomial weight c * prod a_{i_s j_s} as {packed monomial: coeff}.

    Numeric entries and weights stay plain scalars; every other entry is
    one of these, so a weight is either, and the sweep and its sinks use
    the same `*`, `+` and truth tests on both.  Multiplying two monomials
    adds their keys (`polyring.PackedCodec`); a scalar is the coefficient
    of the empty monomial, key 0.  A weight of one term, as every weight
    of the generic symbolic matrix is, keeps it in `key` and `coeff` with
    `terms` None.  `+` makes a new weight and `+=` adds in place, so a
    sink's running sum starts as a copy (0 + weight) that the sink owns.
    """

    __slots__ = ("terms", "key", "coeff")

    def __init__(self, terms: Optional[dict], key: int = 0, coeff: Scalar = 1) -> None:
        self.terms = terms
        self.key = key
        self.coeff = coeff

    def items(self):
        return ((self.key, self.coeff),) if self.terms is None else self.terms.items()

    def __bool__(self) -> bool:
        return self.terms is None or bool(self.terms)

    def __mul__(self, other: Weight) -> Weight:
        if type(other) is not _Weight:
            if not other:
                return 0
            if self.terms is None:
                return _Weight(None, self.key, self.coeff * other)
            return _Weight({key: coeff * other for key, coeff in self.terms.items()})
        if self.terms is None and other.terms is None:
            return _Weight(None, self.key + other.key, self.coeff * other.coeff)
        acc: dict = {}
        for key1, coeff1 in self.items():
            for key2, coeff2 in other.items():
                key = key1 + key2
                total = acc.get(key, 0) + coeff1 * coeff2
                if total:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return _Weight(acc)

    __rmul__ = __mul__

    def __iadd__(self, other: Weight) -> "_Weight":
        if self.terms is None:
            self.terms = {self.key: self.coeff}
        terms = self.terms
        if type(other) is _Weight:
            for key, coeff in other.items():
                terms[key] = terms.get(key, 0) + coeff
        elif other:
            terms[0] = terms.get(0, 0) + other
        return self

    def __add__(self, other: Weight) -> "_Weight":
        total = _Weight(dict(self.items()))
        total += other
        return total

    __radd__ = __add__


def _packed(weight: Weight) -> dict:
    # {packed monomial: coeff} of a weight, zero terms left out
    if type(weight) is _Weight:
        return {key: coeff for key, coeff in weight.items() if coeff}
    return {0: weight} if weight else {}


def _hull_size(content: tuple) -> int:
    # the size of the least partition above content: gamma_i = max(c_i, c_{i+1}, ...)
    size = top = 0
    for c in reversed(content):
        top = max(top, c)
        size += top
    return size


def _sweep(rows: list[list[Weight]], params: AlgebraParams, cap: int, sink,
           pruned: bool = False) -> None:
    # depth-first over all words j: NF((a,) + j) is x_a times NF(j), and
    # each term c * i of NF(j) has the weight c * prod_s a_{i_s j_s}, which
    # the sink adds to g(i) or to the total of the content of j.
    # A term w whose prepend (a,) + w stays admissible passes to the child
    # with weight a_aa times its own; the other terms are rewritten and
    # summed per word, and each word is weighed once against the columns
    # of A for j that the walk carries: cols[s][b] = a_{b j_s}.
    # A word whose coefficient cancels leaves both the coefficients and
    # the weights, so the weights of a node hold exactly the terms of NF(j).
    # The sink gets `node` for each built node j, with the weights of
    # NF(j), and `last_level` once per node of length cap - 1, with its
    # children [(a, content)], its terms (w, c, weight, head), where the
    # leaf (a,) + j keeps (a,) + w with weight a_aa * weight when
    # a <= head, and its fronts [(content, {word: weight})]: for each leaf
    # with a live rewritten word, the weighed normal forms of its
    # rewritten terms summed per word.
    # When `pruned`, only the words whose partition hull has size <= cap
    # are built; on the last level these are the words of partition
    # content, but the built nodes have other contents too.
    m = params.m
    rewriter = PrependRewriter(params)
    front, heads, front_len = rewriter.front, rewriter.heads, params.k - 1
    diagonals = [rows[a][a] for a in range(m)]
    # column b of A read by letter: columns[b - 1][a] = a_ab (index 0 unused)
    columns = [(None, *(row[b] for row in rows)) for b in range(m)]
    # (a, content of (a,) + j) for each letter a, by the content of j: the
    # children of one content are the same at every node of that content
    child_table: dict[tuple, list[tuple[int, tuple]]] = {}

    def visit(cols: list, content: tuple, coeffs: dict[Word, int], weights: dict[Word, Weight]) -> None:
        sink.node(content, weights)
        if len(cols) == cap:
            return
        terms = [(w, c, weights[w], heads.get(w[:front_len], m)) for w, c in coeffs.items()]
        children = child_table.get(content)
        if children is None:
            children = [(a, content[:a - 1] + (content[a - 1] + 1,) + content[a:])
                        for a in range(1, m + 1)]
            if pruned:
                children = [child for child in children if _hull_size(child[1]) <= cap]
            child_table[content] = children
        if len(cols) + 1 == cap:
            # the weight is linear in c, so the last level is never built:
            # kept terms go to the sink scaled by a_aa, and the rewritten
            # terms of each leaf are summed per word and weighed once
            fronts = []
            rewritten = [(w, c, head) for w, c, _, head in terms if head < m]
            if rewritten:
                for a, child_content in children:
                    merged: dict[Word, int] = {}
                    for w, c, head in rewritten:
                        if a > head:
                            for u, coeff in front((a,) + w).items():
                                merged[u] = merged.get(u, 0) + c * coeff
                    if merged:
                        leaf_cols = [columns[a - 1], *cols]
                        weighed: dict[Word, Weight] = {}
                        for u, weight in merged.items():
                            if not weight:
                                continue
                            for letter, col in zip(u, leaf_cols):
                                entry = col[letter]
                                if not entry:
                                    break
                                weight = weight * entry
                            else:
                                weighed[u] = weight
                        if weighed:
                            fronts.append((child_content, weighed))
            sink.last_level(children, diagonals, terms, fronts)
            return
        for a, child_content in children:
            diagonal = diagonals[a - 1]
            child: dict[Word, int] = {}
            child_weights: dict[Word, Weight] = {}
            fresh: dict[Word, int] = {}
            for w, c, weight, head in terms:
                if a > head:
                    for u, coeff in front((a,) + w).items():
                        fresh[u] = fresh.get(u, 0) + c * coeff
                else:
                    word = (a,) + w
                    child[word] = c
                    child_weights[word] = diagonal * weight if diagonal and weight else 0
            child_cols = [columns[a - 1], *cols]
            for u, c in fresh.items():
                if not c:
                    continue
                # a kept term of the same word adds its coefficient, and the
                # word is weighed afresh with the sum
                c += child.get(u, 0)
                if not c:
                    del child[u], child_weights[u]
                    continue
                child[u] = weight = c
                for letter, col in zip(u, child_cols):
                    entry = col[letter]
                    if not entry:
                        weight = 0
                        break
                    weight = weight * entry
                child_weights[u] = weight
            visit(child_cols, child_content, child, child_weights)

    visit([], (0,) * m, {(): 1}, {(): 1})


class _WordSink:
    """g(i) for each word i: the per-word table."""

    def __init__(self) -> None:
        self.table: dict[Word, Weight] = {}

    def add(self, word: Word, weight: Weight) -> None:
        if weight:
            total = self.table.get(word, 0)
            total += weight
            self.table[word] = total

    def node(self, content: tuple, weights: dict[Word, Weight]) -> None:
        for i, weight in weights.items():
            self.add(i, weight)

    def last_level(self, children: list, diagonals: list[Weight], terms: list, fronts: list) -> None:
        for a, _ in children:
            diagonal = diagonals[a - 1]
            if not diagonal:
                continue
            for w, _, weight, head in terms:
                if a <= head and weight:
                    self.add((a,) + w, diagonal * weight)
        for _, weighed in fronts:
            for u, weight in weighed.items():
                self.add(u, weight)


class _ContentSink:
    """FF_gamma = sum of g(i) over the words i of content gamma.

    Every term of NF(j) has the content of j, so each node adds its total
    weight once, keyed by the letter counts of j, and no word is read."""

    def __init__(self) -> None:
        self.sums: dict[tuple, Weight] = {}

    def node(self, content: tuple, weights: dict[Word, Weight]) -> None:
        # `+=`, not sum(): sum() adds by `+`, which copies a packed total
        total = self.sums.get(content, 0)
        for weight in weights.values():
            total += weight
        self.sums[content] = total

    def last_level(self, children: list, diagonals: list[Weight], terms: list, fronts: list) -> None:
        # x_a * w stays admissible exactly when a <= head(w), so the kept
        # terms of child a are those with head >= a; the suffix sums run
        # over every head, since a pruned sweep may hand over only some
        # of the children
        kept: list[Weight] = [0] * len(diagonals)
        for _, _, weight, head in terms:
            if weight:
                kept[head - 1] += weight
        for a in range(len(diagonals) - 1, 0, -1):
            kept[a - 1] += kept[a]
        sums = self.sums
        for a, content in children:
            diagonal = diagonals[a - 1]
            if diagonal and kept[a - 1]:
                total = sums.get(content, 0)
                total += diagonal * kept[a - 1]
                sums[content] = total
        for content, weighed in fronts:
            total = sums.get(content, 0)
            for weight in weighed.values():
                total += weight
            sums[content] = total

    def totals(self) -> dict[tuple, dict]:
        """{content: {packed monomial: coeff}}, zero totals left out."""
        out = {}
        for content, total in self.sums.items():
            packed = _packed(total)
            if packed:
                out[content] = packed
        return out


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


def _sweep_rows(matrix: SymMatrix, params: AlgebraParams, cap: int) -> tuple[list[list[Weight]], PackedCodec]:
    # the entries as sweep weights, and the codec that packs them.  Its
    # variables are the a_pq of the entries and the markers t_1..t_m.  A
    # weight of a word of length l is a product of l entries, and a term
    # of t-degree r of the second factor one of r entries, so with E the
    # largest exponent in an entry, no exponent formed by the sweep or by
    # verify's product (l + r <= cap) exceeds max(cap, 1) * E: the base is
    # one more than that
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if cap > max_sweep_cap():
        raise ValueError(f"cap {cap} is deeper than the sweep can recurse (at most {max_sweep_cap()})")
    powers = [(var, exp) for row in matrix.entries for entry in row
              for mono in entry.terms for var, exp in mono]
    if any(var[0] == "t" for var, _ in powers):
        raise ValueError("matrix entries must not involve the markers t_i")
    top = max((exp for _, exp in powers), default=1)
    markers = {tvar(i) for i in range(1, params.m + 1)}
    codec = PackedCodec({var for var, _ in powers} | markers, max(cap, 1) * top + 1)

    def weight(entry: Poly) -> Weight:
        if entry.is_constant():
            return entry.constant_value()
        if len(entry.terms) == 1:
            (mono, coeff), = entry.terms.items()
            return _Weight(None, codec.pack(mono), coeff)
        return _Weight({codec.pack(mono): coeff for mono, coeff in entry.terms.items()})

    return [[weight(e) for e in row] for row in matrix.entries], codec


def first_factor(matrix: SymMatrix, params: AlgebraParams, cap: int) -> FirstFactorSeries:
    """Compute g(i) for every admissible word i with len(i) <= cap."""
    rows, codec = _sweep_rows(matrix, params, cap)
    sink = _WordSink()
    _sweep(rows, params, cap, sink)
    coeffs = {}
    for i, total in sink.table.items():
        if type(total) is _Weight:
            total = codec.decode(_packed(total))
        if total:
            coeffs[i] = total
    mode = NUMERIC if matrix.is_numeric() else SYMBOLIC
    return FirstFactorSeries(params=params, cap=cap, mode=mode, coeffs=coeffs)


def _packed_totals(matrix: SymMatrix, params: AlgebraParams,
                   cap: int) -> tuple[dict[tuple, dict], PackedCodec]:
    # FF_gamma as {content: {packed monomial: coeff}}, with the codec
    rows, codec = _sweep_rows(matrix, params, cap)
    pruned = _relabelling_invariant(matrix)
    sink = _ContentSink()
    _sweep(rows, params, cap, sink, pruned)
    totals = sink.totals()
    if not pruned:
        return totals, codec
    # every word of a content whose hull fits in the cap was swept, so its
    # total is exact; the partitions are among these contents, and their
    # totals renamed give the contents whose hull is larger
    names: dict[tuple, dict] = {}  # rho_s for each s met, shared by many partitions
    for partition, total in list(totals.items()):
        if not all(map(ge, partition, partition[1:])):
            continue
        for content, s in _rearrangements(partition):
            if _hull_size(content) > cap:
                if s not in names:
                    names[s] = _relabelling(s)
                totals[content] = codec.rename(total, names[s])
    return totals, codec


def first_factor_totals(matrix: SymMatrix, params: AlgebraParams, cap: int) -> dict[tuple[int, ...], Poly]:
    """FF_gamma, the sum of g(i) over the admissible words i of content gamma.

    A content is the tuple (c_1, ..., c_m) of letter counts, with
    c_1 + ... + c_m <= cap; contents whose total is zero are left out.

    When the matrix is invariant under relabelling the generators (the
    generic symbolic matrix, or numerically alpha*I + beta*J), only the
    words whose partition hull has size <= cap are swept, and each total
    of a content gamma whose hull is larger is the total of its partition
    lambda with the a_pq renamed: FF_gamma = rho_s(FF_lambda) for any s
    with gamma_{s(i)} = lambda_i, since relabelling is an automorphism of
    the algebra (see the module docstring).  Other matrices take the full
    sweep.
    """
    totals, codec = _packed_totals(matrix, params, cap)
    return {content: codec.decode(total) for content, total in totals.items()}


def g_coefficient(matrix: SymMatrix, word: Sequence[int], params: AlgebraParams) -> Poly:
    """The coefficient g(i) of one admissible word, by incremental left-multiplication."""
    w = validate_word(word, params.m)
    if not is_admissible(w, params):
        raise ValueError(f"word {w!r} is not admissible")
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    rows = [[e.constant_value() if e.is_constant() else e for e in row] for row in matrix.entries]
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


def _report(params: AlgebraParams, cap: int, mode: str, counts: Sequence[int],
            residual: Callable[[int], Poly]) -> VerificationReport:
    # counts[d] is the number of terms of the degree-d residual; residual(d)
    # gives it as a Poly, and is read for the first failing degree only
    failing = next((d for d, n in enumerate(counts) if n), None)
    return VerificationReport(
        params=params, cap=cap, mode=mode,
        passed=failing is None,
        per_degree=tuple(DegreeCheck(d, not n, n) for d, n in enumerate(counts)),
        first_failure=None if failing is None else {
            "degree": failing, "residual": residual(failing).to_json_terms()},
    )


def _report_from_residuals(params: AlgebraParams, cap: int, mode: str,
                           residuals: Sequence[Poly]) -> VerificationReport:
    return _report(params, cap, mode, [len(r.terms) for r in residuals], residuals.__getitem__)


def verify_master(matrix: SymMatrix, params: AlgebraParams, cap: int) -> VerificationReport:
    """Check first_factor(A) * second_factor(A) = 1 up to t-degree cap."""
    totals, codec = _packed_totals(matrix, params, cap)
    # the second factor packed once and bucketed by t-degree: a content of
    # size l meets only the buckets of degree <= cap - l
    buckets: list[list] = [[] for _ in range(cap + 1)]
    for mono, coeff in second_factor(matrix, params).terms.items():
        degree = mono_t_degree(mono)
        if degree <= cap:
            buckets[degree].append((codec.pack(mono), coeff))
    t_places = [codec.places[tvar(i)] for i in range(1, params.m + 1)]
    # residuals[d]: the degree-d part of the product minus that of 1;
    # words of one content share their t-monomial, which each content's
    # total gets as its t-digits
    residuals: list[dict] = [{0: -1}] + [{} for _ in range(cap)]
    for content, total in totals.items():
        size = sum(content)
        shift = sum(map(mul, content, t_places))
        left = [(key + shift, coeff) for key, coeff in total.items()]
        for degree, bucket in enumerate(buckets[:cap - size + 1]):
            acc = residuals[size + degree]
            for key2, coeff2 in bucket:
                for key1, coeff1 in left:
                    key = key1 + key2
                    acc[key] = acc.get(key, 0) + coeff1 * coeff2
    counts = [sum(1 for coeff in acc.values() if coeff) for acc in residuals]
    mode = NUMERIC if matrix.is_numeric() else SYMBOLIC
    return _report(params, cap, mode, counts, lambda d: codec.decode(residuals[d]))


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

    # values[d]: the coefficient of u**d in the product minus that of 1
    values = [sum(first[l] * second[d - l] for l in range(d + 1) if d - l in second) - (d == 0)
              for d in range(cap + 1)]
    return _report(params, cap, COROLLARY, [1 if value else 0 for value in values],
                   lambda d: Poly.monomial(((tvar(1), d),) if d else (), values[d]))
