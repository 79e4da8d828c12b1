"""The master identity: first factor, and verification of the product.

For an m x m matrix A put y_i = sum_j a_ij x_j.  The coefficient of the
admissible monomial x_{i_1} ... x_{i_l} in the normal form of
y_{i_1} ... y_{i_l} is written g(i); the first factor of the identity is
the series sum over admissible words i of g(i) t_{i_1} ... t_{i_l}.  The
identity states that this series times the second factor (`charpoly`)
equals 1.

Both routes below walk the words j of length <= cap depth first.
Expanding the product of the y's gives
g(i) = sum over j of c(i, j) a_{i_1 j_1} ... a_{i_l j_l}, where c(i, j) is
the coefficient of x_i in the normal form NF(j) of x_{j_1} ... x_{j_l}.
A walk gets NF((a,) + j) = x_a * NF(j) by left-multiplying each term of
its parent's normal form, through `rewrite.PrependRewriter` (all
rewriting lives in `rewrite`); a word whose coefficient cancels is not
weighed.  Its cost is the sum over j of |NF(j)|, and only the cap normal
forms on the current path of the walk are live at any time.

`first_factor` is the per-word oracle, and `_word_table` is this
definition and nothing more: it builds every node with
`PrependRewriter.times` and adds the weight c * prod_s a_{i_s j_s} of
each term c * i of NF(j) to g(i), the product stopping at the first zero
entry.  Its weights are the entries of A themselves (int or `Fraction`
for constant entries, `Poly` for the others, as `g_coefficient` takes
them).  It shares only `times` with the table below, so it cannot share
that table's shortcuts.
`verify_master` and `first_factor_totals` read only the per-content
totals FF_gamma, the sum of g(i) over the words i of content gamma,
because all words of one content share their t-monomial; rewriting
preserves content, so every term of NF(j) has the content of j.

These totals come from one table that does not depend on A.  Relabelling
the generators by a permutation s of {1..m} is an algebra automorphism,
because the relations (the antisymmetrizers) span a GL_m-stable space.
The first factor is the graded trace of the map x_i -> sum_j t_i a_ij x_j
on the algebra, so it is unchanged by conjugating that map with s:
FF_gamma(A) = FF_{gamma o s}(A^s), where A^s_pq = A_{s(p) s(q)}.  Each
term the walk weighs is c(i, j) times a monomial in the entries, so
FF_lambda(A) is U_lambda, the total of the generic matrix (a_pq), with
each a_pq replaced by A_pq; U depends only on (m, k, cap).  So for a
partition lambda (c_1 >= ... >= c_m) and any s with gamma_{s(i)} =
lambda_i, FF_gamma(A) is U_lambda evaluated at a_pq = A_{s(p) s(q)}.

`_universal_sweep` computes U for the partitions only.  It walks just the
words j whose partition hull (gamma_i = max over i' >= i of c_{i'}) has
size <= cap: every suffix of such a word is such a word too, the words of
partition content are among them, and no other word has a descendant of
partition content within the cap.  The children of a node depend only
on its content (its letter counts), so each content's list of children
is built, and tested against the hull, once per walk.  On the generic
matrix a term's weight is c times one monomial, packed into one int
(`polyring.PackedCodec`, one digit per a_pq), and the sweep keeps it as
(c, key); no scalar product runs in it.  Almost every left-multiplication
x_a * w is already admissible, and then the term (a,) + w of the child
adds the key of a_aa to that of w.  Only the prepends whose front
k-window is strictly decreasing are rewritten (`PrependRewriter.front`,
cached), and of the other arrangements of that window only those that
leave a decreasing window at their junction with the rest of the word
are rewritten further.

The walk has three kinds of node: lean, single-term and general.  A
lean node is an admissible j (below).  A single-term node is a j whose
normal form is one word c * u; it carries u, c and its key as plain
values and builds no dict.  Its kept children stay single-term, and so
does a rewritten child whose front is one word.  At k = 2 the algebra is
the symmetric algebra, NF(j) is the sorted word with coefficient 1, and
every node that is not lean is single-term.  For k >= 3 no front met in
a sweep has had fewer than k! - 1 words, so a rewritten child takes the
general node, which carries NF(j) as one dict {word: [c, key]}.  The
kept words of a child are distinct and enter it first; a rewritten word
then adds its c into the entry it meets, or enters with the sum of the
keys of its column entries, from the columns of A for the letters of j
that the sweep carries along its path.  A key depends only on the word
and j, so merging only adds c's, and a word whose c cancels stays with
c = 0: it is skipped when its node reads its terms, since it adds 0 to
every sum.

Most words within the hull are admissible (16,327 of 16,748 at
m = k = 4, cap 8), and for an admissible j, NF(j) is j itself, whose
weight is the diagonal monomial prod_s a_{j_s j_s} of its content.  So
the admissible part of U_lambda is N_lambda at that diagonal key, where
N_lambda counts the admissible words of content lambda, and these words
are counted, not walked: a dynamic program runs over the contents whose
hull fits, size by size, with the state (first letter, length of the
decreasing run the word opens with).  The walk passes through an
admissible j only to reach the children (a,) + j with a > head(j), the
letter above which x_a * j is rewritten: such a child has a strictly
decreasing front window, and so has every word below it, so that
subtree takes the single-term and general nodes.  An admissible node is
lean: it carries its content, j and its opening run, builds no dict and
adds no sum, and it is entered only if a rewritten word below it can fit
in the cap: that takes at least k - run more letters, or k if the
climbing letters would pass m.  At m = k = 4, cap 8 the walk enters
1,010 lean nodes and 187 general ones; at m = 4, k = 2, cap 9, 200 lean
nodes and 26,986 single-term ones.  The weight is linear in c, so the
last level (len(j) = cap) is never built: each node of length cap - 1
adds its leaves' kept and rewritten terms into {key: c} for each
partition directly.  `_specialise` then forms every content's total
from its partition's: it reads the digits of each key of U_lambda once
(`PackedCodec.digits`) and evaluates the term at each relabelling of A,
skipping the terms on zero entries.
Numeric entries (int or `Fraction`) are multiplied as scalars; every
other entry is packed in the codec of A's own variables, so that
multiplying two monomials is again one integer addition.  For the
generic matrix itself this is the renaming a_pq -> a_{s(p) s(q)} of
U_lambda's keys.

The table costs its whole walk even where A has many zeros, whose terms
a walk of A itself would not weigh, so on the identity matrix `verify`
is slower than such a walk at some depths (README).

No `Poly` arithmetic runs in the universal walk, the specialisation or
the product that `verify_master` checks; the totals are decoded to `Poly`
once, at the end.  `verify_master` gives each content total its
t-monomial by adding the content's t-digits to its keys, multiplies it
with the packed second factor bucket by bucket of t-degree, counts the
nonzero terms of each degree's residual, and decodes only the first
failing degree for the report.  `first_factor`, `FirstFactorSeries.series()` and
`g_coefficient` stay in `Poly` as oracles.

Everything is exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from operator import ge, getitem, mul
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .charpoly import SymMatrix, _second_factor_degrees, alpha, enumerate_partial_perms, second_factor
from .polyring import (PackedCodec, Poly, Scalar, TruncatedSeries, avar, mono_mul, mono_t_degree, tvar,
                       word_t_monomial)
from .rewrite import PrependRewriter, _accumulate, _normal_form_terms
from .words import AlgebraParams, Word, is_admissible, validate_word

Coeff = Union[int, Fraction, Poly]

NUMERIC = "numeric"
SYMBOLIC = "symbolic"
COROLLARY = "corollary"


def _hull_size(content: tuple) -> int:
    # the size of the least partition above content: gamma_i = max(c_i, c_{i+1}, ...)
    size = top = 0
    for c in reversed(content):
        top = max(top, c)
        size += top
    return size


def _word_table(rows: list[list[Coeff]], params: AlgebraParams, cap: int) -> dict[Word, Coeff]:
    # g(i) for every word i, by the definition: depth first over all words j
    # with len(j) <= cap, NF((a,) + j) = x_a * NF(j), and each term c * i of
    # NF(j) adds c * prod_s a_{i_s j_s} to g(i)
    times = PrependRewriter(params).times
    table: dict[Word, Coeff] = {}

    def visit(j: Word, nf: dict[Word, int]) -> None:
        for i, c in nf.items():
            weight = c
            for p, q in zip(i, j):
                entry = rows[p - 1][q - 1]
                if not entry:
                    break
                weight = weight * entry
            else:
                table[i] = table.get(i, 0) + weight
        if len(j) < cap:
            for a in range(1, params.m + 1):
                visit((a,) + j, times(a, nf))

    visit((), {(): 1})
    return {i: total for i, total in table.items() if total}


class _Universal(NamedTuple):
    """The first-factor totals U_lambda of the generic matrix (a_pq), one
    per partition lambda, each as {key: c}: the key packs the exponents of
    the a_pq in `codec`, whose digit (p - 1) * m + q - 1 is that of a_pq.
    `nodes` counts the words of length < cap that the sweep covers (the
    empty word even at cap 0) and `leaves` those of length cap, summed
    without being built: the admissible ones by count, the others as the
    single-term and general nodes meet them."""

    totals: dict[tuple, dict[int, int]]
    codec: PackedCodec
    nodes: int
    leaves: int


def _universal_sweep(params: AlgebraParams, cap: int) -> _Universal:
    # Depth first over the words j, on the generic matrix, reduced to those
    # whose partition hull has size <= cap.  Every weight is c times one
    # monomial, so a term of NF(j) is (c, key): a kept prepend adds the key
    # of a_aa, and a rewritten word sums the keys of its column entries,
    # cols[s][b] = key of a_{b j_s}.  A normal form that is one word c * u
    # (every one at k = 2) takes `single`, which carries u, c and key as
    # plain values.  A word's key depends only on the word and j, so the
    # general `visit` carries NF(j) as {word: [c, key]}, and a rewritten word
    # that meets a kept one just adds its c; a word whose c cancels stays
    # with c = 0 and is skipped.  `enter` sends a child built from `front`
    # to the one or the other.
    # Only the totals of partition contents are kept: the others follow by
    # relabelling (`_specialise`).  The last level (len(j) = cap, all of
    # partition content) is summed from its parent and never built.
    # An admissible word j is its own normal form and adds 1 at the diagonal
    # key of its content, so these words are counted, not walked: N_gamma,
    # the number of admissible words of content gamma, comes from a dynamic
    # program over the contents whose hull fits.  `lean(content, j, run)`
    # walks an admissible j only to reach its children (a,) + j with
    # a > head(j), which have a decreasing front window, as has every word
    # below them, so their subtrees go to `single` or `visit`, starting
    # from front((a,) + j).  `run` is the length of the decreasing run j
    # opens with, and head(j) is j's first letter once run = k - 1.
    m, k = params.m, params.k
    # a word of length l <= cap has l entries, so no exponent exceeds cap
    codec = PackedCodec([avar(p, q) for p in range(1, m + 1) for q in range(1, m + 1)], max(cap, 1) + 1)
    places = codec.places
    rewriter = PrependRewriter(params)
    front, heads, front_len = rewriter.front, rewriter.heads, k - 1
    diagonals = [places[avar(a, a)] for a in range(1, m + 1)]
    # columns[b - 1][a] = key of a_ab (index 0 unused)
    columns = [(None, *(places[avar(a, b)] for a in range(1, m + 1))) for b in range(1, m + 1)]
    totals: dict[tuple, dict[int, int]] = {}
    # (a, content of (a,) + j, its totals or None) for each letter a whose
    # child fits the hull, by the content of j
    child_table: dict[tuple, list[tuple[int, tuple, Optional[dict]]]] = {}
    nodes = leaves = 0

    def children_of(content: tuple) -> list[tuple[int, tuple, Optional[dict]]]:
        children = child_table.get(content)
        if children is None:
            children = []
            for a in range(1, m + 1):
                child = content[:a - 1] + (content[a - 1] + 1,) + content[a:]
                if _hull_size(child) <= cap:
                    partition = all(map(ge, child, child[1:]))
                    children.append((a, child, totals.setdefault(child, {}) if partition else None))
            child_table[content] = children
        return children

    # N_gamma, size by size: each content's admissible words by their state
    # (first letter, length of the decreasing run they open with), the empty
    # word as (0, 0); a prepend that would open a run of k letters is cut.
    # Every partition's diagonal key gets its N, and the words are counted
    # as the walk would have built them (the root even at cap 0)
    zero = (0,) * m
    totals[zero] = {}
    level = {zero: (0, {(0, 0): 1})}
    for size in range(cap + 1):
        following: dict[tuple, tuple[int, dict]] = {}
        for content, (key, states) in level.items():
            count = sum(states.values())
            if size < max(cap, 1):
                nodes += count
            else:
                leaves += count
            sums = totals.get(content)
            if sums is not None:
                sums[key] = sums.get(key, 0) + count
            if size == cap:
                continue
            for a, child, _ in children_of(content):
                entry = following.get(child)
                if entry is None:
                    entry = following[child] = (key + diagonals[a - 1], {})
                child_states = entry[1]
                for (first, run), n in states.items():
                    run = run + 1 if a > first else 1
                    if run < k:
                        child_states[a, run] = child_states.get((a, run), 0) + n
        level = following

    def visit(cols: list, content: tuple, nf: dict[Word, list], sums: Optional[dict]) -> None:
        # NF(j) as {word: [c, key]}; len(j) <= cap - 1, as the last level is
        # never built
        nonlocal nodes, leaves
        nodes += 1
        terms = [(w, c, key, heads.get(w[:front_len], m)) for w, (c, key) in nf.items() if c]
        if sums is not None:
            for _, c, key, _ in terms:
                sums[key] = sums.get(key, 0) + c
        children = children_of(content)
        if len(cols) + 1 == cap:
            leaves += len(children)
            for a, _, leaf_sums in children:
                diagonal = diagonals[a - 1]
                merged: dict[Word, int] = {}
                for w, c, key, head in terms:
                    if a > head:
                        for u, coeff in front((a,) + w).items():
                            merged[u] = merged.get(u, 0) + c * coeff
                    else:
                        key += diagonal
                        leaf_sums[key] = leaf_sums.get(key, 0) + c
                if merged:
                    leaf_cols = [columns[a - 1], *cols]
                    for u, c in merged.items():
                        if c:
                            key = sum(map(getitem, leaf_cols, u))
                            leaf_sums[key] = leaf_sums.get(key, 0) + c
            return
        for a, child_content, child_sums in children:
            diagonal = diagonals[a - 1]
            # the kept words (a,) + w are distinct; a rewritten word adds
            # into its entry, or enters with the key of its columns
            child = {(a,) + w: [c, key + diagonal] for w, c, key, head in terms if a <= head}
            child_cols = [columns[a - 1], *cols]
            for w, c, key, head in terms:
                if a > head:
                    for u, coeff in front((a,) + w).items():
                        entry = child.get(u)
                        if entry is None:
                            child[u] = [c * coeff, sum(map(getitem, child_cols, u))]
                        else:
                            entry[0] += c * coeff
            visit(child_cols, child_content, child, child_sums)

    def single(cols: list, content: tuple, u: Word, c: int, key: int, sums: Optional[dict]) -> None:
        # NF(j) = c * u, one word: a kept child stays one word, and a
        # rewritten one whose front is one word too
        nonlocal nodes, leaves
        nodes += 1
        if sums is not None:
            sums[key] = sums.get(key, 0) + c
        head = heads.get(u[:front_len], m)
        children = children_of(content)
        if len(cols) + 1 == cap:
            leaves += len(children)
            for a, _, leaf_sums in children:
                if a > head:
                    leaf_cols = [columns[a - 1], *cols]
                    for w, coeff in front((a,) + u).items():
                        w_key = sum(map(getitem, leaf_cols, w))
                        leaf_sums[w_key] = leaf_sums.get(w_key, 0) + c * coeff
                else:
                    w_key = key + diagonals[a - 1]
                    leaf_sums[w_key] = leaf_sums.get(w_key, 0) + c
            return
        for a, child_content, child_sums in children:
            child_cols = [columns[a - 1], *cols]
            if a > head:
                enter(child_cols, child_content, front((a,) + u), c, child_sums)
            else:
                single(child_cols, child_content, (a,) + u, c, key + diagonals[a - 1], child_sums)

    def enter(cols: list, content: tuple, nf: dict[Word, int], c: int, sums: Optional[dict]) -> None:
        # the node of NF(j) = c * nf, nf from `front`: one word takes the
        # single-term node, more the general `visit`
        if len(nf) == 1:
            (u, coeff), = nf.items()
            single(cols, content, u, c * coeff, sum(map(getitem, cols, u)), sums)
        else:
            visit(cols, content, {u: [c * coeff, sum(map(getitem, cols, u))] for u, coeff in nf.items()}, sums)

    def lean(content: tuple, j: Word, run: int) -> None:
        # the admissible word j, whose own term the count above holds; the
        # columns of j are formed only for a rewritten child
        nonlocal leaves
        first = j[0] if j else 0
        head = first if run == k - 1 else m
        depth = len(j) + 1
        children = children_of(content)
        if depth == cap:
            for a, _, leaf_sums in children:
                if a > head:
                    leaves += 1
                    word = (a,) + j
                    leaf_cols = [columns[b - 1] for b in word]
                    for u, c in front(word).items():
                        u_key = sum(map(getitem, leaf_cols, u))
                        leaf_sums[u_key] = leaf_sums.get(u_key, 0) + c
            return
        for a, child_content, child_sums in children:
            word = (a,) + j
            if a > head:
                enter([columns[b - 1] for b in word], child_content, front(word), 1, child_sums)
                continue
            child_run = run + 1 if a > first else 1
            # reach: the fewest prepends before a word below the child is
            # rewritten, k - run climbing letters if they fit below m, else
            # one letter that ends the run and k - 1 climbing ones
            reach = k - child_run if a + k - 1 - child_run < m else k
            if depth + reach <= cap:
                lean(child_content, word, child_run)

    # the empty word needs k prepends before any rewriting
    if k <= cap:
        lean(zero, (), 0)
    live = {}
    for partition, sums in totals.items():
        table = {key: c for key, c in sums.items() if c}
        if table:
            live[partition] = table
    return _Universal(live, codec, nodes, leaves)


def _rearrangements(partition: tuple) -> Iterator[tuple[tuple, tuple]]:
    """Each distinct rearrangement gamma of a partition, once, with an s
    (0-based) such that gamma_{s(i)} = partition_i."""
    # the rearrangements in lexicographic order, by the next-permutation
    # step; s lists the places of gamma's parts from the largest down,
    # equal parts in place order
    m = len(partition)
    gamma = list(reversed(partition))
    while True:
        yield tuple(gamma), tuple(sorted(range(m), key=gamma.__getitem__, reverse=True))
        i = m - 2
        while i >= 0 and gamma[i] >= gamma[i + 1]:
            i -= 1
        if i < 0:
            return
        j = m - 1
        while gamma[j] <= gamma[i]:
            j -= 1
        gamma[i], gamma[j] = gamma[j], gamma[i]
        gamma[i + 1:] = gamma[:i:-1]


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


def _check_matrix(matrix: SymMatrix, params: AlgebraParams) -> None:
    # the matrix checks of every first-factor route, `g_coefficient` too
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    if any(var[0] == "t" for row in matrix.entries for entry in row for mono in entry.terms for var, _ in mono):
        raise ValueError("matrix entries must not involve the markers t_i")


def _check_arguments(matrix: SymMatrix, params: AlgebraParams, cap: int) -> None:
    # the argument checks of every route that takes a cap
    _check_matrix(matrix, params)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if cap > max_sweep_cap():
        raise ValueError(f"cap {cap} is deeper than the sweep can recurse (at most {max_sweep_cap()})")


def _entry_codec(matrix: SymMatrix, params: AlgebraParams, cap: int) -> PackedCodec:
    # the codec that packs the entries' monomials, after the argument
    # checks.  Its variables are the a_pq of the entries and the markers
    # t_1..t_m.  A weight of a word of length l is a product of l entries,
    # and a term of t-degree r of the second factor one of r entries, so
    # with E the largest exponent in an entry, no exponent formed by
    # `_specialise` or by verify's product (l + r <= cap) exceeds
    # max(cap, 1) * E: the base is one more than that
    _check_arguments(matrix, params, cap)
    powers = [(var, exp) for row in matrix.entries for entry in row
              for mono in entry.terms for var, exp in mono]
    top = max((exp for _, exp in powers), default=1)
    markers = {tvar(i) for i in range(1, params.m + 1)}
    return PackedCodec({var for var, _ in powers} | markers, max(cap, 1) * top + 1)


def _entry_rows(matrix: SymMatrix) -> list[list[Coeff]]:
    # the entries as coefficients: constant ones as int or Fraction
    return [[e.constant_value() if e.is_constant() else e for e in row] for row in matrix.entries]


def first_factor(matrix: SymMatrix, params: AlgebraParams, cap: int) -> FirstFactorSeries:
    """Compute g(i) for every admissible word i with len(i) <= cap."""
    _check_arguments(matrix, params, cap)
    coeffs = _word_table(_entry_rows(matrix), params, cap)
    mode = NUMERIC if matrix.is_numeric() else SYMBOLIC
    return FirstFactorSeries(params=params, cap=cap, mode=mode, coeffs=coeffs)


def _specialise(universal: _Universal, matrix: SymMatrix, codec: PackedCodec) -> dict[tuple, dict]:
    # FF_gamma(A) for every content gamma, as {packed monomial: coeff} in
    # `codec`: with gamma_{s(i)} = lambda_i, it is U_lambda with each a_pq
    # replaced by A_{s(p) s(q)}.  The digits of each key of U_lambda (digit
    # (p - 1) * m + q - 1 for a_pq) are read once, by `PackedCodec.digits`,
    # as [(cell, exponent)], and each term is then evaluated at every
    # relabelling of A; a term on a zero entry is skipped.  Numeric
    # entries are multiplied as scalars, others as packed terms.  Many
    # partitions share an s, so each relabelled matrix is formed once.
    m, digits = matrix.m, universal.codec.digits
    if matrix.is_numeric():
        cells = [value for row in matrix.scalar_rows() for value in row]
        evaluate = _evaluate_scalar
    else:
        cells = [tuple((codec.pack(mono), coeff) for mono, coeff in entry.terms.items())
                 for row in matrix.entries for entry in row]
        evaluate = _evaluate_packed
    relabelled: dict[tuple, list] = {}
    totals = {}
    for partition, table in universal.totals.items():
        terms = [(c, digits(key)) for key, c in table.items()]
        for content, s in _rearrangements(partition):
            cells_s = relabelled.get(s)
            if cells_s is None:
                cells_s = relabelled[s] = [cells[s[p] * m + s[q]] for p in range(m) for q in range(m)]
            total = evaluate(terms, cells_s)
            if total:
                totals[content] = total
    return totals


def _evaluate_scalar(terms: list, cells: list[Scalar]) -> dict[int, Scalar]:
    total = 0
    for c, digits in terms:
        for cell, exp in digits:
            value = cells[cell]
            if not value:
                break
            c *= value ** exp
        else:
            total += c
    return {0: total} if total else {}


def _evaluate_packed(terms: list, cells: list[tuple]) -> dict[int, Scalar]:
    # the entries of one term that are single monomials only add keys and
    # multiply coefficients; the others are multiplied out term by term
    acc: dict[int, Scalar] = {}
    for c, digits in terms:
        key = 0
        factors = []
        for cell, exp in digits:
            entry = cells[cell]
            if not entry:
                break
            if len(entry) == 1:
                (key1, coeff1), = entry
                key += key1 * exp
                c *= coeff1 ** exp
            else:
                factors += [entry] * exp
        else:
            product = [(key, c)]
            for entry in factors:
                merged: dict[int, Scalar] = {}
                for key, coeff in product:
                    for key1, coeff1 in entry:
                        merged[key + key1] = merged.get(key + key1, 0) + coeff * coeff1
                product = [(key, coeff) for key, coeff in merged.items() if coeff]
            for key, coeff in product:
                acc[key] = acc.get(key, 0) + coeff
    return {key: coeff for key, coeff in acc.items() if coeff}


def _packed_totals(matrix: SymMatrix, params: AlgebraParams,
                   cap: int) -> tuple[dict[tuple, dict], PackedCodec]:
    # FF_gamma as {content: {packed monomial: coeff}}, with the codec
    codec = _entry_codec(matrix, params, cap)
    return _specialise(_universal_sweep(params, cap), matrix, codec), codec


def first_factor_totals(matrix: SymMatrix, params: AlgebraParams, cap: int) -> dict[tuple[int, ...], Poly]:
    """FF_gamma, the sum of g(i) over the admissible words i of content gamma.

    A content is the tuple (c_1, ..., c_m) of letter counts, with
    c_1 + ... + c_m <= cap; contents whose total is zero are left out.

    The totals come from one table that depends only on (m, k, cap): the
    totals U_lambda of the generic matrix (a_pq) for the partitions lambda,
    swept only over the words whose partition hull has size <= cap.  Each
    FF_gamma(A) is then U_lambda evaluated at a_pq = A_{s(p) s(q)}, for
    any s with gamma_{s(i)} = lambda_i, since relabelling the generators
    is an automorphism of the algebra (see the module docstring).
    """
    totals, codec = _packed_totals(matrix, params, cap)
    return {content: codec.decode(total) for content, total in totals.items()}


def g_coefficient(matrix: SymMatrix, word: Sequence[int], params: AlgebraParams) -> Poly:
    """The coefficient g(i) of one admissible word, by incremental left-multiplication."""
    w = validate_word(word, params.m)
    if not is_admissible(w, params):
        raise ValueError(f"word {w!r} is not admissible")
    _check_matrix(matrix, params)
    rows = _entry_rows(matrix)
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
    # the second factor up to t-degree cap, packed once and bucketed by
    # t-degree: a content of size l meets only the buckets of degree <= cap - l
    buckets: list[list] = [[] for _ in range(cap + 1)]
    for mono, coeff in second_factor(matrix, params, cap).terms.items():
        buckets[mono_t_degree(mono)].append((codec.pack(mono), coeff))
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
    _check_arguments(matrix, params, cap)
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
