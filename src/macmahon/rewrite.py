"""Rewriting generator words into the admissible-monomial basis.

The algebra with parameters (m, k) imposes, for every k indices
i_1 < ... < i_k, the relation

    sum over permutations s of {1..k} of  sgn(s) * x_{i_s(1)} ... x_{i_s(k)} = 0.

Solving a relation for its strictly decreasing term expresses that term as
a signed sum of the other k!-1 arrangements (`_arrangements`), each of
which has strictly fewer inversions.  Iterating this until no strictly
decreasing k-window remains rewrites any word as an integer combination of
admissible words, and the result does not depend on the order in which
windows are rewritten.  This module is the only place that rewrites, with
two production engines that reduce in different orders:

* `normal_form` (the worklist `_normal_form_terms`) always expands the
  leftmost decreasing window of the whole word, sweeping pending words
  from the highest inversion number down.  It serves the `normal-form`
  command and the oracles `g_coefficient` and `verify_corollary` of
  `identity`.
* `PrependRewriter` computes x_a * w for admissible w, rewriting only the
  front window and memoising the rewritten words.  Folding it over a word
  from the right reduces the suffix first.  Both first-factor walks of
  `identity` use it one letter at a time: the universal sweep reads
  `heads` and `front` inline, and the per-word oracle `first_factor`
  calls only `times`, on each whole normal form.

`reversion_vector` and `path_coefficient` recompute normal-form
coefficients by signed enumeration of reversion paths (the reverse
rewriting relation), and `path_coefficient_dfs` by literal path
enumeration; they share no cache with the two engines and serve as
independent oracles for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence

from .words import (
    AlgebraParams,
    Word,
    _leftmost_window,
    inversions,
    is_admissible,
    smallest_decreasing_run,
    validate_word,
)

@dataclass(frozen=True)
class NCombination:
    """A finite combination of admissible words, all of one common length.

    `terms` maps Word -> nonzero coefficient (int, Fraction, or Poly).
    Instances are value objects: equality is termwise.
    """

    terms: dict
    params: AlgebraParams

    def __post_init__(self) -> None:
        length = None
        for word, coeff in self.terms.items():
            if not is_admissible(word, self.params):
                raise ValueError(f"non-admissible key {word!r}")
            if not coeff:
                raise ValueError(f"zero coefficient stored for {word!r}")
            if length is None:
                length = len(word)
            elif len(word) != length:
                raise ValueError("mixed word lengths in one combination")

    @classmethod
    def _raw(cls, terms: dict, params: AlgebraParams) -> "NCombination":
        # trusted constructor: keys already admissible, nonzero and of one
        # length, adopted without the check
        combination = object.__new__(cls)
        object.__setattr__(combination, "terms", terms)
        object.__setattr__(combination, "params", params)
        return combination

    def coefficient(self, word: Sequence[int]):
        return self.terms.get(tuple(word), 0)

    def sorted_items(self) -> list[tuple[Word, object]]:
        # sort the words alone: each comparison is then one tuple of ints
        terms = self.terms
        return [(word, terms[word]) for word in sorted(terms)]

    def __len__(self) -> int:
        return len(self.terms)

    def to_json_obj(self) -> list[dict]:
        return [
            {"word": list(word), "coeff": str(coeff)}
            for word, coeff in self.sorted_items()
        ]


def _arrangements(block: Word) -> list[tuple[Word, int, int]]:
    # Every ordering of the (distinct) letters of a strictly decreasing
    # block except the block itself, in lexicographic order, with its sign
    # and its inversion number.  Solving the defining relation for the
    # decreasing term gives arrangement arr the coefficient
    # (-1) ** (C(k,2) + inversions(arr) + 1).
    k = len(block)
    base = -((-1) ** (k * (k - 1) // 2))
    out = []
    for arr in permutations(sorted(block)):
        if arr != block:
            inv = inversions(arr)
            out.append((arr, base * (-1) ** inv, inv))
    return out


def _opening_run(word: Word) -> int:
    # the length of the strictly decreasing run that a nonempty word opens with
    run = 1
    while run < len(word) and word[run - 1] > word[run]:
        run += 1
    return run


def _ending_run(word: Word) -> int:
    # the length of the strictly decreasing run that a nonempty word ends with
    run = 1
    while run < len(word) and word[-run - 1] > word[-run]:
        run += 1
    return run


def _expand_at(word: Word, start: int, k: int) -> list[tuple[Word, int]]:
    prefix, suffix = word[:start], word[start + k:]
    return [
        (prefix + arr + suffix, sign)
        for arr, sign, _ in _arrangements(word[start:start + k])
    ]


def expand_block(word: Sequence[int], params: AlgebraParams) -> list[tuple[Word, int]]:
    """Apply one defining relation at the leftmost strictly decreasing k-window.

    Returns the k!-1 signed replacement words in lexicographic order of the
    rearranged block.  Raises ValueError if `word` is already admissible.
    """
    w = validate_word(word, params.m)
    start = smallest_decreasing_run(w, params)
    if start is None:
        raise ValueError(f"word {w!r} is admissible; nothing to expand")
    return _expand_at(w, start, params.k)


def _normal_form_terms(word: Word, params: AlgebraParams) -> dict[Word, int]:
    # Worklist bucketed by inversion number, always expanding the leftmost
    # decreasing window.  Every expansion lands strictly below the bucket
    # it came from, so one sweep from the top visits each distinct pending
    # word exactly once with its coefficients combined.  `word` must
    # already be validated.  A replacement only reorders the strictly
    # decreasing block, which has C(k,2) inversions and no letter in common
    # with a pair outside it, so its inversion number is
    # inv(w) - C(k,2) + inv(arr); the arrangements are tabled per block.
    # The window is found by `_leftmost_window`, one plain call per pending
    # word: a generator's set-up cost more than the scan of a short word.
    k = params.k
    top = k * (k - 1) // 2
    blocks: dict[Word, list[tuple[Word, int, int]]] = {}
    buckets: dict[int, dict[Word, int]] = {inversions(word): {word: 1}}
    done: dict[Word, int] = {}
    while buckets:
        level = max(buckets)
        for w, c in buckets.pop(level).items():
            if not c:
                continue
            start = _leftmost_window(w, k)
            if start is None:
                # w is met only in the bucket of its own inversion number
                done[w] = c
                continue
            block = w[start:start + k]
            arrangements = blocks.get(block)
            if arrangements is None:
                arrangements = blocks[block] = _arrangements(block)
            prefix, suffix = w[:start], w[start + k:]
            for arr, sign, inv in arrangements:
                bucket = buckets.setdefault(level - top + inv, {})
                w2 = prefix + arr + suffix
                bucket[w2] = bucket.get(w2, 0) + c * sign
    return done


def normal_form(word: Sequence[int], params: AlgebraParams) -> NCombination:
    """Rewrite `word` as an integer combination of admissible words."""
    w = validate_word(word, params.m)
    # the worklist stores only words with no decreasing window, all of the
    # length of `word`, and drops zero totals
    return NCombination._raw(_normal_form_terms(w, params), params)


def _accumulate(acc: dict, key, value) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class PrependRewriter:
    """Normal forms of x_a * w for admissible w, memoised on the rewritten words.

    Only the front k-window of (a,) + w can be strictly decreasing; it is
    when w opens with a strictly decreasing (k-1)-window whose first letter
    is below a.  Solving the defining relation for that window gives the
    other arrangements of its letters, each followed by the admissible rest
    of w.  Most of these words are admissible already, and only those with a
    decreasing k-window across the junction are left-multiplied onto the
    rest one letter at a time.  Every word rewritten on the way has fewer
    inversions than (a,) + w, so the recursion ends.
    """

    def __init__(self, params: AlgebraParams):
        self.m, self.k = params.m, params.k
        self.heads = {d: d[0] for d in combinations(range(self.m, 0, -1), self.k - 1)}
        self.cache: dict[Word, dict[Word, int]] = {}
        # block -> [(arrangement, sign, its last letter, the length of the
        # decreasing run it ends with)]
        self.blocks: dict[Word, list[tuple[Word, int, int, int]]] = {}

    def head(self, w: Word) -> int:
        """x_a * w needs rewriting exactly when a > head(w)."""
        return self.heads.get(w[:self.k - 1], self.m)

    def front(self, word: Word) -> dict[Word, int]:
        """NF(word) for a word (a,) + w with x_a * w needing rewriting.

        An arrangement arr of the front block has no decreasing k-window of
        its own, and the rest is admissible, so arr + rest has one only
        where arr's ending decreasing run and the rest's opening one meet:
        when last(arr) > rest[0] and the two runs add up to k or more.  Only
        those arrangements are folded onto the rest with `times`; every
        other one gives arr + rest directly.  An empty rest leaves every arr
        admissible.
        """
        nf = self.cache.get(word)
        if nf is None:
            k = self.k
            block, rest = word[:k], word[k:]
            arrangements = self.blocks.get(block)
            if arrangements is None:
                arrangements = self.blocks[block] = [(arr, sign, arr[-1], _ending_run(arr))
                                                     for arr, sign, _ in _arrangements(block)]
            first, opening = (rest[0], _opening_run(rest)) if rest else (self.m, 0)
            nf = {}
            for arranged, sign, last, run in arrangements:
                if last <= first or run + opening < k:
                    _accumulate(nf, arranged + rest, sign)
                    continue
                vec = {rest: 1}
                for letter in reversed(arranged):
                    vec = self.times(letter, vec)
                for u, c in vec.items():
                    _accumulate(nf, u, sign * c)
            self.cache[word] = nf
        return nf

    def times(self, a: int, vec: dict[Word, int]) -> dict[Word, int]:
        """x_a times a combination of admissible words."""
        out: dict[Word, int] = {}
        heads, front_len, m = self.heads, self.k - 1, self.m
        for w, c in vec.items():
            # head(w), read inline: this loop fills the cache of the sweep
            if a > heads.get(w[:front_len], m):
                for u, coeff in self.front((a,) + w).items():
                    _accumulate(out, u, c * coeff)
            else:
                _accumulate(out, (a,) + w, c)
        return out


def _reversion_vector(word: Word, params: AlgebraParams, cache: dict) -> dict[Word, int]:
    cached = cache.get(word)
    if cached is not None:
        return cached
    start = smallest_decreasing_run(word, params)
    if start is None:
        result = {word: 1}
    else:
        # A reversion step replaces the leftmost decreasing block of `word`
        # by one of its other arrangements; each path step carries a factor
        # (-1) ** (inversion gap - 1).
        inv_w = inversions(word)
        acc: dict[Word, int] = {}
        for w2, _ in _expand_at(word, start, params.k):
            sign = (-1) ** (inv_w - inversions(w2) - 1)
            for origin, c in _reversion_vector(w2, params, cache).items():
                acc[origin] = acc.get(origin, 0) + sign * c
        result = {w: c for w, c in acc.items() if c}
    cache[word] = result
    return result


def reversion_vector(word: Sequence[int], params: AlgebraParams, cache: Optional[dict] = None) -> dict[Word, int]:
    """All nonzero path coefficients {i: c(i, word)} at once.

    Signed count of reversion paths from each admissible word i to `word`,
    with a path of length L weighted (-1) ** (inversions(word) - inversions(i) - L).
    Memoised on whole vectors; pass `cache` to share work across calls.
    """
    w = validate_word(word, params.m)
    return dict(_reversion_vector(w, params, {} if cache is None else cache))


def path_coefficient(i: Sequence[int], j: Sequence[int], params: AlgebraParams,
                     cache: Optional[dict] = None) -> int:
    """Signed number of reversion paths from admissible word i to word j."""
    wi = validate_word(i, params.m)
    if not is_admissible(wi, params):
        raise ValueError(f"word {wi!r} is not admissible")
    wj = validate_word(j, params.m)
    return _reversion_vector(wj, params, {} if cache is None else cache).get(wi, 0)


def path_coefficient_dfs(i: Sequence[int], j: Sequence[int], params: AlgebraParams) -> int:
    """`path_coefficient` by literal path enumeration, without memoisation.

    Exponential; only for cross-checking on small words.
    """
    wi = validate_word(i, params.m)
    if not is_admissible(wi, params):
        raise ValueError(f"word {wi!r} is not admissible")
    wj = validate_word(j, params.m)
    inv_i = inversions(wi)
    inv_j = inversions(wj)
    total = 0

    def walk(w: Word, steps: int, inv_w: int) -> None:
        nonlocal total
        if w == wi:
            total += (-1) ** (inv_j - inv_i - steps)
        if inv_w <= inv_i:
            # every further backward step lowers the inversion number, so
            # the origin i is out of reach from here
            return
        start = smallest_decreasing_run(w, params)
        if start is None:
            return
        for w2, _ in _expand_at(w, start, params.k):
            walk(w2, steps + 1, inversions(w2))

    walk(wj, 0, inv_j)
    return total
