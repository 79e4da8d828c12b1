"""Rewriting generator words into the admissible-monomial basis.

The algebra with parameters (m, k) imposes, for every k indices
i_1 < ... < i_k, the relation

    sum over permutations s of {1..k} of  sgn(s) * x_{i_s(1)} ... x_{i_s(k)} = 0.

Solving a relation for its strictly decreasing term expresses that term as
a signed sum of the other k!-1 arrangements, each of which has strictly
fewer inversions.  Iterating this until no strictly decreasing k-window
remains rewrites any word as an integer combination of admissible words;
`normal_form` does exactly that and terminates because the inversion
number drops at every step.

`path_coefficient` recomputes a single normal-form coefficient by signed
enumeration of reversion paths (the reverse rewriting relation), which
gives an independent oracle for the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional, Sequence

from .words import (
    AlgebraParams,
    Word,
    _window_starts,
    inversions,
    is_admissible,
    smallest_decreasing_run,
    validate_word,
)

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"


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

    def coefficient(self, word: Sequence[int]):
        return self.terms.get(tuple(word), 0)

    def sorted_items(self) -> list[tuple[Word, object]]:
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def to_json_obj(self) -> list[dict]:
        return [
            {"word": list(word), "coeff": str(coeff)}
            for word, coeff in self.sorted_items()
        ]


def _rearrangements(block: Word) -> Iterator[Word]:
    # All orderings of the (distinct) block letters except the strictly
    # decreasing one, in lexicographic order.
    decreasing = tuple(sorted(block, reverse=True))
    for arr in permutations(sorted(block)):
        if arr != decreasing:
            yield arr


def _expand_at(word: Word, start: int, k: int) -> list[tuple[Word, int]]:
    block = word[start:start + k]
    prefix, suffix = word[:start], word[start + k:]
    # Solving the defining relation for the decreasing term gives each
    # arrangement the coefficient (-1) ** (C(k,2) + inversions(arr) + 1).
    base = -((-1) ** (k * (k - 1) // 2))
    return [
        (prefix + arr + suffix, base * (-1) ** inversions(arr))
        for arr in _rearrangements(block)
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


def _last(starts: Iterator[int]) -> Optional[int]:
    start = None
    for start in starts:
        pass
    return start


def _normal_form_terms(word: Word, params: AlgebraParams, strategy: str = LEFTMOST) -> dict[Word, int]:
    # Worklist bucketed by inversion number.  Every expansion lands strictly
    # below the bucket it came from, so one sweep from the top visits each
    # distinct pending word exactly once with its coefficients combined.
    # `word` must already be validated.  A replacement only reorders the
    # strictly decreasing block, which has C(k,2) inversions and no letter
    # in common with a pair outside it, so its inversion number is
    # inv(w) - C(k,2) + inv(arr); the arrangements, their signs and their
    # inversion numbers are computed once per block.
    if strategy == LEFTMOST:
        def find(w: Word) -> Optional[int]:
            return next(_window_starts(w, k, True), None)
    elif strategy == RIGHTMOST:
        def find(w: Word) -> Optional[int]:
            return _last(_window_starts(w, k, True))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
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
            start = find(w)
            if start is None:
                done[w] = done.get(w, 0) + c
                continue
            block = w[start:start + k]
            arrangements = blocks.get(block)
            if arrangements is None:
                arrangements = blocks[block] = [
                    (arr, sign, inversions(arr)) for arr, sign in _expand_at(block, 0, k)
                ]
            prefix, suffix = w[:start], w[start + k:]
            for arr, sign, inv in arrangements:
                bucket = buckets.setdefault(level - top + inv, {})
                w2 = prefix + arr + suffix
                bucket[w2] = bucket.get(w2, 0) + c * sign
    return {w: c for w, c in done.items() if c}


def normal_form(word: Sequence[int], params: AlgebraParams, strategy: str = LEFTMOST) -> NCombination:
    """Rewrite `word` as an integer combination of admissible words.

    `strategy` picks which decreasing k-window each step expands
    ('leftmost' or 'rightmost'); the result is the same either way, which
    the test suite exploits as a confluence check.
    """
    w = validate_word(word, params.m)
    return NCombination(_normal_form_terms(w, params, strategy), params)


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
