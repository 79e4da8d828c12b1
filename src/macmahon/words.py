"""Words over the alphabet {1, ..., m} and the admissibility predicate.

A word is *admissible* when no k consecutive letters are strictly
decreasing.  Admissible words index the monomial basis that `rewrite`
reduces into, and counting them is the business of `counting`.  A weak
variant (no k consecutive weakly decreasing letters) is used by the
complete-homogeneous analogue of the generating-function identity.

Words are plain tuples of 1-based letters.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

Word = tuple[int, ...]

STRICT = "strict"
WEAK = "weak"


def _check_variant(variant: str) -> None:
    if variant not in (STRICT, WEAK):
        raise ValueError(f"unknown variant {variant!r}, expected 'strict' or 'weak'")


@dataclass(frozen=True)
class AlgebraParams:
    """Parameters (m, k) of an algebra: m generators, relations of degree k.

    Requires 2 <= k <= m.  k = 2 is the commutative polynomial ring.
    """

    m: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or not isinstance(self.k, int):
            raise ValueError("m and k must be integers")
        if not 2 <= self.k <= self.m:
            raise ValueError(f"need 2 <= k <= m, got m={self.m}, k={self.k}")


def validate_word(word: Sequence[int], m: int) -> Word:
    """Return `word` as a tuple, or raise ValueError on an out-of-range letter."""
    w = tuple(word)
    for letter in w:
        if not isinstance(letter, int) or isinstance(letter, bool) or not 1 <= letter <= m:
            raise ValueError(f"letter {letter!r} out of range 1..{m}")
    return w


def inversions(word: Sequence[int]) -> int:
    """Number of pairs s < t with word[s] > word[t].

    >>> inversions((4, 3, 2, 6, 1))
    7
    >>> inversions((4, 6, 3, 2, 1))
    9
    """
    n = len(word)
    return sum(1 for s in range(n) for t in range(s + 1, n) if word[s] > word[t])


def _leftmost_window(word: Sequence[int], k: int, strict: bool = True) -> Optional[int]:
    """0-based start of the leftmost decreasing k-letter window, or None.

    A plain loop rather than a generator, since the worklist of `rewrite`
    asks once per pending word.  `run` is the length of the longest
    decreasing run ending at the current letter.

    >>> _leftmost_window((4, 6, 3, 2, 1), 3)
    1
    >>> _leftmost_window((4, 6, 1, 3, 2), 3) is None
    True
    """
    run = t = 1
    letters = iter(word)
    prev = next(letters, None)
    for letter in letters:
        if prev > letter or (prev == letter and not strict):
            run += 1
            if run == k:
                return t - k + 1
        else:
            run = 1
        prev = letter
        t += 1
    return None


def has_decreasing_run(word: Sequence[int], k: int, variant: str = STRICT) -> bool:
    """True iff some k consecutive letters of `word` decrease (strictly or weakly)."""
    _check_variant(variant)
    if k < 2:
        raise ValueError("run length k must be at least 2")
    return _leftmost_window(word, k, variant == STRICT) is not None


def is_admissible(word: Sequence[int], params: AlgebraParams, variant: str = STRICT) -> bool:
    """True iff `word` contains no k consecutive (strictly) decreasing letters.

    >>> p = AlgebraParams(m=6, k=3)
    >>> is_admissible((4, 3, 2, 6, 1), p)
    False
    >>> is_admissible((4, 6, 1, 3, 2), p)
    True
    """
    _check_variant(variant)
    w = validate_word(word, params.m)
    return _leftmost_window(w, params.k, variant == STRICT) is None


def smallest_decreasing_run(word: Sequence[int], params: AlgebraParams) -> Optional[int]:
    """0-based start of the leftmost strictly decreasing k-window, or None.

    >>> smallest_decreasing_run((4, 6, 3, 2, 1), AlgebraParams(m=6, k=3))
    1
    """
    w = validate_word(word, params.m)
    return _leftmost_window(w, params.k)


def enumerate_admissible(params: AlgebraParams, length: int, variant: str = STRICT) -> Iterator[Word]:
    """Yield all admissible words of the given length in lexicographic order.

    Backtracking with a decreasing-run counter; never materialises the full
    m**length cube.  Each call returns an independent iterator.

    >>> list(enumerate_admissible(AlgebraParams(m=2, k=2), 2))
    [(1, 1), (1, 2), (2, 2)]
    """
    _check_variant(variant)
    if length < 0:
        raise ValueError("length must be nonnegative")
    m, k = params.m, params.k
    strict = variant == STRICT
    word: list[int] = []

    def extend(run: int) -> Iterator[Word]:
        if len(word) == length:
            yield tuple(word)
            return
        last = word[-1] if word else None
        for c in range(1, m + 1):
            if last is not None and (last > c if strict else last >= c):
                new_run = run + 1
            else:
                new_run = 1
            if new_run == k:
                continue
            word.append(c)
            yield from extend(new_run)
            word.pop()

    return extend(1)
