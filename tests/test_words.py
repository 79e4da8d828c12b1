import doctest
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from macmahon import words
from macmahon.words import (
    STRICT,
    WEAK,
    AlgebraParams,
    enumerate_admissible,
    has_decreasing_run,
    inversions,
    is_admissible,
    smallest_decreasing_run,
    validate_word,
)


def naive_has_window(word, k, strict=True):
    # independent oracle: scan every length-k window directly
    for s in range(len(word) - k + 1):
        win = word[s:s + k]
        if strict:
            if all(win[i] > win[i + 1] for i in range(k - 1)):
                return True
        else:
            if all(win[i] >= win[i + 1] for i in range(k - 1)):
                return True
    return False


def test_doctests():
    assert doctest.testmod(words, verbose=False).failed == 0


def test_params_validation():
    AlgebraParams(2, 2)
    AlgebraParams(6, 3)
    with pytest.raises(ValueError):
        AlgebraParams(3, 1)
    with pytest.raises(ValueError):
        AlgebraParams(2, 3)
    with pytest.raises(ValueError):
        AlgebraParams(0, 0)


def test_validate_word():
    assert validate_word([2, 1], 2) == (2, 1)
    assert validate_word((), 2) == ()
    with pytest.raises(ValueError):
        validate_word((0,), 3)
    with pytest.raises(ValueError):
        validate_word((4,), 3)
    with pytest.raises(ValueError):
        validate_word((1, True), 3)


def test_inversions_examples():
    assert inversions(()) == 0
    assert inversions((1, 2, 3)) == 0
    assert inversions((4, 3, 2, 6, 1)) == 7
    assert inversions((4, 6, 3, 2, 1)) == 9
    # fully decreasing word has all C(n,2) pairs inverted
    for n in range(1, 7):
        assert inversions(tuple(range(n, 0, -1))) == n * (n - 1) // 2


def test_admissibility_examples():
    p = AlgebraParams(6, 3)
    assert not is_admissible((4, 3, 2, 6, 1), p)
    assert is_admissible((4, 6, 1, 3, 2), p)
    # k = 2: admissible means weakly increasing
    p2 = AlgebraParams(3, 2)
    assert is_admissible((1, 1, 2, 3), p2)
    assert not is_admissible((2, 1), p2)
    # weak variant: equal letters break strict admissibility checks only
    assert is_admissible((2, 2), p2, STRICT)
    assert not is_admissible((2, 2), p2, WEAK)
    with pytest.raises(ValueError):
        is_admissible((7,), p)
    with pytest.raises(ValueError):
        is_admissible((1, 2), p, variant="loose")


def test_run_positions():
    p = AlgebraParams(6, 3)
    assert smallest_decreasing_run((4, 6, 3, 2, 1), p) == 1
    assert smallest_decreasing_run((4, 6, 1, 3, 2), p) is None
    p3 = AlgebraParams(3, 3)
    assert smallest_decreasing_run((3, 2, 1, 3, 2, 1), p3) == 0
    # overlapping windows inside one long run
    p4 = AlgebraParams(4, 3)
    assert smallest_decreasing_run((4, 3, 2, 1), p4) == 0


def test_enumerate_small_frozen():
    # every pair without a strict descent, in lexicographic order
    assert list(enumerate_admissible(AlgebraParams(3, 2), 2)) == [
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    ]
    p33 = AlgebraParams(3, 3)
    cube = list(enumerate_admissible(p33, 3))
    assert len(cube) == 26
    assert (3, 2, 1) not in cube
    assert cube == sorted(cube)
    assert list(enumerate_admissible(p33, 0)) == [()]


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_enumerate_matches_bruteforce(m, k):
    p = AlgebraParams(m, k)
    for length in range(k + 2):
        for variant in (STRICT, WEAK):
            expected = [
                w for w in product(range(1, m + 1), repeat=length)
                if not naive_has_window(w, k, variant == STRICT)
            ]
            assert list(enumerate_admissible(p, length, variant)) == expected


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_count_at_length_k(m, k):
    # at length k exactly the C(m, k) strictly decreasing words drop out
    p = AlgebraParams(m, k)
    assert len(list(enumerate_admissible(p, k))) == m ** k - comb(m, k)


@given(st.integers(2, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, m),
                        st.lists(st.integers(1, m), max_size=7))))
def test_admissible_iff_no_window(mkw):
    m, k, letters = mkw
    word = tuple(letters)
    p = AlgebraParams(m, k)
    assert is_admissible(word, p) == (not naive_has_window(word, k, True))
    assert is_admissible(word, p, WEAK) == (not naive_has_window(word, k, False))
    assert has_decreasing_run(word, k) == naive_has_window(word, k, True)


@given(st.integers(2, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, m), st.integers(0, 6))))
def test_suffixes_of_admissible_are_admissible(mkl):
    m, k, length = mkl
    p = AlgebraParams(m, k)
    for word in enumerate_admissible(p, length):
        for cut in range(len(word) + 1):
            assert is_admissible(word[cut:], p)
