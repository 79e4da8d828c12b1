from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from macmahon import rewrite
from macmahon.rewrite import (
    NCombination,
    PrependRewriter,
    _normal_form_terms,
    expand_block,
    normal_form,
    path_coefficient,
    path_coefficient_dfs,
    reversion_vector,
)
from macmahon.words import (
    AlgebraParams,
    _leftmost_window,
    enumerate_admissible,
    inversions,
    is_admissible,
)


def relation_terms(letters):
    # the defining relation on an increasing tuple of letters: arrangement
    # w carries the sign of the permutation, i.e. (-1) ** inversions(w)
    return {w: (-1) ** inversions(w) for w in permutations(letters)}


def prepend_fold(word, rewriter):
    # the normal form by left-multiplying one letter at a time from the
    # right, so the suffix is reduced first; the worklist instead expands
    # the leftmost window of the whole word first
    vec = {(): 1}
    for a in reversed(word):
        vec = rewriter.times(a, vec)
    return vec


def test_expand_block_smallest_window():
    p = AlgebraParams(3, 3)
    terms = dict(expand_block((3, 2, 1), p))
    assert terms == {
        (1, 2, 3): 1,
        (1, 3, 2): -1,
        (2, 1, 3): -1,
        (2, 3, 1): 1,
        (3, 1, 2): 1,
    }
    # k = 2 is plain commutativity
    assert expand_block((2, 1), AlgebraParams(2, 2)) == [((1, 2), 1)]


def test_expand_block_keeps_context():
    p = AlgebraParams(3, 3)
    terms = dict(expand_block((1, 3, 2, 1, 3), p))
    assert all(w[:1] == (1,) and w[4:] == (3,) for w in terms)
    assert set(terms) == {(1,) + mid + (3,) for mid in
                          [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]}


def test_expand_block_rejects_admissible():
    with pytest.raises(ValueError):
        expand_block((1, 2, 3), AlgebraParams(3, 3))


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_expand_block_solves_relation(m, k):
    # substituting the expansion of the decreasing word back into the
    # defining relation must cancel it identically
    p = AlgebraParams(m, k)
    from itertools import combinations
    for letters in combinations(range(1, m + 1), k):
        relation = relation_terms(letters)
        decreasing = tuple(sorted(letters, reverse=True))
        expansion = dict(expand_block(decreasing, p))
        residual = Counter()
        for w, coeff in relation.items():
            if w == decreasing:
                for w2, c2 in expansion.items():
                    residual[w2] += coeff * c2
            else:
                residual[w] += coeff
        assert all(v == 0 for v in residual.values())


def test_normal_form_admissible_is_fixed():
    p = AlgebraParams(3, 3)
    nf = normal_form((1, 2, 3), p)
    assert nf.terms == {(1, 2, 3): 1}
    assert normal_form((), p).terms == {(): 1}


def test_normal_form_k2_sorts():
    p = AlgebraParams(3, 2)
    assert _normal_form_terms((3, 1, 2), p) == {(1, 2, 3): 1}
    assert _normal_form_terms((2, 1, 2, 1), p) == {(1, 1, 2, 2): 1}


def test_normal_form_frozen_example():
    # values computed independently with path_coefficient_dfs and frozen
    p = AlgebraParams(3, 3)
    nf = normal_form((3, 2, 1, 3, 2, 1), p)
    assert len(nf) == 34
    assert sum(nf.terms.values()) == 1
    assert nf.coefficient((1, 2, 3, 1, 2, 3)) == -1
    assert nf.coefficient((2, 3, 1, 2, 3, 1)) == 1
    assert nf.coefficient((1, 1, 2, 2, 3, 3)) == 0
    first_six = nf.sorted_items()[:6]
    assert first_six == [
        ((1, 1, 2, 3, 2, 3), -1),
        ((1, 1, 2, 3, 3, 2), 1),
        ((1, 1, 3, 2, 2, 3), 1),
        ((1, 1, 3, 2, 3, 2), -1),
        ((1, 2, 1, 2, 3, 3), -1),
        ((1, 2, 1, 3, 2, 3), 2),
    ]


def test_ncombination_validation():
    p = AlgebraParams(3, 3)
    with pytest.raises(ValueError):
        NCombination({(3, 2, 1): 1}, p)
    with pytest.raises(ValueError):
        NCombination({(1, 2): 0}, p)
    with pytest.raises(ValueError):
        NCombination({(1, 2): 1, (1,): 1}, p)
    combo = NCombination({(1, 2): 1}, p)
    assert combo.to_json_obj() == [{"word": [1, 2], "coeff": "1"}]


def test_path_coefficient_examples():
    p33 = AlgebraParams(3, 3)
    assert path_coefficient((1, 3, 2), (3, 2, 1), p33) == -1
    assert path_coefficient_dfs((1, 3, 2), (3, 2, 1), p33) == -1
    assert path_coefficient((1, 2, 3), (1, 2, 3), p33) == 1
    # k = 2: the only reachable admissible word is the sorted one
    p32 = AlgebraParams(3, 2)
    assert path_coefficient((1, 2), (2, 1), p32) == 1
    assert path_coefficient((1, 3), (2, 1), p32) == 0
    with pytest.raises(ValueError):
        path_coefficient((2, 1), (1, 2), p32)


@pytest.mark.parametrize("m,k,max_len", [(3, 2, 4), (3, 3, 4)])
def test_three_routes_agree(m, k, max_len):
    # bucket rewriting, memoised reversion vectors, and literal DFS path
    # enumeration must produce identical coefficients
    p = AlgebraParams(m, k)
    cache = {}
    for length in range(max_len + 1):
        for j in product(range(1, m + 1), repeat=length):
            nf = _normal_form_terms(j, p)
            vec = reversion_vector(j, p, cache)
            assert nf == vec, (j, nf, vec)
            for i in enumerate_admissible(p, length):
                assert path_coefficient_dfs(i, j, p) == nf.get(i, 0)


def words_with_window(k, max_len):
    # every word over {1..k} of length <= max_len holding the decreasing
    # block k..1, the only strictly decreasing k-window when m = k
    block = tuple(range(k, 0, -1))
    words = set()
    for length in range(k, max_len + 1):
        for start in range(length - k + 1):
            for rest in product(range(1, k + 1), repeat=length - k):
                words.add(rest[:start] + block + rest[start:])
    return sorted(words)


@pytest.mark.parametrize("k", [4, 5])
def test_worklist_matches_reversion_for_larger_k(k, monkeypatch):
    # the worklist updates inversion numbers as inv(w) - C(k,2) + inv(arr),
    # which depends on k; check it where C(k,2) is 6 and 10.  A wrong
    # bucket still gives the right sum but visits some words twice, so
    # the window searches are counted per word as well.  The prepend
    # fold reduces in another order and must agree too.
    searched = Counter()

    def counting_search(word, k, strict=True):
        searched[word] += 1
        return _leftmost_window(word, k, strict)

    monkeypatch.setattr(rewrite, "_leftmost_window", counting_search)
    p = AlgebraParams(k, k)
    cache = {}
    rewriter = PrependRewriter(p)
    for j in words_with_window(k, 7):
        vec = reversion_vector(j, p, cache)
        searched.clear()
        assert _normal_form_terms(j, p) == vec, j
        assert max(searched.values()) == 1, j
        assert prepend_fold(j, rewriter) == vec, j


def opening_run(word):
    # the length of the strictly decreasing run a word opens with, 0 if empty
    run = 1 if word else 0
    while run < len(word) and word[run - 1] > word[run]:
        run += 1
    return run


@pytest.mark.parametrize("m,k", [(3, 2), (4, 3), (4, 4), (5, 4)])
def test_front_matches_the_worklist(m, k):
    # front((a,) + w) for every admissible w of length <= 5 and a > head(w),
    # and to 2k - 2, where the rest w[k-1:] can open with a run of k - 1.
    # An arrangement of the front block followed by the rest is added
    # directly unless a decreasing k-window crosses their junction, so the
    # rests include the empty one and ones that open with runs of k - 2 and
    # k - 1 letters, and both kinds of arrangement occur
    p = AlgebraParams(m, k)
    rewriter = PrependRewriter(p)
    runs = set()
    crossing = Counter()
    for length in range(max(5, 2 * k - 2) + 1):
        for w in enumerate_admissible(p, length):
            for a in range(rewriter.head(w) + 1, m + 1):
                word = (a,) + w
                assert rewriter.front(word) == normal_form(word, p).terms, word
                block, rest = word[:k], word[k:]
                runs.add(opening_run(rest))
                for arr, _, _ in rewrite._arrangements(block):
                    crossing[not is_admissible(arr + rest, p)] += 1
    assert {0, k - 1} | ({k - 2} if k > 2 else set()) <= runs
    assert crossing[True] and crossing[False]


def test_k2_path_coefficients_are_indicator():
    p = AlgebraParams(4, 2)
    for length in range(5):
        for j in product(range(1, 5), repeat=length):
            vec = reversion_vector(j, p)
            assert vec == {tuple(sorted(j)): 1}


word_cases = st.integers(2, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, m),
                        st.lists(st.integers(1, m), max_size=6)))


@given(word_cases)
@settings(max_examples=60)
def test_normal_form_properties(mkw):
    m, k, letters = mkw
    word = tuple(letters)
    p = AlgebraParams(m, k)
    terms = _normal_form_terms(word, p)
    assert all(is_admissible(w, p) for w in terms)
    assert all(c != 0 for c in terms.values())
    # letter multiset is preserved by every relation
    assert all(Counter(w) == Counter(word) for w in terms)
    # substituting 1 for every generator kills each relation, so the
    # coefficients always sum to 1
    assert sum(terms.values()) == 1


@given(word_cases)
@settings(max_examples=40)
def test_normal_form_confluence(mkw):
    # the worklist and the prepend fold rewrite in different orders
    m, k, letters = mkw
    word = tuple(letters)
    p = AlgebraParams(m, k)
    assert normal_form(word, p).terms == prepend_fold(word, PrependRewriter(p))


@given(word_cases)
@settings(max_examples=60)
def test_normal_form_passes_validation(mkw):
    # normal_form skips the constructor's check; the worklist's output must
    # still pass it (admissible, nonzero, one length)
    m, k, letters = mkw
    p = AlgebraParams(m, k)
    combination = normal_form(letters, p)
    assert NCombination(dict(combination.terms), p) == combination
