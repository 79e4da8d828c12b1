from itertools import permutations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from macmahon.counting import (
    DP,
    SERIES,
    TRANSFER,
    build_transfer_graph,
    check_symmetry,
    count_admissible,
    count_perms_no_long_descents,
    egf_check,
    f_denominator,
    f_series,
    n_m_check,
)
from macmahon.polyring import Poly, complete_sym, elementary_sym, tvar, word_t_monomial
from macmahon.words import STRICT, WEAK, AlgebraParams, enumerate_admissible

P33 = AlgebraParams(3, 3)


def brute_count(m, k, length, variant):
    strict = variant == STRICT
    total = 0
    for w in product(range(1, m + 1), repeat=length):
        ok = True
        for s in range(length - k + 1):
            window = w[s:s + k]
            if all(window[i] > window[i + 1] if strict else window[i] >= window[i + 1]
                   for i in range(k - 1)):
                ok = False
                break
        if ok:
            total += 1
    return total


def test_frozen_tables():
    assert count_admissible(P33, 8, STRICT, DP).values == \
        (1, 3, 9, 26, 75, 216, 622, 1791, 5157)
    assert count_admissible(AlgebraParams(4, 3), 6, STRICT, DP).values == \
        (1, 4, 16, 60, 225, 840, 3136)
    assert count_admissible(AlgebraParams(4, 4), 8, STRICT, DP).values == \
        (1, 4, 16, 64, 255, 1016, 4048, 16128, 64257)
    # weak variant: k = 2 means strictly increasing words
    assert count_admissible(AlgebraParams(3, 2), 5, WEAK, DP).values == \
        (1, 3, 3, 1, 0, 0)
    assert count_admissible(P33, 6, WEAK, DP).values == \
        (1, 3, 9, 17, 36, 63, 126)
    # k = 2 strict: weakly increasing words, i.e. multisets
    assert count_admissible(AlgebraParams(4, 2), 6, STRICT, DP).values == \
        tuple(comb(l + 3, 3) for l in range(7))


@pytest.mark.parametrize("method", [DP, TRANSFER, SERIES])
@pytest.mark.parametrize("variant", [STRICT, WEAK])
def test_methods_match_bruteforce(method, variant):
    for m, k in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        params = AlgebraParams(m, k)
        table = count_admissible(params, k + 2, variant, method)
        expected = tuple(brute_count(m, k, l, variant) for l in range(k + 3))
        assert table.values == expected, (m, k, method, variant)


def test_method_argument_validation():
    with pytest.raises(ValueError):
        count_admissible(P33, 3, STRICT, "magic")
    with pytest.raises(ValueError):
        count_admissible(P33, -1)
    with pytest.raises(ValueError):
        count_admissible(P33, 3, "loose")


def test_transfer_skips_graph_below_k(monkeypatch):
    # words shorter than k are all admissible, so no window graph is needed
    def refuse(*args, **kwargs):
        raise AssertionError("transfer graph built for a length below k")

    monkeypatch.setattr("macmahon.counting.build_transfer_graph", refuse)
    for m, k in [(2, 2), (4, 3), (200, 3)]:
        for variant in (STRICT, WEAK):
            for length in range(k):
                table = count_admissible(AlgebraParams(m, k), length, variant, TRANSFER)
                assert table.values == tuple(m ** l for l in range(length + 1))


@pytest.mark.parametrize("variant", [STRICT, WEAK])
@pytest.mark.parametrize("m, k, length", [(5, 3, 30), (6, 4, 25)])
def test_transfer_matches_dp_beyond_brute_force(m, k, length, variant):
    # long walks on 25 and 216 window states, where the brute force cannot go
    params = AlgebraParams(m, k)
    assert count_admissible(params, length, variant, TRANSFER).values == \
        count_admissible(params, length, variant, DP).values


def test_transfer_graph_structure():
    graph = build_transfer_graph(AlgebraParams(2, 2))
    assert graph == {(1,): ((1,), (2,)), (2,): ((2,),)}
    g33 = build_transfer_graph(P33)
    # states in lexicographic order
    assert list(g33) == list(product(range(1, 4), repeat=2))
    # only a strictly decreasing window forbids an extension
    assert g33[(3, 2)] == ((2, 2), (2, 3))
    assert g33[(2, 3)] == ((3, 1), (3, 2), (3, 3))
    # one step from every state: the 26 admissible words of length 3
    assert sum(len(outs) for outs in g33.values()) == 26


def test_count_table_json():
    table = count_admissible(AlgebraParams(2, 2), 3)
    assert table.to_json_obj() == {
        "m": 2, "k": 2, "variant": "strict", "method": "dp",
        "values": ["1", "2", "3", "4"],
    }


def test_f_denominator_frozen():
    e = elementary_sym
    assert f_denominator(AlgebraParams(2, 2), 4) == 1 - e(1, 2) + e(2, 2)
    assert f_denominator(P33, 4) == 1 - e(1, 3) + e(3, 3)
    assert f_denominator(AlgebraParams(4, 3), 6) == \
        1 - e(1, 4) + e(3, 4) - e(4, 4)
    h = complete_sym
    assert f_denominator(AlgebraParams(3, 2), 3, WEAK) == \
        1 - h(1, 3) + h(2, 3) - h(3, 3)


def test_f_series_strict_small():
    result = f_series(AlgebraParams(2, 2), 3)
    assert result.equal
    # admissible words for k = 2 are multisets: the complete homogeneous sum
    expected = Poly.zero()
    for d in range(4):
        expected = expected + complete_sym(d, 2)
    assert result.lhs.poly == expected
    assert result.rhs.poly == expected


def test_f_series_weak_small():
    result = f_series(AlgebraParams(3, 2), 5, WEAK)
    assert result.equal
    e = elementary_sym
    assert result.lhs.poly == 1 + e(1, 3) + e(2, 3) + e(3, 3)


def test_f_series_counts_match_univariate():
    # setting every marker to one variable recovers the count table
    result = f_series(P33, 5)
    for length in range(6):
        component = result.lhs.t_component(length)
        total = sum(component.terms.values())
        assert total == count_admissible(P33, 5).values[length]


@given(st.integers(2, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, m), st.integers(0, 6),
                        st.sampled_from((STRICT, WEAK)))))
@example((3, 3, 0, STRICT))
@example((3, 2, 1, STRICT))
@example((4, 4, 6, STRICT))
@example((3, 2, 5, WEAK))
@settings(max_examples=30, deadline=None)
def test_f_series_lhs_matches_word_enumeration(case):
    # the content automaton against one t-monomial per admissible word
    m, k, cap, variant = case
    params = AlgebraParams(m, k)
    acc = {}
    for length in range(cap + 1):
        for word in enumerate_admissible(params, length, variant):
            mono = word_t_monomial(word)
            acc[mono] = acc.get(mono, 0) + 1
    result = f_series(params, cap, variant)
    assert result.lhs.poly == Poly(acc)
    assert result.equal


def test_check_symmetry():
    assert check_symmetry(f_series(P33, 4).lhs, 3)
    assert check_symmetry(Poly.one(), 5)
    assert not check_symmetry(Poly.variable(tvar(1)), 2)


def test_perm_counts_frozen():
    # frozen values; cross-checked against the series in egf_check
    assert [count_perms_no_long_descents(n, 2) for n in range(6)] == [1] * 6
    assert [count_perms_no_long_descents(n, 3) for n in range(8)] == \
        [1, 1, 2, 5, 17, 70, 349, 2017]
    assert [count_perms_no_long_descents(n, 4) for n in range(8)] == \
        [1, 1, 2, 6, 23, 111, 642, 4326]
    assert count_perms_no_long_descents(3, 5) == 6
    with pytest.raises(ValueError):
        count_perms_no_long_descents(3, 1)


def test_perm_counts_match_brute_force():
    # the insertion DP against all n! permutations, one pass per n that
    # records each permutation's longest strictly decreasing run
    for n in range(9):
        longest = {}
        for perm in permutations(range(n)):
            best = run = min(n, 1)
            for s in range(1, n):
                run = run + 1 if perm[s - 1] > perm[s] else 1
                best = max(best, run)
            longest[best] = longest.get(best, 0) + 1
        for k in range(2, 6):
            expected = sum(count for run, count in longest.items() if run < k)
            assert count_perms_no_long_descents(n, k) == expected, (n, k)


def test_egf_check():
    report = egf_check(3, 7)
    assert report.passed
    assert report.series_counts == (1, 1, 2, 5, 17, 70, 349, 2017)
    assert report.brute_counts == report.series_counts
    assert egf_check(2, 6).series_counts == (1,) * 7
    # 14! permutations are out of reach for a brute force; the counts are
    # the permutations without double falls (OEIS A049774)
    report = egf_check(3, 14)
    assert report.passed
    assert report.brute_counts[8:] == (13358, 99377, 822041, 7477162, 74207209,
                                       797771521, 9236662346)


def test_n_m_check_small():
    report = n_m_check(3, 6)
    assert report.passed
    assert report.totals == tuple(3 ** l for l in range(7))
    assert report.admissible_counts == (1, 3, 9, 26, 75, 216, 622)
    # the two counts diverge from length m on
    assert all(report.admissible_counts[l] < report.totals[l] for l in range(3, 7))


@given(st.integers(2, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, m), st.integers(0, 5),
                        st.sampled_from((STRICT, WEAK)))))
@settings(max_examples=30, deadline=None)
def test_dp_matches_bruteforce_property(case):
    m, k, length, variant = case
    params = AlgebraParams(m, k)
    assert count_admissible(params, length, variant, DP).values[-1] == \
        brute_count(m, k, length, variant)
