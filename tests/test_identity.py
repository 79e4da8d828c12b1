from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from macmahon import cli, identity
from macmahon.charpoly import SymMatrix, alpha, second_factor
from macmahon.identity import (
    FirstFactorSeries,
    _report_from_residuals,
    _universal_sweep,
    first_factor,
    first_factor_totals,
    g_coefficient,
    verify_corollary,
    verify_master,
)
from macmahon.polyring import Poly, TruncatedSeries, avar, tvar, word_t_monomial
from macmahon.rewrite import PrependRewriter, _normal_form_terms, reversion_vector
from macmahon.words import AlgebraParams, enumerate_admissible, is_admissible
from universal_invariants import invariant_failure

P22 = AlgebraParams(2, 2)
P32 = AlgebraParams(3, 2)
P33 = AlgebraParams(3, 3)


def expansion_route(matrix, word, params):
    # the coefficient of `word` in the product of the y's, by expanding all
    # m**l terms and rewriting each one
    rows = matrix.scalar_rows() if matrix.is_numeric() else matrix.entries
    total = Poly.zero()
    for j in product(range(1, params.m + 1), repeat=len(word)):
        weight = Poly.one()
        for a, b in zip(word, j):
            weight = weight * rows[a - 1][b - 1]
        coeff = _normal_form_terms(j, params).get(tuple(word), 0)
        if coeff:
            total = total + coeff * weight
    return total


def path_sum_route(matrix, word, params, cache):
    # same coefficient through reversion-path counts instead of rewriting
    rows = matrix.scalar_rows() if matrix.is_numeric() else matrix.entries
    total = Poly.zero()
    for j in product(range(1, params.m + 1), repeat=len(word)):
        coeff = reversion_vector(j, params, cache).get(tuple(word), 0)
        if coeff:
            weight = Poly.one()
            for a, b in zip(word, j):
                weight = weight * rows[a - 1][b - 1]
            total = total + coeff * weight
    return total


def test_first_factor_triangular_example():
    matrix = SymMatrix.from_rows([[1, 1], [0, 1]])
    table = first_factor(matrix, P22, 2)
    assert table.mode == "numeric"
    assert table.coeffs == {
        (): 1, (1,): 1, (2,): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1,
    }
    assert table.g((1, 2)) == Poly.one()
    totals = first_factor_totals(matrix, P22, 2)
    assert totals == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1}
    by_length = [0, 0, 0]
    for content, total in totals.items():
        by_length[sum(content)] += total.constant_value()
    assert by_length == [1, 2, 3]


def test_g_coefficient_symbolic_2x2():
    matrix = SymMatrix.symbolic(2)
    a = {(i, j): Poly.variable(avar(i, j)) for i in (1, 2) for j in (1, 2)}
    assert g_coefficient(matrix, (1, 2), P22) == a[1, 1] * a[2, 2] + a[1, 2] * a[2, 1]
    assert g_coefficient(matrix, (1,), P22) == a[1, 1]
    assert g_coefficient(matrix, (), P22) == Poly.one()


def test_g_coefficient_validation():
    with pytest.raises(ValueError):
        g_coefficient(SymMatrix.identity(3), (2, 1), P32)
    with pytest.raises(ValueError):
        g_coefficient(SymMatrix.identity(2), (1,), P33)
    with pytest.raises(ValueError):
        first_factor(SymMatrix.identity(2), P33, 3)
    with pytest.raises(ValueError):
        first_factor(SymMatrix.identity(3), P33, -1)
    # the markers are refused here as by every other first-factor route
    with pytest.raises(ValueError, match="must not involve the markers t_i"):
        g_coefficient(SymMatrix.from_rows([[1, Poly.variable(tvar(2))], [0, 1]]), (1, 2), P22)


def test_identity_matrix_gives_indicator():
    table = first_factor(SymMatrix.identity(3), P33, 4)
    for length in range(5):
        for word in enumerate_admissible(P33, length):
            assert table.coeffs.get(word) == 1
    assert len(table.coeffs) == 1 + 3 + 9 + 26 + 75


def test_diagonal_matrix_scales_letters():
    d = {1: Fraction(1, 2), 2: 3, 3: Fraction(-2, 5)}
    matrix = SymMatrix.from_rows([
        [d[1], 0, 0], [0, d[2], 0], [0, 0, d[3]],
    ])
    table = first_factor(matrix, P33, 4)
    for word, coeff in table.coeffs.items():
        expected = 1
        for letter in word:
            expected *= d[letter]
        assert coeff == expected


def test_zero_rows_prune_words():
    # second generator resums to nothing, so no word may start with it
    table = first_factor(SymMatrix.from_rows([[1, 0], [0, 0]]), P22, 3)
    assert all(2 not in word for word in table.coeffs)


@pytest.mark.parametrize("matrix,params,cap", [
    (SymMatrix.random(3, seed=5), P32, 4),
    (SymMatrix.random(3, seed=6), P33, 4),
    (SymMatrix.symbolic(3), P33, 3),
    (SymMatrix.symbolic(3), P33, 4),
])
def test_first_factor_matches_g_coefficient(matrix, params, cap):
    table = first_factor(matrix, params, cap)
    for length in range(cap + 1):
        for word in enumerate_admissible(params, length):
            assert table.g(word) == g_coefficient(matrix, word, params)


@pytest.mark.parametrize("matrix", [
    SymMatrix.random(3, seed=9),
    SymMatrix.symbolic(3),
])
@pytest.mark.parametrize("params", [P32, P33])
def test_g_routes_agree(matrix, params):
    # incremental left-multiplication vs full expansion vs path-count sum
    cache = {}
    for length in range(5 if matrix.is_numeric() else 4):
        for word in enumerate_admissible(params, length):
            incremental = g_coefficient(matrix, word, params)
            assert incremental == expansion_route(matrix, word, params)
            assert incremental == path_sum_route(matrix, word, params, cache)


def admissible_up_to(params, cap):
    return [w for length in range(cap + 1) for w in enumerate_admissible(params, length)]


def test_equal_rows_match_g_coefficient():
    # matrices whose rows all coincide, where every y_i is the same element
    cases = [(SymMatrix.ones(3), P32), (SymMatrix.ones(3), P33),
             (SymMatrix.from_rows([[2, -1], [2, -1]]), P22)]
    for matrix, params in cases:
        table = first_factor(matrix, params, 5)
        for word in admissible_up_to(params, 5):
            assert table.g(word) == g_coefficient(matrix, word, params)


@pytest.mark.parametrize("params,length", [
    (P22, 6), (P33, 6), (AlgebraParams(4, 3), 5), (AlgebraParams(4, 4), 5), (AlgebraParams(5, 3), 4),
])
def test_front_rewriter_matches_normal_form(params, length):
    # every prepend x_a * w of an admissible w: rewritten exactly when
    # a > head(w), and then to the normal form the reversion paths give
    rewriter = PrependRewriter(params)
    cache = {}
    for word in admissible_up_to(params, length - 1):
        for a in range(1, params.m + 1):
            expected = reversion_vector((a,) + word, params, cache)
            if a > rewriter.head(word):
                assert rewriter.front((a,) + word) == expected
            else:
                assert expected == {(a,) + word: 1}


def test_rewrite_meeting_an_admissible_prepend():
    # in the sweep's step to j = (4,4,3,2,2,1), the word (4,1,2,2,3,4) is
    # both the admissible prepend x_4 * (1,2,2,3,4) and a term of a rewritten
    # prepend, so its coefficients must merge and its weight be redone
    params = AlgebraParams(4, 3)
    word = (4, 1, 2, 2, 3, 4)
    for matrix in (SymMatrix.ones(4), SymMatrix.random(4, seed=3, low=1, high=3)):
        assert first_factor(matrix, params, 6).g(word) == g_coefficient(matrix, word, params)


@st.composite
def matrix_params_cap(draw):
    k = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(k, 3))
    entries = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m))
    return SymMatrix.from_rows(rows), AlgebraParams(m, k), draw(st.integers(0, 4))


@settings(max_examples=25, deadline=None)
@given(matrix_params_cap())
@example((SymMatrix.from_rows([[0, 0, 0]] * 3), P33, 4))
@example((SymMatrix.from_rows([[0, 1], [-2, 0]]), P22, 0))
# zero diagonals: a prepend that stays admissible passes on a zero weight
@example((SymMatrix.from_rows([[0, 1], [1, 0]]), P22, 4))
@example((SymMatrix.from_rows([
    [Fraction(1, 2), 0, 2], [Fraction(-1, 3), 1, Fraction(3, 2)], [0, Fraction(2, 5), 0],
]), P33, 4))
def test_first_factor_matches_oracles(case):
    matrix, params, cap = case
    table = first_factor(matrix, params, cap)
    words = admissible_up_to(params, cap)
    assert set(table.coeffs) <= set(words)
    cache = {}
    for word in words:
        g = g_coefficient(matrix, word, params)
        assert table.g(word) == g
        assert path_sum_route(matrix, word, params, cache) == g


def test_series_collects_words_by_monomial():
    table = first_factor(SymMatrix.identity(2), P22, 2)
    series = table.series()
    t1, t2 = Poly.variable(tvar(1)), Poly.variable(tvar(2))
    assert series.poly == 1 + t1 + t2 + t1 ** 2 + t1 * t2 + t2 ** 2
    assert series.cap == 2


def per_word_series(table):
    # the first factor summed word by word, each g(w) times its own t-monomial
    total = Poly.zero()
    for w, value in table.coeffs.items():
        total = total + Poly.monomial(word_t_monomial(w)) * value
    return TruncatedSeries(total, table.cap)


@pytest.mark.parametrize("matrix,params,cap", [
    (SymMatrix.random(3, seed=11), P33, 5),
    (SymMatrix.random(3, seed=12), P32, 5),
    (SymMatrix.from_rows([[Fraction(1, 2), 0, 3], [Fraction(-2, 3), 1, 0], [0, Fraction(5, 7), 0]]), P33, 5),
    (SymMatrix.symbolic(3), P33, 4),
    (SymMatrix.symbolic(2), P22, 4),
])
def test_series_matches_per_word_sum(matrix, params, cap):
    table = first_factor(matrix, params, cap)
    assert table.series() == per_word_series(table)


def test_series_cancels_within_content_class():
    a11, a12 = Poly.variable(avar(1, 1)), Poly.variable(avar(1, 2))
    t1, t2 = Poly.variable(tvar(1)), Poly.variable(tvar(2))
    table = FirstFactorSeries(P33, 3, "symbolic", {
        (): 1,
        (1, 2): a11 + a12, (2, 1): -a11,                # class t1*t2 keeps only a12
        (1, 2, 1): 2, (2, 1, 1): -2,                    # class t1^2*t2 vanishes
        (1, 2, 2): Fraction(1, 2), (2, 2, 1): Fraction(1, 2),
    })
    series = table.series()
    assert series == per_word_series(table)
    assert series.poly == 1 + a12 * t1 * t2 + t1 * t2 ** 2
    assert all(type(c) is int for c in series.poly.terms.values())


def test_first_factor_series_symbolic_degree_one():
    series = first_factor(SymMatrix.symbolic(2), P22, 1).series()
    a = {(i, j): Poly.variable(avar(i, j)) for i in (1, 2) for j in (1, 2)}
    t1, t2 = Poly.variable(tvar(1)), Poly.variable(tvar(2))
    assert series.poly == 1 + a[1, 1] * t1 + a[2, 2] * t2


def test_verify_master_small_numeric():
    for (m, k), seed in [((2, 2), 1), ((3, 2), 2), ((3, 3), 3)]:
        report = verify_master(SymMatrix.random(m, seed=seed), AlgebraParams(m, k), 5)
        assert report.passed
        assert report.mode == "numeric"
        assert [c.degree for c in report.per_degree] == list(range(6))
        assert report.first_failure is None


def test_verify_master_symbolic_small():
    report = verify_master(SymMatrix.symbolic(2), P22, 3)
    assert report.passed
    assert report.mode == "symbolic"


@pytest.mark.parametrize("matrix", [SymMatrix.ones(5), SymMatrix.random(5, seed=1),
                                    SymMatrix.symbolic(5)])
def test_verify_where_kept_and_rewritten_terms_collide(matrix):
    # in a sweep of all words these reach the merge of a kept prepend
    # x_a * w with the same word from a rewritten term of the same node;
    # the hull-pruned sweep of verify reaches it only at larger caps (next
    # test)
    assert verify_master(matrix, AlgebraParams(5, 3), 6).passed


@pytest.mark.parametrize("m,cap", [(3, 9), (5, 7)])
def test_universal_sweep_merges_a_rewritten_word_into_a_kept_one(m, cap):
    # the smallest hull-pruned sweeps in which a rewritten term of a built
    # node lands on a kept prepend of the same word (3-3-9 first at
    # (3, 1, 2, 1, 3, 2, 3), 5-3-7 only at (4, 1, 2, 2, 3, 5)); the merge
    # must add the two coefficients
    params = AlgebraParams(m, 3)
    for matrix in (SymMatrix.random(m, seed=1), SymMatrix.ones(m)):
        assert verify_master(matrix, params, cap).passed


def test_report_json_shape():
    report = verify_master(SymMatrix.identity(2), P22, 2)
    obj = report.to_json_obj()
    assert obj["params"] == {"m": 2, "k": 2}
    assert obj["cap"] == 2
    assert obj["pass"] is True
    assert obj["per_degree"] == [
        {"d": 0, "ok": True, "residual_terms": 0},
        {"d": 1, "ok": True, "residual_terms": 0},
        {"d": 2, "ok": True, "residual_terms": 0},
    ]
    assert obj["first_failure"] is None


def test_failure_reporting_plumbing():
    t1 = Poly.variable(tvar(1))
    report = _report_from_residuals(P22, 2, "numeric",
                                    [Poly.zero(), t1 - 2 * t1 ** 1, Poly.zero()])
    assert not report.passed
    assert report.per_degree[1].ok is False
    assert report.per_degree[1].residual_terms == 1
    assert report.first_failure == {
        "degree": 1,
        "residual": [{"coeff": "-1", "monomial": {"t_1": 1}}],
    }


def poly_route_report(matrix, params, cap, sf):
    # the report from the per-word table's series times sf, all in Poly
    product = first_factor(matrix, params, cap).series() * sf
    residuals = [product.t_component(d) - (1 if d == 0 else 0) for d in range(cap + 1)]
    mode = "numeric" if matrix.is_numeric() else "symbolic"
    return _report_from_residuals(params, cap, mode, residuals)


A12, T1, T2 = Poly.variable(avar(1, 2)), Poly.variable(tvar(1)), Poly.variable(tvar(2))


@pytest.mark.parametrize("argv,matrix,params,cap,stray", [
    (["--matrix", "random", "--seed", "4"], SymMatrix.random(3, seed=4), P33, 4,
     Fraction(1, 2) * T1 * T2),
    (["--matrix", "symbolic"], SymMatrix.symbolic(3), P32, 4, -3 * A12 * T2),
])
def test_failing_verify_matches_the_poly_route(monkeypatch, capsys, argv, matrix, params, cap, stray):
    # a second factor off by one stray term: the packed product must report
    # the same per-degree counts and first residual as the Poly product
    sf = second_factor(matrix, params) + stray
    monkeypatch.setattr(identity, "second_factor", lambda *args: sf)
    expected = poly_route_report(matrix, params, cap, sf)
    assert not expected.passed
    assert verify_master(matrix, params, cap).to_json_obj() == expected.to_json_obj()
    base = ["verify", "--m", str(params.m), "--k", str(params.k), "--cap", str(cap), *argv]
    for fmt in ("text", "json"):
        assert cli.main(base + ["--format", fmt]) == 1
        packed = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(cli, "verify_master", lambda *args: expected)
            assert cli.main(base + ["--format", fmt]) == 1
        assert packed == capsys.readouterr().out


def test_entries_with_markers_are_refused():
    # verify grades by t-degree, and the sweep packs the content's t-digits
    # into the same keys as the entries
    matrix = SymMatrix.from_rows([[T1, 0], [0, 1]])
    with pytest.raises(ValueError, match="markers"):
        first_factor_totals(matrix, P22, 2)
    with pytest.raises(ValueError, match="markers"):
        verify_master(matrix, P22, 2)


def test_verify_corollary_matrices():
    assert verify_corollary(SymMatrix.identity(3), P33, 5).passed
    assert verify_corollary(SymMatrix.ones(3), P33, 5).passed
    assert verify_corollary(SymMatrix.random(3, seed=17), P32, 5).passed
    report = verify_corollary(SymMatrix.random(4, seed=18), AlgebraParams(4, 3), 4)
    assert report.passed
    assert report.mode == "corollary"


@pytest.mark.parametrize("flipped", [0, 2])
def test_failing_corollary_reports_the_first_residual(monkeypatch, flipped):
    # the degree-r term s_r of the second bracket with its sign flipped:
    # the degree-d residual becomes -2 s_r times the degree-(d - r) term of
    # the first bracket, which the content totals give independently
    matrix, cap = SymMatrix.random(3, seed=4), 5
    s_r = sum(second_factor(matrix, P32).t_component(flipped).terms.values())
    first = [0] * (cap + 1)
    for content, total in first_factor_totals(matrix, P32, cap).items():
        first[sum(content)] += total.constant_value()
    monkeypatch.setattr(identity, "alpha", lambda r, k: alpha(r, k) + (r == flipped))
    report = verify_corollary(matrix, P32, cap)
    assert not report.passed
    assert [c.residual_terms for c in report.per_degree] == [
        1 if d >= flipped and first[d - flipped] else 0 for d in range(cap + 1)]
    mono = ((tvar(1), flipped),) if flipped else ()
    assert report.first_failure == {
        "degree": flipped, "residual": Poly.monomial(mono, -2 * s_r).to_json_terms()}


def test_verify_corollary_fractions_and_errors():
    diag = SymMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert verify_corollary(diag, P22, 6).passed
    assert verify_corollary(SymMatrix.from_rows([[0, 0], [0, 0]]), P22, 4).passed
    with pytest.raises(ValueError, match="does not match"):
        verify_corollary(SymMatrix.identity(3), P22, 3)
    with pytest.raises(ValueError, match="not numeric"):
        verify_corollary(SymMatrix.symbolic(2), P22, 3)


def test_first_factor_series_type():
    table = first_factor(SymMatrix.identity(2), P22, 3)
    assert isinstance(table, FirstFactorSeries)
    with pytest.raises(ValueError):
        table.g((1, 2, 3, 1))
    with pytest.raises(ValueError):
        table.g((2, 1))


def totals_by_content(series, m):
    # split each monomial of a first-factor series into its t part, read as
    # a content, and its a part
    parts = {}
    for mono, coeff in series.poly.terms.items():
        content = [0] * m
        a_part = []
        for var, exp in mono:
            if var[0] == "t":
                content[var[1] - 1] = exp
            else:
                a_part.append((var, exp))
        parts.setdefault(tuple(content), {})[tuple(a_part)] = coeff
    return {content: Poly(terms) for content, terms in parts.items()}


SCALARS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


def scalar_plus_ones(m, alpha, beta):
    # alpha*I + beta*J
    return SymMatrix.from_rows([[alpha * (i == j) + beta for j in range(m)] for i in range(m)])


def with_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix.entries]
    rows[i][j] = value
    return SymMatrix.from_rows(rows)


@st.composite
def polynomial_entry(draw, m):
    # 0, a scalar, a_pq, c*a_pq*a_rs, a_pq**2 or a_pq + c*a_rs
    def var():
        return Poly.variable(avar(draw(st.integers(1, m)), draw(st.integers(1, m))))

    shape = draw(st.sampled_from(("zero", "scalar", "var", "product", "square", "sum")))
    if shape == "zero":
        return 0
    if shape == "scalar":
        return draw(SCALARS)
    if shape == "var":
        return var()
    if shape == "square":
        return var() ** 2
    c = draw(SCALARS.filter(bool))
    return c * var() * var() if shape == "product" else var() + c * var()


@st.composite
def sweep_cases(draw):
    # arbitrary numbers, the symbolic matrix, alpha*I + beta*J and
    # polynomial entries
    family = draw(st.sampled_from(("entries", "symbolic", "scalar", "polynomial")))
    m = draw(st.integers(2, 4 if family in ("symbolic", "scalar") else 3))
    params = AlgebraParams(m, draw(st.integers(2, m)))
    # at m = 4 the oracle takes seconds from cap 5 on, symbolic from cap 4,
    # and polynomial entries at m = 3 from cap 5
    cap = draw(st.integers(0, 3 if m == 4 else 4 if family == "polynomial" else 5))
    if family == "symbolic":
        return SymMatrix.symbolic(m), params, cap
    if family == "scalar":
        alpha = draw(SCALARS)
        beta = draw(st.one_of(st.just(0), st.just(alpha), SCALARS))
        return scalar_plus_ones(m, alpha, beta), params, cap
    entries = polynomial_entry(m) if family == "polynomial" else SCALARS
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m))
    return SymMatrix.from_rows(rows), params, cap


def squared(matrix):
    # every entry squared: the largest exponent is 2, so the sweep's
    # exponents reach 2 * cap
    return SymMatrix.from_rows([[e * e for e in row] for row in matrix.entries])


def leaf_fronts(a, nf, params):
    # {word: the coefficients it gets from each rewritten term of the leaf
    # child a of a node with normal form nf}, from the worklist oracle:
    # (a,) + w is rewritten exactly when it is not admissible
    reach = {}
    for w, c in nf.items():
        if not is_admissible((a,) + w, params):
            for u, coeff in _normal_form_terms((a,) + w, params).items():
                reach.setdefault(u, []).append(c * coeff)
    return reach


# m = 3, k = 3 first merges the fronts of two terms of one leaf at cap 6: at
# the leaf (3, 2, 1, 3, 2, 1), the terms (2,1,2,1,3) and (2,1,1,2,3) of
# NF(2, 1, 3, 2, 1) both reach (1, 2, 1, 3, 2, 3), with coefficients adding
# to 2, and (2, 1, 3, 1, 2, 3), with coefficients cancelling.  Each matrix
# keeps the entries that weigh one of these words against that leaf and
# zeroes the other's, so assigning instead of adding in the merge changes
# a total in both
MERGE_SUM = (SymMatrix.from_rows([[2, 0, -1], [0, 3, 0], [1, 0, -2]]), P33, 6)
MERGE_CANCEL = (SymMatrix.from_rows([[0, 2, -1], [0, 3, 1], [-2, 0, 0]]), P33, 6)


@settings(max_examples=50, deadline=None)
@given(sweep_cases())
@example(MERGE_SUM)
@example(MERGE_CANCEL)
@example((SymMatrix.from_rows([
    [0, -2, Fraction(1, 2)], [3, Fraction(-2, 3), 0], [1, -1, 2],
]), P33, 5))
@example((SymMatrix.from_rows([[2, 0, -1], [Fraction(1, 3), 0, 1], [-2, 3, 1]]), P32, 5))
@example((SymMatrix.symbolic(3), P33, 4))
@example((SymMatrix.symbolic(4), AlgebraParams(4, 3), 3))
@example((scalar_plus_ones(4, Fraction(1, 2), Fraction(-2, 3)), AlgebraParams(4, 4), 4))
@example((SymMatrix.ones(3), P32, 5))
# the transpose of the symbolic matrix
@example((SymMatrix(3, tuple(zip(*SymMatrix.symbolic(3).entries))), P33, 4))
# one entry off ones and off the symbolic matrix
@example((with_entry(SymMatrix.ones(3), 1, 2, 2), P33, 5))
@example((with_entry(SymMatrix.symbolic(3), 0, 1, 2), P33, 4))
# exponents up to 2 * cap: a digit base of cap + 1 would carry
@example((SymMatrix.from_rows([[A12 * A12, A12 + 2 * Poly.variable(avar(2, 1))],
                               [3, Poly.variable(avar(2, 2)) ** 2]]), P22, 4))
@example((squared(SymMatrix.symbolic(3)), P33, 4))
# scalar path weights added to a packed total
@example((SymMatrix.from_rows([[Poly.variable(avar(1, 1)), 2], [3, 1]]), P22, 4))
@example((SymMatrix.from_rows([[1, A12, 2], [Poly.variable(avar(2, 1)), 1, 0],
                               [1, 2, Poly.variable(avar(3, 3))]]), P33, 4))
def test_content_totals_match_per_word_oracles(case):
    # the per-content totals and the per-word table against the worklist
    # oracle, which shares no cache with either sweep
    matrix, params, cap = case
    expected = {}
    g = {}
    for word in admissible_up_to(params, cap):
        g[word] = g_coefficient(matrix, word, params)
        content = tuple(word.count(a) for a in range(1, params.m + 1))
        expected[content] = expected.get(content, Poly.zero()) + g[word]
    expected = {content: total for content, total in expected.items() if total}
    totals = first_factor_totals(matrix, params, cap)
    assert totals == expected
    table = first_factor(matrix, params, cap)
    assert {word: table.g(word) for word in g} == g
    assert totals_by_content(table.series(), params.m) == totals


def test_merge_examples_still_merge_colliding_fronts():
    # the two merge examples above must keep their collisions, found from
    # the worklist alone: for each word u that two or more rewritten terms
    # of a leaf (a,) + j reach, the summed coefficient and u's weight
    # against that leaf; assigning instead of adding changes a total only
    # where that weight is nonzero
    def collisions(case):
        matrix, params, cap = case
        rows = matrix.scalar_rows()
        found = []
        for j in product(range(1, params.m + 1), repeat=cap - 1):
            nf = _normal_form_terms(j, params)
            for a in range(1, params.m + 1):
                for u, parts in leaf_fronts(a, nf, params).items():
                    if len(parts) > 1:
                        weight = 1
                        for letter, column in zip(u, (a,) + j):
                            weight *= rows[letter - 1][column - 1]
                        found.append((sum(parts), weight))
        return found

    assert any(total and weight for total, weight in collisions(MERGE_SUM))
    assert any(not total and weight for total, weight in collisions(MERGE_CANCEL))


def per_content(table, m):
    # the per-word table of the full sweep summed per content
    totals = {}
    for word, value in table.coeffs.items():
        content = tuple(word.count(a) for a in range(1, m + 1))
        totals[content] = totals.get(content, 0) + value
    return {content: Poly.constant(total) if not isinstance(total, Poly) else total
            for content, total in totals.items() if total}


def is_partition(content):
    return list(content) == sorted(content, reverse=True)


SWEEP_SHAPES = [(P33, 5), (AlgebraParams(4, 3), 4), (AlgebraParams(4, 2), 4), (AlgebraParams(3, 2), 6),
                # nearly every word admissible, hence lean
                (AlgebraParams(4, 4), 6),
                # cap < k: nothing is rewritten
                (AlgebraParams(4, 4), 3),
                # lean nodes of length cap - 1 with rewritten leaves
                (AlgebraParams(4, 3), 5)]


# k = 2: every normal form is one word, so each node of length cap - 1 is
# single-term, with rewritten leaves
@pytest.mark.parametrize("params,cap", SWEEP_SHAPES + [(AlgebraParams(4, 2), 6)])
def test_universal_table_is_the_full_sweep_of_the_generic_matrix(params, cap):
    # decoded, the universal table holds exactly the partition totals of the
    # per-word sweep of the symbolic matrix, which sweeps every word
    universal = _universal_sweep(params, cap)
    expected = per_content(first_factor(SymMatrix.symbolic(params.m), params, cap), params.m)
    assert {partition: universal.codec.decode(table) for partition, table in universal.totals.items()} \
        == {content: total for content, total in expected.items() if is_partition(content)}


@pytest.mark.parametrize("params,cap", SWEEP_SHAPES + [(AlgebraParams(4, 3), 8), (AlgebraParams(4, 4), 8),
                                                       (AlgebraParams(5, 3), 6), (AlgebraParams(4, 2), 7),
                                                       (AlgebraParams(5, 4), 7), (AlgebraParams(5, 5), 7)])
def test_universal_table_keeps_transposition_and_diagonal(params, cap):
    # two exact properties that need no oracle, so they reach deeper shapes
    # than the per-word sweep above (CI runs them deeper still)
    assert invariant_failure(_universal_sweep(params, cap), params, cap) is None


def test_universal_invariants_name_the_first_broken_partition():
    universal = _universal_sweep(P33, 4)
    place = universal.codec.places

    def failure(partition, table):
        totals = {**universal.totals, partition: table}
        return invariant_failure(universal._replace(totals=totals), P33, 4)

    assert failure((2, 1, 0), universal.totals[(2, 1, 0)]) is None
    # a partition with admissible words but no total
    totals = {p: table for p, table in universal.totals.items() if p != (1, 1, 0)}
    assert invariant_failure(universal._replace(totals=totals), P33, 4).startswith("partition (1, 1, 0): ")
    # a diagonal coefficient off by one
    diagonal = 2 * place[avar(1, 1)] + place[avar(2, 2)]
    table = {**universal.totals[(2, 1, 0)]}
    table[diagonal] += 1
    assert failure((2, 1, 0), table).startswith("partition (2, 1, 0): the coefficient of its diagonal")
    # a term whose transpose is missing
    table = {**universal.totals[(2, 1, 0)], place[avar(1, 1)] + place[avar(1, 2)] + place[avar(3, 1)]: 5}
    assert failure((2, 1, 0), table) == "partition (2, 1, 0): the total changes under a_pq <-> a_qp"
    # a content that is not a partition
    assert failure((0, 1, 0), {place[avar(2, 2)]: 1}).startswith("content (0, 1, 0): ")


def test_every_matrix_takes_the_universal_sweep(monkeypatch):
    # the content totals and verify sweep the generic matrix once, for any
    # entries; only the per-word table sweeps the matrix itself
    universal, full = [], []
    real_universal, real_walk = identity._universal_sweep, identity._word_table

    def recording_universal(params, cap):
        universal.append((params.m, params.k, cap))
        return real_universal(params, cap)

    def recording_walk(rows, params, cap):
        full.append((params.m, params.k, cap))
        return real_walk(rows, params, cap)

    monkeypatch.setattr(identity, "_universal_sweep", recording_universal)
    monkeypatch.setattr(identity, "_word_table", recording_walk)
    matrices = {
        "int": SymMatrix.from_rows([[2, 0, -1], [0, 3, 0], [1, 0, -2]]),
        "fraction": SymMatrix.from_rows([[Fraction(1, 2), 0, 2], [Fraction(-1, 3), 1, 0], [0, 1, 0]]),
        "ones": SymMatrix.ones(3),
        "identity": SymMatrix.identity(3),
        "random": SymMatrix.random(3, seed=2),
        "symbolic": SymMatrix.symbolic(3),
        "polynomial": SymMatrix.from_rows([[1, A12, 2], [Poly.variable(avar(2, 1)), 1, 0],
                                           [1, 2, A12 * A12]]),
    }
    for name, matrix in matrices.items():
        totals = first_factor_totals(matrix, P33, 4)
        assert verify_master(matrix, P33, 4).passed, name
        assert (universal, full) == ([(3, 3, 4)] * 2, []), name
        assert totals == per_content(first_factor(matrix, P33, 4), 3), name
        assert (universal, full) == ([(3, 3, 4)] * 2, [(3, 3, 4)]), name
        universal.clear()
        full.clear()


@pytest.mark.parametrize("matrix", [SymMatrix.ones(3), SymMatrix.symbolic(3)])
def test_specialise_forms_every_content_from_its_partition(matrix):
    # the universal table keeps partition contents only; every other
    # content, those whose hull fits in the cap among them, is formed from
    # its partition's total and equals the full sweep's total
    universal = _universal_sweep(P33, 5).totals
    assert universal and all(is_partition(content) for content in universal)
    totals = first_factor_totals(matrix, P33, 5)
    assert totals == per_content(first_factor(matrix, P33, 5), 3)
    fitting = {content for content in totals if not is_partition(content) and content_hull_size(content) <= 5}
    larger = {content for content in totals if content_hull_size(content) > 5}
    assert fitting and larger


@pytest.mark.parametrize("partition", [(0,), (2, 0), (1, 1), (3, 3, 1, 0), (2, 2, 2, 2), (5, 0, 0, 0, 0),
                                       (3, 2, 2, 1, 1, 0), (4, 3, 2, 1)])
def test_rearrangements_are_distinct_and_relabel_the_partition(partition):
    pairs = list(identity._rearrangements(partition))
    assert sorted(gamma for gamma, _ in pairs) == sorted(set(permutations(partition)))
    for gamma, s in pairs:
        assert sorted(s) == list(range(len(partition)))
        assert all(gamma[s[i]] == part for i, part in enumerate(partition))


def hull_size(word, m):
    size = top = 0
    for a in range(m, 0, -1):
        top = max(top, word.count(a))
        size += top
    return size


def content_hull_size(content):
    return hull_size([a for a, count in enumerate(content, 1) for _ in range(count)], len(content))


@pytest.mark.parametrize("m,cap,nodes,leaves", [
    (4, 8, 8_605, 16_748 - 8_605),
    (3, 10, 15_020, 29_338 - 15_020),
    (5, 7, 4_091, 8_012 - 4_091),
])
def test_pruned_sweep_builds_only_words_within_the_hull(m, cap, nodes, leaves):
    # the words j with hull size <= cap, counted by brute force; the last
    # level (len(j) = cap) is not built but summed from its parents.  The
    # walk does not depend on k, whether its nodes are lean (admissible j)
    # or general
    within = [0] * (cap + 1)
    for length in range(cap + 1):
        for j in product(range(1, m + 1), repeat=length):
            if hull_size(j, m) <= cap:
                within[length] += 1
    assert (sum(within[:cap]), within[cap]) == (nodes, leaves)
    for k in sorted({2, 3, m}):
        universal = _universal_sweep(AlgebraParams(m, k), cap)
        assert (universal.nodes, universal.leaves) == (nodes, leaves), k


@st.composite
def zero_pattern_cases(draw):
    # int, Fraction or polynomial entries on a drawn zero pattern
    family = draw(st.sampled_from(("int", "fraction", "polynomial")))
    m = draw(st.integers(2, 4))
    params = AlgebraParams(m, draw(st.integers(2, m)))
    cap = draw(st.integers(0, 3 if m == 4 else 4 if family == "polynomial" else 5))
    zeros = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))))
    entries = {"int": st.integers(-3, 3).filter(bool),
               "fraction": st.fractions(-2, 2, max_denominator=4).filter(bool),
               "polynomial": polynomial_entry(m)}[family]
    rows = [[0 if (i, j) in zeros else draw(entries) for j in range(m)] for i in range(m)]
    return SymMatrix.from_rows(rows), params, cap


@settings(max_examples=40, deadline=None)
@given(zero_pattern_cases())
@example((SymMatrix.from_rows([[0, 2, 0, 1], [0, 0, -1, 0], [3, 0, 0, 0], [0, 1, 0, 2]]), AlgebraParams(4, 3), 3))
@example((SymMatrix.from_rows([[Fraction(1, 2), 0, 0], [0, 0, Fraction(-3, 4)], [0, 1, 0]]), P32, 5))
@example((SymMatrix.from_rows([[0, A12 * A12], [Poly.variable(avar(2, 1)) + 2, 0]]), P22, 4))
def test_universal_table_specialised_at_matrices_with_zeros(case):
    # the universal table evaluated at A, content by content, against the
    # sums of the worklist oracle g_coefficient over each content's words
    matrix, params, cap = case
    expected = {}
    for word in admissible_up_to(params, cap):
        content = tuple(word.count(a) for a in range(1, params.m + 1))
        expected[content] = expected.get(content, Poly.zero()) + g_coefficient(matrix, word, params)
    assert first_factor_totals(matrix, params, cap) == {content: total for content, total in expected.items()
                                                        if total}


def test_cap_deeper_than_the_sweep_recursion_is_refused():
    # refused before any work: m >= 2 means more than 2**cap words anyway
    for cap in (1200, 100000):
        for route in (first_factor_totals, first_factor, verify_master):
            with pytest.raises(ValueError, match="deeper than the sweep can recurse"):
                route(SymMatrix.identity(2), P22, cap)


@pytest.mark.parametrize("route", [first_factor_totals, verify_master, first_factor, verify_corollary])
def test_size_mismatch_and_negative_cap_are_refused(route):
    with pytest.raises(ValueError, match="does not match"):
        route(SymMatrix.identity(3), P22, 2)
    with pytest.raises(ValueError, match="does not match"):
        route(SymMatrix.symbolic(2), P32, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        route(SymMatrix.identity(2), P22, -1)
    with pytest.raises(ValueError, match="must not involve the markers t_i"):
        route(SymMatrix.from_rows([[1, Poly.variable(tvar(2))], [0, 1]]), P22, 2)
