import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from macmahon.charpoly import (
    MatrixFormatError,
    PartialPermutation,
    SymMatrix,
    alpha,
    char_coeffs,
    determinant,
    enumerate_partial_perms,
    matrix_from_json_obj,
    scale_rows_by_t,
    second_factor,
)
from macmahon.polyring import Poly, avar, elementary_sym, tvar
from macmahon.words import AlgebraParams

A11, A12, A21, A22 = (Poly.variable(avar(i, j)) for i in (1, 2) for j in (1, 2))
T1, T2 = Poly.variable(tvar(1)), Poly.variable(tvar(2))


def partial_perm_expansion(matrix: SymMatrix, r: int) -> Poly:
    # the minor sums written out over partial permutations; the global
    # (-1)**r is essential (see test_sign_correction_counterexample)
    total = Poly.zero()
    for pp in enumerate_partial_perms(matrix.m, r):
        total = total + (-1) ** pp.inv * pp.a_weight(matrix)
    return (-1) ** r * total


def identity_minus(matrix: SymMatrix) -> SymMatrix:
    rows = []
    for i in range(matrix.m):
        rows.append(tuple(
            (Poly.one() if i == j else Poly.zero()) - matrix.entries[i][j]
            for j in range(matrix.m)
        ))
    return SymMatrix(matrix.m, tuple(rows))


def test_char_coeffs_2x2_symbolic():
    coeffs = char_coeffs(scale_rows_by_t(SymMatrix.symbolic(2)))
    assert coeffs[0] == Poly.one()
    assert coeffs[1] == -(A11 * T1 + A22 * T2)
    assert coeffs[2] == T1 * T2 * (A11 * A22 - A12 * A21)


@pytest.mark.parametrize("m", [2, 3, 6])
def test_char_coeffs_match_partial_perm_expansion(m):
    # m = 6 has 1,957 terms, each a product of distinct variables
    matrix = scale_rows_by_t(SymMatrix.symbolic(m))
    coeffs = char_coeffs(matrix)
    for r in range(m + 1):
        assert coeffs[r] == partial_perm_expansion(matrix, r)


def _expansion_cases():
    t_scaled = scale_rows_by_t(SymMatrix.from_rows(
        [["0", "1/2", "-3"], ["2", "0", "0"], ["-2/3", "5", "1"]]))
    multi_term = SymMatrix.from_rows(
        [[A11 + Fraction(1, 2), A12 - T2], [A21 * T1 + 3, A22 + A11]])
    return {
        "t-scaled fractions with zeros": t_scaled,
        "multi-term entries": multi_term,
        "multi-term t-scaled": scale_rows_by_t(multi_term),
        "symbolic 4x4": scale_rows_by_t(SymMatrix.symbolic(4)),
    }


@pytest.mark.parametrize("name", sorted(_expansion_cases()))
def test_char_coeffs_match_expansion_beyond_symbolic(name):
    matrix = _expansion_cases()[name]
    coeffs = char_coeffs(matrix)
    assert len(coeffs) == matrix.m + 1
    for r in range(matrix.m + 1):
        assert coeffs[r] == partial_perm_expansion(matrix, r)
    assert determinant(matrix) == (-1) ** matrix.m * partial_perm_expansion(matrix, matrix.m)


_MONOMIALS = (Poly.one(), A11, A12 * T2, T1 * T1, A21 * A22 * T1)
_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=4),
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(_MONOMIALS)),
             min_size=2, max_size=3).map(lambda pairs: sum(
                 (c * mono for c, mono in pairs), Poly.zero())),
)


@st.composite
def _oracle_matrices(draw):
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m))
    if draw(st.booleans()):
        rows = [[0 if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
    matrix = SymMatrix.from_rows(rows)
    return scale_rows_by_t(matrix) if draw(st.booleans()) else matrix


@settings(max_examples=60, deadline=None)
@given(_oracle_matrices())
@example(SymMatrix.from_rows([[1, A11], [A11 * A11, 2]]))
@example(SymMatrix.from_rows([[A11, 0, A12], [3, A11 * T1, A11 * A11], [A21, A11, 1]]))
def test_walk_matches_partial_perm_oracle(matrix):
    # the zero-skipping walk against the Poly-product oracle, which shares
    # none of its code; in the examples a_11 occurs in entries of several
    # rows, squared in one, so some leaves must add the exponents of a
    # repeated variable
    coeffs = char_coeffs(matrix)
    assert len(coeffs) == matrix.m + 1
    for r in range(matrix.m + 1):
        assert coeffs[r] == partial_perm_expansion(matrix, r)
    assert determinant(matrix) == (-1) ** matrix.m * partial_perm_expansion(matrix, matrix.m)


@pytest.mark.parametrize("scaled", [False, True])
def test_char_coeffs_all_ones_cancel(scaled):
    # a rank-one matrix has no nonzero minor above size 1
    matrix = SymMatrix.ones(4)
    if scaled:
        matrix = scale_rows_by_t(matrix)
    coeffs = char_coeffs(matrix)
    for r in range(5):
        assert coeffs[r] == partial_perm_expansion(matrix, r)
    assert all(c.terms == {} for c in coeffs[2:])
    assert all(coeff != 0 for c in coeffs for coeff in c.terms.values())
    assert determinant(matrix).terms == {}


@pytest.mark.parametrize("m", [2, 3])
def test_char_coeffs_sum_to_det_of_identity_minus(m):
    # evaluating the characteristic polynomial at lambda = 1
    matrix = scale_rows_by_t(SymMatrix.symbolic(m))
    total = Poly.zero()
    for c in char_coeffs(matrix):
        total = total + c
    assert total == determinant(identity_minus(matrix))


def test_sign_correction_counterexample():
    # for A = I (m = 2) the signed expansion gives det(I - A) = 0 at
    # t = 1; without the (-1)**r it would give 4 instead
    matrix = SymMatrix.identity(2)
    with_sign = Poly.zero()
    without_sign = Poly.zero()
    for r in range(3):
        term = Poly.zero()
        for pp in enumerate_partial_perms(2, r):
            term = term + (-1) ** pp.inv * pp.a_weight(matrix)
        with_sign = with_sign + (-1) ** r * term
        without_sign = without_sign + term
    assert with_sign == 0
    assert without_sign == 4


def test_char_coeffs_identity_and_diagonal():
    # TA for A = I has c_r = (-1)^r e_r(t_1 .. t_m); m = 12 finishes only
    # if the expansion skips zero entries (12! permutations otherwise)
    for m in (2, 3, 4, 12):
        coeffs = char_coeffs(scale_rows_by_t(SymMatrix.identity(m)))
        for r in range(m + 1):
            assert coeffs[r] == (-1) ** r * elementary_sym(r, m)
    # diagonal entries scale the markers
    coeffs = char_coeffs(scale_rows_by_t(SymMatrix.from_rows([[2, 0], [0, 3]])))
    assert coeffs[1] == -(2 * T1 + 3 * T2)
    assert coeffs[2] == 6 * T1 * T2


def test_char_coeffs_strictly_upper_triangular():
    # TA is nilpotent, so det(I - lambda*TA) = 1.  No row below row c can
    # fill column c, so m = 16 finishes only if the walk cuts a partial
    # assignment as soon as it leaves such a column free (without the cut
    # it took 1.1 s at m = 12, about 5x more per unit of m)
    m = 16
    upper = SymMatrix.from_rows([[1 if j > i else 0 for j in range(m)] for i in range(m)])
    assert char_coeffs(scale_rows_by_t(upper)) == [1] + [0] * m


def test_partial_perm_counts_and_validation():
    for m in range(1, 6):
        for r in range(m + 1):
            pps = list(enumerate_partial_perms(m, r))
            assert len(pps) == comb(m, r) * factorial(r)
            assert len(set(pps)) == len(pps)
    assert list(enumerate_partial_perms(3, 0)) == [PartialPermutation.make((), ())]
    assert [pp.images for pp in enumerate_partial_perms(2, 2)] == [(1, 2), (2, 1)]
    with pytest.raises(ValueError):
        PartialPermutation.make((1, 3), (1, 2))
    with pytest.raises(ValueError):
        enumerate_partial_perms(2, 3).__next__()


def test_alpha_parity():
    # alpha(r) = k * floor(r/k), so it is even iff floor(r/k) is even
    for k in range(2, 7):
        for r in range(13):
            assert alpha(r, k) == r - (r % k) == k * (r // k)
            assert (alpha(r, k) % 2 == 0) == ((r // k) % 2 == 0 or k % 2 == 0)
    assert [alpha(r, 3) for r in range(8)] == [0, 0, 0, 3, 3, 3, 6, 6]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_second_factor_k2_is_det(m):
    params = AlgebraParams(m, 2)
    matrix = SymMatrix.symbolic(m)
    assert second_factor(matrix, params) == determinant(identity_minus(scale_rows_by_t(matrix)))


def test_second_factor_identity_matrix():
    e = elementary_sym
    assert second_factor(SymMatrix.identity(3), AlgebraParams(3, 3)) == \
        Poly.one() - e(1, 3) + e(3, 3)
    assert second_factor(SymMatrix.identity(4), AlgebraParams(4, 3)) == \
        Poly.one() - e(1, 4) + e(3, 4) - e(4, 4)
    assert second_factor(SymMatrix.identity(4), AlgebraParams(4, 4)) == \
        Poly.one() - e(1, 4) + e(4, 4)


def test_second_factor_size_mismatch():
    with pytest.raises(ValueError):
        second_factor(SymMatrix.identity(3), AlgebraParams(2, 2))
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        second_factor(SymMatrix.identity(2), AlgebraParams(2, 2), -1)


def random_with_zeros(m, seed, zero):
    # SymMatrix.random(m, seed) with the entries (i, j) where zero(i, j) set to 0
    rows = SymMatrix.random(m, seed=seed).scalar_rows()
    return SymMatrix.from_rows([[0 if zero(i, j) else value for j, value in enumerate(row)]
                                for i, row in enumerate(rows)])


@pytest.mark.parametrize("matrix", [
    SymMatrix.random(4, seed=3), SymMatrix.random(5, seed=8), SymMatrix.symbolic(3), SymMatrix.symbolic(4),
    random_with_zeros(6, 5, lambda i, j: (3 * i + 5 * j) % 4 == 0),
    # triangular: no column can be filled from a row below it
    random_with_zeros(7, 6, lambda i, j: i > j),
    random_with_zeros(8, 7, lambda i, j: (i * j + i) % 3 == 1),
    # a zero column and a zero row
    random_with_zeros(8, 9, lambda i, j: j == 2 or i == 5),
], ids=["random4", "random5", "symbolic3", "symbolic4", "zeros6", "triangular7", "zeros8", "zero-lines8"])
@pytest.mark.parametrize("k", [2, 3])
def test_bounded_second_factor_is_the_full_one_truncated(matrix, k):
    # the bound stops the walk at c_cap, and below m the walk also stops
    # once the entries it must still take pass the bound, so it must drop
    # exactly the terms of t-degree > cap and no other
    params = AlgebraParams(matrix.m, k)
    full = second_factor(matrix, params)
    for cap in range(matrix.m + 2):
        assert second_factor(matrix, params, cap) == full.truncate_t(cap)
    scaled = scale_rows_by_t(matrix)
    coeffs = char_coeffs(scaled)
    for bound in range(matrix.m + 1):
        assert char_coeffs(scaled, bound) == coeffs[:bound + 1]
    # a bound above m gives zeros past c_m
    assert char_coeffs(scaled, matrix.m + 2) == coeffs + [Poly.zero()] * 2


def test_negative_bound_is_refused():
    # it used to raise IndexError from the empty list of sums
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        char_coeffs(SymMatrix.random(3, seed=1), -1)


def test_random_matrix_reproducible():
    a = SymMatrix.random(3, seed=7)
    b = SymMatrix.random(3, seed=7)
    assert a == b
    # frozen draw: the SplitMix64 stream must never change
    assert a.scalar_rows() == [[-1, 3, -3], [1, 1, -2], [-2, 0, -2]]
    assert SymMatrix.random(2, seed=2024).scalar_rows() == [[2, -1], [0, 3]]
    assert SymMatrix.random(3, seed=8) != a
    flat = [v for row in SymMatrix.random(5, seed=123).scalar_rows() for v in row]
    assert all(-3 <= v <= 3 for v in flat)


@pytest.mark.parametrize("seed", [2 ** 64, -1, 2 ** 64 + 5, True, 1.5])
def test_random_matrix_refuses_seeds_outside_64_bits(seed):
    # a seed masked to 64 bits would give 2**64 the matrix of seed 0, -1
    # that of 2**64 - 1 and True that of 1.  Both ends of the range stay
    # valid and distinct
    with pytest.raises(ValueError, match=re.escape(f"seed {seed!r} is not an integer in 0..2**64 - 1")):
        SymMatrix.random(3, seed=seed)
    assert SymMatrix.random(3, seed=0) != SymMatrix.random(3, seed=2 ** 64 - 1)


def test_random_matrix_range_bounds():
    # an empty range must fail at once instead of rejecting draws forever
    with pytest.raises(ValueError):
        SymMatrix.random(2, seed=1, low=3, high=-3)
    assert SymMatrix.random(2, seed=1, low=4, high=4).scalar_rows() == [[4, 4], [4, 4]]


def test_matrix_json_numeric():
    obj = {"m": 2, "mode": "numeric", "entries": [["1/2", "0"], [3, "-2/3"]]}
    matrix = matrix_from_json_obj(obj)
    assert matrix.scalar_rows() == [[Fraction(1, 2), 0], [3, Fraction(-2, 3)]]
    assert matrix_from_json_obj({"m": 2, "mode": "symbolic"}) == SymMatrix.symbolic(2)


def test_matrix_json_errors_name_the_entry():
    with pytest.raises(MatrixFormatError):
        matrix_from_json_obj([1, 2])
    with pytest.raises(MatrixFormatError):
        matrix_from_json_obj({"mode": "numeric"})
    with pytest.raises(MatrixFormatError):
        matrix_from_json_obj({"m": 2, "mode": "other"})
    with pytest.raises(MatrixFormatError):
        matrix_from_json_obj({"m": 2, "entries": [["1"]]})
    with pytest.raises(MatrixFormatError, match=r"\(2,1\)"):
        matrix_from_json_obj({"m": 2, "entries": [["1", "2"], [1.5, "4"]]})
    with pytest.raises(MatrixFormatError, match=r"\(1,2\)"):
        matrix_from_json_obj({"m": 2, "entries": [["1", "2.5"], ["3", "4"]]})
    with pytest.raises(MatrixFormatError, match=r"\(1,1\)"):
        matrix_from_json_obj({"m": 1, "entries": [["1/0"]]})


def test_matrix_json_rejects_bool_size():
    # bool is an int subclass; True must not pass for the size 1
    for flag in (True, False):
        with pytest.raises(MatrixFormatError, match="not a positive integer"):
            matrix_from_json_obj({"m": flag, "entries": [["1"]]})


def test_from_rows_rejects_bool_entries():
    # bool is an int subclass; True must not be stored as a coefficient
    for flag in (True, False):
        with pytest.raises(MatrixFormatError, match=r"\(1,1\)"):
            SymMatrix.from_rows([[flag, 0], [0, 1]])


def test_scale_rows_by_t():
    scaled = scale_rows_by_t(SymMatrix.symbolic(2))
    assert scaled.entry(1, 2) == T1 * A12
    assert scaled.entry(2, 1) == T2 * A21
