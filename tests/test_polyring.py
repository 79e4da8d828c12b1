from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from macmahon.polyring import (
    PackedCodec,
    Poly,
    TruncatedSeries,
    apply_transposition,
    avar,
    complete_sym,
    elementary_sym,
    mono_mul,
    mono_t_degree,
    parse_scalar,
    series_inverse,
    tvar,
    word_t_monomial,
)

T1, T2, T3 = (Poly.variable(tvar(i)) for i in (1, 2, 3))


def univariate_coeffs(series: TruncatedSeries, cap: int) -> list:
    return [
        series.poly.terms.get(() if d == 0 else ((tvar(1), d),), 0)
        for d in range(cap + 1)
    ]


def test_constructors_and_cleanup():
    assert Poly({(): 0}) == Poly.zero()
    assert Poly({(): Fraction(0)}) == Poly.zero()
    assert Poly.constant(Fraction(4, 2)).terms == {(): 2}
    # == also holds for Fraction(2): the stored value must be an int
    assert type(Poly.constant(Fraction(4, 2)).terms[()]) is int
    assert not Poly.zero()
    assert Poly.one() == 1
    assert Poly.constant(0) == 0


def test_arithmetic_basics():
    p = (T1 + T2) * (T1 - T2)
    assert p == T1 * T1 - T2 * T2
    assert (T1 + 1) - 1 == T1
    assert 2 * T1 - T1 - T1 == Poly.zero()
    assert (T1 + T2) ** 2 == T1 ** 2 + 2 * T1 * T2 + T2 ** 2
    assert T1 * Fraction(1, 2) * 2 == T1


def test_scalar_parsing():
    assert parse_scalar("3") == 3
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    assert parse_scalar(" 4/2 ") == 2
    with pytest.raises(ValueError):
        parse_scalar("1.5")
    for text in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


def test_t_components_and_truncation():
    a = Poly.variable(avar(1, 2))
    p = 1 + a * T1 + T1 * T2 + a * a * T1 ** 3
    comps = p.t_components()
    assert sorted(comps) == [0, 1, 2, 3]
    assert comps[1] == a * T1
    assert p.truncate_t(2) == 1 + a * T1 + T1 * T2
    assert sum(comps.values(), Poly.zero()) == p
    # a-degrees never count toward truncation
    assert (a ** 5).truncate_t(0) == a ** 5


def test_word_t_monomial():
    assert word_t_monomial(()) == ()
    assert word_t_monomial((2, 1, 2)) == ((tvar(1), 1), (tvar(2), 2))
    assert mono_t_degree(word_t_monomial((2, 1, 2))) == 3


def test_transposition():
    p = T1 ** 2 * T2 + T3
    q = apply_transposition(p, 1)
    assert q == T2 ** 2 * T1 + T3
    assert apply_transposition(q, 1) == p
    for r in range(4):
        assert apply_transposition(elementary_sym(r, 3), 2) == elementary_sym(r, 3)
        assert apply_transposition(complete_sym(r, 3), 1) == complete_sym(r, 3)


def test_symmetric_builders():
    assert elementary_sym(0, 3) == 1
    assert elementary_sym(4, 3) == Poly.zero()
    assert elementary_sym(2, 2) == T1 * T2
    for m in range(1, 5):
        for r in range(m + 1):
            assert len(elementary_sym(r, m).terms) == comb(m, r)
            assert len(complete_sym(r, m).terms) == comb(m + r - 1, r)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_e_h_alternating_convolution(m):
    # sum_{r} (-1)^r e_r h_{n-r} = 0 for n >= 1, the classical duality
    for n in range(1, 6):
        total = Poly.zero()
        for r in range(n + 1):
            total = total + (-1) ** r * elementary_sym(r, m) * complete_sym(n - r, m)
        assert total == Poly.zero()


def test_series_inverse_univariate_frozen():
    # 1/(1 - 3t + t^3): counts of admissible words for m = k = 3
    p = 1 - 3 * T1 + T1 ** 3
    inv = series_inverse(p, 8)
    assert univariate_coeffs(inv, 8) == [1, 3, 9, 26, 75, 216, 622, 1791, 5157]


def test_series_inverse_two_variables():
    p = 1 - (T1 + T2) + T1 * T2
    inv = series_inverse(p, 4)
    for d in range(5):
        assert inv.poly.t_component(d) == complete_sym(d, 2)


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        series_inverse(2 + T1, 3)
    with pytest.raises(ValueError):
        series_inverse(T1, 3)
    # a nonconstant t-degree-0 part is not invertible here either
    with pytest.raises(ValueError):
        series_inverse(1 + Poly.variable(avar(1, 1)), 3)


def test_truncated_series_operations():
    s = TruncatedSeries(1 + T1 + T1 ** 2 + T1 ** 5, 3)
    assert s.poly == 1 + T1 + T1 ** 2
    assert (s * T1).poly == T1 + T1 ** 2 + T1 ** 3
    t = TruncatedSeries(1 - T1, 2)
    assert (s * t).cap == 2
    assert (s * t).poly == 1
    assert s.t_component(2) == T1 ** 2


def test_str_rendering():
    assert str(Poly.zero()) == "0"
    assert str(1 - T1 - T2 + T1 * T2) == "1 - t_1 - t_2 + t_1*t_2"
    a = Poly.variable(avar(1, 2))
    assert str(-2 * a * T1 ** 2) == "-2*a_1_2*t_1^2"
    assert str(Poly.constant(Fraction(1, 2)) * T1) == "1/2*t_1"


def test_json_terms_are_canonical():
    p = T2 + T1 + T1 * T2
    assert p.to_json_terms() == [
        {"coeff": "1", "monomial": {"t_1": 1}},
        {"coeff": "1", "monomial": {"t_2": 1}},
        {"coeff": "1", "monomial": {"t_1": 1, "t_2": 1}},
    ]


_vars = [tvar(1), tvar(2), avar(1, 1)]
_monomials = st.lists(
    st.tuples(st.sampled_from(_vars), st.integers(1, 2)), max_size=2
).map(lambda pairs: tuple(sorted(dict(pairs).items())))
_polys = st.lists(
    st.tuples(_monomials, st.integers(-3, 3)), max_size=4
).map(lambda terms: Poly({m: c for m, c in reversed(terms)}))


@given(_polys, _polys, _polys)
@settings(max_examples=80)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.one() == p
    assert p - p == Poly.zero()


@given(_polys)
@settings(max_examples=50)
def test_series_inverse_is_inverse(p):
    # force an invertible constant term, keep the rest of p arbitrary
    q = 1 + p - p.t_component(0)
    inv = series_inverse(q, 4)
    product = inv * q
    assert product.poly == 1


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_frac_polys = st.lists(
    st.tuples(_monomials, _fractions), max_size=6
).map(lambda terms: Poly({m: c for m, c in reversed(terms)}))


@given(_frac_polys, _frac_polys, st.integers(0, 4), st.integers(0, 4), _fractions)
@settings(max_examples=80)
def test_truncated_product_matches_full_product(p, q, cap_p, cap_q, scalar):
    # the product that drops pairs above the cap agrees with multiplying in
    # full and truncating afterwards
    left, right = TruncatedSeries(p, cap_p), TruncatedSeries(q, cap_q)
    assert left * right == TruncatedSeries(left.poly * right.poly, min(cap_p, cap_q))
    assert left * q == TruncatedSeries(left.poly * q, cap_p)
    assert q * left == TruncatedSeries(left.poly * q, cap_p)
    assert left * scalar == TruncatedSeries(left.poly * scalar, cap_p)
    assert scalar * left == left * scalar


_CODEC_VARS = [avar(1, 1), avar(1, 2), avar(2, 1), avar(2, 2), tvar(1), tvar(2)]


def codec_monomials(top):
    # monomials over the codec's variables with every exponent <= top
    return st.dictionaries(st.sampled_from(_CODEC_VARS), st.integers(1, top)).map(
        lambda exps: tuple(sorted(exps.items())))


@given(codec_monomials(6), codec_monomials(3), codec_monomials(3))
@settings(max_examples=80)
def test_packed_codec_round_trip_and_products(mono, left, right):
    codec = PackedCodec(reversed(_CODEC_VARS), 7)
    assert codec.unpack(codec.pack(mono)) == mono
    assert codec.unpack(0) == () == codec.unpack(codec.pack(()))
    # exponents of the product stay below the base, so no digit carries
    assert codec.pack(left) + codec.pack(right) == codec.pack(mono_mul(left, right))
    terms = {codec.pack(left): Fraction(3, 2)}
    terms[codec.pack(right)] = terms.get(codec.pack(right), 0) + Fraction(4, 2)
    expected = Poly.monomial(left, Fraction(3, 2)) + Poly.monomial(right, 2)
    assert codec.decode(terms) == expected


@given(codec_monomials(6))
@settings(max_examples=60)
def test_packed_codec_digits_round_trip(mono):
    # the nonzero digits, in index order, name the variables and exponents
    codec = PackedCodec(reversed(_CODEC_VARS), 7)
    key = codec.pack(mono)
    digits = codec.digits(key)
    assert tuple((codec.variables[index], exp) for index, exp in digits) == mono
    assert sum(exp * codec.base ** index for index, exp in digits) == key


def test_packed_codec_digits_skip_zero_digits():
    codec = PackedCodec([tvar(1), avar(1, 1)], 3)
    assert codec.digits(0) == []
    assert codec.digits(2 + 1 * 3 ** 2) == [(0, 2), (2, 1)]
    with pytest.raises(ValueError, match="negative"):
        codec.digits(-1)


def test_packed_codec_bounds():
    codec = PackedCodec([tvar(1), avar(1, 1)], 3)
    assert codec.variables == (avar(1, 1), tvar(1))
    assert codec.pack(((avar(1, 1), 2), (tvar(1), 1))) == 2 + 3
    with pytest.raises(ValueError, match="does not fit"):
        codec.pack(((avar(1, 1), 3),))
    # a digit carried past the last variable is not a monomial of the codec
    with pytest.raises(ValueError, match="more digits"):
        codec.unpack(3 ** 2)


@pytest.mark.parametrize("base", [0, 1])
def test_packed_codec_refuses_a_base_below_2(base):
    # base 1 used to be accepted, and then digits(5) looped forever, since
    # divmod(key, 1) never shrinks the key; base 0 divided by zero
    with pytest.raises(ValueError, match=f"codec base {base} is below 2"):
        PackedCodec([tvar(1)], base)
    assert PackedCodec([tvar(1)], 2).digits(5) == [(0, 1), (2, 1)]
