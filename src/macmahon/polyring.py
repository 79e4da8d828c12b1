"""Exact sparse polynomials in the matrix variables a_ij and the markers t_i.

Monomials are sorted tuples of (variable, exponent) pairs, where a variable
is the tuple ('a', i, j) or ('t', i); coefficients are exact ints or
`fractions.Fraction`s.  Nothing here is ever floating point.

Truncation and series arithmetic grade by total degree in the t variables
only; degrees in the a variables are never restricted.  A product of
truncated series drops pairs above the cap as it goes: the right factor is
bucketed by t-degree, and a left term of t-degree d meets only the buckets
of degree <= cap - d, so no term is formed only to be truncated.
`series_inverse` inverts any polynomial whose t-degree-0 component is
exactly 1.

The canonical term order used for printing and serialisation is graded
lexicographic on (t-degree, monomial).  Since "a" < "t", the t variables
of a sorted monomial are its tail, and its t-degree is summed there.

`PackedCodec` packs a monomial over a fixed variable list into one int,
one base-b digit per exponent, so that multiplying monomials is adding
ints (packed exponent vectors: M. Monagan and R. Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007).  A digit that reaches b carries into the next variable, so
the base must exceed every exponent of every product formed; the codec
cannot see the products, so its caller picks b from a bound on them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Mapping, Optional, Sequence, Union

VarKey = tuple
Monomial = tuple
Scalar = Union[int, Fraction]

_SCALARS = (int, Fraction)


def avar(i: int, j: int) -> VarKey:
    """Key of the matrix variable a_ij (1-based)."""
    if i < 1 or j < 1:
        raise ValueError("matrix variable indices are 1-based")
    return ("a", i, j)


def tvar(i: int) -> VarKey:
    """Key of the marker variable t_i (1-based)."""
    if i < 1:
        raise ValueError("marker variable index is 1-based")
    return ("t", i)


_VAR_NAMES: dict[VarKey, str] = {}


def var_name(var: VarKey) -> str:
    """Printed name of a variable key, e.g. 'a_1_2' or 't_3' (memoised)."""
    name = _VAR_NAMES.get(var)
    if name is None:
        name = _VAR_NAMES[var] = "_".join(str(part) for part in var)
    return name


def mono_mul(left: Monomial, right: Monomial) -> Monomial:
    if not left:
        return right
    if not right:
        return left
    counts = dict(left)
    for var, exp in right:
        counts[var] = counts.get(var, 0) + exp
    return tuple(sorted(counts.items()))


def mono_t_degree(mono: Monomial) -> int:
    # a monomial is sorted and "a" < "t", so its t variables are its tail
    degree = 0
    for var, exp in reversed(mono):
        if var[0] != "t":
            break
        degree += exp
    return degree


def word_t_monomial(word: Sequence[int]) -> Monomial:
    """The monomial t_{w_1} * ... * t_{w_l} attached to a word."""
    counts = Counter(word)
    return tuple(sorted((tvar(i), e) for i, e in counts.items()))


def _term_key(item: tuple) -> tuple:
    mono = item[0]
    return (mono_t_degree(mono), mono)


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_scalar(text: str) -> Scalar:
    """Parse an exact rational written as 'p' or 'p/q'; no decimal forms."""
    stripped = text.strip()
    if not _RATIONAL_RE.fullmatch(stripped):
        raise ValueError(f"{text!r} is not an exact rational of the form p or p/q")
    try:
        frac = Fraction(stripped)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    return int(frac) if frac.denominator == 1 else frac


def _normalise(value: Scalar) -> Scalar:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class Poly:
    """Immutable sparse polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        # zero terms dropped, integral Fractions made ints; an int, the usual
        # case, skips the (abstract base class) isinstance test of `_normalise`
        self.terms = {
            mono: coeff if type(coeff) is int else _normalise(coeff)
            for mono, coeff in terms.items() if coeff
        } if terms else {}

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # trusted constructor: terms already clean, adopted without copying
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw({(): 1})

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls({(): value})

    @classmethod
    def variable(cls, var: VarKey) -> "Poly":
        return cls._raw({((var, 1),): 1})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Scalar = 1) -> "Poly":
        return cls({mono: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, _SCALARS):
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly._raw({mono: -coeff for mono, coeff in self.terms.items()})

    def __add__(self, other) -> "Poly":
        # a Poly operand is tested first: `Fraction` in _SCALARS is an ABC,
        # whose isinstance check is several times slower
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = Poly.constant(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = acc.get(mono, 0) + coeff
            if total:
                acc[mono] = total
            else:
                acc.pop(mono, None)
        return Poly._raw(acc)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            if not other:
                return Poly.zero()
            return Poly._raw({mono: _normalise(coeff * other) for mono, coeff in self.terms.items()})
        acc: dict = {}
        for mono1, coeff1 in self.terms.items():
            for mono2, coeff2 in other.terms.items():
                mono = mono_mul(mono1, mono2)
                total = acc.get(mono, 0) + coeff1 * coeff2
                if total:
                    acc[mono] = _normalise(total)
                else:
                    acc.pop(mono, None)
        return Poly._raw(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = Poly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def t_components(self) -> dict[int, "Poly"]:
        """Split into homogeneous components by total t-degree."""
        parts: dict[int, dict] = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(mono_t_degree(mono), {})[mono] = coeff
        return {degree: Poly._raw(terms) for degree, terms in sorted(parts.items())}

    def t_component(self, degree: int) -> "Poly":
        return Poly._raw({m: c for m, c in self.terms.items() if mono_t_degree(m) == degree})

    def truncate_t(self, cap: int) -> "Poly":
        return Poly._raw({m: c for m, c in self.terms.items() if mono_t_degree(m) <= cap})

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=_term_key)

    def to_json_terms(self) -> list[dict]:
        return [
            {"coeff": str(coeff),
             "monomial": {var_name(var): exp for var, exp in mono}}
            for mono, coeff in self.sorted_terms()
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            negative = coeff < 0
            magnitude = -coeff if negative else coeff
            if not mono:
                body = str(magnitude)
            else:
                mono_text = "*".join(
                    var_name(var) + (f"^{exp}" if exp > 1 else "")
                    for var, exp in mono
                )
                body = mono_text if magnitude == 1 else f"{magnitude!s}*{mono_text}"
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def rename_vars(poly: Poly, names: Mapping[VarKey, VarKey]) -> Poly:
    """`poly` with each variable v replaced by names.get(v, v).

    The renaming must be one-to-one, so that no two monomials merge.
    """
    return Poly._raw({
        tuple(sorted((names.get(var, var), exp) for var, exp in mono)): coeff
        for mono, coeff in poly.terms.items()
    })


class PackedCodec:
    """Monomials over a fixed variable list, each packed into one int.

    The exponent of the i-th variable (in sorted order) is the i-th digit
    of the key in base `base`, so the product of two monomials is the sum
    of their keys, as long as no exponent of the product reaches `base`;
    a larger one would carry into the next variable's digit.  The caller
    chooses the base above every exponent its products can reach.
    """

    __slots__ = ("variables", "base", "places")

    def __init__(self, variables, base: int):
        # in base 1 `digits` would never shrink a key, and base 0 divides by 0
        if base < 2:
            raise ValueError(f"codec base {base} is below 2")
        self.variables = tuple(sorted(variables))
        self.base = base
        self.places = {var: base ** i for i, var in enumerate(self.variables)}

    def pack(self, mono: Monomial) -> int:
        key = 0
        for var, exp in mono:
            if exp >= self.base:
                raise ValueError(f"exponent {exp} of {var_name(var)} does not fit base {self.base}")
            key += exp * self.places[var]
        return key

    def digits(self, key: int) -> list[tuple[int, int]]:
        """The nonzero digits of `key` as [(index, exp)], in index order:
        the variable `variables[index]` has exponent `exp`."""
        if key < 0:
            raise ValueError("packed key is negative")
        digits = []
        index = 0
        while key:
            key, exp = divmod(key, self.base)
            if exp:
                digits.append((index, exp))
            index += 1
        return digits

    def unpack(self, key: int) -> Monomial:
        # the digits come out in variable order, so the monomial is sorted;
        # the last one is the leading digit
        digits = self.digits(key)
        if digits and digits[-1][0] >= len(self.variables):
            raise ValueError("packed key has more digits than variables")
        return tuple((self.variables[index], exp) for index, exp in digits)

    def decode(self, terms: Mapping[int, Scalar]) -> Poly:
        """The `Poly` of {packed monomial: coeff}."""
        return Poly({self.unpack(key): coeff for key, coeff in terms.items()})


def apply_transposition(poly: Poly, i: int) -> Poly:
    """Swap the markers t_i and t_{i+1} everywhere in `poly`."""
    if i < 1:
        raise ValueError("transposition index is 1-based")
    a, b = tvar(i), tvar(i + 1)
    return rename_vars(poly, {a: b, b: a})


def elementary_sym(r: int, m: int) -> Poly:
    """Elementary symmetric polynomial e_r(t_1, ..., t_m).  Zero when r > m."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r == 0:
        return Poly.one()
    if r > m:
        return Poly.zero()
    terms = {
        tuple((tvar(i), 1) for i in subset): 1
        for subset in combinations(range(1, m + 1), r)
    }
    return Poly._raw(terms)


def complete_sym(r: int, m: int) -> Poly:
    """Complete homogeneous symmetric polynomial h_r(t_1, ..., t_m)."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r == 0:
        return Poly.one()
    terms = {}
    for multiset in combinations_with_replacement(range(1, m + 1), r):
        counts = Counter(multiset)
        terms[tuple(sorted((tvar(i), e) for i, e in counts.items()))] = 1
    return Poly._raw(terms)


@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial known only up to t-degree `cap` (inclusive)."""

    poly: Poly
    cap: int

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValueError("cap must be nonnegative")
        object.__setattr__(self, "poly", self.poly.truncate_t(self.cap))

    def t_component(self, degree: int) -> Poly:
        return self.poly.t_component(degree)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return _truncated_product(self.poly, other.poly, min(self.cap, other.cap))
        if isinstance(other, Poly):
            return _truncated_product(self.poly, other, self.cap)
        return TruncatedSeries(self.poly * other, self.cap)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.poly} + O(t^{self.cap + 1})"


def _truncated_product(left: Poly, right: Poly, cap: int) -> TruncatedSeries:
    # the product up to t-degree cap: each left term of t-degree d meets only
    # the right terms of t-degree <= cap - d, so no pair above the cap is formed
    buckets: list[list] = [[] for _ in range(cap + 1)]
    for mono, coeff in right.terms.items():
        degree = mono_t_degree(mono)
        if degree <= cap:
            buckets[degree].append((mono, coeff))
    acc: dict = {}
    for mono1, coeff1 in left.terms.items():
        room = cap - mono_t_degree(mono1)
        if room < 0:
            continue
        for bucket in buckets[:room + 1]:
            for mono2, coeff2 in bucket:
                mono = mono_mul(mono1, mono2)
                total = acc.get(mono, 0) + coeff1 * coeff2
                if total:
                    acc[mono] = _normalise(total)
                else:
                    acc.pop(mono, None)
    return TruncatedSeries(Poly._raw(acc), cap)


def series_inverse(poly: Poly, cap: int) -> TruncatedSeries:
    """Multiplicative inverse of `poly` modulo t-degree > cap.

    Requires the t-degree-0 component to be exactly 1; graded recursion on
    the t-degree then determines the inverse uniquely.
    """
    components = poly.t_components()
    if components.get(0) != Poly.one():
        raise ValueError("series inverse needs constant term 1")
    inverse: dict[int, Poly] = {0: Poly.one()}
    for degree in range(1, cap + 1):
        acc = Poly.zero()
        for lower in range(1, degree + 1):
            part = components.get(lower)
            if part is not None:
                acc = acc + part * inverse[degree - lower]
        inverse[degree] = -acc
    total = Poly.zero()
    for part in inverse.values():
        total = total + part
    return TruncatedSeries(total, cap)
