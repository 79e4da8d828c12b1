"""Matrices over the polynomial ring and the second factor of the identity.

`char_coeffs` returns the coefficients c_0, ..., c_m of the characteristic
polynomial det(lambda*I - M) = sum_r c_r * lambda**(m-r); c_r is also the
lambda**r coefficient of det(I - lambda*M).  One walk reads all of them
off that determinant's permutation expansion, row by row, with the used
columns in a bitmask.  Row i takes the 1 of I at its own column, or
-lambda * M[i, c] at any free column c with a nonzero entry, so zero
entries prune whole subtrees.  So does a free column that no remaining
row can fill, because its own row and all its nonzero entries are already
passed: the walk cuts that subtree before the next row.  Each earlier
row sent to a column above c adds one inversion, and the minus sign of
-lambda folds into the same parity.  Given a bound, a path that has taken
that many lambda-factors takes only the 1s of I from there on.  Each
choice of one term per factor adds one monomial to c_r, r the number of
lambda-factors: the path carries the ranks of the chosen terms'
(variable, exponent) pairs, ranked once per call in pair order, as one
concatenated tuple of ints, which the leaf sorts once and maps back to
pairs.  Exponents are added only when a variable
occurs in the terms of two rows; in TA of a numeric or the symbolic
matrix none does.
`enumerate_partial_perms` with `PartialPermutation.a_weight` recomputes

    c_r = (-1)**r * sum over partial permutations w with support size r
          of sgn(w) * product of M[j, w(j)]

by `Poly` multiplication and shares no code with the walk.  Note the
global (-1)**r: dropping it already fails for the 2x2 identity matrix,
where det(I - A) must vanish.

The second factor of the master identity keeps only the c_r(TA) with
r = 0 or 1 mod k, weighted by (-1)**alpha(r), alpha(r) = r - (r mod k).
For k = 2 every alpha is even and the sum telescopes to det(I - TA).
`verify` reads it only up to t-degree cap, so it asks `char_coeffs` for
c_r with r <= cap alone: on the identity matrix the full walk has 2**m
leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence, Union

from .polyring import Poly, Scalar, avar, parse_scalar, tvar
from .words import AlgebraParams, inversions

_MASK64 = (1 << 64) - 1


class MatrixFormatError(ValueError):
    """Raised when a matrix description is malformed."""


@dataclass(frozen=True)
class SymMatrix:
    """An m x m matrix with entries in the polynomial ring."""

    m: int
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise MatrixFormatError("matrix size must be positive")
        if len(self.entries) != self.m or any(len(row) != self.m for row in self.entries):
            raise MatrixFormatError(f"entries must form an {self.m}x{self.m} grid")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Union[Poly, Scalar, str]]]) -> "SymMatrix":
        m = len(rows)
        grid = []
        for i, row in enumerate(rows, start=1):
            new_row = []
            for j, value in enumerate(row, start=1):
                try:
                    new_row.append(_as_poly(value))
                except (ValueError, TypeError):
                    raise MatrixFormatError(
                        f"entry ({i},{j}): {value!r} is not an exact rational"
                    ) from None
            grid.append(tuple(new_row))
        return cls(m, tuple(grid))

    @classmethod
    def identity(cls, m: int) -> "SymMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(m)] for i in range(m)])

    @classmethod
    def ones(cls, m: int) -> "SymMatrix":
        return cls.from_rows([[1] * m for _ in range(m)])

    @classmethod
    def symbolic(cls, m: int) -> "SymMatrix":
        return cls(m, tuple(
            tuple(Poly.variable(avar(i, j)) for j in range(1, m + 1))
            for i in range(1, m + 1)
        ))

    @classmethod
    def random(cls, m: int, seed: int, low: int = -3, high: int = 3) -> "SymMatrix":
        """Matrix with entries uniform on {low, ..., high}, from a SplitMix64 stream.

        The generator is fixed so identical seeds give identical matrices on
        any platform; out-of-range draws are rejected to keep the
        distribution exactly uniform.  The seed is a 64-bit integer, 0 to
        2**64 - 1; any other raises ValueError.
        """
        if type(seed) is not int or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed {seed!r} is not an integer in 0..2**64 - 1")
        if low > high:
            raise ValueError(f"empty entry range: low={low} > high={high}")
        span = high - low + 1
        bits = max(span - 1, 1).bit_length()
        stream = _splitmix64(seed)
        values = []
        while len(values) < m * m:
            word = next(stream)
            # each 64-bit word yields several independent `bits`-wide draws
            for shift in range(0, 64 - bits + 1, bits):
                draw = (word >> shift) & ((1 << bits) - 1)
                if draw < span:
                    values.append(low + draw)
                    if len(values) == m * m:
                        break
        rows = [values[i * m:(i + 1) * m] for i in range(m)]
        return cls.from_rows(rows)

    def entry(self, i: int, j: int) -> Poly:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def is_numeric(self) -> bool:
        return all(e.is_constant() for row in self.entries for e in row)

    def scalar_rows(self) -> list[list[Scalar]]:
        if not self.is_numeric():
            raise ValueError("matrix is not numeric")
        return [[e.constant_value() for e in row] for row in self.entries]


def _as_poly(value: Union[Poly, Scalar, str]) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, str):
        return Poly.constant(parse_scalar(value))
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Poly.constant(value)
    raise ValueError(f"unsupported entry {value!r}")


def _splitmix64(seed: int) -> Iterator[int]:
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def matrix_from_json_obj(obj) -> SymMatrix:
    """Build a matrix from the JSON form {"m": ..., "mode": ..., "entries": ...}.

    Numeric entries are exact rational strings like "3" or "-1/2" (plain
    ints are accepted too).  Mode "symbolic" ignores entries and produces
    the generic matrix of a_ij variables.
    """
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix description must be a JSON object")
    try:
        m = obj["m"]
    except KeyError:
        raise MatrixFormatError("matrix description lacks 'm'") from None
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise MatrixFormatError(f"matrix size {m!r} is not a positive integer")
    mode = obj.get("mode", "numeric")
    if mode == "symbolic":
        return SymMatrix.symbolic(m)
    if mode != "numeric":
        raise MatrixFormatError(f"unknown matrix mode {mode!r}")
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != m or any(
        not isinstance(row, list) or len(row) != m for row in entries
    ):
        raise MatrixFormatError(f"'entries' must be an {m}x{m} array")
    for i, row in enumerate(entries, start=1):
        for j, value in enumerate(row, start=1):
            if not isinstance(value, (str, int)) or isinstance(value, bool):
                raise MatrixFormatError(
                    f"entry ({i},{j}): {value!r} is not an exact rational string"
                )
    return SymMatrix.from_rows(entries)


def scale_rows_by_t(matrix: SymMatrix) -> SymMatrix:
    """Multiply row i by the marker t_i: the matrix TA of the identity."""
    rows = []
    for i, row in enumerate(matrix.entries, start=1):
        t_i = Poly.variable(tvar(i))
        rows.append(tuple(t_i * entry for entry in row))
    return SymMatrix(matrix.m, tuple(rows))


def char_coeffs(matrix: SymMatrix, bound: Optional[int] = None) -> list[Poly]:
    """Coefficients [c_0, ..., c_bound] of det(lambda*I - M) in falling
    powers; `bound` defaults to m, and a bound above m gives zeros past c_m.
    The walk takes at most `bound` entries of M, so its cost falls with the
    bound."""
    m = matrix.m
    bound = m if bound is None else bound
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # every (variable, exponent) pair of the entries is ranked once, in pair
    # order (variable-key order: t_2 before t_10), so the walk carries tuples
    # of int ranks and a leaf sorts ints instead of nested tuples
    pairs = sorted({pair for row in matrix.entries for e in row for mono in e.terms for pair in mono})
    rank = {pair: index for index, pair in enumerate(pairs)}.__getitem__
    pair_of = pairs.__getitem__
    offers = [[(c, tuple((tuple(map(rank, mono)), value) for mono, value in e.terms.items()))
               for c, e in enumerate(row) if e.terms]
              for row in matrix.entries]
    # column c can be filled up to row last[c]: its own row, or its last
    # nonzero entry; need[i] holds the columns that no row from i on can fill
    last = list(range(m))
    for i, row in enumerate(offers):
        for c, _ in row:
            last[c] = max(last[c], i)
    need = [sum(1 << c for c in range(m) if last[c] < i) for i in range(m)]
    # a leaf multiplies one term per chosen row, so its concatenated pairs
    # repeat a variable only if some variable occurs in the terms of two rows
    row_vars = [{var for e in row for mono in e.terms for var, _ in mono} for row in matrix.entries]
    repeats = sum(map(len, row_vars)) > len(set().union(*row_vars))
    sums: list[dict] = [{} for _ in range(bound + 1)]
    # below m, a walk stops once the entries it must still take pass the
    # bound: the row of each used column at or above i cannot take its
    # lambda, so it takes an entry, and each free column below i needs an
    # entry from a row at or after i.  With no bound the test never fires
    # and only costs time.  low[i] holds the columns below i
    prune = bound < m
    low = [(1 << i) - 1 for i in range(m)]

    def walk(i: int, used: int, coeff, ranks: tuple, r: int) -> None:
        if i == m:
            if repeats:
                exps: dict = {}
                for var, exp in map(pair_of, ranks):
                    exps[var] = exps.get(var, 0) + exp
                key = tuple(sorted(exps.items()))
            else:
                key = tuple(map(pair_of, sorted(ranks)))
            acc = sums[r]
            acc[key] = acc.get(key, 0) + coeff
            return
        if need[i] & ~used:
            return
        if prune and (r + (used >> i).bit_count() > bound or r + (low[i] & ~used).bit_count() > bound):
            return
        if not used >> i & 1:
            odd = (used >> i + 1).bit_count() & 1
            walk(i + 1, used | 1 << i, -coeff if odd else coeff, ranks, r)
        if r == bound:
            return
        for c, terms in offers[i]:
            if used >> c & 1:
                continue
            # the minus sign of -lambda * M[i, c] folds into the inversion parity
            signed = coeff if (used >> c + 1).bit_count() & 1 else -coeff
            for mono, value in terms:
                walk(i + 1, used | 1 << c, signed * value, ranks + mono, r + 1)

    walk(0, 0, 1, (), 0)
    return [Poly(acc) for acc in sums]


def determinant(matrix: SymMatrix) -> Poly:
    """Determinant: (-1)**m times the top coefficient c_m."""
    return (-1) ** matrix.m * char_coeffs(matrix)[matrix.m]


@dataclass(frozen=True)
class PartialPermutation:
    """A bijection of a subset of {1..m} onto itself.

    `support` is the sorted subset, `images` its pointwise images, and
    `inv` the inversion number of the image sequence, so the sign of the
    partial permutation is (-1) ** inv.
    """

    support: tuple[int, ...]
    images: tuple[int, ...]
    inv: int

    @classmethod
    def make(cls, support: Sequence[int], images: Sequence[int]) -> "PartialPermutation":
        sup = tuple(support)
        img = tuple(images)
        if sorted(sup) != list(sup) or sorted(img) != list(sup):
            raise ValueError("images must permute the sorted support")
        return cls(sup, img, inversions(img))

    def a_weight(self, matrix: SymMatrix) -> Poly:
        """The product of matrix entries A[j, w(j)] over the support."""
        product = Poly.one()
        for j, image in zip(self.support, self.images):
            product = product * matrix.entry(j, image)
        return product


def enumerate_partial_perms(m: int, r: int) -> Iterator[PartialPermutation]:
    """All partial permutations of {1..m} with support size r.

    There are C(m, r) * r! of them; the support runs lexicographically and
    the images lexicographically within each support.
    """
    if not 0 <= r <= m:
        raise ValueError(f"support size must lie in 0..{m}")
    for support in combinations(range(1, m + 1), r):
        for images in permutations(support):
            yield PartialPermutation.make(support, images)


def alpha(r: int, k: int) -> int:
    """The sign exponent alpha(r) = r - (r mod k) of the second factor."""
    if r < 0 or k < 2:
        raise ValueError("need r >= 0 and k >= 2")
    return r - (r % k)


def _second_factor_degrees(k: int, bound: int) -> list[int]:
    # the degrees r <= bound with r = 0 or 1 mod k, which the second
    # factor and its counting analogues keep
    return [r for r in range(bound + 1) if r % k in (0, 1)]


def second_factor(matrix: SymMatrix, params: AlgebraParams, cap: Optional[int] = None) -> Poly:
    """The polynomial sum of (-1)**alpha(r) * c_r(TA) over r = 0, 1 mod k.

    For k = 2 this is exactly det(I - TA), the denominator of the classical
    master theorem.  c_r(TA) has t-degree r, so with `cap` only the terms
    of t-degree <= cap are formed.
    """
    if matrix.m != params.m:
        raise ValueError(f"matrix size {matrix.m} does not match m={params.m}")
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    bound = params.m if cap is None else min(cap, params.m)
    coeffs = char_coeffs(scale_rows_by_t(matrix), bound)
    total = Poly.zero()
    for r in _second_factor_degrees(params.k, bound):
        total = total + (-1) ** alpha(r, params.k) * coeffs[r]
    return total
