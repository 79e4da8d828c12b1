"""Two exact properties of the universal first-factor table, checked with no oracle.

`identity._universal_sweep(params, cap)` gives U_lambda, the first-factor
total of the generic matrix (a_pq) for each partition lambda.  Two of its
properties need no second route:

- Transposition.  FF(A) = FF(A^T) content by content, so each U_lambda is
  unchanged by a_pq <-> a_qp.
- Diagonal.  Only the pairs i = j give the monomial prod_p a_pp^{lambda_p},
  and c(j, j) is 1 for admissible j and 0 otherwise, so its coefficient in
  U_lambda is N_lambda, the number of admissible words of content lambda.
  `counting._content_counts` counts them by an automaton that shares no
  code with the sweep.  Every lambda with N_lambda > 0 thus has a total.

Neither can see an error that is itself symmetric under transposition and
off the diagonal; the identity check stays needed.  pytest does not collect
this file.  `test_identity.py` runs it on small shapes; as a script it
checks the shapes named on the command line and exits 1 at the first
partition that fails:

    PYTHONPATH=src python tests/universal_invariants.py 4-3-10 3-3-12
"""

from __future__ import annotations

import sys
import time
from typing import Iterator, Optional

from macmahon.counting import STRICT, _content_counts
from macmahon.identity import _Universal, _universal_sweep
from macmahon.polyring import avar, tvar
from macmahon.words import AlgebraParams


def partitions(size: int, parts: int, top: Optional[int] = None) -> Iterator[tuple]:
    """The partitions of `size` into at most `parts` parts (each <= top), as
    contents of length `parts`, in reverse lexicographic order."""
    if top is None:
        top = size
    if parts == 0:
        if size == 0:
            yield ()
        return
    for first in range(min(size, top), -1, -1):
        for rest in partitions(size - first, parts - 1, first):
            yield (first,) + rest


def invariant_failure(universal: _Universal, params: AlgebraParams, cap: int) -> Optional[str]:
    """None if the table has both properties, else what fails at the first
    partition (by size, then reverse lexicographic) that fails."""
    m, codec = params.m, universal.codec
    places = codec.places
    # the place of a_qp for each digit, that of a_pq
    transposed = [places[avar(q, p)] for _, p, q in codec.variables]
    counts = {tuple(dict(mono).get(tvar(i), 0) for i in range(1, m + 1)): n
              for mono, n in _content_counts(params, cap, STRICT).items()}
    expected = [partition for size in range(cap + 1) for partition in partitions(size, m)]
    for partition in expected:
        table = universal.totals.get(partition, {})
        n = counts.get(partition, 0)
        diagonal = sum(c * places[avar(p, p)] for p, c in enumerate(partition, 1))
        if table.get(diagonal, 0) != n:
            return (f"partition {partition}: the coefficient of its diagonal monomial is "
                    f"{table.get(diagonal, 0)}, but {n} admissible words have its content")
        if {sum(exp * transposed[i] for i, exp in codec.digits(key)): c for key, c in table.items()} != table:
            return f"partition {partition}: the total changes under a_pq <-> a_qp"
    stray = set(universal.totals).difference(expected)
    if stray:
        return f"content {min(stray)}: a total, but it is not a partition of size <= {cap}"
    return None


def main(shapes: list[str]) -> int:
    for shape in shapes:
        m, k, cap = map(int, shape.split("-"))
        params = AlgebraParams(m, k)
        start = time.perf_counter()
        universal = _universal_sweep(params, cap)
        failure = invariant_failure(universal, params, cap)
        if failure:
            print(f"{shape}: {failure}")
            return 1
        print(f"{shape}: {len(universal.totals)} partition totals keep both invariants "
              f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
