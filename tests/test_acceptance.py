"""Acceptance suite.

Eleven end-to-end checks, one test each, every one exact (integer or
rational arithmetic, no tolerances).  Each test prints a single
"acceptance NN <name>: PASS|FAIL" line; run pytest with -rP (the
project default) to see all eleven lines together.
"""

from itertools import combinations, permutations, product

from macmahon.charpoly import SymMatrix, determinant, scale_rows_by_t, second_factor
from macmahon.counting import (
    DP,
    SERIES,
    TRANSFER,
    check_symmetry,
    count_admissible,
    egf_check,
    f_denominator,
    f_series,
    n_m_check,
)
from macmahon.identity import verify_master
from macmahon.polyring import Poly, elementary_sym
from macmahon.rewrite import PrependRewriter, _normal_form_terms, expand_block, path_coefficient
from macmahon.words import STRICT, WEAK, AlgebraParams, enumerate_admissible, inversions

SEEDS = (11, 22, 33, 44, 55)


def _verdict(num: int, name: str, failures: list) -> None:
    print(f"acceptance {num:02d} {name}: " + ("PASS" if not failures else "FAIL"))
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])


def _pairs(m_max: int):
    return [(m, k) for m in range(2, m_max + 1) for k in range(2, m + 1)]


def test_01_numeric_master_identity():
    failures = []
    for m, k in _pairs(4):
        for seed in SEEDS:
            report = verify_master(SymMatrix.random(m, seed), AlgebraParams(m, k), 6)
            if not report.passed:
                failures.append((m, k, seed, report.first_failure))
    _verdict(1, "numeric-master-identity", failures)


def test_02_symbolic_master_identity():
    failures = []
    for m, k in ((2, 2), (3, 2), (3, 3)):
        report = verify_master(SymMatrix.symbolic(m), AlgebraParams(m, k), 5)
        if report.mode != "symbolic" or not report.passed:
            failures.append((m, k, report.first_failure))
    _verdict(2, "symbolic-master-identity", failures)


def test_03_classical_determinant_reduction():
    failures = []
    for m in (2, 3, 4):
        a = SymMatrix.symbolic(m)
        scaled = scale_rows_by_t(a)
        rows = [
            [(Poly.one() if i == j else Poly.zero()) - scaled.entries[i][j]
             for j in range(m)]
            for i in range(m)
        ]
        det = determinant(SymMatrix.from_rows(rows))
        if second_factor(a, AlgebraParams(m, 2)) != det:
            failures.append(("symbolic", m))
        report = verify_master(SymMatrix.random(m, 101 + m), AlgebraParams(m, 2), 6)
        if not report.passed:
            failures.append(("numeric", m, report.first_failure))
    _verdict(3, "classical-determinant-reduction", failures)


def test_04_series_closed_form():
    failures = []
    for m, k in _pairs(4):
        result = f_series(AlgebraParams(m, k), 6)
        if not result.equal:
            failures.append((m, k))
    for n in (2, 3, 4):
        expected = Poly.one() - elementary_sym(1, n) + elementary_sym(n, n)
        if f_denominator(AlgebraParams(n, n), 6) != expected:
            failures.append(("denominator", n))
    _verdict(4, "series-closed-form", failures)


def test_05_counting_three_methods():
    failures = []
    for m, k in _pairs(5):
        params = AlgebraParams(m, k)
        dp, transfer, series = (
            count_admissible(params, 15, STRICT, method).values
            for method in (DP, TRANSFER, SERIES)
        )
        if not (dp == transfer == series):
            failures.append((m, k))
    start = count_admissible(AlgebraParams(3, 3), 5, STRICT, DP).values
    if start != (1, 3, 9, 26, 75, 216):
        failures.append(("frozen", start))
    _verdict(5, "counting-three-methods", failures)


def test_06_all_ones_powers():
    failures = []
    for m in (2, 3, 4):
        report = n_m_check(m, 8)
        if not report.passed:
            failures.append((m, report.totals, report.expected))
        # the coefficient total hits m**l even though the admissible basis
        # is strictly smaller from length m on
        if any(report.admissible_counts[l] >= report.totals[l]
               for l in range(m, 9)):
            failures.append(("collapse", m))
    _verdict(6, "all-ones-powers", failures)


def test_07_path_oracle_equivalence():
    failures = []
    for m, k, l_max in ((3, 2, 5), (3, 3, 5), (4, 3, 4)):
        params = AlgebraParams(m, k)
        cache = {}
        rewriter = PrependRewriter(params)
        for l in range(l_max + 1):
            admissible = list(enumerate_admissible(params, l))
            for j in product(range(1, m + 1), repeat=l):
                nf = _normal_form_terms(j, params)
                # the prepend fold reduces the suffix first, the worklist
                # the leftmost window of the whole word
                fold = {(): 1}
                for a in reversed(j):
                    fold = rewriter.times(a, fold)
                if nf != fold:
                    failures.append(("engines", m, k, j))
                    continue
                for i in admissible:
                    if path_coefficient(i, j, params, cache) != nf.get(i, 0):
                        failures.append(("coeff", m, k, i, j))
    _verdict(7, "path-oracle-equivalence", failures)


def test_08_relation_self_consistency():
    failures = []
    for m, k in _pairs(4):
        params = AlgebraParams(m, k)
        for letters in combinations(range(1, m + 1), k):
            decreasing = tuple(sorted(letters, reverse=True))
            total: dict = {}
            for word in permutations(letters):
                sign = (-1) ** inversions(word)
                if word == decreasing:
                    for repl, coeff in expand_block(word, params):
                        total[repl] = total.get(repl, 0) + sign * coeff
                else:
                    total[word] = total.get(word, 0) + sign
            if any(total.values()):
                failures.append((m, k, letters))
    _verdict(8, "relation-self-consistency", failures)


def test_09_series_symmetry():
    failures = []
    for m, k in _pairs(4):
        result = f_series(AlgebraParams(m, k), 6)
        if not check_symmetry(result.lhs, m):
            failures.append((m, k))
    _verdict(9, "series-symmetry", failures)


def test_10_weak_run_variant():
    failures = []
    for m, k in ((3, 2), (3, 3), (4, 3)):
        result = f_series(AlgebraParams(m, k), 5, WEAK)
        if not result.equal:
            failures.append((m, k))
    _verdict(10, "weak-run-variant", failures)


def test_11_egf_permutation_runs():
    failures = []
    for k in (2, 3, 4):
        report = egf_check(k, 8)
        if not report.passed:
            failures.append((k, report.brute_counts, report.series_counts))
    flat = egf_check(2, 8)
    if flat.series_counts != (1,) * 9 or flat.brute_counts != (1,) * 9:
        failures.append(("k=2", flat.series_counts))
    _verdict(11, "egf-permutation-runs", failures)
