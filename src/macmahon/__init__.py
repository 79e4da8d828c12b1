"""Exact verification of a master identity for algebras with degree-k relations.

The algebra on m generators imposes, for every k-subset of generators, the
vanishing of the antisymmetrized product of its elements.  Words without k
consecutive strictly decreasing letters form a monomial basis; `rewrite`
reduces arbitrary words into it, `identity` verifies that the resulting
matrix series times a truncated characteristic polynomial equals 1, and
`counting` cross-checks every enumerative consequence.  All arithmetic is
exact (integers and fractions); nothing is floating point.
"""

from .words import (
    STRICT,
    WEAK,
    AlgebraParams,
    Word,
    enumerate_admissible,
    has_decreasing_run,
    inversions,
    is_admissible,
    smallest_decreasing_run,
    validate_word,
)
from .rewrite import (
    NCombination,
    expand_block,
    normal_form,
    path_coefficient,
    path_coefficient_dfs,
    reversion_vector,
)
from .polyring import (
    Poly,
    TruncatedSeries,
    apply_transposition,
    avar,
    complete_sym,
    elementary_sym,
    parse_scalar,
    series_inverse,
    tvar,
    word_t_monomial,
)
from .charpoly import (
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
from .identity import (
    FirstFactorSeries,
    VerificationReport,
    first_factor,
    first_factor_totals,
    g_coefficient,
    verify_corollary,
    verify_master,
)
from .counting import (
    CountTable,
    EgfReport,
    FSeriesResult,
    NmReport,
    build_transfer_graph,
    check_symmetry,
    count_admissible,
    count_perms_no_long_descents,
    egf_check,
    f_denominator,
    f_series,
    n_m_check,
)

__version__ = "0.1.0"

__all__ = [
    "STRICT",
    "WEAK",
    "AlgebraParams",
    "Word",
    "enumerate_admissible",
    "has_decreasing_run",
    "inversions",
    "is_admissible",
    "smallest_decreasing_run",
    "validate_word",
    "NCombination",
    "expand_block",
    "normal_form",
    "path_coefficient",
    "path_coefficient_dfs",
    "reversion_vector",
    "Poly",
    "TruncatedSeries",
    "apply_transposition",
    "avar",
    "complete_sym",
    "elementary_sym",
    "parse_scalar",
    "series_inverse",
    "tvar",
    "word_t_monomial",
    "MatrixFormatError",
    "PartialPermutation",
    "SymMatrix",
    "alpha",
    "char_coeffs",
    "determinant",
    "enumerate_partial_perms",
    "matrix_from_json_obj",
    "scale_rows_by_t",
    "second_factor",
    "FirstFactorSeries",
    "VerificationReport",
    "first_factor",
    "first_factor_totals",
    "g_coefficient",
    "verify_corollary",
    "verify_master",
    "CountTable",
    "EgfReport",
    "FSeriesResult",
    "NmReport",
    "build_transfer_graph",
    "check_symmetry",
    "count_admissible",
    "count_perms_no_long_descents",
    "egf_check",
    "f_denominator",
    "f_series",
    "n_m_check",
]
