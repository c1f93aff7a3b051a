"""Certified inverse-norm and LCP error bounds for Nekrasov and B-Nekrasov
matrices, with a brute-force verification oracle.

All public operations are pure functions over immutable inputs and are safe
to call concurrently.
"""

from . import errors
from .bnekrasov import (
    BPlusSplit,
    ClassificationReport,
    all_bounds,
    bplus_decompose,
    classify,
    gp_bnekrasov_bound,
    is_b_nekrasov,
    new_bnekrasov_bound,
)
from .lcp import (
    ErrorCertificate,
    LcpInstance,
    LcpSolution,
    certify_error_bound,
    feasible_bases,
    is_p_matrix,
    residual,
    solve_lcp,
    trial_points,
)
from .linalg import as_matrix, as_vector, comparison_matrix, inf_norm, inverse
from .matrixio import format_matrix, parse_matrix, parse_vector
from .nekrasov import (
    BoundReport,
    NekrasovProfile,
    Theorem,
    eta_vector,
    gp_nekrasov_bound,
    h_vector,
    is_nekrasov,
    kolotilina_bound,
    new_nekrasov_bound,
    scaled_matrix,
    z_vector,
)
from .oracle import (
    LemmaSuiteReport,
    LemmaViolation,
    OracleEstimate,
    lemma_property_suite,
    norm_at_d,
    oracle_max_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BPlusSplit",
    "BoundReport",
    "ClassificationReport",
    "ErrorCertificate",
    "LcpInstance",
    "LcpSolution",
    "LemmaSuiteReport",
    "LemmaViolation",
    "NekrasovProfile",
    "OracleEstimate",
    "Theorem",
    "all_bounds",
    "as_matrix",
    "as_vector",
    "bplus_decompose",
    "certify_error_bound",
    "classify",
    "comparison_matrix",
    "errors",
    "eta_vector",
    "feasible_bases",
    "format_matrix",
    "gp_bnekrasov_bound",
    "gp_nekrasov_bound",
    "h_vector",
    "inf_norm",
    "inverse",
    "is_b_nekrasov",
    "is_nekrasov",
    "is_p_matrix",
    "kolotilina_bound",
    "lemma_property_suite",
    "new_bnekrasov_bound",
    "new_nekrasov_bound",
    "norm_at_d",
    "oracle_max_norm",
    "parse_matrix",
    "parse_vector",
    "residual",
    "scaled_matrix",
    "solve_lcp",
    "trial_points",
    "z_vector",
]
