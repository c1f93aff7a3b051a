"""B-Nekrasov recognition via the B+ splitting, matrix-class diagnostics,
and the two B-Nekrasov bounds on the worst-case inverse norm.

Any square ``M`` splits as ``M = B+ + C`` where ``r_i = max{0, m_ij : j != i}``,
``C`` is the rank-1 nonnegative matrix with constant rows ``r_i``, and
``B+ = M - C`` is a Z-matrix.  ``M`` is a B-Nekrasov matrix when this ``B+``
is Nekrasov with positive diagonal; the class sits inside the P-matrices, so
LCP(M, q) is uniquely solvable and the bounds here feed its error certificate.

``all_bounds`` evaluates the two Nekrasov and the two B-Nekrasov bounds from
one recursion profile of ``M`` and one of ``B+``.  ``all_bounds`` and
``classify`` also take the bundle ``_profiles(m)`` returns in place of the
matrix, so a caller that needs both profiles each matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lcp, nekrasov
from .errors import DimensionTooSmall, SingularMatrix
from .linalg import as_matrix, comparison_matrix, inverse
from .nekrasov import (
    STRICT_RTOL,
    BoundReport,
    NekrasovProfile,
    Theorem,
    _epsilon_inside,
    _epsilon_midpoint,
    _gp_nekrasov,
    _interval_upper,
    _new_nekrasov,
    _not_applicable,
    _parameter_free,
    _positive_diagonal,
    is_nekrasov,
)

# Entrywise tolerance for the inverse-nonnegativity H-matrix test.
_H_INVERSE_TOL = -1e-10


@dataclass(frozen=True)
class BPlusSplit:
    """The splitting ``M = b_plus + c`` with ``c[i, :] = r_plus[i]``."""

    b_plus: np.ndarray
    c: np.ndarray
    r_plus: np.ndarray


@dataclass(frozen=True)
class ClassificationReport:
    """Membership flags for the matrix classes relevant to the bounds.

    ``is_p_matrix`` is ``None`` when the principal-minor test was skipped
    (dimension above the enumeration limit).
    """

    is_sdd: bool
    is_z_matrix: bool
    is_nekrasov: bool
    is_b_matrix: bool
    is_b_nekrasov: bool
    is_h_matrix: bool
    is_p_matrix: bool | None
    notes: str = ""


def bplus_decompose(m) -> BPlusSplit:
    """Split ``M`` into its Z-part ``B+`` and the rank-1 remainder ``C``."""
    mm = as_matrix(m)
    n = mm.shape[0]
    if n < 2:
        raise DimensionTooSmall("the splitting needs at least one off-diagonal entry per row")
    masked = mm.copy()
    np.fill_diagonal(masked, -np.inf)
    r_plus = np.maximum(masked.max(axis=1), 0.0)
    b_plus = mm - r_plus[:, None]
    c = np.tile(r_plus[:, None], (1, n))
    return BPlusSplit(b_plus=b_plus, c=c, r_plus=r_plus)


def _bplus_profile(mm: np.ndarray) -> tuple[BPlusSplit, NekrasovProfile] | None:
    """The splitting and the recursion profile of its ``B+``; None for n = 1."""
    if mm.shape[0] < 2:
        return None
    split = bplus_decompose(mm)
    return split, is_nekrasov(split.b_plus)


@dataclass(frozen=True)
class _Profiles:
    """``M`` with its recursion profile, and its ``B+`` split with that
    profile (None for n = 1): what the bounds and the classification read."""

    m: np.ndarray
    nekrasov: NekrasovProfile
    b: tuple[BPlusSplit, NekrasovProfile] | None


def _profiles(m) -> _Profiles:
    """Profile ``M`` and ``B+`` once; a ``_Profiles`` is passed through."""
    if isinstance(m, _Profiles):
        return m
    mm = as_matrix(m)
    return _Profiles(m=mm, nekrasov=is_nekrasov(mm), b=_bplus_profile(mm))


def _b_nekrasov_flag(b: tuple[BPlusSplit, NekrasovProfile] | None) -> bool:
    return b is not None and b[1].is_nekrasov and _positive_diagonal(b[0].b_plus)


def _sdd(mm: np.ndarray) -> bool:
    abs_m = np.abs(mm)
    diag = np.diag(abs_m)
    off = abs_m.sum(axis=1) - diag
    return bool(np.all(diag - off > STRICT_RTOL * np.maximum(1.0, diag)))


def _classify(p: _Profiles, with_p_test: bool) -> ClassificationReport:
    mm, b = p.m, p.b
    n = mm.shape[0]
    notes: list[str] = []
    off_mask = ~np.eye(n, dtype=bool)
    z_flag = bool(np.all(mm[off_mask] <= 0.0))
    nek_flag = p.nekrasov.is_nekrasov
    if b is not None:
        b_flag = _sdd(b[0].b_plus) and _positive_diagonal(b[0].b_plus)
        bnek_flag = _b_nekrasov_flag(b)
    else:
        b_flag = bnek_flag = False
        notes.append("B-class tests need n >= 2")
    try:
        h_flag = bool(np.all(inverse(comparison_matrix(mm)) >= _H_INVERSE_TOL))
    except SingularMatrix:
        h_flag = False
        notes.append("comparison matrix is singular")
    p_flag: bool | None
    if not with_p_test:
        p_flag = None
        notes.append("P-matrix test skipped")
    elif n > lcp._P_TEST_MAX_N:
        p_flag = None
        notes.append(f"P-matrix test skipped: n > {lcp._P_TEST_MAX_N}")
    else:
        p_flag = lcp.is_p_matrix(mm)
    return ClassificationReport(
        is_sdd=_sdd(mm),
        is_z_matrix=z_flag,
        is_nekrasov=nek_flag,
        is_b_matrix=b_flag,
        is_b_nekrasov=bnek_flag,
        is_h_matrix=h_flag,
        is_p_matrix=p_flag,
        notes="; ".join(notes),
    )


def is_b_nekrasov(m) -> ClassificationReport:
    """Classification with the (expensive) P-matrix test skipped."""
    return _classify(_profiles(m), with_p_test=False)


def classify(m) -> ClassificationReport:
    """Full diagnostics, including the principal-minor P-matrix test for small n."""
    return _classify(_profiles(m), with_p_test=True)


def epsilon_interval_upper(m) -> float:
    """Upper endpoint ``1 - h_n(B+)/b_nn`` of the parameterized B-bound's interval."""
    return nekrasov.epsilon_interval_upper(bplus_decompose(m).b_plus)


def gp_bnekrasov_bound(m, epsilon: float) -> BoundReport:
    """Parameterized B-Nekrasov bound on the worst-case inverse norm.

    Needs, for every row i < n, some k > i with ``m_ik`` strictly below
    ``r_i`` (ties fail), and the column-scaled ``Bbar = B+ W`` must come out
    a strictly diagonally dominant Z-matrix.  With row slacks
    ``beta_i = bbar_ii - sum_{j != i} |bbar_ij|`` and ``delta = min beta_i/w_i``
    the bound is ``(n-1) max w / (min{delta, 1} min w)``.
    """
    mm = as_matrix(m)
    return _gp_bnekrasov(mm, _bplus_profile(mm), epsilon)


def _gp_bnekrasov(mm: np.ndarray, b, epsilon: float) -> BoundReport:
    n = mm.shape[0]
    theorem = Theorem.GP_BNEKRASOV
    if n == 1:
        return _not_applicable(theorem, "DimensionTooSmall")
    if not _b_nekrasov_flag(b):
        return _not_applicable(theorem, "NotBNekrasov")
    split, profile = b
    for i in range(n - 1):
        tol = STRICT_RTOL * max(1.0, split.r_plus[i])
        if not np.any(mm[i, i + 1 :] < split.r_plus[i] - tol):
            return _not_applicable(theorem, f"NoStrictEntry({i + 1})")
    if not _epsilon_inside(epsilon, _interval_upper(split.b_plus, profile.h)):
        return _not_applicable(theorem, "EpsilonOutOfRange")
    b_diag = np.diag(split.b_plus)
    w = profile.h / b_diag
    w[-1] += epsilon
    for i in range(n):
        if w[i] <= STRICT_RTOL:
            return _not_applicable(theorem, f"WZero({i + 1})")
    bbar = split.b_plus * w[None, :]
    abs_bbar = np.abs(bbar)
    bbar_diag = np.diag(bbar)
    beta = bbar_diag - (abs_bbar.sum(axis=1) - np.abs(bbar_diag))
    off_mask = ~np.eye(n, dtype=bool)
    sdd_z = bool(
        np.all(bbar[off_mask] <= 0.0)
        and np.all(beta > STRICT_RTOL * np.maximum(1.0, np.abs(bbar_diag)))
    )
    if not sdd_z:
        return _not_applicable(theorem, "BbarNotSDDZ")
    delta = beta / w
    delta_min = float(np.min(delta))
    value = float((n - 1) * w.max() / (min(delta_min, 1.0) * w.min()))
    return BoundReport(
        theorem=theorem,
        applicable=True,
        value=value,
        epsilon=epsilon,
        intermediates={"w": w, "beta": beta, "delta": delta, "h": profile.h},
    )


def new_bnekrasov_bound(m) -> BoundReport:
    """Parameter-free B-Nekrasov bound: (n - 1) times the new Nekrasov formula
    on ``B+``, ``max_i (n-1) eta_i(B+) / min{b_ii - h_i(B+), 1}``."""
    mm = as_matrix(m)
    return _new_bnekrasov(mm, _bplus_profile(mm))


def _new_bnekrasov(mm: np.ndarray, b) -> BoundReport:
    n = mm.shape[0]
    theorem = Theorem.NEW_BNEKRASOV
    if n == 1:
        return _not_applicable(theorem, "DimensionTooSmall")
    if not _b_nekrasov_flag(b):
        return _not_applicable(theorem, "NotBNekrasov")
    return _parameter_free(theorem, b[1], n - 1)


def all_bounds(m, epsilon: float | None = None) -> list[BoundReport]:
    """The four worst-case-norm bounds: gp-Nekrasov, new-Nekrasov,
    gp-B-Nekrasov and new-B-Nekrasov, in that order.

    The parameterized bounds take ``epsilon``, or, when it is None, the
    midpoint of their own admissible interval (0.5 where that interval is
    empty or undefined; the bound is then inapplicable on other grounds).
    ``M`` and ``B+`` are each profiled once for all four.
    """
    p = _profiles(m)
    mm, profile, b = p.m, p.nekrasov, p.b
    if epsilon is None:
        eps_n = _epsilon_midpoint(mm, profile.h)
        eps_b = 0.5 if b is None else _epsilon_midpoint(b[0].b_plus, b[1].h)
    else:
        eps_n = eps_b = epsilon
    return [
        _gp_nekrasov(mm, profile, eps_n),
        _new_nekrasov(mm, profile),
        _gp_bnekrasov(mm, b, eps_b),
        _new_bnekrasov(mm, b),
    ]
