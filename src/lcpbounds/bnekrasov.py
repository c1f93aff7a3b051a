"""B-Nekrasov recognition via the B+ splitting, matrix-class diagnostics,
and the two B-Nekrasov bounds on the worst-case inverse norm.

Any square ``M`` splits as ``M = B+ + C`` where ``r_i = max{0, m_ij : j != i}``,
``C`` is the rank-1 nonnegative matrix with constant rows ``r_i``, and
``B+ = M - C`` is a Z-matrix.  ``M`` is a B-Nekrasov matrix when this ``B+``
is Nekrasov with positive diagonal; the class sits inside the P-matrices, so
LCP(M, q) is uniquely solvable and the bounds here feed its error certificate.

The B-Nekrasov bounds are the Nekrasov bounds on the ``B+`` route
(``_BPlusRoute``), scaled by n - 1: the parameter-free one is the same
formula, and the parameterized one runs the shared core of ``nekrasov`` on
``B+``, whose row slacks ``s`` are the ``beta`` of ``Bbar = B+ W``.
``all_bounds`` evaluates the four bounds from one recursion profile of ``M``
and one of ``B+``.  ``all_bounds`` and ``classify`` also take the bundle
``_profiles(m)`` returns in place of the matrix, so a caller that needs both
profiles each matrix once; the bundle's ``route`` is the one rule for which
route a command runs on.
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
    Theorem,
    _m_route,
    _not_applicable,
    _positive_diagonal,
    _Route,
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


class _BPlusRoute(_Route):
    """``B+`` with its profile (factor n - 1): the B-Nekrasov bounds are the
    Nekrasov ones on this route.  For n = 1 the split has no off-diagonal
    entry to take, so the route is ``M`` itself with fault ``DimensionTooSmall``."""

    name = "B+"
    theorems = (Theorem.GP_BNEKRASOV, Theorem.NEW_BNEKRASOV)

    def _finish(self, w: np.ndarray, beta: np.ndarray, epsilon: float) -> BoundReport:
        """GP-B-Nekrasov, ``(n-1) max w / (min{min delta, 1} min w)`` with
        ``delta = beta / w``.  Once w > 0, ``Bbar = B+ W`` is a Z-matrix whose
        row slacks ``bbar_ii - sum_{j != i} |bbar_ij|`` are the core's ``s``."""
        theorem = Theorem.GP_BNEKRASOV
        zero = w <= STRICT_RTOL
        if zero.any():
            return _not_applicable(theorem, f"WZero({np.argmax(zero) + 1})")
        if not np.all(beta > STRICT_RTOL * np.maximum(1.0, np.abs(np.diag(self.a) * w))):
            return _not_applicable(theorem, "BbarNotSDDZ")
        delta = beta / w
        value = float(self.factor * w.max() / (min(float(np.min(delta)), 1.0) * w.min()))
        return BoundReport(theorem=theorem, applicable=True, value=value, epsilon=epsilon,
                           intermediates={"w": w, "beta": beta, "delta": delta,
                                          "h": self.profile.h})


def _bplus_route(mm: np.ndarray) -> tuple[BPlusSplit | None, _BPlusRoute]:
    """The ``B+`` split (None for n = 1) and its route, with the class check
    and the strict-entry check of the parameterized bound."""
    n = mm.shape[0]
    if n < 2:
        return None, _BPlusRoute(mm, is_nekrasov(mm), 0, "DimensionTooSmall", None)
    split = bplus_decompose(mm)
    b_plus, r_plus = split.b_plus, split.r_plus
    profile = is_nekrasov(b_plus)
    fault = None if profile.is_nekrasov and _positive_diagonal(b_plus) else "NotBNekrasov"
    below = (r_plus - STRICT_RTOL * np.maximum(1.0, r_plus))[:, None]
    strict = np.triu(mm < below, 1).any(axis=1)[:-1]
    open_row = None if strict.all() else f"NoStrictEntry({np.argmin(strict) + 1})"
    return split, _BPlusRoute(b_plus, profile, n - 1, fault, open_row)


@dataclass(frozen=True)
class _Profiles:
    """``M`` with its route, and its ``B+`` split (None for n = 1) with that
    route: what the bounds and the classification read."""

    m: np.ndarray
    m_route: _Route
    split: BPlusSplit | None
    b_route: _BPlusRoute

    @property
    def route(self) -> _Route | None:
        """The route the commands run on: ``M`` if the new Nekrasov bound
        applies, else ``B+`` if the new B-Nekrasov bound does, else None."""
        return next((r for r in (self.m_route, self.b_route) if r.fault is None), None)


def _profiles(m) -> _Profiles:
    """Profile ``M`` and ``B+`` once; a ``_Profiles`` is passed through."""
    if isinstance(m, _Profiles):
        return m
    mm = as_matrix(m)
    return _Profiles(mm, _m_route(mm), *_bplus_route(mm))


def _sdd(mm: np.ndarray) -> bool:
    abs_m = np.abs(mm)
    diag = np.diag(abs_m)
    off = abs_m.sum(axis=1) - diag
    return bool(np.all(diag - off > STRICT_RTOL * np.maximum(1.0, diag)))


def _classify(p: _Profiles, with_p_test: bool) -> ClassificationReport:
    mm, split = p.m, p.split
    n = mm.shape[0]
    notes: list[str] = []
    off_mask = ~np.eye(n, dtype=bool)
    z_flag = bool(np.all(mm[off_mask] <= 0.0))
    if split is not None:
        b_flag = _sdd(split.b_plus) and _positive_diagonal(split.b_plus)
    else:
        b_flag = False
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
        is_nekrasov=p.m_route.profile.is_nekrasov,
        is_b_matrix=b_flag,
        is_b_nekrasov=p.b_route.fault is None,
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
    strictly diagonally dominant.  With row slacks
    ``beta_i = bbar_ii - sum_{j != i} |bbar_ij|`` and ``delta = min beta_i/w_i``
    the bound is ``(n-1) max w / (min{delta, 1} min w)``.
    """
    return _bplus_route(as_matrix(m))[1].gp(epsilon)


def new_bnekrasov_bound(m) -> BoundReport:
    """Parameter-free B-Nekrasov bound: (n - 1) times the new Nekrasov formula
    on ``B+``, ``max_i (n-1) eta_i(B+) / min{b_ii - h_i(B+), 1}``."""
    return _bplus_route(as_matrix(m))[1].new()


def all_bounds(m, epsilon: float | None = None) -> list[BoundReport]:
    """The four worst-case-norm bounds: gp-Nekrasov, new-Nekrasov,
    gp-B-Nekrasov and new-B-Nekrasov, in that order.

    The parameterized bounds take ``epsilon``, or, when it is None, the
    midpoint of their own admissible interval (0.5 where that interval is
    empty or undefined; the bound is then inapplicable on other grounds).
    ``M`` and ``B+`` are each profiled once for all four.
    """
    p = _profiles(m)
    reports = []
    for route in (p.m_route, p.b_route):
        reports += [route.gp(route.midpoint() if epsilon is None else epsilon), route.new()]
    return reports
