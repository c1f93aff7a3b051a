"""Nekrasov-matrix recognition and inverse-norm bounds for the scaled family.

A square matrix ``A`` is a Nekrasov matrix when ``|a_ii| > h_i(A)`` for every
row, where the row dominance values are computed by the forward recursion

    h_1 = sum_{j>1} |a_1j|
    h_i = sum_{j<i} (|a_ij| / |a_jj|) h_j + sum_{j>i} |a_ij|.

Two companion recursions enter the bounds:

    z_1 = 1,    z_i   = sum_{j<i} (|a_ij| / |a_jj|) z_j + 1
    eta_1 = 1,  eta_i = sum_{j<i} (|a_ij| / min{|a_jj|, 1}) eta_j + 1.

For a Nekrasov ``M`` with positive diagonal, every member of the scaled
family ``I - D + D M`` (``D = diag(d)``, ``d`` in ``[0,1]^n``) is again
Nekrasov, and the bounds below certify upper limits on the infinity norm of
its inverse, uniformly in ``d``.  That worst-case norm is exactly the
constant in the Chen-Xiang error bound for LCP(M, q), which is what makes
these quantities useful as error certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, DomainError, ZeroDiagonal
from .linalg import as_matrix, as_vector

# Strict inequalities are tested with this relative slack; values at the
# boundary count as failures so certificates stay conservative.
STRICT_RTOL = 1e-12

# Divisors at or below this magnitude are treated as zero.
_ZERO_FLOOR = 1e-300


class Theorem(str, Enum):
    """Which bound a report carries."""

    GP_NEKRASOV = "gp_nekrasov"
    NEW_NEKRASOV = "new_nekrasov"
    GP_BNEKRASOV = "gp_bnekrasov"
    NEW_BNEKRASOV = "new_bnekrasov"
    KOLOTILINA = "kolotilina"


@dataclass(frozen=True)
class NekrasovProfile:
    """Per-row recursion values and the resulting classification.

    ``margins[i] = |a_ii| - h[i]``; the matrix is Nekrasov iff all margins are
    strictly positive.  When a recursion would divide by a zero diagonal
    entry, the affected entries are ``+inf`` (and the matrix cannot be
    Nekrasov, since the zero-diagonal row already fails its margin test).
    """

    h: np.ndarray
    z: np.ndarray
    eta: np.ndarray
    margins: np.ndarray
    is_nekrasov: bool


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound computation.

    ``value`` is present iff ``applicable``; ``reason`` explains
    inapplicability.  ``intermediates`` holds the named vectors that entered
    the formula (``w``, ``s``, ``h``, ``z``, ``eta``, ``beta``, ``delta`` as
    relevant).
    """

    theorem: Theorem
    applicable: bool
    value: float | None = None
    reason: str | None = None
    epsilon: float | None = None
    intermediates: dict[str, np.ndarray] = field(default_factory=dict)


def _not_applicable(theorem: Theorem, reason: str) -> BoundReport:
    return BoundReport(theorem=theorem, applicable=False, reason=reason)


def _forward(abs_a: np.ndarray, divisors: np.ndarray, base: np.ndarray):
    """Evaluate ``v_i = base_i + sum_{j<i} (abs_a[i,j]/divisors[j]) v_j``.

    Terms with a zero numerator are skipped, so a zero divisor only matters
    when actually used; the first such 1-based index is returned (values from
    that point on are ``+inf``).
    """
    n = abs_a.shape[0]
    values = np.array(base, dtype=float)
    bad: int | None = None
    for i in range(1, n):
        acc = values[i]
        for j in range(i):
            weight = abs_a[i, j]
            if weight == 0.0:
                continue
            if divisors[j] <= _ZERO_FLOOR:
                if bad is None:
                    bad = j + 1
                acc = np.inf
                continue
            acc += weight * values[j] / divisors[j]
        values[i] = acc
    return values, bad


def _upper_tail_sums(abs_a: np.ndarray) -> np.ndarray:
    n = abs_a.shape[0]
    return np.array([abs_a[i, i + 1 :].sum() for i in range(n)])


def h_vector(a) -> np.ndarray:
    """Row dominance values h_i of the forward recursion."""
    m = as_matrix(a)
    abs_m = np.abs(m)
    values, bad = _forward(abs_m, np.abs(np.diag(m)), _upper_tail_sums(abs_m))
    if bad is not None:
        raise ZeroDiagonal(bad)
    return values


def z_vector(a) -> np.ndarray:
    """Auxiliary values z_i: like h_i but seeded with 1 per row and no tail."""
    m = as_matrix(a)
    values, bad = _forward(np.abs(m), np.abs(np.diag(m)), np.ones(m.shape[0]))
    if bad is not None:
        raise ZeroDiagonal(bad)
    return values


def eta_vector(a) -> np.ndarray:
    """Values eta_i: the z recursion with divisors clamped to min{|a_jj|, 1}."""
    m = as_matrix(a)
    divisors = np.minimum(np.abs(np.diag(m)), 1.0)
    values, bad = _forward(np.abs(m), divisors, np.ones(m.shape[0]))
    if bad is not None:
        raise ZeroDiagonal(bad)
    return values


def is_nekrasov(a) -> NekrasovProfile:
    """Full recursion profile; never raises (zero diagonals simply fail the test)."""
    m = as_matrix(a)
    abs_m = np.abs(m)
    abs_diag = np.abs(np.diag(m))
    ones = np.ones(m.shape[0])
    h, _ = _forward(abs_m, abs_diag, _upper_tail_sums(abs_m))
    z, _ = _forward(abs_m, abs_diag, ones)
    eta, _ = _forward(abs_m, np.minimum(abs_diag, 1.0), ones)
    margins = abs_diag - h
    flag = bool(np.all(margins > STRICT_RTOL * np.maximum(1.0, abs_diag)))
    return NekrasovProfile(h=h, z=z, eta=eta, margins=margins, is_nekrasov=flag)


def _positive_diagonal(m: np.ndarray) -> bool:
    d = np.diag(m)
    return bool(np.all(d > STRICT_RTOL * np.maximum(1.0, np.abs(d))))


def scaled_matrix(m, d) -> np.ndarray:
    """The family member ``I - D + D M`` for ``D = diag(d)``, ``d`` in [0,1]^n."""
    mm = as_matrix(m)
    dd = as_vector(d)
    if dd.shape[0] != mm.shape[0]:
        raise DimensionMismatch(
            f"scaling vector has length {dd.shape[0]}, matrix is {mm.shape[0]}x{mm.shape[0]}"
        )
    if np.any(dd < 0.0) or np.any(dd > 1.0):
        raise DomainError("scaling entries must lie in [0, 1]")
    return _scaled(mm, dd)


def _scaled(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``I - D + D M`` for one scaling vector, or a stack of members for a
    ``(k, n)`` array of them."""
    out = m * d[..., None]
    idx = np.arange(m.shape[0])
    out[..., idx, idx] = 1.0 - d + d * np.diag(m)
    return out


def kolotilina_bound(a) -> BoundReport:
    """Upper bound on ||A^{-1}||_inf for a Nekrasov matrix: max_i z_i / (|a_ii| - h_i)."""
    m = as_matrix(a)
    profile = is_nekrasov(m)
    if not profile.is_nekrasov:
        return _not_applicable(Theorem.KOLOTILINA, "NotNekrasov")
    value = float(np.max(profile.z / profile.margins))
    return BoundReport(
        theorem=Theorem.KOLOTILINA,
        applicable=True,
        value=value,
        intermediates={"h": profile.h, "z": profile.z, "margins": profile.margins},
    )


def epsilon_interval_upper(m) -> float:
    """Upper endpoint ``1 - h_n/m_nn`` of the open interval the parameterized
    bound draws epsilon from.  Positive exactly when row n passes its margin test."""
    mm = as_matrix(m)
    h = h_vector(mm)
    if abs(mm[-1, -1]) <= _ZERO_FLOOR:
        raise ZeroDiagonal(mm.shape[0])
    return float(1.0 - h[-1] / mm[-1, -1])


def _epsilon_inside(epsilon: float, upper: float) -> bool:
    return STRICT_RTOL * upper < epsilon < upper * (1.0 - STRICT_RTOL)


def gp_nekrasov_bound(m, epsilon: float) -> BoundReport:
    """Parameterized bound on the worst-case inverse norm of ``I - D + D M``.

    Requires a Nekrasov ``M`` with positive diagonal whose every row i < n has
    some nonzero entry to the right of the diagonal.  With
    ``w_i = h_i/m_ii`` (``w_n`` shifted by ``epsilon``) and
    ``s_i = sum_{j>i} |m_ij| (1 - w_j)``, ``s_n = epsilon * m_nn``, the bound
    is ``max{max w / min s, max w / min w}``.  It degenerates to +inf as
    epsilon approaches either end of its interval.
    """
    mm = as_matrix(m)
    n = mm.shape[0]
    theorem = Theorem.GP_NEKRASOV
    if n == 1:
        return _not_applicable(theorem, "DimensionTooSmall")
    profile = is_nekrasov(mm)
    if not profile.is_nekrasov:
        return _not_applicable(theorem, "NotNekrasov")
    if not _positive_diagonal(mm):
        return _not_applicable(theorem, "NonPositiveDiagonal")
    abs_m = np.abs(mm)
    for i in range(n - 1):
        if not np.any(abs_m[i, i + 1 :] > 0.0):
            return _not_applicable(theorem, f"ZeroUpperRow({i + 1})")
    diag = np.diag(mm)
    upper = 1.0 - profile.h[-1] / diag[-1]
    if not _epsilon_inside(epsilon, upper):
        return _not_applicable(theorem, "EpsilonOutOfRange")
    w = profile.h / diag
    w[-1] += epsilon
    s = np.empty(n)
    for i in range(n - 1):
        s[i] = abs_m[i, i + 1 :] @ (1.0 - w[i + 1 :])
    s[-1] = epsilon * diag[-1]
    if np.min(s) <= STRICT_RTOL * max(1.0, float(abs_m.max())):
        return _not_applicable(theorem, "DegenerateS")
    value = float(max(w.max() / s.min(), w.max() / w.min()))
    return BoundReport(
        theorem=theorem,
        applicable=True,
        value=value,
        epsilon=epsilon,
        intermediates={"w": w, "s": s, "h": profile.h},
    )


def new_nekrasov_bound(m) -> BoundReport:
    """Parameter-free bound on the worst-case inverse norm of ``I - D + D M``:
    ``max_i eta_i / min{m_ii - h_i, 1}`` for Nekrasov ``M`` with positive diagonal."""
    mm = as_matrix(m)
    theorem = Theorem.NEW_NEKRASOV
    profile = is_nekrasov(mm)
    if not profile.is_nekrasov:
        return _not_applicable(theorem, "NotNekrasov")
    if not _positive_diagonal(mm):
        return _not_applicable(theorem, "NonPositiveDiagonal")
    value = float(np.max(profile.eta / np.minimum(profile.margins, 1.0)))
    return BoundReport(
        theorem=theorem,
        applicable=True,
        value=value,
        intermediates={"h": profile.h, "eta": profile.eta, "margins": profile.margins},
    )
