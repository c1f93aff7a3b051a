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

All three recursions run in one kernel, ``_forward``, that loops over rows
only: row i is one product of ``|a_ij| / divisor_j`` (j < i) with the rows
above it.  h and z share the divisors ``|a_jj|`` and run as two right-hand
sides of one pass; eta takes a second pass.  The kernel also takes a
``(k, n, n)`` stack, so the oracle's lemma suite profiles a whole chunk of
scaled members at once (at most ``oracle._CHUNK_ENTRIES`` entries, the bound
the oracle's inverses use).  A zero diagonal entry matters only where a
nonzero entry below it uses it as a divisor; the first such use in row-major
order makes that row's values and every later row's ``+inf``, and
``h_vector``, ``z_vector`` and ``eta_vector`` raise ``ZeroDiagonal`` with its
1-based index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    entry, the entries from that row on are ``+inf`` (and the matrix cannot
    be Nekrasov, since the zero-diagonal row already fails its margin test).
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


def _forward(abs_a: np.ndarray, divisors: np.ndarray, rhs: np.ndarray):
    """Evaluate ``v_i = rhs_i + sum_{j<i} (abs_a[i, j] / divisors[j]) v_j``.

    ``abs_a`` is ``(..., n, n)``, ``divisors`` is ``(..., n)`` and ``rhs`` is
    ``(..., n, r)``: one solve per stack member, with ``r`` right-hand sides
    sharing its divisors.  The loop runs over rows only; each row is one
    product with the rows above it.  A zero divisor matters only where a
    nonzero numerator uses it.  The first such use in row-major order sets
    ``bad`` to its 1-based column (0 where there is none), and makes that
    row's values and every later row's ``+inf``.
    """
    n = abs_a.shape[-1]
    zero = divisors <= _ZERO_FLOOR
    used = np.tril((abs_a > 0.0) & zero[..., None, :], -1)
    # Dividing by inf zeroes the used entries; their rows are set to +inf below.
    # Each row divides its own entries, so no n x n ratio array is held.
    safe = np.where(zero, np.inf, divisors)[..., None, :]
    values = np.array(rhs, dtype=float)
    for i in range(1, n):
        ratio = abs_a[..., i : i + 1, :i] / safe[..., :i]
        values[..., i, :] += (ratio @ values[..., :i, :])[..., 0, :]
    flat = used.reshape(used.shape[:-2] + (n * n,))
    hit = flat.any(axis=-1)
    first = flat.argmax(axis=-1)
    values[np.arange(n) >= np.where(hit, first // n, n)[..., None]] = np.inf
    return values, np.where(hit, first % n + 1, 0)


def _profile(m: np.ndarray) -> tuple[NekrasovProfile, np.ndarray]:
    """Recursion profile of a matrix, or of every member of a ``(k, n, n)``
    stack, with the first used zero divisor (1-based, 0 for none).

    For a stack each field gains the leading axis and ``is_nekrasov`` is a
    bool array.  h and z share the divisors ``|a_jj|`` and run as two
    right-hand sides of one pass; eta takes a second pass with
    ``min{|a_jj|, 1}``, which is zero exactly where ``|a_jj|`` is.
    """
    abs_m = np.abs(m)
    abs_diag = np.abs(np.diagonal(m, axis1=-2, axis2=-1))
    tail = np.triu(abs_m, 1).sum(axis=-1)
    ones = np.ones_like(tail)
    hz, bad = _forward(abs_m, abs_diag, np.stack([tail, ones], axis=-1))
    eta, _ = _forward(abs_m, np.minimum(abs_diag, 1.0), ones[..., None])
    h = hz[..., 0]
    margins = abs_diag - h
    flags = np.all(margins > STRICT_RTOL * np.maximum(1.0, abs_diag), axis=-1)
    profile = NekrasovProfile(h=h, z=hz[..., 1], eta=eta[..., 0], margins=margins,
                              is_nekrasov=flags)
    return profile, bad


def _checked(a) -> NekrasovProfile:
    profile, bad = _profile(as_matrix(a))
    if bad:
        raise ZeroDiagonal(int(bad))
    return profile


def h_vector(a) -> np.ndarray:
    """Row dominance values h_i of the forward recursion."""
    return _checked(a).h


def z_vector(a) -> np.ndarray:
    """Auxiliary values z_i: like h_i but seeded with 1 per row and no tail."""
    return _checked(a).z


def eta_vector(a) -> np.ndarray:
    """Values eta_i: the z recursion with divisors clamped to min{|a_jj|, 1}."""
    return _checked(a).eta


def is_nekrasov(a) -> NekrasovProfile:
    """Full recursion profile; never raises (zero diagonals simply fail the test)."""
    profile, _ = _profile(as_matrix(a))
    return replace(profile, is_nekrasov=bool(profile.is_nekrasov))


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
    return _kolotilina(is_nekrasov(as_matrix(a)))


def _kolotilina(profile: NekrasovProfile) -> BoundReport:
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
    return _interval_upper(mm, h_vector(mm))


def _interval_upper(a: np.ndarray, h: np.ndarray) -> float:
    """``1 - h_n/a_nn`` for the matrix whose recursion gave ``h``: ``M`` for the
    Nekrasov bounds, ``B+`` for the B-Nekrasov ones."""
    if abs(a[-1, -1]) <= _ZERO_FLOOR:
        raise ZeroDiagonal(a.shape[0])
    return float(1.0 - h[-1] / a[-1, -1])


def _epsilon_midpoint(a: np.ndarray, h: np.ndarray) -> float:
    """Midpoint of ``(0, 1 - h_n/a_nn)``, or 0.5 where that interval is empty or
    undefined; the parameterized bound then fails a structural check anyway."""
    if not np.isfinite(h[-1]) or abs(a[-1, -1]) <= _ZERO_FLOOR:
        return 0.5
    upper = _interval_upper(a, h)
    return upper / 2.0 if upper > 0.0 else 0.5


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
    return _gp_nekrasov(mm, is_nekrasov(mm), epsilon)


def _gp_nekrasov(mm: np.ndarray, profile: NekrasovProfile, epsilon: float) -> BoundReport:
    n = mm.shape[0]
    theorem = Theorem.GP_NEKRASOV
    if n == 1:
        return _not_applicable(theorem, "DimensionTooSmall")
    if not profile.is_nekrasov:
        return _not_applicable(theorem, "NotNekrasov")
    if not _positive_diagonal(mm):
        return _not_applicable(theorem, "NonPositiveDiagonal")
    abs_m = np.abs(mm)
    for i in range(n - 1):
        if not np.any(abs_m[i, i + 1 :] > 0.0):
            return _not_applicable(theorem, f"ZeroUpperRow({i + 1})")
    if not _epsilon_inside(epsilon, _interval_upper(mm, profile.h)):
        return _not_applicable(theorem, "EpsilonOutOfRange")
    diag = np.diag(mm)
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
    return _new_nekrasov(mm, is_nekrasov(mm))


def _new_nekrasov(mm: np.ndarray, profile: NekrasovProfile) -> BoundReport:
    theorem = Theorem.NEW_NEKRASOV
    if not profile.is_nekrasov:
        return _not_applicable(theorem, "NotNekrasov")
    if not _positive_diagonal(mm):
        return _not_applicable(theorem, "NonPositiveDiagonal")
    return _parameter_free(theorem, profile)


def _parameter_free(theorem: Theorem, profile: NekrasovProfile, factor: int = 1) -> BoundReport:
    """``factor * max_i eta_i / min{margin_i, 1}`` on a profile that passed its
    class checks: the new Nekrasov bound on ``M`` (factor 1), or the new
    B-Nekrasov bound on ``B+`` (factor n - 1)."""
    value = float(factor * np.max(profile.eta / np.minimum(profile.margins, 1.0)))
    return BoundReport(
        theorem=theorem,
        applicable=True,
        value=value,
        intermediates={"h": profile.h, "eta": profile.eta, "margins": profile.margins},
    )
