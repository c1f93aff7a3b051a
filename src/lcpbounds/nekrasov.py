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

All three recursions run in one row loop, ``_forward``: in row i each system
is one product of ``|a_ij| / divisor_j`` (j < i) with the rows above it; h
and z share the divisors ``|a_jj|`` as two right-hand sides, and eta takes
``min{|a_jj|, 1}``.  The kernel also takes a ``(k, n, n)`` stack, so the
oracle's lemma suite profiles a whole chunk of scaled members at once (at
most ``oracle._CHUNK_ENTRIES`` entries, the bound the oracle's inverses
use).  A zero diagonal entry matters only where a nonzero entry below it
uses it as a divisor; the first such use in row-major order makes that row's
values and every later row's ``+inf``, and ``h_vector``, ``z_vector`` and
``eta_vector`` raise ``ZeroDiagonal`` with its 1-based index.

The bounds run on a route, ``_Route``: the matrix of a bound family with its
profile.  Here that is ``M`` with factor 1; ``bnekrasov`` adds ``B+`` with
factor n - 1.  One core serves both parameterized bounds: after the class,
upper-row and epsilon checks it takes ``w = h/diag`` (``w_n`` shifted by
epsilon) and the row slacks ``s = triu(|A|, 1) @ (1 - w)``,
``s_n = epsilon a_nn``, as array operations; each family adds only its
final formula.
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
    """Evaluate ``v_i = rhs_i + sum_{j<i} (abs_a[i, j] / divisors[j]) v_j``
    and, in the same row loop, ``u_i = 1 + sum_{j<i} (abs_a[i, j] / c_j) u_j``
    with ``c = min{divisors, 1}``.

    ``abs_a`` is ``(..., n, n)``, ``divisors`` is ``(..., n)`` and ``rhs`` is
    ``(..., n, r)``: one solve per stack member, with ``r`` right-hand sides
    sharing its divisors; ``u`` is ``(..., n, 1)``.  Each row is one product
    with the rows above it per system.  A zero divisor matters only where a
    nonzero numerator uses it.  The first such use in row-major order sets
    ``bad`` to its 1-based column (0 where there is none), and makes that
    row's values and every later row's ``+inf``.
    """
    n = abs_a.shape[-1]
    zero = divisors <= _ZERO_FLOOR
    used = np.tril((abs_a > 0.0) & zero[..., None, :], -1)
    # Used entries divide by inf (1 once clamped); their rows become +inf below.
    # Each row divides its own entries, so no n x n ratio array is held.
    safe = np.where(zero, np.inf, divisors)[..., None, :]
    clamped = np.minimum(safe, 1.0)
    values = np.array(rhs, dtype=float)
    u = np.ones(values.shape[:-1] + (1,))
    for i in range(1, n):
        row = abs_a[..., i : i + 1, :i]
        values[..., i, :] += ((row / safe[..., :i]) @ values[..., :i, :])[..., 0, :]
        u[..., i, :] += ((row / clamped[..., :i]) @ u[..., :i, :])[..., 0, :]
    flat = used.reshape(used.shape[:-2] + (n * n,))
    hit = flat.any(axis=-1)
    first = flat.argmax(axis=-1)
    later = np.arange(n) >= np.where(hit, first // n, n)[..., None]
    values[later] = u[later] = np.inf
    return values, u, np.where(hit, first % n + 1, 0)


def _profile(m: np.ndarray) -> tuple[NekrasovProfile, np.ndarray]:
    """Recursion profile of a matrix, or of every member of a ``(k, n, n)``
    stack, with the first used zero divisor (1-based, 0 for none).

    For a stack each field gains the leading axis and ``is_nekrasov`` is a
    bool array.  One row loop runs all three recursions: h and z as two
    right-hand sides over the divisors ``|a_jj|``, and eta over
    ``min{|a_jj|, 1}``, which is zero exactly where ``|a_jj|`` is.
    """
    abs_m = np.abs(m)
    abs_diag = np.abs(np.diagonal(m, axis1=-2, axis2=-1))
    tail = np.triu(abs_m, 1).sum(axis=-1)
    hz, eta, bad = _forward(abs_m, abs_diag, np.stack([tail, np.ones_like(tail)], axis=-1))
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


@dataclass(frozen=True)
class _Route:
    """The matrix a bound family runs on, with its recursion profile.

    This class is the ``M`` route of the Nekrasov bounds (factor 1);
    ``bnekrasov._BPlusRoute`` is the ``B+`` route of the B-Nekrasov ones
    (factor n - 1).  Both run the parameterized bound on one core, ``gp``,
    and differ only in its final formula, ``_finish``.  ``fault`` names the
    family's failed class check (None where its bounds apply) and
    ``open_row`` the parameterized bound's failed upper-row check.
    """

    name = "M"
    theorems = (Theorem.GP_NEKRASOV, Theorem.NEW_NEKRASOV)

    a: np.ndarray
    profile: NekrasovProfile
    factor: int
    fault: str | None
    open_row: str | None

    @property
    def upper(self) -> float:
        """Upper end of the open interval epsilon is drawn from."""
        return _interval_upper(self.a, self.profile.h)

    def midpoint(self) -> float:
        """Midpoint of ``(0, upper)``, or 0.5 where that interval is empty or
        undefined; the parameterized bound then fails another check anyway."""
        a, h = self.a, self.profile.h
        if not np.isfinite(h[-1]) or abs(a[-1, -1]) <= _ZERO_FLOOR:
            return 0.5
        upper = self.upper
        return upper / 2.0 if upper > 0.0 else 0.5

    def gp(self, epsilon: float) -> BoundReport:
        """The parameterized bound: the class, upper-row and epsilon checks,
        then ``w = h/diag`` (``w_n`` shifted by epsilon) and the row slacks
        ``s = triu(|A|, 1) @ (1 - w)``, ``s_n = epsilon a_nn``, for the
        family's final formula."""
        reason = "DimensionTooSmall" if self.a.shape[0] == 1 else self.fault or self.open_row
        if reason is None:
            upper = self.upper
            if not STRICT_RTOL * upper < epsilon < upper * (1.0 - STRICT_RTOL):
                reason = "EpsilonOutOfRange"
        if reason is not None:
            return _not_applicable(self.theorems[0], reason)
        diag = np.diag(self.a)
        w = self.profile.h / diag
        w[-1] += epsilon
        s = np.triu(np.abs(self.a), 1) @ (1.0 - w)
        s[-1] = epsilon * diag[-1]
        return self._finish(w, s, epsilon)

    def _finish(self, w: np.ndarray, s: np.ndarray, epsilon: float) -> BoundReport:
        """GP-Nekrasov: ``max{max w / min s, max w / min w}``."""
        if np.min(s) <= STRICT_RTOL * max(1.0, float(np.abs(self.a).max())):
            return _not_applicable(Theorem.GP_NEKRASOV, "DegenerateS")
        value = float(max(w.max() / s.min(), w.max() / w.min()))
        return BoundReport(theorem=Theorem.GP_NEKRASOV, applicable=True, value=value,
                           epsilon=epsilon, intermediates={"w": w, "s": s, "h": self.profile.h})

    def new(self) -> BoundReport:
        """The parameter-free bound ``factor * max_i eta_i / min{margin_i, 1}``."""
        if self.fault is not None:
            return _not_applicable(self.theorems[1], self.fault)
        p = self.profile
        value = float(self.factor * np.max(p.eta / np.minimum(p.margins, 1.0)))
        return BoundReport(theorem=self.theorems[1], applicable=True, value=value,
                           intermediates={"h": p.h, "eta": p.eta, "margins": p.margins})


def _m_route(mm: np.ndarray) -> _Route:
    """Profile ``M`` and take its class and upper-row checks."""
    profile = is_nekrasov(mm)
    fault = ("NotNekrasov" if not profile.is_nekrasov
             else None if _positive_diagonal(mm) else "NonPositiveDiagonal")
    filled = np.triu(np.abs(mm) > 0.0, 1).any(axis=1)[:-1]
    open_row = None if filled.all() else f"ZeroUpperRow({np.argmin(filled) + 1})"
    return _Route(mm, profile, 1, fault, open_row)


def gp_nekrasov_bound(m, epsilon: float) -> BoundReport:
    """Parameterized bound on the worst-case inverse norm of ``I - D + D M``.

    Requires a Nekrasov ``M`` with positive diagonal whose every row i < n has
    some nonzero entry to the right of the diagonal.  With
    ``w_i = h_i/m_ii`` (``w_n`` shifted by ``epsilon``) and
    ``s_i = sum_{j>i} |m_ij| (1 - w_j)``, ``s_n = epsilon * m_nn``, the bound
    is ``max{max w / min s, max w / min w}``.  It degenerates to +inf as
    epsilon approaches either end of its interval.
    """
    return _m_route(as_matrix(m)).gp(epsilon)


def new_nekrasov_bound(m) -> BoundReport:
    """Parameter-free bound on the worst-case inverse norm of ``I - D + D M``:
    ``max_i eta_i / min{m_ii - h_i, 1}`` for Nekrasov ``M`` with positive diagonal."""
    return _m_route(as_matrix(m)).new()
