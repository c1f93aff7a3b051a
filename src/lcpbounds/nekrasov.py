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

One row loop, ``_profile``, runs all three recursions: row i of each is
one product of ``|m_i,:i|`` with the finished rows above it, each over its
divisor: ``|a_jj|`` for h and z, ``min{|a_jj|, 1}`` for eta.  The oracle's
lemma suite compares the worst case of the family, found in one pass over
the rows, with the profile's ``eta`` and ``ratios``; it builds no member.
eta grows like a product of row sums, so on large inputs it can pass the
float range; it is then ``+inf``, and a bound whose value is not finite
is reported as not applicable, with reason ``Overflow``.
Strict tests compare with ``STRICT_RTOL`` times their own row's quantity, so
no class depends on the scale of ``M`` or of a row.  A divisor is zero only
at 0.0 (a tiny one gives ``+inf`` past the float range) and matters only
where a nonzero entry below it uses it; the first such use in row-major order
makes that row's values and every later row's ``+inf``, and ``h_vector``,
``z_vector`` and ``eta_vector`` raise ``ZeroDiagonal`` with its 1-based index.

The bounds run on a route, ``_Route``: the matrix of a bound family with its
profile.  Here that is ``M`` with factor 1; ``bnekrasov`` adds ``B+`` with
factor n - 1.  One core serves both parameterized bounds: after the class,
upper-row and epsilon checks it takes ``w = h/diag`` (``w_n`` shifted by
epsilon) and the row slacks ``s = triu(|A|, 1) @ (1 - w)``,
``s_n = epsilon a_nn``, as array operations; each family adds only its
final formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, DomainError, ZeroDiagonal
from .linalg import as_matrix, as_vector

# Strict inequalities are tested with this slack relative to their own row's
# quantity (|a_ii|, or r_i for B+'s strict entries), with no absolute floor;
# values at the boundary count as failures so certificates stay conservative.
STRICT_RTOL = 1e-12


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
    ``ratios`` stacks ``h/|a_ii|``, ``z/|a_ii|`` and ``eta/min{|a_ii|, 1}``,
    ``+inf`` over a zero divisor and from its first use on.
    """

    h: np.ndarray
    z: np.ndarray
    eta: np.ndarray
    margins: np.ndarray
    is_nekrasov: bool
    ratios: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound computation.

    ``value`` is present iff ``applicable``; ``reason`` explains
    inapplicability (``Overflow`` where the value left the float range).
    ``intermediates`` holds the named vectors that entered the formula
    (``w``, ``s``, ``h``, ``z``, ``eta``, ``beta``, ``delta`` as relevant).
    """

    theorem: Theorem
    applicable: bool
    value: float | None = None
    reason: str | None = None
    epsilon: float | None = None
    intermediates: dict[str, np.ndarray] = field(default_factory=dict)


def _not_applicable(theorem: Theorem, reason: str) -> BoundReport:
    return BoundReport(theorem=theorem, applicable=False, reason=reason)


def _applicable(theorem: Theorem, value: float, **fields) -> BoundReport:
    """The report of a bound that applies, or reason ``Overflow`` where its
    value left the float range (eta grows like a product of row sums).
    Callers evaluate the value under ``np.errstate(over="ignore")``, so that
    an overflow is reported here and not warned about."""
    if not np.isfinite(value):
        return _not_applicable(theorem, "Overflow")
    return BoundReport(theorem=theorem, applicable=True, value=value, **fields)


def _profile(m: np.ndarray) -> tuple[NekrasovProfile, int, np.ndarray, np.ndarray]:
    """Recursion profile of ``M``, with its first used zero divisor (1-based,
    0 for none), the strict upper triangle of ``|M|`` and the off-diagonal
    row sums of ``|M|``: one ``|M|``, its diagonal zeroed once ``|m_ii|`` is
    read, serves the recursions and a route (see ``_Route``).

    Row i of all three recursions is ``rhs_i + |m_i,:i| @ W[:i]``: one
    product per row.  ``W`` holds the finished rows over their divisors,
    laid out ``(n, 3)`` (row, recursion), so ``W[:i]`` is one contiguous
    ``(i, 3)`` block; the values and the divisors fill blocks of the same
    layout, preallocated, with one division per row.  h, z, eta and
    ``ratios`` are returned as views of those rows-first arrays, not as
    copies.  An entry is used where ``|m_ij| > 0``; the mask of used zero
    divisors is built only when some divisor is zero.  A value past the
    float range is ``+inf``, without a warning.
    """
    n = m.shape[0]
    abs_m = np.abs(m)
    upper = np.triu(abs_m, 1)
    abs_diag = np.abs(np.diag(m))
    np.fill_diagonal(abs_m, 0.0)
    zero = abs_diag == 0.0
    divisors = np.empty((n, 3))
    # Used zero divisors divide by inf; their rows become +inf below.
    divisors[:, 0] = np.where(zero, np.inf, abs_diag)
    divisors[:, 1] = divisors[:, 0]
    np.minimum(divisors[:, 0], 1.0, out=divisors[:, 2])
    values = np.empty((n, 3))
    w = np.empty_like(values)
    # eta grows like a product of row sums; past the float range it is +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        tail, sums = upper.sum(axis=1), abs_m.sum(axis=1)
        values[:, 0] = tail
        values[:, 1:] = 1.0
        np.divide(values[0], divisors[0], out=w[0])
        for i in range(1, n):
            values[i] += abs_m[i, :i] @ w[:i]
            np.divide(values[i], divisors[i], out=w[i])
        # An unused entry (|m_ij| = 0) that meets a row past the float range
        # gives 0 * inf = nan.  The rows above the first nan are right; the
        # rest are taken again over the used entries only.
        nan = np.isnan(values).any(axis=1)
        for i in range(int(np.argmax(nan)) if nan.any() else n, n):
            j = np.flatnonzero(abs_m[i, :i])
            row = abs_m[i, j] @ w[j]
            row[0] += tail[i]
            values[i] = row + [0.0, 1.0, 1.0]
            np.divide(values[i], divisors[i], out=w[i])
    bad = 0
    if zero.any():
        used = np.tril(abs_m > 0.0, -1) & zero
        if used.any():
            first = int(np.argmax(used))
            values[first // n :] = np.inf
            w[first // n :] = np.inf
            bad = first % n + 1
        w[zero] = np.inf
    margins = abs_diag - values[:, 0]
    flag = bool(np.all(margins > STRICT_RTOL * abs_diag))
    h, z, eta = values.T
    return NekrasovProfile(h, z, eta, margins, flag, w.T), bad, upper, sums


def _checked(a: np.ndarray) -> NekrasovProfile:
    """The profile of a validated ``a``; ``ZeroDiagonal`` at its first used zero divisor."""
    profile, bad, *_ = _profile(a)
    if bad:
        raise ZeroDiagonal(int(bad))
    return profile


def h_vector(a) -> np.ndarray:
    """Row dominance values h_i of the forward recursion."""
    return _checked(as_matrix(a)).h


def z_vector(a) -> np.ndarray:
    """Auxiliary values z_i: like h_i but seeded with 1 per row and no tail."""
    return _checked(as_matrix(a)).z


def eta_vector(a) -> np.ndarray:
    """Values eta_i: the z recursion with divisors clamped to min{|a_jj|, 1}."""
    return _checked(as_matrix(a)).eta


def is_nekrasov(a) -> NekrasovProfile:
    """Full recursion profile; never raises (zero diagonals simply fail the test)."""
    return _profile(as_matrix(a))[0]


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
    """``I - D + D M`` for one scaling vector, or a new stack of members for a
    ``(k, n)`` array of them, in C order."""
    n = m.shape[0]
    # C order also where ``m`` is not, so that the reshape below is a view.
    out = np.multiply(m, d[..., None], order="C")
    # The diagonal 1 - d + d diag(M) of each member, as a strided view of
    # its n*n entries.
    out.reshape(d.shape[:-1] + (n * n,))[..., :: n + 1] = 1.0 - d + d * np.diag(m)
    return out


def kolotilina_bound(a) -> BoundReport:
    """Upper bound on ||A^{-1}||_inf for a Nekrasov matrix: max_i z_i / (|a_ii| - h_i)."""
    return _kolotilina(is_nekrasov(a))


def _kolotilina(profile: NekrasovProfile) -> BoundReport:
    if not profile.is_nekrasov:
        return _not_applicable(Theorem.KOLOTILINA, "NotNekrasov")
    with np.errstate(over="ignore"):
        value = float(np.max(profile.z / profile.margins))
    return _applicable(Theorem.KOLOTILINA, value,
                       intermediates={"h": profile.h, "z": profile.z, "margins": profile.margins})


def epsilon_interval_upper(m) -> float:
    """Upper endpoint ``1 - h_n/m_nn`` of the open interval the parameterized
    bound draws epsilon from.  Where ``m_nn > 0`` it is positive exactly when
    ``h_n < m_nn``; where ``m_nn < 0`` it is at least 1, whatever row n's margin."""
    mm = as_matrix(m)
    return _interval_upper(mm, _checked(mm).h)


def _interval_upper(a: np.ndarray, h: np.ndarray) -> float:
    """``1 - h_n/a_nn`` for the matrix whose recursion gave ``h``: ``M`` for the
    Nekrasov bounds, ``B+`` for the B-Nekrasov ones."""
    if a[-1, -1] == 0.0:
        raise ZeroDiagonal(a.shape[0])
    # A ratio past the float range gives an infinite endpoint, an empty interval.
    with np.errstate(over="ignore"):
        return float(1.0 - h[-1] / a[-1, -1])


@dataclass(frozen=True)
class _Route:
    """The matrix a bound family runs on, with its recursion profile.

    This class is the ``M`` route of the Nekrasov bounds (factor 1);
    ``bnekrasov._BPlusRoute`` is the ``B+`` route of the B-Nekrasov ones
    (factor n - 1).  Both run the parameterized bound on one core, ``gp``,
    and differ only in its final formula, ``_finish``.  ``fault`` names the
    family's failed class check (None where its bounds apply) and
    ``open_row`` the parameterized bound's failed upper-row check.  The
    slacks read ``abs_upper`` (``triu(|a|, 1)``), the SDD test ``abs_sums``
    (the off-diagonal row sums of ``|a|``); both come from one ``|a|``.
    """

    name = "M"
    theorems = (Theorem.GP_NEKRASOV, Theorem.NEW_NEKRASOV)
    # The class ``M`` is in where ``fault`` is None; it lies inside the P-matrices.
    p_class = "Nekrasov with positive diagonal"

    a: np.ndarray
    profile: NekrasovProfile
    factor: int
    fault: str | None
    open_row: str | None
    abs_upper: np.ndarray
    abs_sums: np.ndarray

    @property
    def upper(self) -> float:
        """Upper end of the open interval epsilon is drawn from."""
        return _interval_upper(self.a, self.profile.h)

    def gp(self, epsilon: float | None) -> BoundReport:
        """The parameterized bound: the class, upper-row and epsilon checks,
        then ``w = h/diag`` (``w_n`` shifted by epsilon) and the row slacks
        ``s = triu(|A|, 1) @ (1 - w)``, ``s_n = epsilon a_nn``, for the
        family's final formula.  Epsilon None takes the midpoint ``upper / 2``."""
        reason = "DimensionTooSmall" if self.a.shape[0] == 1 else self.fault or self.open_row
        if reason is None:
            upper = self.upper
            epsilon = upper / 2.0 if epsilon is None else epsilon
            if not STRICT_RTOL * upper < epsilon < upper * (1.0 - STRICT_RTOL):
                reason = "EpsilonOutOfRange"
        if reason is not None:
            return _not_applicable(self.theorems[0], reason)
        w = self.profile.ratios[0].copy()
        w[-1] += epsilon
        s = self.abs_upper @ (1.0 - w)
        s[-1] = epsilon * self.a[-1, -1]
        with np.errstate(over="ignore"):
            return self._finish(w, s, epsilon)

    def _finish(self, w: np.ndarray, s: np.ndarray, epsilon: float) -> BoundReport:
        """GP-Nekrasov: ``max{max w / min s, max w / min w}``, all ``s_i > STRICT_RTOL |a_ii|``."""
        if np.any(s <= STRICT_RTOL * np.abs(np.diag(self.a))):
            return _not_applicable(Theorem.GP_NEKRASOV, "DegenerateS")
        value = float(max(w.max() / s.min(), w.max() / w.min()))
        return _applicable(Theorem.GP_NEKRASOV, value, epsilon=epsilon,
                           intermediates={"w": w, "s": s, "h": self.profile.h})

    def new(self) -> BoundReport:
        """The parameter-free bound ``factor * max_i eta_i / min{margin_i, 1}``."""
        if self.fault is not None:
            return _not_applicable(self.theorems[1], self.fault)
        p = self.profile
        with np.errstate(over="ignore"):
            value = float(self.factor * np.max(p.eta / np.minimum(p.margins, 1.0)))
        return _applicable(self.theorems[1], value,
                           intermediates={"h": p.h, "eta": p.eta, "margins": p.margins})


def _m_route(mm: np.ndarray) -> _Route:
    """Profile ``M`` and take its class and upper-row checks."""
    profile, _, upper, sums = _profile(mm)
    fault = ("NotNekrasov" if not profile.is_nekrasov
             else None if np.all(np.diag(mm) > 0.0) else "NonPositiveDiagonal")
    filled = upper[:-1].any(axis=1)
    open_row = None if filled.all() else f"ZeroUpperRow({np.argmin(filled) + 1})"
    return _Route(mm, profile, 1, fault, open_row, upper, sums)


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
