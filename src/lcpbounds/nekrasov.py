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

One row loop, ``_profile``, runs all three recursions for ``M`` or for a
``(k, n)`` array of scalings of its family.  Row i of a member is ``d_i``
times row i of ``M`` off the diagonal, so row i of every member and every
recursion is one product of ``|m_i,:i|`` with the finished rows above it,
each over its divisor: ``|a_jj|`` for h and z, ``min{|a_jj|, 1}`` for eta.
No member is built, and ``M`` is the member ``d = 1``.  The oracle's lemma
suite passes its scalings in chunks of at most ``_CHUNK_ENTRIES // (3n)``,
so each array of the loop stays within ``oracle._CHUNK_ENTRIES`` entries.
A zero diagonal entry matters only where a nonzero entry below it uses it as
a divisor; the first such use in row-major order makes that row's values and
every later row's ``+inf``, and ``h_vector``, ``z_vector`` and
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


def _profile(m: np.ndarray, ds: np.ndarray | None = None) -> tuple[NekrasovProfile, np.ndarray]:
    """Recursion profile of ``M``, or of every member ``I - D + D M`` of its
    family for a ``(k, n)`` array ``ds`` of scalings, with the first used
    zero divisor (1-based, 0 for none).

    With ``ds`` each field gains a leading axis of length k and
    ``is_nekrasov`` is a bool array; without it the loop runs for the one
    member ``d = 1``, which is ``M``.  A member's diagonal is
    ``1 - d + d diag(M)``, as ``_scaled`` builds it, and its row i is
    ``d_i`` times row i of ``M`` off the diagonal, so row i of all three
    recursions for all members is ``rhs_i + d_i (|m_i,:i| @ W[:i])``: one
    product per row.  ``W`` holds the finished rows over their divisors,
    laid out ``(n, 3, k)`` (row, recursion, member), so ``W[:i]`` is one
    contiguous ``(i, 3k)`` block.  A member entry is used where
    ``d_i |m_ij| > 0``, exactly where the built member's entry is nonzero;
    that ``(k, n, n)`` mask is built only when some divisor is zero.
    """
    n = m.shape[0]
    d = np.ones((1, n)) if ds is None else ds
    k = d.shape[0]
    abs_m = np.abs(m)
    abs_diag = np.abs(1.0 - d + d * np.diag(m))
    zero = abs_diag <= _ZERO_FLOOR
    # Used zero divisors divide by inf; their rows become +inf below.
    safe = np.where(zero, np.inf, abs_diag).T
    divisors = np.stack([safe, safe, np.minimum(safe, 1.0)], axis=1)
    scale = d.T
    values = np.ones((n, 3, k))
    values[:, 0] = np.triu(abs_m, 1).sum(axis=1)[:, None] * scale
    w = np.empty_like(values)
    w[0] = values[0] / divisors[0]
    for i in range(1, n):
        values[i] += scale[i] * (abs_m[i, :i] @ w[:i].reshape(i, 3 * k)).reshape(3, k)
        w[i] = values[i] / divisors[i]
    bad = np.zeros(k, dtype=int)
    if zero.any():
        used = np.tril(d[:, :, None] * abs_m > 0.0, -1) & zero[:, None, :]
        flat = used.reshape(k, n * n)
        hit = flat.any(axis=1)
        first = flat.argmax(axis=1)
        values.transpose(0, 2, 1)[np.arange(n)[:, None] >= np.where(hit, first // n, n)] = np.inf
        bad = np.where(hit, first % n + 1, 0)
    h, z, eta = np.ascontiguousarray(values.transpose(1, 2, 0))
    margins = abs_diag - h
    flags = np.all(margins > STRICT_RTOL * np.maximum(1.0, abs_diag), axis=-1)
    if ds is None:
        h, z, eta, margins, flags, bad = h[0], z[0], eta[0], margins[0], flags[0], bad[0]
    return NekrasovProfile(h=h, z=z, eta=eta, margins=margins, is_nekrasov=flags), bad


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
