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
route a command runs on and for when ``M`` is P by class (the route's
``p_class``).  ``M`` is an H-matrix iff its comparison matrix ``<M>`` is a
nonsingular M-matrix, that is iff ``x = <M>^{-1} 1`` is positive (Berman &
Plemmons, 1994, ch. 6); a Nekrasov ``M`` is one by class, and any other takes
one solve on the row-scaled ``M`` (``linalg._row_scaled``), as the P-test does.
``classify`` builds every ``ClassificationReport``.  It decides P by class,
through ``route``, at every n, and runs ``lcp.is_p_matrix``, one principal-pivot
recursion over all 2^n - 1 principal minors, only on an input in neither class,
up to n = 20 (``lcp._P_TEST_MAX_N``).  The class verdict is a proof for the double
input up to n = 93 (``ClassificationReport``); the recursion's 1e-12 pivot
threshold bounds no rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lcp, nekrasov
from .errors import DimensionTooSmall, DomainError
from .linalg import _comparison_in_place, _row_scaled, _well_conditioned, as_matrix, inf_norm
from .nekrasov import (
    STRICT_RTOL,
    BoundReport,
    Theorem,
    _applicable,
    _m_route,
    _not_applicable,
    _Route,
)

@dataclass(frozen=True)
class BPlusSplit:
    """The splitting ``M = b_plus + c`` with ``c[i, :] = r_plus[i]``."""

    b_plus: np.ndarray
    r_plus: np.ndarray

    @property
    def c(self) -> np.ndarray:
        """The rank-1 remainder, a read-only view of ``r_plus`` down each row."""
        return np.broadcast_to(self.r_plus[:, None], self.b_plus.shape)


@dataclass(frozen=True)
class ClassificationReport:
    """Membership flags for the matrix classes relevant to the bounds.

    ``is_p_matrix`` is True, with the note ``P by class: <class>``, where
    ``M`` is Nekrasov with positive diagonal or B-Nekrasov (the route's
    ``p_class``); no principal minor is tested then.  Any other ``M`` takes
    the principal-minor test up to n = 20, and reads ``None`` above that.

    The class verdict is a proof for the double input up to n = 93.  The
    route's class test keeps a ``STRICT_RTOL`` = 1e-12 margin relative to
    each diagonal.  h is a sum of nonnegative terms, and each ``B+`` entry
    is one correctly rounded subtraction, which keeps its sign.  So each row
    adds at most n + 3 roundings to the terms it reads, and the computed h
    is within a relative gamma_{n(n+3)} of the exact h of ``M`` or ``B+``
    (Higham, 2002, ch. 3): 5e-14 at n = 20, 9.9e-13 at n = 93, and past that
    margin from n = 94 on, where the verdict is the float test's alone.
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
    """Split ``M`` into its Z-part ``B+`` and the rank-1 remainder ``C``
    (``DomainError`` where an entry of ``B+`` is past the float range)."""
    mm = as_matrix(m)
    if mm.shape[0] < 2:
        raise DimensionTooSmall("the splitting needs at least one off-diagonal entry per row")
    return BPlusSplit(*_split(mm))


def _split(mm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``B+`` and ``r_plus`` of a validated ``M`` (for n = 1, ``M`` and 0);
    ``DomainError`` where ``m_ij - r_i`` passes the float range."""
    b_plus = mm.copy()
    np.fill_diagonal(b_plus, -np.inf)
    r_plus = np.maximum(b_plus.max(axis=1), 0.0)
    with np.errstate(over="ignore"):
        np.subtract(mm, r_plus[:, None], out=b_plus)
    if not np.isfinite(b_plus.min()):
        raise DomainError("the B+ splitting overflows: an entry of B+ is past the float range")
    return b_plus, r_plus


class _BPlusRoute(_Route):
    """``B+`` with its profile (factor n - 1): the B-Nekrasov bounds are the
    Nekrasov ones on this route.  For n = 1 the split has no off-diagonal
    entry to take, so ``B+`` is ``M`` and the fault is ``DimensionTooSmall``."""

    name = "B+"
    theorems = (Theorem.GP_BNEKRASOV, Theorem.NEW_BNEKRASOV)
    p_class = "B-Nekrasov"

    def _finish(self, w: np.ndarray, beta: np.ndarray, epsilon: float) -> BoundReport:
        """GP-B-Nekrasov, ``(n-1) max w / (min{min delta, 1} min w)`` with
        ``delta = beta / w``.  Once w > 0, ``Bbar = B+ W`` is a Z-matrix whose
        row slacks ``bbar_ii - sum_{j != i} |bbar_ij|`` are the core's ``s``."""
        theorem = Theorem.GP_BNEKRASOV
        zero = w <= STRICT_RTOL
        if zero.any():
            return _not_applicable(theorem, f"WZero({np.argmax(zero) + 1})")
        if not np.all(beta > STRICT_RTOL * np.abs(np.diag(self.a) * w)):
            return _not_applicable(theorem, "BbarNotSDDZ")
        delta = beta / w
        value = float(self.factor * w.max() / (min(float(np.min(delta)), 1.0) * w.min()))
        return _applicable(theorem, value, epsilon=epsilon,
                           intermediates={"w": w, "beta": beta, "delta": delta,
                                          "h": self.profile.h})


def _bplus_route(mm: np.ndarray) -> _BPlusRoute:
    """The route on ``B+`` (on ``M`` for n = 1), with the class check and the
    strict-entry check of the parameterized bound."""
    n = mm.shape[0]
    b_plus, r_plus = _split(mm)
    profile, _, upper, sums = nekrasov._profile(b_plus)
    fault = ("DimensionTooSmall" if n < 2 else None
             if profile.is_nekrasov and np.all(np.diag(b_plus) > 0.0) else "NotBNekrasov")
    strict = np.triu(mm < (r_plus - STRICT_RTOL * r_plus)[:, None], 1).any(axis=1)[:-1]
    open_row = None if strict.all() else f"NoStrictEntry({np.argmin(strict) + 1})"
    return _BPlusRoute(b_plus, profile, n - 1, fault, open_row, upper, sums)


@dataclass(frozen=True)
class _Profiles:
    """The route on ``M`` and the one on ``B+``, each with its profile: what
    the bounds and the classification read."""

    m_route: _Route
    b_route: _BPlusRoute

    @property
    def route(self) -> _Route | None:
        """The route the commands run on: ``M`` if the new Nekrasov bound
        applies, else ``B+`` if the new B-Nekrasov bound does, else None.
        ``M`` is P by class exactly where this is not None: Nekrasov with
        positive diagonal (an H-matrix with positive diagonal, Berman &
        Plemmons, 1994, ch. 6) or B-Nekrasov, the route's ``p_class``."""
        return next((r for r in (self.m_route, self.b_route) if r.fault is None), None)


def _profiles(m) -> _Profiles:
    """Profile ``M`` and ``B+`` once; a ``_Profiles`` is passed through."""
    if isinstance(m, _Profiles):
        return m
    mm = as_matrix(m)
    # The one copy of M in bound, classify and sweep; verify copies M again
    # in oracle_max_norm and inverse, and lcp in LcpInstance.
    del m
    return _Profiles(_m_route(mm), _bplus_route(mm))


def _sdd(route: _Route) -> bool:
    diag = np.abs(np.diag(route.a))
    # An off-diagonal row sum past the float range is +inf, which fails the test below.
    return bool(np.all(diag - route.abs_sums > STRICT_RTOL * diag))


def is_b_nekrasov(m) -> bool:
    """Whether ``B+`` is Nekrasov with positive diagonal (False for n = 1):
    ``classify(m).is_b_nekrasov`` from one split and one profile."""
    return _bplus_route(as_matrix(m)).fault is None


def classify(m) -> ClassificationReport:
    """Full diagnostics from the two routes: H by class where ``M`` is
    Nekrasov, else by one solve on the row-scaled ``<M>``, built in place;
    P by class, else by the principal-minor test for n <= 20."""
    p = _profiles(m)
    mm, b_plus = p.m_route.a, p.b_route.a
    n = mm.shape[0]
    notes: list[str] = []
    nonpositive = mm <= 0.0
    np.fill_diagonal(nonpositive, True)
    b_flag = n >= 2 and _sdd(p.b_route) and bool(np.all(np.diag(b_plus) > 0.0))
    if n < 2:
        notes.append("B-class tests need n >= 2")
    h_flag, singular = True, False
    if not p.m_route.profile.is_nekrasov:
        a = _comparison_in_place(_row_scaled(mm))
        try:
            x = np.linalg.solve(a, np.ones(n))
            h_flag = bool(np.all(x > 0.0))
            # Then ||<M>^{-1}||_inf = max x, and the PIVOT_RTOL rule holds as for an inverse.
            singular = h_flag and not _well_conditioned(inf_norm(a), x.max())
        except np.linalg.LinAlgError:
            singular = True
    if singular:
        h_flag = False
        notes.append("comparison matrix is singular")
    p_flag: bool | None = None
    if p.route is not None:
        p_flag = True
        notes.append(f"P by class: {p.route.p_class}")
    elif n > lcp._P_TEST_MAX_N:
        notes.append(f"P-matrix test skipped: n > {lcp._P_TEST_MAX_N}")
    else:
        p_flag = lcp.is_p_matrix(mm)
    return ClassificationReport(
        is_sdd=_sdd(p.m_route),
        is_z_matrix=bool(nonpositive.all()),
        is_nekrasov=p.m_route.profile.is_nekrasov,
        is_b_matrix=b_flag,
        is_b_nekrasov=p.b_route.fault is None,
        is_h_matrix=h_flag,
        is_p_matrix=p_flag,
        notes="; ".join(notes),
    )


def epsilon_interval_upper(m) -> float:
    """Upper endpoint ``1 - h_n(B+)/b_nn`` of the parameterized B-bound's interval."""
    b_plus = bplus_decompose(m).b_plus
    return nekrasov._interval_upper(b_plus, nekrasov._checked(b_plus).h)


def gp_bnekrasov_bound(m, epsilon: float) -> BoundReport:
    """Parameterized B-Nekrasov bound on the worst-case inverse norm.

    Needs, for every row i < n, some k > i with ``m_ik`` strictly below
    ``r_i`` (ties fail), and the column-scaled ``Bbar = B+ W`` must come out
    strictly diagonally dominant.  With row slacks
    ``beta_i = bbar_ii - sum_{j != i} |bbar_ij|`` and ``delta = min beta_i/w_i``
    the bound is ``(n-1) max w / (min{delta, 1} min w)``.
    """
    return _bplus_route(as_matrix(m)).gp(epsilon)


def new_bnekrasov_bound(m) -> BoundReport:
    """Parameter-free B-Nekrasov bound: (n - 1) times the new Nekrasov formula
    on ``B+``, ``max_i (n-1) eta_i(B+) / min{b_ii - h_i(B+), 1}``."""
    return _bplus_route(as_matrix(m)).new()


def all_bounds(m, epsilon: float | None = None) -> list[BoundReport]:
    """The four worst-case-norm bounds: gp-Nekrasov, new-Nekrasov,
    gp-B-Nekrasov and new-B-Nekrasov, in that order.

    The parameterized bounds take ``epsilon``, or, when it is None, the
    midpoint of their own admissible interval, taken where that bound's
    checks pass (``_Route.gp``).  ``M`` and ``B+`` are each profiled once
    for all four.
    """
    p = _profiles(m)
    reports = []
    for route in (p.m_route, p.b_route):
        reports += [route.gp(epsilon), route.new()]
    return reports
