"""Small-scale LCP machinery: residual, enumeration solver, P-matrix test,
and error certificates.

LCP(M, q) asks for ``x >= 0`` with ``w = Mx + q >= 0`` and ``x . w = 0``.
The solver walks the principal submatrices one size at a time in
(cardinality, lexicographic) order, one stacked LAPACK call per nonempty size
(:func:`_feasible`; at the solver's limit n = 15 the largest size holds
C(15, 7) = 6435 blocks, about 2.5 MB per temporary).  It skips the bases
whose block is singular (the rule of ``linalg.PIVOT_RTOL``) and yields the
feasible ones: :func:`solve_lcp` takes the first, so it stops at the first
size that holds one, and :func:`feasible_bases` lists them all, which makes
the walk exhaustive at desk scale and a uniqueness checker.

The P-matrix test takes no LAPACK call.  It runs one principal-pivot
recursion over the indices of the row-scaled ``M`` (``linalg._row_scaled``):
level k holds, for each subset ``a`` of the first k indices, the Schur
complement of ``M[a, a]`` in the principal submatrix on ``a`` and k..n-1,
and level k + 1 holds each of them without index k, then each pivoted on its
first entry (``rest - col row / pivot``).  That pivot is
``det M[a + k] / det M[a]``, so every principal minor is a product of pivots
and ``M`` is P iff every pivot is positive (Tsatsomeros & Li, BIT 40 (2000)).
A pivot counts as positive when it exceeds 1e-12 times the largest |entry|
of its row in its complement, a rule that does not shrink with the minors.
The test stops at the first level with a pivot that fails it.  It takes
O(2^n n^2) flops, and at its limit n = 20 its largest level holds about
9 MB of complements (one call peaks at about 25 MB).

Certificates compare the true error ``||x - x*||_inf`` against
``bound * ||min(x, Mx+q)||_inf``.  Every slack is relative, so LCP(DM, Dq)
and LCP(sM, tq) (D > 0 diagonal, s, t > 0) agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DomainError,
    InapplicableBound,
    NoSolution,
)
from .linalg import _inverse_stack, _row_scaled, as_matrix, as_vector, inf_norm
from .nekrasov import BoundReport

# Relative slack of the tests x >= 0 and Mx + q >= 0: x_i may reach
# -FEASIBILITY_TOL ||x||_inf, and w_i, -FEASIBILITY_TOL (||m_i||_1 ||x||_inf + |q_i|).
FEASIBILITY_TOL = 1e-10

_SOLVER_MAX_N = 15
# Principal-minor P-matrix test is only run up to this dimension.
_P_TEST_MAX_N = 20


@dataclass(frozen=True)
class LcpInstance:
    """An LCP(M, q) instance; dimensions are validated on construction."""

    m: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.m)
        q = as_vector(self.q)
        if q.shape[0] != m.shape[0]:
            raise DimensionMismatch(
                f"q has length {q.shape[0]}, matrix is {m.shape[0]}x{m.shape[0]}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class LcpSolution:
    """A solution x* with w* = Mx* + q, the 0-based basic index set, and the
    complementarity gap |x* . w*|."""

    x_star: np.ndarray
    w_star: np.ndarray
    basis: tuple[int, ...]
    complementarity_gap: float


@dataclass(frozen=True)
class ErrorCertificate:
    """One trial point checked against a bound: ``holds`` iff ``true_error <=
    bound_value * residual_norm`` up to rounding (:func:`certify_error_bound`)."""

    trial_x: np.ndarray
    residual_norm: float
    true_error: float
    bound_value: float
    holds: bool


def residual(inst: LcpInstance, x) -> np.ndarray:
    """Natural residual ``min(x, Mx + q)``; zero exactly at solutions.  An
    entry of ``Mx + q`` past the float range is ``+-inf``, without a warning."""
    xx = as_vector(x)
    if xx.shape[0] != inst.n:
        raise DimensionMismatch(f"x has length {xx.shape[0]}, expected {inst.n}")
    with np.errstate(over="ignore"):
        return np.minimum(xx, inst.m @ xx + inst.q)


def _enumerate_bases(n: int):
    """Every basis of an n x n LCP, in (cardinality, lexicographic) order;
    ``perfbench`` ranks solved bases against this order."""
    for size in range(n + 1):
        yield from combinations(range(n), size)


@lru_cache(maxsize=None)
def _index_levels(n: int) -> tuple[np.ndarray, ...]:
    """``_enumerate_bases(n)``, one shared ``(k, size)`` index array per size (2 MB at n = 15)."""
    levels = groupby(_enumerate_bases(n), len)
    return tuple(np.array(list(bases), dtype=np.intp) for _, bases in levels)


def _feasible(inst: LcpInstance):
    """Yield ``(alpha, x, w)`` for each feasible complementary basis, in
    enumeration order, one stacked solve per size of the bases whose block
    ``_inverse_stack`` accepts; the empty basis has ``x = 0`` and takes no
    LAPACK call.  A basis whose ``x`` or ``w`` leaves the float range is not
    feasible; callers iterate under ``np.errstate(over="ignore",
    invalid="ignore")``, so that it is skipped without a warning."""
    if inst.n > _SOLVER_MAX_N:
        raise DimensionTooLarge(f"basis enumeration is limited to n <= {_SOLVER_MAX_N}")
    m, q = inst.m, inst.q
    # -FEASIBILITY_TOL ||m_i||_1, summed over FEASIBILITY_TOL |m_ij|, so that it
    # stays finite where ||m_i||_1 passes the float range; times ||x||_inf it is
    # exactly 0 where x = 0.
    w_slack, q_tol = -(FEASIBILITY_TOL * np.abs(m)).sum(axis=1), FEASIBILITY_TOL * np.abs(q)
    for a in _index_levels(inst.n):
        if a.size:
            inv, _, ok = _inverse_stack(m[a[:, :, None], a[:, None, :]])
            if not ok.all():
                a, inv = a[ok], inv[ok]
            x_a = (inv @ -q[a][..., None])[..., 0]
        else:
            x_a = np.zeros((1, 0))
        x = np.zeros((len(a), inst.n))
        x[np.arange(len(a))[:, None], a] = x_a
        w = (m @ x[..., None])[..., 0] + q
        x_max = np.abs(x_a).max(axis=1, initial=0.0, keepdims=True)
        infeasible = ((x_a < -FEASIBILITY_TOL * x_max).any(axis=1)
                      | (w + q_tol < x_max * w_slack).any(axis=1))
        for k in np.flatnonzero(~infeasible):
            # An entry of x past the float range makes one of w inf or nan.
            if np.isfinite(w[k]).all():
                yield tuple(a[k].tolist()), x[k], w[k]


def solve_lcp(inst: LcpInstance) -> LcpSolution:
    """First feasible complementary basis in (cardinality, lexicographic) order.

    For P-matrix inputs the feasible basis is unique, so the ordering only
    matters for degenerate or non-P instances.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, x, w in _feasible(inst):
            # A gap past the float range is +inf.
            gap = float(abs(x @ w))
            return LcpSolution(x_star=x, w_star=w, basis=alpha, complementarity_gap=gap)
    raise NoSolution("no feasible complementary basis with x and Mx + q in the float range")


def feasible_bases(inst: LcpInstance) -> list[tuple[int, ...]]:
    """All feasible complementary bases; length 1 for non-degenerate P-matrices."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [alpha for alpha, _, _ in _feasible(inst)]


def is_p_matrix(m) -> bool:
    """True iff every pivot of the principal-pivot recursion on ``M``, each
    row scaled by a power of two to a largest |entry| in [1, 2), exceeds
    1e-12 times the largest |entry| of its row in its Schur complement (see
    the module docstring).  In index order the complements of a permuted unit
    triangular P-matrix with entries up to 200 can outgrow a pivot by 1e12,
    and it then reads not P, more often the larger n is."""
    mm = as_matrix(m)
    n = mm.shape[0]
    if n > _P_TEST_MAX_N:
        raise DimensionTooLarge(f"principal-minor enumeration is limited to n <= {_P_TEST_MAX_N}")
    # Level k: one trailing Schur complement on indices k..n-1 per subset of 0..k-1.
    t = _row_scaled(mm)[None]
    while True:
        pivots = t[:, 0, 0]
        if not (pivots > 1e-12 * np.abs(t[:, 0]).max(axis=1)).all():
            return False
        if t.shape[1] == 1:
            return True
        # Level k + 1: each complement without index k, then pivoted on it.
        k, rest, col = len(t), t[:, 1:, 1:], t[:, 1:, :1]
        row = t[:, :1, 1:] / pivots[:, None, None]
        t = np.empty((2 * k, *rest.shape[1:]))
        t[:k] = rest
        np.subtract(rest, np.multiply(col, row, out=t[k:]), out=t[k:])


def certify_error_bound(inst: LcpInstance, x, bound: BoundReport) -> ErrorCertificate:
    """Check the error bound at one trial point against the enumerated solution:
    ``true_error <= bound_value (r + r*) (1 + gamma)``, ``gamma = 4 (n + 2) eps``.
    ``r`` and ``r*`` are the largest ``||min(x, Mx + q)||_inf`` at ``x`` and at the
    computed ``x*`` (added by the triangle inequality) that the rounding of ``Mx + q``,
    at most ``gamma (|M||x| + |q|)`` per entry, allows (Higham 2002, ch. 3)."""
    if not bound.applicable or bound.value is None:
        raise InapplicableBound(f"bound {bound.theorem.value} is not applicable: {bound.reason}")
    residual_norm = inf_norm(residual(inst, x))  # checks x before the solve
    xx = as_vector(x)
    points = np.stack([xx, solve_lcp(inst).x_star])
    true_error = inf_norm(xx - points[1])
    gamma = 4 * (inst.n + 2) * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        w = points @ inst.m.T + inst.q
        delta = gamma * (np.abs(points) @ np.abs(inst.m).T + np.abs(inst.q))
        r = np.fmax(abs(np.fmin(points, w - delta)), abs(np.fmin(points, w + delta)))
        holds = bool(true_error <= bound.value * r.max(axis=1).sum() * (1 + gamma))
    return ErrorCertificate(xx, residual_norm, true_error, bound.value, holds)


def trial_points(x_star, count: int, seed: int) -> np.ndarray:
    """Seeded trial points, uniform in [0, 3(1 + ||x*||_inf)] per coordinate;
    a range past the float range, or more points than fit in memory or in an
    array, raises ``DomainError``."""
    if count < 0 or seed < 0:
        raise DomainError("count and seed must be nonnegative")
    xs = as_vector(x_star)
    rng = np.random.default_rng(seed)
    norm = inf_norm(xs)
    high = 3.0 * (1.0 + norm)
    if not np.isfinite(high):
        raise DomainError(f"trial range 3(1 + ||x*||_inf) overflows at ||x*||_inf = {norm!r}")
    try:
        return rng.uniform(0.0, high, size=(count, xs.shape[0]))
    except (MemoryError, ValueError, OverflowError) as exc:
        raise DomainError(f"cannot draw {count} trial points: {exc}") from None
