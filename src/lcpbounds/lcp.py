"""Small-scale LCP machinery: residual, enumeration solver, P-matrix test,
and error certificates.

LCP(M, q) asks for ``x >= 0`` with ``w = Mx + q >= 0`` and ``x . w = 0``.
The solver and the P-matrix test walk the principal submatrices one size at
a time in (cardinality, lexicographic) order, one stacked LAPACK call per
size (:func:`_levels`; at the solver's limit n = 15 the largest size holds
C(15, 7) = 6435 blocks, about 2.5 MB per temporary).  The solver skips the
bases whose block is singular (the rule of ``linalg.PIVOT_RTOL``) and yields
the feasible ones: :func:`solve_lcp` takes the first, so it stops at the
first size that holds one, and :func:`feasible_bases` lists them all, which
makes the walk exhaustive at desk scale and a uniqueness checker.  The
P-matrix test stops at the first size with a minor of
``M / max(1, max |m_ij|)`` at or below 1e-12.  Certificates compare the
true error ``||x - x*||_inf`` against ``bound * ||min(x, Mx+q)||_inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DomainError,
    InapplicableBound,
    NoSolution,
)
from .linalg import _inverse_stack, as_matrix, as_vector, inf_norm
from .nekrasov import BoundReport

# Componentwise slack accepted when testing x >= 0 and Mx + q >= 0.
FEASIBILITY_TOL = 1e-10

_SOLVER_MAX_N = 15
# Principal-minor P-matrix test is only run up to this dimension.
_P_TEST_MAX_N = 12


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
    """One trial point checked against a bound: ``holds`` iff
    ``true_error <= bound_value * residual_norm + 1e-9``."""

    trial_x: np.ndarray
    residual_norm: float
    true_error: float
    bound_value: float
    holds: bool


def residual(inst: LcpInstance, x) -> np.ndarray:
    """Natural residual ``min(x, Mx + q)``; zero exactly at solutions."""
    xx = as_vector(x)
    if xx.shape[0] != inst.n:
        raise DimensionMismatch(f"x has length {xx.shape[0]}, expected {inst.n}")
    return np.minimum(xx, inst.m @ xx + inst.q)


def _enumerate_bases(n: int):
    """Every basis of an n x n LCP, in (cardinality, lexicographic) order;
    ``perfbench`` ranks solved bases against this order."""
    for size in range(n + 1):
        yield from combinations(range(n), size)


def _levels(m: np.ndarray):
    """The principal submatrices of ``m`` in ``_enumerate_bases`` order, one
    level per size: the ``(k, size)`` index array and the ``(k, size, size)`` stack."""
    for _, bases in groupby(_enumerate_bases(m.shape[0]), len):
        a = np.array(list(bases), dtype=np.intp)
        yield a, m[a[:, :, None], a[:, None, :]]


def _feasible(inst: LcpInstance):
    """Yield ``(alpha, x, w)`` for each feasible complementary basis, in
    enumeration order, solving one level of bases at a time."""
    if inst.n > _SOLVER_MAX_N:
        raise DimensionTooLarge(f"basis enumeration is limited to n <= {_SOLVER_MAX_N}")
    m, q = inst.m, inst.q
    for a, stack in _levels(m):
        inv, _, ok = _inverse_stack(stack)
        a, inv = a[ok], inv[ok]
        x_a = (inv @ -q[a][..., None])[..., 0]
        x = np.zeros((len(a), inst.n))
        np.put_along_axis(x, a, x_a, axis=1)
        w = (m @ x[..., None])[..., 0] + q
        infeasible = (x_a < -FEASIBILITY_TOL).any(axis=1) | (w < -FEASIBILITY_TOL).any(axis=1)
        for k in np.flatnonzero(~infeasible):
            yield tuple(a[k].tolist()), x[k], w[k]


def solve_lcp(inst: LcpInstance) -> LcpSolution:
    """First feasible complementary basis in (cardinality, lexicographic) order.

    For P-matrix inputs the feasible basis is unique, so the ordering only
    matters for degenerate or non-P instances.
    """
    for alpha, x, w in _feasible(inst):
        return LcpSolution(x_star=x, w_star=w, basis=alpha, complementarity_gap=float(abs(x @ w)))
    raise NoSolution("no feasible complementary basis")


def feasible_bases(inst: LcpInstance) -> list[tuple[int, ...]]:
    """All feasible complementary bases; length 1 for non-degenerate P-matrices."""
    return [alpha for alpha, _, _ in _feasible(inst)]


def is_p_matrix(m) -> bool:
    """True iff every principal minor of ``M / max(1, max |m_ij|)`` exceeds 1e-12."""
    mm = as_matrix(m)
    n = mm.shape[0]
    if n > _P_TEST_MAX_N:
        raise DimensionTooLarge(f"principal-minor enumeration is limited to n <= {_P_TEST_MAX_N}")
    scale = max(1.0, float(np.max(np.abs(mm))))
    for _, stack in _levels(mm):
        if np.any(np.linalg.det(stack / scale) <= 1e-12):
            return False
    return True


def certify_error_bound(inst: LcpInstance, x, bound: BoundReport) -> ErrorCertificate:
    """Check the error bound at one trial point against the enumerated solution."""
    if not bound.applicable or bound.value is None:
        raise InapplicableBound(f"bound {bound.theorem.value} is not applicable: {bound.reason}")
    xx = as_vector(x)
    solution = solve_lcp(inst)
    residual_norm = inf_norm(residual(inst, xx))
    true_error = inf_norm(xx - solution.x_star)
    return ErrorCertificate(
        trial_x=xx,
        residual_norm=residual_norm,
        true_error=true_error,
        bound_value=bound.value,
        holds=bool(true_error <= bound.value * residual_norm + 1e-9),
    )


def trial_points(x_star, count: int, seed: int) -> np.ndarray:
    """Seeded trial points, uniform in [0, 3(1 + ||x*||_inf)] per coordinate."""
    if count < 0 or seed < 0:
        raise DomainError("count and seed must be nonnegative")
    xs = as_vector(x_star)
    rng = np.random.default_rng(seed)
    high = 3.0 * (1.0 + inf_norm(xs))
    return rng.uniform(0.0, high, size=(count, xs.shape[0]))
