"""Brute-force lower bound on the worst-case inverse norm, plus a sampling
harness for the scaling inequalities the bounds rest on.

The certified quantity is ``max over d in [0,1]^n`` of
``||(I - D + D M)^{-1}||_inf``.  The oracle evaluates every vertex of the
cube and a seeded batch of interior points; sampling can only undershoot, so
``max_observed`` is a lower bound on the true maximum and any certified upper
bound must dominate it.

The family members are built and inverted in stacked chunks on numpy's
LAPACK backend.  A chunk holds at most ``_CHUNK_ENTRIES`` float64 entries
(about 256 KB per temporary), and vertex chunks are decoded from integer
ranges, so memory stays flat in n.  Ties keep the first point evaluated, and
a singular member raises :class:`SingularMatrix` (see ``linalg.PIVOT_RTOL``).

The lemma suite builds no members: it passes a chunk of its scaling vectors
to the family kernel of ``nekrasov``, which profiles every member from the
rows of ``M`` in one row loop, then tests the inequalities as array masks.
A chunk holds at most ``_CHUNK_ENTRIES // (3n)`` vectors, so the kernel's
three values per row and member stay within the same entry bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, DomainError, PreconditionFailed, SingularMatrix
from .linalg import _inverse_stack, as_matrix, inf_norm, inverse
from .nekrasov import _m_route, _positive_diagonal, _profile, _Route, _scaled, scaled_matrix

_ORACLE_MAX_N = 20

# Upper limit on the float64 entries of one stacked chunk of family members.
_CHUNK_ENTRIES = 32768

# Slack on the sampled inequalities, and their names in report order.
_LEMMA_SLACK = 1e-12
_LEMMA_CHECKS = ("h_ratio", "z_vs_eta", "z_ratio")


@dataclass(frozen=True)
class OracleEstimate:
    """Best observed norm and where it occurred.  ``max_observed`` never
    exceeds the true maximum; equality is not claimed."""

    max_observed: float
    argmax_d: np.ndarray
    vertex_count: int
    interior_samples: int
    seed: int


@dataclass(frozen=True)
class LemmaViolation:
    """A single failed inequality: which check, the 1-based row, the scaling
    vector, and the two sides as evaluated."""

    check: str
    row: int
    d: np.ndarray
    lhs: float
    rhs: float


@dataclass(frozen=True)
class LemmaSuiteReport:
    trials: int
    violations: list[LemmaViolation]

    @property
    def clean(self) -> bool:
        return not self.violations


def norm_at_d(m, d) -> float:
    """``||(I - D + D M)^{-1}||_inf`` at one scaling vector."""
    return inf_norm(inverse(scaled_matrix(m, d)))


def oracle_max_norm(m, interior_samples: int = 10000, seed: int = 42) -> OracleEstimate:
    """Maximum observed norm over all cube vertices plus seeded interior points.

    Deterministic for a fixed seed: the interior batch comes from a
    counter-based generator and ties keep the earliest point evaluated
    (vertices in binary order, then samples in batch order).
    """
    mm = as_matrix(m)
    n = mm.shape[0]
    if n > _ORACLE_MAX_N:
        raise DimensionTooLarge(f"vertex enumeration is limited to n <= {_ORACLE_MAX_N}")
    if interior_samples < 0:
        raise DomainError("interior_samples must be nonnegative")
    if not 0 <= seed < 2**128:
        raise DomainError("seed must lie in [0, 2**128)")
    best = -np.inf
    best_d = np.zeros(n)
    for ds in _scaling_chunks(n, interior_samples, seed):
        _, norms, ok = _inverse_stack(_scaled(mm, ds))
        if not ok.all():
            raise SingularMatrix("matrix is numerically singular")
        k = int(np.argmax(norms))
        if norms[k] > best:
            best, best_d = float(norms[k]), ds[k].copy()
    return OracleEstimate(
        max_observed=float(best),
        argmax_d=best_d,
        vertex_count=2**n,
        interior_samples=interior_samples,
        seed=seed,
    )


def _scaling_chunks(n: int, interior_samples: int, seed: int):
    """The oracle's scaling vectors in evaluation order, as ``(k, n)`` arrays
    of at most ``_CHUNK_ENTRIES // n**2`` rows: the vertices, then the samples."""
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    # Bit n-1-i of vertex number k is d_i: binary order, first coordinate
    # most significant, as itertools.product((0, 1), repeat=n) enumerates.
    shifts = np.arange(n - 1, -1, -1)
    for start in range(0, 2**n, chunk):
        ks = np.arange(start, min(start + chunk, 2**n))
        yield ((ks[:, None] >> shifts) & 1).astype(float)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, interior_samples, chunk):
        yield rng.random((min(chunk, interior_samples - start), n))


def lemma_property_suite(m, trials: int = 1000, seed: int = 0) -> LemmaSuiteReport:
    """Sampled check of the scaling inequalities behind the bounds.

    For each scaling vector d (all-ones first, then ``trials`` uniform draws)
    and ``Mt = I - D + D M`` this verifies, with ``_LEMMA_SLACK``:

      * ``h_i(Mt)/mt_ii <= h_i(M)/m_ii`` and ``Mt`` stays Nekrasov,
      * ``z_i(Mt) <= eta_i(M)``,
      * ``z_i(Mt)/mt_ii <= eta_i(M)/min{m_ii, 1}``.

    The members are profiled from the rows of ``M``, never built, in chunks
    of at most ``_CHUNK_ENTRIES // (3n)`` scaling vectors; violations are
    listed by trial, then check (in the order above, the Nekrasov test
    last), then row.

    Requires a Nekrasov ``M`` with positive diagonal; any violation reported
    here indicates an implementation bug, not an unlucky sample.  ``m`` may
    also be a route (``nekrasov._Route``): its matrix is checked with the
    profile it carries, which is not taken again.
    """
    if trials < 0 or seed < 0:
        raise DomainError("trials and seed must be nonnegative")
    route = m if isinstance(m, _Route) else _m_route(as_matrix(m))
    mm, profile = route.a, route.profile
    if not profile.is_nekrasov or not _positive_diagonal(mm):
        raise PreconditionFailed("requires a Nekrasov matrix with positive diagonal")
    n = mm.shape[0]
    diag = np.diag(mm)
    rhs = np.stack([profile.h / diag, profile.eta, profile.eta / np.minimum(diag, 1.0)])
    rng = np.random.default_rng(seed)
    scalings = np.vstack([np.ones((1, n)), rng.random((trials, n))])
    chunk = max(1, _CHUNK_ENTRIES // (3 * n))
    violations: list[LemmaViolation] = []
    for start in range(0, scalings.shape[0], chunk):
        ds = scalings[start : start + chunk]
        mt_profile, _ = _profile(mm, ds)
        mt_diag = 1.0 - ds + ds * diag
        lhs = np.stack([mt_profile.h / mt_diag, mt_profile.z, mt_profile.z / mt_diag], axis=1)
        flagged = lhs > rhs + _LEMMA_SLACK
        failed = flagged.any(axis=(1, 2)) | ~mt_profile.is_nekrasov
        for t in np.nonzero(failed)[0]:
            for c, i in zip(*np.nonzero(flagged[t])):
                violations.append(
                    LemmaViolation(check=_LEMMA_CHECKS[c], row=int(i) + 1, d=ds[t].copy(),
                                   lhs=float(lhs[t, c, i]), rhs=float(rhs[c, i]))
                )
            if not mt_profile.is_nekrasov[t]:
                i = int(np.argmin(mt_profile.margins[t]))
                violations.append(
                    LemmaViolation(check="nekrasov", row=i + 1, d=ds[t].copy(),
                                   lhs=float(mt_profile.h[t, i]), rhs=float(abs(mt_diag[t, i])))
                )
    return LemmaSuiteReport(trials=scalings.shape[0], violations=violations)
