"""Brute-force lower bound on the worst-case inverse norm, plus an exact
check of the scaling inequalities the bounds rest on.

The certified quantity is ``max over d in [0,1]^n`` of
``||(I - D + D M)^{-1}||_inf``.  The oracle evaluates every vertex of the
cube, and nothing else.  For a P-matrix ``M`` the vertex maximum is the true
maximum: ``det(I - D + D M) > 0`` on the cube, each entry of the inverse is
affine in ``d_j`` over that affine determinant, so each absolute row sum is
quasiconvex in every ``d_j``.  There ``oracle_max_norm(m)`` is the maximum
over the cube, up to LAPACK rounding, and any certified upper bound must
dominate it.  On any other ``M`` the maximum is ``+inf``: some principal
minor ``det M_SS <= 0``, and on the segment ``d = t 1_S``, t from 0 to 1,
``det(I - D + D M)`` runs from 1 to it, so it vanishes at some t and the
norm is unbounded near there.  So no interior point adds information on
either kind of input, and the vertex maximum is only a lower bound off P.

The vertices are walked, not inverted one by one.  One walker starts from
each of the 2**(n-w) settings of the first n - w coordinates, the last
w = ``_walk_width(n)`` = (n - 1) // 2 set to 0 (at n <= 2, w = 0: anchors
only), and a chunk of them is inverted in one ``linalg._inverse_stack`` call.
Each walker then flips its last w coordinates in binary-reflected Gray order
(Knuth, TAOCP 4A, 7.2.1.1), 2**w - 1 sequential flips that this w balances
against the 2**(n-w) anchors.  A flip of ``d_j`` switches row j of the member
between ``e_j^T`` and ``m_j^T``, so one Sherman-Morrison update, batched over
the chunk, gives each walker's next inverse and norm in O(n^2).

The walk only ranks the vertices; LAPACK decides every output.  Each row of
a member is a row of ``M`` or of ``I``, so ``max(1, ||M||_inf)`` bounds its
norm, and a walker is flagged when a walked norm times that bound, a bound on
the member's condition number ``||A||_inf ||A^{-1}||_inf``, passes
``_WALK_COND_CAP``: one cap per call, ``_WALK_COND_CAP / max(1, ||M||_inf)``,
which is 0 where a row sum passes the float range.  This also catches a zero
or non-finite denominator; below the cap a walked norm is within about
``2**w * cap * eps`` of its LAPACK value, at most 2**9 * 1e6 * 2.2e-16 =
1.1e-7 for n <= 20, less than ``_WALK_RTOL``.  Every vertex of a flagged
walker, and every vertex whose walked norm lies within ``_WALK_RTOL`` of the
largest unflagged walked norm so far, is evaluated again on LAPACK: each
chunk is built with ``nekrasov._scaled`` and inverted through
``_inverse_stack``, which sums the members' norms from that stack, as
``inverse`` does.  So the value and its argmax are those of a per-point
LAPACK loop, ties keep the first point in that loop's order, and a member is
singular only where LAPACK says so (an exact zero pivot, or one past the
``linalg.PIVOT_RTOL`` rule), which raises :class:`SingularMatrix`.  Where
many vertices tie within ``_WALK_RTOL`` of the maximum, all go back, and the
walk costs about as much as LAPACK alone (4095 of 4096 on the tests'
``random_bnekrasov(12, default_rng(2))``, whose maximum is 1 + 7 ulps).  At
n = 16 each ``random_bnekrasov(16, default_rng(s))``, s = 0 to 3, has a
maximum within 13 ulps of 1 and sends 65535 of its 65536 vertices back:
66047 members with the 512 anchors, and about 11 times the time of
``random_nekrasov(16, default_rng(0))``, which sends one.  A stack of
members, or of walkers' inverses, holds at most ``_CHUNK_ENTRIES`` float64
entries (about 256 KB per temporary), and vertices are decoded from integer
ranges, so memory stays flat in n.

The lemma suite builds no members: the worst case of
each scaling inequality over the cube is a vertex that one O(n^2) pass over
the rows of ``M`` (or ``B+``) finds, and it is compared with the profile the
route carries (see ``lemma_property_suite``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, PreconditionFailed, SingularMatrix
from .linalg import _inf_norms, _inverse_stack, as_matrix, inf_norm, inverse
from .nekrasov import _m_route, _Route, _scaled, scaled_matrix

_ORACLE_MAX_N = 20

# Upper limit on the float64 entries of one stacked chunk of family members.
_CHUNK_ENTRIES = 32768

# The walk (module docstring): a walked condition number past _WALK_COND_CAP flags
# its walker; walked norms within _WALK_RTOL of the walked maximum go back to LAPACK.
_WALK_COND_CAP = 1e6
_WALK_RTOL = 1e-6

# Relative slack on the scaling inequalities, and their names in report
# order.  Both sides are sums of nonnegative terms, so their rounding error
# is relative, at most about 2n ulps (gamma_2n): within 1e-12 for n < 4500.
_LEMMA_SLACK = 1e-12
_LEMMA_CHECKS = ("z_vs_eta", "z_ratio")


@dataclass(frozen=True)
class OracleEstimate:
    """Largest vertex norm and where it occurred.  ``max_observed`` never
    exceeds the true maximum, and for a P-matrix it is that maximum (see the
    module docstring)."""

    max_observed: float
    argmax_d: np.ndarray
    vertex_count: int
    # No interior point is drawn; perfbench/tracing.py counts this with the vertices.
    interior_samples = 0


@dataclass(frozen=True)
class LemmaViolation:
    """A single failed inequality: which check, the 1-based row, the vertex
    that attains its supremum, and the two sides as evaluated."""

    check: str
    row: int
    d: np.ndarray
    lhs: float
    rhs: float


@dataclass(frozen=True)
class LemmaSuiteReport:
    """The violations of the scaling inequalities; ``trials`` counts the rows checked."""

    trials: int
    violations: list[LemmaViolation]

    @property
    def clean(self) -> bool:
        return not self.violations


def norm_at_d(m, d) -> float:
    """``||(I - D + D M)^{-1}||_inf`` at one scaling vector."""
    return inf_norm(inverse(scaled_matrix(m, d)))


def oracle_max_norm(m) -> OracleEstimate:
    """Maximum norm over all cube vertices.

    Ties keep the earliest vertex in binary order.  A Gray-code walk ranks
    the vertices, and those it cannot rule out are evaluated on LAPACK (see
    the module docstring).
    """
    mm = as_matrix(m)
    n = mm.shape[0]
    if n > _ORACLE_MAX_N:
        raise DimensionTooLarge(f"vertex enumeration is limited to n <= {_ORACLE_MAX_N}")
    best = -np.inf
    best_d = np.zeros(n)
    for ds in _vertex_candidates(mm, max(1, _CHUNK_ENTRIES // (n * n))):
        with np.errstate(over="ignore"):
            _, norms, ok = _inverse_stack(_scaled(mm, ds))
        if not ok.all():
            raise SingularMatrix("matrix is numerically singular")
        k = int(np.argmax(norms))
        if norms[k] > best:
            best, best_d = float(norms[k]), ds[k].copy()
    return OracleEstimate(max_observed=best, argmax_d=best_d, vertex_count=2**n)


def _vertex_candidates(mm: np.ndarray, chunk: int):
    """The vertices the walk cannot rule out, in binary order, as ``(k, n)``
    arrays of at most ``chunk`` rows: per ``chunk`` walkers, every vertex of a
    flagged walker and every vertex whose walked norm lies within
    ``_WALK_RTOL`` of the largest unflagged one in this chunk or before it."""
    n = mm.shape[0]
    w = _walk_width(n)
    walkers = 2 ** (n - w)
    with np.errstate(over="ignore"):
        cap = _WALK_COND_CAP / max(1.0, _inf_norms(mm))
    top = -np.inf
    for start in range(0, walkers, chunk):
        walked, flagged = _walk(mm, np.arange(start, min(start + chunk, walkers)), w, cap)
        # A chunk that cannot hold the maximum sends nothing to LAPACK.
        top = walked[~flagged].max(initial=top)
        keep = (walked >= (1.0 - _WALK_RTOL) * top) | flagged[:, None]
        ks = (start << w) + np.flatnonzero(keep)
        for i in range(0, len(ks), chunk):
            yield _vertices(ks[i : i + chunk], n)


def _walk_width(n: int) -> int:
    """The number of coordinates the walk flips at dimension n."""
    return (n - 1) // 2


def _walk(mm: np.ndarray, leads: np.ndarray, w: int, cap: float):
    """Walked inverse norms of the vertices ``(lead << w) + g``, as a
    ``(walkers, 2**w)`` array indexed by ``g``, and a mask of the flagged
    walkers, whose norms are meaningless: those with a singular anchor or a
    walked norm above ``cap``."""
    n = mm.shape[0]
    # Column 0 holds the anchors' inverse norms, as LAPACK's stack gives them.
    walked = np.empty((len(leads), 2**w))
    with np.errstate(over="ignore"):
        inv, walked[:, 0], ok = _inverse_stack(_scaled(mm, _vertices(leads << w, n)))
    outer = np.empty_like(inv)
    ones = np.ones(n)
    g = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(1, 2**w):
            # Reflected Gray order: step t flips bit p, the lowest set bit of t,
            # which is coordinate j = n - 1 - p.
            p = (t & -t).bit_length() - 1
            g ^= 1 << p
            j = n - 1 - p
            # Row j of the member becomes a = m_j (d_j = 1) or e_j (d_j = 0).
            # With v = a B and u = B e_j / v_j, Sherman-Morrison gives
            # B - u v, with column j replaced by u.
            v = mm[j] @ inv if g >> p & 1 else inv[:, j]
            u = inv[:, :, j] / v[:, j, None]
            np.einsum("ki,kj->kij", u, v, out=outer)
            inv -= outer
            inv[:, :, j] = u
            walked[:, g] = (np.abs(inv, out=outer) @ ones).max(axis=1)
    # Written so that a NaN walked norm also flags its walker.
    return walked, ~ok | ~(walked <= cap).all(axis=1)


def _vertices(ks: np.ndarray, n: int) -> np.ndarray:
    """The scaling vectors of vertex numbers ``ks``: bit n-1-i of a vertex
    number is d_i, so binary order has the first coordinate most significant,
    as itertools.product((0, 1), repeat=n) enumerates."""
    return ((ks[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def lemma_property_suite(m) -> LemmaSuiteReport:
    """Exact check of the scaling inequalities behind the bounds.

    For every d in ``[0,1]^n`` and ``Mt = I - D + D M`` the bounds rest on

      * ``h_i(Mt)/mt_ii <= h_i(M)/m_ii``, so that ``Mt`` stays Nekrasov,
      * ``z_i(Mt) <= eta_i(M)``,
      * ``z_i(Mt)/mt_ii <= eta_i(M)/min{m_ii, 1}``.

    ``d_j`` enters only row j of ``Mt``.  With ``S_j = sum_{k<j} |m_jk|
    z_k(Mt)/mt_kk``, ``z_j(Mt)/mt_jj = (1 + d_j S_j)/(1 - d_j + d_j m_jj)``
    is linear-fractional, so monotone, in ``d_j`` and nondecreasing in every
    ratio above it.  So one pass over the rows finds the suprema at a vertex:
    ``q_j* = max{1, (1 + S_j*)/m_jj}`` and ``sup z_i = 1 + S_i*``, which are
    compared with ``eta`` and ``eta/min{m_ii, 1}`` in O(n^2), no member built.

    ``h_i(Mt)/mt_ii = d_i T_i/(1 - d_i + d_i m_ii)``, with ``T_i`` row i's sum
    over the ratios above it and its tail, is increasing in ``d_i`` and in
    every ratio above it.  So it peaks at ``d = 1``, which is ``M``: the first
    check is the precondition itself, and is not evaluated here.

    Each violation carries the vertex that attains its supremum, and they are
    listed by check (``z_vs_eta``, then ``z_ratio``), then row; ``trials`` is
    the number of rows checked.  Requires a Nekrasov ``M`` with positive
    diagonal; any violation reported here indicates an implementation bug.
    ``m`` may also be a route (``nekrasov._Route``) whose ``fault`` is None:
    its matrix is checked with the profile it carries, which is not taken again.
    """
    route = m if isinstance(m, _Route) else _m_route(as_matrix(m))
    a, profile = route.a, route.profile
    if route.fault is not None:
        raise PreconditionFailed("requires a Nekrasov matrix with positive diagonal")
    lhs = _suprema(a)
    rhs = np.stack([profile.eta, profile.ratios[2]])
    with np.errstate(over="ignore"):
        flagged = lhs > rhs * (1.0 + _LEMMA_SLACK)
    # q_j* takes d_j = 1 where it exceeds 1; sup z_i takes d_i = 1 as well.
    vertex = (lhs[1] > 1.0).astype(float)
    violations: list[LemmaViolation] = []
    for c, i in zip(*np.nonzero(flagged)):
        d = vertex.copy()
        if _LEMMA_CHECKS[c] == "z_vs_eta":
            d[i] = 1.0
        violations.append(LemmaViolation(check=_LEMMA_CHECKS[c], row=int(i) + 1, d=d,
                                         lhs=float(lhs[c, i]), rhs=float(rhs[c, i])))
    return LemmaSuiteReport(trials=a.shape[0], violations=violations)


def _suprema(a: np.ndarray) -> np.ndarray:
    """``sup z_i(Mt)`` and ``q_i* = sup z_i(Mt)/mt_ii`` over the members
    ``Mt`` of the family of ``a``, as the rows of a ``(2, n)`` array, from one
    pass over the rows of ``a`` (see ``lemma_property_suite``)."""
    z, q = [], []
    for j, row in enumerate(np.abs(a).tolist()):
        # zip stops at q_j.  Past the float range a Python float is +inf,
        # without a warning, and an unused entry adds nothing (no 0 * inf).
        z.append(1.0 + sum(x * y for x, y in zip(row, q) if x))
        q.append(max(1.0, z[j] / row[j]))
    return np.array([z, q])
