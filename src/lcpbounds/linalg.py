"""Dense real matrix arithmetic on small matrices.

Plain ``numpy`` arrays are the carrier type; :func:`as_matrix` /
:func:`as_vector` validate shape and finiteness at the boundary.  Everything
here is a pure function of its inputs.

Inverses run on numpy's LAPACK backend in stacked calls, through
:func:`_inverse_stack`.  A member counts as singular when LAPACK finds an
exact zero pivot or when its infinity-norm condition number exceeds
``1 / PIVOT_RTOL``, the rule :func:`_well_conditioned` states once, given
``||A||_inf`` and ``||A^{-1}||_inf``, for these inverses and for
``bnekrasov``'s comparison-matrix solve.  :func:`_inverse_stack` reports
such members; :func:`inverse` and the oracle then raise
:class:`SingularMatrix`, and the LCP solver skips their bases.  Both norms
are summed from the stacks themselves, so every caller reads the rule's
norms in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularMatrix

# A matrix whose condition number ||A||_inf ||A^{-1}||_inf exceeds
# 1 / PIVOT_RTOL is treated as singular by the LAPACK inverses.
PIVOT_RTOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square float64 array, a copy."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array."""
    x = np.array(v, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise DomainError(f"expected a nonempty vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("vector entries must be finite")
    return x


def inverse(a) -> np.ndarray:
    """Matrix inverse on LAPACK; raises :class:`SingularMatrix` for a
    singular or ill-conditioned matrix (see ``PIVOT_RTOL``)."""
    with np.errstate(over="ignore"):
        inv, _, ok = _inverse_stack(as_matrix(a)[None])
    if not ok[0]:
        raise SingularMatrix("matrix is numerically singular")
    return inv[0]


def _inverse_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverses of a ``(k, n, n)`` stack, their infinity norms, and a mask of
    the nonsingular members by the ``PIVOT_RTOL`` rule, which reads the
    members' norms, summed here.  ``inv`` and the inverse norms of the other
    members are meaningless.  One LAPACK call, or two when a member has an
    exact zero pivot.  Callers evaluate it under ``np.errstate(over="ignore")``
    (the solver once per solve, not per level), so that a norm past the float
    range is +inf, which the ``PIVOT_RTOL`` rule reads as singular, without
    a warning."""
    try:
        inv = np.linalg.inv(stack)
        ok = np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        # One exact zero pivot, or a NaN where the elimination passed the float
        # range, fails the whole call; slogdet runs the same getrf, so its
        # signs of 0 or NaN mark those members.  They are inverted as I.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ok = np.abs(np.linalg.slogdet(stack)[0]) == 1.0
        inv = np.linalg.inv(np.where(ok[:, None, None], stack, np.eye(stack.shape[-1])))
    inv_norms = _inf_norms(inv)
    ok &= _well_conditioned(_inf_norms(stack), inv_norms)
    return inv, inv_norms, ok


def _inf_norms(stack: np.ndarray) -> np.ndarray:
    """Infinity norms of the members of a ``(k, n, n)`` stack, or of one matrix."""
    return np.abs(stack).sum(axis=-1).max(axis=-1, initial=0.0)


def _well_conditioned(norm, inv_norm):
    """The ``PIVOT_RTOL`` rule ``||A||_inf ||A^{-1}||_inf <= 1 / PIVOT_RTOL``,
    given both norms, for one matrix or elementwise for arrays of them."""
    # Written so that a NaN condition number also counts as singular; one
    # past the float range is +inf, singular as well.
    with np.errstate(over="ignore"):
        return norm * inv_norm <= 1.0 / PIVOT_RTOL


def inf_norm(a) -> float:
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        return float(np.max(np.abs(arr)))
    return float(_inf_norms(arr))


def _row_scaled(a: np.ndarray) -> np.ndarray:
    """``a`` with each row scaled by a power of two to a largest |entry| in
    [1, 2), exact unless an entry falls below the normal range: the P- and
    H-tests run on it, so their verdicts do not depend on the scale of a row."""
    _, e = np.frexp(np.maximum(a.max(axis=1), -a.min(axis=1)))  # no |a| temporary
    return np.ldexp(a, (1 - e)[:, None])


def comparison_matrix(a) -> np.ndarray:
    """Comparison matrix: |diagonal| on the diagonal, -|entry| off it."""
    return _comparison_in_place(as_matrix(a))


def _comparison_in_place(a: np.ndarray) -> np.ndarray:
    """``a`` made its comparison matrix in place, and returned."""
    np.negative(np.abs(a, out=a), out=a)
    np.fill_diagonal(a, -np.diag(a))
    return a
