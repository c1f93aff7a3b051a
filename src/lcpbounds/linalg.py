"""Dense real matrix arithmetic on small matrices.

Plain ``numpy`` arrays are the carrier type; :func:`as_matrix` /
:func:`as_vector` validate shape and finiteness at the boundary.  Everything
here is a pure function of its inputs.

Inverses run on numpy's LAPACK backend, one matrix (:func:`inverse`, and
the LCP solver's basis solves) or a stack of them in one call
(:func:`_inverse_stack`, the oracle's chunks).  Either way a matrix is
singular when LAPACK finds an exact zero pivot or when its infinity-norm
condition number exceeds ``1 / PIVOT_RTOL``; it then raises
:class:`SingularMatrix`.  The hand-written partial-pivoting LU
(:func:`lu_factor`, :func:`lu_solve`, :func:`lu_det`) stays public, but no
other routine in the package calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrix

# In lu_factor, a pivot below this fraction of max|A| is treated as an exact
# zero.  The LAPACK inverses use the matching rule: a matrix whose condition
# number ||A||_inf ||A^{-1}||_inf exceeds 1 / PIVOT_RTOL is singular.
PIVOT_RTOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square float64 array."""
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


@dataclass(frozen=True)
class LUFactors:
    """Partial-pivoting factorization ``A[permutation] = lower @ upper``.

    ``permutation`` is a 0-based row ordering.  ``singular_flag`` is set when
    some pivot falls below ``PIVOT_RTOL * max|A|``; the factors are still
    returned but must not be used for solving.
    """

    lower: np.ndarray
    upper: np.ndarray
    permutation: np.ndarray
    singular_flag: bool


def lu_factor(a) -> LUFactors:
    """LU factorization with partial pivoting; singularity is reported, not raised."""
    a = as_matrix(a)
    n = a.shape[0]
    upper = a.copy()
    lower = np.eye(n)
    perm = np.arange(n)
    threshold = PIVOT_RTOL * float(np.max(np.abs(a)))
    singular = False
    for k in range(n):
        p = k + int(np.argmax(np.abs(upper[k:, k])))
        if p != k:
            upper[[k, p], k:] = upper[[p, k], k:]
            lower[[k, p], :k] = lower[[p, k], :k]
            perm[[k, p]] = perm[[p, k]]
        pivot = upper[k, k]
        if abs(pivot) <= threshold:
            # Column is numerically zero below the diagonal (the pivot was the
            # largest entry); zeroing it keeps U triangular.
            singular = True
            upper[k + 1 :, k] = 0.0
            continue
        mult = upper[k + 1 :, k] / pivot
        lower[k + 1 :, k] = mult
        upper[k + 1 :, k:] -= np.outer(mult, upper[k, k:])
        upper[k + 1 :, k] = 0.0
    return LUFactors(lower, upper, perm, singular)


def lu_solve(factors: LUFactors, b) -> np.ndarray:
    """Solve ``A x = b`` from the factors of ``A``; ``b`` may be a vector or matrix."""
    if factors.singular_flag:
        raise SingularMatrix("cannot solve with a singular factorization")
    lower, upper, perm = factors.lower, factors.upper, factors.permutation
    n = lower.shape[0]
    x = np.array(b, dtype=float)[perm]
    for i in range(1, n):
        x[i] -= lower[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - upper[i, i + 1 :] @ x[i + 1 :]) / upper[i, i]
    return x


def lu_det(factors: LUFactors) -> float:
    """Determinant from an LU factorization."""
    sign = _permutation_sign(factors.permutation)
    return sign * float(np.prod(np.diag(factors.upper)))


def _permutation_sign(perm: np.ndarray) -> int:
    sign = 1
    seen = np.zeros(len(perm), dtype=bool)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def inverse(a) -> np.ndarray:
    """Matrix inverse on LAPACK; raises :class:`SingularMatrix` for a
    singular or ill-conditioned matrix (see ``PIVOT_RTOL``)."""
    return _inverse(as_matrix(a))


def _inverse(a: np.ndarray) -> np.ndarray:
    return _inverse_stack(a[None])[0][0]


def _inverse_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a ``(k, n, n)`` stack and their infinity norms, in one
    LAPACK call.  Raises :class:`SingularMatrix` if any member is singular."""
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        raise SingularMatrix("matrix is numerically singular") from None
    inv_norms = np.abs(inv).sum(axis=-1).max(axis=-1)
    cond = np.abs(stack).sum(axis=-1).max(axis=-1) * inv_norms
    # Written so that a NaN condition number also counts as singular.
    if not np.all(cond <= 1.0 / PIVOT_RTOL):
        raise SingularMatrix("matrix is numerically singular")
    return inv, inv_norms


def inf_norm(a) -> float:
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        return float(np.max(np.abs(arr)))
    return float(np.max(np.sum(np.abs(arr), axis=1)))


def comparison_matrix(a) -> np.ndarray:
    """Comparison matrix: |diagonal| on the diagonal, -|entry| off it."""
    m = as_matrix(a)
    c = -np.abs(m)
    np.fill_diagonal(c, np.abs(np.diag(m)))
    return c
