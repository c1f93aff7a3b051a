"""Exact-rational re-evaluations of the recursions and bound formulas.

These run entirely in ``fractions.Fraction`` arithmetic and serve as
independent oracles for the float implementation: expected values in the
tests were computed here and frozen, and several tests compare the two paths
directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

F = Fraction

EXAMPLE1 = [
    [F(5), F(-1, 5), F(-2, 5), F(-1, 2)],
    [F(-1, 10), F(2), F(-1, 2), F(-1, 10)],
    [F(-1, 2), F(-1, 10), F(3, 2), F(-1, 10)],
    [F(-2, 5), F(-2, 5), F(-4, 5), F(6, 5)],
]

EXAMPLE2 = [
    [F(1), F(-2, 5), F(-2, 5), F(0)],
    [F(-1, 2), F(1), F(-1, 4), F(-1, 4)],
    [F(-2, 5), F(-2, 5), F(1), F(0)],
    [F(-1, 5), F(-2, 5), F(-2, 5), F(1)],
]

EXAMPLE3 = [
    [F(1), F(1, 3), F(1, 3), F(1, 2)],
    [F(1, 5), F(1), F(-2, 5), F(1, 5)],
    [F(-1), F(0), F(1), F(-1, 6)],
    [F(3, 4), F(3, 4), F(1, 2), F(1)],
]

EXAMPLE4 = [
    [F(1), F(1, 2), F(1, 2), F(1, 2)],
    [F(1, 5), F(1), F(-2, 5), F(1, 5)],
    [F(-1), F(0), F(1), F(-1, 6)],
    [F(3, 4), F(3, 4), F(1, 2), F(1)],
]


def to_floats(m: list[list[Fraction]]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in m])


def h_exact(m: list[list[Fraction]]) -> list[Fraction]:
    n = len(m)
    h: list[Fraction] = []
    for i in range(n):
        acc = sum((abs(m[i][j]) for j in range(i + 1, n)), F(0))
        for j in range(i):
            if m[i][j]:
                acc += abs(m[i][j]) / abs(m[j][j]) * h[j]
        h.append(acc)
    return h


def z_exact(m: list[list[Fraction]]) -> list[Fraction]:
    n = len(m)
    z: list[Fraction] = []
    for i in range(n):
        acc = F(1)
        for j in range(i):
            if m[i][j]:
                acc += abs(m[i][j]) / abs(m[j][j]) * z[j]
        z.append(acc)
    return z


def eta_exact(m: list[list[Fraction]]) -> list[Fraction]:
    n = len(m)
    eta: list[Fraction] = []
    for i in range(n):
        acc = F(1)
        for j in range(i):
            if m[i][j]:
                acc += abs(m[i][j]) / min(abs(m[j][j]), F(1)) * eta[j]
        eta.append(acc)
    return eta


def kolotilina_exact(m: list[list[Fraction]]) -> Fraction:
    h = h_exact(m)
    z = z_exact(m)
    return max(z[i] / (abs(m[i][i]) - h[i]) for i in range(len(m)))


def new_nekrasov_exact(m: list[list[Fraction]]) -> Fraction:
    h = h_exact(m)
    eta = eta_exact(m)
    return max(eta[i] / min(m[i][i] - h[i], F(1)) for i in range(len(m)))


def gp_nekrasov_exact(m: list[list[Fraction]], eps: Fraction) -> Fraction:
    n = len(m)
    h = h_exact(m)
    w = [h[i] / m[i][i] for i in range(n)]
    w[n - 1] += eps
    s = [
        sum((abs(m[i][j]) * (1 - w[j]) for j in range(i + 1, n)), F(0))
        for i in range(n - 1)
    ]
    s.append(eps * m[n - 1][n - 1])
    return max(max(w) / min(s), max(w) / min(w))


def bplus_exact(m: list[list[Fraction]]):
    n = len(m)
    r = [max([F(0)] + [m[i][j] for j in range(n) if j != i]) for i in range(n)]
    b = [[m[i][j] - r[i] for j in range(n)] for i in range(n)]
    return b, r


def new_bnekrasov_exact(m: list[list[Fraction]]) -> Fraction:
    """The route rule: n - 1 times the new Nekrasov formula on ``B+``."""
    return (len(m) - 1) * new_nekrasov_exact(bplus_exact(m)[0])


def gp_bnekrasov_exact(m: list[list[Fraction]], eps: Fraction) -> Fraction:
    n = len(m)
    b, _ = bplus_exact(m)
    h = h_exact(b)
    w = [h[i] / b[i][i] for i in range(n)]
    w[n - 1] += eps
    bbar = [[b[i][j] * w[j] for j in range(n)] for i in range(n)]
    beta = [
        bbar[i][i] - sum((abs(bbar[i][j]) for j in range(n) if j != i), F(0))
        for i in range(n)
    ]
    delta = min(beta[i] / w[i] for i in range(n))
    return (n - 1) * max(w) / (min(delta, F(1)) * min(w))


def inverse_exact(a: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse in exact arithmetic; None for a singular matrix."""
    n = len(a)
    rows = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def det_exact(a: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination in exact arithmetic."""
    rows = [list(row) for row in a]
    det = F(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        lead = rows[col][col]
        det *= lead
        for r in range(col + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[col])]
    return det


def is_p_matrix_exact(m: list[list[Fraction]]) -> bool:
    """Every principal minor of ``M`` is positive, in exact arithmetic."""
    n = len(m)
    return all(
        det_exact([[m[i][j] for j in alpha] for i in alpha]) > 0
        for size in range(1, n + 1)
        for alpha in combinations(range(n), size)
    )


def row_scaled_exact(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Each row of ``M`` times the power of two that brings its largest
    |entry| into [1, 2); a zero row stays zero."""
    out = []
    for row in m:
        top, s = max(abs(v) for v in row), F(1)
        if top:
            while top * s >= 2:
                s /= 2
            while top * s < 1:
                s *= 2
        out.append([v * s for v in row])
    return out


def is_h_matrix_exact(m: list[list[Fraction]], max_condition: Fraction) -> bool:
    """``M`` is an H-matrix: its comparison matrix ``<M>`` is nonsingular with
    ``<M>^{-1} >= 0``, here also with the infinity-norm condition number of
    the row-scaled ``<M>`` (``row_scaled_exact``) at most ``max_condition``
    (the library counts a worse-conditioned one as singular)."""
    n = len(m)
    c = [[abs(v) if i == j else -abs(v) for j, v in enumerate(row)]
         for i, row in enumerate(row_scaled_exact(m))]
    inv = inverse_exact(c)
    if inv is None or any(v < 0 for row in inv for v in row):
        return False
    norm = max(sum(abs(v) for v in row) for row in c)
    return norm * max(sum(row) for row in inv) <= max_condition
