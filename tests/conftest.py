from pathlib import Path

import numpy as np
import pytest

import _rational

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def ex1():
    return _rational.to_floats(_rational.EXAMPLE1)


@pytest.fixture
def ex2():
    return _rational.to_floats(_rational.EXAMPLE2)


@pytest.fixture
def ex3():
    return _rational.to_floats(_rational.EXAMPLE3)


@pytest.fixture
def ex4():
    return _rational.to_floats(_rational.EXAMPLE4)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def random_nekrasov(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Nekrasov matrix with positive diagonal: sample off-diagonal
    entries in [-1, 1], then set each diagonal entry to its row dominance
    value plus a margin in (0.1, 1), row by row in index order."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    h = np.zeros(n)
    for i in range(n):
        acc = float(np.abs(a[i, i + 1 :]).sum())
        for j in range(i):
            acc += abs(a[i, j]) / a[j, j] * h[j]
        h[i] = acc
        a[i, i] = acc + rng.uniform(0.1, 1.0)
    return a


def random_bnekrasov(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random B-Nekrasov matrix: sample off-diagonal entries in [-1, 1], then
    set each diagonal entry to ``r_i`` plus the row's dominance value in
    ``B+`` plus a margin in (0.1, 1), row by row in index order."""
    m = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(m, -np.inf)
    r = np.maximum(m.max(axis=1), 0.0)
    b = m - r[:, None]
    h = np.zeros(n)
    for i in range(n):
        acc = float(np.abs(b[i, i + 1 :]).sum())
        for j in range(i):
            acc += abs(b[i, j]) / b[j, j] * h[j]
        h[i] = acc
        b[i, i] = acc + rng.uniform(0.1, 1.0)
        m[i, i] = r[i] + b[i, i]
    return m


@pytest.fixture
def make_nekrasov():
    return random_nekrasov


@pytest.fixture
def make_bnekrasov():
    return random_bnekrasov
