"""Seeded inputs, job lists and output checks for the three workloads.

A job is one or more ``lcp-certify`` invocations on generated files.  Every
matrix class is asserted with ``lcpbounds.bnekrasov.classify`` when the job
list is built, and every reference value the checks compare against is
computed here with numpy, so none of it runs inside a timed region.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from itertools import combinations, islice, product
from pathlib import Path

import numpy as np

# Pinned CLI parameters.  The library's defaults may change; the workloads
# must not change with them.
VERIFY_SAMPLES = 1000
LCP_TRIALS = 10

# Tolerances of the output checks.
REL_TOL = 1e-9        # new_* bound values against the numpy reference
FEAS_TOL = 1e-9       # x* >= 0, Mx* + q >= 0, |x*_i w*_i| when recomputed
_STRICT_RTOL = 1e-12  # the library's strict-inequality slack

# The paper's four worked examples and the value each must reproduce.
FIXTURES = {
    "example1": ("new_nekrasov", 3.6414, 5e-5),
    "example2": ("new_nekrasov", 15.0, 15.0 * REL_TOL),
    "example3": ("new_bnekrasov", 126.0, 1e-6),
    "example4": ("new_bnekrasov", 25.2, 25.2 * REL_TOL),
}

NEKRASOV, BNEKRASOV, NEITHER = "nekrasov", "b_nekrasov", "neither"

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


@dataclass
class Ref:
    """What the checks compare one job's outputs against."""

    m: np.ndarray
    new_bounds: dict[str, float | None]   # theorem -> value, None when not applicable
    norm_floor: float | None = None       # lower bound on max_d ||(I-D+DM)^-1||_inf
    paper: tuple[str, float, float] | None = None
    q: np.ndarray | None = None
    x_star: np.ndarray | None = None


@dataclass
class Job:
    name: str
    n: int
    cls: str
    calls: list[tuple[list[str], int]]    # (argv, expected exit code)
    ref: Ref


# ---------------------------------------------------------------- references

def _forward(abs_a: np.ndarray, divisors: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``v_i = base_i + sum_{j<i} abs_a[i, j] v_j / divisors[j]``, row by row."""
    v = np.array(base, dtype=float)
    for i in range(1, v.shape[0]):
        v[i] += abs_a[i, :i] @ (v[:i] / divisors[:i])
    return v


def _h(a: np.ndarray) -> np.ndarray:
    abs_a = np.abs(a)
    return _forward(abs_a, np.abs(np.diag(a)), np.triu(abs_a, 1).sum(axis=1))


def _new_bound(a: np.ndarray) -> float | None:
    """``max_i eta_i / min{a_ii - h_i, 1}`` for Nekrasov ``a`` with positive diagonal."""
    d = np.diag(a)
    if np.any(d <= _STRICT_RTOL * np.maximum(1.0, np.abs(d))):
        return None
    margins = d - _h(a)
    if np.any(margins <= _STRICT_RTOL * np.maximum(1.0, d)):
        return None
    eta = _forward(np.abs(a), np.minimum(d, 1.0), np.ones(a.shape[0]))
    return float(np.max(eta / np.minimum(margins, 1.0)))


def b_plus(m: np.ndarray) -> np.ndarray:
    masked = m.copy()
    np.fill_diagonal(masked, -np.inf)
    return m - np.maximum(masked.max(axis=1), 0.0)[:, None]


def new_bounds(m: np.ndarray) -> dict[str, float | None]:
    """Reference values of the two parameter-free bounds."""
    n = m.shape[0]
    bnek = _new_bound(b_plus(m))
    return {
        "new_nekrasov": _new_bound(m),
        "new_bnekrasov": None if bnek is None else (n - 1) * bnek,
    }


def vertex_max_norm(m: np.ndarray) -> float:
    """Exact ``max over vertices d of ||(I - D + D M)^-1||_inf``, batched."""
    n = m.shape[0]
    d = np.array(list(product((0.0, 1.0), repeat=n)))
    stack = d[:, :, None] * m[None, :, :]
    idx = np.arange(n)
    stack[:, idx, idx] = 1.0 - d + d * np.diag(m)
    return float(np.abs(np.linalg.inv(stack)).sum(axis=2).max())


def endpoint_norm(m: np.ndarray) -> float:
    """``max(1, ||M^-1||_inf)``: the norm at the vertices d = 0 and d = 1."""
    return max(1.0, float(np.abs(np.linalg.inv(m)).sum(axis=1).max()))


# ---------------------------------------------------------------- generators

def nekrasov_matrix(rng, n: int, *, z_matrix: bool = False,
                    zero_upper_row: bool = False, zero_per_row: bool = False,
                    dominance: tuple[float, float] = (0.5, 0.9)) -> np.ndarray:
    """Nekrasov matrix with positive diagonal whose later rows are usually
    not diagonally dominant.

    Off-diagonal rows sum to about 1 in magnitude.  The diagonal is set so
    that ``h_i / a_ii = rho_i``, with ``rho`` rising from ``dominance[0]`` to
    ``dominance[1]`` along the rows (jittered by 0.01); because
    ``h_j / a_jj = rho_j``, the recursion closes to
    ``h_i = tail_i + sum_{j<i} |a_ij| rho_j``.  A fixed ``rho`` profile keeps
    the bounds' looseness, and with it ``tightness_p50``, alike from seed to
    seed.  ``dominance`` above 1 gives a matrix that fails the Nekrasov test.
    """
    a = rng.uniform(0.75, 1.25, (n, n)) / (n - 1)
    if not z_matrix:
        a *= np.where(rng.random((n, n)) < 0.3, 1.0, -1.0)
    else:
        a = -a
    if zero_per_row:
        # B+ keeps a row unchanged only when its largest off-diagonal entry is 0.
        for i in range(n):
            a[i, rng.choice([j for j in range(n) if j != i])] = 0.0
    if zero_upper_row:
        # A row with nothing right of the diagonal: the gp bound does not apply.
        row = int(rng.integers(1, n - 1))
        a[row, row + 1:] = 0.0
    rho = np.linspace(*dominance, n) + rng.uniform(-0.01, 0.01, n)
    abs_a = np.abs(a)
    np.fill_diagonal(abs_a, 0.0)
    h = np.triu(abs_a, 1).sum(axis=1) + np.tril(abs_a, -1) @ rho
    np.fill_diagonal(a, h / rho)
    return a


def b_nekrasov_matrix(rng, n: int, *, neither: bool = False) -> np.ndarray:
    """``M = B + r 1^T`` with ``B`` a Z-matrix that has a zero off-diagonal
    entry in every row, so that ``B+`` of ``M`` is ``B``.  ``B`` is Nekrasov
    unless ``neither``; the rank-1 shift makes ``M`` itself fail the test."""
    b = nekrasov_matrix(rng, n, z_matrix=True, zero_per_row=True,
                        dominance=(1.2, 1.6) if neither else (0.5, 0.9))
    r = rng.uniform(0.6, 1.0, n) * np.diag(b)
    return b + r[:, None]


def lcp_instance(rng, m: np.ndarray, support: int):
    """``q`` whose unique solution has ``support`` positive entries.

    The support is the middle ``support``-subset in lexicographic order.  The
    enumeration solver tries bases in (cardinality, lexicographic) order, so
    its work is then fixed by ``n`` and ``support``; the seed varies only the
    values of ``M``, ``x*`` and ``w*``.
    """
    n = m.shape[0]
    s = list(next(islice(combinations(range(n), support), math.comb(n, support) // 2, None)))
    x = np.zeros(n)
    x[s] = rng.uniform(0.5, 2.0, support)
    w = rng.uniform(0.5, 2.0, n)
    w[s] = 0.0
    return w - m @ x, x


def _generate(rng, n: int, cls: str, zero_upper_row: bool = False) -> np.ndarray:
    """Draw until ``classify`` confirms the intended class."""
    from lcpbounds.bnekrasov import classify

    for _ in range(20):
        if cls == NEKRASOV:
            m = nekrasov_matrix(rng, n, zero_upper_row=zero_upper_row)
        else:
            m = b_nekrasov_matrix(rng, n, neither=cls == NEITHER)
        report = classify(m)
        drawn = (NEKRASOV if report.is_nekrasov
                 else BNEKRASOV if report.is_b_nekrasov else NEITHER)
        if drawn == cls:
            return m
    raise RuntimeError(f"could not draw a {cls} matrix of size {n}")


# ---------------------------------------------------------------- job lists

def _write_matrix(path: Path, m: np.ndarray) -> None:
    from lcpbounds.matrixio import format_matrix

    path.write_text(format_matrix(m))


def _write_vector(path: Path, v: np.ndarray) -> None:
    path.write_text(" ".join(repr(float(x)) for x in v) + "\n")


def _epsilon(m: np.ndarray, cls: str) -> float:
    """Midpoint of the admissible epsilon interval, as the CLI would pick it,
    so that passing it explicitly pins the workload."""
    if cls == NEITHER:
        return 0.5
    a = m if cls == NEKRASOV else b_plus(m)
    return float((1.0 - _h(a)[-1] / a[-1, -1]) / 2.0)


# The job lists are fixed tables, so a job's cost depends on the seed only
# through the values in its matrix.  Each list is long enough (more than 21
# jobs) for the tail percentile, with 10 jobs beyond it, to lie above the
# median, and short enough for several passes in one run.  Eight jobs of one
# kind fill the middle of each list, so that the median job latency is the
# typical latency of eight like jobs, not one matrix's value.


def _mix(n: int, k: int) -> str:
    """One Nekrasov job in four.  B-Nekrasov bounds carry a factor n - 1 and
    are far looser, so with equal shares the median tightness would fall in
    the gap between the two classes and jump from seed to seed."""
    return NEKRASOV if (n + k) % 4 == 0 else BNEKRASOV


# n -> number of generated verify jobs.  Vertex enumeration doubles with n,
# so the two largest sizes run once per pass.
VERIFY_SIZES = {4: 1, 5: 2, 6: 1, 7: 8, 8: 3, 9: 3, 10: 1, 11: 1}


def verify_small(rng, workdir: Path, seed: int) -> list[Job]:
    from lcpbounds.matrixio import parse_matrix

    jobs = []
    for name, paper in FIXTURES.items():
        shutil.copyfile(FIXTURES_DIR / f"{name}.txt", workdir / f"{name}.txt")
        m = parse_matrix(str(workdir / f"{name}.txt"))
        jobs.append(_verify_job(name, m, NEKRASOV if paper[0] == "new_nekrasov" else BNEKRASOV,
                                seed, paper=paper))
    for n, count in VERIFY_SIZES.items():
        for k in range(count):
            cls = _mix(n, k)
            m = _generate(rng, n, cls, zero_upper_row=k % 2 == 1)
            name = f"v{n:02d}{k}"
            _write_matrix(workdir / f"{name}.txt", m)
            jobs.append(_verify_job(name, m, cls, seed))
    return jobs


def _verify_job(name: str, m: np.ndarray, cls: str, seed: int, paper=None) -> Job:
    argv = ["verify", "--matrix", f"{name}.txt", "--samples", str(VERIFY_SAMPLES),
            "--seed", str(seed), "--epsilon", repr(_epsilon(m, cls))]
    return Job(name, m.shape[0], cls, [(argv, 0)], Ref(m, new_bounds(m), paper=paper))


# Job cost clusters by size and class: at n=150 the Nekrasov and neither-class
# jobs cost about 0.8 of a B-Nekrasov one.  Eight cheap jobs and eight
# n=150 B-Nekrasov jobs put the median and the tail (the 12th and 13th of 23)
# inside the B-Nekrasov cluster, not at the boundary between clusters.
BOUND_SIZES = (150, 150, 250, 150, 150, 400, 250, 150, 150, 150, 150, 250,
               150, 150, 150, 250, 400, 150, 150, 250, 150, 150, 150)
# Eleven Nekrasov, ten B-Nekrasov and two neither-class inputs.  With an odd
# number of bounded jobs the median tightness is one job's value, not the
# mean of two jobs from different classes.
BOUND_CLASSES = ((NEKRASOV, BNEKRASOV) * 5 + (NEITHER,)) * 2 + (NEKRASOV,)


def bound_large(rng, workdir: Path, seed: int) -> list[Job]:
    jobs = []
    for k, (n, cls) in enumerate(zip(BOUND_SIZES, BOUND_CLASSES, strict=True)):
        m = _generate(rng, n, cls)
        name = f"b{k:02d}"
        _write_matrix(workdir / f"{name}.txt", m)
        argv = ["bound", "--matrix", f"{name}.txt", "--epsilon", repr(_epsilon(m, cls)),
                "--theorem", "all"]
        ref = Ref(m, new_bounds(m), norm_floor=None if cls == NEITHER else endpoint_norm(m))
        jobs.append(Job(name, n, cls, [(argv, 2 if cls == NEITHER else 0)], ref))
    return jobs


# n -> sizes of the solution's support.  Enumeration cost grows with the
# number of bases ranked before the support, so the largest supports appear
# only at small n.
LCP_SUPPORTS = {6: (1, 2, 3, 5), 7: (1, 2, 3, 5), 8: (3,) * 8,
                9: (1, 3, 5), 10: (2, 4), 11: (2, 3, 5)}


def lcp_small(rng, workdir: Path, seed: int) -> list[Job]:
    jobs = []
    for n, supports in LCP_SUPPORTS.items():
        for k, support in enumerate(supports):
            cls = _mix(n, k)
            m = _generate(rng, n, cls)
            q, x_star = lcp_instance(rng, m, support)
            name = f"l{n:02d}{k}"
            _write_matrix(workdir / f"{name}.txt", m)
            _write_vector(workdir / f"{name}.q.txt", q)
            eps = repr(_epsilon(m, cls))
            calls = [
                (["bound", "--matrix", f"{name}.txt", "--epsilon", eps, "--theorem", "all"], 0),
                (["lcp", "--matrix", f"{name}.txt", "--q", f"{name}.q.txt", "--epsilon", eps,
                  "--trials", str(LCP_TRIALS), "--seed", str(seed)], 0),
            ]
            ref = Ref(m, new_bounds(m), norm_floor=vertex_max_norm(m), q=q, x_star=x_star)
            jobs.append(Job(name, n, cls, calls, ref))
    return jobs


WORKLOADS = {"verify_small": verify_small, "bound_large": bound_large, "lcp_small": lcp_small}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list; input files are written into ``workdir``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, workdir, seed)


# ---------------------------------------------------------------- checks

def check_call(argv: list[str], expected_code: int, code, text: str, ref: Ref) -> list[str]:
    """Problems with one invocation's result; empty when it passes."""
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}"]
    try:
        data = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    problems = []
    command = argv[0]
    if command in ("bound", "verify"):
        problems += _check_bounds(data, ref)
    if command == "verify":
        problems += _check_verify(data, ref)
    if command == "lcp":
        problems += _check_lcp(data, ref)
    return problems


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _check_bounds(data: dict, ref: Ref) -> list[str]:
    problems = []
    reported = {b["theorem"]: b for b in data["bounds"]}
    for theorem, want in ref.new_bounds.items():
        got = reported[theorem]
        if got["applicable"] != (want is not None):
            problems.append(f"{theorem} applicable={got['applicable']}, reference says {want is not None}")
        elif want is not None and not _close(got["value"], want):
            problems.append(f"{theorem} = {got['value']!r}, reference {want!r}")
    if ref.paper is not None:
        theorem, value, tol = ref.paper
        got = reported[theorem].get("value")
        if got is None or abs(got - value) > tol:
            problems.append(f"{theorem} = {got!r}, paper value {value}")
    return problems


def _check_verify(data: dict, ref: Ref) -> list[str]:
    problems = [f"{b['theorem']} not dominated" for b in data["bounds"]
                if b["applicable"] and b.get("dominated") is not True]
    suite = data["lemma_suite"]
    if suite is None or suite["violations"] != 0:
        problems.append(f"lemma suite: {suite}")
    if data["kolotilina"].get("dominates_inverse_norm") is False:
        problems.append("kolotilina bound below ||M^-1||_inf")
    return problems


def _check_lcp(data: dict, ref: Ref) -> list[str]:
    x = np.array(data["x_star"], dtype=float)
    w = ref.m @ x + ref.q
    problems = []
    if np.any(x < -FEAS_TOL) or np.any(w < -FEAS_TOL):
        problems.append("x* or Mx* + q has a negative entry")
    if np.max(np.abs(x * w)) > FEAS_TOL * (1.0 + np.max(np.abs(x))):
        problems.append("x* and Mx* + q are not complementary")
    if not np.allclose(x, ref.x_star, rtol=1e-8, atol=1e-10):
        problems.append("x* differs from the generated solution")
    if data["all_hold"] is not True or len(data["certificates"]) != LCP_TRIALS:
        problems.append(f"certificates: all_hold={data['all_hold']}, {len(data['certificates'])} trials")
    return problems


def tightness(argv: list[str], text: str, ref: Ref) -> float | None:
    """Smallest applicable bound divided by a lower bound on the exact
    worst-case norm: the oracle's maximum for ``verify``, else the
    reference's ``norm_floor``.  None for outputs with no bound."""
    data = json.loads(text)
    values = [b["value"] for b in data.get("bounds", []) if b["applicable"]]
    if not values or argv[0] not in ("bound", "verify"):
        return None
    floor = data["oracle"]["max_observed"] if argv[0] == "verify" else ref.norm_floor
    return min(values) / floor if floor else None
