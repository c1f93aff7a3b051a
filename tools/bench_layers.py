"""Per-layer timings of the library, from parsing to certification.

    PYTHONPATH=src python tools/bench_layers.py LABEL

writes ``bench/BENCH_<LABEL>.json``: one row per layer (``parse_matrix``,
``bnekrasov._profiles``, ``all_bounds``, ``classify``, the in-process
``bound`` command and ``lemma_property_suite`` on the route ``verify``
checks) for n = 150 and n = 400, ``parse_matrix_scan`` (the same file with
its (1, 2) entry written as an exact fraction ``p/q``, so the positioned scan
reads it) for n = 150, ``solve_lcp`` with q = -1 for n = 12 and
15, ``oracle_max_norm`` with no samples for n = 12 and 16, ``is_p_matrix``
for n = 12, 16 and 20, and at n = 12 ``certify_error_bound`` with the new
bound at 20 trial points (one solve each), on one Nekrasov and one
B-Nekrasov input each,
with the median and best of ``REPEATS`` timed calls (taken in rounds over
all rows, after one untimed round), the work each call does, and the
environment.  An oracle row's work counts, from one more untimed call, the
members it inverts on LAPACK (``lapack_members``: the walk's anchors and the
vertices evaluated again).
The script uses the standard library and ``lcpbounds`` only, and pins BLAS
to one thread as ``perfbench`` does.  To time another commit, point
``PYTHONPATH`` at its ``src``; the ``commit`` field names the checkout the
package was imported from.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, as perfbench does.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from importlib.metadata import version  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402

import lcpbounds  # noqa: E402
from lcpbounds import bnekrasov, cli, lcp, oracle  # noqa: E402
from lcpbounds.matrixio import format_matrix, parse_matrix  # noqa: E402

SIZES = (150, 400)
SCAN_SIZE = 150
# The solver's limit is n = 15; the oracle's, n = 20, takes seconds per call.
SOLVER_SIZES = (12, 15)
ORACLE_SIZES = (12, 16)
# Certification and the P-test on one input; the P-test also runs at n = 16
# and at its limit, n = 20.
CERTIFY_SIZE = 12
CERTIFY_POINTS = 20
FAMILIES = ("nekrasov", "b_nekrasov")
REPEATS = 40
SEED = 2016
OUT_DIR = Path(__file__).resolve().parent.parent / "bench"


def _nekrasov_rows(n: int, rng: random.Random, z_zero: bool = False) -> list[list[float]]:
    """Off-diagonal entries in [-1, 1] (made -|a| with one zero per row when
    ``z_zero``), each diagonal entry its row's h plus a margin in (0.1, 1)."""
    a = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    if z_zero:
        a = [[-abs(v) for v in row] for row in a]
        for i in range(n):
            a[i][(i + 1) % n] = 0.0
    h = []
    for i, row in enumerate(a):
        acc = sum(abs(v) for v in row[i + 1 :])
        acc += sum(abs(row[j]) / a[j][j] * h[j] for j in range(i))
        h.append(acc)
        row[i] = acc + rng.uniform(0.1, 1.0)
    return a


def _matrix(n: int, family: str, rng: random.Random):
    """A Nekrasov input, or a B-Nekrasov one that is not Nekrasov:
    ``B + r 1^T`` for a Nekrasov Z-matrix ``B`` with a zero in each row and
    ``r_i`` up to 3 ``b_ii``; the class is checked with ``classify``."""
    for _ in range(20):
        if family == "nekrasov":
            rows = _nekrasov_rows(n, rng)
        else:
            rows = _nekrasov_rows(n, rng, z_zero=True)
            shifts = [rng.uniform(0.0, 3.0) * row[i] for i, row in enumerate(rows)]
            rows = [[v + r for v in row] for r, row in zip(shifts, rows)]
        report = bnekrasov.classify(rows)
        wanted = report.is_nekrasov if family == "nekrasov" else (
            report.is_b_nekrasov and not report.is_nekrasov)
        if wanted:
            return lcpbounds.as_matrix(rows)
    raise RuntimeError(f"no {family} input of size {n} in 20 draws")


def _with_fraction(m) -> str:
    """``format_matrix(m)`` with the (1, 2) entry written as the fraction
    ``p/q`` of its exact value: the same matrix, read by the scan."""
    head, first, rest = format_matrix(m).split("\n", 2)
    tokens = first.split(" ")
    tokens[1] = "%d/%d" % m[0, 1].as_integer_ratio()
    return "\n".join([head, " ".join(tokens), rest])


def _tally(owner, name: str, fn, weight) -> int:
    """One untimed call of ``fn`` with ``owner.<name>`` wrapped: the sum of
    ``weight(*args)`` over the wrapped function's calls."""
    original, total = getattr(owner, name), [0]

    def counted(*args, **kwargs):
        total[0] += weight(*args)
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        fn()
    finally:
        setattr(owner, name, original)
    return total[0]


def _solves(fn) -> int:
    """The LAPACK solves one call of ``fn`` makes (the H-test's)."""
    return _tally(bnekrasov.np.linalg, "solve", fn, lambda *args: 1)


def _lapack_members(fn) -> int:
    """The members one call of ``fn`` inverts through the oracle's stacked
    inverse: the walk's anchors and the vertices evaluated again."""
    return _tally(oracle, "_inverse_stack", fn, len)


def _bound(path: str):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bound", "--matrix", path])
        if code != 0:
            raise RuntimeError(f"bound exited {code} on {path}")
    return run


def _certify(inst, bound, points) -> None:
    """``certify_error_bound`` at each trial point, one solve each."""
    for x in points:
        lcp.certify_error_bound(inst, x, bound)


def _rows(workdir: Path) -> list[dict]:
    """Every layer's row; the calls are timed in rounds, one call of each
    layer per round after an untimed one, so that a drift in machine speed
    reaches every row alike."""
    rng = random.Random(SEED)
    rows, calls = [], []

    def add(layer, n, family, fn, work):
        rows.append({"layer": layer, "n": n, "family": family, "repeats": REPEATS, "work": work})
        calls.append(fn)

    for n in SIZES:
        for family in FAMILIES:
            path = workdir / f"{family}_{n}.txt"
            path.write_text(format_matrix(_matrix(n, family, rng)))
            m = parse_matrix(str(path))
            profiles = bnekrasov._profiles(m)
            classify = partial(bnekrasov.classify, profiles)
            layers = {
                "parse_matrix": (partial(parse_matrix, str(path)), {"entries": n * n}),
                "bnekrasov._profiles": (partial(bnekrasov._profiles, m), {"rows": 2 * n}),
                "all_bounds": (partial(bnekrasov.all_bounds, profiles), {"bounds": 4}),
                "classify": (classify, {"solves": _solves(classify)}),
                "cli.bound": (_bound(str(path)), {"entries": n * n}),
                "lemma_property_suite": (partial(oracle.lemma_property_suite, profiles.route),
                                         {"rows": n}),
            }
            if n == SCAN_SIZE:
                scan_path = workdir / f"{family}_{n}_scan.txt"
                scan_path.write_text(_with_fraction(m))
                layers["parse_matrix_scan"] = (partial(parse_matrix, str(scan_path)),
                                               {"entries": n * n})
            for layer, (fn, work) in layers.items():
                add(layer, n, family, fn, work)
    for n in SOLVER_SIZES:
        for family in FAMILIES:
            solve = partial(lcp.solve_lcp, lcp.LcpInstance(_matrix(n, family, rng), [-1.0] * n))
            # Every basis of the sizes up to the answer's.
            bases = sum(comb(n, k) for k in range(len(solve().basis) + 1))
            add("solve_lcp", n, family, solve, {"bases": bases})
    for n in ORACLE_SIZES:
        for family in FAMILIES:
            vertices = partial(oracle.oracle_max_norm, _matrix(n, family, rng), 0)
            add("oracle_max_norm", n, family, vertices,
                {"vertices": 2**n, "lapack_members": _lapack_members(vertices)})
    n = CERTIFY_SIZE
    for family in FAMILIES:
        m = _matrix(n, family, rng)
        add("is_p_matrix", n, family, partial(lcp.is_p_matrix, m), {"minors": 2**n - 1})
        inst = lcp.LcpInstance(m, [-1.0] * n)
        bound = bnekrasov._profiles(m).route.new()
        points = lcp.trial_points(lcp.solve_lcp(inst).x_star, CERTIFY_POINTS, SEED)
        add("certify_error_bound", n, family, partial(_certify, inst, bound, points),
            {"points": CERTIFY_POINTS, "solves": CERTIFY_POINTS})
    for n in (16, 20):
        for family in FAMILIES:
            p_test = partial(lcp.is_p_matrix, _matrix(n, family, rng))
            add("is_p_matrix", n, family, p_test, {"minors": 2**n - 1})
    times = [[] for _ in calls]
    for _ in range(REPEATS + 1):
        for fn, samples in zip(calls, times):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    for row, samples in zip(rows, times):
        row.update(median_s=statistics.median(samples[1:]), best_s=min(samples[1:]))
    return rows


def _commit() -> str:
    package = Path(lcpbounds.__file__).resolve().parent
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                              cwd=package, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0] or "/" in argv[0]:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        rows = _rows(Path(tmp))
    report = {
        "label": argv[0],
        "environment": {
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "blas_threads": int(BLAS_THREADS),
            "cpu_count": os.cpu_count(),
            "commit": _commit(),
        },
        "rows": rows,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        print(f"{row['layer']:>20} n={row['n']:<4} {row['family']:<10} "
              f"median {row['median_s'] * 1e3:8.3f} ms  best {row['best_s'] * 1e3:8.3f} ms")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
