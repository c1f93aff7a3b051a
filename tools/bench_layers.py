"""Per-layer timings of the library, from parsing to certification.

    PYTHONPATH=src python tools/bench_layers.py LABEL

writes ``bench/BENCH_<LABEL>.json``: the environment and a row per layer,
size and family of ``LAYERS`` and ``FAMILIES``, with the median and best of
``REPEATS`` timed calls, made back to back after one untimed call, and the
work each call does.  ``lapack_members`` counts, from one more untimed call,
the members the oracle inverts on LAPACK: the walk's anchors and the
vertices evaluated again; ``blocks`` counts the principal blocks the LCP
solver inverts, over every solve of the call.  Every layer at one size and
family reads one input, drawn by perfbench's own generators from the seed
``(SEED, n, family)`` alone.  The script needs the standard library,
``lcpbounds`` and ``perfbench/workloads.py`` (a rename there shows up in
CI's Layer benchmark step), and pins BLAS to one thread as ``perfbench``
does.  To time another commit, point ``PYTHONPATH`` at its ``src``; the
``commit`` field names the checkout the package was imported from.
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
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import lcpbounds  # noqa: E402
from lcpbounds import bnekrasov, cli, lcp, oracle  # noqa: E402
from lcpbounds.matrixio import format_matrix, parse_matrix  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402

FAMILIES = (workloads.NEKRASOV, workloads.BNEKRASOV)
REPEATS = 40
SEED = 2016
CERTIFY_POINTS = 20
# lcp_small's support at n = 8, where cli.lcp runs.
LCP_SUPPORT = 3
OUT_DIR = ROOT / "bench"


def _input(workdir: Path, n: int, family: str) -> SimpleNamespace:
    """The input at (n, family): a matrix of the family, drawn as the
    workloads draw theirs, and the ``q`` lcp_small pairs with it."""
    rng = np.random.default_rng([SEED, n, FAMILIES.index(family)])
    m = workloads._generate(rng, n, family)
    q, _ = workloads.lcp_instance(rng, m, LCP_SUPPORT)
    path = workdir / f"{family}_{n}.txt"
    path.write_text(format_matrix(m))
    return SimpleNamespace(n=n, m=m, q=q, path=str(path), profiles=bnekrasov._profiles(m))


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


def _cli(*argv: str):
    """The in-process command ``argv``, its output discarded; it must exit 0."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return run


# The builders below and in LAYERS take a row's input ``c``: its size ``c.n``,
# matrix ``c.m``, file ``c.path``, profiles ``c.profiles`` and lcp_small's
# ``c.q``.  Each returns the row's call and the work one call does.

def _scan(c):
    """The input with its (1, 2) entry written as the fraction ``p/q`` of its
    exact value: the same matrix, read by the positioned scan."""
    head, first, rest = format_matrix(c.m).split("\n", 2)
    tokens = first.split(" ")
    tokens[1] = "%d/%d" % c.m[0, 1].as_integer_ratio()
    path = c.path.replace(".txt", "_scan.txt")
    Path(path).write_text("\n".join([head, " ".join(tokens), rest]))
    return partial(parse_matrix, path), {"entries": c.n * c.n}


def _once(*args) -> int:
    """The weight that makes ``_tally`` count calls."""
    return 1


def _classify(c):
    """``classify`` and its work: the H-test's solves and the P-test's calls."""
    classify = partial(bnekrasov.classify, c.profiles)
    return classify, {"solves": _tally(bnekrasov.np.linalg, "solve", classify, _once),
                      "p_tests": _tally(lcp, "is_p_matrix", classify, _once)}


def _blocks(fn) -> int:
    """The principal blocks the solver inverts in one call of ``fn``, over all its solves."""
    return _tally(lcp, "_inverse_stack", fn, len)


def _solve(c):
    """``solve_lcp`` with q = -1."""
    solve = partial(lcp.solve_lcp, lcp.LcpInstance(c.m, [-1.0] * c.n))
    return solve, {"blocks": _blocks(solve)}


def _walked(c, fn):
    """``fn`` and its work: the cube's vertices, and the members one call of
    ``fn`` inverts through the oracle's stacked inverse."""
    return fn, {"vertices": 2**c.n, "lapack_members": _tally(oracle, "_inverse_stack", fn, len)}


def _certify(c):
    """``certify_error_bound`` with the new bound, q = -1, at ``CERTIFY_POINTS``
    trial points, one solve each."""
    inst, bound = lcp.LcpInstance(c.m, [-1.0] * c.n), c.profiles.route.new()
    points = lcp.trial_points(lcp.solve_lcp(inst).x_star, CERTIFY_POINTS, SEED)

    def certify():
        return [lcp.certify_error_bound(inst, x, bound) for x in points]
    return certify, {"points": CERTIFY_POINTS, "solves": _tally(lcp, "solve_lcp", certify, _once)}


def _lcp(c):
    """``lcp`` on ``c.q``, written as lcp_small writes it."""
    path = c.path.replace(".txt", "_q.txt")
    workloads._write_vector(Path(path), c.q)
    run = _cli("lcp", "--matrix", c.path, "--q", path, "--trials", str(workloads.LCP_TRIALS))
    return run, {"blocks": _blocks(run), "trials": workloads.LCP_TRIALS}


# Each layer's sizes and its builder.  The bound command's layers run at
# bound_large's sizes and at n = 7, verify_small's median job's, which
# cli.verify shares; cli.lcp runs at lcp_small's median job's.  The solver's
# limit is n = 15, the P-test's n = 20, and the oracle's, n = 20, takes
# seconds per call.  classify also runs at the P-test's sizes, where its
# inputs, all in their class, take no P-test.
REFERENCE = OUT_DIR / "BENCH_walk-width.json"
_BOUND = (150, 400, 7)
LAYERS = {
    "parse_matrix": (_BOUND, lambda c: (partial(parse_matrix, c.path), {"entries": c.n**2})),
    "bnekrasov._profiles": (
        _BOUND, lambda c: (partial(bnekrasov._profiles, c.m), {"rows": 2 * c.n})),
    "all_bounds": (_BOUND, lambda c: (partial(bnekrasov.all_bounds, c.profiles), {"bounds": 4})),
    "classify": (_BOUND + (12, 16, 20), _classify),
    "cli.bound": (_BOUND, lambda c: (_cli("bound", "--matrix", c.path), {"entries": c.n**2})),
    "lemma_property_suite": (_BOUND, lambda c: (
        partial(oracle.lemma_property_suite, c.profiles.route), {"rows": c.n})),
    "parse_matrix_scan": ((150,), _scan),
    "solve_lcp": ((12, 15), _solve),
    "oracle_max_norm": ((12, 16), lambda c: _walked(c, partial(oracle.oracle_max_norm, c.m))),
    "is_p_matrix": (
        (12, 16, 20), lambda c: (partial(lcp.is_p_matrix, c.m), {"minors": 2**c.n - 1})),
    "certify_error_bound": ((12,), _certify),
    "cli.verify": ((7, 11), lambda c: _walked(c, _cli("verify", "--matrix", c.path))),
    "cli.lcp": ((8,), _lcp),
}
# Every (layer, n, family), in the order the rows are built.
ROWS = [(layer, n, family) for layer, (sizes, _) in LAYERS.items() for n in sizes
        for family in FAMILIES]


def _rows(workdir: Path) -> list[dict]:
    """Every row of ``ROWS``: one untimed call, then ``REPEATS`` timed calls
    back to back, so that no other row's call runs between them."""
    inputs, rows = {}, []
    for layer, n, family in ROWS:
        if (n, family) not in inputs:
            inputs[n, family] = _input(workdir, n, family)
        fn, work = LAYERS[layer][1](inputs[n, family])
        fn()
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        rows.append({"layer": layer, "n": n, "family": family, "repeats": REPEATS, "work": work,
                     "median_s": statistics.median(samples), "best_s": min(samples)})
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
    env = {"python": platform.python_version(), "numpy": version("numpy"),
           "blas_threads": int(BLAS_THREADS), "cpu_count": os.cpu_count(), "commit": _commit()}
    report = {"label": argv[0], "environment": env, "rows": rows}
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
