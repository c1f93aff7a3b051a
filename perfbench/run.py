"""Closed-loop benchmark of the ``lcp-certify`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from
``src/``.  Each workload builds a seeded list of certification jobs (one or
more in-process ``lcpbounds.cli.main`` calls on generated matrix and vector
files), runs it in passes for about ``--seconds``, and checks every output.
Times are scaled to a nominal machine speed with the reference kernel that
runs between jobs (see ``reference.py``), and the whole run keeps to one CPU.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last line
of standard output is one JSON object; a readable report with the failure
ratio, the tail's percentile, every job's argv and the environment goes to
standard error.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: the machine this is
# measured on has two cores, and the matrices are small.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# CPUs this process may run on when it starts, before it pins itself to one.
CPUS = sorted(os.sched_getaffinity(0))

# Fresh interpreters started to measure set-up time; the median is reported.
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import ``lcpbounds.cli``, each
    start scaled to the reference kernel's nominal speed."""
    import reference

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    reference.seconds()  # warm-up: first-call costs are not the kernel's
    before = reference.seconds()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import lcpbounds.cli"], env=env, cwd=ROOT,
                       check=True, timeout=SETUP_TIMEOUT_S)
        wall = perf_counter() - start
        after = reference.seconds()
        times.append(reference.scale(wall, before, after))
        before = after
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import lcpbounds

    return {
        "lcpbounds": lcpbounds.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[0],
        "blas_threads": int(BLAS_THREADS),
    }


def _named(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lcpbounds" / "cli.py").is_file() or not workloads.FIXTURES_DIR.is_dir():
        print(f"error: run from a checkout of the repository ({SRC} and "
              f"{workloads.FIXTURES_DIR} are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The jobs, the fresh interpreters and the reference kernel that scales
    # their times all run on one CPU, so the kernel gauges the CPU they ran on.
    os.sched_setaffinity(0, CPUS[:1])

    setup = None if args.trace else setup_seconds()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    cwd = os.getcwd()
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        os.chdir(workdir)
        outcome = harness.measure(jobs, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)

    e2e, details = harness.end_to_end(jobs, outcome)
    if setup is not None:
        e2e["setup_s"] = (setup, "s")
    metrics = harness.per_layer(jobs, outcome) if args.trace else e2e
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "end_to_end": _named(e2e),
        "details": _named(details),
        "failures": outcome.failures[:20],
        "environment": environment(),
        "spans": {name: {"calls": calls, "self_s": seconds}
                  for name, (calls, seconds) in outcome.tracer.self_times().items()}
        if args.trace else None,
        "jobs": [{"name": job.name, "class": job.cls, "argv": [argv for argv, _ in job.calls]}
                 for job in jobs],
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    attempted = len(jobs) * len(outcome.passes)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": len(outcome.failures),
        "metrics": _named(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
