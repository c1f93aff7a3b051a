"""One hash over the command line's outputs, to show that a change leaves them
byte-identical.

    PYTHONPATH=src python tools/same_outputs.py

runs, in-process and in this order: every call of every job of the three
perfbench workloads at seeds 1-3, then ``classify`` on each job's matrix;
then each paper fixture under ``classify``, ``bound``, ``verify`` and ``lcp``
(with ``q = -1``) in ``json`` and ``text``, and under ``sweep``.  It prints
the number of invocations and one sha256 over each invocation's argv, exit
code, stdout and stderr.  Every path on a command line is relative to the
directory the call runs in, so the hash does not depend on where the files
lie.  To hash another commit's outputs, point ``PYTHONPATH`` at its ``src``
and compare the two lines.  The jobs are built by ``perfbench/workloads.py``
of the checkout this script lies in; BLAS is pinned to one thread, as
``perfbench`` pins it.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from lcpbounds import cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
FIXTURE_COMMANDS = ("classify", "bound", "verify", "lcp")
Q_FILE = "q_minus_ones.txt"


def _invoke(argv: list[str]) -> list:
    """``[argv, exit code, stdout, stderr]`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def _calls(workdir: Path):
    """Every argv, in order.  Each workload and seed writes its job files to
    ``workdir`` right before its calls run; its calls then read those alone."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            jobs = workloads.build(workload, seed, workdir)
            yield from (argv for job in jobs for argv, _ in job.calls)
            yield from (["classify", "--matrix", f"{job.name}.txt"] for job in jobs)
    for name in sorted(workloads.FIXTURES):
        matrix = ["--matrix", f"{name}.txt"]
        for command in FIXTURE_COMMANDS:
            q = ["--q", Q_FILE] if command == "lcp" else []
            yield from ([command, *matrix, *q, "--format", fmt] for fmt in ("json", "text"))
        yield ["sweep", *matrix]


def main() -> int:
    digest, count, cwd = hashlib.sha256(), 0, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in [*(f"{fixture}.txt" for fixture in workloads.FIXTURES), Q_FILE]:
            shutil.copyfile(workloads.FIXTURES_DIR / name, workdir / name)
        os.chdir(workdir)
        try:
            for argv in _calls(workdir):
                digest.update(json.dumps(_invoke(argv)).encode() + b"\n")
                count += 1
        finally:
            os.chdir(cwd)
    print(f"{count} invocations sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
