"""Tests of the benchmark itself, on short job lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads before numpy is imported)

sys.path.insert(0, str(run.SRC))
import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lcpbounds import cli  # noqa: E402
from lcpbounds.lcp import _enumerate_bases  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def smallest_jobs(workload: str, workdir: Path, count: int = 3) -> list[workloads.Job]:
    jobs = workloads.build(workload, SEED, workdir)
    return sorted(jobs, key=lambda job: job.n)[:count]


@pytest.mark.parametrize("workload", ["verify_small", "bound_large", "lcp_small"])
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path, monkeypatch):
    jobs = smallest_jobs(workload, tmp_path)
    monkeypatch.chdir(tmp_path)
    outcome = harness.measure(jobs, 0.0, trace=True)
    assert outcome.failures == []
    e2e, details = harness.end_to_end(jobs, outcome)
    e2e["setup_s"] = (1.0, "s")
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    assert details["failed_ratio"] == (0.0, "ratio")
    layers = harness.per_layer(jobs, outcome)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    # Self times of all layers add up to the traced job time.
    self_total = sum(layers[metric][0] for metric in {metric for metric, _ in tracing.SPANS.values()})
    assert self_total == pytest.approx(layers["trace.job_s"][0], rel=0.05)


def test_each_job_is_scaled_by_the_kernel_around_it(tmp_path, monkeypatch):
    jobs = smallest_jobs("lcp_small", tmp_path, count=2)
    monkeypatch.chdir(tmp_path)
    run_pass = harness.run_pass(jobs)
    assert len(run_pass.kernel) == len(jobs) + 1
    wall, before, after = run_pass.latencies[1], run_pass.kernel[1], run_pass.kernel[2]
    assert run_pass.scaled[1] == pytest.approx(wall * reference.NOMINAL_S / ((before + after) / 2))
    # A machine half as fast doubles both the wall time and the kernel's time.
    assert reference.scale(2 * wall, 2 * before, 2 * after) == pytest.approx(run_pass.scaled[1])


def test_setup_time_is_measured():
    assert 0.0 < run.setup_seconds() < run.SETUP_TIMEOUT_S


def _tampered_main(command: str, matrix: str, edit):
    """``cli.main`` that rewrites the JSON of ``command`` runs on ``matrix``."""
    original = cli.main

    def main(argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = original(argv)
        text = buffer.getvalue()
        if argv[0] == command and matrix in argv:
            data = json.loads(text)
            edit(data)
            text = json.dumps(data)
        print(text)
        return code

    return main


def _halve_bounds(data):
    for entry in data["bounds"]:
        if entry["applicable"]:
            entry["value"] /= 2


def _flip_certificate(data):
    data["certificates"][0]["holds"] = False
    data["all_hold"] = False


def _shift_solution(data):
    data["x_star"][0] += 0.5


@pytest.mark.parametrize("workload, command, edit", [
    ("verify_small", "verify", _halve_bounds),
    ("bound_large", "bound", _halve_bounds),
    ("lcp_small", "lcp", _flip_certificate),
    ("lcp_small", "lcp", _shift_solution),
])
def test_a_tampered_result_is_counted_as_failed(workload, command, edit, tmp_path, monkeypatch):
    jobs = smallest_jobs(workload, tmp_path, count=2)
    monkeypatch.chdir(tmp_path)
    target = jobs[-1]  # not the warm-up job
    monkeypatch.setattr(cli, "main", _tampered_main(command, f"{target.name}.txt", edit))
    outcome = harness.measure(jobs, 0.0, trace=False)
    _, details = harness.end_to_end(jobs, outcome)
    assert [name for name, _ in outcome.failures] == [target.name] * len(outcome.passes)
    assert details["failed_ratio"] == (1 / len(jobs), "ratio")


def test_basis_rank_matches_the_solver_order():
    for n in (1, 4, 6):
        for position, basis in enumerate(_enumerate_bases(n), start=1):
            assert tracing._basis_rank(basis, n) == position


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lcp_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
