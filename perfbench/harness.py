"""Closed-loop measurement of a job list, output checks and metrics.

One client in one process runs the job list in passes; each job starts only
when the previous one has returned.  A job's wall time is the time spent
inside its ``lcpbounds.cli.main`` calls; the reference kernel runs between
jobs, and a job's latency is its wall time scaled to the kernel's nominal
speed (see ``reference``).  Outputs are held in memory and checked after
each pass, outside the timed region.
"""

from __future__ import annotations

import gc
import io
import resource
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import reference
import tracing
import workloads

# A job's tail latency is read at the highest percentile that leaves at
# least this many jobs beyond it.
TAIL_BEYOND = 10


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list[float]                    # per job, wall seconds
    outputs: list[list[tuple[object, str]]]   # per job, per call: (exit code, stdout)
    kernel: list[float]                       # reference kernel seconds, around each job

    @property
    def scaled(self) -> list[float]:
        """Per job, seconds at the reference kernel's nominal speed."""
        return [reference.scale(wall, before, after)
                for wall, before, after in zip(self.latencies, self.kernel, self.kernel[1:])]


@dataclass
class Outcome:
    passes: list[Pass]
    failures: list[tuple[str, list[str]]] = field(default_factory=list)
    tracer: tracing.Tracer | None = None


def _call(argv: list[str]):
    """One in-process CLI invocation: (exit code or exception text, stdout, seconds)."""
    from lcpbounds import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash fails the job, not the run
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def run_pass(jobs: list[workloads.Job], tracer: tracing.Tracer | None = None) -> Pass:
    gc.collect()
    latencies, outputs, kernel = [], [], [reference.seconds()]
    start = perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        latency, results = 0.0, []
        for argv, _ in job.calls:
            code, text, seconds = _call(argv)
            latency += seconds
            results.append((code, text))
        latencies.append(latency)
        outputs.append(results)
        kernel.append(reference.seconds())
    return Pass(tracer is not None, perf_counter() - start, latencies, outputs, kernel)


def check(jobs: list[workloads.Job], run: Pass) -> list[tuple[str, list[str]]]:
    """(job name, problems) for every job of the pass that fails a check."""
    failures = []
    for job, results in zip(jobs, run.outputs):
        problems = []
        for (argv, expected), (code, text) in zip(job.calls, results):
            try:
                problems += workloads.check_call(argv, expected, code, text, job.ref)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"malformed {argv[0]} output: {exc!r}")
        if problems:
            failures.append((job.name, problems))
    return failures


def measure(jobs: list[workloads.Job], seconds: float, trace: bool) -> Outcome:
    """Run passes until ``seconds`` is used up, to within half a step, after
    one untimed and unchecked warm-up job.

    A step is one pass or, with ``trace``, an untraced pass followed by a
    traced one, so the traced jobs per second can be set against the
    untraced ones.
    """
    outcome = Outcome([], tracer=tracing.Tracer() if trace else None)
    run_pass(jobs[:1])  # warm-up: first-call costs are not the workload's
    start = perf_counter()
    while True:
        step = perf_counter()
        for traced in (False, True) if trace else (False,):
            if traced:
                with outcome.tracer.install():
                    run = run_pass(jobs, outcome.tracer)
            else:
                run = run_pass(jobs)
            outcome.passes.append(run)
            outcome.failures += check(jobs, run)
        now = perf_counter()
        if now - start + (now - step) / 2 >= seconds:
            return outcome


def _jobs_per_s(passes: list[Pass]) -> float:
    """Jobs per second of the job list's scaled time."""
    return sum(len(p.scaled) for p in passes) / sum(sum(p.scaled) for p in passes)


def _wall_jobs_per_s(passes: list[Pass]) -> float:
    """Jobs per second of the passes' wall time, the reference kernel's included."""
    return sum(len(p.latencies) for p in passes) / sum(p.wall for p in passes)


def end_to_end(jobs: list[workloads.Job], outcome: Outcome) -> tuple[dict, dict]:
    """The end-to-end metrics and the details that qualify them.

    A job's latency is its mean scaled time over the untraced passes: on a
    shared machine whose speed flips between states every few seconds, means
    over a run spread less from run to run than medians.  ``jobs_per_s`` is
    the number of jobs over their total scaled time, so the reference kernel
    between jobs is not counted.  ``job_p50_s`` and ``job_tail_s`` are taken
    over jobs, so their percentiles are fixed by the job list and do not move
    when a faster program fits more passes in.
    """
    passes = [p for p in outcome.passes if not p.traced]
    per_job = sorted(statistics.fmean(p.scaled[i] for p in passes) for i in range(len(jobs)))
    tail_index = max(0, len(per_job) - TAIL_BEYOND - 1)
    ratios = []
    for job, results in zip(jobs, passes[0].outputs):
        for (argv, expected), (code, text) in zip(job.calls, results):
            if code == expected == 0:
                value = workloads.tightness(argv, text, job.ref)
                if value is not None:
                    ratios.append(value)
    attempted = len(jobs) * len(outcome.passes)
    metrics = {
        "jobs_per_s": (_jobs_per_s(passes), "jobs/s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (per_job[tail_index], "s"),
        "tightness_p50": (statistics.median(ratios or [0.0]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "failed_ratio": (len(outcome.failures) / attempted, "ratio"),
        "wall_jobs_per_s": (_wall_jobs_per_s(passes), "jobs/s"),
        "kernel_p50_s": (statistics.median(t for p in passes for t in p.kernel), "s"),
        "job_tail_percentile": (100.0 * (tail_index + 1) / len(per_job), "%"),
        "job_latency_samples": (len(per_job) * len(passes), "count"),
        "jobs_per_pass": (len(jobs), "count"),
        "passes": (len(passes), "count"),
    }
    return metrics, details


# Per-layer metrics: name -> unit.  Times are self times per traced job.
PER_LAYER_UNITS = {
    "oracle.max_norm_s": "s", "oracle.evaluations": "count", "oracle.evals_per_s": "1/s",
    "oracle.lemma_suite_s": "s", "oracle.lemma_trials": "count",
    "nekrasov.is_nekrasov_s": "s", "nekrasov.is_nekrasov_calls_per_job": "count",
    "nekrasov.bounds_s": "s",
    "bnekrasov.classify_s": "s", "bnekrasov.bounds_s": "s",
    "bnekrasov.bplus_decompose_calls": "count",
    "matrixio.parse_s": "s", "matrixio.entries_parsed": "count",
    "linalg.inverse_s": "s", "linalg.inverse_calls": "count",
    "lcp.solve_s": "s", "lcp.solves_per_instance": "count", "lcp.bases_tried": "count",
    "lcp.feasible_ratio": "ratio", "lcp.certify_s": "s", "lcp.certify_calls": "count",
    "lcp.is_p_matrix_s": "s", "lcp.minors_evaluated": "count",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.job_s": "s", "trace.overhead_ratio": "ratio",
}


def per_layer(jobs: list[workloads.Job], outcome: Outcome) -> dict:
    """Per-layer metrics from the traced passes, per traced job.

    Self times are scaled to the reference kernel's nominal speed by one
    factor, the traced jobs' scaled time over their wall time, so that they
    still add up to ``trace.job_s``.
    """
    traced = [p for p in outcome.passes if p.traced]
    untraced = [p for p in outcome.passes if not p.traced]
    n_jobs = len(jobs) * len(traced)
    scaled_s = sum(sum(p.scaled) for p in traced)
    factor = scaled_s / sum(sum(p.latencies) for p in traced)
    spans = outcome.tracer.self_times()
    self_s = dict.fromkeys((metric for metric, _ in tracing.SPANS.values()), 0.0)
    for name, (_, seconds) in spans.items():
        self_s[tracing.SPANS[name][0]] += seconds * factor
    calls = {name: count for name, (count, _) in spans.items()}
    counts = outcome.tracer.counts
    lcp_calls = len(traced) * sum(argv[0] == "lcp" for job in jobs for argv, _ in job.calls)
    solves = calls.get("lcp.solve_lcp", 0)
    out_bytes = sum(len(text) for p in traced for results in p.outputs for _, text in results)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {name: total / n_jobs for name, total in self_s.items()}
    values.update({
        "oracle.evaluations": counts["oracle.evaluations"] / n_jobs,
        "oracle.evals_per_s": ratio(counts["oracle.evaluations"], self_s["oracle.max_norm_s"]),
        "oracle.lemma_trials": counts["oracle.lemma_trials"] / n_jobs,
        "nekrasov.is_nekrasov_calls_per_job": calls.get("nekrasov.is_nekrasov", 0) / n_jobs,
        "bnekrasov.bplus_decompose_calls": counts["bnekrasov.bplus_decompose_calls"] / n_jobs,
        "matrixio.entries_parsed": counts["matrixio.entries_parsed"] / n_jobs,
        "linalg.inverse_calls": calls.get("linalg.inverse", 0) / n_jobs,
        "lcp.solves_per_instance": ratio(solves, lcp_calls),
        "lcp.bases_tried": ratio(counts["lcp.bases_tried"], solves),
        "lcp.feasible_ratio": ratio(solves, counts["lcp.bases_tried"]),
        "lcp.certify_calls": calls.get("lcp.certify_error_bound", 0) / n_jobs,
        "lcp.minors_evaluated": counts["lcp.minors_evaluated"] / n_jobs,
        "cli.output_bytes": out_bytes / n_jobs,
        "trace.job_s": scaled_s / n_jobs,
        "trace.overhead_ratio": _jobs_per_s(traced) / _jobs_per_s(untraced),
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
