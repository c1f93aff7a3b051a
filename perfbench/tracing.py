"""Span wrappers around the public functions of each ``lcpbounds`` layer.

The wrappers live here, not in the library: ``install`` rebinds each traced
function under every name its callers look it up by (the names bound in
``lcpbounds.cli``, ``bnekrasov``, ``oracle`` and ``lcp``, plus the module
attributes that ``cli`` reaches as ``nekrasov.<name>``), and restores the
originals on exit.  Spans are kept in memory; ``self_times`` turns them into
per-layer self times when the run ends.  Counts come from return values and
arguments, never from inside the library.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from math import comb
from time import perf_counter

# Span name -> (per-layer metric its self time adds to, [(module, attribute)]).
SPANS = {
    "cli.main": ("cli.self_s", [("cli", "main")]),
    "matrixio.parse_matrix": ("matrixio.parse_s", [("cli", "parse_matrix")]),
    "matrixio.parse_vector": ("matrixio.parse_s", [("cli", "parse_vector")]),
    "nekrasov.is_nekrasov": ("nekrasov.is_nekrasov_s", [
        ("nekrasov", "is_nekrasov"), ("bnekrasov", "is_nekrasov"), ("oracle", "is_nekrasov")]),
    "nekrasov.gp_nekrasov_bound": ("nekrasov.bounds_s", [("nekrasov", "gp_nekrasov_bound")]),
    "nekrasov.new_nekrasov_bound": ("nekrasov.bounds_s", [("nekrasov", "new_nekrasov_bound")]),
    "nekrasov.kolotilina_bound": ("nekrasov.bounds_s", [("nekrasov", "kolotilina_bound")]),
    "nekrasov.epsilon_interval_upper": ("nekrasov.bounds_s", [("nekrasov", "epsilon_interval_upper")]),
    "bnekrasov.classify": ("bnekrasov.classify_s", [("bnekrasov", "classify")]),
    "bnekrasov.gp_bnekrasov_bound": ("bnekrasov.bounds_s", [("bnekrasov", "gp_bnekrasov_bound")]),
    "bnekrasov.new_bnekrasov_bound": ("bnekrasov.bounds_s", [("bnekrasov", "new_bnekrasov_bound")]),
    "bnekrasov.epsilon_interval_upper": ("bnekrasov.bounds_s", [("bnekrasov", "epsilon_interval_upper")]),
    "linalg.inverse": ("linalg.inverse_s", [("cli", "inverse"), ("bnekrasov", "inverse")]),
    "lcp.solve_lcp": ("lcp.solve_s", [("cli", "solve_lcp"), ("lcp", "solve_lcp")]),
    "lcp.certify_error_bound": ("lcp.certify_s", [("cli", "certify_error_bound")]),
    "lcp.is_p_matrix": ("lcp.is_p_matrix_s", [("lcp", "is_p_matrix")]),
    "oracle.oracle_max_norm": ("oracle.max_norm_s", [("cli", "oracle_max_norm")]),
    "oracle.lemma_property_suite": ("oracle.lemma_suite_s", [("cli", "lemma_property_suite")]),
}

# Counted but not timed: a span here would split the self time of its callers
# (classify, the B-bounds and cli) for no layer of its own.
COUNTED = {"bnekrasov.bplus_decompose": [("bnekrasov", "bplus_decompose")]}


def _basis_rank(basis: tuple[int, ...], n: int) -> int:
    """1-based position of ``basis`` in (cardinality, lexicographic) order,
    which is the number of bases ``solve_lcp`` tried to find it."""
    k = len(basis)
    rank = sum(comb(n, j) for j in range(k))
    prev = -1
    for pos, value in enumerate(basis):
        rank += sum(comb(n - 1 - v, k - 1 - pos) for v in range(prev + 1, value))
        prev = value
    return rank + 1


def _count(name: str, counts: Counter, args, result) -> None:
    if name == "oracle.oracle_max_norm":
        counts["oracle.evaluations"] += result.vertex_count + result.interior_samples
    elif name == "oracle.lemma_property_suite":
        counts["oracle.lemma_trials"] += result.trials
    elif name.startswith("matrixio."):
        counts["matrixio.entries_parsed"] += result.size
    elif name == "lcp.solve_lcp":
        counts["lcp.bases_tried"] += _basis_rank(result.basis, result.x_star.shape[0])
    elif name == "lcp.is_p_matrix" and result:
        # A True verdict means every principal minor was evaluated; a False
        # one stops early at a point the return value does not reveal.
        counts["lcp.minors_evaluated"] += 2 ** len(args[0]) - 1


class Tracer:
    """In-memory spans ``(name, start, end, parent index, job id)``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            _count(name, self.counts, args, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def install(self):
        """Rebind every traced name for the duration of the block.  A name
        the library no longer defines is skipped, so its layer reads 0."""
        saved = []
        sites = [(name, entry[1], self._span) for name, entry in SPANS.items()]
        sites += [(name, entry, self._counter) for name, entry in COUNTED.items()]
        try:
            for name, bindings, make in sites:
                wrappers = {}
                for module_name, attr in bindings:
                    module = importlib.import_module(f"lcpbounds.{module_name}")
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    if id(original) not in wrappers:
                        wrappers[id(original)] = make(name, original)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Number of spans and total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + end - start - covered)
        return totals
