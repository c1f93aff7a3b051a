"""Command-line surface: classify / bound / sweep / verify / lcp.

Exit codes are a stable contract: 0 on success (all requested checks pass),
2 when no bound is applicable to the input matrix, 1 on operational errors
(unreadable files, parse failures, unsolvable instances) and usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import bnekrasov, nekrasov
from .errors import LcpBoundsError
from .lcp import LcpInstance, certify_error_bound, solve_lcp, trial_points
from .linalg import inf_norm, inverse
from .matrixio import parse_matrix, parse_vector
from .nekrasov import BoundReport, Theorem
from .oracle import lemma_property_suite, oracle_max_norm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_APPLICABLE_BOUND = 2

_THEOREM_CHOICES = ("all", "gp-nekrasov", "new-nekrasov", "gp-bnekrasov", "new-bnekrasov")


@dataclass
class RunConfig:
    command: str
    matrix_path: str
    q_path: str | None = None
    epsilon: float | None = None
    theorem: str = "all"
    grid: int = 101
    samples: int = 10000
    seed: int = 42
    trials: int = 100
    format: str = "json"


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def _render_text(data, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{data}")
    return "\n".join(lines)


def _emit(data: dict, fmt: str) -> str:
    data = _jsonable(data)
    if fmt == "text":
        return _render_text(data)
    return json.dumps(data, indent=2)


def _report_entry(report: BoundReport, **extra) -> dict:
    entry: dict = {"theorem": report.theorem.value, "applicable": report.applicable}
    if report.reason is not None:
        entry["reason"] = report.reason
    if report.epsilon is not None:
        entry["epsilon"] = report.epsilon
    if report.value is not None:
        entry["value"] = report.value
    entry.update(extra)
    return entry


def _by_theorem(reports: list[BoundReport]) -> dict[Theorem, BoundReport]:
    return {r.theorem: r for r in reports}


def cmd_classify(cfg: RunConfig) -> tuple[str, int]:
    m = parse_matrix(cfg.matrix_path)
    data = {
        "matrix": cfg.matrix_path,
        "n": m.shape[0],
        "classification": asdict(bnekrasov.classify(m)),
    }
    return _emit(data, cfg.format), EXIT_OK


def cmd_bound(cfg: RunConfig) -> tuple[str, int]:
    m = parse_matrix(cfg.matrix_path)
    profiles = bnekrasov._profiles(m)  # shared by the bounds and the classification
    reports = bnekrasov.all_bounds(profiles, cfg.epsilon)
    if cfg.theorem != "all":
        wanted = cfg.theorem.replace("-", "_")
        reports = [r for r in reports if r.theorem.value == wanted]
    data = {
        "matrix": cfg.matrix_path,
        "n": m.shape[0],
        "bounds": [_report_entry(r) for r in reports],
        "classification": asdict(bnekrasov.classify(profiles)),
    }
    code = EXIT_OK if any(r.applicable for r in reports) else EXIT_NO_APPLICABLE_BOUND
    return _emit(data, cfg.format), code


def _format_value(value: float | None, applicable: bool) -> str:
    if not applicable or value is None:
        return "n/a"
    if math.isinf(value):
        return "inf"
    return repr(value)


def cmd_sweep(cfg: RunConfig) -> tuple[str, int]:
    m = parse_matrix(cfg.matrix_path)
    if cfg.grid < 2:
        raise LcpBoundsError("sweep needs a grid of at least 2 points")
    # Every grid point reuses the one profile of M (or of B+) taken here.
    route = bnekrasov._profiles(m).route
    if route is None:
        return "no epsilon-parameterized bound applies to this matrix", EXIT_NO_APPLICABLE_BOUND
    upper, new_text = route.upper, _format_value(route.new().value, True)
    lines = ["epsilon,gp_bound,new_bound"]
    for k in range(1, cfg.grid + 1):
        epsilon = k * upper / (cfg.grid + 1)
        report = route.gp(epsilon)
        lines.append(f"{epsilon!r},{_format_value(report.value, report.applicable)},{new_text}")
    return "\n".join(lines), EXIT_OK


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    m = parse_matrix(cfg.matrix_path)
    estimate = oracle_max_norm(m, interior_samples=cfg.samples, seed=cfg.seed)
    profiles = bnekrasov._profiles(m)
    reports = bnekrasov.all_bounds(profiles, cfg.epsilon)
    entries = []
    all_dominated = True
    for report in reports:
        if report.applicable and report.value is not None:
            dominated = estimate.max_observed <= report.value * (1.0 + 1e-9)
            all_dominated = all_dominated and dominated
            entries.append(_report_entry(report, dominated=dominated))
        else:
            entries.append(_report_entry(report))
    kol = nekrasov._kolotilina(profiles.m_route.profile)
    kol_entry = _report_entry(kol)
    kol_ok = True
    if kol.applicable and kol.value is not None:
        inverse_norm = inf_norm(inverse(m))
        kol_ok = inverse_norm <= kol.value * (1.0 + 1e-9)
        kol_entry.update(inverse_norm=inverse_norm, dominates_inverse_norm=kol_ok)
    lemma_data = None
    lemma_clean = True
    route = profiles.route  # the lemma suite reads the profile this route carries
    if route is not None:
        suite = lemma_property_suite(route, trials=1000, seed=cfg.seed)
        lemma_clean = suite.clean
        lemma_data = {"target": route.name, "trials": suite.trials,
                      "violations": len(suite.violations)}
    data = {
        "matrix": cfg.matrix_path,
        "n": m.shape[0],
        "oracle": {
            "max_observed": estimate.max_observed,
            "argmax_d": estimate.argmax_d,
            "samples": estimate.interior_samples,
            "vertex_count": estimate.vertex_count,
            "seed": estimate.seed,
        },
        "bounds": entries,
        "kolotilina": kol_entry,
        "lemma_suite": lemma_data,
    }
    if not any(r.applicable for r in reports):
        return _emit(data, cfg.format), EXIT_NO_APPLICABLE_BOUND
    ok = all_dominated and kol_ok and lemma_clean
    return _emit(data, cfg.format), EXIT_OK if ok else EXIT_ERROR


def cmd_lcp(cfg: RunConfig) -> tuple[str, int]:
    m = parse_matrix(cfg.matrix_path)
    if cfg.q_path is None:
        raise LcpBoundsError("the lcp command needs --q FILE")
    q = parse_vector(cfg.q_path)
    inst = LcpInstance(m, q)
    solution = solve_lcp(inst)
    reports = _by_theorem(bnekrasov.all_bounds(m, cfg.epsilon))
    wanted = [Theorem.NEW_NEKRASOV, Theorem.NEW_BNEKRASOV]
    if cfg.epsilon is not None:
        wanted += [Theorem.GP_NEKRASOV, Theorem.GP_BNEKRASOV]
    candidates = [reports[t] for t in wanted]
    applicable = [r for r in candidates if r.applicable and r.value is not None]
    best = min(applicable, key=lambda r: r.value) if applicable else None
    certificates = []
    all_hold = True
    if best is not None:
        for x in trial_points(solution.x_star, cfg.trials, cfg.seed):
            cert = certify_error_bound(inst, x, best)
            all_hold = all_hold and cert.holds
            certificates.append({
                "trial_x": cert.trial_x,
                "residual_norm": cert.residual_norm,
                "true_error": cert.true_error,
                "holds": cert.holds,
            })
    data = {
        "matrix": cfg.matrix_path,
        "q": cfg.q_path,
        "n": inst.n,
        "x_star": solution.x_star,
        "w_star": solution.w_star,
        "basis": list(solution.basis),
        "complementarity_gap": solution.complementarity_gap,
        "bound": _report_entry(best) if best is not None else None,
        "certificates": certificates,
        "all_hold": all_hold if best is not None else None,
    }
    if best is None:
        return _emit(data, cfg.format), EXIT_NO_APPLICABLE_BOUND
    return _emit(data, cfg.format), EXIT_OK if all_hold else EXIT_ERROR


_COMMANDS = {
    "classify": cmd_classify,
    "bound": cmd_bound,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "lcp": cmd_lcp,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; exit 2 means "no applicable bound"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcp-certify",
        description="Certified inverse-norm and LCP error bounds for Nekrasov "
        "and B-Nekrasov matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = {
        "classify": "report matrix-class membership flags",
        "bound": "compute the worst-case inverse-norm bounds",
        "sweep": "CSV sweep of the parameterized bound over its epsilon interval",
        "verify": "sampling oracle plus domination and inequality checks",
        "lcp": "solve LCP(M, q) and certify error bounds at random trial points",
    }
    for name, help_text in subcommands.items():
        # Options left out keep their RunConfig defaults.
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--matrix", dest="matrix_path", metavar="MATRIX", required=True,
                       help="matrix file (plain or CSV)")
        p.add_argument("--format", choices=("json", "csv", "text"))
        if name == "bound":
            p.add_argument("--epsilon", type=float)
            p.add_argument("--theorem", choices=_THEOREM_CHOICES)
        if name == "sweep":
            p.add_argument("--grid", type=int)
        if name == "verify":
            p.add_argument("--epsilon", type=float)
            p.add_argument("--samples", type=int)
            p.add_argument("--seed", type=int)
        if name == "lcp":
            p.add_argument("--q", dest="q_path", help="right-hand-side vector file")
            p.add_argument("--epsilon", type=float)
            p.add_argument("--trials", type=int)
            p.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    if cfg.theorem.startswith("gp-") and cfg.epsilon is None:
        print("--epsilon is required with --theorem gp-*", file=sys.stderr)
        return EXIT_ERROR
    if cfg.format == "csv" and cfg.command != "sweep":
        print("--format csv is only available for sweep", file=sys.stderr)
        return EXIT_ERROR
    try:
        text, code = _COMMANDS[cfg.command](cfg)
    except (LcpBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
