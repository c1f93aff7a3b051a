"""Command-line surface: classify / bound / sweep / verify / lcp.

The parser built here at import is the one definition of the command line,
defaults and usage rules included; the commands read its namespace. Without
``--epsilon`` every command takes the library's default for the parameterized
bounds, the midpoint of each one's interval. Each command returns its report
as data with its exit code, and ``main`` renders it once.

``verify`` checks only where a bound applies, that is where ``M`` is P by
class: there the oracle's vertex maximum is the constant the bounds must
dominate. Elsewhere it checks nothing and exits 2, as ``bound`` does, with
``oracle`` and ``lemma_suite`` null. Its ``--samples`` and ``--seed`` are
accepted and ignored, since the oracle draws no interior points.

Exit codes are a stable contract: 0 on success (all requested checks pass),
2 when no bound is applicable to the input matrix, 1 on operational errors
(unreadable files, parse failures, unsolvable instances) and usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import bnekrasov, nekrasov
from .errors import DomainError, LcpBoundsError
from .lcp import LcpInstance, certify_error_bound, solve_lcp, trial_points
from .linalg import inf_norm, inverse
from .matrixio import parse_matrix, parse_vector
from .nekrasov import BoundReport
from .oracle import lemma_property_suite, oracle_max_norm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_APPLICABLE_BOUND = 2

_THEOREM_CHOICES = ("all", "gp-nekrasov", "new-nekrasov", "gp-bnekrasov", "new-bnekrasov")


def _render_text(data, indent: int = 0) -> str:
    pad, lines = "  " * indent, []
    if isinstance(data, dict):
        items = [(f"{key}:", value) for key, value in data.items()]
    else:
        items = [("-", value) for value in data]
    for head, value in items:
        # An empty list or dict is a leaf: ``certificates: []``, not a blank line.
        if isinstance(value, (dict, list)) and value:
            lines += [f"{pad}{head}", _render_text(value, indent + 1)]
        else:
            lines.append(f"{pad}{head} {value}")
    return "\n".join(lines)


def _emit(data, fmt: str) -> str:
    """One command's report: ``sweep``'s lines as CSV, any other report as JSON
    or as text rendered from the values that JSON holds."""
    if fmt == "csv":
        return "\n".join(data)
    # numpy arrays and scalars other than np.float64 (a float) become plain
    # values. Bound values past the float range are reported as not applicable
    # (reason Overflow); any other non-finite value is an error, so the JSON
    # output is strict (RFC 8259), and the text holds the same values.
    try:
        text = json.dumps(data, indent=2, allow_nan=False, default=lambda v: v.tolist())
    except ValueError:
        raise DomainError("a reported value lies past the float range") from None
    return _render_text(json.loads(text)) if fmt == "text" else text


def _report_entry(report: BoundReport, **extra) -> dict:
    entry: dict = {"theorem": report.theorem.value, "applicable": report.applicable}
    for key in ("reason", "epsilon", "value"):
        if getattr(report, key) is not None:
            entry[key] = getattr(report, key)
    entry.update(extra)
    return entry


def cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    profiles = bnekrasov._profiles(parse_matrix(args.matrix_path))
    data = {
        "matrix": args.matrix_path,
        "n": profiles.m_route.a.shape[0],
        "classification": asdict(bnekrasov.classify(profiles)),
    }
    return data, EXIT_OK


def cmd_bound(args: argparse.Namespace) -> tuple[dict, int]:
    profiles = bnekrasov._profiles(parse_matrix(args.matrix_path))  # bounds and classes
    reports = bnekrasov.all_bounds(profiles, args.epsilon)
    if args.theorem != "all":
        wanted = args.theorem.replace("-", "_")
        reports = [r for r in reports if r.theorem.value == wanted]
    data = {
        "matrix": args.matrix_path,
        "n": profiles.m_route.a.shape[0],
        "bounds": [_report_entry(r) for r in reports],
        "classification": asdict(bnekrasov.classify(profiles)),
    }
    code = EXIT_OK if any(r.applicable for r in reports) else EXIT_NO_APPLICABLE_BOUND
    return data, code


def _format_value(report: BoundReport) -> str:
    return "n/a" if report.value is None else repr(report.value)


def cmd_sweep(args: argparse.Namespace) -> tuple[list[str], int]:
    m = parse_matrix(args.matrix_path)
    if args.grid < 2:
        raise LcpBoundsError("sweep needs a grid of at least 2 points")
    # Every grid point reuses the one profile of M (or of B+) taken here.
    route = bnekrasov._profiles(m).route
    if route is None:
        return ["no epsilon-parameterized bound applies to this matrix"], EXIT_NO_APPLICABLE_BOUND
    upper, new = route.upper, route.new()
    lines, applicable = ["epsilon,gp_bound,new_bound"], new.applicable
    for k in range(1, args.grid + 1):
        epsilon = k * upper / (args.grid + 1)
        report = route.gp(epsilon)
        applicable |= report.applicable
        lines.append(f"{epsilon!r},{_format_value(report)},{_format_value(new)}")
    return lines, EXIT_OK if applicable else EXIT_NO_APPLICABLE_BOUND


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    m = parse_matrix(args.matrix_path)
    profiles = bnekrasov._profiles(m)
    reports = bnekrasov.all_bounds(profiles, args.epsilon)
    kol = nekrasov._kolotilina(profiles.m_route.profile)
    data = {"matrix": args.matrix_path, "n": m.shape[0], "oracle": None,
            "bounds": [_report_entry(r) for r in reports], "kolotilina": _report_entry(kol),
            "lemma_suite": None}
    # A bound applies only where M is P by class, on profiles.route, and only
    # there is the vertex maximum the constant (see the oracle module).
    if not any(r.applicable for r in reports):
        return data, EXIT_NO_APPLICABLE_BOUND
    estimate = oracle_max_norm(m)
    data["oracle"] = {"max_observed": estimate.max_observed, "argmax_d": estimate.argmax_d,
                      "vertex_count": estimate.vertex_count}
    ok = True
    for entry, report in zip(data["bounds"], reports):
        if report.applicable:
            entry["dominated"] = estimate.max_observed <= report.value * (1.0 + 1e-9)
            ok &= entry["dominated"]
    if kol.applicable:
        inverse_norm = inf_norm(inverse(m))
        dominates = inverse_norm <= kol.value * (1.0 + 1e-9)
        data["kolotilina"].update(inverse_norm=inverse_norm, dominates_inverse_norm=dominates)
        ok &= dominates
    route = profiles.route
    suite = lemma_property_suite(route)  # reads the profile the route carries
    data["lemma_suite"] = {"target": route.name, "trials": suite.trials,
                           "violations": len(suite.violations)}
    return data, EXIT_OK if ok and suite.clean else EXIT_ERROR


def cmd_lcp(args: argparse.Namespace) -> tuple[dict, int]:
    m = parse_matrix(args.matrix_path)
    q = parse_vector(args.q_path)
    if args.trials < 0 or args.seed < 0:
        raise DomainError("trials and seed must be nonnegative")
    inst = LcpInstance(m, q)
    solution = solve_lcp(inst)
    applicable = [r for r in bnekrasov.all_bounds(m, args.epsilon) if r.applicable]
    best = min(applicable, key=lambda r: r.value) if applicable else None
    certificates = []
    all_hold = True
    if best is not None:
        for x in trial_points(solution.x_star, args.trials, args.seed):
            cert = certify_error_bound(inst, x, best)
            all_hold = all_hold and cert.holds
            certificates.append({
                "trial_x": cert.trial_x,
                "residual_norm": cert.residual_norm,
                "true_error": cert.true_error,
                "holds": cert.holds,
            })
    data = {
        "matrix": args.matrix_path,
        "q": args.q_path,
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
        return data, EXIT_NO_APPLICABLE_BOUND
    return data, EXIT_OK if all_hold else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; exit 2 means "no applicable bound"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# Each option after --matrix and --format, with its default.
_OPTIONS = {
    "--q": {"dest": "q_path", "required": True, "help": "right-hand-side vector file"},
    "--epsilon": {"type": float},
    "--theorem": {"choices": _THEOREM_CHOICES, "default": "all"},
    "--grid": {"type": int, "default": 101},
    "--trials": {"type": int, "default": 100},
    "--seed": {"type": int, "default": 42},
}
# Options a command accepts and does not read: verify's oracle draws no
# interior samples, so it takes neither a count nor a seed.
_IGNORED = {"verify": ("--samples", "--seed")}

# name -> (handler, help line, its options from _OPTIONS)
_COMMANDS = {
    "classify": (cmd_classify, "report matrix-class membership flags", ()),
    "bound": (cmd_bound, "compute the worst-case inverse-norm bounds", ("--epsilon", "--theorem")),
    "sweep": (cmd_sweep, "CSV sweep of the parameterized bound over its epsilon interval",
              ("--grid",)),
    "verify": (cmd_verify, "brute-force oracle plus domination and exact inequality checks",
               ("--epsilon",)),
    "lcp": (cmd_lcp, "solve LCP(M, q) and certify error bounds at random trial points",
            ("--q", "--epsilon", "--trials", "--seed")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcp-certify",
        description="Certified inverse-norm and LCP error bounds for Nekrasov "
        "and B-Nekrasov matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--matrix", dest="matrix_path", metavar="MATRIX", required=True,
                       help="matrix file (plain or CSV)")
        # sweep prints CSV only; the other commands print JSON or text.
        formats = ("csv",) if name == "sweep" else ("json", "text")
        p.add_argument("--format", choices=formats, default=formats[0])
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        for option in _IGNORED.get(name, ()):
            p.add_argument(option, type=int, help="ignored")
    return parser


# Built at import, where a one-shot run of the console script pays for it anyway.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        data, code = args.handler(args)
        text = _emit(data, args.format)
    except (LcpBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early. Point it at devnull so that the
        # flush at exit stays quiet (Python docs, signal, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the report was written", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
