"""Command-line front end: construct, verify, analyze zeros, export data.

``main`` parses ``--omega`` once, runs one command, and hands what it returns
to ``_write``, the one exit point for output.  Every command returns an exit
code, a JSON payload and a list of text lines; ``_write`` prints the payload
(``--format json``) or the lines, LF-terminated, to ``--out`` or stdout.

All output is deterministic: fixed key order, 17-significant-digit floats,
canonical row ordering, LF line endings.  Exit codes: 0 success, 1 failed
verification, 2 configuration/pole/existence errors, 3 tracking/convergence
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .errors import ConvergenceError, DomainError, TrackingError
from .moments import toeplitz_det_closed, toeplitz_det_direct
from .recurrences import DEFAULT_OMEGA_GRID, genfun_compare, run_identity_suite
from .scalarfield import as_omega, parse_rational
from .skypoly import construct
from .zeros import _tag_root, trace, zeros_of

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_omega(args: argparse.Namespace) -> Fraction | float:
    """A Fraction whenever the text parses as p/q; a finite float otherwise."""
    try:
        return parse_rational(args.omega)
    except ValueError:
        if args.exact:
            raise
        return as_omega(float(args.omega))


# an argparse type; argparse names it in its usage errors
def rational_list(text: str) -> tuple:
    try:
        return tuple(parse_rational(tok) for tok in text.split(","))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write(args: argparse.Namespace, payload, lines: list) -> None:
    """The one exit point for command output: the JSON payload or the lines, LF-terminated."""
    text = json.dumps(payload, indent=2) if args.output_format == "json" else "\n".join(lines)
    if args.output_path:
        with open(args.output_path, "w", newline="") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _omega_str(om) -> str:
    return str(om) if isinstance(om, Fraction) else _fmt(om)


def cmd_coeffs(args: argparse.Namespace):
    om = args.omega
    coeffs = construct(args.n, om).coeffs
    if isinstance(om, Fraction):
        entries = [
            {"pow": j, "num": str(c.numerator), "den": str(c.denominator)}
            for j, c in enumerate(coeffs)
        ]
    else:
        entries = [{"pow": j, "value": _fmt(c)} for j, c in enumerate(coeffs)]
    payload = {"n": args.n, "omega": _omega_str(om), "coeffs": entries}
    lines = [",".join(entries[0])] + [",".join(map(str, e.values())) for e in entries]
    return EXIT_OK, payload, lines


def _summary(name: str, reports: list) -> str:
    status = "PASS" if all(r.passed for r in reports) else "FAIL"
    if name.endswith("_rejected"):
        return f"{name}: {status} (checks={len(reports)})"
    worst = max([Fraction(0)] + [abs(r.residual_norm) for r in reports])
    return f"{name}: {status} (checks={len(reports)}, max residual={worst})"


def cmd_verify(args: argparse.Namespace):
    reports = run_identity_suite(args.n_max, omegas=args.omega_grid)
    all_ok = all(r.passed for r in reports)
    payload = [
        {
            "identity": r.identity_id,
            "n": r.params[0],
            "omega": str(r.params[1]),
            "residual": str(r.residual_norm),
            "passed": r.passed,
        }
        for r in reports
    ]
    if args.output_format == "csv":
        lines = ["identity,n,omega,residual,passed"]
        lines += [
            f"{e['identity']},{e['n']},{e['omega']},{e['residual']},{json.dumps(e['passed'])}"
            for e in payload
        ]
    else:
        names = dict.fromkeys(r.identity_id for r in reports)  # in order of first report
        lines = [_summary(name, [r for r in reports if r.identity_id == name]) for name in names]
        lines.append("result: ALL PASS" if all_ok else "result: FAILURES PRESENT")
    return (EXIT_OK if all_ok else EXIT_VERIFY_FAILED), payload, lines


def cmd_zeros(args: argparse.Namespace):
    om = args.omega
    zs = zeros_of(args.n, om)
    p = construct(args.n, om).to_inexact()  # the rounded polynomial the roots were found on
    roots = [
        {"index": idx, "re": _fmt(z.real), "im": _fmt(z.imag), "tag": tag.value, "residual": _fmt(abs(p(z)))}
        for idx, (z, tag) in enumerate(zs.roots)
    ]
    payload = {
        "n": args.n,
        "omega": _omega_str(om),
        "residual_max": _fmt(zs.residual_max),
        "roots": roots,
    }
    w = _fmt(float(om))
    lines = ["omega,index,re,im,tag,residual"] + [",".join([w, *map(str, e.values())]) for e in roots]
    return EXIT_OK, payload, lines


def cmd_trajectory(args: argparse.Namespace):
    bundle = trace(args.n, args.omega_start, args.omega_end)
    grid = [_fmt(w) for w in bundle.omega_grid]
    if args.output_format == "json":  # the (re, im) tuples are written as arrays
        paths = [[(_fmt(z.real), _fmt(z.imag)) for z in path] for path in bundle.paths]
        payload = {"n": args.n, "omega_grid": grid, "burst_events": list(bundle.burst_events), "paths": paths}
        return EXIT_OK, payload, []
    lines = ["omega,path_id,re,im,tag"]
    pending = list(bundle.burst_events)
    for k, w in enumerate(bundle.omega_grid):
        while pending and w > pending[0]:
            lines.append(f"# burst omega={pending.pop(0)}")
        for i, path in enumerate(bundle.paths):  # "%.17g" is _fmt's format
            z = path[k]
            lines.append("%s,%d,%.17g,%.17g,%s" % (grid[k], i, z.real, z.imag, _tag_root(z).value))
    return EXIT_OK, None, lines


def cmd_detn(args: argparse.Namespace):
    om = args.omega
    direct = toeplitz_det_direct(args.n, om)
    closed = toeplitz_det_closed(args.n, om)
    # both are exact values, rounded once in float mode, so they compare exactly
    fmt = str if isinstance(om, Fraction) else _fmt
    verdict = "EQUAL" if direct == closed else "DIFFER"
    return EXIT_OK, None, [f"direct: {fmt(direct)}", f"closed: {fmt(closed)}", f"verdict: {verdict}"]


def cmd_genfun(args: argparse.Namespace):
    residual = genfun_compare(args.omega, args.z, args.t, args.terms)
    return EXIT_OK, None, [f"residual: {_fmt(residual)}"]


class _Parser(argparse.ArgumentParser):
    """Reads -13/9, -1e-3 or -0.4+0.2j after an option as its value; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test takes only plain negative decimals for values;
        # no option here starts with '-' and a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="skyburst",
        description="Construct, verify, and analyze the circle-orthogonal family S_n^omega.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, cmd, output_format=None, omega=True):
        # --format exists only where output_format is given; "text" is the default elsewhere
        p.set_defaults(cmd=cmd, output_format=output_format or "text")
        if output_format:
            p.add_argument("--format", choices=("json", "csv"), dest="output_format")
        p.add_argument("--out", default=None, dest="output_path", metavar="PATH")
        if omega:
            p.add_argument("--omega", required=True, help='parameter, "p/q" or decimal')
            p.add_argument("--exact", action="store_true", help="require exact rational arithmetic")

    p = sub.add_parser("coeffs", help="coefficients of S_n^omega")
    p.add_argument("--n", type=int, required=True)
    add_common(p, cmd_coeffs, "json")

    p = sub.add_parser("verify", help="run the exact identity sweep")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument(
        "--omega-grid",
        type=rational_list,
        default=DEFAULT_OMEGA_GRID,
        help='comma-separated rationals overriding the built-in grid, e.g. "1/3,1/2,22/7"',
    )
    add_common(p, cmd_verify, "text", omega=False)

    p = sub.add_parser("zeros", help="roots of S_n^omega with tags and residuals")
    p.add_argument("--n", type=int, required=True)
    add_common(p, cmd_zeros, "csv")

    p = sub.add_parser("trajectory", help="zero paths over an omega range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega-start", type=float, required=True)
    p.add_argument("--omega-end", type=float, required=True)
    add_common(p, cmd_trajectory, "csv", omega=False)

    p = sub.add_parser("detn", help="moment determinant, direct vs closed form")
    p.add_argument("--n", type=int, required=True)
    add_common(p, cmd_detn)

    p = sub.add_parser("genfun", help="generating-function partial-sum residual")
    p.add_argument("--z", type=complex, default=0j)
    p.add_argument("--t", type=complex, default=0j)
    p.add_argument("--terms", type=int, default=60)
    add_common(p, cmd_genfun)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "omega" in args:  # parsed once, here, for every command that takes it
            args.omega = _parse_omega(args)
        code, payload, lines = args.cmd(args)
        _write(args, payload, lines)
        return code
    except (ConvergenceError, TrackingError) as exc:
        print(f"skyburst: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OverflowError) as exc:
        print(f"skyburst: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
