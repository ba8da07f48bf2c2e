"""Command-line front end: construct, verify, analyze zeros, export data.

All output is deterministic: fixed key order, 17-significant-digit floats,
canonical row ordering, LF line endings.  Exit codes: 0 success, 1 failed
verification, 2 configuration/pole/existence errors, 3 tracking/convergence
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import ConvergenceError, DomainError, TrackingError
from .moments import toeplitz_det_closed, toeplitz_det_direct
from .recurrences import DEFAULT_OMEGA_GRID, genfun_compare, run_identity_suite
from .scalarfield import Omega, parse_rational
from .skypoly import construct
from .zeros import _tag_root, trace, zeros_of

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_omega(args: argparse.Namespace) -> Omega:
    """Exact Omega whenever the text parses as p/q; float otherwise."""
    if args.exact:
        return Omega.exact(parse_rational(args.omega))
    try:
        return Omega.exact(parse_rational(args.omega))
    except ValueError:
        return Omega.inexact(float(args.omega))


# argparse types; argparse names them in its usage errors
def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def rational_list(text: str) -> tuple:
    try:
        return tuple(parse_rational(tok) for tok in text.split(","))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.output_path:
        with open(args.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _omega_str(om: Omega) -> str:
    return str(om.value) if om.exact_mode else _fmt(om.value)


def cmd_coeffs(args: argparse.Namespace) -> int:
    om = _parse_omega(args)
    p = construct(args.n, om)
    entries = []
    for j, c in enumerate(p.coeffs):
        if om.exact_mode:
            frac = Fraction(c)
            entries.append({"pow": j, "num": str(frac.numerator), "den": str(frac.denominator)})
        else:
            entries.append({"pow": j, "value": _fmt(c)})
    payload = {"n": args.n, "omega": _omega_str(om), "coeffs": entries}
    if args.output_format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args)
    else:
        lines = ["pow,num,den"] if om.exact_mode else ["pow,value"]
        for e in entries:
            lines.append(
                f"{e['pow']},{e['num']},{e['den']}" if om.exact_mode else f"{e['pow']},{e['value']}"
            )
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_identity_suite(
        n_max=args.n_max,
        omegas=args.omega_grid,
        printed_variants=args.printed_variants,
    )
    families: dict = {}
    for r in reports:
        fam = families.setdefault(r.identity_id, {"checks": 0, "failures": 0, "max_residual": Fraction(0)})
        fam["checks"] += 1
        if not r.passed:
            fam["failures"] += 1
        if not r.identity_id.endswith("_rejected") and abs(r.residual_norm) > fam["max_residual"]:
            fam["max_residual"] = abs(r.residual_norm)
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
    if args.output_format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args)
    elif args.output_format == "csv":
        lines = ["identity,n,omega,residual,passed"]
        for e in payload:
            lines.append(f"{e['identity']},{e['n']},{e['omega']},{e['residual']},{json.dumps(e['passed'])}")
        _emit("\n".join(lines) + "\n", args)
    else:
        lines = []
        for name, fam in families.items():
            status = "PASS" if fam["failures"] == 0 else "FAIL"
            if name.endswith("_rejected"):
                lines.append(f"{name}: {status} (checks={fam['checks']})")
            else:
                lines.append(
                    f"{name}: {status} (checks={fam['checks']}, max residual={fam['max_residual']})"
                )
        lines.append("result: ALL PASS" if all_ok else "result: FAILURES PRESENT")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_zeros(args: argparse.Namespace) -> int:
    om = _parse_omega(args)
    zs = zeros_of(args.n, om, tol=args.tolerance)
    p = construct(args.n, om).to_inexact()  # the member zeros_of solved
    rows = [(idx, z, tag, abs(p(z))) for idx, (z, tag) in enumerate(zs.roots)]
    if args.output_format == "json":
        payload = {
            "n": args.n,
            "omega": _omega_str(om),
            "residual_max": _fmt(zs.residual_max),
            "roots": [
                {"index": idx, "re": _fmt(z.real), "im": _fmt(z.imag), "tag": tag.value, "residual": _fmt(res)}
                for idx, z, tag, res in rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args)
    else:
        lines = ["omega,index,re,im,tag,residual"]
        for idx, z, tag, res in rows:
            lines.append(
                f"{_fmt(om.as_float())},{idx},{_fmt(z.real)},{_fmt(z.imag)},{tag.value},{_fmt(res)}"
            )
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace) -> int:
    bundle = trace(
        args.n,
        args.omega_start,
        args.omega_end,
        base_step=args.step,
        match_threshold=args.match_threshold,
        tol=args.tolerance,
    )
    if args.output_format == "json":
        payload = {
            "n": args.n,
            "omega_grid": [_fmt(w) for w in bundle.omega_grid],
            "burst_events": list(bundle.burst_events),
            "paths": [
                [[_fmt(z.real), _fmt(z.imag)] for z in path] for path in bundle.paths
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args)
        return EXIT_OK
    lines = ["omega,path_id,re,im,tag"]
    pending = list(bundle.burst_events)
    for k, w in enumerate(bundle.omega_grid):
        while pending and w > pending[0]:
            lines.append(f"# burst omega={pending.pop(0)}")
        for i, path in enumerate(bundle.paths):
            z = path[k]
            lines.append(f"{_fmt(w)},{i},{_fmt(z.real)},{_fmt(z.imag)},{_tag_root(z).value}")
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_detn(args: argparse.Namespace) -> int:
    om = _parse_omega(args)
    direct = toeplitz_det_direct(args.n, om)
    closed = toeplitz_det_closed(args.n, om)
    # both are exact values, rounded once in float mode, so they compare exactly
    fmt = str if om.exact_mode else _fmt
    verdict = "EQUAL" if direct == closed else "DIFFER"
    _emit(f"direct: {fmt(direct)}\nclosed: {fmt(closed)}\nverdict: {verdict}\n", args)
    return EXIT_OK


def cmd_genfun(args: argparse.Namespace) -> int:
    om = _parse_omega(args)
    residual = genfun_compare(om, args.z, args.t, args.terms)
    _emit(f"residual: {_fmt(residual)}\n", args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads -13/9, -1e-3 or -0.4+0.2j after an option as its value; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test takes only plain negative decimals for values;
        # no option here starts with '-' and a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skyburst",
        description="Construct, verify, and analyze the circle-orthogonal family S_n^omega.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, cmd, output_format=None, omega=True, tol=False):
        p.set_defaults(cmd=cmd)
        if output_format:
            p.set_defaults(output_format=output_format)
            p.add_argument("--format", choices=("json", "csv"), dest="output_format")
        p.add_argument("--out", default=None, dest="output_path", metavar="PATH")
        if tol:
            p.add_argument("--tol", type=positive_float, default=1e-10, dest="tolerance")
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
    p.add_argument(
        "--printed-variants",
        action="store_true",
        help="swap the faulty printed recurrence forms into the sweep (must then fail)",
    )
    add_common(p, cmd_verify, "text", omega=False)

    p = sub.add_parser("zeros", help="roots of S_n^omega with tags and residuals")
    p.add_argument("--n", type=int, required=True)
    add_common(p, cmd_zeros, "csv", tol=True)

    p = sub.add_parser("trajectory", help="zero paths over an omega range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega-start", type=float, required=True)
    p.add_argument("--omega-end", type=float, required=True)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--match-threshold", type=float, default=0.1, dest="match_threshold")
    add_common(p, cmd_trajectory, "csv", omega=False, tol=True)

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
        return args.cmd(args)
    except (ConvergenceError, TrackingError) as exc:
        print(f"skyburst: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OverflowError) as exc:
        print(f"skyburst: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
