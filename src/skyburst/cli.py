"""Command-line front end: construct, verify, analyze zeros, export data.

All output is deterministic: fixed key order, 17-significant-digit floats,
canonical row ordering, LF line endings.  Exit codes: 0 success, 1 failed
verification, 2 configuration/pole/existence errors, 3 tracking/convergence
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConvergenceError, TrackingError
from .moments import toeplitz_det_closed, toeplitz_det_direct
from .recurrences import DEFAULT_OMEGA_GRID, genfun_compare, run_identity_suite
from .scalarfield import Omega, as_omega, parse_rational
from .skypoly import construct
from .zeros import _tag_root, trace, zeros_of

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    subcommand: str
    n: int = 0
    n_max: int = 8
    omega: str = ""
    omega_range: tuple = (0.0, 0.0, 0.0)
    output_format: str = "json"
    output_path: str | None = None
    exact: bool = False
    tolerance: float = 1e-10
    match_threshold: float = 0.1
    z: complex = 0j
    t: complex = 0j
    terms: int = 60
    omega_grid: tuple = field(default_factory=lambda: DEFAULT_OMEGA_GRID)
    printed_variants: bool = False

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.exact:
            parse_rational(self.omega)  # raises when not p/q or integer


def _parse_omega(config: RunConfig) -> Omega:
    """Exact Omega whenever the text parses as p/q; float otherwise."""
    if config.exact:
        return Omega.exact(parse_rational(config.omega))
    try:
        return Omega.exact(parse_rational(config.omega))
    except ValueError:
        return Omega.inexact(float(config.omega))


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _omega_str(om: Omega) -> str:
    return str(om.value) if om.exact_mode else _fmt(om.value)


def cmd_coeffs(config: RunConfig) -> int:
    om = _parse_omega(config)
    p = construct(config.n, om)
    entries = []
    for j, c in enumerate(p.coeffs):
        if om.exact_mode:
            frac = Fraction(c)
            entries.append({"pow": j, "num": str(frac.numerator), "den": str(frac.denominator)})
        else:
            entries.append({"pow": j, "value": _fmt(c)})
    payload = {"n": config.n, "omega": _omega_str(om), "coeffs": entries}
    if config.output_format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", config)
    else:
        lines = ["pow,num,den"] if om.exact_mode else ["pow,value"]
        for e in entries:
            lines.append(
                f"{e['pow']},{e['num']},{e['den']}" if om.exact_mode else f"{e['pow']},{e['value']}"
            )
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    reports = run_identity_suite(
        n_max=config.n_max,
        omegas=config.omega_grid,
        printed_variants=config.printed_variants,
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
    if config.output_format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", config)
    elif config.output_format == "csv":
        lines = ["identity,n,omega,residual,passed"]
        for e in payload:
            lines.append(f"{e['identity']},{e['n']},{e['omega']},{e['residual']},{json.dumps(e['passed'])}")
        _emit("\n".join(lines) + "\n", config)
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
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_zeros(config: RunConfig) -> int:
    om = _parse_omega(config)
    zs = zeros_of(config.n, om, tol=config.tolerance)
    p = construct(config.n, Fraction(om.value)).to_inexact()  # the member zeros_of solved
    rows = [(idx, z, tag, abs(p(z))) for idx, (z, tag) in enumerate(zs.roots)]
    if config.output_format == "json":
        payload = {
            "n": config.n,
            "omega": _omega_str(om),
            "residual_max": _fmt(zs.residual_max),
            "roots": [
                {"index": idx, "re": _fmt(z.real), "im": _fmt(z.imag), "tag": tag.value, "residual": _fmt(res)}
                for idx, z, tag, res in rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", config)
    else:
        lines = ["omega,index,re,im,tag,residual"]
        for idx, z, tag, res in rows:
            lines.append(
                f"{_fmt(om.as_float())},{idx},{_fmt(z.real)},{_fmt(z.imag)},{tag.value},{_fmt(res)}"
            )
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_trajectory(config: RunConfig) -> int:
    start, end, step = config.omega_range
    bundle = trace(
        config.n,
        start,
        end,
        base_step=step,
        match_threshold=config.match_threshold,
        tol=config.tolerance,
    )
    if config.output_format == "json":
        payload = {
            "n": config.n,
            "omega_grid": [_fmt(w) for w in bundle.omega_grid],
            "burst_events": list(bundle.burst_events),
            "paths": [
                [[_fmt(z.real), _fmt(z.imag)] for z in path] for path in bundle.paths
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", config)
        return EXIT_OK
    lines = ["omega,path_id,re,im,tag"]
    pending = list(bundle.burst_events)
    for k, w in enumerate(bundle.omega_grid):
        while pending and w > pending[0]:
            lines.append(f"# burst omega={pending.pop(0)}")
        for i, path in enumerate(bundle.paths):
            z = path[k]
            lines.append(f"{_fmt(w)},{i},{_fmt(z.real)},{_fmt(z.imag)},{_tag_root(z).value}")
    _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_detn(config: RunConfig) -> int:
    om = _parse_omega(config)
    direct = toeplitz_det_direct(config.n, om)
    closed = toeplitz_det_closed(config.n, om)
    if om.exact_mode:
        equal = direct == closed
        direct_s, closed_s = str(direct), str(closed)
    else:
        equal = abs(direct - closed) <= config.tolerance * (1 + abs(direct))
        direct_s, closed_s = _fmt(direct), _fmt(closed)
    verdict = "EQUAL" if equal else "DIFFER"
    _emit(f"direct: {direct_s}\nclosed: {closed_s}\nverdict: {verdict}\n", config)
    return EXIT_OK


def cmd_genfun(config: RunConfig) -> int:
    om = _parse_omega(config)
    residual = genfun_compare(om, config.z, config.t, config.terms)
    _emit(f"residual: {_fmt(residual)}\n", config)
    return EXIT_OK


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "zeros": cmd_zeros,
    "trajectory": cmd_trajectory,
    "detn": cmd_detn,
    "genfun": cmd_genfun,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyburst",
        description="Construct, verify, and analyze the circle-orthogonal family S_n^omega.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, omega=True, tol=False):
        p.add_argument("--format", choices=("json", "csv"), default=None, dest="output_format")
        p.add_argument("--out", default=None, dest="output_path", metavar="PATH")
        if tol:
            p.add_argument("--tol", type=float, default=1e-10, dest="tolerance")
        if omega:
            p.add_argument("--omega", required=True, help='parameter, "p/q" or decimal')
            p.add_argument("--exact", action="store_true", help="require exact rational arithmetic")

    p = sub.add_parser("coeffs", help="coefficients of S_n^omega")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run the exact identity sweep")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument(
        "--omega-grid",
        default=None,
        help='comma-separated rationals overriding the built-in grid, e.g. "1/3,1/2,22/7"',
    )
    p.add_argument(
        "--printed-variants",
        action="store_true",
        help="swap the faulty printed recurrence forms into the sweep (must then fail)",
    )
    add_common(p, omega=False)

    p = sub.add_parser("zeros", help="roots of S_n^omega with tags and residuals")
    p.add_argument("--n", type=int, required=True)
    add_common(p, tol=True)

    p = sub.add_parser("trajectory", help="zero paths over an omega range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega-start", type=float, required=True)
    p.add_argument("--omega-end", type=float, required=True)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--match-threshold", type=float, default=0.1, dest="match_threshold")
    add_common(p, omega=False, tol=True)

    p = sub.add_parser("detn", help="moment determinant, direct vs closed form")
    p.add_argument("--n", type=int, required=True)
    add_common(p, tol=True)

    p = sub.add_parser("genfun", help="generating-function partial-sum residual")
    p.add_argument("--z", type=complex, default=0j)
    p.add_argument("--t", type=complex, default=0j)
    p.add_argument("--terms", type=int, default=60)
    add_common(p)

    return parser


def _config_from_args(args) -> RunConfig:
    defaults = {"coeffs": "json", "verify": "text", "zeros": "csv", "trajectory": "csv",
                "detn": "text", "genfun": "text"}
    fmt = getattr(args, "output_format", None) or defaults[args.subcommand]
    grid = DEFAULT_OMEGA_GRID
    if getattr(args, "omega_grid", None):
        grid = tuple(parse_rational(tok) for tok in args.omega_grid.split(","))
    return RunConfig(
        subcommand=args.subcommand,
        n=getattr(args, "n", 0),
        n_max=getattr(args, "n_max", 8),
        omega=getattr(args, "omega", ""),
        omega_range=(
            getattr(args, "omega_start", 0.0),
            getattr(args, "omega_end", 0.0),
            getattr(args, "step", 0.02),
        ),
        output_format=fmt,
        output_path=getattr(args, "output_path", None),
        exact=getattr(args, "exact", False),
        tolerance=getattr(args, "tolerance", 1e-10),
        match_threshold=getattr(args, "match_threshold", 0.1),
        z=getattr(args, "z", 0j),
        t=getattr(args, "t", 0j),
        terms=getattr(args, "terms", 60),
        omega_grid=grid,
        printed_variants=getattr(args, "printed_variants", False),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[config.subcommand](config)
    except (ConvergenceError, TrackingError) as exc:
        print(f"skyburst: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OverflowError) as exc:
        print(f"skyburst: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
