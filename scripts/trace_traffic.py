"""Trace every window the zero_paths workload can draw, and digest what comes out.

Run from the root of a checkout:

    python scripts/trace_traffic.py [--src DIR] [--dump FILE]
    python scripts/trace_traffic.py --wide [--src DIR] [--dump FILE]
    python scripts/trace_traffic.py --compare FILE FILE

The first form imports skyburst from DIR (default: the ``src`` of this
checkout) and traces each window (n, start) of ``skybench.workloads.paths_slots()``
over [start, start + WINDOW] as the CLI does, at ``trace``'s one step
``BASE_STEP``.  It prints the number of windows and of refusals (typed errors), the
totals of ``cold_solves`` and ``rejected_steps``, and one SHA-256 over every
window's grid, burst events and per-path tags (a refusal enters as its type
name).  Two trees that print the same digest draw the same paths with the
same classification, whatever their last digits.  ``trace_traffic.expected``
beside this script holds the two lines of this tree, and CI fails when the
output differs from them.

``--dump`` also writes every path coordinate, window by window, to FILE.  The
second form reads two such files and prints how many coordinates moved and
the largest move between them, absolute and relative to |z|, with the window
where it occurs.  A coordinate counts as moved when its bits differ, so a
sign-of-zero flip, which changes the CSV bytes (-0 against 0), counts too.
Dumps compare only when both trees drew the same grids.

``--wide`` traces a wider scan, with the same step and window width: the
3572 windows n = 3..40, start k - 1/2 + j/4 (k = 1..n+2, j = 0..3), which reach
above omega = n and into windows whose seeded solves are refused.  It prints
the count of each outcome (answered, or the refusal's type name) and one SHA-256
over every answered window's grid, burst events and path bits and every
refusal's type name.  Its ``--dump`` holds each window's outcome (a refusal's
type name, or ``answered`` and a SHA-256 of that window), and ``--compare`` of
two such dumps counts the windows by the pair of outcomes, so two trees' step
recovery can be compared window by window.

All 4256 windows take about 100 s on one core, the wide scan about as long.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import pickle
import struct
import sys
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traffic(src: Path, dump: Path | None) -> None:
    sys.path[:0] = [str(src), str(ROOT)]
    from skybench.workloads import WINDOW, paths_slots
    from skyburst.errors import ConvergenceError, DomainError, TrackingError
    from skyburst.zeros import _tag_root, trace

    digest = hashlib.sha256()
    windows = errors = cold = rejected = 0
    coordinates = {}
    for slot, draws in paths_slots().items():
        for n, start in draws:
            windows += 1
            try:
                bundle = trace(n, start, start + WINDOW)
            except (ConvergenceError, DomainError, TrackingError) as exc:
                errors += 1
                digest.update(repr((n, start, type(exc).__name__)).encode())
                continue
            cold += bundle.cold_solves
            rejected += bundle.rejected_steps
            tags = tuple(tuple(_tag_root(z).value for z in path) for path in bundle.paths)
            digest.update(repr((n, start, bundle.omega_grid, bundle.burst_events, tags)).encode())
            if dump is not None:
                coordinates[slot, n, start] = array("d", (x for path in bundle.paths for z in path
                                                          for x in (z.real, z.imag)))
    print(f"windows {windows}  errors {errors}  cold_solves {cold}  rejected_steps {rejected}")
    print(f"sha256 {digest.hexdigest()}")
    if dump is not None:
        with open(dump, "wb") as fh:
            pickle.dump(coordinates, fh)


def wide(src: Path, dump: Path | None) -> None:
    sys.path[:0] = [str(src), str(ROOT)]
    from skybench.workloads import WINDOW
    from skyburst.errors import ConvergenceError, DomainError, TrackingError
    from skyburst.zeros import trace

    digest = hashlib.sha256()
    outcomes = {}
    for n in range(3, 41):
        for start in (k - 0.5 + j / 4 for k in range(1, n + 3) for j in range(4)):
            try:
                bundle = trace(n, start, start + WINDOW)
            except (ConvergenceError, DomainError, TrackingError) as exc:
                outcomes[n, start] = type(exc).__name__
                digest.update(repr((n, start, type(exc).__name__)).encode())
                continue
            bits = array("d", (x for path in bundle.paths for z in path for x in (z.real, z.imag)))
            window = hashlib.sha256(repr((n, start, bundle.omega_grid, bundle.burst_events)).encode())
            window.update(bits.tobytes())
            outcomes[n, start] = f"answered {window.hexdigest()}"
            digest.update(window.digest())
    counts = Counter(outcome.split()[0] for outcome in outcomes.values())
    print(f"windows {len(outcomes)}  " + "  ".join(f"{name} {count}" for name, count in sorted(counts.items())))
    print(f"sha256 {digest.hexdigest()}")
    if dump is not None:
        with open(dump, "wb") as fh:
            pickle.dump(outcomes, fh)


def compare_outcomes(a: dict, b: dict) -> None:
    pairs = Counter()
    for key in a:
        x, y = a[key].split()[0], b[key].split()[0]
        if x == y == "answered" and a[key] != b[key]:
            y = "answered, other bits"
        pairs[x, y] += 1
    for (x, y), count in sorted(pairs.items()):
        print(f"{x} -> {y}  {count}")


def compare(first: Path, second: Path) -> None:
    with open(first, "rb") as fh:
        a = pickle.load(fh)
    with open(second, "rb") as fh:
        b = pickle.load(fh)
    if a.keys() != b.keys():
        sys.exit("the dumps hold different windows")
    if all(isinstance(outcome, str) for outcome in a.values()):
        return compare_outcomes(a, b)
    if any(len(a[key]) != len(b[key]) for key in a):
        sys.exit("the dumps hold different windows or grids")
    moved = 0
    worst_abs = worst_rel = (0.0, None)
    for key in a:
        for k in range(0, len(a[key]), 2):
            z, w = complex(a[key][k], a[key][k + 1]), complex(b[key][k], b[key][k + 1])
            if struct.pack("dd", z.real, z.imag) != struct.pack("dd", w.real, w.imag):
                moved += 1
                move = abs(z - w)  # 0 for a sign-of-zero flip
                if move > worst_abs[0]:
                    worst_abs = (move, key)
                if move and (rel := move / abs(w) if w else math.inf) > worst_rel[0]:
                    worst_rel = (rel, key)
    total = sum(len(x) for x in a.values()) // 2
    print(f"coordinates {total}  moved {moved}")
    print(f"largest move {worst_abs[0]:.3e} at {worst_abs[1]}, relative {worst_rel[0]:.3e} at {worst_rel[1]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the skyburst source tree to trace")
    parser.add_argument("--dump", type=Path, help="also write every path coordinate (with --wide, each window's outcome) to this file")
    parser.add_argument("--wide", action="store_true", help="trace the wide scan in place of the workload's windows")
    parser.add_argument("--compare", type=Path, nargs=2, metavar="FILE", help="compare two dumps")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.wide:
        wide(args.src, args.dump)
    else:
        traffic(args.src, args.dump)


if __name__ == "__main__":
    main()
