"""Acceptance gates for the package, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure).  Criteria 9 and 11b state limits at the integers: the k = n - j
zeros that collapse onto the origin at omega = j leave it along the rays
pi + 2*pi*i/k and come back at the next integer.  At a finite offset delta
from j those zeros sit at radius ~ delta^(1/k) (Newton polygon of S_n at 0),
and their angular deviation from the rays is proportional to that radius: at
offset 0.01 it is 0.06..0.08 rad, and the segment ends of the trace reach
|z| = 0.57.  Both criteria therefore take a second sample at offset
delta * 2^-k, assert that it shows the predicted halving, and apply their
stated gate to 2*x(delta * 2^-k) - x(delta), which cancels the leading
delta^(1/k) term.  Everything else passes at zero tolerance or better.
"""

import cmath
import math
from fractions import Fraction

import pytest

from skyburst.moments import bilinear, construct_determinantal, toeplitz_det_closed, toeplitz_det_direct
from skyburst.recurrences import (
    DEFAULT_OMEGA_GRID,
    differential_step,
    genfun_compare,
    lifting,
    lifting_printed,
    lowering,
    ode_residual,
    step_mixed,
    step_omega_up,
    step_omega_up_printed,
)
from skyburst.skypoly import (
    Polynomial,
    construct,
    derivative_at_minus_one,
    value_at_zero,
)
from skyburst.zeros import AXIS_TOL, classify, emergence_angles, fizzle_gap, trace, zeros_of

F = Fraction
GRID = DEFAULT_OMEGA_GRID
TWO_PI = 2 * math.pi


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def zpow(k):
    return Polynomial((0,) * k + (1,))


@pytest.fixture(scope="module")
def bundle9():
    return trace(9, 0.05, 8.95)


def test_criterion_1_exact_orthogonality():
    worst = F(0)
    nondegenerate = True
    for n in range(9):
        for w in GRID:
            s = construct(n, w)
            for k in range(n):
                worst = max(worst, abs(bilinear(s, zpow(k), w)))
            if n >= 0 and bilinear(s, zpow(n), w) == 0:
                nondegenerate = False
    ok = worst == 0 and nondegenerate
    assert report("1 exact orthogonality", ok, f"max residual {worst}, diagonal nonzero {nondegenerate}")


def test_criterion_2_route_triangulation():
    mismatches = 0
    for n in range(9):
        for w in GRID:
            a = construct(n, w)
            b = construct_determinantal(n, w)
            routes = [a, b] + ([step_mixed(n, w)] if n >= 1 else [])
            if any(r != a for r in routes):
                mismatches += 1
    ok = mismatches == 0
    assert report("2 route triangulation", ok, f"{mismatches} mismatching (n, omega) points")


def test_criterion_3_cauchy_determinant():
    worst = F(0)
    for n in range(9):
        for w in GRID:
            worst = max(worst, abs(toeplitz_det_closed(n, w) - toeplitz_det_direct(n, w)))
    spot = toeplitz_det_direct(2, F(1, 2))
    ok = worst == 0 and spot == F(16, 3)
    assert report("3 cauchy determinant", ok, f"max residual {worst}, spot value {spot} (want 16/3)")


def test_criterion_4_recurrence_suite():
    worst = F(0)
    for n in range(11):
        for w in GRID:
            if n >= 1:
                worst = max(worst, *(abs(c) for c in (step_omega_up(n, w) - construct(n, w + 1)).coeffs or (F(0),)))
                d = differential_step(n, w) - construct(n, w).derivative()
                worst = max(worst, *(abs(c) for c in d.coeffs or (F(0),)))
            lift = lifting(n, w) - construct(n, w + 1)
            lower = lowering(n, w) - construct(n, w - 1)
            worst = max(worst, *(abs(c) for c in lift.coeffs or (F(0),)))
            worst = max(worst, *(abs(c) for c in lower.coeffs or (F(0),)))
    printed_shift = step_omega_up_printed(1, F(1, 2)) - construct(1, F(3, 2))
    printed_lift = lifting_printed(1, F(1, 2)) - construct(1, F(3, 2))
    rejected = (not printed_shift.is_zero) and (not printed_lift.is_zero)
    ok = worst == 0 and rejected
    assert report(
        "4 recurrence suite",
        ok,
        f"max corrected-form residual {worst}; printed forms rejected {rejected}",
    )


def test_criterion_5_ode():
    worst = F(0)
    for n in range(11):
        for w in GRID:
            r = ode_residual(n, w)
            if not r.is_zero:
                worst = max(worst, *(abs(c) for c in r.coeffs))
    ok = worst == 0
    assert report("5 ode residual", ok, f"max residual {worst}")


def test_criterion_6_special_values():
    exact_ok = True
    for n in range(11):
        for w in GRID:
            p = construct(n, w)
            d = p
            for m in range(n + 1):
                if derivative_at_minus_one(m, n, w) != d(F(-1)):
                    exact_ok = False
                d = d.derivative()
            if value_at_zero(n, w) != p(F(0)) or value_at_zero(n, w) == 0:
                exact_ok = False
    zero_iff = all(
        value_at_zero(n, F(m)) == 0 for n in range(1, 11) for m in range(n)
    ) and all(value_at_zero(n, F(n)) != 0 for n in range(1, 11))
    ok = exact_ok and zero_iff
    assert report("6 special values", ok, f"closed forms exact {exact_ok}, zero-iff-integer {zero_iff}")


def test_criterion_7_generating_function():
    grid = [
        (0.4 + 0.2j, 0.5),
        (-1.0 + 0j, 0.3),
        (0.9 + 0j, 0.55),
        (-0.5 + 0.5j, 0.6),
        (2.0 + 0j, 0.25),
    ]
    assert all(abs(z * t) <= 0.5 + 1e-12 and abs(t) <= 0.6 for z, t in grid)
    worst = max(genfun_compare(F(1, 2), z, t, 60) for z, t in grid)
    ok = worst <= 1e-10
    assert report("7 generating function", ok, f"max residual {worst:.3e} at N=60 on 5-point grid")


def test_criterion_8_zero_count_schedule():
    ok = True
    details = []
    for m in range(9):
        w = F(2 * m + 1, 2)
        p = construct(9, w).to_inexact()
        scale = 1 + max(abs(c) for c in p.coeffs)
        zs = zeros_of(9, w)
        counts = classify(zs)
        if counts.neg_unit != m + 1 or zs.residual_max > 1e-10 * scale:
            ok = False
        details.append(f"omega={m}.5: {counts.neg_unit} in (-1,0)")
    zs = zeros_of(9, F(19, 2))
    counts = classify(zs)
    if counts.neg_unit != 9:
        ok = False
    assert report("8 zero count schedule", ok, "; ".join(details) + f"; omega=9.5: {counts.neg_unit} in (-1,0)")


def _ray_deviations(angles, rays) -> list:
    """Signed deviation, wrapped to (-pi, pi], of the angle nearest each ray."""
    return [min(((a - t + math.pi) % TWO_PI - math.pi for a in angles), key=abs) for t in rays]


def test_criterion_9_emergence_angles():
    # gate: 0.05 rad from the rays pi + 2*pi*i/(n-m), stated for eps -> 0.
    # The deviation at eps is ~eps^(1/(n-m)) (0.06..0.08 rad at 0.01), so a
    # second sample at eps*2^-(n-m) must show it halved, and the gate applies
    # to the extrapolated angles 2*a(eps*2^-(n-m)) - a(eps).
    ok = True
    details = []
    for n, m in [(9, 0), (5, 2), (4, 1)]:
        k = n - m
        rays = [(math.pi + TWO_PI * i / k) % TWO_PI for i in range(k)]
        near = _ray_deviations(emergence_angles(n, m, 0.01), rays)
        nearer = _ray_deviations(emergence_angles(n, m, 0.01 * 2.0**-k), rays)
        raw = max(map(abs, near))
        ratio = max(map(abs, nearer)) / raw
        limit = max(abs(2 * b - a) for a, b in zip(near, nearer))
        ok = ok and 0.4 <= ratio <= 0.65 and limit <= 0.05
        details.append(f"(n={n},m={m}): raw {raw:.4f} rad, ratio {ratio:.2f}, limit {limit:.4f} rad")
    assert report("9 emergence angles", ok, "gate 0.05 rad on the limit; " + ", ".join(details))


def test_criterion_10_fizzle():
    gap5 = fizzle_gap(5, 1e5)
    linear_ok = all(
        abs(fizzle_gap(1, w) - 1 / (1 + float(w))) <= 1e-12 for w in (F(3, 2), F(4), F(100))
    )
    ok = gap5 <= 1e-3 and linear_ok
    assert report("10 fizzle", ok, f"gap(5, 1e5) = {gap5:.3e} (gate 1e-3); linear closed form {linear_ok}")


def _segment_offaxis_paths(bundle, lo, hi):
    out = []
    for i, path in enumerate(bundle.paths):
        seg = path[lo : hi + 1]
        if any(abs(z.imag) > AXIS_TOL * (1 + abs(z)) for z in seg):
            out.append(i)
    return out


def test_criterion_11a_conjugate_pairing(bundle9):
    worst = 0.0
    for lo, hi in bundle9.segment_slices():
        for i in _segment_offaxis_paths(bundle9, lo, hi):
            path = bundle9.paths[i]
            partner = min(
                max(abs(other[k] - path[k].conjugate()) for k in range(lo, hi + 1))
                for j, other in enumerate(bundle9.paths)
                if j != i
            )
            worst = max(worst, partner)
    ok = worst <= 1e-9
    assert report("11a conjugate pairing", ok, f"worst pointwise partner distance {worst:.3e}")


def _closer_roots(n, omega, ends) -> list:
    """Roots of S_n at 2^-(n-j) times omega's offset from its nearest integer
    j, matched one-to-one to ends: each end point z gets the root nearest z/2."""
    j = round(omega)
    roots = zeros_of(n, j + (omega - j) * 2.0 ** (j - n)).values()
    out = []
    for z in ends:
        y = min(roots, key=lambda r: abs(r - z / 2))
        roots.remove(y)
        out.append(y)
    return out


def test_criterion_11b_loop_closure(bundle9):
    # gate: every off-axis path within 0.1 of the origin at both ends of each
    # integer-bounded segment, stated for ends at the integers.  A segment end
    # sits delta from its integer j (INTEGER_OFFSET, or 0.05 at the trace
    # start), where the k = n-j collapsing roots have radius ~delta^(1/k):
    # 0.57 at the start, 0.2 at 1 -/+ 1e-3.  So each end point z is paired
    # with the root y at offset delta*2^-k nearest z/2; |y|/|z| must show the
    # halving, and the gate applies to the extrapolated end point 2y - z.
    n = len(bundle9.paths)
    per_segment = []
    ok = True
    for lo, hi in bundle9.segment_slices():
        offaxis = _segment_offaxis_paths(bundle9, lo, hi)
        if not offaxis:
            continue
        raw, ratios, limit = 0.0, [], 0.0
        for end in (lo, hi):
            ends = [bundle9.paths[i][end] for i in offaxis]
            for z, y in zip(ends, _closer_roots(n, bundle9.omega_grid[end], ends)):
                raw = max(raw, abs(z))
                ratios.append(abs(y) / abs(z))
                limit = max(limit, abs(2 * y - z))
        m = math.floor(bundle9.omega_grid[lo])
        per_segment.append(
            f"segment ({m},{m + 1}): raw {raw:.3f}, ratio {min(ratios):.3f}..{max(ratios):.3f}, limit {limit:.3f}"
        )
        if not (limit < 0.1 and all(0.4 <= r <= 0.6 for r in ratios)):
            ok = False
    assert report("11b loop closure", ok, "gate 0.1 on the limit; per segment (raw = max endpoint |z|): " + "; ".join(per_segment))
