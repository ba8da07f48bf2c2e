import cmath
import dataclasses
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from skyburst import zeros
from skyburst.errors import ConvergenceError, DomainError, TrackingError
from skyburst.skypoly import Polynomial, construct
from skyburst.zeros import (
    AXIS_TOL,
    SIMPLICITY_THRESHOLD,
    ZeroCounts,
    ZeroTag,
    classify,
    emergence_angles,
    find_zeros,
    fizzle_gap,
    simplicity_margin,
    trace,
    zeros_of,
    _assign,
    _tag_root,
)

F = Fraction
TWO_PI = 2 * math.pi


def target_angles(count):
    return sorted((math.pi + TWO_PI * k / count) % TWO_PI for k in range(count))


def max_angle_dev(measured, count):
    return max(abs(a - t) for a, t in zip(measured, target_angles(count)))


class TestFindZeros:
    def test_pure_monomial_deflates_to_origin(self):
        zs = find_zeros(construct(3, F(0)).to_inexact(), omega=0.0)
        assert [tag for _, tag in zs.roots] == [ZeroTag.ORIGIN] * 3
        assert zs.residual_max == 0.0

    def test_linear_member(self):
        zs = zeros_of(1, F(1, 2))
        (z, tag), = zs.roots
        assert tag is ZeroTag.NEG_UNIT
        assert z == pytest.approx(-1 / 3, abs=1e-15)

    def test_quadratic_against_formula(self):
        # quadratic-formula oracle: -1/5 +- sqrt(8/75)
        zs = zeros_of(2, F(1, 2))
        lo, hi = sorted(z.real for z, _ in zs.roots)
        assert lo == pytest.approx(-0.2 - math.sqrt(8 / 75), abs=1e-12)
        assert hi == pytest.approx(-0.2 + math.sqrt(8 / 75), abs=1e-12)
        tags = {tag for _, tag in zs.roots}
        assert tags == {ZeroTag.NEG_UNIT, ZeroTag.POS_REAL}

    def test_against_companion_matrix_oracle(self):
        for n, w in [(3, F(1, 2)), (5, F(7, 3)), (9, F(1, 2)), (6, F(22, 7)), (4, F(5, 4))]:
            p = construct(n, w).to_inexact()
            mine = zeros_of(n, w).values()
            ref = [complex(b) for b in np.roots(list(reversed(p.coeffs)))]
            assert len(mine) == len(ref)
            for a in mine:
                assert min(abs(a - b) for b in ref) < 1e-8
            for b in ref:
                assert min(abs(a - b) for a in mine) < 1e-8

    def test_residual_certification(self):
        for n, w in [(5, F(1, 2)), (9, F(5, 4)), (12, F(22, 7))]:
            p = construct(n, w).to_inexact()
            scale = 1 + max(abs(c) for c in p.coeffs)
            zs = find_zeros(p, omega=float(w))
            assert zs.residual_max <= 1e-10 * scale
            assert len(zs.roots) == n

    def test_mixed_origin_and_free_roots(self):
        # z^2 * (z - 1/2): exact zero constant terms deflate analytically
        p = Polynomial((0.0, 0.0, -0.5, 1.0))
        zs = find_zeros(p)
        tags = [tag for _, tag in zs.roots]
        assert tags.count(ZeroTag.ORIGIN) == 2
        assert any(abs(z - 0.5) < 1e-14 for z, _ in zs.roots)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DomainError):
            find_zeros(Polynomial((1.0,)))
        with pytest.raises(DomainError):
            find_zeros(Polynomial(()))

    def test_uncertifiable_tolerance_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(zeros, "DEFAULT_TOL", 1e-30)
        p = construct(9, F(1, 2)).to_inexact()
        with pytest.raises(ConvergenceError, match="residual") as info:
            find_zeros(p)
        best = info.value.best
        assert len(best) == 9
        assert max(abs(p(z)) for z in best) < 1e-10  # iterates are still good roots

    def test_tolerance_is_not_an_argument(self):
        with pytest.raises(TypeError):
            find_zeros(construct(5, F(1, 2)).to_inexact(), tol=1e-9)

    def test_non_finite_iterates_refused(self):
        # from one circle of radius 1 + max|c| the iteration overflowed to NaN here; from the
        # Newton-polygon start it runs out of sweeps
        with pytest.raises(ConvergenceError, match="did not settle"):
            zeros_of(46, Fraction(93, 2))
        # start circles of radius 1e-308 and 1e308: the first sweep overflows to NaN, and
        # max(0.0, nan) used to report residual 0
        with pytest.raises(ConvergenceError, match="finite"):
            find_zeros(Polynomial([1.0, 1e308, 1.0]))

    def test_overflow_refused(self):
        with pytest.raises(ConvergenceError, match="did not settle"):
            zeros_of(52, Fraction(69, 2))
        # both starts lie on the circle of radius sqrt(1.4e308): |p| there exceeds the double range
        with pytest.raises(ConvergenceError, match="overflow"):
            find_zeros(Polynomial([1.4e308, 0.0, 1.0]))

    def test_coefficient_beyond_double_range_refused(self):
        # the float conversion raised a bare OverflowError before the solve began
        with pytest.raises(DomainError, match="double range"):
            find_zeros(Polynomial([Fraction(10) ** 400, 1]))

    def test_conjugate_symmetry(self):
        for n, w in [(9, F(1, 2)), (7, F(5, 4)), (5, F(1, 3))]:
            vals = zeros_of(n, w).values()
            complexes = [z for z in vals if abs(z.imag) > AXIS_TOL * (1 + abs(z))]
            for z in complexes:
                assert min(abs(z.conjugate() - u) for u in complexes) < 1e-9

    def test_warm_start_takes_fewer_sweeps(self):
        # the roots at 0.50 lie within a few hundredths of those at 0.52
        seed = zeros_of(17, 0.50).values()
        cold = zeros_of(17, 0.52)
        found, _, sweeps, _ = zeros._certified(_member_coeffs(17, 0.52), seed)
        assert 0 < 2 * sweeps < cold.iterations
        assert sorted(map(_tag_root, found)) == sorted(tag for _, tag in cold.roots)
        # match by distance, not by sorted position: a last-bit move in a real part
        # can swap the (real, imag) order of a conjugate pair
        unmatched = cold.values()
        for a in found:
            b = unmatched.pop(min(range(len(unmatched)), key=lambda j: abs(unmatched[j] - a)))
            assert abs(a - b) <= 1e-10 * (1 + abs(b))

    def test_iterations_zero_without_a_polynomial_left(self):
        assert find_zeros(construct(3, F(0)).to_inexact()).iterations == 0
        assert find_zeros(Polynomial((0.0, 0.0, -0.5, 1.0))).iterations > 0

    def test_settled_roots_leave_the_sweep(self):
        # a root whose step falls below 1e-14 relative is no longer evaluated
        zs = zeros_of(40, F(7, 3))
        assert 0 < zs.evaluations < zs.iterations * 40
        assert find_zeros(construct(3, F(0)).to_inexact()).evaluations == 0

    @pytest.mark.parametrize("coeffs, error, message", [
        ((1e-200, 0.0, 1e200), ConvergenceError, "0 roots found for degree 2"),
        ((1e-170, 1e-170, 1e170), ConvergenceError, "0 roots found for degree 2"),
        ((1.0, math.inf), DomainError, "finite coefficients"),
    ], ids=["1e-200,0,1e200", "1e-170,1e-170,1e170", "1,inf"])
    def test_short_root_set_refused(self, coeffs, error, message):
        # divided by the lead, the lower coefficients vanished (or turned NaN), the cold start
        # gave fewer points than roots, and the set came back certified with no roots
        with pytest.raises(error, match=message):
            find_zeros(Polynomial(coeffs))

    def test_only_deflated_roots_are_origin_roots(self):
        # an origin root is an exactly zero constant term, deflated; the iteration's roots of
        # modulus 1.414e-160 are not origin roots, however small
        zs = find_zeros(Polynomial([2e-160, 0.0, 1e160]))
        assert classify(zs).origin == 0
        assert [abs(z) for z in zs.values()] == pytest.approx([2 ** 0.5 * 1e-160] * 2, rel=1e-7)
        assert classify(find_zeros(Polynomial([0.0, 2e-160, 0.0, 1e160]))).origin == 1

    def test_no_kissing_with_endpoints(self):
        for n, w in [(5, F(1, 2)), (9, F(7, 2)), (6, F(22, 7))]:
            vals = zeros_of(n, w).values()
            assert min(abs(z) for z in vals) > 1e-4
            assert min(abs(z + 1) for z in vals) > 1e-4


@pytest.mark.parametrize("call", [
    lambda: zeros_of(9, F(1, 2)),
    lambda: fizzle_gap(5, F(11, 2)),
    lambda: trace(3, .05, .5),
], ids=["zeros_of", "fizzle_gap", "trace"])
def test_one_certificate_reaches_every_solve(call, monkeypatch):
    # every solve reads DEFAULT_TOL when it runs, and none carries a bound of its own;
    # find_zeros is test_uncertifiable_tolerance_carries_best_iterate
    monkeypatch.setattr(zeros, "DEFAULT_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match="residual"):
        call()


def test_zeros_of_pinned():
    # repr of every root set (or the refusal) at n in 5..40, re-recorded when the cold start
    # became the Newton-polygon circles (every tag held, every root moved by at most 1.3e-14
    # relative), when settled roots left the sweep (the same, 5.0e-15; repr gained evaluations)
    # and when the polish stopped at the rounding floor (at most 1.6e-15; evaluations count
    # the polish's too)
    digest = hashlib.sha256()
    for w in (F(1, 2), F(7, 3), 2.5, 0.37):
        for n in range(5, 41):
            try:
                digest.update(repr(zeros_of(n, w)).encode())
            except Exception as exc:
                digest.update(f"{type(exc).__name__}|{exc}".encode())
            digest.update(b"\n")
    assert digest.hexdigest() == "cbbbdab0714ab93aeae96bb24674c15b9a26868e80dcfe7231ec18c26039fa33"


def test_thirty_at_twenty_one_halves_has_eleven_roots_in_unit_interval():
    assert classify(zeros_of(30, F(21, 2))).neg_unit == 11


def test_root_set_is_conjugate_symmetric_at_fifteen():
    vals = zeros_of(15, 7.9985).values()
    upper = sum(z.imag > AXIS_TOL * (1 + abs(z)) for z in vals)
    lower = sum(z.imag < -AXIS_TOL * (1 + abs(z)) for z in vals)
    assert upper == lower


@pytest.mark.parametrize("n, w, counts", [(18, F(21, 2), (11, 1, 6)), (16, 8.001, (9, 1, 6))], ids=str)
def test_counts_follow_the_schedule(n, w, counts):
    # from one circle of radius 1 + max|c|, (18, 21/2) lost its positive root and
    # (16, 8.001) came back with 5 upper and 3 lower off-axis roots
    zs = classify(zeros_of(n, w))
    assert (zs.neg_unit, zs.pos_real, zs.complex_offaxis, zs.origin) == (*counts, 0)


def test_root_set_that_is_not_conjugate_symmetric_refused():
    # the census puts 36 roots in (-1, 0); the iteration leaves fewer there and an odd
    # split off the axis, which zeros_of refuses rather than return the set wrong
    with pytest.raises(ConvergenceError, match="not conjugate-symmetric"):
        zeros_of(40, F(71, 2))


def test_real_root_below_minus_one_is_not_tagged_off_axis():
    zs = zeros_of(1, F(-13, 9))
    (z, tag), = zs.roots
    assert z == -3.25
    assert tag is ZeroTag.NEG_OUTER
    assert classify(zs) == ZeroCounts(neg_unit=0, pos_real=0, complex_offaxis=0, origin=0, neg_outer=1)


def _horner_pair(coeffs, z, dp=0j):
    # value and derivative at z for an ascending coefficient list: the reference Horner pass
    # (dp=0.0 on a real row)
    p = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _polish_three_steps(coeffs, z):
    # the reference polish: up to three Newton steps, ending at a step below 2^-52 |z|
    for _ in range(3):
        p, dp = _horner_pair(coeffs, z)
        if p == 0 or dp == 0:
            return z
        step = p / dp
        if abs(step) > 1e-2 * (1 + abs(z)) or abs(step) < 2.0 ** -52 * abs(z):
            return z
        z = z - step
    return z


def test_newton_polish_is_the_three_step_polish_bit_for_bit():
    for n, w in itertools.product((5, 12, 20), (F(1, 2), F(7, 3), 0.37)):
        coeffs = list(map(complex, construct(n, w).to_inexact().coeffs))
        roots, _, _ = zeros._aberth(coeffs)
        for z0 in roots + [r * (1 + 1e-9) for r in roots]:
            z, p, evaluations = zeros._newton_polish(coeffs[-1], coeffs[-2::-1], z0)
            assert repr(z) == repr(_polish_three_steps(coeffs, z0))
            # the residual find_zeros reads is p(z) at the returned z
            assert repr(p) == repr(_horner_pair(coeffs, z)[0])
            assert 1 <= evaluations <= 4


def test_real_horner_is_the_real_part_of_the_complex_horner_bit_for_bit():
    # a seeded real is evaluated in float on the real parts of the row: at a real point the
    # complex pass has imaginary parts of 0 throughout, so its real parts are the float pass
    for n, w in itertools.product((5, 12, 21), (F(1, 2), F(7, 3), 8.999, 0.37)):
        coeffs = _member_coeffs(n, w)
        real_row = [c.real for c in coeffs]
        for x in [z.real for z in zeros_of(n, w).values()] + [-0.999, -0.5, 0.25, 1.5]:
            p, dp = _horner_pair(coeffs, complex(x, 0.0))
            assert (repr(p.real), repr(dp.real)) == tuple(map(repr, _horner_pair(real_row, x, 0.0)))


def _aberth_reference(coeffs, start=None, pairs_from=None):
    # the reference sweep: _horner_pair and a loop over j, in the order _aberth keeps;
    # a frozen root is skipped as i and kept as j; then a loop over the mirrored conjugates.
    # The roots before pairs_from are reals: a float Horner pass on the real parts of the row,
    # then a loop over the other reals and one over the pairs, each pair a +- ib one term
    # 2(x - a) / ((x - a)^2 + b^2).  A seeded solve also freezes a root whose step is below
    # NEWTON_BASIN * |z|
    lead = coeffs[-1]
    c = [x / lead for x in coeffs]
    real_c = [x.real for x in c]
    resid_floor = 64 * 2.220446049250313e-16 * (1 + max(abs(x) for x in c))
    if start is None:
        roots = zeros._polygon_start(c)  # the start is tested on its own, below
    else:
        roots = [complex(z) for z in start]
    d = len(roots)
    pairs = d if pairs_from is None else pairs_from
    reals = 0 if pairs_from is None else pairs_from
    for i in range(reals):
        roots[i] = roots[i].real
    frozen = [False] * d
    values = [0.0] * d
    evaluations = 0
    for sweep in range(1, zeros.MAX_ITERATIONS + 1):
        for i in range(d):
            if frozen[i]:
                continue
            z = roots[i]
            p, dp = _horner_pair(real_c, z, 0.0) if i < reals else _horner_pair(c, z)
            evaluations += 1
            values[i] = abs(p)
            if p == 0:
                frozen[i] = True
                continue
            if dp == 0:
                roots[i] = z * 1.0000001 + 1e-12
                continue
            ratio = p / dp
            if i < reals:
                s = 0.0
                for j in range(reals):
                    if j == i:
                        continue
                    dx = z - roots[j]
                    if dx == 0:
                        dx = 1e-20
                    s += 1.0 / dx
                for j in range(pairs, d):
                    dx = z - roots[j].real
                    q = dx * dx + roots[j].imag * roots[j].imag
                    if q == 0:
                        q = 1e-20
                    s += 2 * dx / q
            else:
                s = 0j
                for j in range(d):
                    if j == i:
                        continue
                    dz = z - roots[j]
                    if dz == 0:
                        dz = 1e-20
                    s += 1 / dz
                for j in range(pairs, d):
                    dz = z - roots[j].conjugate()
                    if dz == 0:
                        dz = 1e-20
                    s += 1 / dz
            denom = 1 - ratio * s
            step = ratio if denom == 0 else ratio / denom
            roots[i] = z - step
            rel = abs(step) / (1 + abs(roots[i]))
            if rel < 1e-14 or math.isnan(rel):
                frozen[i] = True
            if start is not None and abs(step) < zeros.NEWTON_BASIN * abs(roots[i]):
                frozen[i] = True
        if all(frozen) or all(v < resid_floor for v in values):
            return roots, sweep, evaluations
    raise ConvergenceError(
        f"root iteration did not settle in {zeros.MAX_ITERATIONS} sweeps", best=roots
    )


def _aberth_outcome(solver, coeffs, start=None, pairs_from=None):
    try:
        return repr(solver(coeffs, start, pairs_from))
    except Exception as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "best", None)))


def _member_coeffs(n, w):
    return list(map(complex, construct(n, w).to_inexact().coeffs))


def _assert_reference_outcome(coeffs, start=None, pairs_from=None):
    assert _aberth_outcome(zeros._aberth, coeffs, start, pairs_from) == _aberth_outcome(
        _aberth_reference, coeffs, start, pairs_from)


# the pins stop at n = 40 and zeros_scan goes to 60; at 61/2 the cold solve runs
# out of its 500 sweeps with finite iterates at n = 49 and at every n >= 52 (the
# "did not settle" refusal of zeros_of(60, 61/2))
@pytest.mark.parametrize("w", [F(1, 2), F(7, 3), F(61, 2), 2.5, 0.37], ids=str)
@pytest.mark.parametrize("n", range(41, 61))
def test_aberth_cold_solve_is_the_reference_sweep_bit_for_bit(n, w):
    _assert_reference_outcome(_member_coeffs(n, w))


def test_aberth_guards_and_seeds_are_the_reference_sweep_bit_for_bit():
    # the last accepted step of a continuation: its seeds and its target omega
    bundle = trace(9, 0.05, 0.5)
    _assert_reference_outcome(_member_coeffs(9, bundle.omega_grid[-1]),
                              [path[-2] for path in bundle.paths])
    _assert_reference_outcome([-1 + 0j, 0j, 1 + 0j], [0.5 + 0j, 0.5 + 0j])  # coincident starts
    _assert_reference_outcome([-1 + 0j, 0j, 1 + 0j], [0j, 0.5 + 0j])        # zero derivative


def _split(values):
    # the seed trace gives _seeded: the on-axis reals and the upper roots
    return ([z for z in values if zeros._on_axis(z)],
            [z for z in values if z.imag > 0 and not zeros._on_axis(z)])


@pytest.mark.parametrize("args", [(9, 0.05, 0.95), (17, 0.5, 0.95), (21, 0.5, 0.95)], ids=str)
def test_aberth_mirrored_seeds_are_the_reference_sweep_bit_for_bit(args):
    # the seeded solves of a continuation, mirrored: from the reals and the uppers at one grid
    # point towards the next, and from the cold roots at a grid point towards themselves
    bundle = trace(*args)
    for k in (1, len(bundle.omega_grid) // 2, len(bundle.omega_grid) - 1):
        w = bundle.omega_grid[k]
        for values in ([path[k - 1] for path in bundle.paths], zeros_of(args[0], w).values()):
            reals, uppers = _split(values)
            _assert_reference_outcome(_member_coeffs(args[0], w), reals + uppers, len(reals))


@pytest.mark.parametrize("sweeps", [1, 2, 3, zeros.MAX_ITERATIONS])
def test_aberth_mirrored_guards_are_the_reference_sweep_bit_for_bit(sweeps, monkeypatch):
    # mirrored solves through the guards, cut after a few sweeps too (the refusal carries the
    # iterates), as a stale mirror is forgotten once the roots settle.  p = (z - 1)(z^2 + z + 4)
    # has p'(1j) == 0 exactly: an upper seeded at 1j is nudged, and the real's next correction
    # reads the nudged mirror
    reals, uppers = _split(zeros_of(9, 0.5).values())
    monkeypatch.setattr(zeros, "MAX_ITERATIONS", sweeps)
    cubic = [-4 + 0j, 3 + 0j, 0j, 1 + 0j]
    assert _horner_pair(cubic, 1j)[1] == 0
    _assert_reference_outcome(cubic, [1.1 + 0j, 1j], 1)
    _assert_reference_outcome(cubic, [1j, 1.1 + 0j, 1j], 2)  # a real and an upper both at 1j
    # p (z^2 - 2z + 5): two uppers on one point, and an upper on the axis, on its own mirror
    quintic = [-20 + 0j, 23 + 0j, -10 + 0j, 8 + 0j, -2 + 0j, 1 + 0j]
    _assert_reference_outcome(quintic, [1.1 + 0j, 0.9 + 2.1j, 0.9 + 2.1j], 1)
    _assert_reference_outcome(quintic, [1.1 + 0j, -0.4 + 2j, 1.2 + 0j], 1)
    # a continuation's seed with its second upper set to the first
    uppers[1] = uppers[0]
    _assert_reference_outcome(_member_coeffs(9, 0.5), reals + uppers, len(reals))


def _upper_hull(points):
    # brute force: a point is a vertex when it lies strictly above every chord that spans it
    return [(k, y) for k, y in points
            if all((y - ya) * (kb - ka) > (yb - ya) * (k - ka)
                   for ka, ya in points if ka < k for kb, yb in points if kb > k)]


@pytest.mark.parametrize("seed", range(20))
def test_polygon_start_is_the_upper_hull_circles(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 40)
    c = [10 ** rng.uniform(-30, 30) * cmath.exp(1j * rng.uniform(0, TWO_PI)) for _ in range(d)] + [1 + 0j]
    for k in rng.sample(range(1, d), (d - 1) // 3):
        c[k] = 0j
    hull = _upper_hull([(k, math.log(abs(x))) for k, x in enumerate(c) if x != 0])
    expected = []
    for (i, _), (j, _) in zip(hull, hull[1:]):
        radius = (abs(c[i]) / abs(c[j])) ** (1 / (j - i))
        expected += [cmath.rect(radius, TWO_PI * (l / (j - i) + i / d) + 0.7) for l in range(j - i)]
    start = zeros._polygon_start(c)
    assert len(start) == d
    for z, e in zip(start, expected):
        assert abs(z - e) <= 1e-12 * abs(e)


@pytest.mark.parametrize("d, r", [(1, 3.0), (7, 0.25), (30, 2.0), (60, 1e-3)])
def test_polygon_start_of_a_pure_power_is_one_circle(d, r):
    start = zeros._polygon_start([complex(-r ** d)] + [0j] * (d - 1) + [1 + 0j])
    assert len(start) == d
    assert all(abs(z) == pytest.approx(r, rel=1e-14) for z in start)


def test_polygon_start_splits_two_clusters():
    # (z^3 - a^3)(z^4 - b^4): three roots of modulus a, four of modulus b
    a, b = 1e-3, 1e3
    start = zeros._polygon_start([complex(a**3 * b**4), 0j, 0j, complex(-b**4), complex(-a**3), 0j, 0j, 1 + 0j])
    radii = sorted(abs(z) for z in start)
    assert radii[:3] == pytest.approx([a] * 3, rel=1e-12)
    assert radii[3:] == pytest.approx([b] * 4, rel=1e-12)


def test_polygon_start_is_off_the_real_axis():
    # an exactly real start stays real under a real polynomial's iteration
    for n, w in itertools.product(range(1, 61), (F(1, 2), F(7, 3), F(61, 2), 0.37)):
        c = _member_coeffs(n, w)
        start = zeros._polygon_start([x / c[-1] for x in c])
        assert len(start) == n and all(z.imag != 0 for z in start)


def test_coincident_seeds_are_not_certified():
    # the 1e-20 guard makes the step ~1e-20, so Aberth "converges" at the
    # non-roots 0.5 and 0.5 after one sweep; the residual bound refuses them
    roots, sweeps, _ = zeros._aberth([-1 + 0j, 0j, 1 + 0j], [0.5 + 0j, 0.5 + 0j])
    assert sweeps == 1 and roots[0] == roots[1] == 0.5
    with pytest.raises(ConvergenceError, match="residual"):
        zeros._certified([-1 + 0j, 0j, 1 + 0j], [0.5 + 0j, 0.5 + 0j])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="coincident seeds near a root both settle on it with residual 0; "
                   "ROADMAP Direction 2 (inclusion certificate) mends it")
def test_coincident_seeds_at_a_root_do_not_hide_the_other_root():
    found = zeros._certified([-1 + 0j, 0j, 1 + 0j], [1.0000001 + 0j, 1.0000001 + 0j])[0]
    assert sorted(z.real for z in found) == [-1.0, 1.0]


def test_coincident_upper_seeds_at_a_root_are_refused():
    # both seeds settle on the root with a tiny residual and the root nearby is lost: the
    # seeded layout solve refuses two equal uppers
    reals, uppers = _split(zeros_of(9, 0.5).values())
    uppers[1] = uppers[0]
    with pytest.raises(ConvergenceError, match="one point"):
        zeros._seeded(9, 0.5, reals, uppers)


def test_upper_seeds_below_the_axis_are_refused():
    # seeds that settle on the lower roots leave their side of the real axis
    reals, uppers = _split(zeros_of(9, 0.5).values())
    with pytest.raises(ConvergenceError, match="left its side of the real axis, of 0 or of -1"):
        zeros._seeded(9, 0.5, reals, [u.conjugate() for u in uppers])


class TestClassify:
    def test_quadratic(self):
        counts = classify(zeros_of(2, F(1, 2)))
        assert (counts.neg_unit, counts.pos_real, counts.complex_offaxis) == (1, 1, 0)

    def test_degree_nine_first_burst(self):
        counts = classify(zeros_of(9, F(1, 2)))
        assert counts.neg_unit == 1
        assert counts.pos_real + counts.complex_offaxis == 8

    def test_fizzle_regime(self):
        counts = classify(zeros_of(5, F(15, 2)))
        assert counts.neg_unit == 5

    @pytest.mark.parametrize("n", [3, 5])
    def test_count_schedule(self, n):
        # brute-force-confirmed: m+1 roots in (-1,0); a positive-real root iff n-m even
        for m in range(n):
            counts = classify(zeros_of(n, F(2 * m + 1, 2)))
            assert counts.neg_unit == m + 1
            assert counts.pos_real == (1 if (n - m) % 2 == 0 else 0)
            assert counts.complex_offaxis == n - m - 1 - counts.pos_real
            assert counts.origin == 0

    # the zeros_scan input box: n in 16..60 at p/q < 3, every q in 2..9
    @pytest.mark.parametrize("n", range(16, 61))
    def test_count_schedule_up_to_degree_sixty(self, n):
        for w in (F(1, 9), F(1, 2), F(5, 7), F(4, 3), F(13, 8), F(9, 5), F(9, 4), F(17, 6)):
            m = math.floor(w)
            pos = 1 if (n - m) % 2 == 0 else 0
            counts = classify(zeros_of(n, w))
            assert (counts.neg_unit, counts.pos_real, counts.complex_offaxis, counts.origin) == (
                m + 1, pos, n - m - 1 - pos, 0)


class TestEmergenceAngles:
    def test_quadratic_burst_hits_both_rays(self):
        angles = emergence_angles(2, 0, 0.01)
        assert angles == pytest.approx((0.0, math.pi), abs=1e-9)

    def test_nine_burst_angles(self):
        angles = emergence_angles(9, 0, 0.01)
        assert len(angles) == 9
        # odd count: no ray along the positive axis
        assert min(angles) > 0.3
        assert max_angle_dev(angles, 9) < 0.08

    def test_three_ray_cases(self):
        for n, m in [(4, 1), (5, 2)]:
            angles = emergence_angles(n, m, 0.01)
            assert max_angle_dev(angles, n - m) < 0.08

    def test_tolerance_shrinks_with_eps(self):
        wide = max_angle_dev(emergence_angles(5, 2, 0.01), 3)
        tight = max_angle_dev(emergence_angles(5, 2, 0.002), 3)
        assert tight < wide

    def test_domain(self):
        with pytest.raises(DomainError):
            emergence_angles(4, 4, 0.01)
        with pytest.raises(DomainError):
            emergence_angles(4, 1, 0.2)
        with pytest.raises(DomainError):
            emergence_angles(4, 1, 0.0)


class TestFizzle:
    def test_linear_gap_closed_form(self):
        for w in (F(3, 2), F(10), F(1000)):
            assert fizzle_gap(1, w) == pytest.approx(1 / (1 + float(w)), abs=1e-12)
        assert fizzle_gap(0, F(1, 2)) == 0.0  # degree 0 has no roots

    def test_large_parameter(self):
        assert fizzle_gap(5, 1e5) <= 1e-3

    def test_monotone_trend(self):
        gaps = [fizzle_gap(3, w) for w in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_requires_fizzle_regime(self):
        with pytest.raises(DomainError):
            fizzle_gap(3, F(2))
        with pytest.raises(DomainError, match="degree must be nonnegative, got -1"):
            fizzle_gap(-1, F(1, 2))

    def test_regime_read_from_the_exact_omega(self):
        # 3 + 1e-20 rounds to 3.0, but the regime is read on the exact value, as every property of omega
        gap = fizzle_gap(3, F(3 * 10**20 + 1, 10**20))
        assert 0 < gap < 1

    def test_omega_beyond_the_double_range(self):
        # the gap at omega = 10^400 is about 10^-400: 0.0 in double precision, where float(omega) overflowed
        assert fizzle_gap(2, 10**400) == 0.0
        # the roots are those at 10^300; the label is the rounded omega, inf, not an OverflowError
        zs = zeros_of(2, 10**400)
        assert zs.omega == math.inf and zs.values() == zeros_of(2, 10**300).values()

    @pytest.mark.parametrize("n, w", [(30, F(61, 2)), (40, F(81, 2))])
    def test_gap_of_one_or_more_refused(self, n, w):
        # every zero lies in (-1, 0) for w > n; mpmath gives 0.99739 and 0.99851 here
        with pytest.raises(ConvergenceError, match="not below 1"):
            fizzle_gap(n, w)

    def test_gaps_against_mpmath_up_to_fifteen(self):
        # referee: 1 + the largest root, all roots in (-1, 0), from mpmath.polyroots at 50
        # digits on the exact coefficients; the worst error here is 9.1e-9
        for n in range(1, 16):
            for w in (n + F(1, 2), 2 * n + F(1, 3), 5 * n + F(1, 2)):
                with mpmath.workdps(50):
                    cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(construct(n, w).coeffs)]
                    want = max(abs(r + 1) for r in mpmath.polyroots(cs, maxsteps=200, extraprec=200))
                assert abs(fizzle_gap(n, w) - want) <= 2e-8, (n, w)

    def test_small_degree_gaps_pinned(self):
        # repr of each gap at n <= 12, where every gap is below 1: the refusal left them bit for bit;
        # re-recorded when the cold start became the Newton-polygon circles, when settled
        # roots left the sweep and when the polish stopped at the rounding floor
        gaps = [fizzle_gap(n, w) for n in range(1, 13) for w in (n + F(1, 2), 2 * n + F(1, 3), 5 * n + F(1, 2))]
        digest = hashlib.sha256(repr(gaps).encode()).hexdigest()
        assert digest == "40b205448d953e8310769aba29340f0cdaaf982948999b23dee636cc430b54ea"


class TestSimplicity:
    def test_quadratic_margin(self):
        zs = zeros_of(2, F(1, 2))
        assert simplicity_margin(zs) == pytest.approx(2 * math.sqrt(8 / 75), abs=1e-12)

    def test_single_root_sentinel(self):
        assert simplicity_margin(zeros_of(1, F(1, 2))) == math.inf

    def test_origin_roots_left_out(self):
        # S_6^2 = z^4 S_2^6: four origin roots, and the margin of the two others
        zs = zeros_of(6, 2)
        a, b = [z for z, tag in zs.roots if tag is not ZeroTag.ORIGIN]
        assert [tag for _, tag in zs.roots].count(ZeroTag.ORIGIN) == 4
        assert simplicity_margin(zs) == abs(a - b) > 0.3

    def test_degree_nine(self):
        assert simplicity_margin(zeros_of(9, F(1, 2))) > 1e-3

    def test_sampled_grid_above_threshold(self):
        for n, w in [(5, F(1, 3)), (9, F(13, 2)), (7, F(22, 7))]:
            assert simplicity_margin(zeros_of(n, w)) > SIMPLICITY_THRESHOLD


def _trace(monkeypatch, n, start, end, step=zeros.BASE_STEP, threshold=zeros.MATCH_THRESHOLD):
    # trace with its step set to step and its swap gate to threshold: (3, .05, 2.95, .05, .02)
    # is pinned at a step of 0.05 and a gate of 0.02
    monkeypatch.setattr(zeros, "BASE_STEP", step)
    monkeypatch.setattr(zeros, "MATCH_THRESHOLD", threshold)
    return trace(n, start, end)


def assert_step_bound(bundle):
    for lo, hi in bundle.segment_slices():
        for path in bundle.paths:
            for k in range(lo, hi):
                assert abs(path[k + 1] - path[k]) < zeros.MATCH_THRESHOLD


def assert_neg_unit_schedule(bundle):
    # m+1 roots in (-1, 0) at the middle of each segment (m, m+1)
    for lo, hi in bundle.segment_slices():
        mid = (lo + hi) // 2
        m = math.floor(bundle.omega_grid[mid])
        neg = sum(1 for path in bundle.paths if _tag_root(path[mid]) is ZeroTag.NEG_UNIT)
        assert neg == m + 1


def assert_conjugate_partners(bundle):
    for lo, hi in bundle.segment_slices():
        for i, path in enumerate(bundle.paths):
            seg = [path[k] for k in range(lo, hi + 1)]
            if not any(abs(z.imag) > AXIS_TOL * (1 + abs(z)) for z in seg):
                continue
            partner_best = min(
                max(abs(other[k] - path[k].conjugate()) for k in range(lo, hi + 1))
                for j, other in enumerate(bundle.paths)
                if j != i
            )
            assert partner_best <= 1e-9


class TestAssignment:
    @pytest.mark.parametrize("k", range(8))
    def test_matches_permutation_oracle(self, k):
        rng = random.Random(k)
        for _ in range(20):
            xs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]
            ys = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]
            perm = _assign(xs, ys)
            assert sorted(perm) == list(range(k))
            cost = sum(abs(x - ys[j]) for x, j in zip(xs, perm))
            best = min(
                sum(abs(x - ys[j]) for x, j in zip(xs, p)) for p in itertools.permutations(range(k))
            )
            assert cost == pytest.approx(best, abs=1e-12)

    def test_nine_uppers_take_the_optimal_pairing(self):
        # nearest-first would send 1+i to 1.6+i and leave 2+i a jump of 2
        far = [10 * k + 1j for k in range(1, 8)]
        xs, ys = [1 + 1j, 2 + 1j] + far, [0 + 1j, 1.6 + 1j] + far
        perm = _assign(xs, ys)
        assert perm == list(range(9))
        assert max(abs(x - ys[j]) for x, j in zip(xs, perm)) == pytest.approx(1.0, abs=1e-12)


class TestTrace:
    def test_single_root_drifts_toward_minus_one(self, monkeypatch):
        bundle = _trace(monkeypatch, 1, 0.1, 5.0, 0.05)
        assert len(bundle.paths) == 1
        xs = [z.real for z in bundle.paths[0]]
        assert all(-1 < x < 0 for x in xs)
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert bundle.burst_events == (1, 2, 3, 4)

    def test_quadratic_loop_and_capture(self):
        bundle = trace(2, 0.05, 2.5)
        assert len(bundle.paths) == 2
        assert bundle.burst_events == (1, 2)
        segs = bundle.segment_slices()
        lo0, hi0 = segs[0]
        pos_paths = [
            i
            for i in range(2)
            if any(_tag_root(bundle.paths[i][k]) is ZeroTag.POS_REAL for k in range(lo0, hi0 + 1))
        ]
        assert len(pos_paths) == 1
        lo1, hi1 = segs[1]
        captured = bundle.paths[pos_paths[0]]
        assert all(_tag_root(captured[k]) is ZeroTag.NEG_UNIT for k in range(lo1, hi1 + 1))

    def test_grid_avoids_integers(self):
        bundle = trace(2, 0.05, 2.5)
        for w in bundle.omega_grid:
            assert abs(w - round(w)) > 5e-4

    def test_step_bound_within_segments(self, monkeypatch):
        assert_step_bound(_trace(monkeypatch, 3, 0.05, 2.95, 0.05))

    def test_path_count_and_interval_population(self):
        bundle = trace(9, 0.05, 3.5)
        assert len(bundle.paths) == 9
        assert_neg_unit_schedule(bundle)

    def test_loop_closure_late_segment(self):
        # by segment (3, 4) the returning cluster is genuinely inside |z| < 0.1
        bundle = trace(9, 3.01, 3.99)
        (lo, hi), = bundle.segment_slices()
        for path in bundle.paths:
            seg = [path[k] for k in range(lo, hi + 1)]
            if any(abs(z.imag) > AXIS_TOL * (1 + abs(z)) for z in seg):
                assert abs(seg[0]) < 0.1
                assert abs(seg[-1]) < 0.1

    def test_conjugate_pairing_within_segments(self):
        assert_conjugate_partners(trace(9, 0.05, 2.5))

    def test_eight_upper_pairs(self):
        # n = 17 on (0, 1) has 8 conjugate pairs, then 7 past the burst
        bundle = trace(17, 0.5, 1.375)
        assert len(bundle.paths) == 17 and bundle.burst_events == (1,)
        assert_step_bound(bundle)
        assert_conjugate_partners(bundle)
        assert_neg_unit_schedule(bundle)

    def test_grid_and_bursts_pinned(self, monkeypatch):
        # the grids of the cold-started continuation, unchanged by seeding, by the
        # Newton-polygon start, by settled roots leaving the sweep, by mirrored seeded
        # solves, by refining each cold set mirrored, by predicted seeds and by seeded reals
        # iterated as floats, and a SHA-256 of each whole bundle (re-recorded with each of the
        # last six); (3, ..., 0.05, 0.02),
        # a step of 0.05 and a swap gate of 0.02, rejects and halves 38 steps
        for args, length, bursts, digest in [
            ((9, 0.05, 8.95), 456, tuple(range(1, 9)),
             "f751304c3bf90bd71539e3cc31ef19498586f1308488f37dbc73e53b2dbd2533"),
            ((15, 0.05, 14.95), 763, tuple(range(1, 15)),
             "9faeefddc9a82ddfb632cf2045219443d9bb82fe84149ee3203aca52364c5dda"),
            ((17, 0.05, 1.95), 98, (1,),
             "d6e3be7ae18f6d15eb1cb027d69b420c5234c922cd937c92087119e85147a61c"),
            ((3, 0.05, 2.95, 0.05, 0.02), 86, (1, 2),
             "3b4cb0d3fd3c17b34f93f74b36a66245d40dfa46fe9f3509f2d7cd9c1e06f420"),
            ((21, 0.5, 2.5), 106, (1, 2),
             "ede0098d6f5370f54f39f5228681249c4c7195cb86654db54cfc978b549d31aa"),
        ]:
            bundle = _trace(monkeypatch, *args)
            assert len(bundle.omega_grid) == length
            assert bundle.burst_events == bursts
            whole = repr((bundle.omega_grid, bundle.paths, bundle.burst_events))
            assert hashlib.sha256(whole.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args", [(9, 0.05, 3.5), (17, 0.5, 1.375), (21, 0.5, 2.5)])
    def test_seeded_positions_are_the_cold_roots(self, args):
        bundle = trace(*args)
        for k, w in enumerate(bundle.omega_grid):
            cold = list(zeros_of(args[0], w).roots)
            for path in bundle.paths:
                z = path[k]
                j = min(range(len(cold)), key=lambda j: abs(cold[j][0] - z))
                root, tag = cold.pop(j)
                assert abs(z - root) <= 1e-10 * (1 + abs(root))
                assert _tag_root(z) is tag

    @pytest.mark.parametrize("args", [(17, 0.5, 1.375), (21, 0.5, 2.5), (9, 0.05, 8.95)])
    def test_seeded_layouts_keep_the_seed_order(self, args, monkeypatch):
        # the fact trace's matching rests on: at every seeded step, and at every refinement of
        # a cold set, the minimum-total-distance assignment of the seed's uppers to the
        # result's is the identity
        seeded = zeros._seeded
        steps = []

        def checked(n, w, reals, uppers):
            found, evaluations = seeded(n, w, reals, uppers)
            steps.append(_assign(uppers, found[len(reals)::2]) == list(range(len(uppers))))
            return found, evaluations

        monkeypatch.setattr(zeros, "_seeded", checked)
        bundle = trace(*args)
        warm = len(bundle.omega_grid) - 1 - len(bundle.burst_events) + bundle.rejected_steps
        assert len(steps) == warm + bundle.cold_solves
        assert all(steps)

    @staticmethod
    def _refusing(monkeypatch, refuse):
        # wraps zeros_of and _seeded: a warm seed (a _seeded call not right after a zeros_of at
        # the same omega) is refused when refuse(omega of the last layout, w) holds; returns
        # the omegas of the cold solves and of the refused seeds, and one entry per _assign call
        cold_values, seeded, assign = zeros.zeros_of, zeros._seeded, zeros._assign
        colds, refused, assigned, last = [], [], [], []

        def cold(n, w):
            colds.append(w)
            return cold_values(n, w)

        def refuse_warm_seeds(n, w, reals, uppers):
            if colds[-1] != w and refuse(last[-1], w):
                refused.append(w)
                raise ConvergenceError("seed refused")
            last.append(w)
            return seeded(n, w, reals, uppers)

        def counted(xs, ys):
            assigned.append(len(xs))
            return assign(xs, ys)

        monkeypatch.setattr(zeros, "zeros_of", cold)
        monkeypatch.setattr(zeros, "_seeded", refuse_warm_seeds)
        monkeypatch.setattr(zeros, "_assign", counted)
        return colds, refused, assigned

    def test_refused_seeds_at_the_step_floor_raise_tracking_error(self, monkeypatch):
        # every warm seed is refused: the step is halved down to MIN_STEP, as for a step
        # that moves too far, and the refusal is chained, never repaired by a cold solve
        colds, refused, assigned = self._refusing(monkeypatch, lambda before, w: True)
        with pytest.raises(TrackingError, match="the seed was refused") as info:
            trace(9, 0.05, 3.5)
        assert 0.05 < info.value.omega <= 0.05 + zeros.MIN_STEP
        assert isinstance(info.value.__cause__, ConvergenceError)
        assert "moved" not in str(info.value)
        assert colds == [0.05] and not assigned
        assert len(refused) == 16 and refused == sorted(refused, reverse=True)

    def test_refused_seed_at_the_full_step_is_halved(self, monkeypatch):
        # a warm seed a full base step from the last layout is refused, a half step is not:
        # each refusal is a rejected step, and only the crossings are solved cold and assigned
        colds, refused, assigned = self._refusing(monkeypatch, lambda before, w: w - before > 0.015)
        bundle = trace(9, 0.05, 3.5)
        assert bundle.burst_events == (1, 2, 3) and refused
        assert bundle.rejected_steps == len(refused)
        assert bundle.cold_solves == 1 + len(bundle.burst_events) == len(colds)
        assert colds == [0.05] + [m + zeros.INTEGER_OFFSET for m in bundle.burst_events]
        assert assigned == [9] * len(bundle.burst_events)
        for lo, hi in bundle.segment_slices():
            assert all(bundle.omega_grid[k + 1] - bundle.omega_grid[k] <= 0.01 + 1e-12 for k in range(lo, hi))
        assert_conjugate_partners(bundle)
        assert_step_bound(bundle)

    @pytest.mark.parametrize("args", [(9, 0.05, 8.95), (15, 0.05, 14.95), (17, 0.05, 1.95),
                                      (3, 0.05, 2.95, 0.05, 0.02), (21, 0.5, 2.5)], ids=str)
    def test_layouts_are_exact_at_every_grid_point(self, args, monkeypatch):
        # cold points included: each real is complex(x, 0.0) and each upper's partner is its
        # conjugate in every bit, not only within the 1e-9 of assert_conjugate_partners
        bundle = _trace(monkeypatch, *args)
        for points in zip(*bundle.paths):
            assert all(repr(z.imag) == "0.0" for z in points if zeros._on_axis(z))
            uppers = sorted(repr(z) for z in points if z.imag > 0)
            assert uppers == sorted(repr(z.conjugate()) for z in points if z.imag < 0)

    def test_cold_set_with_two_equal_uppers_refused(self, monkeypatch):
        # a balanced cold set with one upper twice (and its conjugate twice): the refinement
        # refuses it, where it used to become two paths along one root
        cold_values = zeros.zeros_of

        def doubled(n, w):
            zs = cold_values(n, w)
            first, second = _split(zs.values())[1][:2]
            twice = {second: first, second.conjugate(): first.conjugate()}
            return dataclasses.replace(zs, roots=tuple((twice.get(z, z), tag) for z, tag in zs.roots))

        monkeypatch.setattr(zeros, "zeros_of", doubled)
        with pytest.raises(ConvergenceError, match="one point"):
            trace(9, 0.05, 0.5)

    def test_cold_solves_and_rejected_steps_are_counted(self, monkeypatch):
        # the first point and one point past each crossing: no seeded solve is refused
        bundle = trace(9, 0.05, 8.95)
        assert bundle.cold_solves == 1 + len(bundle.burst_events) and bundle.rejected_steps == 1
        halved = _trace(monkeypatch, 3, 0.05, 2.95, 0.05, 0.02)
        assert halved.rejected_steps == 38 and halved.cold_solves == 3
        # the count is derived: no constructor can set one that disagrees with the crossings
        with pytest.raises(TypeError):
            zeros.TrajectoryBundle(omega_grid=(0.5,), paths=((-0.5,),), burst_events=(), cold_solves=3)

    def test_evaluations_count_every_certified_solve(self, monkeypatch):
        # Aberth's and the polish's root evaluations: the cold solves' and the seeded solves'
        certified, spent = zeros._certified, []

        def counted(*args):
            found = certified(*args)
            spent.append(found[3])
            return found

        monkeypatch.setattr(zeros, "_certified", counted)
        bundle = trace(3, 0.05, 2.95)
        assert len(spent) == len(bundle.omega_grid) + bundle.cold_solves
        assert bundle.evaluations == sum(spent) == 1091

    @staticmethod
    def _mpmath_roots(n, w):
        # mpmath's roots of the exact polynomial at 50 digits
        exact = construct(n, F(w)).coeffs
        with mpmath.workdps(50):
            return [complex(z) for z in mpmath.polyroots(
                [mpmath.mpf(c.numerator) / c.denominator for c in reversed(exact)], maxsteps=200, extraprec=200)]

    def test_positions_are_mpmath_roots(self):
        # every 5th grid point
        for args in [(9, 0.05, 2.95), (17, 0.5, 1.375)]:
            bundle = trace(*args)
            for k in range(0, len(bundle.omega_grid), 5):
                roots = self._mpmath_roots(args[0], bundle.omega_grid[k])
                for path in bundle.paths:
                    z = path[k]
                    assert min(abs(z - root) for root in roots) <= 1e-13 * (1 + abs(z))

    def test_reals_are_floats_through_every_seeded_solve(self, monkeypatch):
        # every real of every layout of trace(9, .05, 8.95) leaves Aberth as a float, is polished
        # in float on the real row, and reaches the layout as complex(x, 0.0); the root
        # evaluations fell from 14857 when reals were iterated as complex
        aberth, polish = zeros._aberth, zeros._newton_polish
        polished = set()

        def typed_aberth(coeffs, start=None, pairs_from=None):
            roots, sweeps, evaluations = aberth(coeffs, start, pairs_from)
            if pairs_from is not None:
                assert all(type(x) is float for x in roots[:pairs_from])
                assert all(type(z) is complex for z in roots[pairs_from:])
            return roots, sweeps, evaluations

        def typed_polish(top, rest, z):
            found = polish(top, rest, z)
            if type(z) is float:
                assert type(top) is float and all(type(c) is float for c in rest)
                assert type(found[0]) is float and type(found[1]) is float
                polished.add(found[0])
            return found

        monkeypatch.setattr(zeros, "_aberth", typed_aberth)
        monkeypatch.setattr(zeros, "_newton_polish", typed_polish)
        bundle = trace(9, 0.05, 8.95)
        assert bundle.evaluations == 13928
        reals = [z for path in bundle.paths for z in path if z.imag == 0]
        assert len(reals) > 1000
        assert all(repr(z.imag) == "0.0" and z.real in polished for z in reals)

    def test_polish_follows_a_seeded_solve_that_stops_short(self):
        # at omega 5.999 the residual stop ends the seeded solves with |p| at machine level and
        # roots some 1e-5 to 1e-3 (relative) from the true ones, which the residual bound
        # certifies; the Newton polish brings them to about 1e-12
        bundle = trace(19, 5.4453125, 6.3203125)
        near = [k for k, w in enumerate(bundle.omega_grid) if abs(w - 6) <= 0.01]
        assert near
        for k in near:
            roots = self._mpmath_roots(19, bundle.omega_grid[k])
            for path in bundle.paths:
                z = path[k]
                assert min(abs(z - root) for root in roots) <= 1e-10 * (1 + abs(z))

    def test_polish_near_nine_keeps_its_accuracy(self):
        # at omega 8.999 in a 15-window the residual stop ends seeded solves after one sweep and
        # the polish finishes the small uppers; within 0.05 of 9 every coordinate stays within
        # the worst error iterating reals as complex left, 1.1013e-8 (1 + |z|) from mpmath
        bundle = trace(15, 8.5, 9.375)
        near = [k for k, w in enumerate(bundle.omega_grid) if abs(w - 9) <= 0.05]
        assert len(near) >= 4
        for k in near:
            roots = self._mpmath_roots(15, bundle.omega_grid[k])
            for path in bundle.paths:
                z = path[k]
                assert min(abs(z - root) for root in roots) <= 1.102e-8 * (1 + abs(z))

    def test_tracking_error_on_unreachable_threshold(self):
        # a step of MIN_STEP at omega 29.5 still moves a root 0.239 (the cold layout there is wrong)
        with pytest.raises(TrackingError, match="moved 0.239, beyond threshold 0.1") as info:
            trace(31, 29.5, 30.375)
        assert info.value.__cause__ is None

    def test_refused_seed_among_crowded_reals_raises_tracking_error(self):
        # above omega = n the reals crowd towards -1, and a seeded real crosses it
        with pytest.raises(TrackingError, match="the seed was refused") as info:
            trace(28, 29.0, 29.875)
        assert "left its side of the real axis, of 0 or of -1" in str(info.value.__cause__)

    def test_tracking_error_names_two_points(self):
        # at the step floor the two omegas are at most MIN_STEP apart; repr tells them apart
        with pytest.raises(TrackingError) as info:
            trace(28, 29.0, 29.875)
        current, target = map(float, re.match(r"root sets at omega=(\S+) and (\S+) ", str(info.value)).groups())
        assert target == info.value.omega and current < target <= current + zeros.MIN_STEP

    def test_residual_refusal_at_the_step_floor_raises_tracking_error(self):
        # a seeded step at omega 36.1123 fails its residual bound, down to MIN_STEP
        with pytest.raises(TrackingError, match="the seed was refused") as info:
            trace(39, 36.0, 36.875)
        assert 36.1122 < info.value.omega < 36.1123
        assert isinstance(info.value.__cause__, ConvergenceError)
        assert "exceeds bound" in str(info.value.__cause__)
        # and no seeded step from the first point's cold layout of (23, 24.75) is accepted
        with pytest.raises(TrackingError, match="the seed was refused") as info:
            trace(23, 24.75, 25.625)
        assert 24.75 < info.value.omega <= 24.75 + zeros.MIN_STEP
        assert isinstance(info.value.__cause__, ConvergenceError)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            trace(0, 0.1, 1.0)
        with pytest.raises(DomainError):
            trace(2, 1.5, 0.5)

    def test_step_is_not_an_argument(self):
        with pytest.raises(TypeError):
            trace(2, 0.3, 0.5, base_step=0.02)
        with pytest.raises(TypeError):
            trace(2, 0.3, 0.5, 0.02)

    def test_base_step_is_read_at_each_call(self, monkeypatch):
        # a default bound when trace is defined would keep stepping by 0.02
        monkeypatch.setattr(zeros, "BASE_STEP", 0.05)
        grid = trace(2, 0.05, 0.95).omega_grid
        assert len(grid) == 19
        assert all(abs(b - a - 0.05) < 1e-12 for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("end, message", [
        ("inf", "must be finite"), ("-inf", "must be finite"), ("1e300", "wider than"),
        (repr(0.3 + zeros.MAX_SPAN + 1), "wider than"),
    ])
    def test_unbounded_range_refused(self, end, message):
        # in a child process: an unbounded grid would run until killed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "from skyburst.errors import DomainError\nfrom skyburst.zeros import trace\n"
            f"try:\n    trace(2, 0.3, float({end!r}))\nexcept DomainError as exc:\n    print(exc)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0 and message in out.stdout, out.stderr

    def test_grid_advances_at_a_step_of_min_step(self, monkeypatch):
        grid = _trace(monkeypatch, 2, 0.3, 0.3 + 4 * zeros.MIN_STEP, zeros.MIN_STEP).omega_grid
        assert len(grid) == 5 and grid[-1] > 0.3

    @pytest.mark.parametrize("start, end", [(1e15, 1e15 + 10), (2.0**33 + 0.5, 2.0**33 + 1.5)])
    def test_end_where_doubles_are_a_min_step_apart_refused(self, start, end):
        # in a child process: past 2**33, current + h == current and every solve ran at one omega
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "from skyburst.errors import DomainError\nfrom skyburst.zeros import trace\n"
            f"try:\n    trace(2, {start!r}, {end!r})\nexcept DomainError as exc:\n    print(exc)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0 and "omega range ends where doubles are" in out.stdout, out.stderr
