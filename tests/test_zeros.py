import cmath
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from skyburst import zeros
from skyburst.errors import ConvergenceError, DomainError, TrackingError
from skyburst.skypoly import Polynomial, construct
from skyburst.zeros import (
    AXIS_TOL,
    SIMPLICITY_THRESHOLD,
    ZeroTag,
    classify,
    emergence_angles,
    find_zeros,
    fizzle_gap,
    simplicity_margin,
    trace,
    zeros_of,
    _assign,
    _match,
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
            zs = find_zeros(p, tol=1e-10, omega=float(w))
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

    def test_uncertifiable_tolerance_carries_best_iterate(self):
        p = construct(9, F(1, 2)).to_inexact()
        with pytest.raises(ConvergenceError) as info:
            find_zeros(p, tol=1e-30)
        best = info.value.best
        assert len(best) == 9
        assert max(abs(p(z)) for z in best) < 1e-10  # iterates are still good roots

    def test_non_finite_iterates_refused(self):
        # the iteration overflows to NaN there; max(0.0, nan) used to report residual 0
        with pytest.raises(ConvergenceError, match="finite"):
            zeros_of(46, Fraction(93, 2))

    def test_overflow_refused(self):
        with pytest.raises(ConvergenceError, match="overflow"):
            zeros_of(52, Fraction(69, 2))

    def test_coefficient_beyond_double_range_refused(self):
        # the float conversion raised a bare OverflowError before the solve began
        with pytest.raises(DomainError, match="double range"):
            find_zeros(Polynomial([Fraction(10) ** 400, 1]))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_tolerance_refused(self, tol):
        # NaN or inf in the residual bound would certify any iterate; a negative one none
        with pytest.raises(DomainError, match="tolerance"):
            find_zeros(construct(5, F(1, 2)).to_inexact(), tol=tol)

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
        warm = zeros_of(17, 0.52, start=seed)
        assert 0 < 2 * warm.iterations < cold.iterations
        assert [tag for _, tag in warm.roots] == [tag for _, tag in cold.roots]
        for (a, _), (b, _) in zip(warm.roots, cold.roots):
            assert abs(a - b) <= 1e-10 * (1 + abs(b))

    def test_iterations_zero_without_a_polynomial_left(self):
        assert find_zeros(construct(3, F(0)).to_inexact()).iterations == 0
        assert find_zeros(Polynomial((0.0, 0.0, -0.5, 1.0))).iterations > 0

    def test_start_needs_one_point_per_deflated_root(self):
        # z^2 (z - 1/2) has one root left after deflation
        with pytest.raises(DomainError, match="start points"):
            find_zeros(Polynomial((0.0, 0.0, -0.5, 1.0)), start=[0.4, 0.1, 0.2])
        assert find_zeros(Polynomial((0.0, 0.0, -0.5, 1.0)), start=[0.4]).values()[2] == 0.5

    def test_no_kissing_with_endpoints(self):
        for n, w in [(5, F(1, 2)), (9, F(7, 2)), (6, F(22, 7))]:
            vals = zeros_of(n, w).values()
            assert min(abs(z) for z in vals) > 1e-4
            assert min(abs(z + 1) for z in vals) > 1e-4


def test_zeros_of_pinned():
    # repr of every root set (or the refusal) at n in 5..40, recorded before the
    # Newton polish stopped at a fixed point and reused its last value as the residual
    digest = hashlib.sha256()
    for w in (F(1, 2), F(7, 3), 2.5, 0.37):
        for n in range(5, 41):
            try:
                digest.update(repr(zeros_of(n, w)).encode())
            except Exception as exc:
                digest.update(f"{type(exc).__name__}|{exc}".encode())
            digest.update(b"\n")
    assert digest.hexdigest() == "1334307bcbc7067ac0fda323962ba78f4eb3c5bc3c6c087e3cf450cf9e80580d"


@pytest.mark.xfail(strict=True, reason="Aberth misses two real roots in (-1, 0); "
                   "ROADMAP Directions 1-2 (exact census, certified roots) mend it")
def test_thirty_at_twenty_one_halves_has_eleven_roots_in_unit_interval():
    assert classify(zeros_of(30, F(21, 2))).neg_unit == 11


@pytest.mark.xfail(strict=True, reason="3 upper and 4 lower off-axis roots; "
                   "ROADMAP Directions 1-2 (exact census, certified roots) mend it")
def test_root_set_is_conjugate_symmetric_at_fifteen():
    vals = zeros_of(15, 7.9985).values(include_origin=False)
    upper = sum(z.imag > AXIS_TOL * (1 + abs(z)) for z in vals)
    lower = sum(z.imag < -AXIS_TOL * (1 + abs(z)) for z in vals)
    assert upper == lower


@pytest.mark.xfail(strict=True, reason="_tag_root has no tag for a real root <= -1; "
                   "ROADMAP Direction 1 (exact census) brings the tag set")
def test_real_root_below_minus_one_is_not_tagged_off_axis():
    (z, tag), = zeros_of(1, F(-13, 9)).roots
    assert z == -3.25
    assert tag is not ZeroTag.COMPLEX


def _polish_three_steps(coeffs, z):
    # the reference polish: always up to three Newton steps
    for _ in range(3):
        p, dp = zeros._horner_pair(coeffs, z)
        if p == 0 or dp == 0:
            return z
        step = p / dp
        if abs(step) > 1e-2 * (1 + abs(z)):
            return z
        z = z - step
    return z


def test_newton_polish_is_the_three_step_polish_bit_for_bit():
    for n, w in itertools.product((5, 12, 20), (F(1, 2), F(7, 3), 0.37)):
        coeffs = list(map(complex, construct(n, w).to_inexact().coeffs))
        roots, _ = zeros._aberth(coeffs)
        for z0 in roots + [r * (1 + 1e-9) for r in roots]:
            z, p = zeros._newton_polish(coeffs, z0)
            assert repr(z) == repr(_polish_three_steps(coeffs, z0))
            # the residual find_zeros reads is p(z) at the returned z
            assert repr(p) == repr(zeros._horner_pair(coeffs, z)[0])


def _aberth_reference(coeffs, start=None):
    # the reference sweep: _horner_pair and a loop over j, in the order _aberth keeps
    d = len(coeffs) - 1
    lead = coeffs[-1]
    c = [x / lead for x in coeffs]
    resid_floor = 64 * 2.220446049250313e-16 * (1 + max(abs(x) for x in c))
    if start is None:
        radius = 1.0 + max(abs(x) for x in c[:-1])
        roots = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.5)) for k in range(d)]
    else:
        roots = [complex(z) for z in start]
    for sweep in range(1, zeros.MAX_ITERATIONS + 1):
        biggest = 0.0
        worst_value = 0.0
        for i in range(d):
            z = roots[i]
            p, dp = zeros._horner_pair(c, z)
            worst_value = max(worst_value, abs(p))
            if p == 0:
                continue
            if dp == 0:
                roots[i] = z * 1.0000001 + 1e-12
                biggest = math.inf
                continue
            ratio = p / dp
            s = 0j
            for j in range(d):
                if j == i:
                    continue
                dz = z - roots[j]
                if dz == 0:
                    dz = 1e-20
                s += 1 / dz
            denom = 1 - ratio * s
            step = ratio if denom == 0 else ratio / denom
            roots[i] = z - step
            biggest = max(biggest, abs(step) / (1 + abs(roots[i])))
        if biggest < 1e-14 or worst_value < resid_floor:
            return roots, sweep
    raise ConvergenceError(
        f"root iteration did not settle in {zeros.MAX_ITERATIONS} sweeps", best=roots
    )


def _aberth_outcome(solver, coeffs, start=None):
    try:
        return repr(solver(coeffs, start))
    except Exception as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "best", None)))


def _member_coeffs(n, w):
    return list(map(complex, construct(n, w).to_inexact().coeffs))


def _assert_reference_outcome(coeffs, start=None):
    assert _aberth_outcome(zeros._aberth, coeffs, start) == _aberth_outcome(
        _aberth_reference, coeffs, start)


# the pins stop at n = 40 and zeros_scan goes to 60; at 61/2 some solves run
# out of sweeps, and from n = 56 on every iterate is NaN after one sweep (the
# non-finite refusal of zeros_of(60, 61/2))
@pytest.mark.parametrize("w", [F(1, 2), F(7, 3), F(61, 2), 2.5, 0.37], ids=str)
@pytest.mark.parametrize("n", range(41, 61))
def test_aberth_cold_solve_is_the_reference_sweep_bit_for_bit(n, w):
    _assert_reference_outcome(_member_coeffs(n, w))


def test_aberth_guards_and_seeds_are_the_reference_sweep_bit_for_bit():
    # the last accepted step of a continuation: its seeds and its target omega
    bundle = trace(9, 0.05, 0.5)
    _assert_reference_outcome(_member_coeffs(9, bundle.omega_grid[-1]),
                              [path[-2] for path in bundle.paths])
    _assert_reference_outcome([-1 + 0j, 0j, 1 + 0j], [0.5, 0.5])  # coincident starts
    _assert_reference_outcome([-1 + 0j, 0j, 1 + 0j], [0, 0.5])    # zero derivative


def test_coincident_seeds_are_not_certified():
    # the 1e-20 guard makes the step ~1e-20, so Aberth "converges" at the
    # non-roots 0.5 and 0.5 after one sweep; the residual bound refuses them
    roots, sweeps = zeros._aberth([-1 + 0j, 0j, 1 + 0j], [0.5, 0.5])
    assert sweeps == 1 and roots[0] == roots[1] == 0.5
    with pytest.raises(ConvergenceError, match="residual"):
        find_zeros(Polynomial((-1.0, 0.0, 1.0)), start=[0.5, 0.5])


@pytest.mark.xfail(strict=True, reason="coincident seeds near a root both settle on it "
                   "with residual 0; ROADMAP Direction 2 (inclusion certificate) mends it")
def test_coincident_seeds_at_a_root_do_not_hide_the_other_root():
    vals = find_zeros(Polynomial((-1.0, 0.0, 1.0)), start=[1.0000001, 1.0000001]).values()
    assert sorted(z.real for z in vals) == [-1.0, 1.0]


def test_polish_fixed_point_tells_signed_zeros_apart():
    assert zeros._same_bits(complex(0.0, 1.0), complex(0.0, 1.0))
    assert not zeros._same_bits(complex(-0.0, 1.0), complex(0.0, 1.0))
    assert not zeros._same_bits(complex(1.0, -0.0), complex(1.0, 0.0))
    assert not zeros._same_bits(complex(1.0, 0.0), complex(1.0, 5e-324))


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

    def test_small_degree_gaps_pinned(self):
        # repr of each gap at n <= 12, where every gap is below 1: the refusal leaves them bit for bit
        gaps = [fizzle_gap(n, w) for n in range(1, 13) for w in (n + F(1, 2), 2 * n + F(1, 3), 5 * n + F(1, 2))]
        digest = hashlib.sha256(repr(gaps).encode()).hexdigest()
        assert digest == "c19100a7379c6c56424ed13ae0c157d4b7264c24dc81907775bcc4d05c7bbe5a"


class TestSimplicity:
    def test_quadratic_margin(self):
        zs = zeros_of(2, F(1, 2))
        assert simplicity_margin(zs) == pytest.approx(2 * math.sqrt(8 / 75), abs=1e-12)

    def test_single_root_sentinel(self):
        assert simplicity_margin(zeros_of(1, F(1, 2))) == math.inf

    def test_degree_nine(self):
        assert simplicity_margin(zeros_of(9, F(1, 2))) > 1e-3

    def test_sampled_grid_above_threshold(self):
        for n, w in [(5, F(1, 3)), (9, F(13, 2)), (7, F(22, 7))]:
            assert simplicity_margin(zeros_of(n, w)) > SIMPLICITY_THRESHOLD


def assert_step_bound(bundle):
    for lo, hi in bundle.segment_slices():
        for path in bundle.paths:
            for k in range(lo, hi):
                assert abs(path[k + 1] - path[k]) < bundle.match_threshold


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
        def layout(uppers):  # no reals: each upper root, then its conjugate
            return [w for u in uppers for w in (u, u.conjugate())], 0

        perm, disp = _match(layout([1 + 1j, 2 + 1j] + far), layout([0 + 1j, 1.6 + 1j] + far), crossing=False)
        assert disp == pytest.approx(1.0, abs=1e-12)
        assert perm[:4] == [0, 1, 2, 3]


class TestTrace:
    def test_single_root_drifts_toward_minus_one(self):
        bundle = trace(1, 0.1, 5.0, 0.05, 0.1)
        assert len(bundle.paths) == 1
        xs = [z.real for z in bundle.paths[0]]
        assert all(-1 < x < 0 for x in xs)
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert bundle.burst_events == (1, 2, 3, 4)

    def test_quadratic_loop_and_capture(self):
        bundle = trace(2, 0.05, 2.5, 0.02, 0.1)
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
        bundle = trace(2, 0.05, 2.5, 0.02, 0.1)
        for w in bundle.omega_grid:
            assert abs(w - round(w)) > 5e-4

    def test_step_bound_within_segments(self):
        assert_step_bound(trace(3, 0.05, 2.95, 0.05, 0.1))

    def test_path_count_and_interval_population(self):
        bundle = trace(9, 0.05, 3.5, 0.02, 0.1)
        assert len(bundle.paths) == 9
        assert_neg_unit_schedule(bundle)

    def test_loop_closure_late_segment(self):
        # by segment (3, 4) the returning cluster is genuinely inside |z| < 0.1
        bundle = trace(9, 3.01, 3.99, 0.02, 0.1)
        (lo, hi), = bundle.segment_slices()
        for path in bundle.paths:
            seg = [path[k] for k in range(lo, hi + 1)]
            if any(abs(z.imag) > AXIS_TOL * (1 + abs(z)) for z in seg):
                assert abs(seg[0]) < 0.1
                assert abs(seg[-1]) < 0.1

    def test_conjugate_pairing_within_segments(self):
        assert_conjugate_partners(trace(9, 0.05, 2.5, 0.02, 0.1))

    def test_eight_upper_pairs(self):
        # n = 17 on (0, 1) has 8 conjugate pairs, then 7 past the burst
        bundle = trace(17, 0.5, 1.375)
        assert len(bundle.paths) == 17 and bundle.burst_events == (1,)
        assert_step_bound(bundle)
        assert_conjugate_partners(bundle)
        assert_neg_unit_schedule(bundle)

    def test_grid_and_bursts_pinned(self):
        # the grids of the cold-started continuation, unchanged by seeding, and a
        # SHA-256 of each whole bundle; (3, ..., 0.02) rejects and halves 38 steps
        for args, length, bursts, digest in [
            ((9, 0.05, 8.95), 456, tuple(range(1, 9)),
             "2b1c50b10148a1553bc9c4e5c62648c1b4ab8b551b0fcff41ff2e77f95ebfa31"),
            ((15, 0.05, 14.95), 763, tuple(range(1, 15)),
             "9a8466aaf00b7e90a4d0c8a61f5133262da720bddec474077e72422694606f09"),
            ((17, 0.05, 1.95), 98, (1,),
             "656505b874338ffc4682b3e22fb6c3b8b39ef8b6e14d06cafefc2225b5f71119"),
            ((3, 0.05, 2.95, 0.05, 0.02), 86, (1, 2),
             "a9449746285a13bd4d023c5e8502cd57e4d9e88d31c22e21aecdbd08233bf704"),
            ((21, 0.5, 2.5), 106, (1, 2),
             "9fee513f0f843c307089ba2419ca66437dbb6c60ee97c0ad7db4ba63169b50b7"),
        ]:
            bundle = trace(*args)
            assert len(bundle.omega_grid) == length
            assert bundle.burst_events == bursts
            whole = repr((bundle.omega_grid, bundle.paths, bundle.burst_events))
            assert hashlib.sha256(whole.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args", [(9, 0.05, 3.5), (17, 0.5, 1.375)])
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

    def test_failed_seeded_solve_is_repeated_cold(self, monkeypatch):
        aberth = zeros._aberth
        seeded = []

        def cold_only(coeffs, start=None):
            return aberth(coeffs)

        def refuse_seeds(coeffs, start=None):
            if start is not None:
                seeded.append(len(start))
                raise ConvergenceError("seed refused")
            return aberth(coeffs)

        monkeypatch.setattr(zeros, "_aberth", cold_only)
        all_cold = trace(9, 0.05, 3.5)
        monkeypatch.setattr(zeros, "_aberth", refuse_seeds)
        fallback = trace(9, 0.05, 3.5)
        assert len(seeded) >= len(fallback.omega_grid) - 1 - len(fallback.burst_events)
        assert fallback.omega_grid == all_cold.omega_grid
        assert fallback.paths == all_cold.paths
        assert fallback.burst_events == all_cold.burst_events

    def test_tracking_error_on_unreachable_threshold(self):
        with pytest.raises(TrackingError):
            trace(3, 0.3, 0.6, 0.05, match_threshold=1e-10)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            trace(0, 0.1, 1.0)
        with pytest.raises(DomainError):
            trace(2, 1.5, 0.5)
        with pytest.raises(DomainError):
            trace(2, 0.5, 1.5, base_step=-0.1)

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

    def test_step_below_the_floor_refused(self):
        # in a child process: at 1e-300, current + h == current and the grid never advanced
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "from skyburst.errors import DomainError\nfrom skyburst.zeros import trace\n"
            "try:\n    trace(2, 0.5, 1.5, base_step=1e-300)\nexcept DomainError as exc:\n    print(exc)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0 and f"base_step must be at least {zeros.MIN_STEP}" in out.stdout, out.stderr
        assert trace(2, 0.3, 0.3 + 4 * zeros.MIN_STEP, base_step=zeros.MIN_STEP).omega_grid[-1] > 0.3

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
    @pytest.mark.parametrize("name", ["base_step", "match_threshold"])
    def test_non_finite_or_non_positive_step_and_threshold_refused(self, name, value):
        # disp >= nan is always false, so a NaN threshold would accept every step
        with pytest.raises(DomainError, match=name):
            trace(2, 0.3, 0.5, **{name: value})
