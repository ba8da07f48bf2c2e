import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import skyburst
from skyburst import moments
from skyburst.errors import DomainError, ExistenceError, PoleError
from skyburst.moments import (
    bilinear,
    construct_determinantal,
    moment,
    r_nk,
    reduced_moment,
    toeplitz_det_closed,
    toeplitz_det_direct,
)
from skyburst.recurrences import run_identity_suite
from skyburst.skypoly import Polynomial, construct

F = Fraction
GRID = (F(1, 3), F(1, 2), F(2, 3), F(5, 4), F(7, 3), F(22, 7))


def zpow(k):
    return Polynomial((0,) * k + (1,))


class TestMoments:
    def test_reduced_values(self):
        for w in GRID:
            assert moment(0, w) == 1 / w
        assert moment(1, F(1, 2)) == F(-2, 3)
        assert moment(-1, F(1, 2)) == 2

    def test_full_float_moment(self):
        got = moment(1, 0.5)
        want = -math.sin(math.pi * 0.5) / (math.pi * 1.5)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(-0.2122, abs=5e-5)

    def test_pole(self):
        with pytest.raises(PoleError):
            moment(-2, F(2))
        with pytest.raises(PoleError):
            reduced_moment(0, F(0))

    def test_sequence_invariant(self):
        for w in GRID:
            for k in range(-10, 11):
                assert reduced_moment(k, w) * (k + w) == (-1) ** (k % 2)

    def test_full_matches_formula(self):
        for k in range(-6, 7):
            want = (-1) ** (k % 2) * math.sin(math.pi * 0.37) / (math.pi * (k + 0.37))
            assert moment(k, 0.37) == pytest.approx(want, rel=1e-14)

    def test_float_where_pi_omega_overflows_answered(self):
        # pi * omega would overflow, but sigma is formed on omega - round(omega) = 0.0, so this
        # is answered: sigma = +0.0 (1e308 is an even integer) times nu_1 = -1/(1 + 1e308) < 0
        got = moment(1, 1e308)
        assert got == 0 and math.copysign(1.0, got) == -1.0
        assert moment(1, F(10**308)) == reduced_moment(1, F(10**308))

    @pytest.mark.parametrize("w", [2.0, -2.0, 2.0**60, 1e308, 1e6 + 0.25, -2.3, 0.37, 7.5, -0.5, 1e15 + 0.5])
    def test_float_moment_against_mpmath(self, w):
        # referee: sin(pi w)/pi * (-1)^k/(k + w) at 60 digits on the binary rational of w; at an
        # integer-valued w the moment is exactly 0, where sin(pi * w) in doubles left ~1e-17
        with mpmath.workdps(60):
            x = mpmath.mpf(w)
            for k in range(-4, 5):
                if k + w == 0:
                    continue
                got = moment(k, w)
                if w == round(w):
                    assert got == 0, k
                else:
                    want = mpmath.sinpi(x) / mpmath.pi * (-1) ** k / (k + x)
                    assert abs(got - want) <= 1e-15 * abs(want), k

    def test_prefactor_bookkeeping(self):
        # an exact moment leaves sigma = sin(pi w)/pi out; a float one carries it
        for k in range(-4, 5):
            assert moment(k, F(1, 2)) == reduced_moment(k, F(1, 2))
            assert moment(k, 0.5) / reduced_moment(k, 0.5) == pytest.approx(1 / math.pi)


class TestBilinear:
    def test_constant_pairing(self):
        assert bilinear(Polynomial((1,)), Polynomial((1,)), F(1, 2)) == 2

    def test_first_member_orthogonal_to_one(self):
        s1 = construct(1, F(1, 2))
        assert bilinear(s1, Polynomial((1,)), F(1, 2)) == 0

    def test_first_member_not_orthogonal_to_z(self):
        s1 = construct(1, F(1, 2))
        assert bilinear(s1, zpow(1), F(1, 2)) == F(8, 3)

    def test_orthogonality_grid(self):
        for n in range(9):
            for w in GRID:
                s = construct(n, w)
                for k in range(n):
                    assert bilinear(s, zpow(k), w) == 0
                assert bilinear(s, zpow(n), w) != 0

    @pytest.mark.parametrize("c", [1j, 0j, complex(2.0), math.nan, math.inf, -math.inf, "1"])
    def test_complex_or_non_finite_coefficient_refused(self, c):
        # the form pairs real polynomials; any coefficient of either, zero or not, is read exactly
        for f, g in ((Polynomial((c, 1.0)), Polynomial((1.0,))), (Polynomial((1.0,)), Polynomial((1.0, c, 1.0)))):
            with pytest.raises(DomainError, match="real coefficient"):
                bilinear(f, g, 0.5)

    @pytest.mark.parametrize("w", [0.37, -2.3, pytest.param(F(1, 3), id="1/3")])
    def test_float_coefficients_read_exactly(self, w):
        # each float coefficient is its binary rational: the exact form at an exact omega, and
        # that value rounded once at a float omega; g reaches z^12, so the form is not 0
        f, g = construct(12, w), Polynomial((1.5, 0.1, -0.25) + (0.0,) * 9 + (0.75,))
        exact = bilinear(*(Polynomial([F(c) for c in p.coeffs]) for p in (f, g)), F(w))
        got = bilinear(f, g, w)
        assert type(exact) is F and type(got) is type(w)
        assert got == (exact if isinstance(w, F) else float(exact))

    def test_float_coefficients_at_the_edge_of_the_double_range(self):
        # nu_0 = 1/omega is about 1e310: the exact form rounds to no double
        f, g = Polynomial((1.5, 0.5)), Polynomial((0.25, -1.0))
        with pytest.raises(DomainError, match="double range"):
            bilinear(f, g, 1e-310)
        w = F(1, 10**400)
        want = sum(F(fj) * F(gk) * reduced_moment(j - k, w) for j, fj in enumerate(f.coeffs)
                   for k, gk in enumerate(g.coeffs))
        got = bilinear(f, g, w)
        assert type(got) is F and got == want


class TestDeterminants:
    def test_one_by_one(self):
        for w in GRID:
            assert toeplitz_det_direct(1, w) == 1 / w
            assert toeplitz_det_closed(1, w) == 1 / w

    def test_two_by_two_frozen(self):
        # 2x2 oracle: nu_0^2 - nu_1 * nu_{-1} = 4 - (-2/3)(2) = 16/3
        w = F(1, 2)
        oracle = reduced_moment(0, w) ** 2 - reduced_moment(1, w) * reduced_moment(-1, w)
        assert oracle == F(16, 3)
        assert toeplitz_det_direct(2, w) == F(16, 3)
        assert toeplitz_det_closed(2, w) == F(16, 3)

    def test_closed_equals_direct(self):
        for n in range(9):
            for w in GRID:
                assert toeplitz_det_closed(n, w) == toeplitz_det_direct(n, w)

    def test_closed_value_matches_product_formula(self):
        # (1/w)^3 * (0!^2 1!^2 2!^2) / ((1-w^2)^2 (4-w^2)^1)
        w = F(1, 3)
        want = (1 / w) ** 3 * F(1 * 1 * 4) / ((1 - w * w) ** 2 * (4 - w * w))
        assert want == F(19683, 560)
        assert toeplitz_det_closed(3, w) == want

    def test_closed_poles(self):
        with pytest.raises(PoleError):
            toeplitz_det_closed(3, F(0))
        with pytest.raises(PoleError):
            toeplitz_det_closed(3, F(2))

    def test_direct_exact_rejects_small_integer(self):
        # the matrix itself hits a moment pole for integer omega <= n-1
        with pytest.raises(PoleError):
            toeplitz_det_direct(3, F(1))

    def test_direct_float_near_integer(self):
        val = toeplitz_det_direct(3, 1.0 + 1e-9)
        assert math.isfinite(val)

    def test_empty_determinant(self):
        assert toeplitz_det_direct(0, F(1, 2)) == 1
        assert toeplitz_det_closed(0, F(1, 2)) == 1

    @pytest.mark.parametrize("n", [6, 21, 22, 40])
    def test_float_closed_is_exact_product_rounded_once(self, n):
        # the float product of l!^2 overflowed to inf at n = 21 and nan from n = 22
        closed = toeplitz_det_closed(n, 0.37)
        assert closed == float(toeplitz_det_closed(n, F(0.37)))
        assert abs(closed - toeplitz_det_direct(n, 0.37)) <= 1e-12 * abs(closed)

    def test_float_outside_double_range_refused(self):
        # the exact determinant at omega = 1e-300 is about 1e600
        for det in (toeplitz_det_direct, toeplitz_det_closed):
            with pytest.raises(DomainError, match="double range"):
                det(2, 1e-300)

    @pytest.mark.parametrize("n", [6, 40, 80])
    def test_float_direct_is_exact_value_rounded_once(self, n):
        assert toeplitz_det_direct(n, 0.37) == float(toeplitz_det_direct(n, F(0.37)))

    @pytest.mark.parametrize("w", [F(1, 3), F(-13, 9), F(22, 7)])
    def test_closed_equals_direct_degree_30(self, w):
        assert toeplitz_det_direct(30, w) == toeplitz_det_closed(30, w)

    @pytest.mark.parametrize("w", [F(1, 3), F(-13, 9), F(22, 7)])
    def test_closed_equals_direct_degree_60(self, w):
        assert toeplitz_det_direct(60, w) == toeplitz_det_closed(60, w)

    def test_direct_pole_named_at_matrix_entry(self):
        # nu_3, an entry of the 4 x 4 matrix, has its pole at omega = -3
        with pytest.raises(PoleError, match="at k=3,"):
            toeplitz_det_direct(4, F(-3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_direct_at_plus_minus_order(self, n):
        # the n x n matrix reads nu_(1-n)..nu_(n-1) only: nu_(+-n) would hit a pole here
        for w in (F(n), F(-n)):
            assert toeplitz_det_direct(n, w) == toeplitz_det_closed(n, w)

    def test_negative_order_refused(self):
        for det in (toeplitz_det_direct, toeplitz_det_closed):
            with pytest.raises(DomainError):
                det(-1, F(1, 2))


def _closed_product(n: int, w: Fraction) -> Fraction:
    """The closed product of D_n in Fraction arithmetic, factor by factor."""
    if n > 0 and w == 0:
        raise PoleError("closed determinant pole at omega = 0")
    out = F(math.prod(math.factorial(ell) for ell in range(n)) ** 2) / w ** n
    for k in range(1, n):
        if k * k == w * w:
            raise PoleError(f"closed determinant pole at omega = +-{k}")
        out /= (k * k - w * w) ** (n - k)
    return out


@pytest.mark.parametrize(
    "w", [F(1, 3), F(22, 7), F(-13, 9), F(-5, 2), F(0), F(2), F(-3), 0.37, 1e-300, 2.0, -3.0, 0.0]
)
def test_closed_equals_fraction_product(w):
    # value and type, or the PoleError text, against the Fraction formula; a float omega rounded once
    for n in range(10):
        try:
            want = _closed_product(n, F(w))
        except PoleError as exc:
            with pytest.raises(PoleError) as got:
                toeplitz_det_closed(n, w)
            assert str(got.value) == str(exc)
            continue
        if isinstance(w, float):
            try:
                want = float(want)
            except OverflowError:
                with pytest.raises(DomainError, match="double range"):
                    toeplitz_det_closed(n, w)
                continue
        got = toeplitz_det_closed(n, w)
        assert (type(got), got) == (type(want), want), n


class TestDeterminantalRoute:
    def test_degree_one(self):
        # 1x1 system: c0 * nu_0 = -nu_1  =>  c0 = (2/3) / 2 = 1/3
        assert construct_determinantal(1, F(1, 2)).coeffs == (F(1, 3), F(1))

    def test_degree_two_frozen(self):
        assert construct_determinantal(2, F(1, 2)).coeffs == (F(-1, 15), F(2, 5), F(1))

    def test_degree_zero(self):
        assert construct_determinantal(0, F(1, 2)) == Polynomial((F(1),))

    def test_matches_coefficient_formula(self):
        for n in range(9):
            for w in GRID:
                assert construct_determinantal(n, w) == construct(n, w)

    def test_negative_noninteger(self):
        w = F(-1, 2)
        assert construct_determinantal(2, w) == construct(2, w)

    def test_integer_refused(self):
        for w in (0, 1, 5):
            with pytest.raises(ExistenceError):
                construct_determinantal(2, F(w))

    def test_float_mode(self):
        p = construct_determinantal(3, 0.4)
        q = construct(3, F(2, 5)).to_inexact()
        assert max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)) < 1e-12

    def test_float_mode_rounded_once(self):
        assert construct_determinantal(12, 0.4) == construct(12, F(0.4)).to_inexact()

    @pytest.mark.parametrize("w", [F(1, 3), F(-13, 9), F(22, 7)])
    def test_matches_coefficient_formula_degree_30(self, w):
        assert construct_determinantal(30, w) == construct(30, w)

    @pytest.mark.parametrize("w", [F(1, 3), F(-13, 9), F(22, 7)])
    def test_matches_coefficient_formula_degree_60(self, w):
        assert construct_determinantal(60, w) == construct(60, w)

    def test_reads_one_moment_past_the_matrix(self):
        # a_3 reads nu_3, which has its pole at omega = -3; the 3 x 3 determinant does not
        with pytest.raises(PoleError, match="at k=3,"):
            construct_determinantal(3, F(-3))
        assert toeplitz_det_direct(3, F(-3)) == toeplitz_det_closed(3, F(-3))

    def test_negative_degree_refused(self):
        with pytest.raises(DomainError):
            construct_determinantal(-1, F(1, 2))


@pytest.fixture
def passes(monkeypatch):
    """Counts the Levinson passes run, starting from an empty memo."""
    calls = []
    levinson = moments._levinson

    def counted(n, w):
        calls.append((n, w))
        return levinson(n, w)

    monkeypatch.setattr(moments, "_levinson", counted)
    monkeypatch.setattr(moments, "_latest", None)
    return calls


class TestSharedPass:
    @pytest.mark.parametrize("poly_first", [True, False])
    def test_one_pass_per_member_in_either_order(self, passes, poly_first):
        n, w = 17, F(-13, 9)
        if poly_first:
            poly, det = construct_determinantal(n, w), toeplitz_det_direct(n, w)
        else:
            det, poly = toeplitz_det_direct(n, w), construct_determinantal(n, w)
        assert (poly, det) == (construct(n, w), toeplitz_det_closed(n, w))
        assert passes == [(n, w)]

    @pytest.mark.parametrize("poly_first", [True, False])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_pole_one_moment_past_the_matrix_in_either_order(self, passes, poly_first, n):
        # a_n reads nu_n, whose pole is at omega = -n; the n x n determinant does not
        w = F(-n)
        if not poly_first:
            assert toeplitz_det_direct(n, w) == toeplitz_det_closed(n, w)
        with pytest.raises(PoleError, match=f"at k={n},"):
            construct_determinantal(n, w)
        assert toeplitz_det_direct(n, w) == toeplitz_det_closed(n, w)

    def test_refused_pass_is_dropped(self, passes):
        for _ in range(2):
            with pytest.raises(PoleError, match="at k=3,"):
                toeplitz_det_direct(4, F(-3))
        assert len(passes) == 2
        assert toeplitz_det_direct(4, F(-7, 2)) == toeplitz_det_closed(4, F(-7, 2))
        assert construct_determinantal(4, F(-7, 2)) == construct(4, F(-7, 2))

    def test_interleaved_members(self, passes):
        a, b = (9, F(5, 4)), (9, F(-5, 4))
        for n, w in (a, b, a):
            assert toeplitz_det_direct(n, w) == toeplitz_det_closed(n, w)
            assert construct_determinantal(n, w) == construct(n, w)
        assert passes == [a, b, a]

    def test_float_and_its_binary_fraction_share_a_pass(self, passes):
        n, x = 12, 0.37
        w = F(x)
        det, exact_det = toeplitz_det_direct(n, x), toeplitz_det_direct(n, w)
        exact_poly, poly = construct_determinantal(n, w), construct_determinantal(n, x)
        assert (type(det), type(exact_det)) == (float, Fraction)
        assert det == float(exact_det) and exact_det == toeplitz_det_closed(n, w)
        assert exact_poly == construct(n, w) and poly == exact_poly.to_inexact()
        assert passes == [(n, w)]

    def test_identity_sweep_leaves_its_pass_to_the_public_routes(self, passes):
        # the sweep's cauchy_determinant row pulls D_0..D_12 from the (12, w) pass; the public
        # routes of that member read the same pass and start none of their own
        n, w = 12, F(-13, 9)
        assert all(report.passed for report in run_identity_suite(n, (w,)))
        passes.clear()
        assert toeplitz_det_direct(n, w) == toeplitz_det_closed(n, w)
        assert construct_determinantal(n, w) == construct(n, w)
        assert passes == []


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(skyburst.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, skyburst; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


class TestRnk:
    def test_vanishes_below_degree(self):
        for n in range(1, 9):
            for w in GRID:
                for k in range(n):
                    assert r_nk(n, k, w) == 0

    def test_two_term_case(self):
        assert r_nk(1, 0, F(1, 2)) == 0

    def test_nonzero_at_degree_frozen(self):
        # brute-force sum oracle
        w = F(1, 2)
        total = F(0)
        for ell in range(3):
            num = (
                math.prod(-2 + i for i in range(ell))
                * math.prod(-w + i for i in range(ell))
                * math.prod(-w + i for i in range(ell))
            )
            den = (
                math.factorial(ell)
                * math.prod(-2 - w + i for i in range(ell))
                * math.prod(1 - w + i for i in range(ell))
            )
            total += F(num) / den if den else 0
        assert total == F(64, 45)
        assert r_nk(2, 2, w) == F(64, 45)

    def test_relation_to_bilinear(self):
        # independent cross-route: hypergeometric sum vs moment pairing
        for n in range(1, 7):
            for k in range(n + 1):
                for w in (F(1, 2), F(22, 7)):
                    lhs = r_nk(n, k, w)
                    rhs = (-1) ** (n - k) * (n + w - k) * bilinear(construct(n, w), zpow(k), w)
                    assert lhs == rhs
