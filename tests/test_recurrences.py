import hashlib
import math
from contextlib import nullcontext
from fractions import Fraction

import pytest

from skyburst import moments, skypoly
from skyburst.errors import DomainError, PoleError
from skyburst.recurrences import (
    DEFAULT_OMEGA_GRID,
    differential_step,
    genfun_compare,
    lifting,
    lifting_printed,
    lowering,
    ode_residual,
    run_identity_suite,
    step_mixed,
    step_omega_up,
    step_omega_up_printed,
)
from skyburst.skypoly import Polynomial, construct

F = Fraction
GRID = DEFAULT_OMEGA_GRID

# every omega-taking function of skypoly, moments and recurrences whose value
# is rational in omega, as f(n, omega)
FLOAT_PARITY = {
    **{name: getattr(skypoly, name) for name in (
        "construct", "construct_series", "value_at_zero",
        "reflect_negative_omega", "taylor_about_minus_one",
    )},
    "derivative_at_minus_one": lambda n, w: tuple(skypoly.derivative_at_minus_one(m, n, w) for m in range(n + 1)),
    **{name: getattr(moments, name) for name in (
        "toeplitz_det_direct", "toeplitz_det_closed", "construct_determinantal",
    )},
    "reduced_moment": lambda n, w: tuple(moments.reduced_moment(k, w) for k in range(-n, n + 1)),
    "bilinear": lambda n, w: moments.bilinear(Polynomial(range(1, n + 2)), Polynomial((1, -2, 3)), w),
    "r_nk": lambda n, w: tuple(moments.r_nk(n, k, w) for k in range(n + 1)),
    "step_mixed": step_mixed,
    "step_omega_up": step_omega_up,
    "lifting": lifting,
    "lifting_printed": lifting_printed,
    "lowering": lowering,
    "differential_step": differential_step,
    "ode_residual": ode_residual,
    "step_omega_up_printed": step_omega_up_printed,
}


def _round_once(x):
    """Reference rounding: each exact value converted to a double by one float()."""
    if isinstance(x, Polynomial):
        return Polynomial([float(c) for c in x.coeffs])
    if isinstance(x, tuple):
        return tuple(map(_round_once, x))
    return float(x)


def _all_float(x):
    if isinstance(x, Polynomial):
        return all(isinstance(c, float) for c in x.coeffs)
    if isinstance(x, tuple):
        return all(map(_all_float, x))
    return isinstance(x, float)


def _outcome(fn, n, w):
    try:
        return fn(n, w)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(FLOAT_PARITY))
def test_float_omega_is_exact_result_rounded_once(name):
    fn = FLOAT_PARITY[name]
    mismatches = []
    for w in (0.37, -2.3, 5.5, 12.75, 1e-3, 2.0, 0.0, -3.0, 7.0):
        for n in range(13):
            want = _outcome(fn, n, F(w))
            got = _outcome(fn, n, w)
            if isinstance(want, type):
                ok = got is want
            else:
                ok = _all_float(got) and got == _round_once(want)
            if not ok:
                mismatches.append((n, w))
    assert mismatches == []


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: skypoly.derivative_at_minus_one(0, 400, 1e-9), 0.9999999934300703),
        (lambda: skypoly.derivative_at_minus_one(3, 200, 0.37), -1797297.8445116603),
        (lambda: skypoly.value_at_zero(200, 1e-300), -5e-303),
        (lambda: ode_residual(12, 0.37), Polynomial()),
    ],
    ids=["value_at_minus_one", "derivative_at_minus_one", "value_at_zero", "ode_residual"],
)
def test_float_values_beyond_double_intermediates(call, want):
    # the float arithmetic overflowed, underflowed to -0.0 or left 1e-14 residues here
    assert call() == want


class TestMixedStep:
    def test_degree_one(self):
        for w in GRID:
            assert step_mixed(1, w) == construct(1, w)

    def test_degree_two_frozen(self):
        assert step_mixed(2, F(1, 2)).coeffs == (F(-1, 15), F(2, 5), F(1))

    def test_integer_parameter(self):
        assert step_mixed(1, F(1)).coeffs == (F(1, 2), F(1))

    def test_rebuilds_family(self):
        for n in range(1, 11):
            for w in GRID:
                assert step_mixed(n, w) == construct(n, w)

    def test_pole(self):
        with pytest.raises(PoleError):
            step_mixed(2, F(-2))


class TestOmegaShift:
    def test_degree_one_increment_is_constant(self):
        # S_1^(w+1) - S_1^w must be z-free, rejecting any z-bearing factor
        for w in GRID:
            diff = construct(1, w + 1) - construct(1, w)
            assert diff.degree == 0
            assert diff.coeffs[0] == 1 / ((w + 1) * (w + 2))

    def test_rebuilds_family(self):
        for n in range(1, 11):
            for w in GRID:
                assert step_omega_up(n, w) == construct(n, w + 1)

    def test_from_zero_parameter(self):
        assert step_omega_up(1, F(0)).coeffs == (F(1, 2), F(1))

    def test_printed_variants_fail(self):
        # the printed factors n z^2 (step_omega_up_printed) and n^2 z, built from Polynomial arithmetic
        for n in range(1, 6):
            for w in GRID:
                target, low = construct(n, w + 1), construct(n - 1, w) * (1 / ((w + n) * (w + n + 1)))
                nz2 = construct(n, w) + (n * low).shifted(2)
                n2z = construct(n, w) + (n * n * low).shifted(1)
                assert step_omega_up_printed(n, w) == nz2 != target
                assert n2z != target

    def test_printed_variant_residual_nonzero(self):
        diff = step_omega_up_printed(1, F(1, 2)) - construct(1, F(3, 2))
        assert max(abs(c) for c in diff.coeffs) > 0

    def test_variant_is_not_an_argument(self):
        with pytest.raises(TypeError):
            step_omega_up_printed(1, F(1, 2), variant="nz2")


class TestLiftingLowering:
    def test_lifting_degree_one(self):
        for w in GRID:
            assert lifting(1, w) == construct(1, w + 1)

    def test_lifting_degree_zero(self):
        assert lifting(0, F(1, 2)) == Polynomial((F(1),))

    def test_lifting_rebuilds_family(self):
        for n in range(11):
            for w in GRID:
                assert lifting(n, w) == construct(n, w + 1)

    def test_lifting_printed_fails(self):
        assert lifting_printed(1, F(1, 2)) != construct(1, F(3, 2))
        diff = lifting_printed(1, F(1, 2)) - construct(1, F(3, 2))
        assert max(abs(c) for c in diff.coeffs) > 0

    def test_lowering_degree_one(self):
        for w in GRID:
            assert lowering(1, w) == construct(1, w - 1)

    def test_lowering_rebuilds_family(self):
        for n in range(11):
            for w in GRID:
                assert lowering(n, w) == construct(n, w - 1)

    def test_lowering_scale_pole(self):
        with pytest.raises(PoleError):
            lowering(3, F(0))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_pole_named_at_the_first_member(self, n):
        # past its scale check, each route raises the PoleError of the first S_l with a pole
        first = "construction pole at degree {}, omega=-{}: denominator rising factorial vanishes at term 1"
        with pytest.raises(PoleError, match=f"^{first.format(1, 1)}$"):
            lifting(n, F(-1))
        with pytest.raises(PoleError, match=f"^{first.format(n, n)}$"):
            lowering(n, F(-n))

    @pytest.mark.parametrize("route", [lifting, lifting_printed, lowering])
    def test_negative_degree_refused(self, route):
        with pytest.raises(DomainError):
            route(-1, F(1, 2))

    @pytest.mark.parametrize("route", [lifting, lowering])
    def test_float_degree_120_is_exact_result_rounded_once(self, route):
        want = Polynomial([float(c) for c in route(120, F(0.37)).coeffs])
        got = route(120, 0.37)
        assert all(isinstance(c, float) for c in got.coeffs)
        assert got == want

    def test_shift_then_lower_round_trip(self):
        # lowering to omega-1 and shifting back up is the identity
        for n in range(1, 8):
            for w in GRID:
                down = lowering(n, w)
                back = down + (n * n / ((w - 1 + n) * (w + n))) * construct(n - 1, w - 1)
                assert back == construct(n, w)


class TestDifferentialStep:
    def test_degree_one(self):
        for w in GRID:
            assert differential_step(1, w) == Polynomial((F(1),))

    def test_degree_two_frozen(self):
        assert differential_step(2, F(1, 2)).coeffs == (F(2, 5), F(2))

    def test_degree_two_symbolic(self):
        for w in GRID:
            assert differential_step(2, w).coeffs == (2 * w / (w + 2), F(2))

    def test_matches_formal_derivative(self):
        for n in range(1, 11):
            for w in GRID:
                assert differential_step(n, w) == construct(n, w).derivative()

    def test_pole(self):
        with pytest.raises(PoleError):
            differential_step(2, F(-2))


class TestODE:
    def test_constant_solution(self):
        assert ode_residual(0, F(5, 4)).is_zero

    def test_degree_one(self):
        assert ode_residual(1, F(1, 2)).is_zero

    def test_sample_from_operation_contract(self):
        assert ode_residual(5, F(22, 7)).is_zero

    def test_identically_zero_grid(self):
        for n in range(11):
            for w in GRID:
                assert ode_residual(n, w).is_zero


class TestGeneratingFunction:
    def test_both_sides_one_at_origin(self):
        assert genfun_compare(F(1, 2), 0.0, 0.0, 5) == 0.0

    def test_geometric_reduction_at_minus_one(self):
        # at z = -1 the series telescopes to 1/(1+T)
        assert genfun_compare(F(1, 2), -1.0, 0.3, 40) <= 1e-10

    def test_interior_point(self):
        assert genfun_compare(F(1, 3), 0.4 + 0.2j, 0.5, 60) <= 1e-10

    def test_partial_sum_residual_decreases(self):
        r20 = genfun_compare(F(1, 2), 0.5, 0.5, 20)
        r60 = genfun_compare(F(1, 2), 0.5, 0.5, 60)
        assert r60 < r20

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            genfun_compare(F(1, 2), 0.5, 1.5, 10)  # |T| >= 1
        with pytest.raises(DomainError):
            genfun_compare(F(1, 2), 3.0, 0.5, 10)  # |zT| >= 1
        with pytest.raises(DomainError):
            genfun_compare(F(1, 2), 0.5, -1.5, 10)  # 1+T on the cut
        with pytest.raises(DomainError):
            genfun_compare(F(1, 2), 0.5, 0.5, 0)

    def test_omega_beyond_the_double_range_refused(self):
        # float(omega) overflowed: a bare OverflowError, and an infinite omega gives a NaN residual
        with pytest.raises(DomainError, match="outside the double range"):
            genfun_compare(10**400, 0.1, 0.1, 3)
        # the closed form overflows in cmath.exp; inf * 0 makes the partial sum NaN
        for args in ((1e308, 0.1, 0.1, 3), (1e300, 0.1, 1e-310, 3)):
            with pytest.raises(DomainError, match="outside the double range"):
                genfun_compare(*args)

    @pytest.mark.parametrize(
        "z, t", [(math.nan, 0.1), (complex(0, math.inf), 0), (0.5, complex(math.nan, 0))]
    )
    def test_non_finite_refused(self, z, t):
        # a NaN passes every |zT| < 1 test and inf * 0 is NaN: both printed "residual: nan"
        with pytest.raises(DomainError, match="finite z and T"):
            genfun_compare(F(1, 2), z, t, 10)


def _gap(p: Polynomial, q: Polynomial) -> Fraction:
    """max |coefficient| of p - q."""
    return max(map(abs, (p - q).coeffs), default=F(0))


def _public_residual(identity_id: str, n: int, w: Fraction, printed: bool) -> Fraction:
    """The residual of one sweep row from the public functions, each a rational Polynomial or value."""
    if identity_id == "orthogonality":
        s = construct(n, w)
        worst = max((abs(moments.bilinear(s, _zpow(k), w)) for k in range(n)), default=F(0))
        return max(worst, F(1)) if moments.bilinear(s, _zpow(n), w) == 0 else worst
    if identity_id == "cauchy_determinant":
        return abs(moments.toeplitz_det_closed(n, w) - moments.toeplitz_det_direct(n, w))
    if identity_id == "boundary_values":
        s = d = construct(n, w)
        worst = abs(skypoly.value_at_zero(n, w) - s(F(0)))
        for m in range(n + 1):
            worst = max(worst, abs(skypoly.derivative_at_minus_one(m, n, w) - d(F(-1))))
            d = d.derivative()
        return worst
    if identity_id == "degree_symmetry":
        return _gap(construct(n, w), skypoly.construct_via_symmetry(n, int(w)))
    if identity_id in ("omega_shift_printed_rejected", "lifting_printed_rejected"):
        printed_form = step_omega_up_printed(n, w) if identity_id.startswith("omega") else lifting_printed(n, w)
        return _gap(printed_form, construct(n, w + 1))
    steps = {
        "mixed_step": lambda: _gap(step_mixed(n, w), construct(n, w)),
        "omega_shift": lambda: _gap(
            step_omega_up_printed(n, w) if printed else step_omega_up(n, w), construct(n, w + 1)
        ),
        "derivative_recurrence": lambda: _gap(differential_step(n, w), construct(n, w).derivative()),
        "lifting": lambda: _gap(lifting_printed(n, w) if printed else lifting(n, w), construct(n, w + 1)),
        "lowering": lambda: _gap(lowering(n, w), construct(n, w - 1)),
        "ode": lambda: _gap(ode_residual(n, w), Polynomial()),
        "negative_reflection": lambda: _gap(skypoly.reflect_negative_omega(n, abs(w)), construct(n, -abs(w))),
    }
    return steps[identity_id]()


def _zpow(k: int) -> Polynomial:
    return Polynomial((0,) * k + (1,))


class TestIdentitySuite:
    def test_reports_match_pinned_digest(self, printed_forms):
        # SHA-256 of every report over these sweeps, recorded before the sweep ran on integer rows;
        # the printed half has the faulty printed cores in the omega_shift and lifting rows
        digest = hashlib.sha256()
        for grid in (GRID, (F(-13, 9), F(-5, 2), F(-1, 3))):
            for n_max in (0, 5, 12):
                for printed in (nullcontext, printed_forms):
                    with printed():
                        reports = run_identity_suite(n_max, grid)
                    for r in reports:
                        digest.update(
                            f"{r.identity_id}|{r.params!r}|{r.residual_norm}|"
                            f"{type(r.residual_norm).__name__}|{r.passed}\n".encode()
                        )
        assert digest.hexdigest() == "c6542befb1b94c86e3d9f4ed5dc0ea22ac0fa5a52fb72c88bc1f20aaa6ef5a07"

    @pytest.mark.parametrize(
        "w, last_clean, message",
        [
            (2, 1, "moment pole: k + omega = 0 at k=-2, omega=2"),
            (0, -1, "moment pole: k + omega = 0 at k=0, omega=0"),
            (1, 0, "moment pole: k + omega = 0 at k=-1, omega=1"),
            (-1, 0, "construction pole at degree 1, omega=-1: denominator rising factorial vanishes at term 1"),
            (-3, 1, "parameter shift pole: (omega+n)(omega+n+1) = 0 at omega=-3"),
            (-12, 4, None),  # no pole below degree 12
        ],
    )
    def test_integer_omega_refusals_pinned(self, w, last_clean, message):
        # type, text and degree of the first refusal, recorded before the rows ran on integer cores
        if last_clean >= 0:
            assert all(r.passed for r in run_identity_suite(last_clean, omegas=(w,)))
        for n_max in range(last_clean + 1, 5):
            with pytest.raises(PoleError) as exc:
                run_identity_suite(n_max, omegas=(w,))
            assert (type(exc.value), str(exc.value)) == (PoleError, message)

    def test_integer_omega_refusals_pinned_through_degree_12(self):
        # the first refusal (or none) at every integer omega in -14..14 and n_max in 0..12,
        # recorded before the sweep shared one table of rows and one Levinson pass per omega
        digest = hashlib.sha256()
        for w in range(-14, 15):
            for n_max in range(13):
                try:
                    run_identity_suite(n_max, omegas=(w,))
                    digest.update(f"{w}|{n_max}|none\n".encode())
                except Exception as exc:
                    digest.update(f"{w}|{n_max}|{type(exc).__name__}|{exc}\n".encode())
        assert digest.hexdigest() == "63dd8a76ea130f685f6716f5ceb01867cc00cbdcea36f9e3c45ad114e2f35f3c"

    def test_reports_at_degree_20_pinned(self, printed_forms):
        # a float and a negative grid point, recorded as the refusals above
        digest = hashlib.sha256()
        for printed in (nullcontext, printed_forms):
            with printed():
                reports = run_identity_suite(20, (F(1, 3), 0.37, F(-13, 9)))
            for r in reports:
                digest.update(
                    f"{r.identity_id}|{r.params!r}|{r.residual_norm}|"
                    f"{type(r.residual_norm).__name__}|{r.passed}\n".encode()
                )
        assert digest.hexdigest() == "184d035541f7a42d74f7eec200532631658cc2564998f060e7efffe2276815b2"

    @pytest.mark.parametrize("printed", [False, True])
    def test_residuals_equal_public_step_oracle(self, printed, printed_forms):
        # every residual recomputed with the public steps in Fraction arithmetic: zero gaps,
        # and with the printed forms swapped in, the nonzero cross-multiplied ones
        with printed_forms() if printed else nullcontext():
            reports = run_identity_suite(8, DEFAULT_OMEGA_GRID + (F(-13, 9), F(41, 2)))
        assert {r.residual_norm != 0 for r in reports} == {False, True}
        for r in reports:
            assert type(r.residual_norm) is Fraction
            assert r.residual_norm == _public_residual(r.identity_id, *r.params, printed), r

    def test_float_grid_point_runs_on_its_exact_value(self):
        reports = run_identity_suite(6, omegas=(0.37,))
        assert reports == run_identity_suite(6, omegas=(F(0.37),))
        assert all(r.passed for r in reports)

    def test_negative_degree_bound_refused(self):
        with pytest.raises(DomainError):
            run_identity_suite(n_max=-1)

    def test_all_pass_small(self):
        reports = run_identity_suite(n_max=3)
        assert reports and all(r.passed for r in reports)
        families = {r.identity_id for r in reports}
        assert families == {
            "orthogonality",
            "cauchy_determinant",
            "mixed_step",
            "omega_shift",
            "lifting",
            "lowering",
            "derivative_recurrence",
            "ode",
            "degree_symmetry",
            "negative_reflection",
            "boundary_values",
            "omega_shift_printed_rejected",
            "lifting_printed_rejected",
        }

    def test_eleven_identity_families_plus_falsifications(self):
        reports = run_identity_suite(n_max=2)
        families = {r.identity_id for r in reports}
        main = {f for f in families if not f.endswith("_rejected")}
        assert len(main) == 11
        assert len(families - main) == 2

    def test_printed_variants_break_the_sweep(self, printed_forms):
        with printed_forms():
            reports = run_identity_suite(n_max=1)
        failed = {r.identity_id for r in reports if not r.passed}
        assert failed == {"omega_shift", "lifting"}

    def test_printed_variants_is_not_an_argument(self):
        with pytest.raises(TypeError):
            run_identity_suite(1, printed_variants=True)

    def test_residuals_exactly_zero(self):
        for r in run_identity_suite(n_max=2):
            if not r.identity_id.endswith("_rejected"):
                assert r.residual_norm == 0

    def test_falsification_rows_have_nonzero_residual(self):
        for r in run_identity_suite(n_max=1):
            if r.identity_id.endswith("_rejected"):
                assert r.passed and r.residual_norm != 0

    def test_report_order(self):
        # the verify byte stream follows this order
        reports = run_identity_suite(n_max=1, omegas=(F(1, 2),))
        assert [(r.identity_id, r.params[0]) for r in reports] == [
            ("orthogonality", 0), ("cauchy_determinant", 0), ("lifting", 0), ("lowering", 0),
            ("ode", 0), ("negative_reflection", 0), ("boundary_values", 0),
            ("orthogonality", 1), ("cauchy_determinant", 1), ("mixed_step", 1), ("omega_shift", 1),
            ("derivative_recurrence", 1), ("lifting", 1), ("lowering", 1), ("ode", 1),
            ("negative_reflection", 1), ("boundary_values", 1),
            ("degree_symmetry", 1), ("omega_shift_printed_rejected", 1), ("lifting_printed_rejected", 1),
        ]
        rejected = [(r.params, r.residual_norm, r.passed) for r in reports[-2:]]
        assert rejected == [((1, F(1, 2)), F(4, 15), True), ((1, F(1, 2)), F(3, 5), True)]
