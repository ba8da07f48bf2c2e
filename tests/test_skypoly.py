import math
import re
from fractions import Fraction

import pytest

from skyburst import skypoly
from skyburst.errors import DomainError, PoleError
from skyburst.scalarfield import as_omega, pochhammer
from skyburst.skypoly import (
    Polynomial,
    construct,
    construct_series,
    construct_via_symmetry,
    derivative_at_minus_one,
    reflect_negative_omega,
    star,
    taylor_about_minus_one,
    value_at_zero,
)

GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(7, 3), Fraction(22, 7))

F = Fraction


def zpow(k):
    return Polynomial((0,) * k + (1,))


def rising_factorial_series(n, w):
    """Reference: each coefficient C(n, l) poch(-w, l) / poch(-n-w, l) from fresh products."""
    coeffs = [F(0)] * n + [F(1)]
    for ell in range(1, n + 1):
        den = pochhammer(-n - w, ell)
        if den == 0:
            raise PoleError(
                f"construction pole at degree {n}, omega={w}: "
                f"denominator rising factorial vanishes at term {ell}"
            )
        coeffs[n - ell] = math.comb(n, ell) * pochhammer(-w, ell) / den
    return Polynomial(coeffs)


# every pole -n..-1 and every exact-zero parameter 0..n-1 for n <= 9, plus
# non-integers on both sides and beyond n
RATIO_GRID = [F(k) for k in range(-11, 12)] + [
    F(p, q) for p, q in ((1, 3), (-1, 2), (22, 7), (-13, 9), (17, 3), (-41, 6), (61, 8), (-5, 4))
]


class TestPolynomial:
    def test_normalization_trims_trailing_zeros(self):
        p = Polynomial((F(1), F(2), F(0), F(0)))
        assert p.degree == 1
        assert Polynomial((0, 0, 0)).is_zero
        assert Polynomial(()).degree == -1
        assert len({p, Polynomial((1, 2))}) == 1  # equal after trimming, so one hash

    def test_kind_mixing_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((F(1, 2), 0.5))
        with pytest.raises(TypeError):
            Polynomial((F(1, 2), 1)) + Polynomial((0.5, 1.0))

    def test_int_coefficients_compatible_with_both(self):
        shared = Polynomial((1, 1))
        assert (shared * Polynomial((F(1, 2),))).coeffs == (F(1, 2), F(1, 2))
        assert (shared * Polynomial((0.5,))).coeffs == (0.5, 0.5)

    def test_horner_exact(self):
        p = Polynomial((F(-1, 15), F(2, 5), F(1)))
        assert p(F(2)) == F(-1, 15) + F(4, 5) + 4
        assert p(F(0)) == F(-1, 15)

    def test_arithmetic(self):
        p = Polynomial((1, 2))
        q = Polynomial((0, 1))
        assert (p * q).coeffs == (0, 1, 2)
        assert (p * Polynomial()).is_zero and (Polynomial() * q).is_zero
        assert (-p).coeffs == (-1, -2)
        assert (p - p).is_zero
        assert p.derivative().coeffs == (2,)
        assert p.shifted(2).coeffs == (0, 0, 1, 2)

    def test_eval_zero_poly(self):
        assert Polynomial()(F(3)) == 0


class TestConstruct:
    def test_degree_one_closed_form(self):
        for w in GRID:
            assert construct(1, w).coeffs == (w / (1 + w), F(1))

    def test_omega_zero_is_monomial(self):
        for n in range(6):
            assert construct(n, F(0)) == zpow(n)

    def test_degree_two_frozen(self):
        # cross-checked against the moment linear system in test_moments
        assert construct(2, F(1, 2)).coeffs == (F(-1, 15), F(2, 5), F(1))

    def test_monic_across_grid(self):
        for n in range(13):
            for w in GRID:
                assert construct(n, w).coeffs[-1] == 1

    def test_exact_kind(self):
        assert construct(4, F(1, 3)).scalar_kind == "rational"
        assert construct(4, 0.25).scalar_kind == "complex_float"

    def test_negative_integer_poles(self):
        for w in (-1, -2, -3):
            with pytest.raises(PoleError):
                construct_series(3, F(w))
        # beyond -n the denominators never vanish
        assert construct(2, F(-5)).coeffs == (F(5, 2), F(10, 3), F(1))

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            construct(-1, F(1, 2))

    @pytest.mark.parametrize("n", range(10))
    def test_term_ratio_matches_rising_factorials(self, n):
        for w in RATIO_GRID:
            try:
                want = rising_factorial_series(n, w)
            except PoleError as exc:
                with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
                    construct_series(n, w)
                continue
            got = construct_series(n, w)
            assert repr(got) == repr(want), (n, w)
            if w.denominator == 1 and 0 <= w < n:
                assert got.coeffs[: n - int(w)] == (0,) * (n - int(w))

    @pytest.mark.parametrize("n", [1, 2, 16, 40])
    def test_pole_named_for_every_negative_integer(self, n):
        for j in range(1, n + 1):
            with pytest.raises(PoleError, match=(
                f"^construction pole at degree {n}, omega=-{j}: "
                f"denominator rising factorial vanishes at term {n + 1 - j}$"
            )):
                construct(n, F(-j))

    def test_pole_named_at_first_vanishing_term(self):
        with pytest.raises(PoleError, match=r"omega=-3: .* at term 3$"):
            construct_series(5, F(-3))
        with pytest.raises(PoleError, match=r"omega=-3.0: .* at term 3$"):
            construct_series(5, -3.0)

    @pytest.mark.parametrize(
        "n, w", [(12, 0.3), (7, 22 / 7), (20, -1.3), (30, 2.7), (9, 4.0), (5, 2.0)]
    )
    def test_float_omega_is_exact_value_rounded_once(self, n, w):
        want = construct_series(n, F(w)).to_inexact()
        for build in (construct, construct_series):
            got = build(n, w)
            assert got.scalar_kind == "complex_float"
            assert got == want

    def test_eval_examples(self):
        assert construct(1, F(1, 2))(F(-1)) == F(-2, 3)
        assert construct(0, F(1, 2))(F(17)) == 1


@pytest.mark.parametrize("grid", [GRID, (F(-13, 9), F(-5, 2), F(-1, 3))], ids=["positive", "negative"])
def test_construct_series_is_the_member_row(grid):
    # the identity sweep checks the integer member row; this ties it to the public route
    for w in grid:
        for n in range(41):
            row, den = skypoly._Rows(n).member(n, w)
            assert construct_series(n, w).coeffs == tuple(F(c, den) for c in row)
            assert row[-1] == den


class TestSpecialValues:
    # S_n(-1) is the order-0 derivative at -1
    def test_value_at_minus_one_examples(self):
        assert derivative_at_minus_one(0, 0, F(1, 2)) == 1
        assert derivative_at_minus_one(0, 3, F(1, 2)) == F(-16, 35)
        assert derivative_at_minus_one(0, 2, F(1)) == F(1, 3)

    def test_value_at_minus_one_matches_eval(self):
        # (-1)^n n! / poch(1+w, n) = S_n(-1), on both sides of every pole -n..-1
        for n in range(11):
            for w in RATIO_GRID:
                den = pochhammer(1 + w, n)
                if den == 0:
                    with pytest.raises(PoleError):
                        derivative_at_minus_one(0, n, w)
                    continue
                want = (-1) ** n * math.factorial(n) / den
                assert derivative_at_minus_one(0, n, w) == want == construct(n, w)(F(-1))

    def test_derivative_closed_form_matches_formal_derivative(self):
        for n in range(11):
            for w in GRID:
                p = construct(n, w)
                for m in range(n + 1):
                    assert derivative_at_minus_one(m, n, w) == p(F(-1))
                    p = p.derivative()

    def test_derivative_examples(self):
        assert derivative_at_minus_one(0, 4, F(1, 3)) == F(243, 455)
        for n in range(7):
            assert derivative_at_minus_one(n, n, F(2, 3)) == math.factorial(n)
        assert derivative_at_minus_one(1, 2, F(1, 2)) == F(-8, 5)

    def test_derivative_domain(self):
        with pytest.raises(DomainError):
            derivative_at_minus_one(3, 2, F(1, 2))
        with pytest.raises(DomainError, match="degree must be nonnegative, got -1"):
            taylor_about_minus_one(-1, F(1, 2))

    def test_value_at_zero(self):
        for w in GRID:
            assert value_at_zero(1, w) == w / (1 + w)
        assert value_at_zero(2, F(1, 2)) == F(-1, 15)
        for n in range(1, 9):
            for m in range(n):
                assert value_at_zero(n, F(m)) == 0
            assert value_at_zero(n, F(n)) != 0
            for w in GRID:
                assert value_at_zero(n, w) == construct(n, w)(F(0)) != 0


@pytest.mark.parametrize(
    "w", [F(1, 3), F(22, 7), F(-13, 9), F(-5, 2), F(0), F(2), F(-3), 0.37, 1e-300, 2.0, -3.0, 0.0]
)
def test_value_at_zero_equals_pochhammer_ratio(w):
    # value and type, or the PoleError text, against poch(-w, n) / poch(-n-w, n) in Fractions
    for n in range(10):
        den = pochhammer(-n - F(w), n)
        if den == 0:
            with pytest.raises(PoleError) as got:
                value_at_zero(n, w)
            assert str(got.value) == f"value at 0 undefined: poch({-n}-{w}, {n}) = 0"
            continue
        want = pochhammer(-F(w), n) / den
        if isinstance(w, float):
            want = float(want)
        got = value_at_zero(n, w)
        assert (type(got), got) == (type(want), want), n
    with pytest.raises(DomainError):
        value_at_zero(-1, w)


class TestStar:
    def test_monomial_collapses(self):
        assert star(zpow(5)) == Polynomial((1,))

    def test_reversal(self):
        assert star(construct(1, F(1, 2))).coeffs == (F(1), F(1, 3))

    def test_involution_with_nonzero_constant(self):
        for w in GRID:
            p = construct(3, w)
            assert star(star(p)) == p

    def test_conjugates_complex_coefficients(self):
        p = Polynomial((1 + 2j, 1 + 0j))
        assert star(p).coeffs == (1 - 0j, 1 - 2j)

    def test_family_does_not_satisfy_reversal_recurrence(self):
        # S_3 - z*S_2 is NOT proportional to star(S_2): the family replaces the
        # classical reversed-polynomial step by a parameter shift.
        w = F(1, 2)
        diff = construct(3, w) - construct(2, w).shifted(1)
        rev = star(construct(2, w))
        assert diff.degree == rev.degree == 2
        ratios = {diff.coeffs[j] / rev.coeffs[j] for j in range(3)}
        assert len(ratios) > 1


class TestSymmetryRoute:
    def test_monomial_case(self):
        for n in range(1, 6):
            assert construct_via_symmetry(n, 0) == zpow(n)

    def test_small_cases(self):
        assert construct_via_symmetry(2, 1).coeffs == (0, F(2, 3), F(1))
        assert construct_via_symmetry(3, 1).coeffs == (0, 0, F(3, 4), F(1))

    def test_matches_direct_series_limit(self):
        for n in range(1, 11):
            for m in range(n):
                assert construct_series(n, F(m)) == construct_via_symmetry(n, m)

    def test_construct_dispatches_integers(self):
        assert construct(5, F(2)) == construct_via_symmetry(5, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            construct_via_symmetry(3, 3)


class TestReflection:
    def test_degree_one(self):
        assert reflect_negative_omega(1, F(1, 2)) == construct(1, F(-1, 2))
        assert reflect_negative_omega(1, F(1, 2)).coeffs == (F(-1), F(1))

    def test_degree_zero(self):
        assert reflect_negative_omega(0, F(1, 2)) == Polynomial((F(1),))

    def test_matches_direct_negative_construction(self):
        for n in range(9):
            for w in (F(1, 3), F(1, 2), F(2, 3), n + F(1, 3), n + F(3, 2)):
                assert reflect_negative_omega(n, w) == construct(n, -w)

    def test_integer_blowup(self):
        for w in (1, 2, 3):
            with pytest.raises(PoleError):
                reflect_negative_omega(3, F(w))

    def test_requires_positive(self):
        with pytest.raises(DomainError):
            reflect_negative_omega(2, F(-1, 2))


class TestTaylorAboutMinusOne:
    def test_constant(self):
        assert taylor_about_minus_one(0, F(5, 4)) == (1,)

    def test_degree_one(self):
        assert taylor_about_minus_one(1, F(1, 2)) == (F(-2, 3), F(1))

    def test_equals_scaled_derivatives(self):
        # the formal derivatives of construct at -1, a route the Taylor row does not share
        for w in (F(1, 3), F(-13, 9), F(22, 7)):
            for n in range(21):
                p, expected = construct(n, w), []
                for m in range(n + 1):
                    expected.append(p(F(-1)) / math.factorial(m))
                    p = p.derivative()
                assert taylor_about_minus_one(n, w) == tuple(expected)

    def test_pole_refused_up_front(self):
        for n, w in [(3, -2), (3, -2.0), (5, F(-3)), (4, -1), (4, F(-4))]:
            text = rf"^derivative at -1 undefined: poch\(1\+{int(w)}, {n}\) = 0$"
            with pytest.raises(PoleError, match=text):
                taylor_about_minus_one(n, w)
            with pytest.raises(PoleError, match=text):
                derivative_at_minus_one(0, n, w)
        assert taylor_about_minus_one(3, -4)[-1] == 1  # -4 is past the last factor

    def test_round_trip(self):
        one_plus_z = Polynomial((1, 1))
        for n in range(11):
            for w in GRID:
                coeffs = taylor_about_minus_one(n, w)
                assert coeffs[-1] == 1  # monicity forces the leading factor
                acc = Polynomial()
                power = Polynomial((1,))
                for c in coeffs:
                    acc = acc + c * power
                    power = power * one_plus_z
                assert acc == construct(n, w)


class TestFloatRow:
    OMEGAS = (F(1, 3), F(22, 7), F(-7, 3), 0.37, 2.5, -2.5, 13.0, 1e-300, 3, 17, 0, -45, F(-1, 2))

    @staticmethod
    def _refusal(call):
        try:
            call()
        except (PoleError, DomainError) as exc:
            return type(exc), str(exc)
        raise AssertionError("no refusal")

    @pytest.mark.parametrize("n", range(41))
    def test_is_the_rounded_construction_bit_for_bit(self, n):
        for w in self.OMEGAS:
            reference = list(map(complex, construct(n, w).to_inexact().coeffs))
            row = skypoly._float_row(n, as_omega(w))
            assert repr(row) == repr(reference)
            assert all(type(c) is complex for c in row)

    def test_integer_omega_low_coefficients_are_exactly_zero(self):
        for w in (3, 3.0, F(3)):
            row = skypoly._float_row(9, as_omega(w))
            assert repr(row[:6]) == repr([0j] * 6) and row[6] != 0

    @pytest.mark.parametrize("n, w", [(5, -3), (5, -3.0), (4, F(-4)), (40, -1)])
    def test_pole_is_the_construction_pole(self, n, w):
        expected = self._refusal(lambda: construct(n, w))
        assert expected[0] is PoleError
        assert self._refusal(lambda: skypoly._float_row(n, as_omega(w))) == expected

    @pytest.mark.parametrize("n, w", [(400, math.nextafter(-280.0, 0)),
                                      (400, F(math.nextafter(-280.0, 0))),
                                      (2, F(-1) + F(1, 10 ** 400))], ids=["float", "fraction", "near-pole"])
    def test_double_range_overflow_is_the_rounding_refusal(self, n, w):
        expected = self._refusal(lambda: construct(n, w).to_inexact())
        assert expected[0] is DomainError and "outside the double range" in expected[1]
        assert self._refusal(lambda: skypoly._float_row(n, w)) == expected
