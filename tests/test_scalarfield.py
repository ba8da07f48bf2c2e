import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skyburst.errors import DomainError
from skyburst.scalarfield import (
    as_degree,
    as_fraction,
    as_integer,
    as_member,
    as_omega,
    as_point,
    as_real,
    parse_rational,
    pochhammer,
    rounded_ratio,
)
from skyburst.skypoly import Polynomial, construct

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(7, 3), 0) == 1
        assert pochhammer(0.25, 0) == 1.0

    def test_negative_integer_base_vanishes(self):
        assert pochhammer(Fraction(-3), 5) == 0

    def test_half_cubed(self):
        # direct product oracle: (1/2)(3/2)(5/2)
        expected = Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
        assert expected == Fraction(15, 8)
        assert pochhammer(Fraction(1, 2), 3) == expected

    def test_exact_zeros_exhaustive(self):
        for k in range(31):
            for n in range(k):
                assert pochhammer(Fraction(-n), k) == 0

    @given(rationals, st.integers(0, 20), st.integers(0, 20))
    def test_additivity(self, x, j, k):
        assert pochhammer(x, j + k) == pochhammer(x, j) * pochhammer(x + j, k)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(Fraction(1), -1)

    def test_float_mode_stays_float(self):
        assert isinstance(pochhammer(0.5, 3), float)

    @staticmethod
    def left_to_right(x, k):
        # the termwise product, stopping at the first zero
        acc = Fraction(1)
        for i in range(k):
            acc = acc * (x + i)
            if acc == 0:
                return acc
        return acc

    @given(st.one_of(rationals, st.integers(-40, 40)), st.integers(0, 30))
    def test_exact_base_is_the_left_to_right_product(self, x, k):
        got, want = pochhammer(x, k), self.left_to_right(x, k)
        assert (got, type(got)) == (want, type(want))

    @pytest.mark.parametrize("x", [0, -7, 5, Fraction(-7), Fraction(-22, 7), Fraction(7, 3), Fraction(-5, 2)])
    def test_exact_zeros_and_types_every_order(self, x):
        for k in range(25):
            got, want = pochhammer(x, k), self.left_to_right(x, k)
            assert (got, type(got)) == (want, type(want))

    @pytest.mark.parametrize(
        "x", [0.37, -2.0, -2.5, -0.0, 1e300, 0.25 + 1j, complex(-3, -0.0), complex(0.1, 1e200)]
    )
    def test_inexact_base_bit_for_bit(self, x):
        for k in range(25):
            got, want = pochhammer(x, k), self.left_to_right(x, k)
            assert (repr(got), type(got)) == (repr(want), type(want))


class TestFieldAxioms:
    @given(rationals, rationals)
    def test_add_cancel(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals.filter(lambda b: b != 0))
    def test_mul_cancel(self, a, b):
        assert (a * b) / b == a


class TestToFloat:
    # exact scalars reach the root finder through Polynomial.to_inexact, one rounding each

    @staticmethod
    def to_float(s):
        return Polynomial((s,)).to_inexact().coeffs[0]

    def test_half(self):
        assert self.to_float(Fraction(1, 2)) == 0.5

    def test_long_division(self):
        # long-division oracle for -16/35 to 20 digits: -0.45714285714285714285...
        digits = []
        rem = 16
        for _ in range(20):
            rem *= 10
            digits.append(rem // 35)
            rem %= 35
        assert "".join(map(str, digits)) == "45714285714285714285"
        assert abs(self.to_float(Fraction(-16, 35)) - (-0.45714285714285713)) < 1e-16

    def test_identity_on_complex(self):
        assert self.to_float(3 + 4j) == 3 + 4j

    def test_overflow(self):
        with pytest.raises(DomainError):
            self.to_float(Fraction(10) ** 400)


class TestParsing:
    def test_fraction_and_integer(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational(" 17 ") == 17

    def test_rejects_decimals_and_garbage(self):
        for bad in ("0.5", "1/2/3", "x", "1/-2", ""):
            with pytest.raises(DomainError):
                parse_rational(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(DomainError):
            parse_rational("1/0")


class TestOmega:
    def test_integer_detection_exact(self):
        # integrality is read from the value, in either format
        assert as_fraction(as_omega(Fraction(4, 2))) == as_fraction(as_omega(2.0)) == 2
        assert as_fraction(as_omega(2.0)).denominator == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_refused(self, value):
        with pytest.raises(DomainError, match="omega must be finite"):
            as_omega(value)

    def test_as_fraction_both_modes(self):
        third = Fraction(1, 3)
        assert as_fraction(third) is third
        # a float is an exact binary rational
        assert as_fraction(0.37) == Fraction(0.37) == Fraction(3332663724254167, 2**53)

    def test_rounded_once_for_a_float_omega(self):
        third = Fraction(1, 3)
        assert rounded_ratio(third, 2, 6) == third
        assert rounded_ratio(0.37, 2, 6) == 1 / 3
        # the sign goes to the numerator: 0 over a negative integer is 0.0, not -0.0
        assert str(rounded_ratio(0.37, 0, -3)) == "0.0"
        with pytest.raises(DomainError, match="double range"):
            rounded_ratio(0.37, 10 ** 400, 3)

    def test_as_omega(self):
        # exact forms become a Fraction, a float stays a plain float
        for value in (Fraction(1, 3), 3, "1/3", "3"):
            assert type(as_omega(value)) is Fraction and as_omega(value) == Fraction(value)
        assert type(as_omega(np.float64(0.25))) is float and as_omega(0.25) == 0.25
        assert as_omega(as_omega(Fraction(5, 4))) == Fraction(5, 4)
        for bad in (None, 1j, [1]):
            with pytest.raises(DomainError, match="cannot interpret"):
                as_omega(bad)

    @pytest.mark.parametrize("value", [np.int64(2), np.int8(-3), np.uint64(2**63 + 1)])
    def test_numpy_integers_become_int_fractions(self, value):
        omega = as_omega(value)
        assert type(omega) is Fraction and omega == int(value)
        # int(): a numpy numerator would wrap on overflow
        assert type(omega.numerator) is int and type(omega.denominator) is int
        assert construct(2, value) == construct(2, int(value))

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bool_refused(self, value):
        with pytest.raises(DomainError, match="cannot interpret"):
            as_omega(value)
        with pytest.raises(DomainError, match="cannot interpret"):
            construct(2, value)

    def test_any_real_that_is_not_rational_is_a_float_omega(self):
        # numpy.float32 is read through as_real like numpy.float64: its exact value, as a plain float
        omega = as_omega(np.float32(0.1))
        assert type(omega) is float and omega == float(np.float32(0.1))
        assert construct(3, np.float32(0.1)) == construct(3, float(np.float32(0.1)))
        with pytest.raises(DomainError, match="omega must be finite"):
            as_omega(np.float32("inf"))

    def test_rational_other_than_fraction_refused(self):
        # a rational type that is neither a Fraction nor an integer is refused, not rounded
        sympy = pytest.importorskip("sympy")
        with pytest.raises(DomainError, match="cannot interpret 1/3 as omega"):
            as_omega(sympy.Rational(1, 3))
        assert as_omega(sympy.Integer(3)) == 3


class TestDegree:
    @pytest.mark.parametrize("value", [0, 7, np.int32(7), np.int64(7), np.uint8(7)])
    def test_integers_become_int(self, value):
        assert type(as_degree(value)) is int and as_degree(value) == int(value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5, np.float64(2.0),
                                       Fraction(2), "3", None])
    def test_non_integers_refused(self, value):
        with pytest.raises(DomainError, match="cannot interpret .* as a degree"):
            as_degree(value)
        with pytest.raises(DomainError, match="cannot interpret .* as an index"):
            as_integer(value, "an index")

    def test_negative_degree_refused_negative_index_accepted(self):
        for value in (-1, np.int64(-1)):
            with pytest.raises(DomainError, match="degree must be nonnegative, got -1"):
                as_degree(value)
            assert type(as_integer(value, "an index")) is int and as_integer(value, "an index") == -1

    def test_member_gates_the_degree_first(self):
        n, omega = as_member(np.int64(3), np.int64(2))
        assert type(n) is int and n == 3 and type(omega) is Fraction and omega == 2
        with pytest.raises(DomainError, match="as a degree"):
            as_member(2.0, "abc")
        with pytest.raises(DomainError, match="as omega"):
            as_member(3, True)


NOT_NUMBERS = [True, False, np.bool_(True), "0.5", None, Decimal("0.5"), [1]]


class TestReal:
    @pytest.mark.parametrize("value", [0.25, 1, Fraction(1, 4), np.float64(0.25), np.float32(0.25),
                                       np.int64(1), Fraction(1, 3), -0.0])
    def test_reals_become_float(self, value):
        got = as_real(value, "a step")
        assert type(got) is float and repr(got) == repr(float(value))

    @pytest.mark.parametrize("value, expected", [(10 ** 400, math.inf), (-10 ** 400, -math.inf),
                                                 (Fraction(10 ** 400, 3), math.inf)])
    def test_beyond_the_double_range_is_infinite(self, value, expected):
        assert as_real(value, "a step") == expected
        assert as_point(value, "a point") == complex(expected, 0.0)

    def test_nan_passes_to_the_caller(self):
        assert math.isnan(as_real(math.nan, "a step"))

    @pytest.mark.parametrize("value", NOT_NUMBERS + [1j, np.complex128(1)])
    def test_non_reals_refused(self, value):
        with pytest.raises(DomainError, match="cannot interpret .* as a step"):
            as_real(value, "a step")


class TestPoint:
    def test_a_complex_is_returned_as_is(self):
        # the value, not the object: repr tells the -0.0 imaginary part from 0.0
        z = complex(0.5, -0.0)
        got = as_point(z, "a point")
        assert type(got) is complex and repr(got) == repr(z) == "(0.5-0j)"

    @pytest.mark.parametrize("value", [0.5 + 0.25j, np.complex128(0.5 + 0.25j), np.complex64(0.5 + 0.25j),
                                       0.5, 2, Fraction(1, 2), np.float32(0.5), np.int64(2)])
    def test_numbers_become_complex(self, value):
        got = as_point(value, "a point")
        assert type(got) is complex and repr(got) == repr(complex(value))

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_non_numbers_refused(self, value):
        with pytest.raises(DomainError, match="cannot interpret .* as a point"):
            as_point(value, "a point")
