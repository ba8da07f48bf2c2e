"""Every integer argument of the public API passes one gate (``scalarfield.as_degree``).

An integer is any ``numbers.Integral`` but a bool, converted to a plain int
before any arithmetic: True, a float (2.0 included) and a string are refused,
and so is a negative degree.  A numpy integer gives exactly the int result;
without the conversion it wraps in the integer products and returns a wrong
exact value with no refusal.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from skyburst import (
    DomainError,
    Polynomial,
    construct,
    construct_determinantal,
    construct_series,
    construct_via_symmetry,
    derivative_at_minus_one,
    differential_step,
    emergence_angles,
    fizzle_gap,
    genfun_compare,
    lifting,
    lifting_printed,
    lowering,
    moment,
    ode_residual,
    pochhammer,
    r_nk,
    reduced_moment,
    reflect_negative_omega,
    run_identity_suite,
    step_mixed,
    step_omega_up,
    step_omega_up_printed,
    taylor_about_minus_one,
    toeplitz_det_closed,
    toeplitz_det_direct,
    trace,
    value_at_zero,
    zeros_of,
)

W = F(22, 7)

PER_DEGREE = (
    construct, construct_series, value_at_zero, reflect_negative_omega, taylor_about_minus_one,
    toeplitz_det_direct, toeplitz_det_closed, construct_determinantal,
    step_mixed, step_omega_up, step_omega_up_printed, lifting, lifting_printed, lowering,
    differential_step, ode_residual, zeros_of, fizzle_gap,
)

# (label, call with the integer argument x, whether x is nonnegative: a degree, an order or a count)
ARGUMENTS = [(fn.__name__, lambda x, fn=fn: fn(x, W), True) for fn in PER_DEGREE] + [
    ("pochhammer order", lambda x: pochhammer(F(1, 3), x), True),
    ("Polynomial.shifted", lambda x: Polynomial([1, 2]).shifted(x), True),
    ("Polynomial.shifted, zero polynomial", lambda x: Polynomial().shifted(x), True),
    ("construct_via_symmetry n", lambda x: construct_via_symmetry(x, 1), True),
    ("construct_via_symmetry m", lambda x: construct_via_symmetry(3, x), True),
    ("derivative_at_minus_one m", lambda x: derivative_at_minus_one(x, 3, W), True),
    ("derivative_at_minus_one n", lambda x: derivative_at_minus_one(0, x, W), True),
    ("r_nk n", lambda x: r_nk(x, 2, W), True),
    ("r_nk k", lambda x: r_nk(3, x, W), False),
    ("reduced_moment", lambda x: reduced_moment(x, W), False),
    ("moment", lambda x: moment(x, W), False),
    ("run_identity_suite", lambda x: run_identity_suite(x, omegas=(W,)), True),
    ("genfun_compare terms", lambda x: genfun_compare(W, 0.3, 0.2, x), True),
    ("emergence_angles n", lambda x: emergence_angles(x, 1, 0.01), True),
    ("emergence_angles m", lambda x: emergence_angles(4, x, 0.01), True),
    ("trace", lambda x: trace(x, 0.05, 0.5), True),
]
NOT_INTEGERS = (True, np.bool_(True), 2.5, 2.0, "3")


@pytest.mark.parametrize("label, call, nonnegative", ARGUMENTS, ids=[a[0] for a in ARGUMENTS])
def test_non_integers_and_negative_degrees_refused(label, call, nonnegative):
    for value in NOT_INTEGERS:
        with pytest.raises(DomainError):
            call(value)
    if nonnegative:
        with pytest.raises(DomainError):
            call(-1)
    else:
        assert call(np.int64(-3)) == call(-3)


# a degree (or order) at which a numpy integer used to return a wrong exact value, with no refusal
NUMPY_CASES = [
    ("toeplitz_det_closed", lambda n: toeplitz_det_closed(n, W), 4),
    ("reflect_negative_omega", lambda n: reflect_negative_omega(n, W), 6),
    ("step_mixed", lambda n: step_mixed(n, W), 6),
    ("step_omega_up", lambda n: step_omega_up(n, W), 6),
    ("r_nk", lambda n: r_nk(n, n, W), 7),
    ("taylor_about_minus_one", lambda n: taylor_about_minus_one(n, W), 9),
    ("value_at_zero", lambda n: value_at_zero(n, W), 11),
    ("differential_step", lambda n: differential_step(n, W), 11),
    ("ode_residual", lambda n: ode_residual(n, W), 11),
    ("construct", lambda n: construct(n, W), 15),
    ("zeros_of", lambda n: zeros_of(n, W), 15),
    ("pochhammer", lambda n: pochhammer(W, n), 40),
]


@pytest.mark.parametrize("label, call, n", NUMPY_CASES, ids=[c[0] for c in NUMPY_CASES])
def test_numpy_integer_gives_the_int_result(label, call, n):
    expected = call(n)
    got = call(np.int64(n))
    assert type(got) is type(expected) and repr(got) == repr(expected)
