"""One digest over the public results of the exact layer, for every accepted omega form.

Each call contributes its label and either the type and repr of its result or
the type and text of its refusal, so a change in a value, in the format it
is returned in (Fraction or float), or in an error message changes the digest.
Run as a script, it prints those lines, so that two trees can be diffed line by
line whenever the digest is re-recorded:

    PYTHONPATH=<tree>/src python tests/test_public_outputs.py > lines.txt
"""

import hashlib
from decimal import Decimal
from fractions import Fraction as F

import numpy as np

from skyburst import (
    Polynomial,
    bilinear,
    construct,
    construct_determinantal,
    construct_series,
    derivative_at_minus_one,
    differential_step,
    fizzle_gap,
    genfun_compare,
    lifting,
    lifting_printed,
    lowering,
    moment,
    ode_residual,
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
    value_at_zero,
    zeros_of,
)

N_MAX = 8

# every accepted form: int, Fraction, "p/q", float (and a float subclass),
# with integer values in each format and the poles at 0 and the negative integers
OMEGAS = (
    2, -3, 0, 5,
    F(1, 3), F(-13, 9), F(22, 7), F(5, 4), F(-2), F(15, 2),
    "5/4", "-7/3", "3", "-2",
    0.37, -2.3, 2.0, -2.0, 1e-9, 0.0, 7.5, -0.5,
    np.float64(0.37), np.float64(-2.0),
)
REFUSED = (
    float("nan"), float("inf"), float("-inf"), np.float64("nan"),
    "abc", "1/0", "0.5", "1/-2", None, 1 + 1j, [1], Decimal("0.5"),
)
PAIRS = (
    (Polynomial([1, F(1, 2)]), Polynomial([F(1, 3), 0, 1])),
    (Polynomial([0.5, 1.0]), Polynomial([1.0, 0.0, -2.0])),
    (Polynomial([1j, 2.0]), Polynomial([1.0, 1j])),
)

# the single-degree public functions of omega, called at every n <= N_MAX
PER_DEGREE = (
    construct, construct_series, value_at_zero, reflect_negative_omega, taylor_about_minus_one,
    toeplitz_det_direct, toeplitz_det_closed, construct_determinantal,
    step_mixed, step_omega_up, lifting, lifting_printed, lowering, differential_step, ode_residual,
    zeros_of,
)


def _calls(w):
    for fn in PER_DEGREE:
        for n in range(N_MAX + 1):
            yield f"{fn.__name__}({n})", lambda: fn(n, w)
    for n in range(1, N_MAX + 1):
        yield f"step_omega_up_printed({n}, nz2)", lambda: step_omega_up_printed(n, w)
        for m in range(n + 1):
            yield f"derivative_at_minus_one({m}, {n})", lambda: derivative_at_minus_one(m, n, w)
        for k in range(n + 2):
            yield f"r_nk({n}, {k})", lambda: r_nk(n, k, w)
        yield f"fizzle_gap({n})", lambda: fizzle_gap(n, w)
    for k in range(-N_MAX, N_MAX + 1):
        yield f"reduced_moment({k})", lambda: reduced_moment(k, w)
        yield f"moment({k})", lambda: moment(k, w)
    for i, (f, g) in enumerate(PAIRS):
        yield f"bilinear({i})", lambda: bilinear(f, g, w)
    yield "run_identity_suite", lambda: run_identity_suite(4, omegas=(w,))
    yield "genfun_compare", lambda: genfun_compare(w, 0.3, 0.2, 12)


def _lines():
    """One line per call, in a fixed order: the digest reads these and nothing else."""
    for w in OMEGAS + REFUSED:
        for label, call in _calls(w):
            try:
                result = call()
                yield f"{type(w).__name__}:{w} {label} -> {type(result).__name__} {result!r}"
            except (ValueError, RuntimeError) as exc:  # every refusal of the package
                yield f"{type(w).__name__}:{w} {label} !! {type(exc).__name__}: {exc}"


def _digest() -> tuple:
    digest, count = hashlib.sha256(), 0
    for line in _lines():
        digest.update(line.encode() + b"\n")
        count += 1
    return digest.hexdigest(), count


def test_public_results_and_refusals_pinned():
    # re-recorded when the root finder's cold start became the Newton-polygon circles: only
    # zeros_of (118) and fizzle_gap (8) lines moved: roots and gaps in their last digits, which
    # can swap the sorted order of a conjugate pair; and when settled roots left the sweep:
    # every returned ZeroSet gained its evaluations count, and 46 zeros_of and 7 fizzle_gap
    # results moved in their last digits; and when the polish stopped at the rounding floor:
    # every ZeroSet's evaluations gained the polish's, and the roots of 100 zeros_of and 3
    # fizzle_gap results moved in their last digits; and when moment formed sigma on the
    # reduced argument: only the 65 moment(k) lines at 2.0, -2.0 (float and float64) and -2.3
    # moved, the first three to signed zeros; and when step_omega_up_printed lost its variant:
    # only the 288 step_omega_up_printed(n, n2z) lines left, and no line moved; and when real
    # roots <= -1 got their own tag: only 30 zeros_of lines moved, each from complex_offaxis to
    # neg_outer, at omega -13/9, -7/3, -2 (Fraction and "-2"), -2.0 (float and float64), -2.3 and -3
    assert _digest() == ("ec3ccde2e6084f0b3478bf06464a1b95494fbba23260cf986d460f8ff3cc1a9b", 10620)


if __name__ == "__main__":
    for line in _lines():
        print(line)
