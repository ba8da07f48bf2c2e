"""Every real and complex argument of the public API passes one rule (``scalarfield.as_real``
and ``as_point``), as every integer passes ``as_degree``.

A real is any ``numbers.Real`` but a bool, converted to a plain float before it is
compared or used; a point is any ``numbers.Complex`` but a bool, converted to a plain
complex.  A bool, a numeric string, None, a Decimal and a list are refused with
DomainError, and so is a complex where a real is expected.  An int, a Fraction and a
numpy float give exactly the result of the plain float they stand for.  The offset of
``emergence_angles`` forms the exact omega m + eps, so it is read as an omega
(``as_omega``): a Fraction offset stays exact.
"""

from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from skyburst import (
    DomainError,
    emergence_angles,
    genfun_compare,
    trace,
)

# (label, call with the argument x, whether x is a point, values it accepts)
ARGUMENTS = [
    ("trace omega_start", lambda x: trace(2, x, 0.5), False,
     (0, F(1, 4), np.float64(0.3), np.float32(0.3))),
    ("trace omega_end", lambda x: trace(2, 0.3, x), False,
     (1, F(1, 2), np.float64(0.5), np.float32(0.5))),
    ("genfun_compare z", lambda x: genfun_compare(F(1, 2), x, 0.1, 8), True,
     (0, F(1, 3), np.float64(0.5), np.float32(0.5), np.complex128(0.4 + 0.2j))),
    ("genfun_compare T", lambda x: genfun_compare(F(1, 2), 0.1, x, 8), True,
     (0, F(1, 5), np.float64(0.2), np.float32(0.2), np.complex128(0.1 + 0.2j))),
    ("emergence_angles eps", lambda x: emergence_angles(4, 1, x), False,
     (F(1, 64), np.float64(0.01), np.float32(0.01))),
]
NOT_NUMBERS = (True, np.bool_(True), "0.5", None, Decimal("0.5"), [1])
IDS = [a[0] for a in ARGUMENTS]


@pytest.mark.parametrize("label, call, point, accepted", ARGUMENTS, ids=IDS)
def test_bools_strings_and_non_numbers_refused(label, call, point, accepted):
    for value in NOT_NUMBERS + (() if point else (1 + 1j,)):
        with pytest.raises(DomainError):
            call(value)


@pytest.mark.parametrize("label, call, point, accepted", ARGUMENTS, ids=IDS)
def test_numbers_give_the_plain_result(label, call, point, accepted):
    for value in accepted:
        expected = call(complex(value) if point else float(value))
        got = call(value)
        assert type(got) is type(expected) and repr(got) == repr(expected), value
