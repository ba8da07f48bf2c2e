"""Scalar layer: exact rationals, complex floats, and the combinatorial primitives.

Exact values are ``fractions.Fraction`` (arbitrary-precision integers, always
stored reduced with a positive denominator) or plain ``int``.  The parameter
omega is a finite number (``as_omega``, ``as_finite``): a Fraction, or a float
input whose formulas run on its exact binary rational (2.0 is the integer 2)
with each result rounded once, in ``rounded_ratio``.  A degree is an ``int``
(``as_degree``): any nonnegative ``numbers.Integral`` but a bool; an index
that may be negative passes the same type test (``as_integer``), and
``as_member`` gates a degree and an omega.  Any other real is a ``float``
(``as_real``, +-inf past the double range) and a point a ``complex`` (``as_point``).
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction

from .errors import DomainError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def pochhammer(x: int | Fraction | float | complex, k: int):
    """Rising factorial x(x+1)...(x+k-1) as an explicit left-to-right product.

    The termwise product keeps zeros at nonpositive-integer bases exact, which
    every downstream pole test relies on.  Never compute a rising factorial as
    a gamma ratio, which blurs those zeros.  An exact ratio of consecutive
    terms, one factor x+i at a time (as in ``construct_series``), keeps them
    and is allowed.  An exact base p/q is one integer product over q^k,
    prod_{i<k} (p + iq) / q^k: the same Fraction, zeros included.
    """
    k = as_degree(k)
    if isinstance(x, (int, Fraction)):
        p, q = x.numerator, x.denominator
        return Fraction(math.prod([p + i * q for i in range(k)]), q ** k)
    acc = Fraction(1)
    for i in range(k):
        acc = acc * (x + i)
        if acc == 0:
            # all later factors are irrelevant; keep the zero exact
            return acc
    return acc


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (optional sign on p, q > 0) or the integer shorthand "p"."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise DomainError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise DomainError(f"zero denominator in {text!r}") from exc


def as_omega(value) -> Fraction | float:
    """The measure parameter as a number: an ``as_finite``, or a "p/q" string as a Fraction.

    Every property of omega (integrality, zero, the pole sets) is read from
    the exact value ``as_fraction(omega)``, so a float omega that is an
    integer is treated as that integer.  The format decides only how results
    are returned: exact, or rounded once.
    """
    return parse_rational(value) if isinstance(value, str) else as_finite(value, "omega")


def as_finite(value, name: str) -> Fraction | float:
    """A Fraction for an integer (any ``numbers.Integral`` but a bool) or a Fraction, a
    float for any other finite real (``as_real``); any other rational is refused."""
    if isinstance(value, numbers.Rational):  # a Fraction, or an integer through its gate
        return Fraction(value if isinstance(value, Fraction) else as_integer(value, name))
    if not math.isfinite(value := as_real(value, name)):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def as_integer(value, name: str) -> int:
    """A plain ``int`` for any ``numbers.Integral`` but a bool, else DomainError: a numpy
    integer would wrap, unrefused, in the products it meets, and True is not a degree."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise DomainError(f"cannot interpret {value!r} as {name}")


def as_real(value, name: str) -> float:
    """A plain ``float`` for any ``numbers.Real`` but a bool; +-inf beyond the double range,
    which the caller's own finiteness test refuses."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"cannot interpret {value!r} as {name}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_point(value, name: str) -> complex:
    """A plain ``complex`` for any ``numbers.Complex`` but a bool, each part an ``as_real``."""
    if type(value) is complex:  # at complex() cost: trace seeds every solve with n points
        return value
    if not isinstance(value, numbers.Complex) or isinstance(value, bool):
        raise DomainError(f"cannot interpret {value!r} as {name}")
    return complex(as_real(value.real, name), as_real(value.imag, name))


def as_degree(value) -> int:
    """A degree or an order: a nonnegative ``as_integer``."""
    if (n := as_integer(value, "a degree")) < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    return n


def as_member(n, omega) -> tuple:
    """(degree, omega) of a family member S_n^omega, each through its gate, the degree first."""
    return as_degree(n), as_omega(omega)


def as_fraction(omega: Fraction | float) -> Fraction:
    """The exact value of an ``as_omega`` result; a float is an exact binary rational."""
    return omega if isinstance(omega, Fraction) else Fraction(omega)


def rounded_ratio(omega: Fraction | float, num: int, den: int):
    """num/den as a Fraction, or for a float omega by int / int division,
    which rounds correctly with no gcd; DomainError outside the double range."""
    if isinstance(omega, Fraction):
        return Fraction(num, den)
    if den < 0:  # 0 / -d would be -0.0, where float(Fraction(0)) is 0.0
        num, den = -num, -den
    try:
        return num / den
    except OverflowError:
        raise DomainError(f"result at omega={omega} lies outside the double range") from None

