"""Scalar layer: exact rationals, complex floats, and the combinatorial primitives.

Exact values are ``fractions.Fraction`` (arbitrary-precision integers, always
stored reduced with a positive denominator) or plain ``int``.  Inexact values
are ``float``/``complex``.  The parameter omega is a number (``as_omega``): a
Fraction, or a float as an input format, whose formulas run on its exact
binary rational (2.0 is the integer 2) with each result rounded once, in
``rounded_ratio``.  A degree is an ``int`` (``as_degree``): any nonnegative
``numbers.Integral`` but a bool; an index that may be negative passes the same
type test (``as_integer``), and ``as_member`` gates a degree and an omega.
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
    """The measure parameter as a number: a Fraction for an integer (any
    ``numbers.Integral`` but a bool), a Fraction or a "p/q" string, a float for
    a (finite) float.

    Every property of omega (integrality, zero, the pole sets) is read from
    the exact value ``as_fraction(omega)``, so a float omega that is an
    integer is treated as that integer.  The format decides only how results
    are returned: exact, or rounded once.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, float):
        value = float(value)  # a subclass such as numpy.float64 prints as a plain float
        if not math.isfinite(value):
            raise DomainError(f"omega must be finite, got {value}")
        return value
    return Fraction(as_integer(value, "omega"))


def as_integer(value, name: str) -> int:
    """A plain ``int`` for any ``numbers.Integral`` but a bool, else DomainError: a numpy
    integer would wrap, unrefused, in the products it meets, and True is not a degree."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise DomainError(f"cannot interpret {value!r} as {name}")


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


def rounded(omega: Fraction | float, x):
    """The scalar ``x``, computed on ``as_fraction(omega)``, rounded once for a
    float omega; complex values pass through."""
    if isinstance(omega, Fraction) or isinstance(x, complex):
        return x
    return rounded_ratio(omega, *x.as_integer_ratio())
