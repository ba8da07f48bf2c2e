"""Scalar layer: exact rationals, complex floats, and the combinatorial primitives.

Exact values are ``fractions.Fraction`` (arbitrary-precision integers, always
stored reduced with a positive denominator) or plain ``int``.  Inexact values
are ``float``/``complex``.  A float omega is an input format: ``Omega`` holds
only the value, formulas run on its exact binary rational (2.0 is the integer
2), and each result is rounded once, in :meth:`Omega.rounded_ratio`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Scalar = int | Fraction | float | complex

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def conjugate(x: Scalar) -> Scalar:
    if isinstance(x, complex):
        return x.conjugate()
    return x


def pochhammer(x: Scalar, k: int) -> Scalar:
    """Rising factorial x(x+1)...(x+k-1) as an explicit left-to-right product.

    The termwise product keeps zeros at nonpositive-integer bases exact, which
    every downstream pole test relies on.  Never compute a rising factorial as
    a gamma ratio, which blurs those zeros.  An exact ratio of consecutive
    terms, one factor x+i at a time (as in ``construct_series``), keeps them
    and is allowed.  An exact base p/q is one integer product over q^k,
    prod_{i<k} (p + iq) / q^k: the same Fraction, zeros included.
    """
    if k < 0:
        raise DomainError(f"pochhammer order must be nonnegative, got {k}")
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


@dataclass(frozen=True)
class Omega:
    """The measure parameter, held as its value alone.

    Every property of omega (integrality, zero, the pole sets) is read from
    the exact value ``as_fraction()``, so a float omega that is an integer is
    treated as that integer.  The format of ``value`` (Fraction or float)
    decides only how results are returned: exact, or rounded once.
    """

    value: Scalar

    @classmethod
    def exact(cls, value: int | Fraction | str) -> "Omega":
        if isinstance(value, str):
            value = parse_rational(value)
        return cls(value=Fraction(value))

    @classmethod
    def inexact(cls, value: float) -> "Omega":
        value = float(value)
        if not math.isfinite(value):
            raise DomainError(f"omega must be finite, got {value}")
        return cls(value=value)

    @property
    def exact_mode(self) -> bool:
        return isinstance(self.value, Fraction)

    def as_fraction(self) -> Fraction:
        """The exact value; a float omega is an exact binary rational."""
        return self.value if self.exact_mode else Fraction(self.value)

    def as_float(self) -> float:
        return float(self.value)

    def rounded(self, x):
        """The scalar ``x``, computed on ``as_fraction()``, rounded once for a
        float omega; complex values pass through."""
        if self.exact_mode or isinstance(x, complex):
            return x
        return self.rounded_ratio(*x.as_integer_ratio())

    def rounded_ratio(self, num: int, den: int):
        """num/den as a Fraction, or for a float omega by int / int division,
        which rounds correctly with no gcd; DomainError outside the double range."""
        if self.exact_mode:
            return Fraction(num, den)
        if den < 0:  # 0 / -d would be -0.0, where float(Fraction(0)) is 0.0
            num, den = -num, -den
        try:
            return num / den
        except OverflowError:
            raise DomainError(f"result at omega={self.value} lies outside the double range") from None

    def __str__(self) -> str:
        return str(self.value)


def as_omega(value) -> Omega:
    """Coerce a raw scalar (or Omega) to Omega with the standard detection rules."""
    if isinstance(value, Omega):
        return value
    if isinstance(value, (int, Fraction)):
        return Omega.exact(value)
    if isinstance(value, float):
        return Omega.inexact(value)
    if isinstance(value, str):
        return Omega.exact(value)
    raise DomainError(f"cannot interpret {value!r} as omega")
