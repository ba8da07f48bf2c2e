"""Scalar layer: exact rationals, complex floats, and the combinatorial primitives.

Exact values are ``fractions.Fraction`` (arbitrary-precision integers, always
stored reduced with a positive denominator) or plain ``int``.  Inexact values
are ``float``/``complex``.  A float omega is an input format: formulas run on
its exact binary rational and round the result once, in :meth:`Omega.rounded`.
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
    and is allowed.
    """
    if k < 0:
        raise DomainError(f"pochhammer order must be nonnegative, got {k}")
    acc = Fraction(1)
    for i in range(k):
        acc = acc * (x + i)
        if acc == 0:
            # all later factors are irrelevant; keep the zero exact
            return acc
    return acc


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; k must satisfy 0 <= k <= n."""
    if k < 0 or n < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        raise DomainError(f"binomial requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def to_float(s: Scalar) -> complex:
    """Nearest-double conversion of any scalar, as a complex value.

    Raises OverflowError if the value exceeds the double range.
    """
    if isinstance(s, complex):
        return s
    return complex(float(s), 0.0)


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
    """The measure parameter.

    ``is_integer`` is detected automatically only for exact values; a float
    Omega is never treated as an integer unless the caller asserts it.
    """

    value: Scalar
    is_integer: bool
    is_zero: bool

    @classmethod
    def exact(cls, value: int | Fraction | str) -> "Omega":
        if isinstance(value, str):
            value = parse_rational(value)
        frac = Fraction(value)
        return cls(value=frac, is_integer=frac.denominator == 1, is_zero=frac == 0)

    @classmethod
    def inexact(cls, value: float, *, integer: bool = False) -> "Omega":
        value = float(value)
        if not math.isfinite(value):
            raise DomainError(f"omega must be finite, got {value}")
        if integer and value != int(value):
            raise DomainError(f"cannot assert integrality of {value}")
        return cls(value=value, is_integer=integer, is_zero=value == 0.0)

    @property
    def exact_mode(self) -> bool:
        return isinstance(self.value, Fraction)

    def as_fraction(self) -> Fraction:
        """The exact value; a float omega is an exact binary rational."""
        return self.value if self.exact_mode else Fraction(self.value)

    def as_float(self) -> float:
        return float(self.value)

    def rounded(self, x):
        """``x`` computed on ``as_fraction()``, rounded once for a float omega.

        Rounds a scalar, a tuple or a Polynomial; complex values pass through.
        """
        if self.exact_mode or isinstance(x, complex):
            return x
        if isinstance(x, tuple):
            return tuple(map(self.rounded, x))
        if isinstance(x, (int, float, Fraction)):
            return self.rounded_ratio(*x.as_integer_ratio())
        return x.to_inexact()  # a Polynomial

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
