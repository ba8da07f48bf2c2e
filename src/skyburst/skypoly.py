"""The polynomial family S_n^omega: closed-form construction and special values.

S_n^omega is the monic degree-n polynomial orthogonal to 1, z, ..., z^(n-1)
under the circle bilinear form with weight z^(omega-1).  Its coefficient of
z^(n-l) is

    binomial(n, l) * poch(-omega, l) / poch(-n-omega, l),

a terminating hypergeometric sum.  Everything here is exact: a float omega is
computed on its exact binary rational and the result rounded once
(``Omega.rounded``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, PoleError
from .scalarfield import Omega, as_omega, binomial, conjugate, pochhammer

__all__ = [
    "Polynomial",
    "construct",
    "construct_series",
    "construct_via_symmetry",
    "evaluate",
    "value_at_minus_one",
    "derivative_at_minus_one",
    "value_at_zero",
    "star",
    "reflect_negative_omega",
    "taylor_about_minus_one",
]


def _has_fraction(coeffs) -> bool:
    return any(isinstance(c, Fraction) for c in coeffs)


def _has_inexact(coeffs) -> bool:
    return any(isinstance(c, (float, complex)) for c in coeffs)


class Polynomial:
    """Dense polynomial; ``coeffs[j]`` is the coefficient of z^j.

    The trailing coefficient is nonzero after construction; the zero
    polynomial is the empty tuple.  Rational (Fraction/int) and floating
    (float/complex) coefficients are never mixed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        if _has_fraction(coeffs) and _has_inexact(coeffs):
            raise TypeError("mixed rational and floating coefficients; convert explicitly")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def scalar_kind(self) -> str:
        return "complex_float" if _has_inexact(self.coeffs) else "rational"

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if (_has_fraction(self.coeffs) and _has_inexact(other.coeffs)) or (
            _has_inexact(self.coeffs) and _has_fraction(other.coeffs)
        ):
            raise TypeError("mixed rational and floating polynomials; convert explicitly")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return Polynomial([other * c for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        return (-1) * self

    def __call__(self, z):
        """Horner evaluation; exact when both the coefficients and z are rational."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([j * c for j, c in enumerate(self.coeffs)][1:])

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by z^k."""
        if k < 0:
            raise DomainError("shift must be nonnegative")
        if self.is_zero:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def reversed(self) -> "Polynomial":
        """Coefficient reversal z^deg * p(1/z), without conjugation."""
        return Polynomial(tuple(reversed(self.coeffs)))

    def to_inexact(self) -> "Polynomial":
        """Round each coefficient once to double precision; DomainError beyond its range."""
        try:
            return Polynomial([c if isinstance(c, complex) else float(c) for c in self.coeffs])
        except OverflowError:
            raise DomainError("a coefficient lies outside the double range") from None

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def evaluate(p: Polynomial, z):
    return p(z)


def construct_series(n: int, omega) -> Polynomial:
    """Direct hypergeometric-sum route, valid whenever no denominator vanishes.

    With omega = p/q, consecutive coefficients differ by one exact ratio,

        c_(n-l) = c_(n-l+1) * (n-l+1)(q(l-1) - p) / (l (q(l-1-n) - p)),

    so the coefficients cost O(n) small-integer Fraction products.  The
    numerator factor vanishes at omega in {0, ..., n-1}, after which every
    coefficient stays exactly 0.  The denominator factor is checked at every
    l, zeros or not: it vanishes first at l = n+omega+1 for omega a negative
    integer in [-n, -1], which raises PoleError naming that term.  A float
    omega runs on its exact binary rational and each coefficient is rounded
    once.
    """
    om = as_omega(omega)
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    w = om.as_fraction()
    p, q = w.numerator, w.denominator
    c = Fraction(1)
    coeffs = [c] * (n + 1)
    for ell in range(1, n + 1):
        den = ell * (q * (ell - 1 - n) - p)
        if den == 0:
            raise PoleError(
                f"construction pole at degree {n}, omega={om.value}: "
                f"denominator rising factorial vanishes at term {ell}"
            )
        c = c * Fraction((n - ell + 1) * (q * (ell - 1) - p), den)
        coeffs[n - ell] = c
    return om.rounded(Polynomial(coeffs))


def construct(n: int, omega) -> Polynomial:
    """The monic degree-n polynomial of the family at parameter omega.

    Served by the direct sum, which is exact at every parameter without a
    pole, integer omega = m in {0, ..., n-1} included: there it equals the
    degree/parameter symmetry z^(n-m) S_m^n (``construct_via_symmetry``, the
    independent route the ``degree_symmetry`` sweep row checks it against).
    """
    return construct_series(n, omega)


def construct_via_symmetry(n: int, m: int) -> Polynomial:
    """z^(n-m) * S_m^n, the value of the family at integer parameter m < n."""
    if not (isinstance(n, int) and isinstance(m, int)):
        raise DomainError("symmetry route needs integer degree and parameter")
    if not 0 <= m < n:
        raise DomainError(f"symmetry route requires 0 <= m < n, got (n={n}, m={m})")
    return construct_series(m, Omega.exact(n)).shifted(n - m)


def value_at_minus_one(n: int, omega):
    """(-1)^n n! / poch(1+omega, n) = construct(n, omega)(-1), the order-0 derivative at -1."""
    return derivative_at_minus_one(0, n, omega)


def derivative_at_minus_one(m: int, n: int, omega):
    """m-th derivative of construct(n, omega) at z = -1, in closed form."""
    if m < 0 or m > n:
        raise DomainError(f"derivative order must satisfy 0 <= m <= n, got (m={m}, n={n})")
    om = as_omega(omega)
    w = om.as_fraction()
    den = pochhammer(1 + w, n)
    if den == 0:
        raise PoleError(f"derivative at -1 undefined: poch(1+{om.value}, {n}) = 0")
    num = pochhammer(1 + w, m)
    return om.rounded((-1) ** (n - m) * math.factorial(n) * num / den * binomial(n, m))


def value_at_zero(n: int, omega):
    """Constant term poch(-omega, n) / poch(-n-omega, n).

    Exactly zero iff omega is an integer in {0, ..., n-1}.
    """
    om = as_omega(omega)
    w = om.as_fraction()
    den = pochhammer(-n - w, n)
    if den == 0:
        raise PoleError(f"value at 0 undefined: poch({-n}-{om.value}, {n}) = 0")
    return om.rounded(pochhammer(-w, n) / den)


def star(p: Polynomial) -> Polynomial:
    """Reversed-and-conjugated polynomial z^deg * conj(p(1/conj(z)))."""
    return Polynomial(tuple(conjugate(c) for c in reversed(p.coeffs)))


def reflect_negative_omega(n: int, omega) -> Polynomial:
    """S_n^(-omega) from S_n^(omega-1) by coefficient reversal and scaling.

    Requires omega > 0 and omega not in {1, ..., n}; at those integers the
    scale factor blows up (the family itself degenerates there).
    """
    om = as_omega(omega)
    w = om.as_fraction()
    if not w > 0:
        raise DomainError(f"reflection requires omega > 0, got {om.value}")
    den = pochhammer(1 - w, n)
    if den == 0:
        raise PoleError(f"reflection scale pole: poch(1-{om.value}, {n}) = 0")
    scale = (-1) ** n * pochhammer(w, n) / den
    return om.rounded(scale * construct(n, w - 1).reversed())


def taylor_about_minus_one(n: int, omega) -> tuple:
    """Coefficients c_m with S_n^omega(z) = sum_m c_m (1+z)^m, c_m exact.

    c_m = (m-th derivative at -1) / m!; monicity forces c_n = 1, and the
    closed form gives the ratio c_(m-1) = -c_m m^2 / ((n-m+1)(omega+m)), so
    one walk down from c_n is O(n).  The only pole, poch(1+omega, n) = 0, is
    omega in {-n, ..., -1}.
    """
    om = as_omega(omega)
    w = om.as_fraction()
    if w.denominator == 1 and -n <= w <= -1:
        raise PoleError(f"derivative at -1 undefined: poch(1+{w}, {n}) = 0")
    p, q = w.numerator, w.denominator
    c = Fraction(1)
    coeffs = [c] * (n + 1)
    for m in range(n, 0, -1):
        c = c * Fraction(-m * m * q, (n - m + 1) * (p + m * q))
        coeffs[m - 1] = c
    return om.rounded(tuple(coeffs))
