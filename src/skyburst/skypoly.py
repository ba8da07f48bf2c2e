"""The polynomial family S_n^omega: closed-form construction and special values.

S_n^omega is the monic degree-n polynomial orthogonal to 1, z, ..., z^(n-1)
under the circle bilinear form with weight z^(omega-1).  Its coefficient of
z^(n-l) is

    binomial(n, l) * poch(-omega, l) / poch(-n-omega, l),

a terminating hypergeometric sum.  Everything here is exact: a float omega is
computed on its exact binary rational and the result rounded once
(``scalarfield.rounded_ratio``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, PoleError
from .scalarfield import as_degree, as_fraction, as_integer, as_member, rounded_ratio

__all__ = [
    "Polynomial",
    "construct",
    "construct_series",
    "construct_via_symmetry",
    "derivative_at_minus_one",
    "value_at_zero",
    "star",
    "reflect_negative_omega",
    "taylor_about_minus_one",
]


def _mixed(coeffs) -> bool:
    """True when Fraction and float/complex coefficients meet; one scan of the types."""
    types = set(map(type, coeffs))
    return (len(types) > 1 and any(issubclass(t, Fraction) for t in types)
            and any(issubclass(t, (float, complex)) for t in types))


class Polynomial:
    """Dense polynomial; ``coeffs[j]`` is the coefficient of z^j.

    The trailing coefficient is nonzero after construction; the zero
    polynomial is the empty tuple.  Rational (Fraction/int) and floating
    (float/complex) coefficients are never mixed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        if _mixed(coeffs):
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
        return "complex_float" if any(isinstance(c, (float, complex)) for c in self.coeffs) else "rational"

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if _mixed(self.coeffs + other.coeffs):
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
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        return Polynomial([x - y for x, y in zip(a, b)] + list(a[len(b):]) + [-y for y in b[len(a):]])

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
        k = as_degree(k)
        return self if self.is_zero else Polynomial((0,) * k + self.coeffs)

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


def _prefix_products(n: int, w) -> tuple:
    """A_0..A_n and B_0..B_n for w = p/q, an int or a Fraction.

    A_l = prod_{i<l} (iq - p), B_k = prod_{j=1..k} -(jq + p).
    """
    p, q = w.numerator, w.denominator
    a, b = [1], [1]
    for i in range(n):
        a.append(a[i] * (i * q - p))
        b.append(b[i] * -((i + 1) * q + p))
    return a, b


def _construction_pole(n: int, om) -> PoleError:
    # only an integer omega = p in [-n, -1] has a pole; its factor is term n+1+p of the sum
    return PoleError(
        f"construction pole at degree {n}, omega={om}: "
        f"denominator rising factorial vanishes at term {n + 1 + as_fraction(om).numerator}"
    )


def construct_series(n: int, omega) -> Polynomial:
    """Direct hypergeometric-sum route, valid whenever no denominator vanishes.

    For omega = p/q the poch(-omega, l) and poch(-n-omega, l) of the sum are
    products of integers over powers of q, and the powers cancel:

        c_(n-l) = C(n, l) A_l B_(n-l) / B_n,
        A_l = prod_{i<l} (iq - p),  B_k = prod_{j=1..k} -(jq + p),

    O(n) to form.  Each coefficient is taken as C(n, l) A_l over the suffix
    product B_n / B_(n-l), the smaller of the two equal fractions, with A_l
    and the suffix product grown in one pass.  A_l vanishes for l > omega at omega in {0, ..., n-1},
    which makes the low coefficients exactly 0.  B_n vanishes only at omega a
    negative integer in [-n, -1], which raises PoleError naming the vanishing
    term n+omega+1 of the denominator rising factorial.  A float omega runs on
    its exact binary rational and each coefficient is rounded once, by
    int / int (``rounded_ratio``).
    """
    n, om = as_member(n, omega)
    return Polynomial([rounded_ratio(om, num, den) for num, den in _member_ratios(n, om)])


def _member_ratios(n: int, om) -> list:
    """The coefficients of S_n^om, z^0 first, as (numerator, positive denominator) integer pairs:
    C(n, l) A_l over B_n / B_(n-l) at z^(n-l).  PoleError where B_n = 0."""
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    if q == 1 and -n <= p <= -1:  # B_n = 0
        raise _construction_pole(n, om)
    ratios = [None] * (n + 1)
    binom, head, tail = 1, 1, 1  # C(n, k), A_(n-k) and B_n / B_k
    for k in range(n, -1, -1):
        ratios[k] = (binom * head, tail) if tail > 0 else (-binom * head, -tail)
        head *= (n - k) * q - p
        binom = binom * k // (n - k + 1)
        tail *= -(k * q + p)
    return ratios


def _float_row(n: int, om) -> list:
    """``construct(n, om).to_inexact()``'s coefficients as complex, bit for bit, with its
    PoleError and DomainError: each is one correctly rounded int / int, as in
    ``rounded_ratio`` and ``float(Fraction)``, with no Fraction or Polynomial between."""
    try:
        return [complex(num / den) for num, den in _member_ratios(n, om)]
    except OverflowError:
        where = f"result at omega={om}" if isinstance(om, float) else "a coefficient"
        raise DomainError(f"{where} lies outside the double range") from None


def _row(ell: int, a: list, b: list) -> list:
    """B_l S_l^omega in integers: C(l, k) A_(l-k) B_k at z^k, from the prefix products."""
    return [math.comb(ell, k) * a[ell - k] * b[k] for k in range(ell + 1)]


class _Rows:
    """Integer member rows B_l S_l^w, l <= n_max, for any rational parameter w.

    One pair of prefix products up to n_max serves every degree of a
    parameter, and each row is formed once, when first read.  The tables are
    keyed by ``(numerator, denominator)`` and live as long as the instance:
    an identity sweep shares one across its call, a public step builds its
    own.  Rows are shared, so a reader must not mutate them.  The tables
    read off the rows live with them in ``recurrences._Sweep``.
    """

    __slots__ = ("n_max", "_params")

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._params = {}  # (p, q) -> (A, B, rows by degree)

    def _tables(self, w) -> tuple:
        key = (w.numerator, w.denominator)
        tables = self._params.get(key)
        if tables is None:
            tables = self._params[key] = (*_prefix_products(self.n_max, w), [None] * (self.n_max + 1))
        return tables

    def member(self, n: int, w) -> tuple:
        """S_n^w as an integer row over one integer, (B_n S_n^w, B_n).

        Raises the PoleError of ``construct`` where B_n = 0.
        """
        a, b, rows = self._tables(w)
        if b[n] == 0:
            raise _construction_pole(n, w)
        if rows[n] is None:
            rows[n] = _row(n, a, b)
        return rows[n], b[n]


def _ratio_poly(om, row: list, den: int) -> Polynomial:
    """The polynomial row / den, each coefficient rounded once for a float omega."""
    return Polynomial([rounded_ratio(om, c, den) for c in row])


def construct(n: int, omega) -> Polynomial:
    """The monic degree-n polynomial of the family at parameter omega.

    Served by the direct sum, which is exact at every parameter without a
    pole, integer omega = m in {0, ..., n-1} included: there it equals the
    degree/parameter symmetry z^(n-m) S_m^n (``construct_via_symmetry``).  The
    ``degree_symmetry`` sweep row checks that on the integer rows, comparing
    ``_Rows.member(n, m)`` with ``(m, n)`` shifted; it reads neither function, and
    ``test_construct_series_is_the_member_row`` ties this route to those rows.
    """
    return construct_series(n, omega)


def construct_via_symmetry(n: int, m: int) -> Polynomial:
    """z^(n-m) * S_m^n, the value of the family at integer parameter m < n."""
    n, m = as_degree(n), as_degree(m)
    if not m < n:
        raise DomainError(f"symmetry route requires 0 <= m < n, got (n={n}, m={m})")
    return construct_series(m, n).shifted(n - m)


def _derivatives_at_minus_one(n: int, om) -> tuple:
    """All n+1 derivatives of S_n^omega at z = -1 as one integer row over one integer.

    The m-th is (-1)^(n-m) n! C(n, m) (1+omega)_m / (1+omega)_n, which for
    omega = p/q is (-1)^(n-m) n! C(n, m) q^(n-m) P_m / P_n with the prefix
    products P_k = prod_{i<k} (p + q(1+i)); the row holds the numerators, P_n
    is the denominator.
    """
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    if q == 1 and -n <= p <= -1:
        raise PoleError(f"derivative at -1 undefined: poch(1+{w}, {n}) = 0")
    prefix = [1]
    for i in range(n):
        prefix.append(prefix[i] * (p + q * (1 + i)))
    row, top = [0] * (n + 1), math.factorial(n)  # top = (-1)^(n-m) n! C(n, m) q^(n-m)
    for m in range(n, -1, -1):
        row[m] = top * prefix[m]
        top = -top * m * q // (n - m + 1)
    return row, prefix[n]


def derivative_at_minus_one(m: int, n: int, omega):
    """m-th derivative of construct(n, omega) at z = -1, in closed form.

    (-1)^(n-m) n! C(n, m) (1+omega)_m / (1+omega)_n, one entry of the integer
    row of ``_derivatives_at_minus_one``.
    """
    m, (n, om) = as_integer(m, "a derivative order"), as_member(n, omega)
    if m < 0 or m > n:
        raise DomainError(f"derivative order must satisfy 0 <= m <= n, got (m={m}, n={n})")
    row, den = _derivatives_at_minus_one(n, om)
    return rounded_ratio(om, row[m], den)


def _value_at_zero(n: int, om) -> tuple:
    """S_n^omega(0) as (numerator, denominator), both integers.

    poch(-omega, n) / poch(-n-omega, n) is, for omega = p/q, the ratio
    prod_{i<n} (iq - p) / prod_{i<n} ((i-n)q - p), the powers of q cancelling.
    Its own two products: it reads neither the member rows nor their prefix
    products, so the ``boundary_values`` row compares two routes.
    """
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    den = math.prod([(i - n) * q - p for i in range(n)])
    if den == 0:
        raise PoleError(f"value at 0 undefined: poch({-n}-{om}, {n}) = 0")
    return math.prod([i * q - p for i in range(n)]), den


def value_at_zero(n: int, omega):
    """Constant term poch(-omega, n) / poch(-n-omega, n), the integer core divided out once.

    Exactly zero iff omega is an integer in {0, ..., n-1}.
    """
    n, om = as_member(n, omega)
    return rounded_ratio(om, *_value_at_zero(n, om))


def star(p: Polynomial) -> Polynomial:
    """Reversed-and-conjugated polynomial z^deg * conj(p(1/conj(z)))."""
    return Polynomial(tuple(c.conjugate() for c in reversed(p.coeffs)))


def _reflection(n: int, om, rows: _Rows) -> tuple:
    """``reflect_negative_omega`` as an integer row over one integer.

    For omega = p/q the scale (-1)^n (omega)_n / (1-omega)_n is
    (-1)^n prod_{i<n} (p + iq) / prod_{i<n} ((i+1)q - p), and S_n^(omega-1)
    is the member row over B_n.
    """
    w = as_fraction(om)
    if not w > 0:
        raise DomainError(f"reflection requires omega > 0, got {om}")
    p, q = w.numerator, w.denominator
    den = math.prod([(i + 1) * q - p for i in range(n)])
    if den == 0:
        raise PoleError(f"reflection scale pole: poch(1-{om}, {n}) = 0")
    scale = (-1) ** n * math.prod([p + i * q for i in range(n)])
    row, b = rows.member(n, w - 1)
    return [scale * c for c in reversed(row)], den * b


def reflect_negative_omega(n: int, omega) -> Polynomial:
    """S_n^(-omega) from S_n^(omega-1) by coefficient reversal and scaling.

    Requires omega > 0 and omega not in {1, ..., n}; at those integers the
    scale factor blows up (the family itself degenerates there).
    """
    n, om = as_member(n, omega)
    return _ratio_poly(om, *_reflection(n, om, _Rows(n)))


def taylor_about_minus_one(n: int, omega) -> tuple:
    """Coefficients c_m with S_n^omega(z) = sum_m c_m (1+z)^m, c_m exact.

    c_m is the m-th derivative at -1 over m!: entry m of the integer row of
    ``_derivatives_at_minus_one`` over m! times its denominator, divided out
    once.  Monicity gives c_n = 1.  The only pole, poch(1+omega, n) = 0 at
    omega in {-n, ..., -1}, is raised by that row.
    """
    n, om = as_member(n, omega)
    row, den = _derivatives_at_minus_one(n, om)
    return tuple(rounded_ratio(om, c, math.factorial(m) * den) for m, c in enumerate(row))
