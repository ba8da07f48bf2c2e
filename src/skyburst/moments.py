"""Moments, the circle bilinear form, Toeplitz determinants, and the moment-system route.

The k-th moment of the weight z^(omega-1) is

    mu_k = (-1)^k sin(pi*omega) / (pi * (k + omega)).

All work strips the transcendental prefactor sigma = sin(pi*omega)/pi and
computes with the reduced moments nu_k = (-1)^k / (k + omega); every identity
downstream is then a rational identity checkable with zero tolerance.  A float
omega is computed on its exact binary rational and each result rounded once
(``scalarfield.rounded_ratio``).  Only ``moment`` (for a float omega) reinstates
sigma, which for determinants enters as sigma^n; it forms sigma on the exact
reduced argument omega - round(omega), so sigma is 0 at every integer omega.

The operational convention is Toeplitz: <z^j, z^k> = mu_{j-k}.  The moment
determinant and the monic polynomial defined by orthogonality both come from
one two-sided Levinson recursion on the non-Hermitian Toeplitz matrix
(nu_{j-i}) (Baxter 1961; Simon, OPUC vol. 1, sec. 1.5): O(n^2) exact
operations, reading the moments nu_(1-n)..nu_n and nothing else.  For
omega = p/q one integer L makes every moment it reads an integer multiple of
q/L, so the recursion runs on integer vectors over one denominator each and
yields integer pairs, divided out once, and the closed product is likewise
one integer numerator over one integer denominator.  One pass serves all
three readers (``_pulled``).  ``bilinear`` pairs real
polynomials, each coefficient read exactly, in one integer sum; it and the
sweep's ``orthogonality`` row each form their own moment list and product,
and share only ``_integer_moments`` and ``_moment_pole``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import ExistenceError, PoleError
from .scalarfield import as_finite, as_fraction, as_integer, as_member, as_omega, rounded_ratio
from .skypoly import Polynomial, _ratio_poly

__all__ = [
    "moment",
    "reduced_moment",
    "bilinear",
    "toeplitz_det_direct",
    "toeplitz_det_closed",
    "construct_determinantal",
    "r_nk",
]


def reduced_moment(k: int, omega):
    """nu_k = (-1)^k / (k + omega), in the format of omega; k may be negative."""
    k, om = as_integer(k, "an index"), as_omega(omega)
    w = as_fraction(om)
    if (den := k * w.denominator + w.numerator) == 0:
        raise PoleError(f"moment pole: k + omega = 0 at k={k}, omega={om}")
    return rounded_ratio(om, -w.denominator if k % 2 else w.denominator, den)


def moment(k: int, omega):
    """Reduced moment in exact mode; the full moment sigma*nu_k in float mode, sigma formed as
    (-1)^m sin(pi*(w - m))/pi, m = round(w): w - m is exact, so sigma is 0 at every integer w."""
    om = as_omega(omega)
    nu = reduced_moment(k, om)
    if isinstance(om, Fraction):
        return nu
    m = round(om)
    return math.sin(math.pi * (om - m)) * (-1) ** (m % 2) / math.pi * nu


def _integer_moments(w: Fraction, ks: range) -> tuple:
    """L and the integers m_k, k in ks, with nu_k = (q/L) m_k for w = p/q.

    nu_k = (-1)^k q/(kq + p), so L = lcm |kq + p| over ks makes every m_k an
    integer.  A pole index k = -p (integer omega) is left out of L and gets
    m_k = 0; the caller raises its PoleError where the moment is read.
    """
    p, q = w.numerator, w.denominator
    dens = [k * q + p for k in ks]
    scale = math.lcm(*[d for d in dens if d])
    return scale, [(-scale if k % 2 else scale) // d if d else 0 for k, d in zip(ks, dens)]


def _cleared(p: Polynomial) -> tuple:
    """The nonzero coefficients of a real polynomial, each read exactly (``as_finite``: a float is its
    binary rational), as (index, integer) pairs over their least common denominator."""
    cs = [as_fraction(as_finite(c, "a real coefficient")) for c in p.coeffs]
    den = math.lcm(*[c.denominator for c in cs])
    return [(i, c.numerator * (den // c.denominator)) for i, c in enumerate(cs) if c], den


def _moment_pole(w: Fraction, js: list, ks) -> None:
    """Raises the moment pole if a pair j in js, k in ks reads nu_(-p) at integer omega = p."""
    if w.denominator == 1 and {j + w.numerator for j in js}.intersection(ks):
        reduced_moment(-w.numerator, w)  # raises the PoleError for nu_(-p)


def bilinear(f: Polynomial, g: Polynomial, omega):
    """Reduced bilinear form sum_{j,k} f_j g_k nu_{j-k} of two real polynomials.

    Multiply by sigma for the full form; a global scalar does not affect any
    orthogonality statement.  Each coefficient is read exactly (``_cleared``)
    and the moments nu_(j-k) of every pair once, as integers over one scale
    (``_integer_moments``): one integer sum over one denominator, rounded once
    for a float omega.  Only pairs of nonzero coefficients read a moment, so
    only such a pair raises the moment pole.
    """
    om = as_omega(omega)
    w = as_fraction(om)
    (fs, df), (gs, dg) = _cleared(f), _cleared(g)
    js, ks = [j for j, _ in fs], [k for k, _ in gs]
    _moment_pole(w, js, ks)
    lo, hi = (min(js) - max(ks), max(js) - min(ks)) if fs and gs else (0, -1)
    scale, m = _integer_moments(w, range(lo, hi + 1))
    total = sum(gk * sum(fj * m[j - k - lo] for j, fj in fs) for k, gk in gs)
    return rounded_ratio(om, w.denominator * total, scale * df * dg)


def _levinson(n: int, w: Fraction):
    """Two-sided Levinson recursion on the Toeplitz moments nu_k of omega = w.

    Keeps the monic forward polynomial a_k (orthogonal to 1, z, ..., z^(k-1))
    and the backward polynomial b_k (constant term 1, orthogonal to
    z, ..., z^k), starting from a_0 = b_0 = 1.  Step k takes the pivot
    d_k = <a_k, z^k> = D_(k+1)/D_k, which also equals <b_k, 1>, and sets

        a_(k+1) = z*a_k - (<a_k, z^-1> / d_k) * b_k,
        b_(k+1) = b_k - (<b_k, z^(k+1)> / d_k) * z*a_k.

    Yields d_0, ..., d_(n-1), then a_n: O(n^2) exact operations in all.  The
    pivots read the moments nu_(1-n)..nu_(n-1), the entries of the n x n
    matrix, and a_n reads nu_n as well (b_n, which would read nu_-n, is never
    formed).

    The work is in integers.  ``_integer_moments`` writes every moment read,
    k = 1-n..n, as nu_k = (q/L) m_k with one integer L and integers m_k
    (the scaling ``bilinear`` uses too).  The multipliers in the two updates
    are ratios of inner products and do not see the scale, so the recursion
    runs on m; a_k and b_k are integer vectors, each over one positive
    denominator d_a or d_b, and every new vector is divided by the gcd of its
    entries and denominator, which keeps the integers from growing by L at
    every step.  Each pivot is yielded as the integer pair
    (q <a_k, z^k>_m, L d_a), its numerator and denominator, and a_n as the
    pair (row, d_a); the caller divides out once.
    The one possible pole (k = -p at integer omega) is left out of L and
    raised when first read: step k reads nu_-k..nu_k, and a_n reads nu_n.  A
    caller that stops after the first n pivots therefore sees the pole
    exactly when the n x n matrix holds it.  The leading minors before it are
    nonzero, so no zero pivot can come first.  A zero pivot raises
    ExistenceError.
    """
    p, q = w.numerator, w.denominator
    scale, m = _integer_moments(w, range(1 - n, n + 1))
    o = n - 1  # m[o] is m_0
    a, da = [1], 1
    b, db = [1], 1
    for k in range(n):
        if q == 1 and abs(p) <= k:
            reduced_moment(-p, w)  # raises the PoleError for nu_(-p)
        dot = sum(map(mul, a, m[o - k:o + 1]))
        yield q * dot, scale * da
        if dot == 0:
            raise ExistenceError(f"singular moment system: zero pivot at order {k + 1}, omega = {w}")
        za, bz = [0, *a], [*b, 0]
        a_next, da_next = _sub_scaled(za, da, sum(map(mul, a, m[o + 1:o + k + 2])), dot, bz, db)
        if k < n - 1:
            b, db = _sub_scaled(bz, db, sum(map(mul, b, m[o - k - 1:o])) * da, db * dot, za, da)
        a, da = a_next, da_next
    if q == 1 and -p == n > 0:
        reduced_moment(-p, w)  # a_n read nu_n (a_0 = 1 reads nothing)
    yield a, da


_latest = None  # (n, w, items pulled, the pass) of the latest member


def _pulled(n: int, w: Fraction, count: int) -> list:
    """The first ``count`` items of the Levinson pass of (n, exact w), the latest one kept.

    Pulled an item at a time, so every reader shares one pass (the two public
    routes of a member, and the identity sweep's D_0..D_n_max from the pass of
    (n_max, w)) and a pole is raised at the item that reads it; a refused pass
    is dropped, never resumed.  The kept generator serves one thread.
    """
    global _latest
    if _latest is None or _latest[:2] != (n, w):
        _latest = n, w, [], _levinson(n, w)
    items, levinson = _latest[2:]
    try:
        while len(items) < count:
            items.append(next(levinson))
    except BaseException:  # it ended the generator
        _latest = None
        raise
    return items[:count]


def _sub_scaled(x: list, dx: int, fn: int, fd: int, y: list, dy: int):
    """x/dx - (fn/fd)*y/dy as a reduced integer vector over one positive denominator."""
    g = math.gcd(fn, fd) * (-1 if fd < 0 else 1)  # reducing fn/fd first keeps den small
    fn, fd = fn // g, fd // g
    den = math.lcm(dx, fd * dy)
    sx, sy = den // dx, fn * (den // (fd * dy))
    vec = [u * sx - v * sy for u, v in zip(x, y)]
    g = math.gcd(den, *vec)
    return [v // g for v in vec], den // g


def toeplitz_det_direct(n: int, omega):
    """Reduced Toeplitz moment determinant D_n, the product of the n Levinson pivots.

    Reads only the moments nu_(1-n)..nu_(n-1) of the matrix: it stops after
    the n pivots.  The full determinant is sigma^n times this value.
    """
    n, om = as_member(n, omega)
    pivots = _pulled(n, as_fraction(om), n)
    return rounded_ratio(om, math.prod([num for num, _ in pivots]), math.prod([den for _, den in pivots]))


def _det_closed(n: int, w: Fraction) -> tuple:
    """The closed product of D_n at omega = w as (numerator, denominator), both integers.

    prod_{l<n} l!^2 * q^(n^2) over p^n * prod_{k<n} (k^2 q^2 - p^2)^(n-k) for
    w = p/q, unreduced; a vanishing factor raises PoleError.
    """
    p, q = w.numerator, w.denominator
    if n > 0 and p == 0:
        raise PoleError("closed determinant pole at omega = 0")
    den = p ** n
    for k in range(1, n):
        factor = k * k * q * q - p * p
        if factor == 0:
            raise PoleError(f"closed determinant pole at omega = +-{k}")
        den *= factor ** (n - k)
    return math.prod(math.factorial(ell) for ell in range(n)) ** 2 * q ** (n * n), den


def toeplitz_det_closed(n: int, omega):
    """Closed product form of the reduced determinant.

    (1/omega)^n * prod_{l<n} l!^2 / prod_{k=1}^{n-1} (k^2 - omega^2)^(n-k);
    poles at omega = 0 and omega in {+-1, ..., +-(n-1)}.  The integer core
    ``_det_closed`` forms both sides for omega = p/q, so the factorials cannot
    overflow, and they are divided out once: one reduced Fraction, or for a
    float omega one int / int with no gcd (``rounded_ratio``).
    """
    n, om = as_member(n, omega)
    return rounded_ratio(om, *_det_closed(n, as_fraction(om)))


def construct_determinantal(n: int, omega) -> Polynomial:
    """Monic polynomial solving the orthogonality system sum_j c_j nu_{j-i} = 0, i < n.

    Independent of the coefficient formula: the Levinson recursion reads only
    the moments nu_(1-n)..nu_n, in O(n^2) operations.  A nonnegative integer
    omega is refused in either format, 2 and 2.0 alike (the full moment
    determinant vanishes there and the family member is not defined by
    orthogonality).
    """
    n, om = as_member(n, omega)
    w = as_fraction(om)
    if n > 0 and w.denominator == 1 and w >= 0:
        raise ExistenceError(
            f"no orthogonal polynomial at integer omega = {om}; use the symmetry route"
        )
    row, den = _pulled(n, w, n + 1)[n]
    return _ratio_poly(om, row, den)


def r_nk(n: int, k: int, omega):
    """Terminating 3F2-type sum controlling <S_n, z^k>.

    r_{n,k} = sum_{l=0}^{n} poch(-n,l) poch(-omega,l) poch(k-n-omega,l)
              / (l! poch(-n-omega,l) poch(k-n-omega+1,l));
    zero exactly for k < n, nonzero at k = n.  Related to the bilinear form by
    bilinear(S_n, z^k) = (-1)^(n-k) r_{n,k} / (n + omega - k).

    For omega = p/q the powers of q cancel in the ratio of consecutive terms,

        t_(l+1) / t_l = -(n-l) (lq - p) ((k-n+l)q - p)
                        / ((l+1) ((l-n)q - p) ((k-n+1+l)q - p)),

    so the sum nests (Horner) into one integer fraction, reduced once.  A
    vanishing denominator factor raises PoleError at the first term it enters.
    """
    (n, om), k = as_member(n, omega), as_integer(k, "an index")
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    dens = [(ell + 1) * ((ell - n) * q - p) * ((k - n + 1 + ell) * q - p) for ell in range(n)]
    for ell, d in enumerate(dens):
        if d == 0:
            raise PoleError(f"r_nk pole at term {ell + 1} for (n={n}, k={k}, omega={om})")
    num, den = 1, 1
    for ell in range(n - 1, -1, -1):
        ratio_num = -(n - ell) * (ell * q - p) * ((k - n + ell) * q - p)
        num, den = den * dens[ell] + ratio_num * num, den * dens[ell]
    return rounded_ratio(om, num, den)
