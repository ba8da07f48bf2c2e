"""Moments, the circle bilinear form, Toeplitz determinants, and the linear-system route.

The k-th moment of the weight z^(omega-1) is

    mu_k = (-1)^k sin(pi*omega) / (pi * (k + omega)).

All exact-mode work strips the transcendental prefactor sigma = sin(pi*omega)/pi
and computes with the reduced moments nu_k = (-1)^k / (k + omega); every
identity downstream is then a rational identity checkable with zero tolerance.
Float mode reinstates sigma (and sigma^n for determinants reports it separately).

The operational convention is Toeplitz: <z^j, z^k> = mu_{j-k}.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ExistenceError, PoleError
from .scalarfield import as_omega, conjugate, is_exact, pochhammer
from .skypoly import Polynomial, construct

__all__ = [
    "MomentSequence",
    "ToeplitzMomentMatrix",
    "moment",
    "reduced_moment",
    "bilinear",
    "toeplitz_det_direct",
    "toeplitz_det_closed",
    "construct_determinantal",
    "r_nk",
]


def reduced_moment(k: int, omega):
    """nu_k = (-1)^k / (k + omega), in the arithmetic of omega; k may be negative."""
    w = as_omega(omega).value
    den = k + w
    if den == 0:
        raise PoleError(f"moment pole: k + omega = 0 at k={k}, omega={w}")
    sign = -1 if k % 2 else 1
    return Fraction(sign) / den if is_exact(w) else sign / den


def moment(k: int, omega):
    """Reduced moment in exact mode; the full moment sigma*nu_k in float mode."""
    om = as_omega(omega)
    if om.exact_mode:
        return reduced_moment(k, om)
    w = om.as_float()
    return math.sin(math.pi * w) / math.pi * reduced_moment(k, w)


class MomentSequence:
    """Reduced moments of one parameter plus the common prefactor bookkeeping."""

    def __init__(self, omega):
        self.omega = as_omega(omega)

    def reduced(self, k: int):
        return reduced_moment(k, self.omega)

    def full(self, k: int) -> float:
        w = self.omega.as_float()
        sign = -1 if k % 2 else 1
        return math.sin(math.pi * w) / math.pi * (sign / (k + w))

    @property
    def prefactor_kind(self) -> str:
        # exact mode carries sigma = sin(pi*omega)/pi symbolically
        return "symbolic" if self.omega.exact_mode else "numeric"

    @property
    def prefactor(self):
        if self.omega.exact_mode:
            return None
        w = self.omega.as_float()
        return math.sin(math.pi * w) / math.pi


class ToeplitzMomentMatrix:
    """n x n matrix with entries(i, j) = nu_{j-i}; constant along diagonals."""

    def __init__(self, n: int, omega):
        self.n = n
        self.omega = as_omega(omega)

    def entry(self, i: int, j: int):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError((i, j))
        return reduced_moment(j - i, self.omega)

    def rows(self) -> list:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]


def bilinear(f: Polynomial, g: Polynomial, omega):
    """Reduced bilinear form sum_{j,k} f_j conj(g_k) nu_{j-k}.

    Multiply by sigma for the full form; a global scalar does not affect any
    orthogonality statement.
    """
    om = as_omega(omega)
    total = Fraction(0) if om.exact_mode else 0.0
    for j, fj in enumerate(f.coeffs):
        if fj == 0:
            continue
        for k, gk in enumerate(g.coeffs):
            if gk == 0:
                continue
            total = total + fj * conjugate(gk) * reduced_moment(j - k, om)
    return total


def _fraction_free_det(rows: list) -> Fraction:
    """Exact determinant: clear denominators per row, then integer Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scale *= lcm
        m.append([int(x * lcm) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale)


def toeplitz_det_direct(n: int, omega):
    """Reduced Toeplitz moment determinant by elimination.

    Exact mode uses fraction-free Gaussian elimination; float mode uses
    partial-pivot LU.  The sigma^n prefactor is reported separately (see
    MomentSequence.prefactor).
    """
    om = as_omega(omega)
    mat = ToeplitzMomentMatrix(n, om)
    if om.exact_mode:
        return _fraction_free_det(mat.rows())
    if n == 0:
        return 1.0
    return float(np.linalg.det(np.array(mat.rows(), dtype=float)))


def toeplitz_det_closed(n: int, omega):
    """Closed product form of the reduced determinant.

    (1/omega)^n * prod_{l<n} l!^2 / prod_{k=1}^{n-1} (k^2 - omega^2)^(n-k);
    poles at omega = 0 and omega in {+-1, ..., +-(n-1)}.  A float omega is an
    exact binary rational: the product is formed exactly and rounded once, so
    the factorials cannot overflow.
    """
    om = as_omega(omega)
    w = Fraction(om.value)
    if n > 0 and w == 0:
        raise PoleError("closed determinant pole at omega = 0")
    num = Fraction(1)
    for ell in range(n):
        num = num * math.factorial(ell) ** 2
    den = w ** n
    for k in range(1, n):
        factor = k * k - w * w
        if factor == 0:
            raise PoleError(f"closed determinant pole at omega = +-{k}")
        den = den * factor ** (n - k)
    return num / den if om.exact_mode else float(num / den)


def _solve_exact(a: list, b: list) -> list:
    """Gaussian elimination over Fractions; raises ExistenceError when singular."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            raise ExistenceError("singular moment system")
        m[k], m[piv] = m[piv], m[k]
        inv = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            factor = m[i][k] / inv
            for j in range(k, n + 1):
                m[i][j] = m[i][j] - factor * m[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = m[k][n]
        for j in range(k + 1, n):
            acc = acc - m[k][j] * x[j]
        x[k] = acc / m[k][k]
    return x


def construct_determinantal(n: int, omega) -> Polynomial:
    """Monic polynomial solving the orthogonality system sum_j c_j nu_{j-i} = 0.

    Independent of the coefficient formula: only moments and linear algebra.
    Nonnegative integer omega is refused (the full moment determinant vanishes
    there and the family member is not defined by orthogonality).
    """
    om = as_omega(omega)
    if n == 0:
        return construct(0, om)
    if om.is_integer and om.value >= 0:
        raise ExistenceError(
            f"no orthogonal polynomial at integer omega = {om.value}; use the symmetry route"
        )
    if om.exact_mode:
        a = [[reduced_moment(j - i, om) for j in range(n)] for i in range(n)]
        b = [-reduced_moment(n - i, om) for i in range(n)]
        coeffs = _solve_exact(a, b)
        return Polynomial(coeffs + [Fraction(1)])
    a = np.array([[reduced_moment(j - i, om) for j in range(n)] for i in range(n)], dtype=float)
    b = np.array([-reduced_moment(n - i, om) for i in range(n)], dtype=float)
    try:
        coeffs = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ExistenceError(f"singular moment system at omega = {om.value}") from exc
    return Polynomial([float(c) for c in coeffs] + [1.0])


def r_nk(n: int, k: int, omega):
    """Terminating 3F2-type sum controlling <S_n, z^k>.

    r_{n,k} = sum_{l=0}^{n} poch(-n,l) poch(-omega,l) poch(k-n-omega,l)
              / (l! poch(-n-omega,l) poch(k-n-omega+1,l));
    zero exactly for k < n, nonzero at k = n.  Related to the bilinear form by
    bilinear(S_n, z^k) = (-1)^(n-k) r_{n,k} / (n + omega - k).
    """
    om = as_omega(omega)
    w = om.value
    total = Fraction(0) if om.exact_mode else 0.0
    for ell in range(n + 1):
        d1 = pochhammer(-n - w, ell)
        d2 = pochhammer(k - n - w + 1, ell)
        if d1 == 0 or d2 == 0:
            raise PoleError(f"r_nk pole at term {ell} for (n={n}, k={k}, omega={w})")
        num = (
            pochhammer(-n, ell)
            * pochhammer(-w, ell)
            * pochhammer(k - n - w, ell)
        )
        total = total + num / (math.factorial(ell) * d1 * d2)
    return total
