"""Recurrence relations, the generating function, and the second-order ODE.

Every relation is shipped as a constructive step (build the target polynomial
from lower data) so that a residual against the direct construction can be
checked exactly in rational arithmetic.  A float omega is computed on its
exact binary rational and the result rounded once.

Each step has an integer core: for omega = p/q it returns ``(row, den)``, an
integer vector over one integer, the representation FLINT's ``fmpq_poly``
uses.  The members S_n^omega it reads are integer rows over B_n, which the
core takes from a ``skypoly._Rows`` passed in: one pair of prefix products
per parameter, each row formed once.  The lifting and the lowering take a
``_Sweep``, the rows with one running sum over them (``_Sweep.table_sum``).
A public step builds its own tables and divides its core out once,
coefficient by coefficient (int / int for a float omega).  The identity
sweep calls the same cores on one ``_Sweep`` for the whole call,
with the integer cores of the two determinants and of ``value_at_zero``
(D_n through ``moments._pulled``, the pass the public routes share),
and compares them directly: each gap is one cross-multiplied integer
vector, and only a nonzero one becomes a ``Fraction``, so no rational
polynomial or scalar is formed on the way.

Two published forms of these relations circulate with typos; the corrected
identities used here were fixed by exact-arithmetic comparison at small
degrees.  Each faulty printed form has one private core beside the true one,
shown under a ``*_printed`` name and checked by the sweep's two
``*_printed_rejected`` rows, which pass only while it fails:

* parameter shift: the z-free factor n^2/((omega+n)(omega+n+1)) is the one
  that holds; the printed n*z^2 (``_omega_up(..., printed=True)``) does not,
  and neither does the n^2*z also seen in print.
* lifting: the final term carries no factor of z (``_lifting_printed``
  gives it one).
"""

from __future__ import annotations

import cmath
import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PoleError
from .moments import _det_closed, _integer_moments, _moment_pole, _pulled
from .scalarfield import as_degree, as_fraction, as_integer, as_member, as_omega, as_point, as_real
from .skypoly import (
    Polynomial,
    _derivatives_at_minus_one,
    _ratio_poly,
    _reflection,
    _Rows,
    _value_at_zero,
    construct,
)

__all__ = [
    "step_mixed",
    "step_omega_up",
    "step_omega_up_printed",
    "lifting",
    "lifting_printed",
    "lowering",
    "differential_step",
    "ode_residual",
    "genfun_compare",
    "IdentityReport",
    "DEFAULT_OMEGA_GRID",
    "run_identity_suite",
]

DEFAULT_OMEGA_GRID = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(5, 4),
    Fraction(7, 3),
    Fraction(22, 7),
)


def _add(x: list, dx: int, y: list, dy: int) -> tuple:
    """x/dx + y/dy for integer rows over integers: the row x*dy + y*dx over dx*dy."""
    x, y = x + [0] * (len(y) - len(x)), y + [0] * (len(x) - len(y))
    return [u * dy + v * dx for u, v in zip(x, y)], dx * dy


class _Sweep(_Rows):
    """The member rows and the tables read off them: the lifting and lowering sums and the moments.

    ``table_sum`` extends one running sum over the rows of S_0, S_1, ...
    per omega and direction.  ``moments(w)`` is (L, m), one integer moment
    list over -n_max..n_max (``_integer_moments``) with m_0 at index n_max,
    formed once per omega for the orthogonality row.
    """

    __slots__ = ("_sums", "_moments")

    def __init__(self, n_max: int):
        super().__init__(n_max)
        self._sums = {}  # (p, q, lift) -> running sums by degree
        self._moments = {}  # (p, q) -> (L, m)

    def table_sum(self, n: int, w: Fraction, lift: bool) -> list:
        """Integer numerator of the lifting (``lift``) or the lowering sum, from the rows of S_0..S_n.

        With (1+omega)_l / l! S_l^omega = (-1)^l N_l / (q^l l!) for the integer
        row N_l of S_l, and g_l = q^(n-l) n!/l!, this is

            (1+z) sum_{l<n} (-1)^(n-l) g_l z^(n-l-1) N_l + N_n   (lifting),
            (1+z) sum_{l<n} g_l N_l + N_n                        (lowering),

        which is (-1)^n q^n n! times the right-hand side of the identity.  The
        sum over l < n extends from one degree to the next, with acc_0 the
        empty row:

            acc_(l+1) = -q(l+1) (z acc_l + N_l)   (lifting),
            acc_(l+1) =  q(l+1) (acc_l + N_l)     (lowering),

        and each acc_l is kept, so a degree costs only the steps past the
        highest one reached.  A member with a pole raises its PoleError when
        the walk first reads it.
        """
        sums = self._sums.setdefault((w.numerator, w.denominator, lift), [[]])
        q = w.denominator
        while len(sums) <= n:
            ell, acc = len(sums) - 1, sums[-1]
            row = self.member(ell, w)[0]
            if lift:
                sums.append([-q * (ell + 1) * (u + v) for u, v in zip([0, *acc], row)])
            else:
                sums.append([q * (ell + 1) * (u + v) for u, v in zip([*acc, 0], row)])
        acc = sums[n]
        out = [x + y for x, y in zip(acc + [0], [0] + acc)]  # times 1+z
        for k, c in enumerate(self.member(n, w)[0]):
            out[k] += c
        return out

    def moments(self, w: Fraction) -> tuple:
        key = (w.numerator, w.denominator)
        if key not in self._moments:
            self._moments[key] = _integer_moments(w, range(-self.n_max, self.n_max + 1))
        return self._moments[key]


def _mixed(n: int, om, rows: _Rows) -> tuple:
    # omega^2/((omega+n-1)(omega+n)) = p^2 / ((p+(n-1)q)(p+nq))
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    den = (p + (n - 1) * q) * (p + n * q)
    if den == 0:
        raise PoleError(f"mixed step pole: (omega+n-1)(omega+n) = 0 at omega={om}")
    lower, d_lower = rows.member(n - 1, w)
    shifted, d_shifted = rows.member(n - 1, w - 1)
    return _add([0, *lower], d_lower, [p * p * c for c in shifted], den * d_shifted)


def step_mixed(n: int, omega) -> Polynomial:
    """z*S_{n-1}^omega + omega^2/((omega+n-1)(omega+n)) * S_{n-1}^(omega-1).

    Equals construct(n, omega); the parameter-shifted companion replaces the
    reversed-conjugate polynomial of the classical circle recurrence.
    """
    if (n := as_integer(n, "a degree")) < 1:
        raise DomainError("mixed step needs n >= 1")
    om = as_omega(omega)
    return _ratio_poly(om, *_mixed(n, om, _Rows(n)))


def _omega_up(n: int, om, rows: _Rows, printed: bool = False) -> tuple:
    # n^2/((omega+n)(omega+n+1)) = n^2 q^2 / ((p+nq)(p+(n+1)q)); the printed form has n z^2 for n^2
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    den = (p + n * q) * (p + (n + 1) * q)
    if den == 0:
        raise PoleError(f"parameter shift pole: (omega+n)(omega+n+1) = 0 at omega={om}")
    top, d_top = rows.member(n, w)
    low, d_low = rows.member(n - 1, w)
    factor = (n if printed else n * n) * q * q
    return _add(top, d_top, [0, 0] * printed + [factor * c for c in low], den * d_low)


def step_omega_up(n: int, omega) -> Polynomial:
    """S_n^omega + n^2/((omega+n)(omega+n+1)) * S_{n-1}^omega = S_n^(omega+1)."""
    if (n := as_integer(n, "a degree")) < 1:
        raise DomainError("parameter shift needs n >= 1")
    om = as_omega(omega)
    return _ratio_poly(om, *_omega_up(n, om, _Rows(n)))


def step_omega_up_printed(n: int, omega) -> Polynomial:
    """Faulty printed parameter shift, factor n*z^2 where n^2 holds; falsification only.

    It does not reproduce S_n^(omega+1).
    """
    if (n := as_integer(n, "a degree")) < 1:
        raise DomainError("parameter shift needs n >= 1")
    om = as_omega(omega)
    return _ratio_poly(om, *_omega_up(n, om, _Rows(n), printed=True))


def _lifting(n: int, om, rows: _Sweep) -> tuple:
    # over (-1)^n q^n (2+omega)_n
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    scale = math.prod([(2 + i) * q + p for i in range(n)])
    if scale == 0:
        raise PoleError(f"lifting scale pole: poch(2+{om}, {n}) = 0")
    return rows.table_sum(n, w, True), -scale if n % 2 else scale


def _lifting_printed(n: int, om, rows: _Sweep) -> tuple:
    # the printed last term is z N_n: add (z - 1) N_n to the lifting row, over the same denominator
    row, den = _lifting(n, om, rows)
    last = rows.member(n, as_fraction(om))[0]
    return [u + v - c for u, v, c in zip(row + [0], [0, *last], last + [0])], den


def lifting(n: int, omega) -> Polynomial:
    """Assemble S_n^(omega+1) from S_0^omega ... S_n^omega.

    (2+omega)_n/n! * S_n^(omega+1) = (1+z) * sum_{l<n} (1+omega)_l/l! z^(n-l-1) S_l^omega
                                     + (1+omega)_n/n! * S_n^omega.

    One integer sum over the member rows of S_0^omega ... S_n^omega (``_Sweep.table_sum``),
    walked up from degree 0, over (-1)^n q^n (2+omega)_n, an integer for
    omega = p/q.
    """
    n, om = as_member(n, omega)
    return _ratio_poly(om, *_lifting(n, om, _Sweep(n)))


def lifting_printed(n: int, omega) -> Polynomial:
    """Faulty printed lifting (spurious z on the final term); falsification only."""
    n, om = as_member(n, omega)
    return _ratio_poly(om, *_lifting_printed(n, om, _Sweep(n)))


def _lowering(n: int, om, rows: _Sweep) -> tuple:
    # over (-1)^n q^n (omega)_n
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    scale = math.prod([p + i * q for i in range(n)])
    if scale == 0:
        raise PoleError(f"lowering scale vanishes: poch({om}, {n}) = 0")
    return rows.table_sum(n, w, False), -scale if n % 2 else scale


def lowering(n: int, omega) -> Polynomial:
    """Assemble S_n^(omega-1) from S_0^omega ... S_n^omega.

    (omega)_n/n! * S_n^(omega-1) = (1+z) * sum_{l<n} (-1)^(n-l) (1+omega)_l/l! S_l^omega
                                   + (1+omega)_n/n! * S_n^omega.

    Computed as ``lifting`` is, over (-1)^n q^n (omega)_n.
    """
    n, om = as_member(n, omega)
    return _ratio_poly(om, *_lowering(n, om, _Sweep(n)))


def _differential(n: int, om, rows: _Rows) -> tuple:
    # times q, for S_(n-1) = R/D: (p+nq) dS_n = sum_k n (kq + q + p) R_k z^k / D,
    # since z dS_(n-1) = sum_k k R_k z^k / D
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    den = p + n * q
    if den == 0:
        raise PoleError(f"differential step pole at omega = {-n}")
    lower, d_lower = rows.member(n - 1, w)
    return [n * (k * q + q + p) * c for k, c in enumerate(lower)], den * d_lower


def differential_step(n: int, omega) -> Polynomial:
    """The derivative of S_n^omega from S_{n-1}^omega:

    (omega+n) * dS_n = n z dS_{n-1} + n (1+omega) S_{n-1}.
    """
    if (n := as_integer(n, "a degree")) < 1:
        raise DomainError("differential step needs n >= 1")
    om = as_omega(omega)
    return _ratio_poly(om, *_differential(n, om, _Rows(n)))


def _ode(n: int, om, rows: _Rows) -> tuple:
    # times q, for S = R/D: the z^k coefficient is (k+1)(q - c - kq) R_(k+1) + ((q+p)n - k(k-1)q - ck) R_k
    # with c = q(2+omega-n)
    w = as_fraction(om)
    p, q = w.numerator, w.denominator
    row, den = rows.member(n, w)
    c = 2 * q + p - n * q
    out = [((q + p) * n - k * (k - 1) * q - c * k) * r for k, r in enumerate(row)]
    for k in range(n):
        out[k] += (k + 1) * (q - c - k * q) * row[k + 1]
    return out, q * den


def ode_residual(n: int, omega) -> Polynomial:
    """-z(1+z) S'' + [1 - (2+omega-n)(z+1)] S' + (1+omega) n S; identically zero."""
    n, om = as_member(n, omega)
    return _ratio_poly(om, *_ode(n, om, _Rows(n)))


def genfun_compare(omega, z, T, N: int) -> float:
    """|partial sum of the generating function - closed form|.

    sum_{n<=N} (1+omega)_n/n! S_n^omega(z) T^n  vs  (1+T)^omega / (1-zT)^(omega+1)
    with principal-branch powers; requires finite z, T, |zT| < 1 and |T| < 1.
    Neither power then meets its branch cut: Re(1+T) >= 1 - |T| > 0, and
    Re(1-zT) >= 1 - |zT| > 0 for the same rounded zT that the check reads.
    """
    if (N := as_integer(N, "a term count")) < 1:
        raise DomainError("need at least one term")
    om, z, T = as_omega(omega), as_point(z, "z"), as_point(T, "T")
    w = as_real(om, "omega")
    # a NaN fails every comparison below and inf * 0 is NaN: refuse both first
    if not (cmath.isfinite(z) and cmath.isfinite(T)):
        raise DomainError(f"generating function needs finite z and T, got z={z}, T={T}")
    if abs(z * T) >= 1 or abs(T) >= 1:
        raise DomainError("generating function needs |zT| < 1 and |T| < 1")
    total = 0j
    coef = 1.0
    t_pow = 1 + 0j
    for n in range(N + 1):
        total += coef * construct(n, om).to_inexact()(z) * t_pow
        t_pow *= T
        coef *= (1.0 + w + n) / (n + 1.0)
    with suppress(OverflowError):  # cmath.exp or abs past the double range
        closed = cmath.exp(w * cmath.log(1 + T)) * cmath.exp(-(w + 1) * cmath.log(1 - z * T))
        if math.isfinite(residual := abs(total - closed)):
            return residual
    raise DomainError(f"generating function at omega={om} lies outside the double range")


# ---------------------------------------------------------------------------
# identity sweep used by the CLI verify command
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check at one parameter point."""

    identity_id: str
    params: tuple
    residual_norm: object
    passed: bool


_ZERO, _ONE = Fraction(0), Fraction(1)  # shared: a Fraction is immutable


def _residual(lhs: tuple, rhs: tuple) -> Fraction:
    """max |lhs - rhs| over the coefficients of two (row, den) pairs; a scalar is a 1-entry row.

    The gap is one integer vector, lhs_row*rhs_den - rhs_row*lhs_den, over
    lhs_den*rhs_den.  Only a nonzero gap builds a Fraction; a zero one, the
    identity holding, returns the one shared ``Fraction(0)``.
    """
    (x, dx), (y, dy) = lhs, rhs
    x, y = x + [0] * (len(y) - len(x)), y + [0] * (len(x) - len(y))
    worst = max([abs(u * dy - v * dx) for u, v in zip(x, y)], default=0)
    return Fraction(worst, abs(dx * dy)) if worst else _ZERO


def _boundary_residual(n: int, w: Fraction, rows: _Rows) -> Fraction:
    row, den = rows.member(n, w)
    # S_n^(m)(-1) = m! t_m for S_n(z) = sum_m t_m (1+z)^m: one Taylor shift of the member row
    t = row[:]
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            t[k] -= t[k + 1]
    taylor = [math.factorial(m) * c for m, c in enumerate(t)], den
    derivatives = _residual(_derivatives_at_minus_one(n, w), taylor)
    num, zero_den = _value_at_zero(n, w)
    return max(derivatives, _residual(([num], zero_den), ([row[0]], den)))


def _orthogonality_residual(n: int, w: Fraction, rows: _Sweep) -> Fraction:
    row, den = rows.member(n, w)
    # <S_n, z^k> = q dots_k / (L B_n), one Toeplitz product of the member row on the sweep's
    # moment list of omega; only a nonzero coefficient reads a moment, and so raises its pole
    fs = [(j, c) for j, c in enumerate(row) if c]
    _moment_pole(w, [j for j, _ in fs], range(n + 1))
    scale, m = rows.moments(w)
    dots = [sum(c * m[rows.n_max + j - k] for j, c in fs) for k in range(n + 1)]
    worst = max(map(abs, dots[:n]), default=0)
    gap = Fraction(w.denominator * worst, abs(scale * den)) if worst else _ZERO
    # nondegeneracy: <S_n, z^n> must not vanish; a zero there counts as a unit gap
    return max(gap, _ONE) if dots[n] == 0 else gap


def _cauchy_residual(n: int, w: Fraction, rows: _Sweep) -> Fraction:
    closed, closed_den = _det_closed(n, w)  # first: its poles come before the moment poles
    pivots = _pulled(rows.n_max, w, n)  # D_n's pivots, from the pass the public routes share
    det, det_den = math.prod([num for num, _ in pivots]), math.prod([den for _, den in pivots])
    return _residual(([closed], closed_den), ([det], det_den))


def _member_derivative(n: int, w: Fraction, rows: _Rows) -> tuple:
    row, den = rows.member(n, w)
    return [k * c for k, c in enumerate(row)][1:], den


# identity_id -> (least degree, residual(n, w, rows)), for an exact
# omega w and the call's ``_Sweep`` rows.  Each residual is max |lhs - rhs| of two
# integer cores (``_residual``) and is exactly 0 when the identity holds at
# (n, omega).  The lambdas look the cores up at call time, so a wrapper installed on a
# module attribute (a tracer, a mock) sees every call.
_IDENTITIES = {
    "orthogonality": (0, _orthogonality_residual),
    "cauchy_determinant": (0, _cauchy_residual),
    "mixed_step": (1, lambda n, w, rows: _residual(_mixed(n, w, rows), rows.member(n, w))),
    "omega_shift": (1, lambda n, w, rows: _residual(_omega_up(n, w, rows), rows.member(n, w + 1))),
    "derivative_recurrence": (1, lambda n, w, rows: _residual(
        _differential(n, w, rows), _member_derivative(n, w, rows)
    )),
    "lifting": (0, lambda n, w, rows: _residual(_lifting(n, w, rows), rows.member(n, w + 1))),
    "lowering": (0, lambda n, w, rows: _residual(_lowering(n, w, rows), rows.member(n, w - 1))),
    "ode": (0, lambda n, w, rows: _residual(_ode(n, w, rows), ([], 1))),
    # the reflection is stated for omega > 0; a negative grid point checks it from |omega|
    "negative_reflection": (0, lambda n, w, rows: _residual(
        _reflection(n, abs(w), rows), rows.member(n, -abs(w))
    )),
    "boundary_values": (0, _boundary_residual),
}


def _report(identity_id: str, n: int, w, residual: Fraction, rejected: bool = False) -> IdentityReport:
    """Passes iff the residual is 0, or, for a rejected form, iff it is not."""
    return IdentityReport(identity_id, (n, w), residual, (residual == 0) != rejected)


def run_identity_suite(n_max: int = 8, omegas=DEFAULT_OMEGA_GRID) -> list:
    """Run the exact identity sweep; returns IdentityReports in deterministic order.

    Ends with two falsification rows at (1, 1/2) that pass only while the
    faulty printed parameter shift and lifting give a nonzero residual.
    """
    n_max = as_degree(n_max)
    rows = _Sweep(n_max)  # every table of the call; none outlives it
    reports = []
    for w in omegas:
        w = as_fraction(as_omega(w))  # a float grid point runs on its exact value
        for n in range(n_max + 1):
            for identity_id, (least, residual) in _IDENTITIES.items():
                if n >= least:
                    reports.append(_report(identity_id, n, w, residual(n, w, rows)))
    params = [Fraction(m) for m in range(n_max)]
    for n in range(1, n_max + 1):
        for m in range(n):
            # S_n^m = z^(n-m) S_m^n: the member row (n, m) against the shifted row (m, n)
            row, den = rows.member(m, n)
            residual = _residual(rows.member(n, m), ([0] * (n - m) + row, den))
            reports.append(_report("degree_symmetry", n, params[m], residual))
    half, rows = Fraction(1, 2), _Sweep(1)
    for identity_id, printed in (
        ("omega_shift", _omega_up(1, half, rows, printed=True)), ("lifting", _lifting_printed(1, half, rows))
    ):
        residual = _residual(printed, rows.member(1, half + 1))
        reports.append(_report(f"{identity_id}_printed_rejected", 1, half, residual, rejected=True))
    return reports
