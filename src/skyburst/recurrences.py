"""Recurrence relations, the generating function, and the second-order ODE.

Every relation is shipped as a constructive step (build the target polynomial
from lower data) so that a residual against the direct construction can be
checked exactly in rational arithmetic.  A float omega is computed on its
exact binary rational and the result rounded once (``Omega.rounded``).

The lifting and the lowering read all of S_0^omega, ..., S_n^omega at once.
They take them from ``family_table``, integer rows built from one pair of
prefix products, and form the whole sum as one integer vector over one
integer denominator, so a float omega rounds each coefficient by int / int.
The other steps combine a few members in ``Fraction`` arithmetic; the sweep
checks each against ``construct``.

Two published forms of these relations circulate with typos; the corrected
identities used here were fixed by exact-arithmetic comparison at small
degrees, and the faulty printed forms are kept under ``*_printed`` names
purely so regression tests can show they fail:

* parameter shift: the z-free factor n^2/((omega+n)(omega+n+1)) is the one
  that holds; variants with n*z^2 or n^2*z do not.
* lifting: the final term carries no factor of z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PoleError
from .moments import bilinear, toeplitz_det_closed, toeplitz_det_direct
from .scalarfield import as_omega
from .skypoly import (
    Polynomial,
    construct,
    construct_series,
    construct_via_symmetry,
    derivative_at_minus_one,
    family_table,
    reflect_negative_omega,
    value_at_zero,
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


def step_mixed(n: int, omega) -> Polynomial:
    """z*S_{n-1}^omega + omega^2/((omega+n-1)(omega+n)) * S_{n-1}^(omega-1).

    Equals construct(n, omega); the parameter-shifted companion replaces the
    reversed-conjugate polynomial of the classical circle recurrence.
    """
    if n < 1:
        raise DomainError("mixed step needs n >= 1")
    om = as_omega(omega)
    w = om.as_fraction()
    den = (w + n - 1) * (w + n)
    if den == 0:
        raise PoleError(f"mixed step pole: (omega+n-1)(omega+n) = 0 at omega={om.value}")
    lower = construct(n - 1, w)
    shifted = construct(n - 1, w - 1)
    return om.rounded(lower.shifted(1) + (w * w / den) * shifted)


def _omega_up_terms(n: int, om):
    w = om.as_fraction()
    den = (w + n) * (w + n + 1)
    if den == 0:
        raise PoleError(f"parameter shift pole: (omega+n)(omega+n+1) = 0 at omega={om.value}")
    return construct(n, w), construct(n - 1, w), den


def step_omega_up(n: int, omega) -> Polynomial:
    """S_n^omega + n^2/((omega+n)(omega+n+1)) * S_{n-1}^omega = S_n^(omega+1)."""
    if n < 1:
        raise DomainError("parameter shift needs n >= 1")
    om = as_omega(omega)
    top, low, den = _omega_up_terms(n, om)
    return om.rounded(top + (n * n / den) * low)


def step_omega_up_printed(n: int, omega, variant: str = "nz2") -> Polynomial:
    """Faulty printed forms of the parameter shift, kept for falsification tests.

    variant "nz2": factor n*z^2; variant "n2z": factor n^2*z.  Neither
    reproduces S_n^(omega+1).
    """
    if n < 1:
        raise DomainError("parameter shift needs n >= 1")
    om = as_omega(omega)
    top, low, den = _omega_up_terms(n, om)
    if variant == "nz2":
        return om.rounded(top + (n / den) * low.shifted(2))
    if variant == "n2z":
        return om.rounded(top + (n * n / den) * low.shifted(1))
    raise DomainError(f"unknown printed variant {variant!r}")


def _table_sum(n: int, w: Fraction, lift: bool, extra_z_on_last: bool = False) -> list:
    """Integer numerator of the lifting (``lift``) or the lowering sum, from ``family_table``.

    With (1+omega)_l / l! S_l^omega = (-1)^l N_l / (q^l l!) for the integer row
    N_l of S_l, and g_l = q^(n-l) n!/l!, this is

        (1+z) sum_{l<n} (-1)^(n-l) g_l z^(n-l-1) N_l + N_n   (lifting),
        (1+z) sum_{l<n} g_l N_l + N_n                        (lowering),

    which is (-1)^n q^n n! times the right-hand side of the identity.
    """
    rows = family_table(n, w)
    q = w.denominator
    acc = [0] * n
    g = 1
    for ell in range(n - 1, -1, -1):
        g *= (-q if lift else q) * (ell + 1)
        for k, c in enumerate(rows[ell], n - ell - 1 if lift else 0):
            acc[k] += g * c
    out = [x + y for x, y in zip(acc + [0], [0] + acc)]  # times 1+z
    if extra_z_on_last:
        out.append(0)
    for k, c in enumerate(rows[n], extra_z_on_last):
        out[k] += c
    return out


def _lifting_sum(n: int, omega, extra_z_on_last: bool) -> Polynomial:
    om = as_omega(omega)
    w = om.as_fraction()
    p, q = w.numerator, w.denominator
    scale = math.prod((2 + i) * q + p for i in range(n))  # q^n (2+omega)_n
    if scale == 0:
        raise PoleError(f"lifting scale pole: poch(2+{om.value}, {n}) = 0")
    den = -scale if n % 2 else scale
    return Polynomial([om.rounded_ratio(c, den) for c in _table_sum(n, w, True, extra_z_on_last)])


def lifting(n: int, omega) -> Polynomial:
    """Assemble S_n^(omega+1) from S_0^omega ... S_n^omega.

    (2+omega)_n/n! * S_n^(omega+1) = (1+z) * sum_{l<n} (1+omega)_l/l! z^(n-l-1) S_l^omega
                                     + (1+omega)_n/n! * S_n^omega.

    One integer sum over the rows of ``family_table`` (``_table_sum``) over
    (-1)^n q^n (2+omega)_n, an integer for omega = p/q; a float omega rounds
    each coefficient once, by int / int.
    """
    return _lifting_sum(n, omega, extra_z_on_last=False)


def lifting_printed(n: int, omega) -> Polynomial:
    """Faulty printed lifting (spurious z on the final term); falsification only."""
    return _lifting_sum(n, omega, extra_z_on_last=True)


def lowering(n: int, omega) -> Polynomial:
    """Assemble S_n^(omega-1) from S_0^omega ... S_n^omega.

    (omega)_n/n! * S_n^(omega-1) = (1+z) * sum_{l<n} (-1)^(n-l) (1+omega)_l/l! S_l^omega
                                   + (1+omega)_n/n! * S_n^omega.

    Computed as ``lifting`` is, over (-1)^n q^n (omega)_n.
    """
    om = as_omega(omega)
    w = om.as_fraction()
    p, q = w.numerator, w.denominator
    scale = math.prod(p + i * q for i in range(n))  # q^n (omega)_n
    if scale == 0:
        raise PoleError(f"lowering scale vanishes: poch({om.value}, {n}) = 0")
    den = -scale if n % 2 else scale
    return Polynomial([om.rounded_ratio(c, den) for c in _table_sum(n, w, False)])


def differential_step(n: int, omega) -> Polynomial:
    """The derivative of S_n^omega from S_{n-1}^omega:

    (omega+n) * dS_n = n z dS_{n-1} + n (1+omega) S_{n-1}.
    """
    if n < 1:
        raise DomainError("differential step needs n >= 1")
    om = as_omega(omega)
    w = om.as_fraction()
    den = w + n
    if den == 0:
        raise PoleError(f"differential step pole at omega = {-n}")
    lower = construct(n - 1, w)
    rhs = (n * lower.derivative()).shifted(1) + (n * (1 + w)) * lower
    return om.rounded((1 / den) * rhs)


def ode_residual(n: int, omega) -> Polynomial:
    """-z(1+z) S'' + [1 - (2+omega-n)(z+1)] S' + (1+omega) n S; identically zero."""
    om = as_omega(omega)
    w = om.as_fraction()
    s = construct(n, w)
    s1 = s.derivative()
    s2 = s1.derivative()
    minus_z_1pz = Polynomial((0, -1, -1))
    first_order = Polynomial((1 - (2 + w - n), -(2 + w - n)))
    return om.rounded(minus_z_1pz * s2 + first_order * s1 + ((1 + w) * n) * s)


def genfun_compare(omega, z, T, N: int) -> float:
    """|partial sum of the generating function - closed form|.

    sum_{n<=N} (1+omega)_n/n! S_n^omega(z) T^n  vs  (1+T)^omega / (1-zT)^(omega+1)
    with principal-branch powers; requires |zT| < 1 and |T| < 1.
    """
    if N < 1:
        raise DomainError("need at least one term")
    om = as_omega(omega)
    w = om.as_float()
    z = complex(z)
    T = complex(T)
    if abs(z * T) >= 1 or abs(T) >= 1:
        raise DomainError("generating function needs |zT| < 1 and |T| < 1")
    for branch_arg, name in ((1 + T, "1+T"), (1 - z * T, "1-zT")):
        if branch_arg.imag == 0 and branch_arg.real <= 0:
            raise DomainError(f"branch cut: {name} is real and <= 0")
    total = 0j
    coef = 1.0
    t_pow = 1 + 0j
    for n in range(N + 1):
        total += coef * construct(n, om).to_inexact()(z) * t_pow
        t_pow *= T
        coef *= (1.0 + w + n) / (n + 1.0)
    closed = cmath.exp(w * cmath.log(1 + T)) * cmath.exp(-(w + 1) * cmath.log(1 - z * T))
    return abs(total - closed)


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


def _boundary_gaps(n, w, printed):
    s = construct(n, w)
    # S_n^(m)(-1) = m! t_m for S_n(z) = sum_m t_m (1+z)^m: one Taylor shift of the
    # constructed coefficients, in integers over their common denominator
    den = math.lcm(*[c.denominator for c in s.coeffs])
    t = [c.numerator * (den // c.denominator) for c in s.coeffs]
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            t[k] -= t[k + 1]
    gaps = [derivative_at_minus_one(m, n, w) - Fraction(math.factorial(m) * t[m], den) for m in range(n + 1)]
    gaps.append(value_at_zero(n, w) - s.coeffs[0])
    return gaps


def _orthogonality_gaps(n, w, printed):
    s = construct(n, w)
    gaps = [bilinear(s, Polynomial((0,) * k + (1,)), w) for k in range(n)]
    # nondegeneracy: <S_n, z^n> must not vanish; a zero there counts as a unit gap
    gaps.append(Fraction(bilinear(s, Polynomial((0,) * n + (1,)), w) == 0))
    return gaps


# identity_id -> (least degree, gaps(n, w, printed)).  Every gap is exactly 0
# when the identity holds at (n, w); ``printed`` swaps in the faulty printed
# form where one exists.  The lambdas look functions up at call time, so a
# wrapper installed on a module attribute (a tracer, a mock) sees every call.
_IDENTITIES = {
    "orthogonality": (0, _orthogonality_gaps),
    "cauchy_determinant": (0, lambda n, w, printed: (toeplitz_det_closed(n, w) - toeplitz_det_direct(n, w),)),
    "mixed_step": (1, lambda n, w, printed: (step_mixed(n, w) - construct(n, w)).coeffs),
    "omega_shift": (1, lambda n, w, printed: (
        (step_omega_up_printed(n, w) if printed else step_omega_up(n, w)) - construct(n, w + 1)
    ).coeffs),
    "derivative_recurrence": (1, lambda n, w, printed: (
        differential_step(n, w) - construct(n, w).derivative()
    ).coeffs),
    "lifting": (0, lambda n, w, printed: (
        (lifting_printed(n, w) if printed else lifting(n, w)) - construct(n, w + 1)
    ).coeffs),
    "lowering": (0, lambda n, w, printed: (lowering(n, w) - construct(n, w - 1)).coeffs),
    "ode": (0, lambda n, w, printed: ode_residual(n, w).coeffs),
    # the reflection is stated for omega > 0; a negative grid point checks it from |omega|
    "negative_reflection": (0, lambda n, w, printed: (
        reflect_negative_omega(n, abs(w)) - construct(n, -abs(Fraction(w)))
    ).coeffs),
    "boundary_values": (0, _boundary_gaps),
}


def _report(identity_id: str, n: int, w, gaps, rejected: bool = False) -> IdentityReport:
    """Residual max |gap|; passes iff every gap is 0, or, for a rejected form, iff one is not."""
    residual = max(map(abs, gaps), default=Fraction(0))
    return IdentityReport(identity_id, (n, w), residual, (residual == 0) != rejected)


def run_identity_suite(
    n_max: int = 8,
    omegas=DEFAULT_OMEGA_GRID,
    printed_variants: bool = False,
) -> list:
    """Run the exact identity sweep; returns IdentityReports in deterministic order.

    Includes two falsification rows that pass only when the faulty printed
    variants produce a nonzero residual.  ``printed_variants=True`` swaps the
    faulty forms into the main families (so the sweep must then fail).
    """
    if n_max < 0:
        raise DomainError(f"degree bound must be nonnegative, got {n_max}")
    reports = []
    for w in omegas:
        for n in range(n_max + 1):
            for identity_id, (least, gaps) in _IDENTITIES.items():
                if n >= least:
                    reports.append(_report(identity_id, n, w, gaps(n, w, printed_variants)))
    for n in range(1, n_max + 1):
        for m in range(n):
            gaps = (construct_series(n, Fraction(m)) - construct_via_symmetry(n, m)).coeffs
            reports.append(_report("degree_symmetry", n, Fraction(m), gaps))
    for identity_id in ("omega_shift", "lifting"):
        gaps = _IDENTITIES[identity_id][1](1, Fraction(1, 2), True)
        reports.append(_report(f"{identity_id}_printed_rejected", 1, Fraction(1, 2), gaps, rejected=True))
    return reports
