"""Root finding, zero classification, emergence angles, and parameter continuation.

The qualitative picture as omega grows through (m, m+1): m+1 simple zeros sit
in (-1, 0); the other n-m-1 loop through the complex plane, leaving and
re-entering the origin at the integers ("bursts"); a positive-real looper
exists exactly when n-m is even.  Once omega > n all zeros are trapped in
(-1, 0) and drift to -1 ("fizzle").

Roots are computed by simultaneous Aberth iteration with a Newton polish;
float coefficients always come from the exact rational coefficients rounded
once, so the conditioning of the coefficient sum never contaminates the
input to the root finder.  A root that has settled leaves the sweep but
stays in the other roots' corrections (Bini and Fiorentino 2000); in a
seeded solve a root settles once it is in Newton's basin.

``find_zeros`` starts cold, from Bini's Newton-polygon circles (one per
modulus group of the roots).  ``trace`` builds every root layout one way, in
``_seeded``: it iterates on the reals, as floats, and on the upper roots only,
each conjugate mirrored, so the reals are real and each partner is an exact
conjugate.  Inside an integer-free segment it is a predictor-corrector
(Allgower and Georg, *Numerical Continuation Methods*): the seed is the
segment's last accepted layouts extrapolated to the next grid point
(``_predicted``), Aberth runs on each root only until it is in Newton's basin,
and the polish finishes them.  The seed's order is the step's matching, and a
refused seed halves the step as a far one does.  At the first grid point and
past each integer crossing (the real-root count changes) the seed is the
on-axis reals and the uppers of a cold solve there, matched across the
crossing by minimum total distance.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, TrackingError
from .scalarfield import as_degree, as_fraction, as_integer, as_member, as_omega, as_real
from .skypoly import Polynomial, _float_row, taylor_about_minus_one

__all__ = [
    "ZeroTag",
    "ZeroSet",
    "ZeroCounts",
    "TrajectoryBundle",
    "find_zeros",
    "zeros_of",
    "classify",
    "emergence_angles",
    "trace",
    "fizzle_gap",
    "simplicity_margin",
    "AXIS_TOL",
    "SIMPLICITY_THRESHOLD",
    "INTEGER_OFFSET",
    "DEFAULT_TOL",
]

AXIS_TOL = 1e-9          # |Im z| <= AXIS_TOL * (1 + |z|) counts as real
SIMPLICITY_THRESHOLD = 1e-6
INTEGER_OFFSET = 1e-3    # continuation grids never sample closer to an integer
MIN_STEP = 1e-6
MATCH_THRESHOLD = 0.1    # a continuation step moving a root this far or more is halved
BASE_STEP = 0.02         # trace's step, before halving
MAX_ITERATIONS = 500
NEWTON_BASIN = 1e-4      # a seeded Aberth solve ends after a sweep moving no root this far, relative to |z|
ROUNDING_FLOOR = 2.0 ** -52  # the polish ends at a Newton step below this times |z|
DEFAULT_TOL = 1e-10
MAX_SPAN = 1000.0        # widest omega range trace accepts: at BASE_STEP, some 50,000 grid points

# the member row of the last solve: trace's cold point reads it twice, in zeros_of and in _seeded
_member_row = functools.lru_cache(maxsize=1)(_float_row)


class ZeroTag(str, Enum):
    """Where a root lies: on the axis (``AXIS_TOL``) in (-1, 0), (0, inf) or (-inf, -1]; off it; at 0."""

    NEG_UNIT = "neg_unit"
    POS_REAL = "pos_real"
    NEG_OUTER = "neg_outer"
    COMPLEX = "complex_offaxis"
    ORIGIN = "origin"


@dataclass(frozen=True)
class ZeroSet:
    """Roots with classification tags; origin roots carry their multiplicity."""

    roots: tuple          # ((value, ZeroTag), ...)
    n: int
    omega: float
    residual_max: float
    iterations: int = 0   # Aberth sweeps; 0 when deflation leaves no polynomial
    evaluations: int = 0  # root evaluations: Aberth's, at most iterations * (roots left), and the polish's

    def values(self) -> list:
        return [z for z, _ in self.roots]


@dataclass(frozen=True)
class ZeroCounts:
    neg_unit: int
    pos_real: int
    complex_offaxis: int
    origin: int
    neg_outer: int


def _on_axis(z: complex) -> bool:
    return abs(z.imag) <= AXIS_TOL * (1 + abs(z))


def _tag_root(z: complex) -> ZeroTag:
    """The tag of a root that is not an exact origin root (only deflation finds those)."""
    if _on_axis(z):
        if -1 < z.real < 0:
            return ZeroTag.NEG_UNIT
        if z.real > 0:
            return ZeroTag.POS_REAL
        if z.real <= -1:
            return ZeroTag.NEG_OUTER
    return ZeroTag.COMPLEX


def _polygon_start(c):
    """Cold start points for a monic ascending coefficient list with c[0] != 0.

    The upper convex hull of the points (k, log|c_k|) over the nonzero c_k
    splits the roots by modulus (the Newton polygon): an edge from i to j puts
    j-i points on the circle of radius (|c_i|/|c_j|)^(1/(j-i)) = exp(-slope)
    at angles 2*pi*l/(j-i) + 2*pi*i/d + 0.7 (Bini, Numer. Algorithms 13, 1996,
    "Numerical computation of polynomial zeros by means of Aberth's method";
    MPSolve starts the same way).  The offset keeps every point off the axis.
    """
    d = len(c) - 1
    hull = []
    for k, x in enumerate(c):
        if x == 0:
            continue
        y = math.log(abs(x))
        while len(hull) > 1:  # drop the last vertex while it is not above the chord to (k, y)
            (k0, y0), (k1, y1) = hull[-2:]
            if (y1 - y0) * (k - k0) > (y - y0) * (k1 - k0):
                break
            hull.pop()
        hull.append((k, y))
    start = []
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        m = j - i
        radius = math.exp((yi - yj) / m)
        start += [radius * cmath.exp(1j * (2 * math.pi * l / m + 2 * math.pi * i / d + 0.7)) for l in range(m)]
    return start


def _aberth(coeffs, start=None, pairs_from=None):
    """All roots of an ascending complex coefficient list with nonzero constant
    term, the number of sweeps taken and the number of root evaluations made.

    Simultaneous (Ehrlich-style) iteration.  A cold solve starts from
    ``_polygon_start``, one circle per modulus group of the roots, and takes
    some 9 sweeps on the degrees 16..60 of ``zeros_scan`` (17 at most).  A
    seeded solve (``start`` given, as ``_seeded`` passes it) only has to bring
    its roots into Newton's basin for the polish, and each root leaves the sweep
    once it is there: 1.26 evaluations per root over ``trace(9, .05, 8.95)``
    (1.61 sweeps a solve), one from the roots of a cold solve at the same point.

    Every pinned root set depends on the order of the arithmetic here, which
    is the same as that of a Horner pass from the leading coefficient down
    (value and derivative) and a loop over j:
    - Gauss-Seidel order: active root i is updated in place, so it sees the
      roots j < i of this sweep and the roots j > i of the last one.
    - The correction sum over j != i, frozen roots included, is accumulated
      left to right from 0j, and a difference of exactly 0 is replaced by
      1e-20.  ``sum()`` is not used: from Python 3.12 it sums floats with
      compensation, so the roots would depend on the Python version.
    - Roots from index ``pairs_from`` on stand for conjugate pairs: after that
      sum each adds its mirror term 1/(z - conj(z_j)), in index order and with
      the same guard.  The mirrors are kept in a list, set again whenever
      their root moves (a step or the nudge at dp == 0), so one loop runs over
      the other roots and then the mirrors.  A cold solve has none.
    - The roots before ``pairs_from`` are reals, iterated as floats: a Horner
      pass on the real parts of the row (the real part of the complex pass at
      a real point, bit for bit), and a sum from 0.0 over the other reals and
      then, for each pair a +- ib in index order, the one term
      2(x - a) / ((x - a)^2 + b^2), its denominator guarded as a difference
      is.  The (a, b^2) are kept beside the mirrors and set with them.
    - A root is frozen once |p| is 0 or its step |step| / (1 + |z|) is below
      1e-14 or NaN, and in a seeded solve once |step| is below
      ``NEWTON_BASIN`` * |z| (Newton's basin; the polish finishes it).  A
      frozen root is not evaluated or moved again but stays in the other
      roots' sums (Bini and Fiorentino, Numer. Algorithms 23, 2000; MPSolve
      does the same).  The solve ends when no root is active or every root's
      latest |p| is at machine level.
    ``test_zeros_of_pinned``, ``TestTrace::test_grid_and_bursts_pinned`` and
    the ``test_aberth_*_is_the_reference_sweep_bit_for_bit`` tests enforce it.
    """
    lead = coeffs[-1]
    c = [x / lead for x in coeffs]
    top, rest = c[-1], c[-2::-1]
    resid_floor = 64 * 2.220446049250313e-16 * (1 + max(map(abs, c)))
    seeded = start is not None
    roots = list(start) if seeded else _polygon_start(c)
    pairs = len(roots) if pairs_from is None else pairs_from
    reals = 0 if pairs_from is None else pairs_from
    roots[:reals] = [x.real for x in roots[:reals]]
    real_top, real_rest = top.real, [a.real for a in rest]
    mirrors = [w.conjugate() for w in roots[pairs:]]  # conj(roots[pairs + k]) at each moment
    conics = [(w.real, w.imag * w.imag) for w in roots[pairs:]]  # (a, b^2) of roots[pairs + k]
    one = 1 + 0j  # 1 / dz gives the same bits but coerces the int on every term
    basin = NEWTON_BASIN if seeded else 0.0
    active = range(len(roots))
    values = [0.0] * len(roots)  # |p| at each root's latest evaluation
    evaluations = 0
    for sweep in range(1, MAX_ITERATIONS + 1):
        evaluations += len(active)
        still = []
        for i in active:
            z = roots[i]
            if i < reals:
                p, dp = real_top, 0.0
                for a in real_rest:
                    dp = dp * z + p
                    p = p * z + a
            else:
                p, dp = top, 0j
                for a in rest:
                    dp = dp * z + p
                    p = p * z + a
            values[i] = abs(p)
            if p == 0:
                continue
            if dp == 0:
                z = z * 1.0000001 + 1e-12
                moving = True
            else:
                ratio = p / dp
                if i < reals:
                    s = 0.0
                    for w in [*roots[:i], *roots[i + 1:reals]]:
                        s += 1.0 / (z - w or 1e-20)
                    for a, b2 in conics:
                        d = z - a
                        s += 2 * d / (d * d + b2 or 1e-20)
                else:
                    s = 0j
                    for w in [*roots[:i], *roots[i + 1:], *mirrors]:  # one list, where + makes two
                        s += one / (z - w or 1e-20)
                denom = 1 - ratio * s
                step = ratio if denom == 0 else ratio / denom
                z = z - step
                size, modulus = abs(step), abs(z)
                moving = size / (1 + modulus) >= 1e-14 and size >= basin * modulus  # false for a NaN step
            roots[i] = z
            if i >= pairs:
                mirrors[i - pairs] = z.conjugate()
                conics[i - pairs] = (z.real, z.imag * z.imag)
            if moving:
                still.append(i)
        active = still
        # residuals at machine level end the solve too: a strict step bound can
        # limit-cycle in the last ulp near clustered roots
        if not active or all(v < resid_floor for v in values):
            return roots, sweep, evaluations
    raise ConvergenceError(
        f"root iteration did not settle in {MAX_ITERATIONS} sweeps", best=roots
    )


def _newton_polish(top, rest, z):
    """Up to three Newton steps from z: the polished z, p(z) and the evaluations made.
    p comes reversed, as ``_certified`` forms it once per solve: its lead, then the rest
    from z^(d-1) down to z^0.  A real root comes with the real parts of the row and
    is polished in float arithmetic; every other root in complex.

    A step below the rounding floor 2^-52 |z| ends the polish at the point it was
    evaluated at: the step would move z by about an ulp at most.
    """
    for k in range(1, 5):
        p, dp = top, top - top  # 0j, or 0.0 on a real row
        for c in rest:
            dp = dp * z + p
            p = p * z + c
        if k == 4 or p == 0 or dp == 0:
            return z, p, k
        step = p / dp
        size, modulus = abs(step), abs(z)
        if size > 1e-2 * (1 + modulus) or size < ROUNDING_FLOOR * modulus:
            return z, p, k  # polish must not wander off a converged iterate, nor chase its last bit
        z = z - step


def _certified(coeffs, start=None, pairs_from=None):
    """``_aberth`` and the polish, certified |p(z)| <= DEFAULT_TOL * (1 + max|c|) at each
    root: (roots, largest residual, sweeps, root evaluations of both).  The reals before
    ``pairs_from`` come back as floats, polished on the real row.  ConvergenceError,
    with the best iterate, when the bound fails or a value overflows or is not finite.
    The bound reads ``DEFAULT_TOL`` at each call: every solve has this one certificate."""
    bound = DEFAULT_TOL * (1 + max(map(abs, coeffs)))
    polished = []
    sweeps = evaluations = 0
    try:
        if len(coeffs) > 1:
            found, sweeps, evaluations = _aberth(coeffs, start, pairs_from)
            top, rest = coeffs[-1], coeffs[-2::-1]
            reals = pairs_from or 0
            real_rest = [a.real for a in rest]
            polished = [_newton_polish(top.real, real_rest, x) for x in found[:reals]]
            polished += [_newton_polish(top, rest, z) for z in found[reals:]]
        found = [z for z, _, _ in polished]
        residuals = [abs(p) for _, p, _ in polished]
        evaluations += sum(k for _, _, k in polished)
    except OverflowError as exc:
        raise ConvergenceError(f"root iteration overflowed: {exc}") from exc
    # the iteration can settle on NaN iterates (max() drops a NaN): refuse them
    if not all(map(cmath.isfinite, found + residuals)):
        raise ConvergenceError("non-finite root or residual", best=found)
    residual_max = max(residuals, default=0.0)
    if residual_max > bound:
        raise ConvergenceError(f"residual {residual_max:.3e} exceeds bound {bound:.3e}", best=found)
    return found, residual_max, sweeps, evaluations


def find_zeros(p: Polynomial, *, omega: float = math.nan) -> ZeroSet:
    """All roots of p, solved cold and certified |p(z)| <= DEFAULT_TOL * (1 + max|coeff|).

    Origin roots are deflated analytically first whenever the constant term is
    exactly zero; only they are tagged ORIGIN.  Raises DomainError for a
    coefficient that is not finite as a double, and ConvergenceError (carrying
    the best iterate) if the residual bound cannot be certified, if an iterate
    or residual overflows or is not finite, or if fewer roots than the degree
    are found.  The bound only accepts or refuses: it never changes a root.
    """
    if p.is_zero or p.degree < 1:
        raise DomainError("root finding needs a nonzero polynomial of degree >= 1")
    # complex throughout: Horner steps mixing float and complex ran ~7% slower
    coeffs = list(map(complex, p.to_inexact().coeffs))
    if not all(map(cmath.isfinite, coeffs)):
        raise DomainError("root finding needs finite coefficients")
    n = len(coeffs) - 1

    origin_mult = 0
    while coeffs[0] == 0:
        origin_mult += 1
        coeffs = coeffs[1:]

    found, residual_max, sweeps, evaluations = _certified(coeffs)  # deflation keeps max|c|
    if len(found) < len(coeffs) - 1:  # coefficients that vanish against the lead give no start
        raise ConvergenceError(f"{len(found)} roots found for degree {len(coeffs) - 1}", best=found)
    roots = [(0j, ZeroTag.ORIGIN)] * origin_mult
    roots += [(z, _tag_root(z)) for z in sorted(found, key=lambda z: (z.real, z.imag))]
    return ZeroSet(
        roots=tuple(roots), n=n, omega=omega, residual_max=residual_max,
        iterations=sweeps, evaluations=evaluations,
    )


def zeros_of(n: int, omega) -> ZeroSet:
    """Roots of the degree-n family member, found by ``find_zeros`` on its exact
    coefficients rounded once (``skypoly._float_row``, which is
    ``construct(n, omega).to_inexact()`` bit for bit).

    The coefficients are real, so a set whose off-axis roots do not split
    evenly into upper and lower ones is wrong and raises ConvergenceError.
    """
    n, om = as_member(n, omega)
    zs = find_zeros(Polynomial(_member_row(n, om)), omega=as_real(om, "omega"))
    off_axis = [z for z in zs.values() if not _on_axis(z)]
    upper = sum(z.imag > 0 for z in off_axis)
    if 2 * upper != len(off_axis):
        raise ConvergenceError(
            f"{upper} upper and {len(off_axis) - upper} lower off-axis roots: "
            "the set is not conjugate-symmetric", best=zs.values())
    return zs


def classify(zs: ZeroSet) -> ZeroCounts:
    """Tag counts.  For non-integer omega in (m, m+1) with m <= n-1 the family
    puts m+1 roots in (-1, 0), one positive-real root iff n-m is even, and the
    rest off-axis; for omega > n all n roots are in (-1, 0).  A negative omega
    can put real roots at or below -1 (``neg_outer``): S_1^(-13/9) at -3.25."""
    tags = [tag for _, tag in zs.roots]
    return ZeroCounts(
        neg_unit=tags.count(ZeroTag.NEG_UNIT),
        pos_real=tags.count(ZeroTag.POS_REAL),
        complex_offaxis=tags.count(ZeroTag.COMPLEX),
        origin=tags.count(ZeroTag.ORIGIN),
        neg_outer=tags.count(ZeroTag.NEG_OUTER),
    )


def emergence_angles(n: int, m: int, eps: float) -> tuple:
    """Sorted arguments (mod 2*pi) of the n-m smallest roots of S_n^(m+eps).

    As eps -> 0 these approach {pi + 2*pi*k/(n-m)}; the set contains the
    positive ray exactly when n-m is even.  The angles are those of the
    measured roots: at finite eps the cluster has radius ~eps^(1/(n-m))
    (Newton polygon of S_n^(m+eps) at 0) and its deviation from the limit
    rays is O(eps^(1/(n-m))), about 0.06..0.08 rad at eps = 0.01.
    """
    n, m, eps = as_degree(n), as_integer(m, "an integer parameter"), as_omega(eps)
    if not 0 <= m <= n - 1:
        raise DomainError(f"need integers 0 <= m <= n-1, got (n={n}, m={m})")
    if not 0 < eps <= 0.05:
        raise DomainError(f"offset must lie in (0, 0.05], got {eps}")
    zs = zeros_of(n, m + as_fraction(eps))
    ordered = sorted(zs.values(), key=abs)
    cluster = ordered[: n - m]
    return tuple(sorted(cmath.phase(z) % (2 * math.pi) for z in cluster))


def fizzle_gap(n: int, omega) -> float:
    """max_k |z_k + 1| over the roots, for omega > n.

    Found from the expansion about -1 (exact coefficients, rounded once): for
    large omega the roots cluster at -1, where the shifted basis stays well
    conditioned while the monomial basis loses most of its accuracy.  The
    roots are certified to ``DEFAULT_TOL`` as every other solve is.  Every
    zero lies in (-1, 0) here, so a gap of 1 or more (or NaN) is wrong and
    raises ConvergenceError.
    """
    n, om = as_member(n, omega)
    if not as_fraction(om) > n:
        raise DomainError(f"fizzle regime needs omega > n, got omega={om}, n={n}")
    if n == 0:
        return 0.0
    zs = find_zeros(Polynomial(taylor_about_minus_one(n, om)))
    gap = max(abs(t) for t in zs.values())
    if not gap < 1:
        raise ConvergenceError(f"fizzle gap {gap} at n={n}, omega={om} is not below 1", best=zs.values())
    return gap


def simplicity_margin(zs: ZeroSet) -> float:
    """Minimum pairwise distance among non-origin roots; inf for fewer than two."""
    vals = [z for z, tag in zs.roots if tag is not ZeroTag.ORIGIN]
    if len(vals) < 2:
        return math.inf
    return min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])


# ---------------------------------------------------------------------------
# continuation in omega
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryBundle:
    """Matched zero paths over an increasing omega grid.

    paths[i][k] is the position of path i at omega_grid[k]; burst_events lists
    the integers crossed.  Within an integer-free stretch consecutive path
    positions differ by less than ``MATCH_THRESHOLD``.  Every position comes
    out of ``_seeded``: a real has imaginary part 0.0 and an off-axis root's
    partner is its exact conjugate.  A seeded step keeps each path at its
    layout index; a layout past a crossing is assigned by the minimum total
    distance (matching through a burst is ill-posed, the event marks it).

    Segment ends sit INTEGER_OFFSET (or the requested start) away from the
    integer j they approach, where the k = n-j roots that collapse onto the
    origin at j still have radius ~|c_0/c_k|^(1/k), e.g. 0.19 for k = 8 at
    1e-3; the loops reach the origin only in the limit.
    """

    omega_grid: tuple
    paths: tuple
    burst_events: tuple
    rejected_steps: int = 0  # steps halved: a refused seed, or root sets that moved MATCH_THRESHOLD or more
    evaluations: int = 0     # root evaluations, Aberth's and the polish's, of every certified solve

    @property
    def cold_solves(self) -> int:
        """Solves started cold: the first point and one past each crossing."""
        return 1 + len(self.burst_events)

    def segment_slices(self) -> list:
        """Inclusive index ranges of the grid between consecutive integer crossings."""
        out = []
        lo = 0
        for k in range(len(self.omega_grid) - 1):
            if math.floor(self.omega_grid[k]) != math.floor(self.omega_grid[k + 1]):
                out.append((lo, k))
                lo = k + 1
        out.append((lo, len(self.omega_grid) - 1))
        return out


def _seeded(n: int, omega: float, reals: list, uppers: list) -> tuple:
    """The layout at omega, refined from seeds near its roots and certified to
    ``DEFAULT_TOL``: the sorted reals as complex(x, 0.0), then each upper in seed
    order followed by its exact conjugate.

    Also returns its root evaluations.  Only the reals and the uppers are iterated: the
    reals (the real parts of their seeds) as floats, Aberth's and the polish's, and each
    upper with its conjugate mirrored.  ``trace`` seeds it with a prediction from the
    segment's layouts, or with the on-axis reals and the uppers of a cold ``zeros_of`` set
    at omega itself, whose row it reads again from ``_member_row``.  S_n(0) and S_n(-1) are
    nonzero off the integers, so a real that crosses 0 or -1 raises ConvergenceError, as do
    an upper on or below the axis and two roots equal as doubles (two seeds can settle on
    one root).
    """
    r = len(reals)
    found, _, _, evaluations = _certified(_member_row(n, omega), reals + uppers, r)
    settled, uppers = sorted(found[:r]), found[r:]
    kept = all((x > 0, x > -1) == (s.real > 0, s.real > -1) for x, s in zip(found, reals))
    if not kept or any(_on_axis(u) or u.imag < 0 for u in uppers):
        raise ConvergenceError("a seeded root left its side of the real axis, of 0 or of -1", best=found)
    if len(set(settled)) < r or len(set(uppers)) < len(uppers):
        raise ConvergenceError("two seeded roots settled on one point", best=found)
    return [complex(x, 0.0) for x in settled] + [w for u in uppers for w in (u, u.conjugate())], evaluations


def _predicted(segment: list, target: float, r: int) -> tuple:
    """Seeds (reals, uppers) for the step to target: the Lagrange polynomial through the
    segment's accepted layouts (at most three, the latest last) at target, summed left to
    right as ``_aberth`` sums; a real's imaginary part stays 0.0.  The latest layout itself
    when a predicted real would cross 0 or -1 or a predicted upper would reach the axis."""
    ws = [w for w, _ in segment]
    weights = [math.prod((target - v) / (w - v) for v in ws if v != w) for w in ws]
    latest = segment[-1][1]
    seeds = []
    for k in [*range(r), *range(r, len(latest), 2)]:
        z = 0j
        for c, (_, layout) in zip(weights, segment):
            z += c * layout[k]
        x = latest[k]
        if (k < r and (z.real > 0, z.real > -1) != (x.real > 0, x.real > -1)
                or k >= r and (not z.imag > 0 or _on_axis(z))):
            return latest[:r], latest[r::2]
        seeds.append(z)
    return seeds[:r], seeds[r:]


def _assign(xs, ys) -> list:
    """Bijection i -> perm[i] minimising sum |xs[i] - ys[perm[i]]|.

    Hungarian method in O(k^3): rows are added one at a time, each by a
    shortest augmenting path over reduced costs, with row and column potentials
    kept feasible throughout (Kuhn-Munkres, Jonker-Volgenant form).  Ties go to
    the lowest column index, so the result is deterministic.  ``trace`` runs it
    at integer crossings only.
    """
    k = len(xs)
    if len(ys) != k:
        raise ValueError("assignment needs equal sizes")
    # 1-based arrays; column 0 is a virtual start whose owner is the row being added
    u = [0.0] * (k + 1)
    v = [0.0] * (k + 1)
    owner = [0] * (k + 1)
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (k + 1)
        used = [False] * (k + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = abs(xs[i0 - 1] - ys[j - 1]) - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(k + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    perm = [0] * k
    for j in range(1, k + 1):
        perm[owner[j] - 1] = j - 1
    return perm


def _clamp_away(w: float, upward: bool) -> float:
    nearest = round(w)
    if abs(w - nearest) < INTEGER_OFFSET:
        return nearest + INTEGER_OFFSET if upward else nearest - INTEGER_OFFSET
    return w


def trace(n: int, omega_start: float, omega_end: float) -> TrajectoryBundle:
    """Continuation of all n zeros over [omega_start, omega_end].

    The grid keeps a fixed offset from every integer (the family degenerates
    there); integer crossings hop from m - offset to m + offset, are matched by
    the minimum total distance over the layouts at a crossing, and are recorded
    as burst events.  The step is ``BASE_STEP`` (read at each call) at the start
    and past each crossing; it is halved until the seeded solve is accepted and
    moves no root ``MATCH_THRESHOLD`` or more, and doubles back up to ``BASE_STEP``
    after each accepted step.  At MIN_STEP a refusal or a move raises
    TrackingError, chained to the refusal.  Every solve is certified to
    ``DEFAULT_TOL``.  A non-finite end, a range wider than MAX_SPAN or an end past
    about 2**33 (doubles MIN_STEP apart) raises DomainError.

    Each solve inside a segment is seeded by ``_predicted`` (the quadratic through
    the segment's last three layouts, the line through two, else the layout) and
    takes about 1.6 Aberth sweeps, each root only until it is in Newton's basin,
    where a cold start takes some 9.  ``_seeded`` keeps its reals real and on
    their side of 0 and -1, its uppers above the axis and its seed's order, the
    step's matching, or refuses.
    A step's move is measured from the accepted layout, not the prediction.
    Only the first grid point and each point past a crossing, where the
    real-root count changes, are solved cold: the cold set's on-axis reals and
    uppers seed ``_seeded`` at the same omega, a refusal there raises its
    ConvergenceError, and ``_assign`` matches across the crossing.

    Because of the offset the end points of each segment are not at the
    origin: the k = n-j roots collapsing at the integer j sit at radius
    ~|c_0/c_k|^(1/k) ~ offset^(1/k) there (0.19 for n = 9, j = 1 at 1e-3).
    """
    if (n := as_integer(n, "a degree")) < 1:
        raise DomainError("continuation needs degree >= 1")
    omega_start, omega_end = as_real(omega_start, "omega_start"), as_real(omega_end, "omega_end")
    if not (math.isfinite(omega_start) and math.isfinite(omega_end)):
        raise DomainError(f"omega range must be finite, got [{omega_start}, {omega_end}]")
    if not (0 <= omega_start < omega_end):
        raise DomainError("need 0 <= omega_start < omega_end")
    if omega_end - omega_start > MAX_SPAN:
        raise DomainError(f"omega range wider than {MAX_SPAN}: [{omega_start}, {omega_end}]")

    start = _clamp_away(omega_start, upward=omega_start >= round(omega_start))
    end = _clamp_away(omega_end, upward=omega_end > round(omega_end))
    if start >= end:
        raise DomainError("empty range after integer-offset clamping")
    if math.ulp(end) >= MIN_STEP:  # the grid would stop advancing: current + h == current
        raise DomainError(f"omega range ends where doubles are {math.ulp(end)} apart, not below {MIN_STEP}")

    def cold(w: float):
        values = (zs := zeros_of(n, w)).values()
        reals = [z for z in values if _on_axis(z)]
        layout, spent = _seeded(n, w, reals, [z for z in values if z.imag > 0 and not _on_axis(z)])
        return layout, len(reals), zs.evaluations + spent

    current = start
    roots, r, evaluations = cold(current)
    segment = [(current, roots)]  # the segment's last accepted layouts, at most three
    grid = [current]
    events = []
    paths = [[z] for z in roots]
    positions = list(range(len(paths)))
    h, rejected = BASE_STEP, 0
    while current < end - 1e-12:
        next_int = math.floor(current) + 1
        pre_boundary = next_int - INTEGER_OFFSET
        if abs(current - pre_boundary) < 1e-12 and pre_boundary < end:
            target = next_int + INTEGER_OFFSET
            new_roots, r, spent = cold(target)
            evaluations += spent
            perm = _assign(roots, new_roots)
            positions = [perm[k] for k in positions]
            events.append(next_int)
            segment = []
            h = BASE_STEP
        else:
            target = min(current + h, pre_boundary, end)
            try:  # the seed's order is the matching: every path keeps its layout index
                new_roots, spent = _seeded(n, target, *_predicted(segment, target, r))
            except ConvergenceError as exc:
                refusal, disp = exc, math.inf
            else:
                evaluations += spent
                refusal, disp = None, max(abs(z - w) for z, w in zip(roots, new_roots))
            if disp >= MATCH_THRESHOLD:
                if target - current <= MIN_STEP:
                    why = (f"moved {disp:.3f}, beyond threshold {MATCH_THRESHOLD}," if refusal is None
                           else f"could not be matched, the seed was refused ({refusal}),")
                    raise TrackingError(f"root sets at omega={current!r} and {target!r} {why} with the step "
                                        "already at its floor", omega=target) from refusal
                h = (target - current) / 2
                rejected += 1
                continue
            h = min(BASE_STEP, 2 * h)
        for path, k in zip(paths, positions):
            path.append(new_roots[k])
        grid.append(target)
        current, roots = target, new_roots
        segment = [*segment[-2:], (current, roots)]

    return TrajectoryBundle(
        omega_grid=tuple(grid),
        paths=tuple(tuple(p) for p in paths),
        burst_events=tuple(events),
        rejected_steps=rejected,
        evaluations=evaluations,
    )
