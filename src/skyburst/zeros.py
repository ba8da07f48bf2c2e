"""Root finding, zero classification, emergence angles, and parameter continuation.

The qualitative picture as omega grows through (m, m+1): m+1 simple zeros sit
in (-1, 0); the other n-m-1 loop through the complex plane, leaving and
re-entering the origin at the integers ("bursts"); a positive-real looper
exists exactly when n-m is even.  Once omega > n all zeros are trapped in
(-1, 0) and drift to -1 ("fizzle").

Roots are computed by simultaneous Aberth iteration with a Newton polish;
float coefficients always come from the exact rational coefficients rounded
once, so the conditioning of the coefficient sum never contaminates the
input to the root finder.

A solve starts cold, from a circle of radius 1 + max|c|, unless it is given
start points.  ``trace`` seeds each solve inside an integer-free segment with
the roots it accepted at the previous grid point (continuation by warm
start).  It solves cold at the first grid point and past each integer
crossing: the real-root count changes there, and an exactly real seed cannot
leave the real axis.  A seeded solve that fails is repeated once cold.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, TrackingError
from .scalarfield import as_degree, as_fraction, as_integer, as_member, as_omega, as_point, as_real
from .skypoly import Polynomial, construct, taylor_about_minus_one

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
    "ORIGIN_TOL",
    "SIMPLICITY_THRESHOLD",
    "INTEGER_OFFSET",
    "DEFAULT_TOL",
]

AXIS_TOL = 1e-9          # |Im z| <= AXIS_TOL * (1 + |z|) counts as real
ORIGIN_TOL = 1e-12       # |z| <= ORIGIN_TOL counts as the origin (post-deflation)
SIMPLICITY_THRESHOLD = 1e-6
INTEGER_OFFSET = 1e-3    # continuation grids never sample closer to an integer
MIN_STEP = 1e-6
MAX_ITERATIONS = 500
DEFAULT_TOL = 1e-10
MAX_SPAN = 1000.0        # widest omega range trace accepts: at the default step, some 50,000 grid points


class ZeroTag(str, Enum):
    NEG_UNIT = "neg_unit"
    POS_REAL = "pos_real"
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

    def values(self, include_origin: bool = True) -> list:
        return [z for z, tag in self.roots if include_origin or tag is not ZeroTag.ORIGIN]


@dataclass(frozen=True)
class ZeroCounts:
    neg_unit: int
    pos_real: int
    complex_offaxis: int
    origin: int


def _on_axis(z: complex) -> bool:
    return abs(z.imag) <= AXIS_TOL * (1 + abs(z))


def _tag_root(z: complex) -> ZeroTag:
    if abs(z) <= ORIGIN_TOL:
        return ZeroTag.ORIGIN
    if _on_axis(z):
        if -1 < z.real < 0:
            return ZeroTag.NEG_UNIT
        if z.real > 0:
            return ZeroTag.POS_REAL
    return ZeroTag.COMPLEX


_ONE = 1 + 0j  # 1 / dz gives the same bits but coerces the int on every term


def _horner_pair(coeffs, z):
    """Value and derivative at z for an ascending coefficient list."""
    p = coeffs[-1]
    dp = 0j
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth(coeffs, start=None):
    """All roots of an ascending complex coefficient list with nonzero constant
    term, and the number of sweeps taken.

    Simultaneous (Ehrlich-style) iteration.  A cold solve starts from
    equispaced points on a circle of radius 1 + max|c_k|, rotated half a
    radian to break symmetry, and takes some 25 sweeps at small degree.  Given
    start points near the roots (one per root, as ``trace`` passes the roots
    of the previous grid point) it settles in a few sweeps.

    Every pinned root set depends on the order of the arithmetic here, which
    is the same as that of ``_horner_pair`` and a loop over j:
    - Gauss-Seidel order: root i is updated in place, so it sees the roots
      j < i of this sweep and the roots j > i of the last one.
    - The correction sum over j != i is accumulated left to right from 0j,
      and a difference of exactly 0 is replaced by 1e-20.  ``sum()`` is not
      used: from Python 3.12 it sums floats with compensation, so the roots
      would depend on the Python version.
    - Every root is swept until all have settled, converged ones included:
      skipping one would change the sums the others see.
    ``test_zeros_of_pinned``, ``TestTrace::test_grid_and_bursts_pinned`` and
    the ``test_aberth_*_is_the_reference_sweep_bit_for_bit`` tests enforce it.
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    c = [x / lead for x in coeffs]
    top, rest = c[-1], c[-2::-1]
    resid_floor = 64 * 2.220446049250313e-16 * (1 + max(abs(x) for x in c))
    if start is None:
        radius = 1.0 + max(abs(x) for x in c[:-1])
        roots = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.5)) for k in range(d)]
    else:
        roots = [as_point(z, "a start point") for z in start]
    for sweep in range(1, MAX_ITERATIONS + 1):
        biggest = 0.0
        worst_value = 0.0
        for i, z in enumerate(roots):
            p, dp = top, 0j
            for a in rest:
                dp = dp * z + p
                p = p * z + a
            # a NaN never enters worst_value or biggest: NaN > x is false
            value = abs(p)
            if value > worst_value:
                worst_value = value
            if p == 0:
                continue
            if dp == 0:
                roots[i] = z * 1.0000001 + 1e-12
                biggest = math.inf
                continue
            ratio = p / dp
            s = 0j
            for w in roots[:i] + roots[i + 1:]:
                s += _ONE / (z - w or 1e-20)
            denom = 1 - ratio * s
            step = ratio if denom == 0 else ratio / denom
            z = roots[i] = z - step
            rel = abs(step) / (1 + abs(z))
            if rel > biggest:
                biggest = rel
        # step criterion, or machine-level residuals at every iterate (a strict
        # step bound can limit-cycle in the last ulp near clustered roots)
        if biggest < 1e-14 or worst_value < resid_floor:
            return roots, sweep
    raise ConvergenceError(
        f"root iteration did not settle in {MAX_ITERATIONS} sweeps", best=roots
    )


def _same_bits(x: complex, y: complex) -> bool:
    """x and y are the same double pair; unlike ==, this tells -0.0 from +0.0."""
    return (x == y
            and math.copysign(1.0, x.real) == math.copysign(1.0, y.real)
            and math.copysign(1.0, x.imag) == math.copysign(1.0, y.imag))


def _newton_polish(coeffs, z):
    """Up to three Newton steps from z: the polished z and p(z).

    A step that leaves z the same in every bit ends the polish, since each
    later step would repeat the same arithmetic at the same z.
    """
    for _ in range(3):
        p, dp = _horner_pair(coeffs, z)
        if p == 0 or dp == 0:
            return z, p
        step = p / dp
        if abs(step) > 1e-2 * (1 + abs(z)):
            return z, p  # polish must not wander off a converged iterate
        z_next = z - step
        if _same_bits(z_next, z):
            return z, p
        z = z_next
    return z, _horner_pair(coeffs, z)[0]


def find_zeros(
    p: Polynomial, tol: float = DEFAULT_TOL, omega: float = math.nan, start=None
) -> ZeroSet:
    """All roots of p with residual certification.

    Origin roots are deflated analytically first whenever the constant term is
    exactly zero.  ``start``, if given, holds one Aberth start point per root
    left after that deflation (DomainError otherwise); without it the solve
    starts cold.  Raises DomainError for a negative or non-finite tol or a
    coefficient outside the double range, and ConvergenceError (carrying the
    best iterate) if the residual bound tol * (1 + max|coeff|) cannot be
    certified, or if an iterate or residual overflows or is not finite.
    """
    if p.is_zero or p.degree < 1:
        raise DomainError("root finding needs a nonzero polynomial of degree >= 1")
    if not 0 <= (tol := as_real(tol, "a tolerance")) < math.inf:
        raise DomainError(f"tolerance must be finite and nonnegative, got {tol}")
    # complex throughout: Horner steps mixing float and complex ran ~7% slower
    coeffs = list(map(complex, p.to_inexact().coeffs))
    n = len(coeffs) - 1
    scale = 1 + max(abs(c) for c in coeffs)

    origin_mult = 0
    while coeffs[0] == 0:
        origin_mult += 1
        coeffs = coeffs[1:]

    if start is not None and len(start) != len(coeffs) - 1:
        raise DomainError(
            f"{len(start)} start points for {len(coeffs) - 1} roots after origin deflation"
        )

    polished = []
    sweeps = 0
    try:
        if len(coeffs) > 1:
            found, sweeps = _aberth(coeffs, start)
            polished = [_newton_polish(coeffs, z) for z in found]
        found = [z for z, _ in polished]
        residuals = [abs(p) for _, p in polished]
    except OverflowError as exc:
        raise ConvergenceError(f"root iteration overflowed: {exc}") from exc
    # the iteration can settle on NaN iterates (max() drops a NaN): refuse them
    if not all(map(cmath.isfinite, found + residuals)):
        raise ConvergenceError("non-finite root or residual", best=found)
    residual_max = max(residuals, default=0.0)
    if residual_max > tol * scale:
        raise ConvergenceError(
            f"residual {residual_max:.3e} exceeds bound {tol * scale:.3e}",
            best=found,
        )

    roots = [(0j, ZeroTag.ORIGIN)] * origin_mult
    roots += [(z, _tag_root(z)) for z in sorted(found, key=lambda z: (z.real, z.imag))]
    return ZeroSet(
        roots=tuple(roots), n=n, omega=omega, residual_max=residual_max, iterations=sweeps
    )


def zeros_of(n: int, omega, tol: float = DEFAULT_TOL, start=None) -> ZeroSet:
    """Roots of the degree-n family member: exact coefficients, rounded once.

    ``start`` seeds the root iteration as in ``find_zeros``.
    """
    n, om = as_member(n, omega)
    return find_zeros(construct(n, om), tol=tol, omega=as_real(om, "omega"), start=start)


def classify(zs: ZeroSet) -> ZeroCounts:
    """Tag counts.  For non-integer omega in (m, m+1) with m <= n-1 the family
    puts m+1 roots in (-1, 0), one positive-real root iff n-m is even, and the
    rest off-axis; for omega > n all n roots are in (-1, 0)."""
    tags = [tag for _, tag in zs.roots]
    return ZeroCounts(
        neg_unit=tags.count(ZeroTag.NEG_UNIT),
        pos_real=tags.count(ZeroTag.POS_REAL),
        complex_offaxis=tags.count(ZeroTag.COMPLEX),
        origin=tags.count(ZeroTag.ORIGIN),
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
    conditioned while the monomial basis loses most of its accuracy.  Every
    zero lies in (-1, 0) here, so a gap of 1 or more (or NaN) is wrong and
    raises ConvergenceError.
    """
    n, om = as_member(n, omega)
    if not as_fraction(om) > n:
        raise DomainError(f"fizzle regime needs omega > n, got omega={om}, n={n}")
    if n == 0:
        return 0.0
    zs = find_zeros(Polynomial(taylor_about_minus_one(n, om)), tol=1e-9)
    gap = max(abs(t) for t in zs.values())
    if not gap < 1:
        raise ConvergenceError(f"fizzle gap {gap} at n={n}, omega={om} is not below 1", best=zs.values())
    return gap


def simplicity_margin(zs: ZeroSet) -> float:
    """Minimum pairwise distance among non-origin roots; inf for fewer than two."""
    vals = zs.values(include_origin=False)
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
    positions differ by less than the match threshold used to build the
    bundle; across a burst the assignment is the minimum total distance over
    raw positions at a crossing (matching through a burst is ill-posed, the
    event marks it).

    Segment ends sit INTEGER_OFFSET (or the requested start) away from the
    integer j they approach, where the k = n-j roots that collapse onto the
    origin at j still have radius ~|c_0/c_k|^(1/k), e.g. 0.19 for k = 8 at
    1e-3; the loops reach the origin only in the limit.
    """

    omega_grid: tuple
    paths: tuple
    burst_events: tuple
    match_threshold: float

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


def _symmetrize(values):
    """(layout, r): the r sorted reals as complex(x, 0.0), then each upper root,
    averaged with its nearest mirrored lower, in (real, imag) order and followed
    by its conjugate.  An off-axis root left unpaired counts as real."""
    reals, uppers, lowers = [], [], []
    for z in values:
        if _on_axis(z):
            reals.append(z.real)
        elif z.imag > 0:
            uppers.append(z)
        else:
            lowers.append(z)
    paired = []
    for u in sorted(uppers, key=lambda z: (z.real, z.imag)):
        if lowers:
            j = min(range(len(lowers)), key=lambda j: abs(lowers[j].conjugate() - u))
            paired.append((u + lowers.pop(j).conjugate()) / 2)
        else:
            reals.append(u.real)
    reals += [z.real for z in lowers]
    layout = [complex(x, 0.0) for x in sorted(reals)]
    for u in sorted(paired, key=lambda z: (z.real, z.imag)):
        layout += (u, u.conjugate())
    return layout, len(reals)


def _assign(xs, ys) -> list:
    """Bijection i -> perm[i] minimising sum |xs[i] - ys[perm[i]]|.

    Hungarian method in O(k^3): rows are added one at a time, each by a
    shortest augmenting path over reduced costs, with row and column potentials
    kept feasible throughout (Kuhn-Munkres, Jonker-Volgenant form).  Ties go to
    the lowest column index, so the result is deterministic.
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


def _match(src, tgt, crossing: bool):
    """Permutation of layout indices src -> tgt, and the largest displacement.

    src and tgt are (layout, r) pairs from ``_symmetrize``.  Within a segment,
    reals are matched in sorted order (optimal in one dimension), upper
    representatives ``layout[r::2]`` by minimum total distance, and lowers
    mirror their uppers, so conjugate paths stay partners.  At a burst
    crossing, or when the real count changed, the minimum-total-distance
    assignment runs on the whole layouts.
    """
    (xs, r), (ys, r_tgt) = src, tgt
    if crossing or r != r_tgt:
        perm = _assign(xs, ys)
    else:
        perm = list(range(len(xs)))
        for j, tj in enumerate(_assign(xs[r::2], ys[r::2])):
            perm[r + 2 * j] = r + 2 * tj
            perm[r + 2 * j + 1] = r + 2 * tj + 1
    disp = max((abs(z - ys[j]) for z, j in zip(xs, perm)), default=0.0)
    return perm, disp


def _clamp_away(w: float, upward: bool) -> float:
    nearest = round(w)
    if abs(w - nearest) < INTEGER_OFFSET:
        return nearest + INTEGER_OFFSET if upward else nearest - INTEGER_OFFSET
    return w


def trace(
    n: int,
    omega_start: float,
    omega_end: float,
    base_step: float = 0.02,
    match_threshold: float = 0.1,
    tol: float = DEFAULT_TOL,
) -> TrajectoryBundle:
    """Continuation of all n zeros over [omega_start, omega_end].

    The grid keeps a fixed offset from every integer (the family degenerates
    there); integer crossings hop from m - offset to m + offset, are matched
    by the minimum total distance over raw positions at a crossing, and are
    recorded as burst events.  Within a segment the local step is halved until
    consecutive root sets match within match_threshold; a mismatch at a step of
    MIN_STEP raises TrackingError.  A non-finite end, a range wider than MAX_SPAN, a base_step
    below MIN_STEP or an end past about 2**33 (doubles MIN_STEP apart) raises DomainError.

    Each solve inside a segment is seeded with the roots accepted at the
    previous grid point, a few hundredths away, and settles in a few Aberth
    sweeps where a cold start takes some 25.  The first grid point and each
    point past an integer crossing are solved cold: the real-root count
    changes there, and an exactly real seed stays on the real axis.  A
    seeded solve that fails is repeated once cold.  The matching and the
    step halving check every seeded result as they check a cold one.

    Because of the offset the end points of each segment are not at the
    origin: the k = n-j roots collapsing at the integer j sit at radius
    ~|c_0/c_k|^(1/k) ~ offset^(1/k) there (0.19 for n = 9, j = 1 at 1e-3).
    """
    if (n := as_integer(n, "a degree")) < 1:
        raise DomainError("continuation needs degree >= 1")
    omega_start, omega_end = as_real(omega_start, "omega_start"), as_real(omega_end, "omega_end")
    base_step, match_threshold = as_real(base_step, "base_step"), as_real(match_threshold, "match_threshold")
    if not (math.isfinite(omega_start) and math.isfinite(omega_end)):
        raise DomainError(f"omega range must be finite, got [{omega_start}, {omega_end}]")
    if not (0 <= omega_start < omega_end):
        raise DomainError("need 0 <= omega_start < omega_end")
    if omega_end - omega_start > MAX_SPAN:
        raise DomainError(f"omega range wider than {MAX_SPAN}: [{omega_start}, {omega_end}]")
    # a NaN threshold would never reject a step; refuse it with the other non-finite values
    for name, value in (("base_step", base_step), ("match_threshold", match_threshold)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    if base_step < MIN_STEP:
        raise DomainError(f"base_step must be at least {MIN_STEP}, got {base_step}")

    start = _clamp_away(omega_start, upward=omega_start >= round(omega_start))
    end = _clamp_away(omega_end, upward=omega_end > round(omega_end))
    if start >= end:
        raise DomainError("empty range after integer-offset clamping")
    if math.ulp(end) >= MIN_STEP:  # the grid would stop advancing: current + h == current
        raise DomainError(f"omega range ends where doubles are {math.ulp(end)} apart, not below {MIN_STEP}")

    def solve(w: float, seed=None):
        if seed is not None:
            try:
                return _symmetrize(zeros_of(n, w, tol=tol, start=seed).values())
            except ConvergenceError:
                pass
        return _symmetrize(zeros_of(n, w, tol=tol).values())

    current = start
    roots, r = solve(current)
    grid = [current]
    events = []
    paths = [[z] for z in roots]
    positions = list(range(len(paths)))
    h = base_step
    while current < end - 1e-12:
        next_int = math.floor(current) + 1
        pre_boundary = next_int - INTEGER_OFFSET
        crossing = abs(current - pre_boundary) < 1e-12 and pre_boundary < end
        target = next_int + INTEGER_OFFSET if crossing else min(current + h, pre_boundary, end)
        new_roots, new_r = solve(target, None if crossing else roots)
        perm, disp = _match((roots, r), (new_roots, new_r), crossing)
        if not crossing and disp >= match_threshold:
            if target - current <= MIN_STEP:
                raise TrackingError(
                    f"root sets at omega={current:.6f} and {target:.6f} moved {disp:.3f}, "
                    f"beyond threshold {match_threshold}, with the step already at its floor",
                    omega=target,
                )
            h = (target - current) / 2
            continue
        for i, path in enumerate(paths):
            positions[i] = perm[positions[i]]
            path.append(new_roots[positions[i]])
        grid.append(target)
        if crossing:
            events.append(next_int)
        current, roots, r = target, new_roots, new_r
        h = base_step if crossing else min(base_step, 2 * h)

    return TrajectoryBundle(
        omega_grid=tuple(grid),
        paths=tuple(tuple(p) for p in paths),
        burst_events=tuple(events),
        match_threshold=match_threshold,
    )
