"""Monic polynomials orthogonal on the unit circle for the weight z^(omega-1).

Three independent construction routes (coefficient formula, moment linear
system, mixed recurrence), exact-rational identity verification for the full
recurrence family, and numerical zero-trajectory analysis across the
parameter omega.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    ExistenceError,
    PoleError,
    TrackingError,
)
from .moments import (
    bilinear,
    construct_determinantal,
    moment,
    r_nk,
    reduced_moment,
    toeplitz_det_closed,
    toeplitz_det_direct,
)
from .recurrences import (
    DEFAULT_OMEGA_GRID,
    IdentityReport,
    differential_step,
    genfun_compare,
    lifting,
    lifting_printed,
    lowering,
    ode_residual,
    run_identity_suite,
    step_mixed,
    step_omega_up,
    step_omega_up_printed,
)
from .scalarfield import as_degree, as_omega, parse_rational, pochhammer
from .skypoly import (
    Polynomial,
    construct,
    construct_series,
    construct_via_symmetry,
    derivative_at_minus_one,
    reflect_negative_omega,
    star,
    taylor_about_minus_one,
    value_at_zero,
)
from .zeros import (
    TrajectoryBundle,
    ZeroCounts,
    ZeroSet,
    ZeroTag,
    classify,
    emergence_angles,
    find_zeros,
    fizzle_gap,
    simplicity_margin,
    trace,
    zeros_of,
)

__version__ = "0.1.0"
