"""kpplab: a numerical laboratory for KPP spreading dynamics.

Three dispersal mechanisms (Laplacian, compact convolution kernel,
nearest-neighbor lattice exchange), localized spatial inhomogeneity of
the growth law, positive stationary states via monotone iteration and
Newton, and theoretical spreading speeds from dispersion relations,
with front tracking experiments that verify the predictions at desk
scale.
"""

from .domain import (
    CLAMP,
    CONTINUUM,
    LATTICE,
    PERIODIC,
    DomainSizeError,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    Reaction,
    make_compact_initial,
    make_front_initial,
    mollifier_bump,
    unit_direction,
)
from .dispersal import DISCRETE, KINDS, NONLOCAL, RANDOM, DispersalOperator
from .dynamics import (
    RK4,
    IntegrationDivergedError,
    StabilityError,
    Trajectory,
    check_comparison,
    check_exponential_supersolution,
    check_part_metric_decay,
    evolve,
    part_metric,
    stability_dt_bound,
)
from .eigen import (
    CellOperator,
    EigenResult,
    PeriodicCoefficient,
    PowerIterationError,
    assemble_cell_operator,
    check_average_lower_bound,
    check_eigenvalue_existence,
    closed_form_eigenvalue,
    principal_eigenvalue,
)
from .speeds import (
    BracketEdgeError,
    DispersionRelation,
    SpeedResult,
    minimize_speed,
    theoretical_speed,
)
from .stationary import (
    PeriodTooLargeError,
    StationaryConvergenceError,
    StationaryResult,
    SubSolutionError,
    check_tail,
    periodic_minorant,
    solve_stationary,
    sub_solution,
)
from .experiments import (
    FrontTrace,
    SpeedEstimate,
    ConeEmptyError,
    estimate_speed,
    run_compact_spreading_checks,
    run_speed_invariance_sweep,
    track_front,
    verify_spreading_cones,
)

__version__ = "0.1.0"
