"""Byzantine-robust vector aggregation with enclosing-ball validity
certification."""

from .aggregate import (
    AggregateResult,
    CandidateBalls,
    RULES,
    candidate_balls,
    coordwise_median,
    geometric_median,
    mda,
    mean_aggregate,
    medoid,
    minmax_meb,
    run_rule,
    solve_minmax,
)
from .errors import (
    ConflictingZeroRadiusError,
    DimensionMismatchError,
    EmptyInputError,
    InstanceTooLargeError,
    InvalidFaultBudgetError,
    InvalidParamsError,
    InvalidTangentConfigurationError,
    MebaggError,
    NonConvergenceError,
    ParseError,
    ResilienceViolationError,
    TooManySubsetsError,
    ZeroRadiusError,
)
from .geometry import (
    Ball,
    TrustedBox,
    diameter,
    dist_to_ball,
    dist_to_hull,
    meb,
    soddy_inner_bend,
    trusted_box,
)
from .oracle import (
    candidate_balls_bruteforce,
    circumball,
    exhaustive_factor,
    grid_minmax,
    meb_bruteforce,
    worst_designation,
)
from .pointset import BYZANTINE, HONEST, PointSet
from .scenarios import (
    ScenarioInstance,
    ScenarioSpec,
    gm_convex_violation_instance,
    gm_impossibility_instance,
    lower_bound_construction,
    medoid_counterexample,
    random_instance,
    tangent_unit_balls,
)
from .validity import (
    Certificate,
    RelationReport,
    RELATIONS,
    check_bias_bound,
    check_box,
    check_c_meb,
    check_convex,
    check_relaxed_convex,
    phi,
    relation_check,
    safe_meb_empty,
    safe_meb_value,
    theoretical_bound,
)

__version__ = "0.1.0"
