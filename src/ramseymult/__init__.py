"""Computational lower bounds for Ramsey multiplicity constants.

The package follows one quantity through four independent routes: the
minimum density of monochromatic t-cliques forced in every two-colouring
of a large complete graph.  A lattice-path dynamic program under
arbitrary threshold tables, a closed recurrence under optimal thresholds,
an ODE limit for the governing growth constant, and an exhaustive oracle
on small graphs all bound or cross-check each other.
"""

from .analytic import (
    AnalyticConstants,
    InvalidEpsilon,
    Overflow,
    PatchSequence,
    assemble_patched_thresholds,
    build_patch_sequence,
    constant_from_limit,
    default_patch_width,
    elementary_ratio,
    estimate_limit_constants,
    find_seed,
    solve_threshold_ode,
    threshold_field,
)
from .lattice import (
    BoundTable,
    LatticePath,
    OutOfRange,
    ThresholdSequence,
    TooMany,
    dp_min_weight,
    enumerate_paths,
    path_weight,
    ramsey_bound,
    ramsey_table,
)
from .numerics import (
    BudgetExceeded,
    Degenerate,
    NoBracket,
    SingularField,
    Trajectory,
    bisect,
    fit_quadratic_leading,
    integrate,
)
from .oracle import (
    ColoringRecord,
    MinimumReport,
    SampleReport,
    TooLarge,
    count_mono_cliques,
    count_mono_cliques_fast,
    exact_min,
    ratio_series,
    sample_against_bounds,
)
from .recurrence import (
    ClassicalBounds,
    ConstantEstimate,
    MultiIndexTable,
    WindowTooSmall,
    alpha_estimate,
    build_table,
    classical_bounds,
    estimate_growth_constant,
    multicolor_table,
    optimal_thresholds,
    uniform_exponents,
)

__version__ = "0.1.0"
