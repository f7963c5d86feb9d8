"""Computational lower bounds for Ramsey multiplicity constants.

The package follows one quantity through four independent routes: the
minimum density of monochromatic t-cliques forced in every two-colouring
of a large complete graph.  A lattice-path dynamic program under
arbitrary threshold tables, a closed recurrence under optimal thresholds,
an ODE limit for the governing growth constant, and an exhaustive oracle
on small graphs all bound or cross-check each other.

Public names resolve on first access (PEP 562): ``import ramseymult``
loads neither numpy nor any submodule until a name is used.
"""

import importlib

# the submodule that defines each public name
_SOURCES = {
    "analytic": (
        "AnalyticConstants",
        "InvalidEpsilon",
        "Overflow",
        "PatchSequence",
        "assemble_patched_thresholds",
        "build_patch_sequence",
        "constant_from_limit",
        "default_patch_width",
        "estimate_limit_constants",
        "find_seed",
        "solve_threshold_ode",
        "threshold_field",
    ),
    "lattice": (
        "BoundTable",
        "LatticePath",
        "OutOfRange",
        "ThresholdSequence",
        "TooMany",
        "dp_min_weight",
        "enumerate_paths",
        "path_weight",
        "ramsey_bound",
        "ramsey_table",
    ),
    "numerics": (
        "BudgetExceeded",
        "Degenerate",
        "NoBracket",
        "SingularField",
        "Trajectory",
        "bisect",
        "fit_quadratic_leading",
        "integrate",
    ),
    "oracle": (
        "ColoringRecord",
        "MinimumReport",
        "SampleReport",
        "TooLarge",
        "count_mono_cliques",
        "count_mono_cliques_fast",
        "exact_min",
        "ratio_series",
        "sample_against_bounds",
    ),
    "recurrence": (
        "ConstantEstimate",
        "WindowTooSmall",
        "alpha_estimate",
        "build_table",
        "estimate_growth_constant",
        "multicolor_table",
        "optimal_thresholds",
        "uniform_exponents",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SOURCES:  # ``ramseymult.oracle`` without importing it first
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SOURCES})
