"""Computational lower bounds for Ramsey multiplicity constants.

The package follows one quantity through four independent routes: the
minimum density of monochromatic t-cliques forced in every two-colouring
of a large complete graph.  A lattice-path dynamic program under
arbitrary threshold tables, a closed recurrence under optimal thresholds,
an ODE limit for the governing growth constant, and an exhaustive oracle
on small graphs all bound or cross-check each other.

Each public name lives in the submodule that defines it, and
``import ramseymult`` alone loads neither numpy nor any submodule.
"""

__version__ = "0.1.0"
