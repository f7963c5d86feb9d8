"""Continuum route to the growth constant, and the glue back to tables.

Rescaling the optimal-threshold recurrence along rays l = x * k turns the
balance condition into a one-dimensional ODE for the threshold profile
t(x):

    t'(x) = ln(t) * t * (1 - t) / (x - (1 + x) * t),    t(0) = eps.

The profile rises from eps to a limit L = t(1) that is insensitive to eps
(down a ladder of decades of eps, t(1) settles in the sixth decimal), and
the growth constant is C = (L * (1 - L))^(-1/2).

Near the diagonal the continuum picture breaks down, so assembled
threshold tables splice in a discrete patch sequence a_0 = 1/2,
a_{i+1} = 1 - (1 - a_i) * a_{i-1} / a_i, seeded so the patch meets the
ODE profile at offset w.  Beyond the patch they read t(x) from the
solver's own dense output, so each profile value is the solve's to its
tolerance.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numerics import (
    Estimate,
    NoBracket,
    NumericFailure,
    SingularField,
    Trajectory,
    bisect,
    integrate,
)

if TYPE_CHECKING:  # lattice is imported by the one function that uses it
    from .lattice import ThresholdSequence

_DENOMINATOR_FLOOR = -1e-12
_EPSILON_FLOOR = -_DENOMINATOR_FLOOR  # at x = 0 the field's denominator is -epsilon
_SEED_TOL = 1e-12


class InvalidEpsilon(ValueError):
    """Initial condition outside [``_EPSILON_FLOOR``, 1]; below the floor
    the solve would fail on its first field value."""


class Overflow(NumericFailure):
    """A patch entry left (0, 1)."""


def epsilon_ladder(eps_min: float) -> tuple[float, ...]:
    """Decades from 1e-2 down to, and including, eps_min; each is 1 / 10**d,
    the same double as the literal 1e-d.  Cheap, so callers refuse a ladder
    before other work: one rung, from an eps_min not clearly below 1e-2,
    has no spread to report and raises :class:`InvalidEpsilon`, as does an
    eps_min below ``_EPSILON_FLOOR``, which no solve can start from."""
    if not _EPSILON_FLOOR <= eps_min < 1.0:
        raise InvalidEpsilon(f"eps-min must lie in [{_EPSILON_FLOOR!r}, 1), got {eps_min!r}")
    d = 2
    while 1 / 10**d > eps_min * (1.0 + 1e-9):
        d += 1
    if d == 2:
        raise InvalidEpsilon("epsilon ladder needs at least two rungs for a spread, got 1")
    return tuple(1 / 10**e for e in range(2, d)) + (eps_min,)


def threshold_field(x: float, y: float) -> float:
    """Right-hand side of the threshold ODE.

    The denominator x - (1 + x) * y stays strictly negative along valid
    trajectories (the profile rides above the critical curve x / (1 + x));
    approaching zero from below means the solution is about to blow up,
    so anything above a small negative floor raises
    :class:`SingularField`.
    """
    if y <= 0.0:
        raise SingularField(f"threshold profile left (0, 1]: y={y!r}")
    den = x - (1.0 + x) * y
    if den > _DENOMINATOR_FLOOR:
        raise SingularField(
            f"denominator {den!r} at x={x!r}, y={y!r} is critically small"
        )
    return math.log(y) * y * (1.0 - y) / den


def solve_threshold_ode(epsilon: float, tol: float = 1e-10) -> Trajectory:
    """Integrate the threshold profile from t(0) = epsilon to x = 1.

    The returned trajectory is checked sample by sample: values must stay
    in (0, 1] and rise monotonically (up to integrator noise of 10*tol).
    """
    if not _EPSILON_FLOOR <= epsilon <= 1.0:
        raise InvalidEpsilon(f"epsilon must lie in [{_EPSILON_FLOOR!r}, 1], got {epsilon!r}")
    traj = integrate(threshold_field, 0.0, epsilon, 1.0, tol)
    ys = traj.ys
    if np.any(ys <= 0.0) or np.any(ys > 1.0 + 10.0 * tol):
        raise SingularField("trajectory left (0, 1]")
    if np.any(np.diff(ys) < -10.0 * tol):
        raise SingularField("trajectory lost monotonicity")
    return traj


def constant_from_limit(t1: float) -> float:
    """Growth constant from the profile endpoint: (t1 * (1 - t1))^(-1/2)."""
    if not 0.0 < t1 < 1.0:
        raise ValueError(f"profile endpoint must lie in (0, 1), got {t1!r}")
    return (t1 * (1.0 - t1)) ** -0.5


def limit_constant(epsilon: float, tol: float = 1e-10) -> Estimate:
    """C from the endpoint ``t1_limit`` of one solve from t(0) = epsilon."""
    t1 = solve_threshold_ode(epsilon, tol).final_value
    c = constant_from_limit(t1)
    return Estimate(c, math.log(c), {"t1_limit": t1})


def estimate_limit_constants(eps_min: float = 1e-7, tol: float = 1e-10) -> tuple[Estimate, tuple]:
    """Solve the ODE along :func:`epsilon_ladder` of ``eps_min``; returns
    :func:`limit_constant` at the smallest epsilon, and the (epsilon, t1) rows.

    Its terms are that endpoint, ``t1_limit``, and ``t1_spread``, the spread
    of the last three endpoints in t1 units, with no term for tol; by 1e-5
    it sits near the integrator noise floor, not the epsilon sensitivity.
    """
    *ladder, last = epsilon_ladder(eps_min)
    series = tuple((e, solve_threshold_ode(e, tol).final_value) for e in ladder)
    est = limit_constant(last, tol)
    series += ((last, est.terms["t1_limit"]),)
    tail = [t1 for _, t1 in series[-3:]]
    return est._replace(terms={**est.terms, "t1_spread": max(tail) - min(tail)}), series


class PatchSequence(NamedTuple):
    """Near-diagonal threshold values a_0 .. a_w, seeded by a_1."""

    values: tuple[float, ...]

    def ratios(self) -> tuple[float, ...]:
        return tuple(
            b / a for a, b in zip(self.values, self.values[1:])
        )

    @property
    def final_ratio(self) -> float:
        return self.values[-1] / self.values[-2]


def build_patch_sequence(a1: float, w: int) -> PatchSequence:
    """Iterate a_{i+1} = 1 - (1 - a_i) * a_{i-1} / a_i from a_0 = 1/2.

    Seeds in [1/2, 1) keep every entry inside [1/2, 1); the
    :class:`Overflow` guard only fires if rounding ever pushes an entry
    out.
    """
    if w < 1:
        raise ValueError("patch width must be at least 1")
    if not 0.5 <= a1 < 1.0:
        raise ValueError(f"seed must lie in [1/2, 1), got {a1!r}")
    vals = [0.5, a1]
    for _ in range(w - 1):
        prev, cur = vals[-2], vals[-1]
        nxt = 1.0 - (1.0 - cur) * prev / cur
        if not 0.0 < nxt < 1.0:
            raise Overflow(f"patch entry {nxt!r} left (0, 1)")
        vals.append(nxt)
    return PatchSequence(tuple(vals))


def find_seed(target: float, w: int) -> float:
    """Seed a_1 whose patch ends at a_w = target, by bisection to width
    ``_SEED_TOL``.

    The endpoint map a_1 -> a_w is strictly increasing with fixed point
    1/2, so targets below 1/2 are unreachable (:class:`NoBracket` via the
    underlying bisection) and targets in [1/2, 1) bracket inside
    [1/2, target].
    """
    if not target < 1.0:
        raise ValueError(f"target must be below 1, got {target!r}")
    if target < 0.5:
        raise NoBracket(
            f"endpoint map never falls below 1/2, cannot reach {target!r}"
        )
    if target == 0.5:
        return 0.5

    def gap(a1: float) -> float:
        return build_patch_sequence(a1, w).values[-1] - target

    return bisect(gap, 0.5, target, _SEED_TOL)


def default_patch_width(t_max: int) -> int:
    """ceil(sqrt(t_max)), capped so the ODE region is non-empty."""
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    w = math.isqrt(t_max)
    if w * w < t_max:
        w += 1
    return min(w, t_max - 1)


def assemble_patched_thresholds(
    epsilon: float,
    t_max: int,
    w: int | None = None,
    tol: float = 1e-10,
) -> ThresholdSequence:
    """Full threshold table: ODE profile far from the diagonal, patch near it.

    Cell (k, l) on the lower wedge takes the patch value a_{k-l} when
    k - l <= w, and t_eps(l / k) otherwise, the solver's own dense output
    (:class:`Trajectory` called at l / k).  The patch is seeded so a_w
    equals the profile endpoint t_eps(1), making the two regions meet
    continuously in the large-k limit.  Cells are computed when read.
    """
    from .lattice import ThresholdSequence

    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    if w is None:
        w = default_patch_width(t_max)
    if not 1 <= w < t_max:
        raise ValueError(f"patch width {w} must satisfy 1 <= w < t_max")
    traj = solve_threshold_ode(epsilon, tol)
    patch = np.array(build_patch_sequence(find_seed(traj.final_value, w), w).values)

    def at(i, j):
        near = patch[np.minimum(i - j, w)]
        return np.where(i - j <= w, near, traj(j / i))

    return ThresholdSequence(t_max, "analytic-patched", at)
