"""Continuum route to the growth constant, and the glue back to tables.

Rescaling the optimal-threshold recurrence along rays l = x * k turns the
balance condition into a one-dimensional ODE for the threshold profile
t(x):

    t'(x) = ln(t) * t * (1 - t) / (x - (1 + x) * t),    t(0) = eps.

The profile rises from eps to a limit L = t(1) that is insensitive to eps
(pushing eps to 0 changes t(1) in the sixth decimal), and the growth
constant is C = (L * (1 - L))^(-1/2).

Near the diagonal the continuum picture breaks down, so assembled
threshold tables splice in a discrete patch sequence a_0 = 1/2,
a_{i+1} = 1 - (1 - a_i) * a_{i-1} / a_i, seeded so the patch meets the
ODE profile at offset w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import OutOfRange, ThresholdSequence
from .numerics import (
    NoBracket,
    SingularField,
    Trajectory,
    bisect,
    integrate,
)

#: default epsilon ladder for the limit study, largest first
DEFAULT_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

_DENOMINATOR_FLOOR = -1e-12


class InvalidEpsilon(Exception):
    """Initial condition outside (0, 1]."""


class Overflow(Exception):
    """A patch entry left (0, 1)."""


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
    if not 0.0 < epsilon <= 1.0:
        raise InvalidEpsilon(f"epsilon must lie in (0, 1], got {epsilon!r}")
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


@dataclass(frozen=True)
class AnalyticConstants:
    """Limit study of t_eps(1) over a ladder of shrinking epsilons."""

    epsilon_series: tuple[tuple[float, float], ...]  # (epsilon, t_eps(1))
    t1_limit: float  # endpoint at the smallest epsilon
    c: float
    error_bar: float  # spread of the last <= 3 endpoints
    tolerance: float


def estimate_limit_constants(
    epsilons: Sequence[float] | None = None, tol: float = 1e-10
) -> AnalyticConstants:
    """Solve the ODE along an epsilon ladder and report the limit and C.

    The ladder must be strictly decreasing within (0, 1).  The error bar
    is the spread of the last three endpoints; by 1e-5 it sits near the
    integrator noise floor rather than the true epsilon sensitivity.
    """
    eps_list = list(DEFAULT_EPSILONS if epsilons is None else epsilons)
    if not eps_list:
        raise InvalidEpsilon("epsilon ladder is empty")
    for e in eps_list:
        if not 0.0 < e < 1.0:
            raise InvalidEpsilon(f"ladder entry {e!r} outside (0, 1)")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidEpsilon("epsilon ladder must be strictly decreasing")
    series = tuple(
        (e, solve_threshold_ode(e, tol).final_value) for e in eps_list
    )
    tail = [t1 for _, t1 in series[-3:]]
    t1_limit = series[-1][1]
    return AnalyticConstants(
        epsilon_series=series,
        t1_limit=t1_limit,
        c=constant_from_limit(t1_limit),
        error_bar=max(tail) - min(tail),
        tolerance=tol,
    )


def elementary_ratio(a: int, b: int, thresholds: ThresholdSequence) -> float:
    """Ratio of adjacent weighted threshold products at cell (a, b).

    Equals t_{a-1,b}^(a-1) * (1 - t_{a,b})^a / (t_{a,b}^a *
    (1 - t_{a,b-1})^a); near 1 wherever the table is locally consistent
    with the ODE profile.  Needs column b - 1, so b >= 2, and a > b keeps
    all three lookups on the lower wedge.
    """
    if b < 2:
        raise ValueError("ratio needs b >= 2")
    if a <= b:
        raise ValueError("ratio defined below the diagonal: a > b")
    if a > thresholds.size:
        raise OutOfRange(f"({a}, {b}) outside table of size {thresholds.size}")
    # the three cells in one checked read
    i, j = np.array([a, a - 1, a]), np.array([b, b, b - 1])
    t_ab, t_up, t_left = thresholds._evaluate(i, j).tolist()
    ln_r = (
        (a - 1) * math.log(t_up)
        + a * math.log1p(-t_ab)
        - a * math.log(t_ab)
        - a * math.log1p(-t_left)
    )
    return math.exp(ln_r)


@dataclass(frozen=True)
class PatchSequence:
    """Near-diagonal threshold values a_0 .. a_w."""

    values: tuple[float, ...]
    width: int
    seed: float  # a_1

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
    return PatchSequence(values=tuple(vals), width=w, seed=a1)


def find_seed(target: float, w: int, tol: float = 1e-12) -> float:
    """Seed a_1 whose patch ends at a_w = target, by bisection.

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

    return bisect(gap, 0.5, target, tol)


def default_patch_width(t_max: int) -> int:
    """ceil(sqrt(t_max)), capped so the ODE region is non-empty."""
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    w = math.isqrt(t_max)
    if w * w < t_max:
        w += 1
    return min(w, t_max - 1)


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, zeroed or capped at 3 * m0 so the
    end interval keeps the shape of its secants (Moler's pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(xs: np.ndarray, ys: np.ndarray):
    """Monotone piecewise-cubic Hermite interpolant of (xs, ys), as a
    function of the query points.

    An interior knot takes the Fritsch-Butland weighted harmonic mean of
    its secants, or 0 beside a flat secant or a turn; needs at least three
    increasing knots.  Each operation runs in the order of the usual
    library PCHIP, so tests can hold the values to it bit for bit.
    """
    h = np.diff(xs)
    m = np.diff(ys) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.empty(len(xs))
    d[1:-1] = np.where(flat, 0.0, inner)
    d[0] = _edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c2, c3 = (m - d[:-1]) / h - t, t / h  # coefficients of s^2 and s^3

    def evaluate(q):
        i = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, len(h) - 1)
        s = q - xs[i]
        s2 = s * s
        return ys[i] + d[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return evaluate


def assemble_patched_thresholds(
    epsilon: float,
    t_max: int,
    w: int | None = None,
    tol: float = 1e-10,
) -> ThresholdSequence:
    """Full threshold table: ODE profile far from the diagonal, patch near it.

    Cell (k, l) on the lower wedge takes the patch value a_{k-l} when
    k - l <= w, and t_eps(l / k) otherwise, read off the monotone cubic
    interpolant :func:`_pchip` of the trajectory.  The patch is seeded so
    a_w equals the profile endpoint t_eps(1), making the two regions meet
    continuously in the large-k limit.  Cells are computed when read.
    """
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    if w is None:
        w = default_patch_width(t_max)
    if not 1 <= w < t_max:
        raise ValueError(f"patch width {w} must satisfy 1 <= w < t_max")
    traj = solve_threshold_ode(epsilon, tol)
    patch = np.array(build_patch_sequence(find_seed(traj.final_value, w), w).values)
    profile = _pchip(traj.xs, traj.ys)

    def at(i, j):
        near = patch[np.minimum(i - j, w)]
        return np.where(i - j <= w, near, profile(j / i))

    return ThresholdSequence(t_max, "analytic-patched", at)
