"""Shared numeric kernels: log-domain scalars, the wavefront table fill,
an adaptive ODE solver, bisection, and quadratic growth fits.

Everything downstream manipulates quantities that shrink like 2^(-t^2), so
the canonical scalar here is a negated natural log.  A plain float holding
-ln(x) stays exact long after x itself underflows; ``LogValue`` wraps that
float with products and powers that never leave the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class SingularField(Exception):
    """The ODE field blew up, returned a non-finite value, or forced the
    adaptive step below the resolution floor."""


class NoBracket(Exception):
    """Bisection was handed endpoints whose images share a sign."""


class Degenerate(Exception):
    """Quadratic fit input has fewer than three distinct abscissae."""


class BudgetExceeded(Exception):
    """A table would allocate more cells than allowed."""


CELL_BUDGET = 20_000_000


def check_cells(cells: int, what: str) -> None:
    """Raise :class:`BudgetExceeded` before a table of ``cells`` entries,
    which ``what`` names, is allocated over ``CELL_BUDGET``."""
    if cells > CELL_BUDGET:
        raise BudgetExceeded(f"{what} = {cells} cells exceeds the budget of {CELL_BUDGET}")


#: negLog encoding of the value 0 (exp(-inf) == 0).
NEGLOG_ZERO = math.inf


@dataclass(frozen=True)
class LogValue:
    """A non-negative real stored as -ln(value).

    Construct with :meth:`from_value` or directly from a negLog float.
    Ordering follows the represented values, so a *larger* neglog means a
    *smaller* LogValue.
    """

    neglog: float

    def __post_init__(self) -> None:
        if math.isnan(self.neglog):
            raise ValueError("negLog must not be NaN")

    @classmethod
    def from_value(cls, value: float) -> "LogValue":
        if value < 0:
            raise ValueError(f"LogValue requires a non-negative value, got {value}")
        return cls(NEGLOG_ZERO if value == 0 else -math.log(value))

    @property
    def value(self) -> float:
        """Decode back to a plain float; underflows to 0.0 past ~745."""
        return math.exp(-self.neglog)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.neglog == math.inf or other.neglog == math.inf:
            return LogValue(NEGLOG_ZERO)
        return LogValue(self.neglog + other.neglog)

    def __pow__(self, exponent: float) -> "LogValue":
        if self.neglog == math.inf:
            if exponent <= 0:
                raise ValueError("0 cannot be raised to a non-positive power")
            return LogValue(NEGLOG_ZERO)
        return LogValue(self.neglog * exponent)

    # value ordering, hence reversed on the stored neglog
    def __lt__(self, other: "LogValue") -> bool:
        return self.neglog > other.neglog

    def __le__(self, other: "LogValue") -> bool:
        return self.neglog >= other.neglog

    def __gt__(self, other: "LogValue") -> bool:
        return self.neglog < other.neglog

    def __ge__(self, other: "LogValue") -> bool:
        return self.neglog <= other.neglog


def wavefront_fill(
    shape: tuple[int, ...],
    cell: Callable[[tuple[np.ndarray, ...], list[np.ndarray]], np.ndarray],
) -> np.ndarray:
    """Allocate a table of ``shape`` and fill every entry whose indices are
    all >= 2; entries with an index below 2 are the boundary, 0.

    An entry may depend only on its q one-step-down neighbours, so each
    index-sum hyperplane is one vectorised call ``cell(idx, below)``:
    ``idx`` holds the q index arrays of the hyperplane's entries, and
    ``below[d]`` their neighbours' values one step down axis d.  Raises
    :class:`BudgetExceeded`, naming the shape, before allocating more than
    ``CELL_BUDGET`` cells.  Extra memory is O(t^(q-1)).
    """
    check_cells(math.prod(shape), " x ".join(map(str, shape)) + " table")
    table = np.zeros(shape)
    q, last = table.ndim, table.shape[-1]
    flat = table.reshape(-1)
    steps = [s // table.itemsize for s in table.strides]
    # interior points of the first q - 1 axes sorted by index sum, so the
    # points of each hyperplane are one contiguous run
    head = np.indices([n - 2 for n in table.shape[:-1]]).reshape(q - 1, -1) + 2
    sums = head.sum(axis=0)
    order = np.argsort(sums, kind="stable")
    head, sums = head[:, order], sums[order]
    offsets = np.dot(steps[:-1], head)
    planes = np.arange(2 * q, sum(table.shape) - q + 1)
    # the last index s - sum must lie in [2, last - 1]
    starts = np.searchsorted(sums, planes - last + 1)
    stops = np.searchsorted(sums, planes - 1)
    for s, a, b in zip(planes.tolist(), starts.tolist(), stops.tolist()):
        tail = s - sums[a:b]
        idx = (*head[:, a:b], tail)
        pos = offsets[a:b] + tail * steps[-1]
        flat[pos] = cell(idx, [flat[pos - step] for step in steps])
    return table


@dataclass(frozen=True)
class Trajectory:
    """Accepted sample points of one adaptive ODE solve.

    ``xs``/``ys`` are parallel arrays with xs strictly increasing; the
    first sample is the initial condition and the last lands exactly on
    the requested endpoint.
    """

    xs: np.ndarray
    ys: np.ndarray
    tolerance: float
    epsilon: float

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 1:
            raise ValueError("trajectory needs parallel, non-empty sample arrays")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("trajectory abscissae must be strictly increasing")

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    @property
    def final_value(self) -> float:
        return float(self.ys[-1])


# Dormand-Prince 5(4) tableau.  The last stage row equals the 5th-order
# weights (FSAL), so one field evaluation per accepted step is recycled.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_MIN_STEP = 1e-14
_MAX_STEPS = 5_000_000


def integrate(
    field: Callable[[float, float], float],
    x0: float,
    y0: float,
    x1: float,
    tol: float,
) -> Trajectory:
    """Integrate y' = field(x, y) from x0 to x1 with an embedded 5(4) pair.

    Steps are accepted when the embedded error estimate per unit step is
    at most ``tol`` (absolute; the callers all keep y of order one).  Step
    sizes follow a PI controller.  A non-finite field value, or a step
    forced below 1e-14, raises :class:`SingularField`.
    """
    if not (x0 < x1):
        raise ValueError("integration interval must satisfy x0 < x1")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def eval_field(x: float, y: float) -> float:
        v = field(x, y)
        if not math.isfinite(v):
            raise SingularField(f"field returned {v!r} at x={x!r}, y={y!r}")
        return v

    xs = [x0]
    ys = [y0]
    x, y = x0, y0
    h = (x1 - x0) / 1000.0
    k1 = eval_field(x, y)
    err_prev = 1.0  # normalized error of the previous accepted step
    k = [0.0] * 7

    for _ in range(_MAX_STEPS):
        if x >= x1:
            break
        h = min(h, x1 - x)
        if h < _MIN_STEP:
            raise SingularField(
                f"step size underflow ({h!r}) at x={x!r}; field is too stiff here"
            )
        k[0] = k1
        failed = False
        for i in range(1, 7):
            yi = y
            row = _DP_A[i]
            for j, a in enumerate(row):
                if a != 0.0:
                    yi += h * a * k[j]
            try:
                k[i] = eval_field(x + _DP_C[i] * h, yi)
            except SingularField:
                # an interior stage wandered into the singular region;
                # retry with a smaller step before giving up
                failed = True
                break
        if failed:
            h *= 0.25
            continue

        err = abs(sum(e * ki for e, ki in zip(_DP_E, k)))  # per unit step
        r = err / tol
        if r <= 1.0:
            y_new = y
            for b, ki in zip(_DP_B5, k):
                if b != 0.0:
                    y_new += h * b * ki
            x = x1 if (x1 - x) == h else x + h
            y = y_new
            xs.append(x)
            ys.append(y)
            k1 = k[6]  # FSAL
            rr = max(r, 1e-10)
            fac = 0.9 * rr ** -0.14 * err_prev ** 0.08
            err_prev = rr
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * r ** -0.2)
    else:
        raise SingularField("step budget exhausted; field is too stiff")

    return Trajectory(
        xs=np.asarray(xs), ys=np.asarray(ys), tolerance=tol, epsilon=y0
    )


def bisect(
    g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Locate a sign change of g on [lo, hi] to width ``tol``.

    Exact zeros at either endpoint or a midpoint return immediately.
    Endpoints with the same (nonzero) sign raise :class:`NoBracket`.
    """
    if not (lo < hi):
        raise ValueError("bisection requires lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    g_lo = g(lo)
    if g_lo == 0.0:
        return lo
    g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise NoBracket(f"g({lo})={g_lo} and g({hi})={g_hi} share a sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval already at float resolution
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_hi > 0.0):
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def fit_quadratic_leading(
    points: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """Least-squares fit v ~ alpha*t^2 + beta*t + gamma; returns (alpha, rms).

    The abscissae are centred before fitting, which improves conditioning
    without changing the leading coefficient.
    """
    if len(points) < 4:
        raise ValueError("need at least 4 points for a meaningful quadratic fit")
    ts = np.asarray([p[0] for p in points], dtype=float)
    vs = np.asarray([p[1] for p in points], dtype=float)
    if len(np.unique(ts)) < 3:
        raise Degenerate("quadratic fit needs at least 3 distinct abscissae")
    shift = ts.mean()
    coeffs = np.polyfit(ts - shift, vs, 2)
    resid = float(np.sqrt(np.mean((np.polyval(coeffs, ts - shift) - vs) ** 2)))
    return float(coeffs[0]), resid
