"""Shared numeric kernels: the wavefront table fill, an adaptive ODE
solver, bisection, and quadratic growth fits, plus :class:`Estimate`, the
one record every route to the growth constant returns.

Everything downstream manipulates quantities that shrink like 2^(-t^2), so
every density is carried as a plain float negLog, -ln(x), which stays exact
long after x itself underflows.  A larger negLog is a smaller density.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np


class NumericFailure(Exception):
    """A solver could not produce a number it can vouch for.  Every such
    error subclasses this one, and the CLI exits 3 on it; refused requests
    subclass ``ValueError`` instead, on which the CLI exits 2."""


class SingularField(NumericFailure):
    """The ODE field blew up, returned a non-finite value, or forced the
    adaptive step below the resolution floor."""


class NoBracket(NumericFailure):
    """Bisection was handed endpoints whose images share a sign."""


class Degenerate(NumericFailure):
    """Quadratic fit input has fewer than three distinct abscissae."""


class BudgetExceeded(ValueError):
    """A table would allocate more cells than allowed."""


CELL_BUDGET = 20_000_000


def check_cells(cells: int, what: str) -> None:
    """Raise :class:`BudgetExceeded` before a table of ``cells`` entries,
    which ``what`` names, is allocated over ``CELL_BUDGET``."""
    if cells > CELL_BUDGET:
        raise BudgetExceeded(f"{what} = {cells} cells exceeds the budget of {CELL_BUDGET}")


def check_shape(shape: tuple[int, ...]) -> None:
    """:func:`check_cells` for a table of ``shape``, named "k x l table"."""
    check_cells(math.prod(shape), " x ".join(map(str, shape)) + " table")


def stream_cells(shape: tuple[int, ...]) -> int:
    """Cells :func:`wavefront_fill` budgets for a stream of ``shape``: the
    plane, plus per interior point of the first q - 1 axes, which bounds a
    hyperplane, 2q + 1 int64 index rows (head and the np.indices
    temporary it is built from, q - 1 rows each, then sums, order and
    ats) and 2q + 2 hyperplane temporaries (the q gathers of below, tail,
    and as many again for what weights and combine make of them); O(t)
    on 2 axes, 4q + 3 times the plane's interior on more."""
    interior = math.prod(max(n - 2, 0) for n in shape[:-1])
    return math.prod(shape[:-1]) + (4 * len(shape) + 3) * interior


# Cells per ``weights`` call of :func:`wavefront_fill` on 2 axes.  A band
# takes whole hyperplanes, so one hyperplane larger than this is a band alone.
_BAND_CELLS = 4096


def _bands(sizes: list[int], limit: int) -> Iterator[tuple[int, int]]:
    """Split hyperplanes of ``sizes`` cells into consecutive runs [p, r)
    of at most ``limit`` cells, or of one larger hyperplane."""
    p, filled = 0, 0
    for r, n in enumerate(sizes):
        if filled and filled + n > limit:
            yield p, r
            p, filled = r, 0
        filled += n
    yield p, len(sizes)


def wavefront_fill(
    shape: tuple[int, ...],
    weights: Callable[[tuple[np.ndarray, ...]], Sequence[np.ndarray]],
    combine: Callable[[tuple[np.ndarray, ...], list[np.ndarray]], np.ndarray],
    each_plane: Callable[[int, np.ndarray], None] | None = None,
    symmetric: bool = False,
) -> np.ndarray | None:
    """Allocate a table of ``shape`` and fill every entry whose indices are
    all >= 2; entries with an index below 2 are the boundary, 0.

    An entry may depend only on its q one-step-down neighbours, so the
    entries are filled one index-sum hyperplane at a time, in two parts.
    ``weights(idx)`` returns the per-entry arrays that do not read the
    table: ``idx`` holds the q index arrays of a band of consecutive
    hyperplanes, and each returned array is parallel to them.  Then
    ``combine(w, below)`` returns one hyperplane's values, as a new
    array, from ``w``, its slice of each weight array, and ``below[d]``,
    its entries' neighbours one step down axis d.

    The fill reads only the previous hyperplane, kept as one flat array
    ``plane`` indexed by the first q - 1 indices: entry h is cell
    (h, s - sum(h)) of hyperplane s.  On 2 axes ``below`` is two
    contiguous views of it, and a band holds up to ``_BAND_CELLS``
    entries; on more axes ``below`` is gathered at sorted offsets, and
    each hyperplane is a band of its own: gathering a band's index rows
    would cost more than the weights calls it saves.  Each finished
    hyperplane s goes back into ``plane`` and then into the table, or,
    with ``each_plane``, to ``each_plane(s, plane)``, which may read the
    interior entries of s; ``plane`` is then reused.  With ``each_plane``
    no table is allocated, None is returned, and memory is
    O(band + t^(q-1)).  Raises :class:`BudgetExceeded` before allocating
    a table of more than ``CELL_BUDGET`` cells, naming its shape, or a
    stream whose :func:`stream_cells` exceed it: 8 bytes a counted cell
    bound a stream's memory.

    ``symmetric`` states that the kernel is symmetric in the two axes
    bit for bit: from mirrored neighbours, cell (j, i) takes the value of
    cell (i, j).  A square 2-axis fill then computes, and hands
    ``weights``, only the lower wedge i >= j of each antidiagonal, so a
    band holds twice as many antidiagonals.  Before an even antidiagonal
    s = 2i it copies the one mirror neighbour, ``plane[i - 1] =
    plane[i]``; a table takes each antidiagonal as two strided writes,
    the lower cells and the mirror cells reversed, and ``each_plane``
    may read only the entries h >= s / 2.  Other shapes fill every cell
    whatever ``symmetric`` says.
    """
    q = len(shape)
    if each_plane is None:
        check_shape(shape)
        table = np.zeros(shape)
    else:
        check_cells(stream_cells(shape), "one hyperplane, its index rows and temporaries")
        table = None
    if min(shape) < 3:
        return table
    last = shape[-1]
    # interior points of the first q - 1 axes sorted by index sum, so the
    # points of each hyperplane are one contiguous run
    head = np.indices([n - 2 for n in shape[:-1]]).reshape(q - 1, -1) + 2
    sums = head.sum(axis=0)
    order = np.argsort(sums, kind="stable")
    head, sums = head[:, order], sums[order]
    planes = np.arange(2 * q, sum(shape) - q + 1)
    # the last index s - sum must lie in [2, last - 1]; a mirror fill
    # starts each antidiagonal at its lower wedge, i >= s - i
    mirror = symmetric and q == 2 and shape[0] == last
    lowest = planes - last + 1
    starts = np.searchsorted(sums, np.maximum(lowest, (planes + 1) // 2) if mirror else lowest)
    sizes = np.searchsorted(sums, planes - 1) - starts
    plane_of, start_of, size_of = planes.tolist(), starts.tolist(), sizes.tolist()
    # the neighbours of entry h are entries h - e_d and, down the last
    # axis, h itself; an entry no earlier hyperplane reached is boundary
    # and still zero
    plane = np.zeros(math.prod(shape[:-1]))
    steps = [math.prod(shape[d + 1 : -1]) for d in range(q - 1)]
    ats = np.dot(steps, head)  # sorted within each hyperplane
    if table is not None:
        # cell (i, s - i) of a flat 2-axis table sits at s + i * stride
        flat, stride = table.reshape(-1), last - 1
    # on more than 2 axes the limit 0 makes each hyperplane a band alone;
    # a band of one hyperplane reads its index rows as views
    for p, r in _bands(size_of, _BAND_CELLS if q == 2 else 0):
        if r - p == 1:
            take = slice(start_of[p], start_of[p] + size_of[p])
            rows, tail = head[:, take], plane_of[p] - sums[take]
        else:
            n = sizes[p:r]
            first = np.cumsum(n) - n
            take = np.arange(first[-1] + n[-1]) + np.repeat(starts[p:r] - first, n)
            rows, tail = head.take(take, axis=1), np.repeat(planes[p:r], n) - sums.take(take)
        w = tuple(weights((*rows, tail)))
        o = 0
        for s, a, n in zip(plane_of[p:r], start_of[p:r], size_of[p:r]):
            if q == 2:
                i = a + 2  # head[0, a]
                if mirror and s == 2 * i:
                    plane[i - 1] = plane[i]  # (i - 1, i) is the mirror of (i, i - 1)
                at = slice(i, i + n)
                below = [plane[i - 1 : i - 1 + n], plane[at]]
            else:
                at = ats[a : a + n]
                below = [plane[at - step] for step in steps] + [plane[at]]
            v = combine(tuple([x[o : o + n] for x in w]), below)
            plane[at] = v
            if table is None:
                each_plane(s, plane)
            elif q == 2:
                flat[s + i * stride : s + (i + n - 1) * stride + 1 : stride] = v
                if mirror:  # the mirror (s - i, i) of cell (i, s - i)
                    end = s * last - i * stride
                    flat[end - (n - 1) * stride : end + 1 : stride] = v[::-1]
            else:
                flat[at * last + tail[o : o + n]] = v
            o += n
    return table


class Trajectory:
    """Accepted steps of one adaptive ODE solve, and the solution between them.

    ``xs``/``ys`` are parallel arrays with xs strictly increasing; the
    first sample is the initial condition and the last lands exactly on
    the requested endpoint.  ``stages`` holds, per step, the six stages
    k1, k3, k4, k5, k6, k7 of the Dormand-Prince step that reached the
    next sample; calling the trajectory evaluates the step's 4th-order
    continuous extension (Hairer, Norsett and Wanner, Solving ODEs I,
    II.6, ``contd5``) at any x, and returns ``ys[k]`` at ``xs[k]``.
    """

    __slots__ = ("xs", "ys", "_rows")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, stages: np.ndarray) -> None:
        if len(xs) != len(ys) or len(xs) < 2 or np.shape(stages) != (len(xs) - 1, 6):
            raise ValueError("trajectory needs parallel samples and six stages a step")
        h = np.diff(xs)
        if np.any(h <= 0):
            raise ValueError("trajectory abscissae must be strictly increasing")
        self.xs, self.ys = xs, ys
        k1, k3, k4, k5, k6, k7 = np.transpose(stages)
        dy = np.diff(ys)
        r3 = h * k1 - dy
        r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
        # per step: its start and width, then Hairer's five coefficients
        self._rows = np.array([xs[:-1], h, ys[:-1], dy, r3, dy - h * k7 - r3, r5])

    def __call__(self, x: float | np.ndarray) -> np.ndarray:
        """The solution at ``x`` from the step that holds it (or the end step)."""
        i = np.searchsorted(self.xs[1:-1], x, side="right")
        x0, h, r1, r2, r3, r4, r5 = self._rows.take(i, axis=1)
        theta = (x - x0) / h
        u = 1 - theta
        return r1 + theta * (r2 + u * (r3 + theta * (r4 + u * r5)))

    @property
    def final_value(self) -> float:
        return float(self.ys[-1])


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): nodes _Ci, stage coefficients _Aij, error weights _Ei.  The last
# stage's row is the 5th-order weights (FSAL), so the solution of an
# accepted step is that stage's argument, and its field value is the next
# step's first stage.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84  # _A72 = 0
_E1, _E2, _E3, _E4 = 71 / 57600, 0.0, -71 / 16695, 71 / 1920
_E5, _E6, _E7 = -17253 / 339200, 22 / 525, -1 / 40
# dense output weights _Di of the last coefficient row (_D2 = 0)
_D1, _D3, _D4 = -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072
_D5, _D6, _D7 = 701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423

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
    forced below 32 units in the last place of max(|x|, (x1 - x0) * 2**-52),
    raises :class:`SingularField`; the second term keeps the refused step a
    normal float near x = 0.  A stage that raises :class:`SingularField`
    inside a step retries it at a quarter of the step.  The returned
    :class:`Trajectory` keeps the stages of each accepted step, so it
    also evaluates the solution between its samples.
    """
    if not (x0 < x1):
        raise ValueError("integration interval must satisfy x0 < x1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")

    def eval_field(x: float, y: float) -> float:
        v = field(x, y)
        if not math.isfinite(v):
            raise SingularField(f"field returned {v!r} at x={x!r}, y={y!r}")
        return v

    xs, ys, stages = [x0], [y0], []
    x, y = x0, y0
    h = (x1 - x0) / 1000.0
    x_tiny = (x1 - x0) * 2.0**-52  # ulp(0.0) is 5e-324
    k1 = eval_field(x, y)
    err_prev = 1.0  # normalized error of the previous accepted step

    for _ in range(_MAX_STEPS):
        if x >= x1:
            break
        h = min(h, x1 - x)
        # below 32 ulps the rounded stage abscissae swamp the error
        # estimate, and a step no longer resolves the field
        if h < 32 * math.ulp(max(abs(x), x_tiny)):
            raise SingularField(
                f"step size underflow ({h!r}) at x={x!r}; field is too stiff here"
            )
        try:
            k2 = eval_field(x + _C2 * h, y + h * _A21 * k1)
            k3 = eval_field(x + _C3 * h, y + h * _A31 * k1 + h * _A32 * k2)
            k4 = eval_field(x + _C4 * h, y + h * _A41 * k1 + h * _A42 * k2 + h * _A43 * k3)
            k5 = eval_field(
                x + _C5 * h,
                y + h * _A51 * k1 + h * _A52 * k2 + h * _A53 * k3 + h * _A54 * k4,
            )
            k6 = eval_field(
                x + h,
                y + h * _A61 * k1 + h * _A62 * k2 + h * _A63 * k3 + h * _A64 * k4
                + h * _A65 * k5,
            )
            y_new = (
                y + h * _A71 * k1 + h * _A73 * k3 + h * _A74 * k4 + h * _A75 * k5
                + h * _A76 * k6
            )
            k7 = eval_field(x + h, y_new)
        except SingularField:
            # an interior stage wandered into the singular region;
            # retry with a smaller step before giving up
            h *= 0.25
            continue

        # per unit step; the zero term is kept, as in the tableau's sum
        err = abs(
            0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
        )
        r = err / tol
        if r <= 1.0:
            x = x1 if (x1 - x) == h else x + h
            y = y_new
            xs.append(x)
            ys.append(y)
            stages.append((k1, k3, k4, k5, k6, k7))
            k1 = k7  # FSAL
            rr = max(r, 1e-10)
            fac = 0.9 * rr ** -0.14 * err_prev ** 0.08
            err_prev = rr
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * r ** -0.2)
    else:
        raise SingularField("step budget exhausted; field is too stiff")

    return Trajectory(np.asarray(xs), np.asarray(ys), np.asarray(stages))


def bisect(
    g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Locate a sign change of g on [lo, hi] to width ``tol``.

    Exact zeros at either endpoint or a midpoint return immediately.
    Endpoints with the same (nonzero) sign raise :class:`NoBracket`.
    """
    if not (lo < hi):
        raise ValueError("bisection requires lo < hi")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
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
    if len(set(ts.tolist())) < 3:  # np.unique would import numpy.ma
        raise Degenerate("quadratic fit needs at least 3 distinct abscissae")
    shift = ts.mean()
    coeffs = np.polyfit(ts - shift, vs, 2)
    resid = float(np.sqrt(np.mean((np.polyval(coeffs, ts - shift) - vs) ** 2)))
    return float(coeffs[0]), resid


class Estimate(NamedTuple):
    """One route's growth constant C: ``c`` and ``ln_c`` each as the route
    computes it (a fit of ln C takes exp, a limit of C takes log), and
    ``terms``, the numbers the route reports beside C, by name."""

    c: float
    ln_c: float
    terms: dict[str, float]
