"""Discrete recurrences for the minimum-density tables and the growth
constant they define.

Choosing every threshold optimally collapses the lattice-path minimum to a
closed recursion: with mu = max(k, l),

    M_{k,l} = (M_{k,l-1}^{-1/mu} + M_{k-1,l}^{-1/mu})^{-mu},

boundary cells equal to 1.  Everything is carried as negLog floats, where
the recursion becomes mu * logaddexp of the scaled neighbours; values
like M_{400,400} ~ exp(-1.2e5) stay perfectly representable.  The same
cell combiner generalises to q colours by folding over all q decremented
neighbours.  Diagonal entries shrink like C^{-t^2}; each reader of them
takes t and reads the streamed :func:`diagonal`, for any q.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .lattice import BoundTable, ThresholdSequence
from .numerics import (
    CELL_BUDGET, BudgetExceeded, Estimate, fit_quadratic_leading, stream_cells, wavefront_fill
)

# A q-colour diagonal streams to t while t^q <= STREAM_T_MAX^2, which bounds
# its time, and its stream_cells, which bound its memory, fit the budget.
# On a 2-vCPU x86-64 host `crosscheck --t-max 20000` takes about 7 s and
# 37 MB, and `alpha --q 3 --t 736` about 28 s and 91 MB.
STREAM_T_MAX = 20_000


class WindowTooSmall(ValueError):
    """The diagonal is too short to carve out a usable fit window.  The
    window is checked before any fill, so this is a refused request."""


def _recurrence_weights(idx):
    """mu, the largest index of each cell."""
    return (reduce(np.maximum, idx),)


def _recurrence_cell(w, below):
    """negLog of (sum_d M_{x-e_d}^(-1/mu))^(-mu) on one wavefront
    hyperplane.  The q neighbours are folded left to right, the same
    arithmetic for every q, so the two-colour table is a true slice of
    the q-colour one, bit for bit."""
    (mu,) = w
    acc = below[0] / mu
    for nb in below[1:]:
        acc = np.logaddexp(acc, nb / mu)
    return mu * acc


def build_table(t_max: int, cols: int | None = None) -> BoundTable:
    """Fill the optimal-threshold recurrence up to (t_max, cols), ``cols``
    defaulting to t_max.

    Returns a mode-"max" table of negLog values; boundary rows are 0
    (value 1).  One vectorised step per anti-diagonal.  mu is the larger
    index of each cell itself, so a thin table is the top-left block of
    the square one, bit for bit.  The two-colour cell is symmetric bit
    for bit, so a square table is filled on its lower wedge and
    mirrored.  The fill raises :class:`BudgetExceeded`, naming the
    shape, before allocating more than ``CELL_BUDGET`` cells.
    """
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    cols = t_max if cols is None else cols
    if not 1 <= cols <= t_max:
        raise ValueError(f"cols must lie in [1, t_max], got {cols}")
    table = wavefront_fill(
        (t_max + 1, cols + 1), _recurrence_weights, _recurrence_cell, symmetric=True
    )
    return BoundTable("max", table)


def _check_colours(q: int) -> None:
    """Refuse q < 2, and a q over log2(CELL_BUDGET), before any shape is
    formed: q axes of at least 2 entries each hold more than the budget."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if q > math.log2(CELL_BUDGET):
        raise BudgetExceeded(
            f"q = {q} colours need at least 2^q cells, over the budget of {CELL_BUDGET}"
        )


def _check_stream(q: int, t_max: int) -> None:
    """Refuse a diagonal to t_max past E, the largest t that runs, and
    name E: the time rule's edge, stepped down while the stream to E + 1
    is over the fill's budget.  From q = 17, E = 1: no t >= 2 runs."""
    _check_colours(q)
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    bound = STREAM_T_MAX**2
    edge = round(bound ** (1 / q))
    edge -= edge**q > bound  # the rounded root may overshoot by one
    while stream_cells((edge + 1,) * q) > CELL_BUDGET:
        edge -= 1
    if t_max > edge:
        raise BudgetExceeded(
            f"a diagonal to t = {t_max} exceeds the streaming bound t <= {edge}"
        )


def diagonal(t_max: int, q: int = 2) -> np.ndarray:
    """negLog M_{t,...,t} of q colours for t = 0 .. t_max, bit for bit the
    diagonal of :func:`multicolor_table` (at q = 2, :func:`build_table`).

    The fill streams its hyperplanes and keeps cell (u, ..., u) of
    hyperplane q * u, so it holds O(t_max^(q-1)) memory, not a table; at
    q = 2, whose cell is symmetric bit for bit, it fills only the lower
    wedge of each antidiagonal, whose first cell is (u, u).  A
    (q, t_max) that :func:`_check_stream` refuses raises
    :class:`BudgetExceeded` before any work.
    """
    _check_stream(q, t_max)
    diag = np.zeros(t_max + 1)
    # entry (u, ..., u) of the first q - 1 axes in the flat plane
    step = sum((t_max + 1) ** d for d in range(q - 1))

    def keep(s, plane):
        u, r = divmod(s, q)
        if r == 0:
            diag[u] = plane[u * step]

    wavefront_fill(
        (t_max + 1,) * q, _recurrence_weights, _recurrence_cell, keep, symmetric=q == 2
    )
    return diag


def optimal_thresholds(table: BoundTable) -> ThresholdSequence:
    """Thresholds at which the min-DP branches balance.

    For j <= i the minimiser of max(t^mu * M_{i,j-1}, (1-t)^mu * M_{i-1,j})
    is t = 1 / (1 + exp(z)) = exp(-logaddexp(0, z)), which cannot overflow,
    with z = (L_{i-1,j} - L_{i,j-1}) / mu on the negLog table L (mu = i on
    the lower wedge), computed from L whenever a cell is read.  Column 1
    is left undefined: boundary cells carry no branch to balance.  So is
    every column past ``table.cols`` of a thin table (see
    :func:`build_table`), which serves the DPs whose shorter side is at
    most ``table.cols``.
    """
    if table.mode != "max" or table.table.ndim != 2 or table.rows < table.cols:
        raise ValueError("optimal thresholds need a 2-axis mode-'max' table with rows >= cols")
    cols = table.cols
    flat, width = table.table.ravel(), cols + 1

    def at(i, j):
        # flat index of L[i, j], or of L[i, cols] for an undefined j > cols
        cell = i * width + np.minimum(j, cols)
        z = (flat[cell - width] - flat[cell - 1]) / i
        t = np.where(j == 1, np.nan, np.exp(-np.logaddexp(0.0, z)))
        return np.where(j > cols, np.nan, np.where(i == j, 0.5, t))

    return ThresholdSequence(table.rows, "optimal", at)


def estimate_growth_constant(t_max: int) -> Estimate:
    """Fit negLog M_{t,t} ~ ln(C) * t^2 over the window [t_max // 2, t_max]
    of the :func:`diagonal` to t_max; earlier entries still feel
    lower-order terms.  The one term is the fit's ``rms_residual``.
    t_max is refused before the window, and a t_max below 40, which
    leaves too short a window, raises :class:`WindowTooSmall` before the
    fill.
    """
    _check_stream(2, t_max)
    if t_max < 40:
        raise WindowTooSmall(f"t_max={t_max} leaves no stable default fit window")
    lo = t_max // 2
    diag = diagonal(t_max)
    pts = [(float(t), float(diag[t])) for t in range(lo, t_max + 1)]
    ln_c, resid = fit_quadratic_leading(pts)
    return Estimate(math.exp(ln_c), ln_c, {"rms_residual": resid})


def multicolor_table(q: int, t_max: int) -> BoundTable:
    """The q-colour recurrence: each cell folds its q decremented
    neighbours through the shared cell, mu = max of the indices.

    Returns a mode-"max" table with q axes of length t_max; at q = 2 it
    is :func:`build_table`'s.  Cells with any index equal to 1 are
    boundary (negLog 0).  The table holds (t_max + 1)^q cells; the fill
    raises :class:`BudgetExceeded`, naming its shape, before allocating
    more than ``CELL_BUDGET``.
    """
    _check_colours(q)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    table = wavefront_fill(
        (t_max + 1,) * q, _recurrence_weights, _recurrence_cell, symmetric=q == 2
    )
    return BoundTable("max", table)


def alpha_estimate(q: int, t: int) -> float:
    """negLog M_{t,...,t} normalised by q * t^2 * ln q, read from the
    streamed q-colour :func:`diagonal`.

    As t grows this tends to the exponent constant governing q-colour
    clique densities; at q = 2 it approaches ln(C) / (2 ln 2).
    """
    if q < 2 or t < 2:
        raise ValueError("alpha estimate needs q >= 2 and t >= 2")
    return float(diagonal(t, q)[t]) / (q * t * t * math.log(q))


def uniform_exponents(k: int, l: int) -> tuple[int, int]:
    """Exponent pair from the uniform-threshold induction.

    Red cliques of size k against blue of size l force densities
    2^-(k(l-2) + C(k+1,2)) and 2^-(l(k-2) + C(l+1,2)) respectively.
    """
    if k < 2 or l < 2:
        raise ValueError("exponents defined for k, l >= 2")
    red = k * (l - 2) + math.comb(k + 1, 2)
    blue = l * (k - 2) + math.comb(l + 1, 2)
    return red, blue

