"""Discrete recurrences for the minimum-density tables and the growth
constant they define.

Choosing every threshold optimally collapses the lattice-path minimum to a
closed recursion: with mu = max(k, l),

    M_{k,l} = (M_{k,l-1}^{-1/mu} + M_{k-1,l}^{-1/mu})^{-mu},

boundary cells equal to 1.  Everything is carried as negLog floats, where
the recursion becomes mu * logaddexp of the scaled neighbours; values
like M_{400,400} ~ exp(-1.2e5) stay perfectly representable.  The same
cell combiner generalises to q colours by folding over all q decremented
neighbours.  Diagonal entries shrink like C^{-t^2}, and a quadratic fit
of the diagonal negLogs estimates ln C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import BoundTable, ThresholdSequence
from .numerics import LogValue, fit_quadratic_leading, wavefront_fill


class WindowTooSmall(Exception):
    """The table is too short to carve out a usable fit window."""


def _recurrence_cell(idx, below):
    """negLog of (sum_d M_{x-e_d}^(-1/mu))^(-mu), mu the largest index, on
    one wavefront hyperplane.  The q neighbours are folded left to right,
    the same arithmetic for every q, so the two-colour table is a true
    slice of the q-colour one, bit for bit."""
    mu = np.max(idx, axis=0)
    acc = below[0] / mu
    for nb in below[1:]:
        acc = np.logaddexp(acc, nb / mu)
    return mu * acc


def build_table(t_max: int) -> BoundTable:
    """Fill the optimal-threshold recurrence up to (t_max, t_max).

    Returns a mode-"max" table of negLog values; boundary rows are 0
    (value 1).  One vectorised step per anti-diagonal.  The fill raises
    :class:`BudgetExceeded`, naming the shape, before allocating more
    than ``CELL_BUDGET`` cells.
    """
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    neg = wavefront_fill((t_max + 1, t_max + 1), _recurrence_cell)
    return BoundTable(
        mode="max",
        rows=t_max,
        cols=t_max,
        provenance="optimal-recurrence",
        table=neg,
    )


def optimal_thresholds(table: BoundTable) -> ThresholdSequence:
    """Thresholds at which the min-DP branches balance.

    For j <= i the minimiser of max(t^mu * M_{i,j-1}, (1-t)^mu * M_{i-1,j})
    is t = 1 / (1 + exp(z)) = exp(-logaddexp(0, z)), which cannot overflow,
    with z = (L_{i-1,j} - L_{i,j-1}) / mu on the negLog table L (mu = i on
    the lower wedge), computed from L whenever a cell is read.  Column 1
    is left undefined: boundary cells carry no branch to balance.
    """
    if table.mode != "max" or table.rows != table.cols:
        raise ValueError("optimal thresholds need a square mode-'max' table")
    neg = table.table

    def at(i, j):
        z = (neg[i - 1, j] - neg[i, j - 1]) / i
        t = np.where(j == 1, np.nan, np.exp(-np.logaddexp(0.0, z)))
        return np.where(i == j, 0.5, t)

    return ThresholdSequence(table.rows, "optimal", at)


@dataclass(frozen=True)
class ConstantEstimate:
    """Growth-constant fit: diagonal negLogs against t^2."""

    c: float
    ln_c: float
    window: tuple[int, int]
    rms_residual: float
    per_t: tuple[tuple[int, float], ...]  # (t, negLog M_{t,t} / t^2)


def estimate_growth_constant(
    table: BoundTable, window: tuple[int, int] | None = None
) -> ConstantEstimate:
    """Fit negLog M_{t,t} ~ ln(C) * t^2 over a late window of the diagonal.

    The default window is [t_max // 2, t_max]; earlier entries still feel
    lower-order terms.  Tables shorter than 40 raise
    :class:`WindowTooSmall`, as do explicit windows with fewer than four
    points.
    """
    if table.rows != table.cols:
        raise ValueError("growth estimate needs a square table")
    t_max = table.rows
    if window is None:
        if t_max < 40:
            raise WindowTooSmall(
                f"t_max={t_max} leaves no stable default fit window"
            )
        window = (t_max // 2, t_max)
    lo, hi = window
    if not (2 <= lo < hi <= t_max) or hi - lo + 1 < 4:
        raise WindowTooSmall(f"window {window} unusable for t_max={t_max}")
    pts = [(float(t), float(table.table[t, t])) for t in range(lo, hi + 1)]
    ln_c, resid = fit_quadratic_leading(pts)
    per_t = tuple(
        (t, float(table.table[t, t]) / (t * t)) for t in range(2, t_max + 1)
    )
    return ConstantEstimate(
        c=math.exp(ln_c),
        ln_c=ln_c,
        window=(lo, hi),
        rms_residual=resid,
        per_t=per_t,
    )


@dataclass(frozen=True)
class MultiIndexTable:
    """q-dimensional negLog table, indexed by tuples in [1, t_max]^q."""

    q: int
    t_max: int
    neglog_array: np.ndarray

    def _check(self, indices: tuple[int, ...]) -> None:
        if len(indices) != self.q:
            raise ValueError(f"expected {self.q} indices, got {len(indices)}")
        for i in indices:
            if not 1 <= i <= self.t_max:
                raise ValueError(f"index {i} outside [1, {self.t_max}]")

    def neglog_at(self, indices: tuple[int, ...]) -> float:
        self._check(indices)
        return float(self.neglog_array[indices])

    def value_at(self, indices: tuple[int, ...]) -> float:
        return math.exp(-self.neglog_at(indices))


def multicolor_table(q: int, t_max: int) -> MultiIndexTable:
    """The q-colour recurrence: each cell folds its q decremented
    neighbours through the shared cell, mu = max of the indices.

    Cells with any index equal to 1 are boundary (negLog 0).  The table
    holds (t_max + 1)^q cells; the fill raises :class:`BudgetExceeded`,
    naming its shape, before allocating more than ``CELL_BUDGET``.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    neg = wavefront_fill((t_max + 1,) * q, _recurrence_cell)
    return MultiIndexTable(q=q, t_max=t_max, neglog_array=neg)


def alpha_estimate(q: int, t: int, table: MultiIndexTable | None = None) -> float:
    """negLog M_{t,...,t} normalised by q * t^2 * ln q.

    As t grows this tends to the exponent constant governing q-colour
    clique densities; at q = 2 it approaches ln(C) / (2 ln 2).
    """
    if q < 2 or t < 2:
        raise ValueError("alpha estimate needs q >= 2 and t >= 2")
    if table is None:
        table = multicolor_table(q, t)
    if table.q != q or table.t_max < t:
        raise ValueError("supplied table does not cover (q, t)")
    return table.neglog_at((t,) * q) / (q * t * t * math.log(q))


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


def _ln_binom_4t_choose_t(t: int) -> float:
    """ln C(4^t, t), stable for t far beyond direct evaluation.

    Expanding the falling factorial: sum_i ln(4^t - i) = t^2 ln 4 +
    sum_i log1p(-i * 4^-t); the naive lgamma difference cancels
    catastrophically once 4^t dwarfs t.
    """
    four_pow = 4.0 ** -t if t < 540 else 0.0  # underflow is exact here
    s = t * t * math.log(4.0)
    for i in range(t):
        s += math.log1p(-i * four_pow)
    return s - math.lgamma(t + 1)


@dataclass(frozen=True)
class ClassicalBounds:
    """The four comparable densities for monochromatic t-cliques."""

    t: int
    upper_random: LogValue  # 2^(1 - C(t,2)), from uniformly random colourings
    lower_ramsey: LogValue  # 1 / C(4^t, t), via Ramsey number bounds
    lower_uniform: LogValue  # 2^-(t(t-2) + C(t+1,2)), uniform thresholds
    lower_recurrence: LogValue  # M_{t,t}, optimal thresholds


def classical_bounds(t: int, table: BoundTable | None = None) -> ClassicalBounds:
    """Assemble the classical comparison values at one clique size."""
    if t < 2:
        raise ValueError("bounds defined for t >= 2")
    if table is None:
        table = build_table(t)
    if table.rows < t or table.cols < t:
        raise ValueError("supplied table does not reach t")
    ln2 = math.log(2.0)
    return ClassicalBounds(
        t=t,
        upper_random=LogValue((math.comb(t, 2) - 1) * ln2),
        lower_ramsey=LogValue(_ln_binom_4t_choose_t(t)),
        lower_uniform=LogValue((t * (t - 2) + math.comb(t + 1, 2)) * ln2),
        lower_recurrence=table.logvalue(t, t),
    )
