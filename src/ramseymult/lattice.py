"""Monotone lattice paths, threshold tables, and the bound dynamic programs.

A two-colour density argument walks a path from the axis boundary of the
integer lattice up to a target cell (k, l).  Each unit step through cell
(a, b) picks up a factor: the threshold t_{a,b} when b was incremented,
its complement 1 - t_{a,b} when a was.  Raising the factor to a
per-cell exponent and multiplying along the path gives the path weight;
the quantity of interest is the minimum weight over all admissible paths,
which a dynamic program computes in O(k*l).

The same table of thresholds also drives a max-form recursion whose value
bounds classical Ramsey numbers; see :func:`ramsey_bound`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .numerics import check_cells, check_shape, wavefront_fill

EXPONENT_MODES = ("a", "b", "max")


class TooMany(ValueError):
    """Path enumeration would exceed the requested cap."""


class OutOfRange(ValueError):
    """Threshold lookup outside the table, or in an undefined column."""


class LatticePath:
    """An admissible path: a tuple of lattice points (a_i, b_i).

    Admissibility: the path starts on the boundary (a_0 == 1 or b_0 == 1),
    leaves it immediately (a_1 != 1 and b_1 != 1 when a second point
    exists), and each step increments exactly one coordinate by one.
    """

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[int, int], ...]) -> None:
        if not points:
            raise ValueError("a path needs at least one point")
        for a, b in points:
            if a < 1 or b < 1:
                raise ValueError(f"point ({a}, {b}) leaves the positive lattice")
        a0, b0 = points[0]
        if a0 != 1 and b0 != 1:
            raise ValueError(f"path must start on the boundary, got ({a0}, {b0})")
        if len(points) > 1:
            a1, b1 = points[1]
            if a1 == 1 or b1 == 1:
                raise ValueError(
                    f"second point ({a1}, {b1}) must leave the boundary"
                )
        for (pa, pb), (a, b) in zip(points, points[1:]):
            if not ((a == pa + 1 and b == pb) or (a == pa and b == pb + 1)):
                raise ValueError(
                    f"({pa}, {pb}) -> ({a}, {b}) is not a unit step"
                )
        self.points = points

    @property
    def endpoint(self) -> tuple[int, int]:
        return self.points[-1]

    def steps(self) -> Iterator[tuple[int, int, bool]]:
        """Yield (a_i, b_i, b_was_incremented) for each step i >= 1."""
        for (pa, _pb), (a, b) in zip(self.points, self.points[1:]):
            yield a, b, a == pa


def enumerate_paths(k: int, l: int, cap: int = 1_000_000) -> list[LatticePath]:
    """All admissible paths to (k, l), sorted by their point sequences.

    Raises :class:`TooMany` when the closed-form count exceeds ``cap``
    before any path is materialised.
    """
    if k < 2 or l < 2:
        raise ValueError("enumeration requires k >= 2 and l >= 2")
    n = math.comb(k + l - 2, l - 1)  # the routes from each start, summed (hockey stick)
    if n > cap:
        raise TooMany(f"{n} paths to ({k}, {l}) exceeds the cap of {cap}")

    paths: list[LatticePath] = []

    def extend(prefix: list[tuple[int, int]]) -> None:
        a, b = prefix[-1]
        if a == k and b == l:
            paths.append(LatticePath(tuple(prefix)))
            return
        if a < k:
            prefix.append((a + 1, b))
            extend(prefix)
            prefix.pop()
        if b < l:
            prefix.append((a, b + 1))
            extend(prefix)
            prefix.pop()

    for a0 in range(2, k + 1):
        extend([(a0, 1), (a0, 2)])
    for b0 in range(2, l + 1):
        extend([(1, b0), (2, b0)])
    paths.sort(key=lambda p: p.points)
    return paths


def _check_interval(rows, t) -> None:
    """Raise ValueError naming the first row whose thresholds leave (0, 1);
    NaN passes."""
    rows, bad = np.broadcast_arrays(rows, (t <= 0.0) | (t >= 1.0))
    if bad.any():
        row = rows[bad].min()
        raise ValueError(f"thresholds in row {row} leave the open interval (0, 1)")


class ThresholdSequence:
    """A table of red-density thresholds t_{i,j} in (0, 1), as a function.

    ``at(i, j)`` gives t_{i,j} on broadcastable integer index arrays of the
    lower wedge 2 <= i <= size, 1 <= j <= i, and NaN where the table leaves
    a cell undefined (column 1 of the optimal-recurrence table).  Every
    constructor yields exactly 1/2 on the diagonal; the upper wedge is
    served by the structural reflection t_{j,i} = 1 - t_{i,j}.  Each read
    checks the cells it returns.  The DPs and :func:`path_weight` read
    only the lower wedge and price an upper-wedge step by swapping its
    mirror's two step costs (:func:`_step_costs`).
    """

    __slots__ = ("size", "provenance", "at")

    def __init__(
        self, size: int, provenance: str, at: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> None:
        if size < 2:
            raise ValueError("threshold table needs size >= 2")
        self.size, self.provenance, self.at = size, provenance, at

    @classmethod
    def from_function(
        cls,
        size: int,
        fn: Callable[[int, int], float],
        provenance: str = "custom",
        include_column_one: bool = False,
    ) -> "ThresholdSequence":
        """Build a table from fn(i, j), queried only on the strict lower
        wedge 2 <= j < i <= size (plus j == 1 when requested).  The
        diagonal is pinned to 1/2 regardless of fn."""
        check_cells((size + 1) ** 2, "(size + 1)^2")
        lower = np.full((size + 1, size + 1), np.nan)
        for i in range(2, size + 1):
            start = 1 if include_column_one else 2
            for j in range(start, i):
                lower[i, j] = fn(i, j)
            lower[i, i] = 0.5
        i, j = np.tril_indices(size + 1)
        _check_interval(i, lower[i, j])
        return cls(size, provenance, lambda i, j: lower[i, j])

    @classmethod
    def uniform(cls, size: int) -> "ThresholdSequence":
        return cls(size, "uniform", lambda i, j: 0.5)

    @classmethod
    def erdos_szekeres(cls, size: int) -> "ThresholdSequence":
        """t_{i,j} = j / (i + j), the split behind the binomial bound; on
        the diagonal it is 1/2 exactly."""
        return cls(size, "erdos-szekeres", lambda i, j: j / (i + j))

    def _lower(self, i, j) -> np.ndarray:
        """t at (max(i, j), min(i, j)), the lower-wedge cell of each of the
        index arrays inside [1, size]^2 off cell (1, 1), every value checked."""
        rows = np.maximum(i, j)
        lower = self.at(rows, np.minimum(i, j))
        if not np.all((lower > 0.0) & (lower < 1.0)):  # NaN fails both
            _check_interval(rows, lower)
            raise OutOfRange(f"the {self.provenance} table leaves cells undefined")
        return lower

    def _evaluate(self, i, j) -> np.ndarray:
        """t_{i,j} on index arrays inside [1, size]^2 off cell (1, 1): ``at``
        on the lower wedge, every value checked, the upper wedge reflected."""
        lower = self._lower(i, j)
        return np.where(j > i, 1.0 - lower, lower)

    def lookup(self, i: int, j: int) -> float:
        """t_{i,j}, reflecting through 1 - t_{j,i} for the upper wedge."""
        if i < 1 or j < 1 or i > self.size or j > self.size:
            raise OutOfRange(f"({i}, {j}) outside table of size {self.size}")
        if i == j == 1:
            raise OutOfRange("t_{1,1} is not defined")
        return float(self._evaluate(i, j))

    def wedge(self, j_min: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns (i, j, t_{i,j}) over 2 <= i <= size, j_min <= j <= i in
        row-major order: :meth:`lookup` on the whole lower wedge."""
        i, j = np.tril_indices(self.size + 1)
        keep = (i >= 2) & (j >= j_min)
        i, j = i[keep], j[keep]
        return i, j, self._evaluate(i, j)


class BoundTable:
    """A filled table with one axis per colour, each indexed from 1 to its
    length; index 0 of every axis is padding.  ``rows`` and ``cols`` are
    the lengths of the first two axes.

    Every mode stores a log-domain path sum.  The minimising modes ("a",
    "b", "max") hold negLog weights in nats; mode "ramsey" holds log2 of
    the max-form value R, the negLog in bits of the weight 1/R, so values
    far beyond float range stay finite.
    """

    __slots__ = ("mode", "table")

    def __init__(self, mode: str, table: np.ndarray) -> None:
        if mode not in EXPONENT_MODES + ("ramsey",):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode, self.table = mode, table

    @property
    def rows(self) -> int:
        return self.table.shape[0] - 1

    @property
    def cols(self) -> int:
        return self.table.shape[1] - 1

    def _read(self, idx: tuple[int, ...]) -> float:
        shape = self.table.shape
        if len(idx) != len(shape) or not all(1 <= i < n for i, n in zip(idx, shape)):
            size = " x ".join(str(n - 1) for n in shape)
            raise OutOfRange(f"{idx} outside {size} table")
        return float(self.table[idx])

    def neglog(self, *idx: int) -> float:
        v = self._read(idx)
        return -v * math.log(2.0) if self.mode == "ramsey" else v

    def value(self, *idx: int) -> float:
        """Decoded value; OverflowError, naming the cell, when a "ramsey"
        entry exceeds float range."""
        v = self._read(idx)
        if self.mode != "ramsey":
            return math.exp(-v)
        try:
            return 2.0 ** v
        except OverflowError:
            cell = ",".join(map(str, idx))
            raise OverflowError(f"R[{cell}] = 2**{v!r} is beyond float range") from None


def _step_exponent(mode: str, a, b):
    """Exponent of a step through cell (a, b); takes index arrays too.  The
    "ramsey" table steps with exponent 1."""
    if mode == "a":
        return a
    if mode == "b":
        return b
    if mode == "max":
        return np.maximum(a, b)
    return 1


def _step_costs(thresholds: ThresholdSequence, a, b, log=np.log):
    """(-log t_{a,b}, -log(1 - t_{a,b})), the costs of a b-step and of an
    a-step through cells (a, b), before the exponent.  Both are taken from
    the lower-wedge threshold t = t_{max(a,b), min(a,b)} as -log(t) and
    -log(1 - t), and swapped above the diagonal, so a cell and its mirror
    price their two steps alike, bit for bit."""
    t = thresholds._lower(a, b)
    cost_b, cost_a = -log(t), -log(1.0 - t)
    up = b > a
    return np.where(up, cost_a, cost_b), np.where(up, cost_b, cost_a)


def path_weight(
    path: LatticePath, thresholds: ThresholdSequence, exponent: str = "max"
) -> float:
    """negLog of the product over steps of s_i raised to the per-cell
    exponent.

    s_i is t_{a_i,b_i} for a b-increment and 1 - t_{a_i,b_i} for an
    a-increment, priced as the DPs price them (:func:`_step_costs`), all
    read in one call.  A path with no steps has weight exactly 1,
    negLog 0.0.
    """
    if exponent not in EXPONENT_MODES:
        raise ValueError(f"unknown exponent mode {exponent!r}")
    if len(path.points) == 1:
        return 0.0
    if max(path.endpoint) > thresholds.size:
        raise OutOfRange(f"{path.endpoint} needs thresholds beyond size {thresholds.size}")
    a, b, b_inc = np.array(list(path.steps())).T
    cost_b, cost_a = _step_costs(thresholds, a, b)
    return float(np.sum(_step_exponent(exponent, a, b) * np.where(b_inc, cost_b, cost_a)))


def check_corner(k: int, l: int) -> None:
    """Refuse a DP to corner (k, l) before any work: both sides must be at
    least 1, and its (k + 1) x (l + 1) table within ``CELL_BUDGET``."""
    if k < 1 or l < 1:
        raise ValueError("table corner must have k >= 1 and l >= 1")
    check_shape((k + 1, l + 1))


def _max_plus_fill(
    k: int, l: int, thresholds: ThresholdSequence, mode: str
) -> BoundTable:
    """negLog of the minimum path weight to every cell (i, j) <= (k, l):
    the larger of the b-step from (i, j-1), factor t^e, and the a-step
    from (i-1, j), factor (1-t)^e, with boundary cells at 0 (weight 1).
    ``mode`` sets the exponent e; mode "ramsey" counts in bits, the
    others in nats.  The thresholds and both step costs are computed one
    band of antidiagonals at a time, before the table is read, each cell's
    from the lower-wedge threshold (:func:`_step_costs`).  So in modes
    "max" and "ramsey", whose exponent is symmetric too, a cell and its
    mirror take the same floats, and a square table is filled on its
    lower wedge and mirrored; modes "a" and "b", each the other's
    transpose, fill every cell."""
    check_corner(k, l)
    if k > thresholds.size or l > thresholds.size:
        raise OutOfRange(f"({k}, {l}) needs thresholds beyond size {thresholds.size}")
    log = np.log2 if mode == "ramsey" else np.log

    def weights(idx):
        cost_b, cost_a = _step_costs(thresholds, *idx, log)
        e = _step_exponent(mode, *idx)
        return e * cost_b, e * cost_a

    def combine(w, below):
        return np.maximum(w[0] + below[1], w[1] + below[0])

    table = wavefront_fill((k + 1, l + 1), weights, combine, symmetric=mode in ("max", "ramsey"))
    return BoundTable(mode, table)


def dp_min_weight(
    k: int, l: int, thresholds: ThresholdSequence, exponent: str = "max"
) -> BoundTable:
    """Minimum path weight to every cell (i, j) <= (k, l), as one table.

    Recursion on negLogs: the cheaper (larger-weight) of extending from
    (i, j-1) with factor t^e or from (i-1, j) with factor (1-t)^e, with
    boundary cells fixed at weight 1.
    """
    if exponent not in EXPONENT_MODES:
        raise ValueError(f"unknown exponent mode {exponent!r}")
    return _max_plus_fill(k, l, thresholds, exponent)


def ramsey_table(k: int, l: int, thresholds: ThresholdSequence) -> BoundTable:
    """Max-form companion table: R_{i,j} = max(R_{i,j-1}/t, R_{i-1,j}/(1-t))
    with boundary 1.  Stored as log2 R, the min-weight DP in bits with
    exponent 1: it cannot overflow, and is exact for dyadic thresholds.
    Otherwise each step rounds at the magnitude of log2 R, so a decoded R
    carries a relative error of up to about (i + j) * 2^-53 * log2 R."""
    return _max_plus_fill(k, l, thresholds, "ramsey")


def ramsey_bound(k: int, l: int, thresholds: ThresholdSequence) -> float:
    """The max-form bound at the corner cell (k, l)."""
    return ramsey_table(k, l, thresholds).value(k, l)
