"""Paths, threshold tables, and both dynamic programs, checked against
brute-force enumeration and closed forms."""

import math
import random
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from ramseymult.lattice import (
    EXPONENT_MODES,
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
from ramseymult.analytic import (
    _pchip,
    assemble_patched_thresholds,
    build_patch_sequence,
    default_patch_width,
    find_seed,
    solve_threshold_ode,
)
from ramseymult.numerics import BudgetExceeded, wavefront_fill
from ramseymult.recurrence import build_table, multicolor_table, optimal_thresholds


def is_admissible(points):
    """Re-derivation of the admissibility bullets, kept independent of the
    LatticePath validator on purpose."""
    if not points or any(a < 1 or b < 1 for a, b in points):
        return False
    if points[0][0] != 1 and points[0][1] != 1:
        return False
    if len(points) > 1 and (points[1][0] == 1 or points[1][1] == 1):
        return False
    for (pa, pb), (a, b) in zip(points, points[1:]):
        if sorted((a - pa, b - pb)) != [0, 1]:
            return False
    return True


@lru_cache(maxsize=None)
def count_paths_recursive(k, l):
    """Independent path count: recurse on the last step, terminating at
    boundary cells that admissible paths may occupy."""
    if k == 1 or l == 1:
        # a boundary cell is a valid endpoint only as a one-point path
        return 0
    total = 0
    for pk, pl in ((k - 1, l), (k, l - 1)):
        if pk == 1 or pl == 1:
            total += 1  # path starts at (pk, pl), this is its only step
        else:
            total += count_paths_recursive(pk, pl)
    return total


def random_thresholds(size, seed, include_column_one=False):
    rng = random.Random(seed)
    return ThresholdSequence.from_function(
        size,
        lambda i, j: rng.uniform(0.05, 0.95),
        provenance=f"random-{seed}",
        include_column_one=include_column_one,
    )


KINDS = {
    "uniform": ThresholdSequence.uniform,
    "erdos-szekeres": ThresholdSequence.erdos_szekeres,
    "optimal": lambda size: optimal_thresholds(build_table(size)),
    "patched": lambda size: assemble_patched_thresholds(1e-3, size),
    "random": lambda size: random_thresholds(size, seed=31),
}


def read_rect(thr, k, l):
    """t_{i,j} over 2 <= i <= k, 2 <= j <= l in one evaluator call."""
    return thr._evaluate(*np.ogrid[2 : k + 1, 2 : l + 1])


def dense_reference(thr, k, l, mode):
    """The DP tables as they were once filled: every threshold of the
    corner read into one NaN-padded (k + 1, l + 1) array, both step costs
    computed over it, then the kernel gathers them cell by cell."""
    t = np.full((k + 1, l + 1), np.nan)
    t[2:, 2:] = read_rect(thr, k, l)
    i, j = np.ogrid[: k + 1, : l + 1]
    e = {"a": i, "b": j, "max": np.maximum(i, j), "ramsey": 1}[mode]
    log = np.log2 if mode == "ramsey" else np.log
    cost_b = e * -log(t)
    cost_a = e * -log(1.0 - t)

    def cell(idx, below):
        return np.maximum(cost_b[idx] + below[1], cost_a[idx] + below[0])

    return wavefront_fill((k + 1, l + 1), cell)


def scalar_square(size, fn, include_column_one=True):
    """A stored lower square filled by a scalar loop over the wedge, the
    diagonal pinned to 1/2, as threshold tables were once built."""
    lower = np.full((size + 1, size + 1), np.nan)
    for i in range(2, size + 1):
        for j in range(1 if include_column_one else 2, i):
            lower[i, j] = fn(i, j)
        lower[i, i] = 0.5
    return lower


def optimal_square(table):
    """The optimal thresholds as a NaN-padded square, filled as the
    recurrence module once did."""
    size, neg = table.rows, table.table
    mu = np.arange(2, size + 1)[:, None]
    z = (neg[1:-1, 2:] - neg[2:, 1:-1]) / mu
    wedge = np.tri(size - 1, k=-1, dtype=bool)
    lower = np.full(neg.shape, np.nan)
    lower[2:, 2:] = np.where(wedge, np.exp(-np.logaddexp(0.0, z)), np.nan)
    np.fill_diagonal(lower[2:, 2:], 0.5)
    return lower


def patched_square(epsilon, t_max, w=None):
    """The patched table as a square: patch values near the diagonal, the
    interpolated ODE profile at l / k beyond it."""
    w = default_patch_width(t_max) if w is None else w
    traj = solve_threshold_ode(epsilon, 1e-10)
    patch = build_patch_sequence(find_seed(traj.final_value, w), w)
    lower = np.full((t_max + 1, t_max + 1), np.nan)
    k, j = np.tril_indices(t_max + 1)
    near, far = (k >= 2) & (j >= 1) & (k - j <= w), (j >= 1) & (k - j > w)
    lower[k[near], j[near]] = np.array(patch.values)[(k - j)[near]]
    lower[k[far], j[far]] = _pchip(traj.xs, traj.ys)(j[far] / k[far])
    return lower


def square_rect(lower, k, l):
    """read_rect(k, l) of a stored square: the upper wedge reflected."""
    n = max(k, l)
    low = lower[: n + 1, : n + 1]
    return np.where(np.tri(n + 1, dtype=bool), low, 1.0 - low.T)[2 : k + 1, 2 : l + 1]


def assert_reads_equal(thr, lower, j_min):
    """wedge, rectangles and lookup on a few cells of ``thr`` equal the
    reads of the stored square, in the int64 view."""
    size = thr.size
    i, j = np.tril_indices(size + 1)
    keep = (i >= 2) & (j >= j_min)
    got = thr.wedge(j_min)
    assert np.array_equal(got[0], i[keep]) and np.array_equal(got[1], j[keep])
    assert np.array_equal(got[2].view(np.int64), lower[i[keep], j[keep]].view(np.int64))
    for k, l in ((size, 2), (2, size), (size, size), (size // 2 + 1, size)):
        want = square_rect(lower, k, l)
        assert np.array_equal(read_rect(thr, k, l).view(np.int64), want.view(np.int64)), (k, l)
    for a, b in ((size, 2), (2, size), (size, size), (size, j_min), (j_min + 1, size)):
        if max(a, b) >= 2 and min(a, b) >= j_min:
            want = lower[a, b] if b <= a else 1.0 - lower[b, a]
            assert thr.lookup(a, b) == want and not math.isnan(want), (a, b)


class TestLazyTables:
    """Every kind read through the one evaluator equals the stored square
    that once held it, bit for bit."""

    @pytest.mark.parametrize("t", [50, 500])
    def test_optimal(self, t):
        table = build_table(t)
        thr = optimal_thresholds(table)
        assert thr.provenance == "optimal" and not thr.has_column_one
        assert_reads_equal(thr, optimal_square(table), 2)
        with pytest.raises(OutOfRange):
            thr.wedge(1)

    @pytest.mark.parametrize("t, w", [(40, 5), (200, None)])
    def test_patched(self, t, w):
        thr = assemble_patched_thresholds(1e-3, t, w)
        assert_reads_equal(thr, patched_square(1e-3, t, w), 1)


class TestLatticePath:
    def test_valid_paths_construct(self):
        LatticePath(((2, 1), (2, 2), (3, 2)))
        LatticePath(((1, 4), (2, 4), (2, 5)))
        LatticePath(((5, 1),))
        LatticePath(((1, 1),))

    def test_start_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            LatticePath(((2, 2), (3, 2)))

    def test_must_leave_boundary_immediately(self):
        with pytest.raises(ValueError):
            LatticePath(((1, 1), (2, 1), (2, 2)))
        with pytest.raises(ValueError):
            LatticePath(((2, 1), (3, 1)))

    def test_non_unit_steps_rejected(self):
        with pytest.raises(ValueError):
            LatticePath(((2, 1), (2, 3)))
        with pytest.raises(ValueError):
            LatticePath(((2, 1), (3, 2)))
        with pytest.raises(ValueError):
            LatticePath(((2, 1), (2, 1)))

    def test_positivity(self):
        with pytest.raises(ValueError):
            LatticePath(((0, 1),))

    def test_steps_report_direction(self):
        p = LatticePath(((2, 1), (2, 2), (3, 2)))
        assert list(p.steps()) == [(2, 2, True), (3, 2, False)]
        assert p.endpoint == (3, 2)


class TestEnumeration:
    def test_two_by_two(self):
        got = [p.points for p in enumerate_paths(2, 2)]
        assert got == [((1, 2), (2, 2)), ((2, 1), (2, 2))]

    def test_three_by_three_count(self):
        assert len(enumerate_paths(3, 3)) == 6

    def test_counts_match_independent_recursion(self):
        for k in range(2, 8):
            for l in range(2, 8):
                assert len(enumerate_paths(k, l)) == count_paths_recursive(k, l)

    def test_all_enumerated_paths_admissible(self):
        for k, l in ((2, 5), (4, 4), (6, 3)):
            paths = enumerate_paths(k, l)
            assert len({p.points for p in paths}) == len(paths)
            for p in paths:
                assert is_admissible(p.points)
                assert p.endpoint == (k, l)

    def test_sorted_output(self):
        pts = [p.points for p in enumerate_paths(5, 4)]
        assert pts == sorted(pts)

    def test_cap(self):
        with pytest.raises(TooMany):
            enumerate_paths(7, 7, cap=100)

    def test_rejects_boundary_targets(self):
        with pytest.raises(ValueError):
            enumerate_paths(1, 5)


class TestThresholdSequence:
    def test_uniform_lookup(self):
        u = ThresholdSequence.uniform(6)
        assert u.lookup(3, 2) == 0.5
        assert u.lookup(3, 1) == 0.5
        assert u.lookup(2, 5) == 0.5
        assert u.has_column_one

    def test_erdos_szekeres_values(self):
        es = ThresholdSequence.erdos_szekeres(10)
        assert es.lookup(7, 3) == 3 / 10
        assert es.lookup(5, 1) == 1 / 6
        assert math.isclose(es.lookup(3, 7), 7 / 10, rel_tol=1e-15)

    def test_reflection(self):
        thr = random_thresholds(12, seed=3)
        for i in range(2, 13):
            for j in range(2, i):
                assert thr.lookup(j, i) == 1.0 - thr.lookup(i, j)

    def test_diagonal_pinned(self):
        thr = random_thresholds(9, seed=4)
        for i in range(2, 10):
            assert thr.lookup(i, i) == 0.5

    def test_out_of_range(self):
        thr = random_thresholds(5, seed=5)
        with pytest.raises(OutOfRange):
            thr.lookup(6, 2)
        with pytest.raises(OutOfRange):
            thr.lookup(2, 0)
        with pytest.raises(OutOfRange):
            thr.lookup(1, 1)
        with pytest.raises(OutOfRange):
            thr.lookup(4, 1)  # column 1 not generated for this table
        assert not thr.has_column_one

    def test_rejects_values_outside_open_interval(self):
        with pytest.raises(ValueError):
            ThresholdSequence.from_function(4, lambda i, j: 1.0)
        with pytest.raises(ValueError):
            ThresholdSequence.from_function(4, lambda i, j: 0.0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({(5, 2): 1.5, (7, 7): 0.3}, "row 5 leave"),  # the diagonal is pinned
            ({(6, 6): 0.25, (6, 3): -1.0}, "row 6 leave"),
            ({(8, 3): 1.0, (7, 1): 0.0}, "row 7 leave"),  # column 1 is checked
        ],
        ids=["bad0-row 5 leave", "bad3-row 6 leave", "column-one-row 7 leave"],
    )
    def test_validation_names_first_bad_row(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ThresholdSequence.from_function(
                8, lambda i, j: bad.get((i, j), 0.5), include_column_one=True
            )

    @pytest.mark.parametrize("size", [2, 3, 17, 300])
    def test_closed_forms_equal_scalar_construction(self, size):
        # the scalar loop of from_function is the reference, bit for bit
        for fast, fn in (
            (ThresholdSequence.uniform(size), lambda i, j: 0.5),
            (ThresholdSequence.erdos_szekeres(size), lambda i, j: j / (i + j)),
        ):
            slow = ThresholdSequence.from_function(
                size, fn, provenance=fast.provenance, include_column_one=True
            )
            assert fast.provenance == slow.provenance and fast.size == slow.size
            assert_reads_equal(fast, scalar_square(size, fn), 1)
            assert_reads_equal(slow, scalar_square(size, fn), 1)

    @pytest.mark.parametrize("fill", [1.0, 0.0, np.nan])
    def test_every_read_checks_its_cells(self, fill):
        # one bad cell at (6, 3): every read that covers it, directly or
        # through the reflection, refuses; reads that miss it go through
        thr = ThresholdSequence(
            9, "one-bad-cell", lambda i, j: np.where((i == 6) & (j == 3), fill, 0.5)
        )
        error, match = (OutOfRange, "undefined") if np.isnan(fill) else (ValueError, "row 6 leave")
        for read in (
            lambda: read_rect(thr, 9, 9),
            lambda: read_rect(thr, 3, 6),
            lambda: thr.wedge(2),
            lambda: thr.lookup(6, 3),
            lambda: thr.lookup(3, 6),
            lambda: dp_min_weight(9, 9, thr),
            lambda: ramsey_table(3, 6, thr),
        ):
            with pytest.raises(error, match=match):
                read()
        assert thr.lookup(6, 4) == 0.5
        assert np.all(read_rect(thr, 5, 5) == 0.5)
        assert np.all(read_rect(thr, 9, 2) == 0.5)
        assert dp_min_weight(9, 2, thr).value(9, 2) > 0.0

    def test_diagonal_is_one_half_for_every_kind(self):
        for thr in (
            ThresholdSequence.uniform(60),
            ThresholdSequence.erdos_szekeres(60),
            optimal_thresholds(build_table(60)),
            assemble_patched_thresholds(1e-3, 60),
        ):
            assert np.all(np.diagonal(read_rect(thr, 60, 60)) == 0.5), thr.provenance

    def test_wedge_columns_match_lookup(self):
        for thr, j_min in (
            (random_thresholds(9, seed=6), 2),
            (ThresholdSequence.erdos_szekeres(9), 1),
        ):
            i, j, t = thr.wedge(j_min)
            want = [
                (a, b, thr.lookup(a, b)) for a in range(2, 10) for b in range(j_min, a + 1)
            ]
            assert list(zip(i.tolist(), j.tolist(), t.tolist())) == want
        with pytest.raises(OutOfRange):
            random_thresholds(9, seed=6).wedge(1)  # column 1 not generated

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: ThresholdSequence.from_function(4473, lambda i, j: 0.5), "(size + 1)^2 = 20016676"),
            (lambda: dp_min_weight(4472, 4472, ThresholdSequence.uniform(4472)), "4473 x 4473 table = 20007729"),
            (lambda: ramsey_table(4472, 4472, ThresholdSequence.erdos_szekeres(4472)), "4473 x 4473 table = 20007729"),
            (lambda: build_table(4472), "4473 x 4473 table = 20007729"),
            (lambda: multicolor_table(3, 271), "272 x 272 x 272 table = 20123648"),
        ],
        ids=["from_function", "dp_min_weight", "ramsey_table", "build_table", "multicolor_table"],
    )
    def test_cell_budget(self, build, what):
        with pytest.raises(BudgetExceeded, match=re.escape(f"{what} cells exceeds")):
            build()

    def test_closed_forms_allocate_nothing(self):
        # a closed form costs no cells until it is read
        for thr in (ThresholdSequence.uniform(4473), ThresholdSequence.erdos_szekeres(4473)):
            assert read_rect(thr, 4473, 2).shape == (4472, 1)

    @pytest.mark.parametrize(
        "fill, k, l, kind",
        [
            (dp_min_weight, 4000, 3, "erdos-szekeres"),
            (dp_min_weight, 1000, 1000, "optimal"),
            (dp_min_weight, 1000, 1000, "patched"),
            (ramsey_table, 1000, 1000, "erdos-szekeres"),
        ],
    )
    def test_dp_allocates_its_own_cells_only(self, fill, k, l, kind):
        thr = KINDS[kind](max(k, l))  # built before tracing starts
        tracemalloc.start()
        try:
            table = fill(k, l, thr).table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the fill's O(k + l) index arrays set the floor of a thin table;
        # a (4001 x 4001) square alone would be 128 MB
        assert peak < max(1.25 * table.nbytes, 4 * 2**20), (peak, table.nbytes)


class TestPathWeight:
    def test_uniform_hand_values(self):
        u = ThresholdSequence.uniform(5)
        p = LatticePath(((2, 1), (2, 2), (3, 2), (3, 3)))
        # exponents 2, 3, 3 with every factor 1/2
        assert math.isclose(path_weight(p, u).neglog, 8 * math.log(2), rel_tol=1e-14)
        single = LatticePath(((5, 1),))
        assert path_weight(single, u).neglog == 0.0

    def test_modes_differ(self):
        u = ThresholdSequence.uniform(4)
        p = LatticePath(((1, 2), (2, 2), (2, 3)))
        ln2 = math.log(2)
        assert math.isclose(path_weight(p, u, "a").neglog, 4 * ln2, rel_tol=1e-14)
        assert math.isclose(path_weight(p, u, "b").neglog, 5 * ln2, rel_tol=1e-14)
        assert math.isclose(path_weight(p, u, "max").neglog, 5 * ln2, rel_tol=1e-14)

    def test_unknown_mode(self):
        u = ThresholdSequence.uniform(4)
        with pytest.raises(ValueError):
            path_weight(LatticePath(((2, 1), (2, 2))), u, "s")


class TestMinWeightDP:
    def test_uniform_small_values(self):
        u = ThresholdSequence.uniform(8)
        table = dp_min_weight(8, 8, u)
        assert math.isclose(table.value(2, 2), 0.25, rel_tol=1e-14)
        assert math.isclose(table.value(3, 3), 2.0 ** -8, rel_tol=1e-12)

    def test_uniform_diagonal_closed_form(self):
        u = ThresholdSequence.uniform(8)
        table = dp_min_weight(8, 8, u)
        for t in range(2, 9):
            got = table.neglog(t, t) / math.log(2)
            assert math.isclose(got, 1.5 * t * t - 1.5 * t - 1, rel_tol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_path_enumeration(self, seed):
        thr = random_thresholds(7, seed=seed)
        for mode in ("max", "a", "b"):
            table = dp_min_weight(7, 7, thr, exponent=mode)
            for k in range(2, 8):
                for l in range(2, 8):
                    brute = max(
                        path_weight(p, thr, mode).neglog
                        for p in enumerate_paths(k, l)
                    )
                    assert math.isclose(
                        table.neglog(k, l), brute, rel_tol=1e-10, abs_tol=1e-10
                    )

    def test_symmetry_through_reflected_lookup(self):
        thr = random_thresholds(12, seed=11)
        table = dp_min_weight(12, 12, thr)
        for k in range(2, 13):
            for l in range(2, k):
                assert math.isclose(
                    table.neglog(k, l), table.neglog(l, k), rel_tol=1e-12
                )

    def test_patched_square_symmetric_bit_for_bit(self):
        # the artifact writer formats each distinct bit pattern of a span
        # once, so a cell and its mirror share one repr
        thr = assemble_patched_thresholds(1e-3, 500)
        table = dp_min_weight(500, 500, thr).table.view(np.int64)
        assert np.array_equal(table, table.T)

    def test_neglog_monotone_in_target(self):
        thr = random_thresholds(10, seed=12)
        table = dp_min_weight(10, 10, thr)
        for k in range(2, 11):
            for l in range(2, 11):
                assert table.neglog(k, l) >= table.neglog(k - 1, l)
                assert table.neglog(k, l) >= table.neglog(k, l - 1)

    def test_requires_table_coverage(self):
        with pytest.raises(OutOfRange):
            dp_min_weight(9, 4, random_thresholds(8, seed=13))

    def test_undefined_thresholds_rejected(self):
        holey = ThresholdSequence.from_function(
            5, lambda i, j: np.nan if (i, j) == (4, 3) else 0.5, provenance="holey"
        )
        dp_min_weight(3, 3, holey)
        with pytest.raises(OutOfRange):
            dp_min_weight(3, 4, holey)  # t_{3,4} reflects the hole at t_{4,3}


class TestDenseReference:
    """The DPs read thresholds one antidiagonal at a time; their tables
    equal the old dense fill's bit for bit."""

    @pytest.mark.parametrize("k, l", [(90, 90), (90, 13), (13, 90), (2, 90), (90, 2)])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_tables_equal_dense_reference(self, kind, k, l):
        thr = KINDS[kind](max(k, l))
        for mode in EXPONENT_MODES + ("ramsey",):
            if mode == "ramsey":
                got = ramsey_table(k, l, thr)
            else:
                got = dp_min_weight(k, l, thr, exponent=mode)
            want = dense_reference(thr, k, l, mode)
            assert np.array_equal(got.table.view(np.int64), want.view(np.int64)), mode

    @pytest.mark.parametrize("kind", ["optimal", "patched"])
    def test_large_square(self, kind):
        thr = KINDS[kind](500)
        got = dp_min_weight(500, 500, thr).table
        assert np.array_equal(got.view(np.int64), dense_reference(thr, 500, 500, "max").view(np.int64))


class TestRectangularTables:
    @pytest.mark.parametrize("k, l", [(9, 4), (4, 9), (2, 7)])
    @pytest.mark.parametrize("mode", EXPONENT_MODES + ("ramsey",))
    def test_top_left_block_of_square(self, k, l, mode):
        thr = random_thresholds(9, seed=21)

        def fill(a, b):
            if mode == "ramsey":
                return ramsey_table(a, b, thr)
            return dp_min_weight(a, b, thr, exponent=mode)

        n = max(k, l)
        assert np.array_equal(fill(k, l).table, fill(n, n).table[: k + 1, : l + 1])


class TestRamseyDP:
    def test_uniform_power_of_two(self):
        for k in range(2, 11):
            for l in range(2, 11):
                u = ThresholdSequence.uniform(max(k, l))
                assert ramsey_bound(k, l, u) == 2.0 ** (k + l - 3)

    def test_erdos_szekeres_within_binomial(self):
        es = ThresholdSequence.erdos_szekeres(24)
        for k in range(2, 13):
            for l in range(2, 13):
                assert ramsey_bound(k, l, es) <= math.comb(k + l, k) * (1 + 1e-12)

    def test_beyond_float_range_stays_finite(self):
        rt = ramsey_table(600, 600, ThresholdSequence.uniform(600))
        assert rt.neglog(600, 600) == -1197 * math.log(2.0)
        with pytest.raises(OverflowError):
            rt.value(600, 600)

    def test_erdos_szekeres_hand_value(self):
        es = ThresholdSequence.erdos_szekeres(6)
        assert math.isclose(ramsey_bound(3, 3, es), 20 / 3, rel_tol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_path_maximum(self, seed):
        thr = random_thresholds(6, seed=100 + seed)
        for k in range(2, 7):
            for l in range(2, 7):
                brute = max(
                    math.exp(
                        sum(
                            -math.log(
                                thr.lookup(a, b) if b_inc else 1 - thr.lookup(a, b)
                            )
                            for a, b, b_inc in p.steps()
                        )
                    )
                    for p in enumerate_paths(k, l)
                )
                assert math.isclose(ramsey_bound(k, l, thr), brute, rel_tol=1e-10)


class TestBoundTable:
    def test_accessor_consistency(self):
        u = ThresholdSequence.uniform(5)
        dp = dp_min_weight(5, 5, u)
        assert math.isclose(dp.value(4, 4), math.exp(-dp.neglog(4, 4)), rel_tol=1e-15)
        assert dp.logvalue(4, 4).neglog == dp.neglog(4, 4)
        rt = ramsey_table(5, 5, u)
        assert math.isclose(rt.neglog(4, 4), -math.log(rt.value(4, 4)), rel_tol=1e-15)

    def test_out_of_range_queries(self):
        dp = dp_min_weight(3, 3, ThresholdSequence.uniform(3))
        with pytest.raises(OutOfRange):
            dp.neglog(4, 2)
        with pytest.raises(OutOfRange):
            dp.value(0, 1)

    def test_mode_validated(self):
        import numpy as np

        with pytest.raises(ValueError):
            BoundTable(
                mode="s",
                rows=2,
                cols=2,
                provenance="x",
                table=np.zeros((3, 3)),
            )
