"""Paths, threshold tables, and both dynamic programs, checked against
brute-force enumeration and closed forms."""

import math
import random
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
from ramseymult.numerics import BudgetExceeded


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
            ({(5, 2): 1.5, (7, 7): 0.3}, "row 5 leave"),
            ({(7, 1): 0.0, (5, 5): 0.3}, "diagonal"),
            ({(6, 6): 2.0, (6, 3): 0.3}, "row 6 leave"),  # interval first in a row
            ({(6, 6): 0.25, (6, 3): -1.0}, "row 6 leave"),
            ({(8, 8): np.nan}, "diagonal"),
            ({(3, 4): 7.0, (0, 0): -1.0}, None),  # outside the wedge: ignored
        ],
    )
    def test_validation_names_first_bad_row(self, bad, message):
        lower = ThresholdSequence.uniform(8).lower.copy()
        for cell, v in bad.items():
            lower[cell] = v
        if message is None:
            ThresholdSequence(size=8, provenance="x", lower=lower)
            return
        with pytest.raises(ValueError, match=message):
            ThresholdSequence(size=8, provenance="x", lower=lower)

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
            assert np.array_equal(fast.lower.view(np.int64), slow.lower.view(np.int64))

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
        "build",
        [
            ThresholdSequence.uniform,
            ThresholdSequence.erdos_szekeres,
            lambda size: ThresholdSequence.from_function(size, lambda i, j: 0.5),
        ],
    )
    def test_cell_budget(self, build):
        with pytest.raises(BudgetExceeded, match="20016676 cells"):
            build(4473)


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
        lower = ThresholdSequence.uniform(5).lower.copy()
        lower[4, 3] = np.nan
        holey = ThresholdSequence(size=5, provenance="holey", lower=lower)
        dp_min_weight(3, 3, holey)
        with pytest.raises(OutOfRange):
            dp_min_weight(3, 4, holey)  # t_{3,4} reflects the hole at t_{4,3}


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
