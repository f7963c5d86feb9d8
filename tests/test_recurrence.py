"""Recurrence tables, optimal thresholds, growth fits, multicolour."""

import math
from itertools import product

import mpmath
import numpy as np
import pytest

from ramseymult.lattice import OutOfRange, ThresholdSequence, dp_min_weight
from ramseymult.numerics import BudgetExceeded
from ramseymult.recurrence import (
    WindowTooSmall,
    _ln_binom_4t_choose_t,
    alpha_estimate,
    build_table,
    classical_bounds,
    estimate_growth_constant,
    multicolor_table,
    optimal_thresholds,
    uniform_exponents,
)


@pytest.fixture(scope="module")
def table50():
    return build_table(50)


class TestBuildTable:
    def test_hand_values(self, table50):
        assert math.isclose(table50.value(2, 2), 0.25, rel_tol=1e-14)
        m32 = (1 + 4.0 ** (1 / 3)) ** -3
        assert math.isclose(table50.value(3, 2), m32, rel_tol=1e-12)
        assert math.isclose(table50.value(3, 3), m32 / 8, rel_tol=1e-12)

    def test_boundary_is_one(self, table50):
        for i in range(1, 51):
            assert table50.neglog(i, 1) == 0.0
            assert table50.neglog(1, i) == 0.0

    @pytest.mark.parametrize("t", [50, 1000])
    def test_symmetric(self, t):
        # bit for bit: the artifact writer formats each distinct bit pattern
        # of a span once, so a cell and its mirror share one repr
        neg = build_table(t).table.view(np.int64)
        assert np.array_equal(neg, neg.T)

    def test_strictly_shrinking_interior(self, table50):
        for k in range(2, 51):
            for l in range(2, 51):
                assert table50.neglog(k, l) > table50.neglog(k - 1, l)
                assert table50.neglog(k, l) > table50.neglog(k, l - 1)

    def test_size_validated(self):
        with pytest.raises(ValueError):
            build_table(1)


def scalar_recurrence(q, t_max):
    """Reference fill: one cell at a time in lexicographic order, folding
    the q neighbours with scalar libm log1p and exp."""

    def neglog_add(x, y):
        return min(x, y) - math.log1p(math.exp(-abs(x - y)))

    neg = np.zeros((t_max + 1,) * q)
    for idx in product(range(2, t_max + 1), repeat=q):
        mu = float(max(idx))
        below = [neg[idx[:d] + (idx[d] - 1,) + idx[d + 1 :]] for d in range(q)]
        acc = -below[0] / mu
        for nb in below[1:]:
            acc = neglog_add(acc, -nb / mu)
        neg[idx] = -mu * acc
    return neg


class TestScalarReference:
    def test_two_colour(self):
        np.testing.assert_allclose(
            build_table(60).table, scalar_recurrence(2, 60), rtol=1e-13, atol=0
        )

    def test_three_colour(self):
        np.testing.assert_allclose(
            multicolor_table(3, 12).neglog_array,
            scalar_recurrence(3, 12),
            rtol=1e-13,
            atol=0,
        )

    def test_last_antidiagonals_against_mpmath(self):
        # entries near exp(-1.2e5), far below float range
        neg = build_table(400).table
        cells = [(k, s - k) for s in (799, 800) for k in range(s - 400, 401)]
        with mpmath.workdps(50):
            for k, l in cells:
                mu = max(k, l)
                a, b = mpmath.mpf(neg[k - 1, l]), mpmath.mpf(neg[k, l - 1])
                ref = mu * mpmath.log(mpmath.exp(a / mu) + mpmath.exp(b / mu))
                assert abs(neg[k, l] - float(ref)) <= 1e-12 * neg[k, l]


class TestOptimalThresholds:
    def test_closed_form_small_cells(self, table50):
        thr = optimal_thresholds(table50)
        assert thr.lookup(2, 2) == 0.5
        t32 = 1 / (1 + 4.0 ** (1 / 3))
        assert math.isclose(thr.lookup(3, 2), t32, rel_tol=1e-12)
        assert math.isclose(thr.lookup(2, 3), 1 - t32, rel_tol=1e-12)

    def test_balance_identity(self, table50):
        # at the optimum both DP branches carry equal weight
        thr = optimal_thresholds(table50)
        neg = table50.table
        for k in range(2, 51):
            for l in range(2, k + 1):
                mu = max(k, l)
                t = thr.lookup(k, l)
                branch_b = mu * -math.log(t) + neg[k, l - 1]
                branch_a = mu * -math.log(1 - t) + neg[k - 1, l]
                assert math.isclose(branch_b, branch_a, rel_tol=1e-10, abs_tol=1e-10)

    def test_dp_reproduces_recurrence(self, table50):
        # the min-weight DP under optimal thresholds recovers every cell
        thr = optimal_thresholds(table50)
        dp = dp_min_weight(50, 50, thr, exponent="max")
        for k in range(2, 51):
            for l in range(2, 51):
                assert math.isclose(
                    dp.neglog(k, l), table50.neglog(k, l), rel_tol=1e-9
                )

    def test_no_column_one(self, table50):
        thr = optimal_thresholds(table50)
        assert not thr.has_column_one
        with pytest.raises(OutOfRange):
            thr.lookup(5, 1)

    def test_requires_square_max_table(self, table50):
        from ramseymult.lattice import ramsey_table

        rt = ramsey_table(5, 5, ThresholdSequence.uniform(5))
        with pytest.raises(ValueError):
            optimal_thresholds(rt)


class TestGrowthEstimate:
    def test_constant_in_expected_band(self):
        est = estimate_growth_constant(build_table(120))
        assert 2.10 <= est.c <= 2.25
        assert est.window == (60, 120)

    def test_c_matches_ln_c(self):
        est = estimate_growth_constant(build_table(60))
        assert est.c == math.exp(est.ln_c)

    def test_per_t_series_monotone(self):
        est = estimate_growth_constant(build_table(80))
        vals = [v for _, v in est.per_t]
        assert len(vals) == 79
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < est.ln_c  # still approaching from below

    def test_default_window_needs_depth(self):
        with pytest.raises(WindowTooSmall):
            estimate_growth_constant(build_table(30))

    def test_explicit_window(self):
        tab = build_table(60)
        est = estimate_growth_constant(tab, window=(40, 60))
        assert est.window == (40, 60)
        with pytest.raises(WindowTooSmall):
            estimate_growth_constant(tab, window=(58, 60))
        with pytest.raises(WindowTooSmall):
            estimate_growth_constant(tab, window=(10, 70))


class TestMulticolor:
    def test_two_colour_slice_is_exact(self):
        mc = multicolor_table(2, 40)
        two = build_table(40)
        assert np.array_equal(mc.neglog_array, two.table)

    def test_three_colour_hand_value(self):
        mc = multicolor_table(3, 3)
        assert math.isclose(mc.value_at((2, 2, 2)), 1 / 9, rel_tol=1e-14)

    def test_boundary_cells_are_one(self):
        mc = multicolor_table(3, 4)
        assert mc.value_at((1, 3, 4)) == 1.0
        assert mc.value_at((4, 1, 2)) == 1.0
        assert mc.value_at((1, 1, 1)) == 1.0

    def test_permutation_symmetry(self):
        from itertools import permutations

        mc = multicolor_table(3, 6)
        base = mc.neglog_at((4, 5, 6))
        for perm in permutations((4, 5, 6)):
            assert math.isclose(mc.neglog_at(perm), base, rel_tol=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            multicolor_table(4, 100)
        with pytest.raises(ValueError):
            multicolor_table(1, 10)

    def test_index_validation(self):
        mc = multicolor_table(2, 5)
        with pytest.raises(ValueError):
            mc.neglog_at((2, 6))
        with pytest.raises(ValueError):
            mc.neglog_at((2, 2, 2))


class TestAlpha:
    def test_two_colour_value(self):
        a = alpha_estimate(2, 30)
        assert 0.50 <= a <= 0.60

    def test_three_colour_value(self):
        a = alpha_estimate(3, 8)
        assert 0.45 <= a <= 0.65

    def test_reuses_supplied_table(self):
        mc = multicolor_table(2, 20)
        assert alpha_estimate(2, 20, mc) == alpha_estimate(2, 20)
        assert alpha_estimate(2, 12, mc) == alpha_estimate(2, 12)

    def test_table_mismatch(self):
        mc = multicolor_table(2, 10)
        with pytest.raises(ValueError):
            alpha_estimate(3, 8, mc)
        with pytest.raises(ValueError):
            alpha_estimate(2, 12, mc)


class TestUniformExponents:
    def test_hand_values(self):
        assert uniform_exponents(3, 3) == (9, 9)
        assert uniform_exponents(4, 3) == (14, 12)
        assert uniform_exponents(2, 2) == (3, 3)

    def test_swap_symmetry(self):
        for k in range(2, 12):
            for l in range(2, 12):
                red, blue = uniform_exponents(k, l)
                sred, sblue = uniform_exponents(l, k)
                assert (red, blue) == (sblue, sred)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_exponents(1, 5)


class TestClassicalBounds:
    def test_hand_values_t3(self, table50):
        cb = classical_bounds(3, table50)
        assert math.isclose(cb.upper_random.value, 0.25, rel_tol=1e-14)
        assert math.isclose(
            cb.lower_ramsey.value, 1 / math.comb(64, 3), rel_tol=1e-12
        )
        assert math.isclose(cb.lower_uniform.value, 2.0 ** -9, rel_tol=1e-12)
        assert math.isclose(
            cb.lower_recurrence.value, table50.value(3, 3), rel_tol=1e-14
        )

    def test_ln_binomial_against_exact(self):
        for t in range(2, 9):
            exact = math.log(math.comb(4 ** t, t))
            assert math.isclose(_ln_binom_4t_choose_t(t), exact, rel_tol=1e-12)

    def test_ln_binomial_large_t_finite(self):
        v = _ln_binom_4t_choose_t(400)
        assert math.isfinite(v)
        # dominated by t^2 ln 4: the ratio is close to 1
        assert 0.99 <= v / (400 * 400 * math.log(4)) <= 1.0

    def test_sandwich_and_improvement(self, table50):
        for t in range(2, 51):
            cb = classical_bounds(t, table50)
            assert cb.lower_uniform <= cb.lower_recurrence <= cb.upper_random
            assert cb.lower_recurrence > cb.lower_ramsey

    def test_validation(self, table50):
        with pytest.raises(ValueError):
            classical_bounds(1, table50)
        with pytest.raises(ValueError):
            classical_bounds(60, table50)
