"""Recurrence tables, optimal thresholds, growth fits, multicolour."""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
from conftest import traced_peak

from ramseymult.lattice import BoundTable, OutOfRange, ThresholdSequence, dp_min_weight
from ramseymult.numerics import CELL_BUDGET, BudgetExceeded, fit_quadratic_leading, stream_cells
from ramseymult import recurrence
from ramseymult.recurrence import (
    STREAM_T_MAX,
    WindowTooSmall,
    _check_stream,
    alpha_estimate,
    build_table,
    diagonal,
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
            multicolor_table(3, 12).table,
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
        with pytest.raises(OutOfRange):
            thr.lookup(2, 1)
        with pytest.raises(OutOfRange):
            thr.lookup(5, 1)

    @pytest.mark.parametrize("rows, cols", [(60, 1), (60, 2), (60, 17), (59, 59)])
    def test_thin_table_is_top_left_block(self, rows, cols):
        square = build_table(60).table
        thin = build_table(rows, cols)
        assert (thin.rows, thin.cols) == (rows, cols)
        assert np.array_equal(
            thin.table.view(np.int64), square[: rows + 1, : cols + 1].view(np.int64)
        )

    def test_thin_table_refuses_more_columns_than_rows(self):
        with pytest.raises(ValueError):
            build_table(10, 11)
        with pytest.raises(ValueError):
            build_table(10, 0)

    def test_thin_thresholds_match_square_inside(self, table50):
        thin, square = optimal_thresholds(build_table(50, 9)), optimal_thresholds(table50)
        for i in range(2, 51):
            for j in range(2, min(i, 9) + 1):
                assert thin.lookup(i, j) == square.lookup(i, j)
                assert thin.lookup(j, i) == square.lookup(j, i)
        for k, l in [(50, 9), (9, 50)]:  # the DPs the block serves
            assert np.array_equal(
                dp_min_weight(k, l, thin).table, dp_min_weight(k, l, square).table
            )

    @pytest.mark.parametrize("i, j", [(50, 10), (10, 50), (10, 10), (50, 50), (12, 11)])
    def test_thin_thresholds_undefined_outside(self, i, j):
        thr = optimal_thresholds(build_table(50, 9))
        with pytest.raises(OutOfRange):
            thr.lookup(i, j)
        with pytest.raises(OutOfRange):  # a DP reading past the block
            dp_min_weight(i, j, thr)

    def test_requires_square_max_table(self, table50):
        from ramseymult.lattice import ramsey_table

        rt = ramsey_table(5, 5, ThresholdSequence.uniform(5))
        with pytest.raises(ValueError):
            optimal_thresholds(rt)


class TestDiagonal:
    @pytest.mark.parametrize(
        "q, t",
        [pytest.param(2, t, id=str(t)) for t in (2, 3, 4, 37, 500, 1000, 2000)]
        + [
            pytest.param(q, t, id=f"q{q}-{t}")
            for q, t in [(3, 2), (3, 3), (3, 30), (3, 60), (4, 12), (4, 30), (5, 10)]
        ],
    )
    def test_equals_the_table_diagonal_bit_for_bit(self, q, t):
        # q = 2 against build_table, every q against multicolor_table
        u = np.arange(t + 1)
        tables = [build_table(t), multicolor_table(q, t)] if q == 2 else [multicolor_table(q, t)]
        for table in tables:
            want = table.table[(u,) * q]
            assert np.array_equal(diagonal(t, q).view(np.int64), want.view(np.int64))

    def test_memory_grows_linearly(self):
        # the table would grow 4-fold from t = 1000 to 2000
        peaks = []
        for t in (1000, 2000):
            peaks.append(traced_peak(diagonal, t)[1])
        assert peaks[1] <= 2 * peaks[0]

    def test_refused_before_the_fill(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("filled a refused diagonal")

        monkeypatch.setattr(recurrence, "wavefront_fill", never)
        with pytest.raises(ValueError, match="t_max must be at least 2"):
            diagonal(1)
        for read in (diagonal, estimate_growth_constant, lambda t: alpha_estimate(2, t)):
            with pytest.raises(BudgetExceeded, match=f"^a diagonal to t = {STREAM_T_MAX + 1} exceeds"):
                read(STREAM_T_MAX + 1)
        # one bound for every q: t^q <= STREAM_T_MAX^2, so t <= 736 at q = 3
        for read in (lambda t: diagonal(t, 3), lambda t: alpha_estimate(3, t)):
            with pytest.raises(
                BudgetExceeded, match="^a diagonal to t = 737 exceeds the streaming bound t <= 736$"
            ):
                read(737)
        # an unusable window is refused before the fill as well
        with pytest.raises(WindowTooSmall):
            estimate_growth_constant(30)

    def test_every_refusal_names_a_t_that_runs(self, monkeypatch):
        # the edge E named by a refusal passes both the time rule and the
        # stream budget, and E + 1 is refused naming E; from q = 17 E = 1
        def never(*args, **kwargs):
            raise AssertionError("filled while checking a stream")

        monkeypatch.setattr(recurrence, "wavefront_fill", never)
        edges = []
        for q in range(2, 25):
            with pytest.raises(BudgetExceeded) as refused:
                _check_stream(q, 10**6)
            edge = int(str(refused.value).rpartition("t <= ")[2])
            edges.append(edge)
            if edge >= 2:
                _check_stream(q, edge)
                assert edge**q <= STREAM_T_MAX**2
                assert stream_cells((edge + 1,) * q) <= CELL_BUDGET
            with pytest.raises(
                BudgetExceeded,
                match=f"^a diagonal to t = {edge + 1} exceeds the streaming bound t <= {edge}$",
            ):
                _check_stream(q, edge + 1)
        assert edges == [20000, 736, 100, 31, 15, 10, 7, 5, 4, 4, 3, 3, 2, 2, 2] + [1] * 8

    def test_readers_without_a_table_read_it(self):
        table = build_table(120)
        for t_max, window in [(120, (60, 120)), (60, (30, 60))]:
            pts = [(float(t), table.neglog(t, t)) for t in range(window[0], window[1] + 1)]
            est = estimate_growth_constant(t_max)
            ln_c, resid = fit_quadratic_leading(pts)
            assert (est.ln_c, est.terms) == (ln_c, {"rms_residual": resid})
        alpha = alpha_estimate(2, 120)
        assert type(alpha) is float and alpha == table.neglog(120, 120) / (2 * 120 * 120 * math.log(2))


class TestGrowthEstimate:
    def test_constant_in_expected_band(self):
        est = estimate_growth_constant(120)
        assert 2.10 <= est.c <= 2.25

    def test_c_matches_ln_c(self):
        est = estimate_growth_constant(60)
        assert est.c == math.exp(est.ln_c)

    def test_per_t_series_monotone(self):
        table = build_table(80)
        est = estimate_growth_constant(80)
        vals = [table.neglog(t, t) / (t * t) for t in range(2, 81)]
        assert len(vals) == 79
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < est.ln_c  # still approaching from below

    def test_default_window_needs_depth(self):
        with pytest.raises(WindowTooSmall):
            estimate_growth_constant(30)


class TestMulticolor:
    def test_two_colour_slice_is_exact(self):
        mc = multicolor_table(2, 40)
        two = build_table(40)
        assert np.array_equal(mc.table, two.table)

    def test_three_colour_hand_value(self):
        mc = multicolor_table(3, 3)
        assert math.isclose(mc.value(2, 2, 2), 1 / 9, rel_tol=1e-14)

    def test_boundary_cells_are_one(self):
        mc = multicolor_table(3, 4)
        assert mc.value(1, 3, 4) == 1.0
        assert mc.value(4, 1, 2) == 1.0
        assert mc.value(1, 1, 1) == 1.0

    def test_permutation_symmetry(self):
        from itertools import permutations

        mc = multicolor_table(3, 6)
        base = mc.neglog(4, 5, 6)
        for perm in permutations((4, 5, 6)):
            assert math.isclose(mc.neglog(*perm), base, rel_tol=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            multicolor_table(4, 100)
        with pytest.raises(ValueError):
            multicolor_table(1, 10)

    @pytest.mark.parametrize("q", [25, 10_000, 300_000])
    def test_huge_q_refused_before_any_shape(self, monkeypatch, q):
        # every axis holds at least 2 entries, so q >= 25 needs more than
        # 2^24 cells; the refusal forms no shape and no power of t
        def never(*args, **kwargs):
            raise AssertionError("worked on a refused q")

        monkeypatch.setattr(recurrence, "wavefront_fill", never)
        why = f"^q = {q} colours need at least 2\\^q cells, over the budget of 20000000$"
        for read in (lambda: multicolor_table(q, 2), lambda: diagonal(2, q), lambda: alpha_estimate(q, 2)):
            with pytest.raises(BudgetExceeded, match=why):
                read()

    def test_index_validation(self):
        mc = multicolor_table(2, 5)
        with pytest.raises(ValueError):
            mc.neglog(2, 6)
        with pytest.raises(ValueError):
            mc.neglog(2, 2, 2)

    def test_one_table_type(self):
        three, two = multicolor_table(3, 5), multicolor_table(2, 5)
        assert type(three) is type(two) is type(build_table(5)) is BoundTable
        for read in (three.neglog, three.value):
            with pytest.raises(OutOfRange):
                read(2, 2)
            with pytest.raises(OutOfRange):
                read(2, 2, 2, 2)
        with pytest.raises(OutOfRange):
            two.value(2, 2, 2)
        # the thresholds work in two dimensions and refuse a third
        with pytest.raises(ValueError):
            optimal_thresholds(three)


class TestAlpha:
    def test_two_colour_value(self):
        a = alpha_estimate(2, 30)
        assert 0.50 <= a <= 0.60

    def test_three_colour_value(self):
        a = alpha_estimate(3, 8)
        assert 0.45 <= a <= 0.65

    @pytest.mark.parametrize("q, t", [(2, 20), (3, 20), (4, 8)])
    def test_every_q_reads_the_streamed_diagonal(self, q, t):
        want = multicolor_table(q, t).neglog(*(t,) * q) / (q * t * t * math.log(q))
        assert alpha_estimate(q, t) == want


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
        # random colouring 2^(1 - 3) = 1/4, uniform thresholds 2^-9,
        # Erdos 1 / C(64, 3), and the recurrence's M_{3,3}
        neglog = float(diagonal(3)[3])
        assert math.isclose(math.exp(-(math.comb(3, 2) - 1) * math.log(2.0)), 0.25, rel_tol=1e-14)
        assert 2.0 ** -uniform_exponents(3, 3)[0] == 2.0 ** -9
        assert math.isclose(math.exp(-neglog), table50.value(3, 3), rel_tol=1e-14)
        assert 2.0 ** -9 < math.exp(-neglog) < 0.25
        assert 1 / math.comb(64, 3) < math.exp(-neglog)

    def test_fields_are_neglog_floats(self, table50):
        diag = diagonal(50)
        for t in (2, 3, 17, 50):
            neglog = float(diag[t])
            assert 0.0 <= neglog < math.inf, t
            assert neglog == table50.neglog(t, t)

    def test_readme_figures_at_t400(self):
        # the comparison the README states: negLog M_{400,400} against
        # Erdos's ln C(4^400, 400)
        assert round(float(diagonal(400)[400])) == 124669
        assert round(math.log(math.comb(4**400, 400))) == 219807

    def test_gap_widens_toward_ln4_minus_ln_c(self):
        # (ln C(4^t, t) - negLog M_{t,t}) / t^2 grows with t, toward
        # ln 4 - ln C, the paper's improvement in the exponent
        diag = diagonal(400)
        gaps = [
            (math.log(math.comb(4**t, t)) - float(diag[t])) / t**2
            for t in (25, 50, 100, 200, 400)
        ]
        assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < math.log(4.0) - estimate_growth_constant(400).ln_c

    def test_sandwich_and_improvement(self):
        # negLogs, a larger negLog is a smaller density: M_{t,t} lies between
        # the uniform thresholds' bound and the random colouring's
        # 2^(1 - C(t,2)), and beats Erdos's 1 / C(4^t, t), taken exactly
        diag = diagonal(50)
        ln2 = math.log(2.0)
        for t in range(2, 51):
            neglog = float(diag[t])
            assert (math.comb(t, 2) - 1) * ln2 <= neglog <= uniform_exponents(t, t)[0] * ln2
            assert neglog < math.log(math.comb(4**t, t))
