"""The wavefront fill, the adaptive integrator, bisection, fits."""

import math
import re

import numpy as np
import pytest
from conftest import traced_peak

from ramseymult import numerics
from ramseymult.analytic import assemble_patched_thresholds, threshold_field
from ramseymult.lattice import ThresholdSequence, dp_min_weight, ramsey_table
from ramseymult.numerics import (
    BudgetExceeded,
    Degenerate,
    NoBracket,
    SingularField,
    Trajectory,
    bisect,
    fit_quadratic_leading,
    integrate,
    stream_cells,
    wavefront_fill,
)
from ramseymult.recurrence import (
    _recurrence_cell,
    _recurrence_weights,
    build_table,
    diagonal,
    multicolor_table,
    optimal_thresholds,
)


def _index_weighted_paths(idx, below):
    """Sum of the neighbours plus the product of the indices: exact in
    floats, and wrong wherever an index or a neighbour is misplaced."""
    return sum(below) + np.prod(idx, axis=0)


class TestWavefrontFill:
    @pytest.mark.parametrize(
        "shape", [(7, 4), (4, 7), (3, 9), (5, 7, 4), (3, 3, 3, 6)]
    )
    def test_matches_lexicographic_loop(self, shape):
        # lexicographic order visits every neighbour x - e_d before x
        ref = np.zeros(shape)
        for x in np.ndindex(*shape):
            if min(x) >= 2:
                below = [ref[x[:d] + (x[d] - 1,) + x[d + 1 :]] for d in range(len(x))]
                ref[x] = sum(below) + math.prod(x)
        got = wavefront_fill(shape, lambda idx: idx, _index_weighted_paths)
        assert np.array_equal(got, ref)

    def test_boundary_untouched(self):
        got = wavefront_fill((5, 6), lambda idx: idx, _index_weighted_paths)
        assert np.all(got[:2] == 0.0) and np.all(got[:, :2] == 0.0)
        assert got[2, 2] == 4.0
        assert np.array_equal(wavefront_fill((2, 6), lambda idx: idx, _index_weighted_paths), np.zeros((2, 6)))


class TestStreamedPlanes:
    @pytest.mark.parametrize("band", [1, 5, 4096])
    @pytest.mark.parametrize(
        "shape",
        [(7, 4), (4, 7), (3, 9), (9, 3), (8, 8), (5, 7, 4), (3, 3, 3, 6), (6, 6, 6)],
    )
    def test_each_plane_is_the_tables_antidiagonal(self, monkeypatch, shape, band):
        monkeypatch.setattr(numerics, "_BAND_CELLS", band)
        table = wavefront_fill(shape, lambda idx: idx, _index_weighted_paths)
        idx = np.indices(shape)
        interior = np.all(idx >= 2, axis=0)
        seen = []

        def each_plane(s, plane):
            # entry h of the plane is cell (h, s - sum(h)), h in C order
            cells = interior & (idx.sum(axis=0) == s)
            at = np.ravel_multi_index(tuple(idx[:-1][:, cells]), shape[:-1])
            assert np.array_equal(plane[at].view(np.int64), table[cells].view(np.int64))
            seen.append(s)

        assert wavefront_fill(shape, lambda idx: idx, _index_weighted_paths, each_plane) is None
        assert seen == list(range(2 * len(shape), sum(shape) - len(shape) + 1))

    def test_three_axis_stream_holds_one_plane(self):
        # the (t + 1)^3 table is 4.3 MB at t = 80; the stream keeps one
        # (t + 1)^2 plane and the index rows of its interior
        t = 80
        want = multicolor_table(3, t).table
        diag, peak = traced_peak(diagonal, t, 3)
        u = np.arange(t + 1)
        assert np.array_equal(diag.view(np.int64), want[u, u, u].view(np.int64))
        assert peak <= want.nbytes / 4

    def test_stream_budget_counts_the_plane(self):
        def never(*args):
            raise AssertionError("worked on a refused stream")

        # the 25010001-cell plane alone is over the budget; the one count
        # adds 15 cells a point of its 4999 x 4999 interior
        with pytest.raises(
            BudgetExceeded,
            match="^one hyperplane, its index rows and temporaries = 399860016 cells "
            "exceeds the budget of 20000000$",
        ):
            wavefront_fill((5001, 5001, 3), never, never, never)

    @pytest.mark.parametrize("side, cells", [(3000, 143_820_060), (1500, 35_910_060)])
    def test_stream_budget_counts_index_rows_and_temporaries(self, side, cells):
        # on 3 axes the side^2 plane is under the budget, but each point of
        # its interior adds 7 int64 index rows and 8 hyperplane temporaries;
        # at side 1500 the plane and index rows alone (17.96 M cells) pass
        def never(*args):
            raise AssertionError("worked on a refused stream")

        with pytest.raises(
            BudgetExceeded,
            match=f"^one hyperplane, its index rows and temporaries = {cells} cells "
            "exceeds the budget of 20000000$",
        ):
            wavefront_fill((side, side, 3), never, never, never)

    @pytest.mark.parametrize("t", [80, 160])
    def test_stream_budget_bounds_the_traced_peak(self, t):
        # 8 bytes a cell the budget counts bound what a q = 3 recurrence
        # stream holds (about 12.7 times its plane)
        shape = (t + 1,) * 3
        wavefront_fill(shape, _recurrence_weights, _recurrence_cell, lambda s, plane: None)
        _, peak = traced_peak(
            wavefront_fill, shape, _recurrence_weights, _recurrence_cell, lambda s, plane: None
        )
        assert peak <= 8 * stream_cells(shape)

    def test_no_interior_no_plane(self):
        def never(s, row):
            raise AssertionError("handed a plane of a fill with no interior")

        assert wavefront_fill((2, 9), lambda idx: idx, _index_weighted_paths, never) is None


class TestMirrorFill:
    @pytest.mark.parametrize("band", [1, 5, 4096])
    @pytest.mark.parametrize("n", [3, 4, 7, 8, 40])
    def test_equals_full_fill(self, monkeypatch, n, band):
        monkeypatch.setattr(numerics, "_BAND_CELLS", band)
        want = wavefront_fill((n, n), lambda idx: idx, _index_weighted_paths)
        got = wavefront_fill((n, n), lambda idx: idx, _index_weighted_paths, symmetric=True)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("band", [1, 5, 4096])
    def test_weights_see_the_lower_wedge_once(self, monkeypatch, band):
        monkeypatch.setattr(numerics, "_BAND_CELLS", band)
        seen = []

        def weights(idx):
            seen.append(np.stack(idx))
            return idx

        wavefront_fill((40, 40), weights, _index_weighted_paths, symmetric=True)
        i, j = np.concatenate(seen, axis=1)
        assert np.all(i >= j)
        assert len(set(zip(i.tolist(), j.tolist()))) == i.size == 38 * 39 // 2

    def test_stream_hands_over_the_lower_wedge(self):
        table = wavefront_fill((30, 30), lambda idx: idx, _index_weighted_paths)

        def each_plane(s, plane):
            i = np.arange((s + 1) // 2, min(s - 2, 29) + 1)
            assert np.array_equal(plane[i], table[i, s - i])

        wavefront_fill((30, 30), lambda idx: idx, _index_weighted_paths, each_plane, True)

    def test_recurrence_equals_its_full_fill(self):
        # the two-colour cell is symmetric bit for bit, so its lower wedge
        # mirrored is the full fill
        full = wavefront_fill((301, 301), _recurrence_weights, _recurrence_cell)
        assert np.array_equal(build_table(300).table.view(np.int64), full.view(np.int64))

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7), (3, 9), (6, 6, 6)])
    def test_other_shapes_fill_every_cell(self, shape):
        want = wavefront_fill(shape, lambda idx: idx, _index_weighted_paths)
        got = wavefront_fill(shape, lambda idx: idx, _index_weighted_paths, symmetric=True)
        assert np.array_equal(got, want)


THRESHOLD_KINDS = {
    "uniform": ThresholdSequence.uniform,
    "erdos-szekeres": ThresholdSequence.erdos_szekeres,
    "optimal": lambda size: optimal_thresholds(build_table(size)),
    "patched": lambda size: assemble_patched_thresholds(1e-3, size),
}


class TestBands:
    @pytest.mark.parametrize("band", [1, 5])
    @pytest.mark.parametrize(
        "shape", [(7, 4), (4, 7), (3, 9), (5, 7, 4), (3, 3, 3, 6)]
    )
    def test_band_size_leaves_table_unchanged(self, monkeypatch, shape, band):
        # band 1 is one antidiagonal per band; band 5 mixes bands of several
        # short antidiagonals with longer ones alone; fills on more axes
        # keep one hyperplane per band whatever the constant
        want = wavefront_fill(shape, lambda idx: idx, _index_weighted_paths)
        monkeypatch.setattr(numerics, "_BAND_CELLS", band)
        got = wavefront_fill(shape, lambda idx: idx, _index_weighted_paths)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("band", [1, 5])
    @pytest.mark.parametrize("kind", list(THRESHOLD_KINDS))
    def test_band_size_leaves_dp_bits_unchanged(self, monkeypatch, kind, band):
        thr = THRESHOLD_KINDS[kind](37)

        def fill(mode):
            if mode == "ramsey":
                return ramsey_table(37, 23, thr).table
            return dp_min_weight(37, 23, thr, mode).table

        modes = ("a", "b", "max", "ramsey")
        want = [fill(mode) for mode in modes]
        monkeypatch.setattr(numerics, "_BAND_CELLS", band)
        for mode, table in zip(modes, want):
            assert np.array_equal(fill(mode).view(np.int64), table.view(np.int64)), mode

    def test_thresholds_read_once_per_band(self):
        # a band holds whole antidiagonals, so two consecutive bands hold
        # more than a band's cells; the square fills its lower wedge, and
        # each of its cells is read exactly once
        thr = optimal_thresholds(build_table(300))
        reads = []

        def at(i, j):
            reads.append(np.size(i))
            return thr.at(i, j)

        dp_min_weight(300, 300, ThresholdSequence(thr.size, thr.provenance, at))
        cells = 299 * 300 // 2
        assert len(reads) <= 2 * math.ceil(cells / numerics._BAND_CELLS) + 1
        assert sum(reads) == cells


# The Dormand-Prince step as a loop over its tableau, as integrate took it
# before the step was unrolled: the reference its float operations must
# match bit for bit.
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


def tableau_integrate(field, x0, y0, x1, tol):
    def eval_field(x, y):
        v = field(x, y)
        if not math.isfinite(v):
            raise SingularField(f"field returned {v!r} at x={x!r}, y={y!r}")
        return v

    xs, ys, stages = [x0], [y0], []
    x, y = x0, y0
    h = (x1 - x0) / 1000.0
    k1 = eval_field(x, y)
    err_prev = 1.0
    k = [0.0] * 7
    for _ in range(numerics._MAX_STEPS):
        if x >= x1:
            break
        h = min(h, x1 - x)
        if h < 32 * math.ulp(max(abs(x), (x1 - x0) * 2.0**-52)):
            raise SingularField(
                f"step size underflow ({h!r}) at x={x!r}; field is too stiff here"
            )
        k[0] = k1
        failed = False
        for i in range(1, 7):
            yi = y
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    yi += h * a * k[j]
            try:
                k[i] = eval_field(x + _DP_C[i] * h, yi)
            except SingularField:
                failed = True
                break
        if failed:
            h *= 0.25
            continue
        err = abs(sum(e * ki for e, ki in zip(_DP_E, k)))
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
            stages.append(k[:1] + k[2:])  # the dense output weighs k2 by 0
            k1 = k[6]
            rr = max(r, 1e-10)
            fac = 0.9 * rr ** -0.14 * err_prev ** 0.08
            err_prev = rr
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * r ** -0.2)
    else:
        raise SingularField("step budget exhausted; field is too stiff")
    return Trajectory(np.asarray(xs), np.asarray(ys), np.asarray(stages))


def _undershoot(x, y):
    # stiff relaxation to 1; the first steps' interior stages undershoot
    # past 1 - 1e-3 and raise, so those steps are retried at a quarter
    if y < 1.0 - 1e-3:
        raise SingularField("undershoot")
    return -5000.0 * (y - 1.0)


class TestUnrolledStep:
    @pytest.mark.parametrize(
        "field, x0, y0, x1, tol",
        [
            (threshold_field, 0.0, 1e-2, 1.0, 1e-10),
            (threshold_field, 0.0, 1e-5, 1.0, 1e-10),
            (threshold_field, 0.0, 1e-9, 1.0, 1e-10),
            (threshold_field, 0.0, 1e-11, 1.0, 1e-10),
            (threshold_field, 0.0, 1e-12, 1.0, 1e-10),
            (lambda x, y: -y, 0.0, 1.0, 1.0, 1e-8),
            (lambda x, y: y * math.cos(x), 0.0, 1.0, 10.0, 1e-9),
            (_undershoot, 0.0, 2.0, 1.0, 1e-9),
        ],
        ids=[
            "threshold-1e-2", "threshold-1e-5", "threshold-1e-9", "threshold-1e-11",
            "threshold-1e-12", "decay", "y-cos", "interior-raise",
        ],
    )
    def test_matches_the_tableau_loop_bit_for_bit(self, field, x0, y0, x1, tol):
        want = tableau_integrate(field, x0, y0, x1, tol)
        got = integrate(field, x0, y0, x1, tol)
        assert np.array_equal(got.xs.view(np.int64), want.xs.view(np.int64))
        assert np.array_equal(got.ys.view(np.int64), want.ys.view(np.int64))
        # the dense output, at the quarter points of every step
        q = (got.xs[:-1, None] + np.diff(got.xs)[:, None] * [0.25, 0.5, 0.75]).ravel()
        assert np.array_equal(got(q).view(np.int64), want(q).view(np.int64))

    def test_interior_raise_is_retried(self):
        raised = []

        def field(x, y):
            try:
                return _undershoot(x, y)
            except SingularField:
                raised.append(x)
                raise

        assert integrate(field, 0.0, 2.0, 1.0, 1e-9).xs[-1] == 1.0
        assert raised  # stages raised, and the solve still reached x1

    @pytest.mark.parametrize(
        "field, y0, tol",
        [
            (threshold_field, 1e-3, 1e-16),
            (lambda x, y: 1.0 / (0.5 - x), 0.0, 1e-10),
            (threshold_field, 1e-12, 1e-20),
        ],
        ids=["threshold-1e-3-tol-1e-16", "pole", "threshold-1e-12-tol-1e-20"],
    )
    def test_same_step_underflow_message(self, field, y0, tol):
        with pytest.raises(SingularField) as want:
            tableau_integrate(field, 0.0, y0, 1.0, tol)
        with pytest.raises(SingularField) as got:
            integrate(field, 0.0, y0, 1.0, tol)
        assert str(got.value) == str(want.value)
        h, x = re.fullmatch(
            r"step size underflow \((.+)\) at x=(.+); field is too stiff here", str(got.value)
        ).groups()
        if float(x) == 0.0:
            # 32 ulps of 2**-52 on [0, 1], not of 0.0 (5e-324): the refused
            # step is a normal float, at most a rejection's 0.2 below the floor
            assert 0.2 * 2.0**-99 <= float(h) < 2.0**-99


class TestIntegrate:
    def test_zero_field_constant(self):
        traj = integrate(lambda x, y: 0.0, 0.0, 0.3, 1.0, 1e-10)
        assert np.all(traj.ys == 0.3)
        assert traj.xs[0] == 0.0
        assert traj.xs[-1] == 1.0

    def test_exponential_decay_accuracy(self):
        tol = 1e-8
        traj = integrate(lambda x, y: -y, 0.0, 1.0, 1.0, tol)
        assert abs(traj.ys[-1] - math.exp(-1.0)) <= 10 * tol
        # and between the samples, from the dense output
        q = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(traj(q) - np.exp(-q))) <= 10 * tol

    def test_error_tracks_tolerance(self):
        # halving tol should roughly halve the achieved error; allow a
        # factor-4 band on either side of exact halving
        exact = math.exp(-1.0)

        def err(tol):
            return abs(integrate(lambda x, y: -y, 0.0, 1.0, 1.0, tol).ys[-1] - exact)

        for tol in (1e-4, 2.5e-5, 5e-7, 1e-8):
            ratio = err(tol / 2) / err(tol)
            assert 0.5 / 4 <= ratio <= 0.5 * 4, (tol, ratio)

    def test_samples_strictly_increasing(self):
        traj = integrate(lambda x, y: y * (1 - y), 0.0, 0.1, 2.0, 1e-9)
        assert np.all(np.diff(traj.xs) > 0)
        assert (traj.xs[0], traj.ys[0]) == (0.0, 0.1)

    def test_nonfinite_field_raises(self):
        with pytest.raises(SingularField):
            integrate(lambda x, y: 1.0 / (0.5 - x), 0.0, 0.0, 1.0, 1e-8)

    def test_field_exception_propagates_after_retries(self):
        def fld(x, y):
            if x > 0.5:
                raise SingularField("wall at 1/2")
            return 1.0

        with pytest.raises(SingularField):
            integrate(fld, 0.0, 0.0, 1.0, 1e-8)

    def test_rejects_bad_interval_and_tol(self):
        with pytest.raises(ValueError):
            integrate(lambda x, y: 0.0, 1.0, 0.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            integrate(lambda x, y: 0.0, 0.0, 0.0, 1.0, 0.0)
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                integrate(lambda x, y: 0.0, 0.0, 0.0, 1.0, tol)

    def test_trajectory_validates_shape(self):
        step = np.zeros((1, 6))
        with pytest.raises(ValueError):
            Trajectory(xs=np.array([0.0, 1.0]), ys=np.array([1.0]), stages=step)
        with pytest.raises(ValueError):
            Trajectory(xs=np.array([0.0, 0.0]), ys=np.array([1.0, 1.0]), stages=step)
        with pytest.raises(ValueError):
            Trajectory(xs=np.array([0.0, 1.0]), ys=np.array([1.0, 1.0]), stages=np.zeros((2, 6)))
        with pytest.raises(ValueError):
            Trajectory(xs=np.array([0.0]), ys=np.array([1.0]), stages=np.zeros((0, 6)))


class TestBisect:
    def test_cosine_root(self):
        root = bisect(math.cos, 0.0, 3.0, 1e-12)
        assert abs(root - math.pi / 2) <= 1e-12

    def test_endpoint_zeros_returned_exactly(self):
        assert bisect(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
        assert bisect(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # a nan or inf tol would return the bracket's midpoint unbisected
        calls = []

        def g(x):
            calls.append(x)
            return x - 0.3

        with pytest.raises(ValueError, match="tol must be positive and finite"):
            bisect(g, 0.0, 1.0, tol)
        assert calls == []

    def test_evaluation_budget(self):
        lo, hi, tol = 0.0, 3.0, 1e-9
        calls = 0

        def g(x):
            nonlocal calls
            calls += 1
            return math.cos(x)

        bisect(g, lo, hi, tol)
        assert calls <= math.ceil(math.log2((hi - lo) / tol)) + 2

    def test_decreasing_function(self):
        root = bisect(lambda x: 1.0 - x, 0.0, 2.0, 1e-12)
        assert abs(root - 1.0) <= 1e-12


class TestQuadraticFit:
    def test_exact_quadratic(self):
        pts = [(float(t), 2.0 * t * t + 3.0 * t + 1.0) for t in range(1, 12)]
        alpha, resid = fit_quadratic_leading(pts)
        assert math.isclose(alpha, 2.0, rel_tol=1e-10)
        assert resid <= 1e-9

    def test_bounded_perturbation(self):
        pts = [(float(t), t * t + math.sin(t)) for t in range(1, 40)]
        alpha, resid = fit_quadratic_leading(pts)
        assert abs(alpha - 1.0) <= 0.01
        assert resid <= 1.0

    def test_degenerate_abscissae(self):
        pts = [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (2.0, 5.0)]
        with pytest.raises(Degenerate):
            fit_quadratic_leading(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_quadratic_leading([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
