"""The wavefront fill, the adaptive integrator, bisection, fits."""

import math

import numpy as np
import pytest

from ramseymult import numerics
from ramseymult.analytic import assemble_patched_thresholds
from ramseymult.lattice import ThresholdSequence, dp_min_weight, ramsey_table
from ramseymult.numerics import (
    Degenerate,
    NoBracket,
    SingularField,
    Trajectory,
    bisect,
    fit_quadratic_leading,
    integrate,
    wavefront_fill,
)
from ramseymult.recurrence import build_table, optimal_thresholds


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
        # more than a band's cells; each cell is read exactly once
        thr = optimal_thresholds(build_table(300))
        reads = []

        def at(i, j):
            reads.append(np.size(i))
            return thr.at(i, j)

        dp_min_weight(300, 300, ThresholdSequence(thr.size, thr.provenance, at))
        cells = 299 * 299
        assert len(reads) <= 2 * math.ceil(cells / numerics._BAND_CELLS) + 1
        assert sum(reads) == cells


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
        with pytest.raises(ValueError):
            Trajectory(xs=np.array([0.0, 1.0]), ys=np.array([1.0]))
        with pytest.raises(ValueError):
            Trajectory(xs=np.array([0.0, 0.0]), ys=np.array([1.0, 1.0]))


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
