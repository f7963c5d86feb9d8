"""Log-domain arithmetic, the adaptive integrator, bisection, fits."""

import math

import numpy as np
import pytest

from ramseymult.numerics import (
    NEGLOG_ZERO,
    Degenerate,
    LogValue,
    NoBracket,
    SingularField,
    Trajectory,
    bisect,
    fit_quadratic_leading,
    integrate,
    wavefront_fill,
)


class TestLogValue:
    def test_round_trip(self):
        for v in np.logspace(-300, 0, 40):
            lv = LogValue.from_value(float(v))
            assert math.isclose(lv.value, v, rel_tol=1e-12)

    def test_zero_encoding(self):
        z = LogValue.from_value(0.0)
        assert z.neglog == NEGLOG_ZERO
        assert z.value == 0.0

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            LogValue.from_value(-1.0)
        with pytest.raises(ValueError):
            LogValue(float("nan"))

    def test_ordering_follows_values(self):
        small = LogValue.from_value(1e-30)
        big = LogValue.from_value(0.5)
        assert small < big
        assert big > small
        assert small <= small
        assert LogValue.from_value(0.0) < small

    def test_mul_and_pow(self):
        a = LogValue.from_value(0.25)
        b = LogValue.from_value(0.5)
        assert math.isclose((a * b).value, 0.125, rel_tol=1e-14)
        assert math.isclose((b ** 3).value, 0.125, rel_tol=1e-14)
        assert (a * LogValue.from_value(0.0)).neglog == NEGLOG_ZERO


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
        got = wavefront_fill(shape, _index_weighted_paths)
        assert np.array_equal(got, ref)

    def test_boundary_untouched(self):
        got = wavefront_fill((5, 6), _index_weighted_paths)
        assert np.all(got[:2] == 0.0) and np.all(got[:, :2] == 0.0)
        assert got[2, 2] == 4.0
        assert np.array_equal(wavefront_fill((2, 6), _index_weighted_paths), np.zeros((2, 6)))


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
        assert traj.samples[0] == (0.0, 0.1)
        assert traj.epsilon == 0.1
        assert traj.tolerance == 1e-9

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

    def test_trajectory_validates_shape(self):
        with pytest.raises(ValueError):
            Trajectory(
                xs=np.array([0.0, 1.0]), ys=np.array([1.0]), tolerance=1e-8, epsilon=1.0
            )
        with pytest.raises(ValueError):
            Trajectory(
                xs=np.array([0.0, 0.0]),
                ys=np.array([1.0, 1.0]),
                tolerance=1e-8,
                epsilon=1.0,
            )


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
