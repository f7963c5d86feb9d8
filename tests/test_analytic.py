"""Threshold ODE, limit constants, patch sequences, assembled tables."""

import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ramseymult import analytic
from ramseymult.analytic import (
    InvalidEpsilon,
    Overflow,
    assemble_patched_thresholds,
    build_patch_sequence,
    constant_from_limit,
    default_patch_width,
    estimate_limit_constants,
    find_seed,
    solve_threshold_ode,
    threshold_field,
)
from ramseymult.lattice import OutOfRange, ThresholdSequence
from ramseymult.numerics import NoBracket, SingularField, integrate
from ramseymult.recurrence import build_table, optimal_thresholds

# Fixed-step RK4 endpoint for epsilon = 0.1 at h = 1e-6, regenerated by
# test_fixed_step_oracle below.  The adaptive solver must reproduce it.
RK4_ENDPOINT_EPS_01 = 0.700022904882226

# C* = (L (1 - L))^(-1/2) with L = t(1) of the epsilon -> 0 profile, to 18
# significant digits; a string, since the nearest double is 9.6e-17 off.
# test_c_star_from_a_taylor_solve regenerates it.
C_STAR = "2.18058747354677039"


def rk4_fixed(epsilon, steps):
    """Deliberately different integration scheme for cross-checking."""
    h = 1.0 / steps
    x, y = 0.0, epsilon
    for i in range(steps):
        k1 = threshold_field(x, y)
        k2 = threshold_field(x + h / 2, y + h / 2 * k1)
        k3 = threshold_field(x + h / 2, y + h / 2 * k2)
        k4 = threshold_field(x + h, y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x = (i + 1) * h
    return y


class TestField:
    def test_hand_value_at_origin(self):
        eps = 0.25
        # at x = 0 the field reduces to -ln(eps) * (1 - eps)
        assert math.isclose(
            threshold_field(0.0, eps), -math.log(eps) * (1 - eps), rel_tol=1e-14
        )

    def test_singular_denominator(self):
        # y on the critical curve x / (1 + x)
        with pytest.raises(SingularField):
            threshold_field(0.5, 0.5 / 1.5)

    def test_nonpositive_y(self):
        with pytest.raises(SingularField):
            threshold_field(0.3, 0.0)

    def test_flat_at_one(self):
        assert threshold_field(0.4, 1.0) == 0.0


class TestSolve:
    def test_epsilon_one_constant(self):
        traj = solve_threshold_ode(1.0, 1e-10)
        assert np.all(traj.ys == 1.0)
        assert traj.xs[-1] == 1.0

    def test_profile_rises_and_stays_inside(self):
        traj = solve_threshold_ode(0.1, 1e-10)
        assert np.all(np.diff(traj.ys) > 0)
        assert 0.1 < traj.final_value < 1.0

    def test_fixed_step_oracle(self):
        regen = rk4_fixed(0.1, 1_000_000)
        assert abs(regen - RK4_ENDPOINT_EPS_01) <= 1e-13
        tol = 1e-8
        adaptive = solve_threshold_ode(0.1, tol).final_value
        assert abs(adaptive - RK4_ENDPOINT_EPS_01) <= 100 * tol

    def test_small_epsilon_endpoint_band(self):
        # the limit is visibly closer to 0.7 than to 0.5
        t1 = solve_threshold_ode(1e-6, 1e-10).final_value
        assert 0.65 <= t1 <= 0.75

    def test_invalid_epsilon(self):
        for eps in (0.0, -0.1, 1.5, 1e-13):  # below 1e-12, x = 0 is singular
            with pytest.raises(InvalidEpsilon):
                solve_threshold_ode(eps)

    # from the smallest ratio a table inside the cell budget reads, 1 / 4472,
    # to the diagonal
    PROFILE_XS = np.concatenate((np.geomspace(1 / 4472, 0.99, 12), [1.0]))

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-7, 1e-12])
    def test_dense_output_is_the_solve_to_each_x(self, eps):
        # bound 3e-12: about 10x the largest error measured on this grid
        # (3.5e-13, eps = 1e-2)
        traj = solve_threshold_ode(eps, 1e-10)
        got = traj(self.PROFILE_XS)
        for x, y in zip(self.PROFILE_XS, got):
            assert abs(y - integrate(threshold_field, 0.0, eps, x, 1e-14).final_value) <= 3e-12, x

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-7, 1e-12])
    def test_dense_output_returns_every_sample(self, eps):
        traj = solve_threshold_ode(eps, 1e-10)
        assert np.array_equal(traj(traj.xs).view(np.int64), traj.ys.view(np.int64))
        assert traj(1.0) == traj.final_value


@pytest.fixture(scope="module")
def limit():
    return estimate_limit_constants()


class TestLimitConstants:
    def test_default_ladder_recorded(self, limit):
        _, series = limit
        assert tuple(e for e, _ in series) == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

    def test_limit_band(self, limit):
        est, _ = limit
        assert 0.65 <= est.terms["t1_limit"] <= 0.75
        assert 2.15 <= est.c <= 2.21

    def test_formula_lock(self, limit):
        est, _ = limit
        t1 = est.terms["t1_limit"]
        assert est.c == constant_from_limit(t1)
        assert math.isclose(est.c, (t1 * (1 - t1)) ** -0.5, rel_tol=1e-15)

    def test_convergence_of_endpoint(self, limit):
        est, series = limit
        t1s = [t1 for _, t1 in series]
        diffs = [abs(b - a) for a, b in zip(t1s, t1s[1:])]
        assert diffs[0] < 1e-4
        for a, b in zip(diffs, diffs[1:]):
            # successive refinements shrink until integrator noise
            assert b < a or b < 1e-8
        assert est.terms["t1_spread"] < 1e-6

    def test_one_rung_ladder_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a refused ladder must not be solved")

        with monkeypatch.context() as patch:
            patch.setattr(analytic, "solve_threshold_ode", no_solve)
            for eps_min in (1e-2, 0.05):
                with pytest.raises(InvalidEpsilon, match="at least two rungs"):
                    estimate_limit_constants(eps_min)
        # two rungs are a spread of two endpoints, still allowed
        est, series = estimate_limit_constants(1e-3)
        assert est.terms["t1_spread"] == abs(series[0][1] - series[1][1]) > 0.0

    def test_constant_from_limit_values(self):
        assert constant_from_limit(0.5) == 2.0
        assert math.isclose(constant_from_limit(0.7), 0.21 ** -0.5, rel_tol=1e-15)
        with pytest.raises(ValueError):
            constant_from_limit(1.0)
        with pytest.raises(ValueError):
            constant_from_limit(0.0)


class TestReferenceConstant:
    """C* checks the ODE route's numerics, not the model: it is the same
    ODE solved to 20 digits, and the library never reads it."""

    @staticmethod
    def taylor_c(x0):
        # mpmath's Taylor solver in u = ln x from the profile's series start
        # t(x0) = x0 (L - ln L + 2), L = ln(1/x0): in u the solution is
        # smooth at the scale of u itself, so steps need not shrink with x
        with mpmath.workdps(20):
            lx = -mpmath.log(x0)
            y0 = x0 * (lx - mpmath.log(lx) + 2)

            def field(u, y):
                x = mpmath.exp(u)
                return x * mpmath.log(y) * y * (1 - y) / (x - (1 + x) * y)

            t1 = mpmath.odefun(field, -lx, y0, tol=mpmath.mpf("1e-17"), degree=12)(0)
            return (t1 * (1 - t1)) ** -0.5

    def test_c_star_from_a_taylor_solve(self):
        c14, c18 = self.taylor_c(mpmath.mpf("1e-14")), self.taylor_c(mpmath.mpf("1e-18"))
        with mpmath.workdps(30):
            assert abs(c14 - c18) < 1e-16
            for c in (c14, c18):
                assert abs(c - mpmath.mpf(C_STAR)) < 1e-16

    @pytest.mark.parametrize(
        "epsilon, bound",
        [(1e-7, 4.8e-10), (1e-10, 6e-13)],
        ids=["crosscheck", "last-rung"],
    )
    def test_ode_route_against_c_star(self, epsilon, bound):
        # crosscheck's C_ode (epsilon 1e-7) reads 4.8e-11 high and the
        # epsilon = 1e-10 rung 6.0e-14 low: pinned at ten times that
        c = constant_from_limit(solve_threshold_ode(epsilon, 1e-10).final_value)
        assert abs(c - float(C_STAR)) <= bound


def ln_elementary_ratio(thr, a, b):
    """ln of t_{a-1,b}^(a-1) (1 - t_{a,b})^a / (t_{a,b}^a (1 - t_{a,b-1})^a),
    the ratio of adjacent weighted threshold products, from three lookups;
    near 0 wherever the table is locally consistent with the ODE profile."""
    t_ab, t_up, t_left = thr.lookup(a, b), thr.lookup(a - 1, b), thr.lookup(a, b - 1)
    return (
        (a - 1) * math.log(t_up)
        + a * math.log1p(-t_ab)
        - a * math.log(t_ab)
        - a * math.log1p(-t_left)
    )


class TestElementaryRatio:
    def test_uniform_is_two(self):
        u = ThresholdSequence.uniform(30)
        for a, b in ((3, 2), (10, 4), (30, 15)):
            assert math.isclose(ln_elementary_ratio(u, a, b), math.log(2.0), rel_tol=1e-12)

    def test_optimal_thresholds_balance_to_one(self):
        thr = optimal_thresholds(build_table(40))
        for a in range(4, 41):
            for b in range(3, a):
                assert abs(ln_elementary_ratio(thr, a, b)) <= 1e-8

    def test_patched_region_bounds(self):
        thr = assemble_patched_thresholds(1e-3, 200)
        worst_main = 0.0
        worst_corner = 0.0
        for a in range(50, 201):
            for b in range(2, a // 2 + 1):
                r = abs(ln_elementary_ratio(thr, a, b))
                if b >= 10:
                    worst_main = max(worst_main, r)
                else:
                    worst_corner = max(worst_corner, r)
        # the profile region is locally consistent; the steep corner
        # columns (b < 10 scale to x near 0) drift further but stay bounded
        assert worst_main <= 0.05
        assert worst_corner <= 0.30

    def test_validation(self):
        # the three lookups refuse a cell off the table or a missing column
        with pytest.raises(OutOfRange):
            ln_elementary_ratio(ThresholdSequence.uniform(10), 11, 4)
        thr = optimal_thresholds(build_table(10))
        with pytest.raises(OutOfRange):
            ln_elementary_ratio(thr, 5, 2)  # needs column 1


class TestPatchSequence:
    def test_fixed_point(self):
        p = build_patch_sequence(0.5, 8)
        assert p.values == (0.5,) * 9

    def test_hand_value(self):
        p = build_patch_sequence(0.6, 5)
        assert math.isclose(p.values[2], 2 / 3, rel_tol=1e-14)
        assert len(p.values) == 6
        assert p.values[:2] == (0.5, 0.6)

    def test_random_seeds_stay_inside_and_monotone(self):
        rng = random.Random(2)
        for _ in range(40):
            a1 = rng.uniform(0.5, 0.95)
            p = build_patch_sequence(a1, 12)
            assert all(0.5 <= v < 1.0 for v in p.values)
            assert all(b >= a for a, b in zip(p.values, p.values[1:]))

    def test_ratio_chain_non_increasing(self):
        rng = random.Random(3)
        for _ in range(40):
            p = build_patch_sequence(rng.uniform(0.5, 0.9), 10)
            r = p.ratios()
            assert all(b <= a + 1e-15 for a, b in zip(r, r[1:]))
            assert p.final_ratio <= 2 ** (1 / 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_patch_sequence(0.4, 5)
        with pytest.raises(ValueError):
            build_patch_sequence(1.0, 5)
        with pytest.raises(ValueError):
            build_patch_sequence(0.6, 0)


class TestFindSeed:
    def test_fixed_point_target(self):
        assert find_seed(0.5, 7) == 0.5

    def test_meets_target(self):
        seed = find_seed(0.7, 10)
        assert 0.5 < seed < 0.7
        assert abs(build_patch_sequence(seed, 10).values[-1] - 0.7) <= 1e-9

    def test_monotone_in_target(self):
        assert find_seed(0.6, 8) < find_seed(0.7, 8)

    def test_unreachable_targets(self):
        with pytest.raises(NoBracket):
            find_seed(0.45, 6)
        with pytest.raises(ValueError):
            find_seed(1.0, 6)


class TestAssembledTable:
    def test_default_width(self):
        assert default_patch_width(16) == 4
        assert default_patch_width(17) == 5
        assert default_patch_width(400) == 20
        assert default_patch_width(2) == 1

    def test_patch_band_matches_sequence(self):
        thr = assemble_patched_thresholds(1e-3, 20, w=4)
        traj = solve_threshold_ode(1e-3, 1e-10)
        patch = build_patch_sequence(find_seed(traj.final_value, 4), 4)
        for k in range(5, 21):
            for m in range(0, 5):
                assert thr.lookup(k, k - m) == patch.values[m]

    def test_diagonal_exactly_half(self):
        thr = assemble_patched_thresholds(1e-3, 30)
        for k in range(2, 31):
            assert thr.lookup(k, k) == 0.5

    def test_profile_region_monotone_in_ratio(self):
        thr = assemble_patched_thresholds(1e-3, 40, w=5)
        row = [thr.lookup(40, j) for j in range(1, 35)]
        assert all(b > a for a, b in zip(row, row[1:]))
        assert all(0.0 < v < 1.0 for v in row)

    @pytest.mark.parametrize("eps", [1e-12, 1e-2])
    def test_dense_profile_keeps_its_shape_at_t_2000(self, eps):
        # the dense output is not shape-preserving by construction: every
        # read must stay inside (0, 1), and the last row rise strictly
        # across the profile region
        t = 2000
        thr = assemble_patched_thresholds(eps, t)
        i, j, values = thr.wedge(1)
        assert np.all((values > 0.0) & (values < 1.0))
        row = values[(i == t) & (t - j > default_patch_width(t))]
        assert len(row) == t - 1 - default_patch_width(t)
        assert np.all(np.diff(row) > 0.0)

    def test_crossover_continuity(self):
        # where the patch hands over to the profile the two constructions
        # agree closely once k is large against w
        w = 3
        k = 20 * w
        thr = assemble_patched_thresholds(1e-3, k, w=w)
        traj = solve_threshold_ode(1e-3, 1e-10)
        assert abs(thr.lookup(k, k - w) - float(traj(1 - w / k))) <= 0.05

    def test_column_one_defined(self):
        thr = assemble_patched_thresholds(1e-3, 25)
        assert 0.0 < thr.lookup(2, 1) < 1.0
        assert 0.0 < thr.lookup(25, 1) < 0.2

    def test_provenance_and_reflection(self):
        thr = assemble_patched_thresholds(1e-3, 15)
        assert thr.provenance == "analytic-patched"
        assert thr.lookup(3, 12) == 1.0 - thr.lookup(12, 3)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            assemble_patched_thresholds(1e-3, 10, w=10)
        with pytest.raises(ValueError):
            assemble_patched_thresholds(1e-3, 10, w=0)
        with pytest.raises(InvalidEpsilon):
            assemble_patched_thresholds(0.0, 10)

    def test_package_import_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")

        def fresh(probe):
            return subprocess.run(
                [sys.executable, "-c", probe],
                env={"PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()

        probe = (
            "import sys, ramseymult.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert fresh(probe) == "[]"
        # a bare import loads no numpy and no submodule
        probe = (
            "import sys, ramseymult\n"
            "print([m for m in sys.modules if m == 'numpy' or m.startswith('ramseymult.')])\n"
        )
        assert fresh(probe) == "[]"
