"""Acceptance gate: the headline guarantees, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Each criterion states its own tolerance; nothing here is
allowed to loosen them.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ramseymult.analytic import (
    assemble_patched_thresholds,
    build_patch_sequence,
    default_patch_width,
    estimate_limit_constants,
    find_seed,
    solve_threshold_ode,
)
from ramseymult.lattice import (
    ThresholdSequence,
    dp_min_weight,
    enumerate_paths,
    path_weight,
    ramsey_bound,
)
from ramseymult.oracle import exact_min, ratio_series
from ramseymult.recurrence import (
    alpha_estimate,
    build_table,
    estimate_growth_constant,
    multicolor_table,
    optimal_thresholds,
    uniform_exponents,
)


def report(number, description):
    """Print one PASS/FAIL line per criterion around the checks."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"{verdict} criterion {number}: {description}")
            return False

    return _Reporter()


@pytest.fixture(scope="module")
def big():
    t0 = time.perf_counter()
    table = build_table(400)
    estimate = estimate_growth_constant(table)
    seconds = time.perf_counter() - t0
    return {"table": table, "estimate": estimate, "seconds": seconds}


def test_criterion_1_recurrence_constant(big):
    with report(1, "recurrence growth constant in [2.15, 2.21] under 10 s"):
        assert big["seconds"] < 10.0, f"took {big['seconds']:.2f}s"
        c = big["estimate"].c
        assert 2.15 <= c <= 2.21, f"C = {c}"


def test_criterion_2_ode_limit_agrees(big):
    with report(2, "ODE limit in [0.65, 0.75] and matches recurrence C within 0.02"):
        t0 = time.perf_counter()
        est = estimate_limit_constants()  # ladder down to 1e-7
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert 0.65 <= est.t1_limit <= 0.75, f"t1 = {est.t1_limit}"
        diff = abs(est.c - big["estimate"].c)
        assert diff <= 0.02, f"|C_ode - C_rec| = {diff}"


def test_criterion_3_dp_reproduces_recurrence():
    with report(3, "optimal-threshold DP equals recurrence to 1e-9 for k,l <= 50"):
        table = build_table(50)
        dp = dp_min_weight(50, 50, optimal_thresholds(table), exponent="max")
        for k in range(2, 51):
            for l in range(2, 51):
                want = table.neglog(k, l)
                got = dp.neglog(k, l)
                assert abs(got - want) <= 1e-9 * abs(want), (k, l, got, want)


def test_criterion_4_dp_equals_path_enumeration():
    with report(
        4,
        "DP equals exhaustive path minima (k,l <= 7, 50 random tables, 1e-10) "
        "and the uniform diagonal closed form",
    ):
        paths = {
            (k, l): enumerate_paths(k, l)
            for k in range(2, 8)
            for l in range(2, 8)
        }
        import random

        for seed in range(50):
            rng = random.Random(seed)
            thr = ThresholdSequence.from_function(
                7, lambda i, j: rng.uniform(0.05, 0.95), provenance=f"rand{seed}"
            )
            dp = dp_min_weight(7, 7, thr, exponent="max")
            for (k, l), plist in paths.items():
                brute = max(path_weight(p, thr, "max").neglog for p in plist)
                got = dp.neglog(k, l)
                assert abs(got - brute) <= 1e-10 * max(1.0, abs(brute)), (
                    seed,
                    k,
                    l,
                )
        uni = dp_min_weight(8, 8, ThresholdSequence.uniform(8))
        for t in range(2, 9):
            got = uni.neglog(t, t) / math.log(2)
            want = 1.5 * t * t - 1.5 * t - 1
            assert abs(got - want) <= 1e-9 * want


def test_criterion_5_ramsey_bound_corollaries():
    with report(
        5,
        "uniform max-form bound is exactly 2^(k+l-3); split thresholds stay "
        "within binomial(k+l, k)",
    ):
        for k in range(2, 11):
            for l in range(2, 11):
                u = ThresholdSequence.uniform(max(k, l))
                assert ramsey_bound(k, l, u) == 2.0 ** (k + l - 3), (k, l)
        es = ThresholdSequence.erdos_szekeres(24)
        for k in range(2, 13):
            for l in range(2, 13):
                assert ramsey_bound(k, l, es) <= math.comb(k + l, k) * (
                    1 + 1e-12
                ), (k, l)


def test_criterion_6_exhaustive_anchors():
    with report(
        6,
        "exhaustive minima k_3(5)=0, k_3(6)=2, k_3(7)=4, k_3(8)=8 with "
        "non-decreasing ratios, k_3(n) equal to Goodman's closed form for "
        "n = 3..8, under 60 s",
    ):
        t0 = time.perf_counter()
        assert exact_min(5, 3).kmin == 0
        assert exact_min(6, 3).kmin == 2
        assert exact_min(7, 3).kmin == 4
        assert exact_min(8, 3, large=True).kmin == 8
        series = ratio_series(3, 8, large=True)
        ratios = [r for _, _, r in series]
        assert ratios == sorted(ratios)
        assert ratios[-2:] == [Fraction(4, 35), Fraction(1, 7)]
        # Goodman (1959): k_3(n) = C(n,3) - floor(n floor((n-1)^2/4) / 2)
        for n, kmin, _ in series:
            assert kmin == math.comb(n, 3) - n * ((n - 1) ** 2 // 4) // 2, n
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_7_multicolor_consistency(big):
    with report(
        7,
        "q=2 multicolour slice is bit-identical, M_{2,2,2} = 1/9, and "
        "alpha(2,100) is within 2% of ln(C)/(2 ln 2)",
    ):
        mc = multicolor_table(2, 100)
        assert np.array_equal(mc.neglog_array, big["table"].table[:101, :101])
        m3 = multicolor_table(3, 2)
        assert math.isclose(m3.value_at((2, 2, 2)), 1 / 9, rel_tol=1e-14)
        alpha = alpha_estimate(2, 100, mc)
        target = big["estimate"].ln_c / (2 * math.log(2))
        assert abs(alpha - target) <= 0.02 * target, (alpha, target)


def test_criterion_8_patched_tables_approach_recurrence():
    with report(
        8,
        "patch ratios non-increasing with a_w/a_{w-1} <= 2^(1/w), fixed "
        "point at 1/2, and diagonal gap non-increasing over t in {40,80,160}",
    ):
        assert build_patch_sequence(0.5, 10).values == (0.5,) * 11
        limit = solve_threshold_ode(1e-3, 1e-10).final_value
        w = default_patch_width(160)
        patch = build_patch_sequence(find_seed(limit, w), w)
        r = patch.ratios()
        assert all(b <= a + 1e-15 for a, b in zip(r, r[1:]))
        assert patch.final_ratio <= 2 ** (1 / w)

        ln_c = -0.5 * math.log(limit * (1 - limit))
        gaps = []
        for t in (40, 80, 160):
            thr = assemble_patched_thresholds(1e-3, t)
            dp = dp_min_weight(t, t, thr, exponent="max")
            gaps.append(abs(dp.neglog(t, t) / t**2 - ln_c))
        assert gaps[0] >= gaps[1] >= gaps[2], gaps


def test_criterion_9_classical_sandwich(big):
    with report(
        9,
        "for every t <= 400 the diagonal sits between the uniform lower "
        "bound and the random-colouring upper bound",
    ):
        ln2 = math.log(2)
        for t in range(2, 401):
            neg = big["table"].neglog(t, t)
            upper_neg = (math.comb(t, 2) - 1) * ln2
            red_exp, _ = uniform_exponents(t, t)
            assert neg >= upper_neg, t  # value below the upper bound
            assert neg <= red_exp * ln2, t  # value above the uniform bound
