"""Exhaustive minima, dual clique counters, and sampling statistics."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ramseymult import oracle
from ramseymult.oracle import (
    ColoringRecord,
    TooLarge,
    _mono_counts,
    _sample_blocks,
    _subset_masks,
    count_mono_cliques,
    count_mono_cliques_fast,
    edge_list,
    exact_min,
    ratio_series,
    sample_against_bounds,
)

# pentagon (5-cycle) in the lexicographic edge order of K_5
PENTAGON = (1 << 0) | (1 << 4) | (1 << 7) | (1 << 9) | (1 << 3)


class TestColoringRecord:
    def test_mask_bounds(self):
        ColoringRecord(n=4, red_mask=0)
        ColoringRecord(n=4, red_mask=(1 << 6) - 1)
        with pytest.raises(ValueError):
            ColoringRecord(n=4, red_mask=1 << 6)
        with pytest.raises(ValueError):
            ColoringRecord(n=4, red_mask=-1)
        with pytest.raises(ValueError):
            ColoringRecord(n=1, red_mask=0)

    def test_counts_cached_together(self):
        with pytest.raises(ValueError):
            ColoringRecord(n=3, red_mask=0, red_count=1)

    def test_complement_involution(self):
        rec = ColoringRecord(n=5, red_mask=PENTAGON).with_counts(3)
        comp = rec.complement()
        assert comp.red_mask == PENTAGON ^ ((1 << 10) - 1)
        assert (comp.red_count, comp.blue_count) == (rec.blue_count, rec.red_count)
        assert comp.complement().red_mask == rec.red_mask

    def test_red_edges_order(self):
        rec = ColoringRecord(n=4, red_mask=0b000101)
        assert rec.red_edges() == [(0, 1), (0, 3)]
        assert edge_list(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestCounting:
    def test_monochromatic_extremes(self):
        full = (1 << 10) - 1
        all_red = ColoringRecord(n=5, red_mask=full)
        assert count_mono_cliques(all_red, 3) == (10, 0)
        all_blue = ColoringRecord(n=5, red_mask=0)
        assert count_mono_cliques(all_blue, 3) == (0, 10)

    def test_pentagon_avoids_triangles(self):
        rec = ColoringRecord(n=5, red_mask=PENTAGON)
        assert count_mono_cliques(rec, 3) == (0, 0)
        assert count_mono_cliques_fast(rec, 3) == (0, 0)

    def test_complement_swaps_counts(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 6)
            rec = ColoringRecord(n=n, red_mask=rng.getrandbits(math.comb(n, 2)))
            t = rng.randint(2, n)
            red, blue = count_mono_cliques(rec, t)
            assert count_mono_cliques(rec.complement(), t) == (blue, red)

    def test_dual_counters_agree(self):
        rng = random.Random(8)
        for _ in range(1000):
            n = rng.randint(3, 6)
            rec = ColoringRecord(n=n, red_mask=rng.getrandbits(math.comb(n, 2)))
            t = rng.randint(2, n)
            assert count_mono_cliques(rec, t) == count_mono_cliques_fast(rec, t)

    def test_validation(self):
        rec = ColoringRecord(n=4, red_mask=0)
        with pytest.raises(ValueError):
            count_mono_cliques(rec, 1)
        with pytest.raises(ValueError):
            count_mono_cliques(rec, 5)
        with pytest.raises(ValueError):
            count_mono_cliques_fast(ColoringRecord(n=65, red_mask=0), 3)

    @pytest.mark.parametrize(
        "n, t",  # n = 64 uses bit 63 of the uint64 bitsets
        [(2, 2), (5, 2), (5, 5), (9, 3), (9, 4), (12, 5), (64, 2), (64, 3), (64, 64)],
    )
    def test_batched_counter_matches_subset_counter(self, n, t):
        m = math.comb(n, 2)
        rng = np.random.default_rng(n * 100 + t)
        bits = rng.integers(0, 2, size=(12, m), dtype=np.uint8)
        bits[0], bits[1] = 1, 0  # all red and all blue: t = n counts 1
        red, blue = _mono_counts(bits, n, t)
        for row, r, b in zip(bits, red, blue):
            rec = ColoringRecord(n=n, red_mask=mask_of(row))
            assert count_mono_cliques(rec, t) == (r, b)
        assert (red[0], blue[0]) == (math.comb(n, t), 0)
        assert (red[1], blue[1]) == (0, math.comb(n, t))

    def test_goodman_identity(self):
        # Goodman (1959): mono triangles = C(n,3) - (1/2) sum_v r_v (n-1-r_v)
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(3, 12)
            rec = ColoringRecord(n=n, red_mask=rng.getrandbits(math.comb(n, 2)))
            degree = [0] * n
            for u, v in rec.red_edges():
                degree[u] += 1
                degree[v] += 1
            mixed = sum(r * (n - 1 - r) for r in degree)
            assert mixed % 2 == 0
            goodman = math.comb(n, 3) - mixed // 2
            assert sum(count_mono_cliques(rec, 3)) == goodman
            assert sum(count_mono_cliques_fast(rec, 3)) == goodman

    def test_subset_masks_cached_and_immutable(self):
        masks = _subset_masks(6, 3)
        assert isinstance(masks, tuple) and _subset_masks(6, 3) is masks
        assert len(masks) == math.comb(6, 3)
        assert all(bin(s).count("1") == 3 for s in masks)


def mask_of(row):
    """Colouring mask of one row of 0/1 edge bits."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def full_space_minimum(n, t):
    """Entirely separate scan: every mask, pure Python, no reductions."""
    m = math.comb(n, 2)
    subset_masks = []
    idx = {e: i for i, e in enumerate(combinations(range(n), 2))}
    for sub in combinations(range(n), t):
        sm = 0
        for e in combinations(sub, 2):
            sm |= 1 << idx[e]
        subset_masks.append(sm)
    best = None
    witness = None
    for mask in range(1 << m):
        c = 0
        for sm in subset_masks:
            inner = mask & sm
            if inner == sm or inner == 0:
                c += 1
        if best is None or c < best:
            best, witness = c, mask
    return best, witness


def reference_scan(n, t):
    """Vectorised subset-mask scan of every mask with edge (0,1) red:
    (kmin, smallest of the first achiever and the last one's complement)."""
    m = math.comb(n, 2)
    masks = (np.arange(1 << (m - 1), dtype=np.int64) << 1) | 1
    counts = np.zeros(len(masks), dtype=np.int16)
    for smask in _subset_masks(n, t):
        inner = masks & smask
        counts += inner == smask
        counts += inner == 0
    kmin = int(counts.min())
    achievers = np.flatnonzero(counts == kmin)
    full = (1 << m) - 1
    return kmin, min(int(masks[achievers[0]]), full ^ int(masks[achievers[-1]]))


class TestExactMin:
    def test_known_minima(self):
        assert exact_min(3, 3).kmin == 0
        assert exact_min(4, 3).kmin == 0
        assert exact_min(5, 3).kmin == 0
        assert exact_min(6, 3).kmin == 2
        assert exact_min(7, 3).kmin == 4
        assert exact_min(7, 4).kmin == 0

    def test_pairs_are_forced(self):
        # t = 2: every edge is monochromatic one way or the other
        rep = exact_min(5, 2)
        assert rep.kmin == 10
        assert rep.ratio == 1

    def test_against_full_space_scan(self):
        for n, t in ((4, 3), (5, 3), (5, 4)):
            kmin, witness = full_space_minimum(n, t)
            rep = exact_min(n, t)
            assert rep.kmin == kmin
            assert rep.witness.red_mask == witness

    def test_witness_is_consistent(self):
        rep = exact_min(6, 3)
        assert rep.witness.red_count + rep.witness.blue_count == rep.kmin
        assert count_mono_cliques_fast(rep.witness, 3) == (
            rep.witness.red_count,
            rep.witness.blue_count,
        )
        assert rep.ratio == Fraction(rep.kmin, math.comb(6, 3))

    def test_witness_is_lexicographic_minimum(self):
        kmin, witness = full_space_minimum(5, 3)
        assert exact_min(5, 3).witness.red_mask == witness
        # the fixed-edge reduction must not miss complement witnesses
        assert witness % 2 == 0  # this particular minimum has (0,1) blue

    def test_size_gates(self):
        with pytest.raises(TooLarge):
            exact_min(9, 3)
        with pytest.raises(TooLarge):
            exact_min(8, 3)  # needs the explicit opt-in
        with pytest.raises(ValueError):
            exact_min(5, 1)
        with pytest.raises(ValueError):
            exact_min(5, 6)

    def test_matches_reference_scan(self):
        for n in range(2, 8):
            for t in range(2, n + 1):
                rep = exact_min(n, t)
                assert (rep.kmin, rep.witness.red_mask) == reference_scan(n, t), (n, t)

    def test_n8_pinned(self):
        for t, kmin, witness in ((3, 8, 0xF3E78), (4, 0, 0x4D08C0)):
            rep = exact_min(8, t, large=True)
            assert (rep.kmin, rep.witness.red_mask) == (kmin, witness)

    def test_witness_recount_guards_the_scan(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_scan", lambda n, t: (1, PENTAGON))
            with pytest.raises(RuntimeError, match="witness recount"):
                exact_min(5, 3)
        # either counter alone disagreeing is enough
        monkeypatch.setattr(oracle, "count_mono_cliques_fast", lambda rec, t: (1, 0))
        with pytest.raises(RuntimeError, match="witness recount"):
            exact_min(5, 3)


class TestRatioSeries:
    def test_triangle_series(self):
        series = ratio_series(3, 7)
        assert [(n, k) for n, k, _ in series] == [
            (3, 0),
            (4, 0),
            (5, 0),
            (6, 2),
            (7, 4),
        ]
        assert series[3][2] == Fraction(1, 10)
        assert series[4][2] == Fraction(4, 35)

    def test_ratios_non_decreasing(self):
        series = ratio_series(4, 7)
        ratios = [r for _, _, r in series]
        assert ratios == sorted(ratios)
        assert ratios[-1] == 0  # K_4 is avoidable through n = 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ratio_series(4, 3)

    @pytest.mark.parametrize("n_max, large", [(9, True), (8, False)])
    def test_refuses_before_it_scans(self, monkeypatch, n_max, large):
        def scan(n, t):
            raise AssertionError(f"scanned n={n} before refusing")

        monkeypatch.setattr(oracle, "_scan", scan)
        with pytest.raises(TooLarge):
            ratio_series(3, n_max, large=large)


class TestSampling:
    def test_mean_near_expectation(self):
        rep = sample_against_bounds(20, 3, samples=2000, seed=0)
        assert rep.expected_fraction == 0.25
        assert abs(rep.mean_fraction - 0.25) <= 4 * rep.stderr

    def test_deterministic_for_fixed_seed(self):
        a = sample_against_bounds(12, 3, samples=300, seed=5)
        b = sample_against_bounds(12, 3, samples=300, seed=5)
        assert a == b
        c = sample_against_bounds(12, 3, samples=300, seed=6)
        assert c.mean_fraction != a.mean_fraction

    def test_complement_invariance(self):
        plain = sample_against_bounds(14, 3, samples=400, seed=2)
        flipped = sample_against_bounds(14, 3, samples=400, seed=2, complement=True)
        assert plain.mean_fraction == flipped.mean_fraction
        assert plain.stderr == flipped.stderr
        assert plain.min_count == flipped.min_count

    def test_exhaustive_floor_enforced(self):
        rep = sample_against_bounds(6, 3, samples=500, seed=3)
        assert rep.exact_floor == 2
        assert rep.min_count >= 2

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 10, 12, 20, 64])
    def test_blocks_concatenate_to_one_draw(self, n):
        m = math.comb(n, 2)
        for samples in (2, 7, 4095, 4096, 4097, 10000):
            for seed in (0, 1, 12345):
                blocks = list(_sample_blocks(seed, samples, m))
                assert all(len(b) == oracle._SAMPLE_BLOCK for b in blocks[:-1])
                whole = np.random.default_rng(seed).integers(
                    0, 2, size=(samples, m), dtype=np.uint8
                )
                assert np.array_equal(np.concatenate(blocks), whole)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_against_bounds(65, 3)
        with pytest.raises(ValueError):
            sample_against_bounds(10, 3, samples=1)
        with pytest.raises(ValueError, match="sampling budget"):
            sample_against_bounds(64, 3, samples=200_000)
