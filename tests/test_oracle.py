"""Exhaustive minima, dual clique counters, and sampling statistics."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from conftest import traced_peak

from ramseymult import oracle
from ramseymult.oracle import (
    ColoringRecord,
    TooLarge,
    _edge_planes,
    _mono_counts,
    _red_blue,
    _sample_planes,
    _subset_masks,
    _valid_lanes,
    count_mono_cliques,
    count_mono_cliques_fast,
    count_mono_triangles_by_degree,
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
        with pytest.raises(ValueError, match=r"^mask 64 is not in \[0, 2\^6\) for the 6 edges of K_4$"):
            ColoringRecord(n=4, red_mask=1 << 6)
        with pytest.raises(ValueError, match=r"^mask -1 is not in \[0, 2\^6\) for the 6 edges of K_4$"):
            ColoringRecord(n=4, red_mask=-1)
        with pytest.raises(ValueError):
            ColoringRecord(n=1, red_mask=0)

    def test_complement_involution(self):
        # flipping every edge twice gives the record back, and the flipped
        # record's red edges are the original's blue ones
        full = (1 << 10) - 1
        rec = ColoringRecord(n=5, red_mask=PENTAGON)
        comp = ColoringRecord(n=5, red_mask=rec.red_mask ^ full)
        back = ColoringRecord(n=5, red_mask=comp.red_mask ^ full)
        assert back.red_mask == PENTAGON and back.red_edges() == rec.red_edges()
        red = set(rec.red_edges())
        assert comp.red_edges() == [e for e in edge_list(5) if e not in red]

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
            m = math.comb(n, 2)
            mask = rng.getrandbits(m)
            t = rng.randint(2, n)
            red, blue = count_mono_cliques(ColoringRecord(n, mask), t)
            flipped = ColoringRecord(n, mask ^ ((1 << m) - 1))
            assert count_mono_cliques(flipped, t) == (blue, red)

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
        "n, t",  # n = 64 has 2016 edge planes; t = n counts only mono rows
        [(2, 2), (5, 2), (5, 5), (9, 3), (9, 4), (12, 5), (64, 2), (64, 3), (64, 64)],
    )
    def test_batched_counter_matches_subset_counter(self, n, t):
        # batches of one, two and about one or two 64-lane words, so the
        # last word holds 1, 2, 63, 64 (full), 1 and 2 colourings
        m = math.comb(n, 2)
        rng = np.random.default_rng(n * 100 + t)
        bits = rng.integers(0, 2, size=(130, m), dtype=np.uint8)
        bits[0], bits[1] = 1, 0  # all red and all blue: t = n counts 1
        bits[64], bits[129] = 0, 1  # and again past the first word
        want = [
            count_mono_cliques(ColoringRecord(n=n, red_mask=mask_of(row)), t)
            for row in bits
        ]
        for batch in (1, 2, 63, 64, 65, 130):
            red, blue = _mono_counts(bits[:batch], n, t)
            assert len(red) == len(blue) == batch
            assert list(zip(red.tolist(), blue.tolist())) == want[:batch], batch
        assert want[0] == want[129] == (math.comb(n, t), 0)
        assert want[1] == want[64] == (0, math.comb(n, t))

    @pytest.mark.parametrize("batch", [1, 2, 63, 64, 65, 130])
    def test_padding_lanes_never_count(self, batch):
        # all-blue padding would hold every clique; valid lanes mask it off
        n, t = 6, 3
        bits = np.random.default_rng(batch).integers(0, 2, (batch, 15), np.uint8)
        planes = oracle._edge_planes(bits)
        valid = oracle._valid_lanes(batch)
        words = -(-batch // 64)
        assert planes.shape == (15, words) and valid.shape == (words,)
        assert not (planes & ~valid).any()
        red = oracle._clique_counts(planes, n, t, valid)
        blue = oracle._clique_counts(planes ^ valid, n, t, valid)
        flipped = oracle._clique_counts(~planes, n, t, valid)  # padding all blue
        assert len(red) == 64 * words
        assert not red[batch:].any() and not blue[batch:].any()
        assert np.array_equal(flipped, blue)

    @pytest.mark.parametrize("t", [3, 4])
    def test_pair_runs_count_the_same(self, monkeypatch, t):
        # 130 colourings fill 3 words: the default bound holds all 2016
        # pairs of K_64 in one run, 120 words hold runs of up to 40 pairs
        # (several c each) and 1 word leaves each c a run of its own
        bits = np.random.default_rng(t).integers(0, 2, (130, 2016), np.uint8)
        planes, valid = _edge_planes(bits), _valid_lanes(130)
        whole = oracle._clique_counts(planes, 64, t, valid)
        assert whole[:130].all() and not whole[130:].any()
        for words in (120, 1):
            monkeypatch.setattr(oracle, "_PAIR_WORDS", words)
            assert np.array_equal(oracle._clique_counts(planes, 64, t, valid), whole)

    def test_pair_planes_held_are_bounded(self):
        # 2^15 colourings: every pair plane of K_64 would be 7.9 MiB beside
        # 7.9 MiB of edge planes; a run holds at most 2 MiB of them
        samples = 1 << 15
        planes, valid = _sample_planes(1, samples, 2016), _valid_lanes(samples)
        oracle._clique_counts(planes[:, :1], 64, 3, valid[:1])  # caches _colex(64)
        counts, peak = traced_peak(oracle._clique_counts, planes, 64, 3, valid)
        assert np.array_equal(counts[:64], oracle._clique_counts(planes[:, :1], 64, 3, valid[:1]))
        assert peak <= 2 * 8 * oracle._PAIR_WORDS, peak

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
            assert count_mono_triangles_by_degree(rec) == goodman

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
        assert rep.red_count + rep.blue_count == rep.kmin
        assert count_mono_cliques_fast(rep.witness, 3) == (rep.red_count, rep.blue_count)
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

    @pytest.mark.parametrize("low", range(9, 14))
    def test_n8_pinned(self, monkeypatch, low):
        # a test key is q * 2^w + want with w = 27 - low high-part bits;
        # keys shifted by a fixed 16 bits collided at low = 9 and 10
        monkeypatch.setattr(oracle, "_LOW_BITS", low)
        for t, kmin, witness in (
            (3, 8, 0xF3E78),
            (4, 0, 0x4D08C0),
            (5, 0, 0x46390),
            (6, 0, 0x2187),
            (7, 0, 0x83),
            (8, 0, 0x1),
        ):
            rep = exact_min(8, t, large=True)
            assert (rep.kmin, rep.witness.red_mask) == (kmin, witness), t

    def test_n8_scan_holds_one_block(self):
        # T_lo (at most 467 KB, at t = 4), T's 512 canonical columns and
        # one 1 MB product block of the first pass; the whole T (3.7 MB at
        # t = 4) or 2^14-row weight table (4.75 MB at t = 3) would not fit
        for t in range(2, 9):
            oracle._scan(8, t)  # caches the subset masks outside the count
            _, peak = traced_peak(oracle._scan, 8, t)
            assert peak <= 2 << 20, (t, peak)

    def test_goodman_closed_form(self):
        # Goodman (1959): k_3(n) = C(n,3) - floor((n/2) floor(((n-1)/2)^2))
        for n in range(3, 9):
            mixed = Fraction(n, 2) * math.floor(Fraction(n - 1, 2) ** 2)
            goodman = math.comb(n, 3) - math.floor(mixed)
            assert exact_min(n, 3, large=n == 8).kmin == goodman, n

    def test_canonical_columns(self):
        # n = 8: four stars (d = 4..7) times 2^7 free low bits
        cols = oracle._canonical_columns(8, 13)
        assert len(cols) == 512
        assert set((cols & 63).tolist()) == {7, 15, 31, 63}
        # n = 5 (reduced masks of 9 bits): stars d = 2, 3, 4 on bits 0..2
        assert set((oracle._canonical_columns(5, 9) & 7).tolist()) == {1, 3, 7}

    def test_symmetry_pass_guards_the_witness_search(self, monkeypatch):
        # a selection that misses every achiever reports too large a
        # minimum, which the full-width blocks of pass 2 refute
        monkeypatch.setattr(oracle, "_canonical_columns", lambda n, low: np.array([0]))
        with pytest.raises(RuntimeError, match="star-canonical minimum"):
            exact_min(6, 3)

    def test_goodman_closed_form_guards_the_symmetry_pass(self, monkeypatch):
        # stars from d = n // 2 + 1 miss every n = 8 achiever; the witness
        # search then reads only blocks at 9 and its recount agrees
        def stars_too_red(n, low):
            xs = np.arange(1 << low)
            stars = [(1 << (d - 1)) - 1 for d in range(n // 2 + 1, n)]
            return np.flatnonzero(np.isin(xs & ((1 << (n - 2)) - 1), stars))

        monkeypatch.setattr(oracle, "_canonical_columns", stars_too_red)
        with pytest.raises(RuntimeError, match="Goodman's closed form"):
            exact_min(8, 3, large=True)

    def test_witness_recount_guards_the_scan(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_scan", lambda n, t: (1, PENTAGON))
            with pytest.raises(RuntimeError, match="witness recount"):
                exact_min(5, 3)
        # either counter alone disagreeing is enough
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "count_mono_cliques_fast", lambda rec, t: (1, 0))
            with pytest.raises(RuntimeError, match="witness recount"):
                exact_min(5, 3)
        # and at t = 3 so is Goodman's degree identity
        monkeypatch.setattr(oracle, "count_mono_triangles_by_degree", lambda rec: 1)
        with pytest.raises(RuntimeError, match="witness recount"):
            exact_min(5, 3)
        exact_min(5, 4)  # the degree identity counts triangles, so t = 4 skips it


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

    def test_exhaustive_floor_enforced(self):
        rep = sample_against_bounds(6, 3, samples=500, seed=3)
        assert rep.exact_floor == 2
        assert rep.min_count >= 2

    @pytest.mark.parametrize(
        "n, t, samples, mean, stderr, min_count",
        [  # the per-lane counter on np.random.default_rng(7)'s uint8 draw
            (2, 2, 2, 1.0, 0.0, 1),
            (2, 2, 65, 1.0, 0.0, 1),
            (2, 2, 4097, 1.0, 0.0, 1),
            (8, 3, 2, 0.23214285714285715, 0.05357142857142856, 10),
            (8, 3, 65, 0.24532967032967032, 0.008215675302361437, 8),
            (8, 3, 4097, 0.25046636912026227, 0.0009078514331383253, 8),
            (12, 5, 2, 0.0, 0.0, 0),
            (12, 5, 65, 0.0016705516705516706, 0.0002613369084513153, 0),
            (12, 5, 4097, 0.0019372391229847906, 5.0134386515465634e-05, 0),
            (20, 4, 2, 0.03003095975232198, 0.000722394220846233, 142),
            (20, 4, 65, 0.03108676669048186, 0.0009707739037522362, 86),
            (20, 4, 4097, 0.031077586282897727, 0.00010179592256390205, 78),
            (64, 3, 2, 0.24955597158218124, 0.0012360791090629678, 10346),
            (64, 3, 65, 0.25028321812596005, 0.0002543016268287379, 10155),
            (64, 3, 4097, 0.24993712851222674, 3.2409737210242173e-05, 10155),
        ],
    )
    @pytest.mark.parametrize("complement", [False, True])
    def test_pinned_statistics(self, n, t, samples, mean, stderr, min_count, complement):
        # the counter's pins, on the uint8 draw the sampler took before it
        # drew words; 2, 65 and 4097 samples leave 2, 1 and 1 lanes in the
        # last word
        m = math.comb(n, 2)
        bits = np.random.default_rng(7).integers(0, 2, (samples, m), np.uint8)
        planes = _edge_planes(bits)
        if complement:
            planes ^= _valid_lanes(samples)
        counts = np.add(*_red_blue(planes, n, t, samples))
        fractions = counts / math.comb(n, t)
        got = fractions.mean(), fractions.std(ddof=1) / math.sqrt(samples), counts.min()
        assert got == (mean, stderr, min_count)

    @pytest.mark.parametrize(
        "n, t, samples, mean, stderr, min_count",
        [  # sample_against_bounds(n, t, samples, seed=7) on the word stream
            (2, 2, 2, 1.0, 0.0, 1),
            (2, 2, 65, 1.0, 0.0, 1),
            (2, 2, 4097, 1.0, 0.0, 1),
            (8, 3, 2, 0.2589285714285714, 0.008928571428571423, 14),
            (8, 3, 65, 0.2532967032967033, 0.007520212368727656, 9),
            (8, 3, 4097, 0.2507627532340737, 0.0009013534780929827, 8),
            (12, 5, 2, 0.0, 0.0, 0),
            (12, 5, 65, 0.0027195027195027195, 0.0006259672951266342, 0),
            (12, 5, 4097, 0.002059587823561463, 5.631567767948813e-05, 0),
            (20, 4, 2, 0.04468524251805986, 0.0011351909184726496, 211),
            (20, 4, 65, 0.03080415972056839, 0.0009462152546003524, 93),
            (20, 4, 4097, 0.03121310289463987, 0.00010578745103168408, 79),
            (64, 3, 2, 0.2540802611367128, 0.0018481182795699045, 10509),
            (64, 3, 65, 0.24991654850525818, 0.00024227912383351636, 10222),
            (64, 3, 4097, 0.24999097232923417, 3.326433660483356e-05, 10146),
        ],
    )
    @pytest.mark.parametrize("complement", [False, True])
    def test_pinned_stream_statistics(
        self, n, t, samples, mean, stderr, min_count, complement
    ):
        if complement:
            # the same stream with its colours swapped: red + blue, and so
            # every statistic, must not move
            planes = _sample_planes(7, samples, math.comb(n, 2)) ^ _valid_lanes(samples)
            counts = np.add(*_red_blue(planes, n, t, samples))
            fractions = counts / math.comb(n, t)
            got = fractions.mean(), fractions.std(ddof=1) / math.sqrt(samples), counts.min()
        else:
            rep = sample_against_bounds(n, t, samples=samples, seed=7)
            got = rep.mean_fraction, rep.stderr, rep.min_count
        assert got == (mean, stderr, min_count)

    @pytest.mark.parametrize("samples", [2, 63, 64, 65, 4097])
    @pytest.mark.parametrize("m", [1, 28, 2016])
    def test_planes_are_one_word_draw(self, samples, m):
        # 4097 samples x C(64, 2) edges span two randbytes calls
        words = -(-samples // 64)
        assert (m * words > oracle._DRAW_WORDS) == ((samples, m) == (4097, 2016))
        for seed in (0, 7):
            draw = random.Random(seed).randbytes(8 * m * words)
            whole = np.frombuffer(draw, "<u8").reshape(m, words)
            got = _sample_planes(seed, samples, m)
            assert np.array_equal(got, whole & _valid_lanes(samples))

    def test_planes_pinned_sha256(self):
        # random.Random's byte stream (CPython 3.11, little-endian): a
        # release that changed randbytes would move every sample artifact
        planes = _sample_planes(7, 4097, 28)
        assert hashlib.sha256(planes.tobytes()).hexdigest() == (
            "94a924965c31a882ed7b40aeeb5b2415f8b22c83fa9ee9f2c71a2d437ca1b2df"
        )

    def test_seed_must_be_a_non_negative_integer(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sample_against_bounds(10, 3, seed=-1)
        with pytest.raises(TypeError):
            sample_against_bounds(10, 3, seed=1.5)
        assert sample_against_bounds(10, 3, samples=64, seed=np.int64(3)).seed == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_against_bounds(65, 3)
        with pytest.raises(ValueError):
            sample_against_bounds(10, 3, samples=1)
        with pytest.raises(ValueError, match="sampling budget"):
            sample_against_bounds(64, 3, samples=200_000)
