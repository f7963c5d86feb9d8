"""Exhaustive and sampled ground truth for small complete graphs.

A two-colouring of K_n is a bitmask over the C(n, 2) edges in
lexicographic order ((0,1), (0,2), ..., (n-2,n-1)); bit set means red.
For n <= 8 the full space is enumerable once two symmetries are spent:
swapping colours complements the mask, so only masks with edge (0,1) red
are scanned, and the reported witness is the lexicographically smallest
mask among the achievers and their complements.

Counting is done twice by unrelated methods (per-subset mask tests and
adjacency-bitset clique recursion) so each can vouch for the other.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from multiprocessing import Pool

import numpy as np


class TooLarge(Exception):
    """Exhaustive search beyond n = 8, or n = 8 without the opt-in flag."""


_CHUNK_BITS = 12  # the n = 8 scan splits into 2^12 ranges
_SAMPLE_BYTES = 2**28  # cap on the samples x C(n, 2) draw, one byte per edge


def edge_list(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in the bit order used by colouring masks."""
    return list(combinations(range(n), 2))


def _edge_index(n: int) -> dict[tuple[int, int], int]:
    return {e: i for i, e in enumerate(edge_list(n))}


def _subset_masks(n: int, t: int) -> list[int]:
    """For each t-subset of vertices, the mask of its internal edges."""
    idx = _edge_index(n)
    masks = []
    for subset in combinations(range(n), t):
        m = 0
        for e in combinations(subset, 2):
            m |= 1 << idx[e]
        masks.append(m)
    return masks


@dataclass(frozen=True)
class ColoringRecord:
    """One two-colouring of K_n, with optionally cached clique counts."""

    n: int
    red_mask: int
    t: int | None = None
    red_count: int | None = None
    blue_count: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two vertices")
        m = math.comb(self.n, 2)
        if not 0 <= self.red_mask < 1 << m:
            raise ValueError(f"mask must use exactly {m} bits")
        if (self.red_count is None) != (self.blue_count is None):
            raise ValueError("cache both counts or neither")

    @property
    def edge_count(self) -> int:
        return math.comb(self.n, 2)

    def red_edges(self) -> list[tuple[int, int]]:
        return [
            e for i, e in enumerate(edge_list(self.n)) if self.red_mask >> i & 1
        ]

    def complement(self) -> "ColoringRecord":
        flipped = self.red_mask ^ ((1 << self.edge_count) - 1)
        return replace(
            self,
            red_mask=flipped,
            red_count=self.blue_count,
            blue_count=self.red_count,
        )

    def with_counts(self, t: int) -> "ColoringRecord":
        red, blue = count_mono_cliques(self, t)
        return replace(self, t=t, red_count=red, blue_count=blue)


def count_mono_cliques(coloring: ColoringRecord, t: int) -> tuple[int, int]:
    """(red, blue) monochromatic K_t counts, by direct subset iteration."""
    if not 2 <= t <= coloring.n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={coloring.n}")
    mask = coloring.red_mask
    red = blue = 0
    for smask in _subset_masks(coloring.n, t):
        inner = mask & smask
        if inner == smask:
            red += 1
        elif inner == 0:
            blue += 1
    return red, blue


def _adjacency(coloring: ColoringRecord) -> list[int]:
    adj = [0] * coloring.n
    for u, v in coloring.red_edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _clique_count(adj: list[int], n: int, t: int) -> int:
    """Number of t-cliques in the graph given by adjacency bitsets."""
    if t == 1:
        return n

    def grow(candidates: int, depth: int) -> int:
        if depth == 1:
            return candidates.bit_count()
        total = 0
        rest = candidates
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            above = ~((1 << (v + 1)) - 1)
            total += grow(candidates & adj[v] & above, depth - 1)
        return total

    return grow((1 << n) - 1, t)


def count_mono_cliques_fast(coloring: ColoringRecord, t: int) -> tuple[int, int]:
    """Same counts as :func:`count_mono_cliques` via clique recursion on
    adjacency bitsets; independent arithmetic, used to cross-check."""
    if not 2 <= t <= coloring.n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={coloring.n}")
    red_adj = _adjacency(coloring)
    full = (1 << coloring.n) - 1
    blue_adj = [
        (full ^ row) & ~(1 << v) for v, row in enumerate(red_adj)
    ]
    return (
        _clique_count(red_adj, coloring.n, t),
        _clique_count(blue_adj, coloring.n, t),
    )


def _scan_range(args: tuple[int, int, tuple[int, ...], int]) -> tuple[int, int]:
    """Scan reduced masks in [lo, hi): returns (kmin, witness candidate).

    Reduced mask r encodes colouring (r << 1) | 1, i.e. edge (0,1) is
    pinned red.  The witness candidate is the smallest of the chunk's
    first achiever and the complement of its last achiever, which is
    exactly the chunk's lexicographic minimum over achievers union
    complements since masks ascend within the chunk.
    """
    lo, hi, subset_masks, m = args
    masks = (np.arange(lo, hi, dtype=np.int64) << 1) | 1
    counts = np.zeros(len(masks), dtype=np.int16)
    for smask in subset_masks:
        inner = masks & smask
        counts += inner == smask
        counts += inner == 0
    kmin = int(counts.min())
    achievers = np.flatnonzero(counts == kmin)
    full = (1 << m) - 1
    first = int(masks[achievers[0]])
    last = int(masks[achievers[-1]])
    return kmin, min(first, full ^ last)


def _merge_scans(results: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine per-chunk (kmin, witness) pairs; order independent."""
    kmin = min(r[0] for r in results)
    return kmin, min(w for k, w in results if k == kmin)


@dataclass(frozen=True)
class MinimumReport:
    """Exhaustive minimum of mono K_t counts over colourings of K_n."""

    n: int
    t: int
    kmin: int
    witness: ColoringRecord
    ratio: Fraction  # kmin / C(n, t)

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "kmin": self.kmin,
            "ratio": [self.ratio.numerator, self.ratio.denominator],
            "witness_mask": format(self.witness.red_mask, "#x"),
            "witness_red_edges": self.witness.red_edges(),
            "witness_counts": [self.witness.red_count, self.witness.blue_count],
        }


def _worker_count(requested: int | None, chunks: int) -> int:
    cap = os.environ.get("RML_THREADS")
    w = requested if requested is not None else (os.cpu_count() or 1)
    if cap is not None:
        w = min(w, max(1, int(cap)))
    return max(1, min(w, chunks))


def exact_min(
    n: int, t: int, large: bool = False, workers: int | None = None
) -> MinimumReport:
    """Exhaustively minimise red + blue K_t counts over colourings of K_n.

    n <= 7 runs in one vectorised pass; n = 8 (2^27 reduced colourings)
    requires ``large=True`` and fans the scan out over a process pool,
    merged deterministically.  n > 8 always raises :class:`TooLarge`.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    if n > 8:
        raise TooLarge(f"n={n} is beyond exhaustive reach (max 8)")
    if n == 8 and not large:
        raise TooLarge("n=8 scans 2^27 colourings; opt in with large=True")

    m = math.comb(n, 2)
    subset_masks = tuple(_subset_masks(n, t))
    space = 1 << (m - 1)

    if n <= 7:
        kmin, witness_mask = _scan_range((0, space, subset_masks, m))
    else:
        chunks = 1 << _CHUNK_BITS
        step = space >> _CHUNK_BITS
        tasks = [
            (lo, lo + step, subset_masks, m) for lo in range(0, space, step)
        ]
        nworkers = _worker_count(workers, chunks)
        if nworkers == 1:
            results = [_scan_range(task) for task in tasks]
        else:
            with Pool(nworkers) as pool:
                results = pool.map(_scan_range, tasks, chunksize=16)
        kmin, witness_mask = _merge_scans(results)

    witness = ColoringRecord(n=n, red_mask=witness_mask).with_counts(t)
    if witness.red_count + witness.blue_count != kmin:
        raise RuntimeError("witness recount disagrees with scan minimum")
    return MinimumReport(
        n=n,
        t=t,
        kmin=kmin,
        witness=witness,
        ratio=Fraction(kmin, math.comb(n, t)),
    )


def ratio_series(
    t: int, n_max: int, large: bool = False
) -> list[tuple[int, int, Fraction]]:
    """(n, kmin, kmin / C(n, t)) for n = t .. n_max.

    The ratio is non-decreasing in n (averaging a colouring of K_n over
    its n-vertex subgraphs bounds K_{n+1} from below); a violation would
    mean a counting bug, so it is checked here.
    """
    if n_max < t:
        raise ValueError("n_max must be at least t")
    rows: list[tuple[int, int, Fraction]] = []
    prev = Fraction(-1)
    for n in range(t, n_max + 1):
        rep = exact_min(n, t, large=large)
        if rep.ratio < prev:
            raise RuntimeError(
                f"minimum ratio decreased from {prev} to {rep.ratio} at n={n}"
            )
        prev = rep.ratio
        rows.append((n, rep.kmin, rep.ratio))
    return rows


@dataclass(frozen=True)
class SampleReport:
    """Monte Carlo mono-K_t statistics under uniformly random colourings."""

    n: int
    t: int
    samples: int
    seed: int
    complemented: bool
    mean_fraction: float
    expected_fraction: float  # 2^(1 - C(t,2))
    stderr: float
    min_count: int
    exact_floor: int | None  # exhaustive kmin when available

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "samples": self.samples,
            "seed": self.seed,
            "complemented": self.complemented,
            "mean_fraction": self.mean_fraction,
            "expected_fraction": self.expected_fraction,
            "stderr": self.stderr,
            "min_count": self.min_count,
            "exact_floor": self.exact_floor,
        }


def sample_against_bounds(
    n: int,
    t: int,
    samples: int = 10_000,
    seed: int = 0,
    complement: bool = False,
    large: bool = False,
) -> SampleReport:
    """Sample colourings of K_n uniformly and compare mono-K_t fractions
    with the random-colouring expectation 2^(1 - C(t,2)).

    ``complement`` flips every drawn mask; the statistics are invariant
    under that pairing, which makes a cheap symmetry test.  When the
    exhaustive minimum is in reach it is computed and no sample may fall
    below it.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    if n > 64:
        raise ValueError("sampling supports n <= 64")
    if samples < 2:
        raise ValueError("need at least two samples for a spread")
    m = math.comb(n, 2)
    if samples * m > _SAMPLE_BYTES:
        raise ValueError(
            f"{samples} samples x {m} edges = {samples * m} bytes exceeds "
            f"the {_SAMPLE_BYTES}-byte sampling budget"
        )
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(samples, m), dtype=np.uint8)
    full = (1 << m) - 1
    total = math.comb(n, t)

    counts = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        mask = int.from_bytes(
            np.packbits(bits[i], bitorder="little").tobytes(), "little"
        )
        if complement:
            mask ^= full
        rec = ColoringRecord(n=n, red_mask=mask)
        red, blue = count_mono_cliques_fast(rec, t)
        counts[i] = red + blue

    fractions = counts / total
    floor: int | None = None
    if n <= 7 or (n == 8 and large):
        floor = exact_min(n, t, large=large).kmin
        if int(counts.min()) < floor:
            raise RuntimeError("a sample beat the exhaustive minimum")
    return SampleReport(
        n=n,
        t=t,
        samples=samples,
        seed=seed,
        complemented=complement,
        mean_fraction=float(fractions.mean()),
        expected_fraction=2.0 ** (1 - math.comb(t, 2)),
        stderr=float(fractions.std(ddof=1) / math.sqrt(samples)),
        min_count=int(counts.min()),
        exact_floor=floor,
    )
