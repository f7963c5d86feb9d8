"""Exhaustive and sampled ground truth for small complete graphs.

A two-colouring of K_n is a bitmask over the C(n, 2) edges in
lexicographic order ((0,1), (0,2), ..., (n-2,n-1)); bit set means red.
For n <= 8 the full space is enumerable once two symmetries are spent:
swapping colours complements the mask, so only masks with edge (0,1) red
are scanned, and the reported witness is the lexicographically smallest
mask among the achievers and their complements.

Counting is done twice by unrelated methods (per-subset mask tests and
adjacency-bitset clique recursion) so each can vouch for the other.  The
exhaustive scan is a third: one float32 matrix product over mask halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np


class TooLarge(Exception):
    """Exhaustive search beyond n = 8, or n = 8 without the opt-in flag."""


_LOW_BITS = 13  # the scan's product has one column per low part of a mask
_BLOCK_BITS = 5  # log2 of the high parts per product block (1 MB float32)
# Read by perfbench/tracecall.py: log2 of the product blocks at n = 8.
_CHUNK_BITS = math.comb(8, 2) - 1 - _LOW_BITS - _BLOCK_BITS
_SAMPLE_BYTES = 2**28  # cap on samples x C(n, 2), the edge bytes drawn in all
_SAMPLE_BLOCK = 4096  # samples drawn and counted per batch; a multiple of 4


def edge_list(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in the bit order used by colouring masks."""
    return list(combinations(range(n), 2))


def _edge_index(n: int) -> dict[tuple[int, int], int]:
    return {e: i for i, e in enumerate(edge_list(n))}


@lru_cache(maxsize=8)
def _subset_masks(n: int, t: int) -> tuple[int, ...]:
    """For each t-subset of vertices, the mask of its internal edges;
    cached, so a tuple that no caller can change."""
    idx = _edge_index(n)
    masks = []
    for subset in combinations(range(n), t):
        m = 0
        for e in combinations(subset, 2):
            m |= 1 << idx[e]
        masks.append(m)
    return tuple(masks)


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


def _clique_counts(forward: np.ndarray, t: int) -> np.ndarray:
    """t-clique count of each of B graphs given as (n, B) forward bitsets:
    branch on each vertex that is a candidate in some graph while enough
    remain, zero the graphs in which it is not, popcount the last level."""
    n, batch = forward.shape

    def grow(candidates: np.ndarray, depth: int) -> np.ndarray:
        if depth == 1:
            return np.bitwise_count(candidates)
        total = np.zeros(batch, dtype=np.int64)
        rest = int(np.bitwise_or.reduce(candidates))
        while rest.bit_count() >= depth:  # else too few vertices remain
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            picked = (candidates & np.uint64(1 << v)) != 0
            total += grow(np.where(picked, candidates & forward[v], 0), depth - 1)
        return total

    return grow(np.full(batch, (1 << n) - 1, dtype=np.uint64), t)


def _mono_counts(bits: np.ndarray, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (red, blue) K_t counts of (B, C(n, 2)) 0/1 edge bits."""
    u, v = np.triu_indices(n, 1)
    cols = np.zeros((n, 64), dtype=np.intp)
    cols[u, v] = np.arange(len(u))
    # (n, B) bitsets: bit v of row u is set when v > u and edge (u, v) is red;
    # the other slots read edge 0 and are masked off
    adj = np.empty((n, len(bits)), dtype="<u8")
    for row, c in zip(adj, cols):
        packed = np.packbits(np.take(bits, c, axis=1), 1, bitorder="little")
        row[:] = packed.view("<u8")[:, 0]
    above = np.array([[-(2 << v) & ((1 << n) - 1)] for v in range(n)], np.uint64)
    adj &= above
    red = _clique_counts(adj, t)
    adj ^= above  # now the blue bitsets
    return red, _clique_counts(adj, t)


def count_mono_cliques_fast(coloring: ColoringRecord, t: int) -> tuple[int, int]:
    """Same counts as :func:`count_mono_cliques` via clique recursion on
    adjacency bitsets; independent arithmetic, used to cross-check."""
    if not 2 <= t <= coloring.n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={coloring.n}")
    if coloring.n > 64:
        raise ValueError("bitset counting supports n <= 64")
    m = coloring.edge_count
    raw = np.frombuffer(coloring.red_mask.to_bytes(m // 8 + 1, "little"), np.uint8)
    bits = np.unpackbits(raw, count=m, bitorder="little")
    red, blue = _mono_counts(bits[None], coloring.n, t)
    return int(red[0]), int(blue[0])


def _scan(n: int, t: int) -> tuple[int, int]:
    """(kmin, witness mask) over every colouring of K_n with edge (0,1) red.

    Reduced mask r = h * 2^L + x encodes colouring (r << 1) | 1.  A subset
    whose edges, shifted down one, have high part q and low part p is red
    when h covers q and x covers p, and blue when it avoids edge (0,1) and
    h, x miss q, p.  Grouping subsets by p, every count is W @ T: W[h]
    counts each group's q that h covers or misses, T[:, x] holds x's
    [covers p] and [misses p].  Partial sums are integers <= C(n, t), so
    float32 is exact in any summation order and any BLAS thread count.
    The witness is min(first achiever, complement of last achiever), the
    lexicographic minimum since r ascends through the row-major blocks.
    """
    m = math.comb(n, 2)
    low = min(m - 1, _LOW_BITS)
    subsets = np.array(_subset_masks(n, t), dtype=np.int64)
    pats, group = np.unique((subsets >> 1) & ((1 << low) - 1), return_inverse=True)
    groups = len(pats)
    hs = np.arange(1 << (m - 1 - low))
    w = np.zeros((len(hs), 2 * groups), dtype=np.float32)
    for smask, g in zip(subsets.tolist(), group.tolist()):
        q = smask >> (low + 1)
        w[:, g] += (hs & q) == q
        if not smask & 1:
            w[:, groups + g] += (hs & q) == 0
    xs = np.arange(1 << low)
    tmat = np.empty((2 * groups, len(xs)), dtype=np.float32)
    for g, p in enumerate(pats.tolist()):
        tmat[g] = (xs & p) == p
        tmat[groups + g] = (xs & p) == 0

    kmin, first, last = math.inf, 0, 0
    for lo in range(0, len(hs), 1 << _BLOCK_BITS):
        counts = (w[lo : lo + (1 << _BLOCK_BITS)] @ tmat).ravel()
        k = counts.min()
        if k > kmin:
            continue
        hits = np.flatnonzero(counts == k) + (lo << low)
        if k < kmin:
            kmin, first = k, int(hits[0])
        last = int(hits[-1])
    return int(kmin), min((first << 1) | 1, ((1 << m) - 1) ^ ((last << 1) | 1))


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
    """Always 1 (BLAS threads share the product); perfbench/tracecall.py reads it."""
    return 1


def _check_reach(n: int, large: bool) -> None:
    """Raise :class:`TooLarge` for an n the exhaustive scan refuses."""
    if n > 8:
        raise TooLarge(f"n={n} is beyond exhaustive reach (max 8)")
    if n == 8 and not large:
        raise TooLarge("n=8 scans 2^27 colourings; opt in with large=True")


def exact_min(
    n: int, t: int, large: bool = False, workers: int | None = None
) -> MinimumReport:
    """Exhaustively minimise red + blue K_t counts over colourings of K_n.

    One blocked matrix product scans every n <= 8; n = 8 (2^27 reduced
    colourings) requires ``large=True`` and n > 8 always raises
    :class:`TooLarge`.  Both clique counters recount the witness.
    ``workers`` is ignored; perfbench/run.py passes it.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    _check_reach(n, large)

    kmin, witness_mask = _scan(n, t)
    witness = ColoringRecord(n=n, red_mask=witness_mask).with_counts(t)
    fast = sum(count_mono_cliques_fast(witness, t))
    if witness.red_count + witness.blue_count != kmin or fast != kmin:
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
    mean a counting bug, so it is checked here.  An n_max beyond
    :func:`exact_min`'s reach raises :class:`TooLarge` before any scan.
    """
    if n_max < t:
        raise ValueError("n_max must be at least t")
    _check_reach(n_max, large)
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


def _sample_blocks(seed: int, samples: int, m: int) -> Iterator[np.ndarray]:
    """The uniform (samples, m) 0/1 uint8 draw of ``seed``, _SAMPLE_BLOCK
    rows at a time.  The generator packs four uint8 draws into each 32-bit
    word and drops the unused rest of a word at the end of a call, so the
    blocks concatenate to the one-shot draw only because every block but
    the last holds a multiple of four entries."""
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, _SAMPLE_BLOCK):
        rows = min(_SAMPLE_BLOCK, samples - lo)
        yield rng.integers(0, 2, size=(rows, m), dtype=np.uint8)


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
    counts = np.concatenate([
        np.add(*_mono_counts(bits ^ 1 if complement else bits, n, t))
        for bits in _sample_blocks(seed, samples, m)
    ])

    fractions = counts / math.comb(n, t)
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
