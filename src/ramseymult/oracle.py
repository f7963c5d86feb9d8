"""Exhaustive and sampled ground truth for small complete graphs.

A two-colouring of K_n is a bitmask over the C(n, 2) edges in
lexicographic order ((0,1), (0,2), ..., (n-2,n-1)); bit set means red.
For n <= 8 the full space is enumerable once symmetries are spent.
Swapping colours complements the mask, so only masks with edge (0,1) red
are scanned, and the reported witness is the lexicographically smallest
mask among the achievers and their complements.  Relabelling vertices
1..n-1 fixes vertex 0's red neighbours to 1..d, and with the colour swap
d >= n // 2, so the minimum is taken over those star-canonical masks
alone (1/16 of them at n = 8); the witness search then reads only the
row blocks at each end that reach it, and checks each against it.  At
t = 3 the minimum must also equal Goodman's closed form.

Counting is done twice by unrelated methods (per-subset mask tests and
bit-sliced clique recursion) so each can vouch for the other, and a
third time for triangles by Goodman's degree identity.  The exhaustive
scan is another: float32 matrix products over mask halves.  The
bit-sliced counter holds colourings as C(n, 2) edge planes of uint64
words, one colouring per bit lane, so every word operation advances 64
colourings; the sampler draws such planes directly as random words and
counts all samples in one recursion per colour.

Both kernels hold a block, not their space.  The scan keeps T's
canonical columns, a low-part table of 2^10 columns and one product at a
time: at n = 8 its tracemalloc peak is 1.0-1.4 MiB over t = 2..8.  The
counter keeps one run of pair planes, at most 2 MB: at the sampling
budget's edge, n = 64 with 133 000 samples, a CLI call peaks at 72 MB of
max RSS for t = 3 and 71-74 MB for t = 4 (``os.wait4``), of which the
edge planes are 33.5 MB.
"""

from __future__ import annotations

import math
import operator
import random
from functools import lru_cache
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numerics import NumericFailure

if TYPE_CHECKING:  # imported by exact_min and ratio_series, which use it
    from fractions import Fraction


class TooLarge(ValueError):
    """Exhaustive search beyond n = 8, or n = 8 without the opt-in flag."""


class CheckFailed(NumericFailure, RuntimeError):
    """A self-check of the scan, the witness or the sampler failed, so the
    oracle cannot vouch for its number."""


_LOW_BITS = 13  # the scan's product has one column per low part of a mask
_BLOCK_BITS = 5  # log2 of the high parts per product block
_COLUMN_BITS = 10  # log2 of the low parts per column chunk (128 KB float32)
# Read by perfbench/tracecall.py: log2 of the product blocks at n = 8.
_CHUNK_BITS = math.comb(8, 2) - 1 - _LOW_BITS - _BLOCK_BITS
# cap on samples x C(n, 2), the edge draws of a request: 32 MiB of packed planes
_SAMPLE_DRAWS = 2**28
_DRAW_WORDS = 2**16  # uint64 words per randbytes call: 512 KB temporaries
_LEAF_WORDS = 2**14  # the clique counter's leaf buffer: 128 KB of uint64
_PAIR_WORDS = 2**18  # the pair planes it holds at once: 2 MB of uint64


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


class ColoringRecord:
    """One two-colouring of K_n."""

    __slots__ = ("n", "red_mask")

    def __init__(self, n: int, red_mask: int) -> None:
        if n < 2:
            raise ValueError("need at least two vertices")
        m = math.comb(n, 2)
        if not 0 <= red_mask < 1 << m:
            raise ValueError(f"mask {red_mask} is not in [0, 2^{m}) for the {m} edges of K_{n}")
        self.n, self.red_mask = n, red_mask

    @property
    def edge_count(self) -> int:
        return math.comb(self.n, 2)

    def red_edges(self) -> list[tuple[int, int]]:
        return [
            e for i, e in enumerate(edge_list(self.n)) if self.red_mask >> i & 1
        ]


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


def _carry_save(acc: list[np.ndarray], planes: np.ndarray) -> None:
    """Add the lane bits of (k, W) planes to ``acc``, where acc[w] holds at
    most two planes whose bits weigh 2^w.  Full adders turn three planes of
    one weight into their sum plane and a carry plane of the next weight
    (the carry-save tree of Harley and Seal, as in Mula, Kurz and Lemire,
    Comput. J. 2018)."""
    w = 0
    while len(planes):
        if w == len(acc):
            acc.append(planes[:0])
        stack = np.concatenate((acc[w], planes))
        carries = []
        while len(stack) > 2:
            k = len(stack) // 3
            a, b, c = stack[:k], stack[k : 2 * k], stack[2 * k : 3 * k]
            carry = a & b
            a ^= b
            carry |= a & c
            a ^= c
            carries.append(carry)
            stack = np.concatenate((a, stack[3 * k :]))
        acc[w] = stack
        planes = np.concatenate(carries) if carries else stack[:0]
        w += 1


@lru_cache(maxsize=4)
def _colex(n: int) -> tuple[np.ndarray, ...]:
    """Pairs a < b and triples a < b < c of range(n) in colex order, so
    those within range(k) come first and those whose largest vertex lies
    in range(j, k) form one contiguous run: (pair_a, pair_b, tri_a, tri_b,
    tri_ac, tri_bc), the last two being the pair numbers of (a, c) and
    (b, c).  Cached, so read-only."""
    v = np.arange(n)
    pair_b = np.repeat(v, v)  # C(b, 2) pairs precede b's first
    pair_a = np.arange(len(pair_b)) - pair_b * (pair_b - 1) // 2
    c = np.repeat(v, v * (v - 1) // 2)  # C(c, 3) triples precede c's first
    pair = np.arange(len(c)) - c * (c - 1) * (c - 2) // 6
    a, b, first = pair_a[pair], pair_b[pair], c * (c - 1) // 2
    out = pair_a, pair_b, a, b, first + a, first + b
    for x in out:
        x.flags.writeable = False
    return out


def _clique_counts(
    planes: np.ndarray, n: int, t: int, valid: np.ndarray
) -> np.ndarray:
    """t-clique count of every lane of (C(n, 2), W) edge planes, 64 W lanes:
    bit s of word w of plane e is edge e of graph 64 w + s, and ``valid``
    masks the lanes that hold graphs.

    Recurse over vertex prefixes that are cliques in some lane; a prefix's
    row v is the plane of lanes in which adding v keeps it a clique, and a
    vertex whose row is zero in every word is skipped.  With at most three
    vertices left to choose, the live rows are paired (rows u, v and edge
    (u, v) ANDed) and, for three, the pairs joined into triples; those
    planes go through a leaf buffer into a carry-save tree of lane sums.
    Triples a < b < c are taken by their largest vertex c, a run of c at
    a time, as pairs (a, c) and (b, c) ANDed with edge (a, b).  In colex
    order a run's pairs and triples are contiguous, so a node holds the
    pair planes of one run, at most max(_PAIR_WORDS, (k - 1) W) words;
    all C(k, 2) W of them would be as large as the edge planes.
    """
    m, words = planes.shape
    first = [0, *accumulate(range(n - 1, 0, -1))]  # u's edges: first[u]..
    edge_at = np.zeros((n, n), dtype=np.intp)
    edge_at[np.triu_indices(n, 1)] = np.arange(m)
    pair_a, pair_b, tri_a, tri_b, tri_ac, tri_bc = _colex(n)
    leaf = np.empty((max(1, _LEAF_WORDS // words), words), dtype="<u8")
    pair_rows = max(1, _PAIR_WORDS // words)
    fill = 0
    acc: list[np.ndarray] = []

    def gather(out: np.ndarray, lo: int, gathers: tuple) -> None:
        """out[i] = AND of src[idx[lo + i]] over the (src, idx) gathers;
        ``out`` is at most a leaf buffer, which bounds the temporaries."""
        picks = slice(lo, lo + len(out))
        (src, idx), *rest = gathers
        np.take(src, idx[picks], axis=0, out=out)
        for src, idx in rest:
            out &= src[idx[picks]]

    def emit(count: int, *gathers: tuple[np.ndarray, np.ndarray]) -> None:
        nonlocal fill
        for lo in range(0, count, len(leaf)):
            size = min(count - lo, len(leaf))
            if fill + size > len(leaf):
                _carry_save(acc, leaf[:fill])
                fill = 0
            gather(leaf[fill : fill + size], lo, gathers)
            fill += size

    def grow(rows: np.ndarray, lo: int, depth: int) -> None:
        if depth > 3:
            live = np.flatnonzero(rows[lo : n - depth + 1].any(axis=1)) + lo
            for u in live.tolist():
                child = np.empty_like(rows)
                edges = planes[first[u] : first[u + 1]]
                np.bitwise_and(rows[u + 1 :], edges, out=child[u + 1 :])
                child[u + 1 :] &= rows[u]
                grow(child, u + 1, depth - 1)
            return
        live = np.flatnonzero(rows[lo:].any(axis=1)) + lo
        k = len(live)
        us, vs = live[pair_a[: k * (k - 1) // 2]], live[pair_b[: k * (k - 1) // 2]]
        paired = (rows, us), (rows, vs), (planes, edge_at[us, vs])
        if depth == 2:
            emit(len(us), *paired)
            return
        # triples by their largest live vertex c, a run of c at a time:
        # the pairs (a, c) and (b, c) of the run joined with edge (a, b)
        held = np.empty((min(len(us), max(pair_rows, k - 1)), words), dtype="<u8")
        c = 2
        while c < k:
            end = c + 1
            while end < k and (end + 1) * end // 2 - c * (c - 1) // 2 <= pair_rows:
                end += 1
            p0 = c * (c - 1) // 2
            pairs = held[: end * (end - 1) // 2 - p0]
            for i in range(0, len(pairs), len(leaf)):
                gather(pairs[i : i + len(leaf)], p0 + i, paired)
            run = slice(c * (c - 1) * (c - 2) // 6, end * (end - 1) * (end - 2) // 6)
            ab = edge_at[live[tri_a[run]], live[tri_b[run]]]
            emit(len(ab), (pairs, tri_ac[run] - p0), (pairs, tri_bc[run] - p0), (planes, ab))
            c = end

    grow(np.tile(valid, (n, 1)), 0, t)
    _carry_save(acc, leaf[:fill])
    lanes = np.zeros(64 * words, dtype=np.int64)
    for w, weighed in enumerate(acc):
        bits = np.unpackbits(weighed.view(np.uint8), axis=1, bitorder="little")
        lanes += bits.sum(axis=0, dtype=np.int64) << w
    return lanes


def _edge_planes(bits: np.ndarray) -> np.ndarray:
    """(m, W) edge planes of the colourings given as (B, m) 0/1 uint8 rows:
    bit s of word w of plane e is edge e of row 64 w + s."""
    samples, m = bits.shape
    planes = np.zeros((m, -(-samples // 64)), dtype="<u8")
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    planes.view(np.uint8)[:, : packed.shape[1]] = packed
    return planes


def _valid_lanes(samples: int) -> np.ndarray:
    """The (W,) word mask of lanes 0 .. samples - 1."""
    valid = np.full(-(-samples // 64), ~np.uint64(0), dtype="<u8")
    if samples % 64:
        valid[-1] = (1 << samples % 64) - 1
    return valid


def _red_blue(
    planes: np.ndarray, n: int, t: int, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (red, blue) K_t counts of the edge planes of ``samples``
    colourings; the planes are left complemented."""
    valid = _valid_lanes(samples)
    red = _clique_counts(planes, n, t, valid)
    planes ^= valid
    return red[:samples], _clique_counts(planes, n, t, valid)[:samples]


def _mono_counts(bits: np.ndarray, n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (red, blue) K_t counts of (B, C(n, 2)) 0/1 edge bits."""
    return _red_blue(_edge_planes(bits), n, t, len(bits))


def count_mono_cliques_fast(coloring: ColoringRecord, t: int) -> tuple[int, int]:
    """Same counts as :func:`count_mono_cliques` via the bit-sliced clique
    recursion (one lane used); independent arithmetic, used to cross-check."""
    if not 2 <= t <= coloring.n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={coloring.n}")
    if coloring.n > 64:
        raise ValueError("bitset counting supports n <= 64")
    m = coloring.edge_count
    raw = np.frombuffer(coloring.red_mask.to_bytes(m // 8 + 1, "little"), np.uint8)
    bits = np.unpackbits(raw, count=m, bitorder="little")
    red, blue = _mono_counts(bits[None], coloring.n, t)
    return int(red[0]), int(blue[0])


def _canonical_columns(n: int, low: int) -> np.ndarray:
    """Low parts x of the scan whose star at vertex 0 is canonical: red
    neighbours 1..d for some d >= n // 2.  The star edges (0,2)..(0,n-1)
    are the reduced mask's bits 0..n-3, and edge (0,1) is always red."""
    xs = np.arange(1 << low)
    stars = [(1 << (d - 1)) - 1 for d in range(n // 2, n)]
    return np.flatnonzero(np.isin(xs & ((1 << (n - 2)) - 1), stars))


def count_mono_triangles_by_degree(coloring: ColoringRecord) -> int:
    """Red plus blue triangles by Goodman's degree identity: C(n, 3) minus
    half the sum over vertices of red degree times blue degree, since a
    mixed triangle has exactly two vertices that see both colours."""
    n = coloring.n
    degree = [0] * n
    for u, v in coloring.red_edges():
        degree[u] += 1
        degree[v] += 1
    return math.comb(n, 3) - sum(d * (n - 1 - d) for d in degree) // 2


def _goodman_minimum(n: int) -> int:
    """Goodman's (1959) minimum number of monochromatic triangles in a
    two-colouring of K_n: C(n, 3) - floor((n / 2) floor(((n - 1) / 2)^2))."""
    return math.comb(n, 3) - n * ((n - 1) ** 2 // 4) // 2


def _scan(n: int, t: int) -> tuple[int, int]:
    """(kmin, witness mask) over every colouring of K_n with edge (0,1) red.

    Reduced mask r = h * 2^L + x encodes colouring (r << 1) | 1.  A subset
    whose edges, shifted down one, have high part q and low part p is red
    when h covers q and x covers p, and blue when it avoids edge (0,1) and
    h, x miss q, p.  Grouping subsets by p, every count is W @ T: W[h]
    counts each group's q that h covers or misses, T[:, x] holds x's
    [covers p] and [misses p].  Partial sums are integers <= C(n, t), so
    float32 is exact in any summation order and any BLAS thread count.
    W is never held whole: each product block builds its own rows from
    0/1 tests [h & q == want], want = q for red and 0 for blue, times
    ``into``, which adds each distinct test to the groups that use it.
    Neither is T: the first pass takes its columns at the canonical x
    only, and the second factorises it by column chunk.  Writing
    x = a + c with c below the chunk width, x covers p exactly when a
    covers p's chunk bits and c covers the rest, and misses it likewise,
    so chunk a of T is T_lo, the table of c against p's low bits, with
    each row scaled by a's 0/1 factor, and a block's chunk a is
    (W * factor_a) @ T_lo.

    Two passes read these products.  The first takes kmin over the
    columns of :func:`_canonical_columns` only: relabelling vertices
    1..n-1 and swapping colours carry every colouring to one whose star
    at vertex 0 is canonical, with the same count.  The second finds the
    witness, min(first achiever, complement of last achiever), the
    lexicographic minimum: it reads row blocks in ascending r up to the
    first block that reaches kmin, then descending down to the first
    such block, never below where the ascent stopped.  A block is read
    chunk by chunk from the end it is searched from; once a chunk holds
    an achiever, the chunks left need only the rows before it (after it,
    descending), and none once no row is left.  So the scan holds
    T_lo, the canonical columns of T and one product chunk at a time: at
    n = 8 a traced peak of at most 2 MiB.  A chunk below kmin, or no
    block at kmin, would refute the symmetry argument and raises
    :class:`CheckFailed`.
    """
    m = math.comb(n, 2)
    low = min(m - 1, _LOW_BITS)
    width = m - 1 - low  # bits of a high part
    highs = 1 << width
    subsets = np.array(_subset_masks(n, t), dtype=np.int64)
    pats, group = np.unique((subsets >> 1) & ((1 << low) - 1), return_inverse=True)
    groups = len(pats)
    # a test is keyed q * 2^width + want (q, want < 2^width); only subsets
    # that avoid edge (0,1) have a blue test.  Key 0, [h & 0 == 0], counts
    # nowhere unless a subset uses it, and keeps two tests or more: numpy's
    # matmul takes a slow loop on an inner dimension of 1 (t = n)
    high = subsets >> (low + 1)
    blue = subsets & 1 == 0
    keys, test = np.unique(
        np.r_[0, high << width | high, high[blue] << width], return_inverse=True
    )
    qs = (keys >> width).astype(np.int32)
    wants = (keys & (highs - 1)).astype(np.int32)
    into = np.zeros((len(keys), 2 * groups), dtype=np.float32)
    np.add.at(into, (test[1:], np.r_[group, groups + group[blue]]), 1)

    def marks(lo: int, rows: int) -> np.ndarray:
        """The tests of high parts lo .. lo + rows - 1, one row each."""
        h = np.arange(lo, min(lo + rows, highs), dtype=np.int32)[:, None]
        return ((h & qs) == wants).astype(np.float32)

    def table(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """T's rows for patterns ps at low parts xs: [x covers p], then
        [x misses p]."""
        common = xs & ps[:, None]
        return np.concatenate((common == ps[:, None], common == 0), dtype=np.float32)

    canon = into @ table(_canonical_columns(n, low), pats)
    rows = max(1, (1 << (_LOW_BITS + _BLOCK_BITS)) // canon.shape[1])
    kmin = min((marks(lo, rows) @ canon).min() for lo in range(0, highs, rows))

    span = min(low, _COLUMN_BITS)  # bits of c
    t_lo = table(np.arange(1 << span), pats & ((1 << span) - 1))
    factors = table(np.arange(0, 1 << low, 1 << span), pats >> span << span)

    def achiever(lo: int, last: bool) -> int | None:
        """First (or last) achiever of the block at high part lo, if any."""
        weights = marks(lo, 1 << _BLOCK_BITS) @ into
        top, bottom = 0, len(weights)  # the rows still able to improve
        found = None
        chunks = range(factors.shape[1])
        for a in reversed(chunks) if last else chunks:
            if top == bottom:
                break
            counts = (weights[top:bottom] * factors[:, a]) @ t_lo
            if counts.min() < kmin:
                raise CheckFailed("scan block beats the star-canonical minimum")
            at = (counts == kmin).ravel()
            k = len(at) - 1 - int(at[::-1].argmax()) if last else int(at.argmax())
            if at[k]:
                i, c = divmod(k, counts.shape[1])
                i += top
                found = ((lo + i) << low) + (a << span) + c
                top, bottom = (i + 1, bottom) if last else (top, i)
        return found

    blocks = range(0, highs, 1 << _BLOCK_BITS)
    for i, lo in enumerate(blocks):
        first = achiever(lo, last=False)
        if first is not None:
            break
    else:
        raise CheckFailed("no scan block reaches the star-canonical minimum")
    for lo in reversed(blocks[i:]):
        last = achiever(lo, last=True)
        if last is not None:
            break
    return int(kmin), min((first << 1) | 1, ((1 << m) - 1) ^ ((last << 1) | 1))


class MinimumReport(NamedTuple):
    """Exhaustive minimum of mono K_t counts over colourings of K_n."""

    n: int
    t: int
    kmin: int
    witness: ColoringRecord
    red_count: int  # the witness's red K_t
    blue_count: int
    ratio: Fraction  # kmin / C(n, t)

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "kmin": self.kmin,
            "ratio": [self.ratio.numerator, self.ratio.denominator],
            "witness_mask": format(self.witness.red_mask, "#x"),
            "witness_red_edges": self.witness.red_edges(),
            "witness_counts": [self.red_count, self.blue_count],
        }


def _worker_count(requested: int | None, chunks: int) -> int:
    """Always 1: the scan runs in this one process, and its only parallelism
    is the BLAS library's threads (one under the CLI unless the caller sets
    ``OPENBLAS_NUM_THREADS``).  perfbench/tracecall.py reads it."""
    return 1


def _check_reach(n: int, large: bool) -> None:
    """Raise :class:`TooLarge` for an n the exhaustive scan refuses."""
    if n > 8:
        raise TooLarge(f"n={n} is beyond exhaustive reach (max 8)")
    if n == 8 and not large:
        raise TooLarge("n=8 scans 2^27 colourings; opt in with large=True (--large)")


def exact_min(
    n: int, t: int, large: bool = False, workers: int | None = None
) -> MinimumReport:
    """Exhaustively minimise red + blue K_t counts over colourings of K_n.

    Blocked matrix products over the reduced colourings find the minimum
    and then the witness (see :func:`_scan`): the minimum from the
    colourings whose star at vertex 0 is canonical, the witness from as
    few row blocks at each end as reach it, every product read checked
    against the minimum.  n = 8 (2^27 reduced colourings) requires
    ``large=True`` and n > 8 always raises :class:`TooLarge`.  Both
    clique counters recount the witness, and at t = 3 so does Goodman's
    degree identity, while the minimum must equal Goodman's closed form
    (:func:`_goodman_minimum`): the witness search checks only the
    products it reads, so a wrong canonical selection could otherwise
    pass.  ``workers`` is ignored; perfbench/run.py passes it.
    """
    from fractions import Fraction

    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    _check_reach(n, large)

    kmin, witness_mask = _scan(n, t)
    witness = ColoringRecord(n=n, red_mask=witness_mask)
    red, blue = count_mono_cliques(witness, t)
    recounts = [
        red + blue,
        sum(count_mono_cliques_fast(witness, t)),
    ]
    if t == 3:
        recounts.append(count_mono_triangles_by_degree(witness))
    if any(k != kmin for k in recounts):
        raise CheckFailed("witness recount disagrees with scan minimum")
    if t == 3 and kmin != _goodman_minimum(n):
        raise CheckFailed("scan minimum disagrees with Goodman's closed form")
    return MinimumReport(
        n=n,
        t=t,
        kmin=kmin,
        witness=witness,
        red_count=red,
        blue_count=blue,
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
    from fractions import Fraction

    if n_max < t:
        raise ValueError("n_max must be at least t")
    _check_reach(n_max, large)
    rows: list[tuple[int, int, Fraction]] = []
    prev = Fraction(-1)
    for n in range(t, n_max + 1):
        rep = exact_min(n, t, large=large)
        if rep.ratio < prev:
            raise CheckFailed(
                f"minimum ratio decreased from {prev} to {rep.ratio} at n={n}"
            )
        prev = rep.ratio
        rows.append((n, rep.kmin, rep.ratio))
    return rows


class SampleReport(NamedTuple):
    """Monte Carlo mono-K_t statistics under uniformly random colourings."""

    n: int
    t: int
    samples: int
    seed: int
    mean_fraction: float
    expected_fraction: float  # 2^(1 - C(t,2))
    stderr: float
    min_count: int
    exact_floor: int | None  # exhaustive kmin when available


def _sample_planes(seed: int, samples: int, m: int) -> np.ndarray:
    """(m, W) edge planes of ``samples`` uniform colourings: one
    ``random.Random(seed).randbytes(8 m W)`` draw read as little-endian
    uint64, with the lanes at or past ``samples`` cleared.  It is drawn
    _DRAW_WORDS words at a time; draws of whole words concatenate."""
    rng = random.Random(seed)
    planes = np.empty((m, -(-samples // 64)), dtype="<u8")
    flat = planes.reshape(-1)
    for lo in range(0, len(flat), _DRAW_WORDS):
        words = flat[lo : lo + _DRAW_WORDS]
        words[:] = np.frombuffer(rng.randbytes(8 * len(words)), dtype="<u8")
    planes &= _valid_lanes(samples)
    return planes


def sample_against_bounds(
    n: int,
    t: int,
    samples: int = 10_000,
    seed: int = 0,
    large: bool = False,
) -> SampleReport:
    """Sample colourings of K_n uniformly and compare mono-K_t fractions
    with the random-colouring expectation 2^(1 - C(t,2)).

    ``seed`` (an integer >= 0) seeds :func:`_sample_planes`.  No sample may
    fall below the exhaustive minimum, which is computed when in reach.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    if n > 64:
        raise ValueError("sampling supports n <= 64")
    if samples < 2:
        raise ValueError("need at least two samples for a spread")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    m = math.comb(n, 2)
    if samples * m > _SAMPLE_DRAWS:
        raise ValueError(
            f"{samples} samples x {m} edges = {samples * m} edge draws, over the "
            f"sampling budget of {_SAMPLE_DRAWS} (one bit each: "
            f"{_SAMPLE_DRAWS // (8 << 20)} MiB of packed planes)"
        )
    planes = _sample_planes(seed, samples, m)
    counts = np.add(*_red_blue(planes, n, t, samples))

    fractions = counts / math.comb(n, t)
    floor: int | None = None
    if n <= 7 or (n == 8 and large):
        floor = exact_min(n, t, large=large).kmin
        if int(counts.min()) < floor:
            raise CheckFailed("a sample beat the exhaustive minimum")
    return SampleReport(
        n=n,
        t=t,
        samples=samples,
        seed=seed,
        mean_fraction=float(fractions.mean()),
        expected_fraction=2.0 ** (1 - math.comb(t, 2)),
        stderr=float(fractions.std(ddof=1) / math.sqrt(samples)),
        min_count=int(counts.min()),
        exact_floor=floor,
    )
