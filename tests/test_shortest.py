"""The vectorised float formatter against ``repr``, byte for byte."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak

from ramseymult import shortest
from ramseymult.shortest import WIDTH, float_reprs


SCALES = range(-324, 293)  # the decimal scales k of the doubles


def reference(x) -> np.ndarray:
    return np.array(list(map(repr, np.asarray(x, np.float64).tolist())), f"S{WIDTH}")


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, np.uint64).view(np.float64)


def assert_reprs(x):
    got, want = float_reprs(x), reference(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    bad = np.flatnonzero(got != want)
    assert not len(bad), [(x[i], got[i], want[i]) for i in bad[:5]]


def test_random_bit_patterns():
    # every exponent and both signs; NaNs and infinities turn up too
    bits = np.random.default_rng(20181).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_reprs(from_bits(bits))


def test_powers_of_two_and_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_reprs(np.concatenate([x, -x]))


def test_first_subnormals():
    assert_reprs(from_bits(np.arange(1, 10**5 + 1)))


def test_powers_of_ten():
    assert_reprs(np.array([float(f"1e{k}") for k in range(-323, 309)]))


def test_short_decimals():
    rng = np.random.default_rng(7)
    digits = rng.integers(1, 10**6, 20_000).tolist()
    exponents = rng.integers(-330, 310, 20_000).tolist()
    texts = [f"{d}e{e}" for d, e in zip(digits, exponents)]
    texts += [f"{d / 100}" for d in range(-2000, 2000)]
    assert_reprs(np.array([float(t) for t in texts]))


def test_layout_edges():
    # the last fixed and first exponent layouts on both sides, and ties
    # that round to even
    assert_reprs(np.array([
        9999999999999998.0, 1e16, 1e-4, 1e-5, 123456789012345680.0, 0.0001234,
        1743829569681555.2, 2.9802322387695312e-08, 5e-324, 1.7976931348623157e308,
        2.2250738585072014e-308, 0.5, 1.0, 100.0, 123.456, 2.0**53, 2.0**53 + 2,
    ]))


def test_specials():
    nans = from_bits([
        0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF0_0000_0000_0001,
        0xFFF0_0000_0000_0001, 0x7FFF_FFFF_FFFF_FFFF, 0xFFF8_0000_0000_0001,
    ])
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])
    assert_reprs(x)
    assert float_reprs(x).tolist() == [b"0.0", b"-0.0", b"inf", b"-inf"] + [b"nan"] * 6


@pytest.mark.parametrize("n", [0, 1, shortest._BLOCK - 1, shortest._BLOCK, shortest._BLOCK + 1])
def test_lengths_across_block_edges(n):
    bits = np.random.default_rng(n).integers(0, 2**64, n, dtype=np.uint64)
    assert_reprs(from_bits(bits))


def test_out_rows_are_written_whole():
    # a caller may hand over uninitialised rows: every byte must be set,
    # the NUL padding of short texts and of the specials included
    bits = np.random.default_rng(7).integers(0, 2**64, 2 * shortest._BLOCK + 5, dtype=np.uint64)
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 0.5], from_bits(bits)])
    out = np.full((len(x), WIDTH), 0xAB, np.uint8)
    got = float_reprs(x, out=out)
    assert np.shares_memory(got, out)
    assert got.tolist() == reference(x).tolist()


def test_memory_is_the_output_and_one_block():
    # blocks are written into one preallocated output: the peak is that
    # output plus one block's temporaries, whatever the length
    float_reprs(np.ones(1))  # builds the constant tables outside the count
    extras = []
    for n in (1 << 15, 1 << 18):
        x = from_bits(np.random.default_rng(3).integers(0, 2**64, n, dtype=np.uint64))
        out, peak = traced_peak(float_reprs, x)
        extras.append(peak - out.nbytes)
    assert extras[1] <= 256 * shortest._BLOCK  # 2 MB over the 6.3 MB output
    assert extras[1] <= 1.05 * extras[0]


def test_scale_floors_are_exact():
    # every binary exponent q of a double, and every decimal scale k
    for q in range(-1074, 973):
        k = int(shortest._flog10pow2(q))
        assert Fraction(10) ** k <= Fraction(2) ** q < Fraction(10) ** (k + 1)
        k = int(shortest._flog10_three_quarters_pow2(q))
        assert Fraction(10) ** k <= Fraction(3, 4) * Fraction(2) ** q < Fraction(10) ** (k + 1)
    for k in SCALES:
        m = int(shortest._flog2pow10(-k))
        assert Fraction(2) ** m <= Fraction(10) ** -k < Fraction(2) ** (m + 1)


def test_scale_constants():
    limbs = shortest._g_limbs(SCALES.start, SCALES.stop - 1)
    for k, column in zip(SCALES, limbs.T):
        g = sum(int(limb) << (32 * i) for i, limb in enumerate(column))
        r = int(shortest._flog2pow10(-k)) - 125
        assert 2**125 <= g < 2**126
        assert g - 1 <= Fraction(10) ** -k / Fraction(2) ** r < g
