"""The text ``repr`` gives a float64, for a whole array at once.

``repr`` prints the shortest decimal that reads back as the same double,
the one closest to it when several are that short, ties to an even last
digit.  Here those digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) in exact integer arithmetic on
uint64 arrays: each value's rounding interval is scaled by a 126-bit
power of ten, the 64 x 126-bit products built from 32-bit limbs.  The
digits are then laid out by ``repr``'s rules: with the value written
0.d1d2...dn x 10^decpt, fixed notation when -4 < decpt <= 16 (``.0``
after an integral value), otherwise ``d.ddde+XX`` with at least two
exponent digits.
"""

from __future__ import annotations

from functools import cache

import numpy as np

WIDTH = 24  # the longest repr of a float64, as in '-2.2250738585072014e-308'
_BLOCK = 8192  # values formatted at a time; bounds the temporaries
_M32 = 0xFFFFFFFF
_DIGITS = 17  # a shortest decimal has at most 17 digits
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)


@cache
def _digit_texts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(quads, exponents, last), built on first use: the ASCII digits of
    0000 to 9999 and of 000 to 999 plus a NUL, each packed in a uint32,
    and the position (1 to 4) of the last nonzero digit of 0000 to 9999,
    far below any digit count for 0000."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # thousands first
    text = np.ascontiguousarray(digits.T + ord("0"))
    exponents = np.zeros((1000, 4), np.uint8)
    exponents[:, :3] = text[:1000, 1:]
    last = np.where(digits > 0, np.arange(1, 5, dtype=np.int8)[:, None], -_DIGITS).max(axis=0)
    return text.view(np.uint32).ravel(), exponents.view(np.uint32).ravel(), last


# Byte columns of the 32-byte source row a layout template picks from:
# digits d2..d17 as four uint32 words, the four constant characters, the
# exponent's three digits and a NUL as one word, then d1 and the exponent
# sign.
_SIGN, _DOT, _ZERO, _E = range(16, 20)
_PAD = 23  # the NUL after the exponent's digits, in bytes 20 to 22
_D1, _EXP_SIGN = 24, 25
_CONSTANTS = np.frombuffer(b"-.0e", np.uint32)[0]
_FIXED = range(-3, 17)  # decpt written in fixed notation
_SCI = 100  # layout _SCI + d: exponent notation with d exponent digits
# +0.0, -0.0, inf, -inf and every NaN, as repr writes them
_SPECIALS = np.array([b"0.0", b"-0.0", b"inf", b"-inf", b"nan"], f"S{WIDTH}")


def _flog10pow2(q):
    """floor(q log10 2); exact on the q of every double (tests check)."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q)); exact on the q of every double."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e log2 10); exact on the -k of every double."""
    return (e * 913_124_641_741) >> 38


@cache
def _g(k: int) -> bytes:
    """g(k) = floor(10^-k 2^-r) + 1 as 16 little-endian bytes, with r
    chosen so 2^125 <= g < 2^126; doubles need -324 <= k <= 292."""
    r = _flog2pow10(-k) - 125
    if k <= 0:
        g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
    else:
        g = (1 << -r) // 10**k + 1
    return g.to_bytes(16, "little")


def _g_limbs(lo: int, hi: int) -> np.ndarray:
    """(4, hi - lo + 1) uint64: the 32-bit limbs of g(k), least
    significant first, for k from lo to hi."""
    raw = b"".join(map(_g, range(lo, hi + 1)))
    return np.frombuffer(raw, "<u4").reshape(-1, 4).T.astype(np.uint64)


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: with T = floor(g cp / 2^64), floor(T / 2^63) rounded
    to odd, its last bit set when T is not a multiple of 2^63.  g exceeds
    10^-k 2^-r by at most 1, so g cp exceeds the exact product by less
    than 2^64, and an exact product stays exact once the low 64 bits are
    dropped.  ``g`` holds the four 32-bit limbs of each value, ``cp`` <
    2^59 its multiplier; a limb product plus two limbs never passes
    2^64 - 1."""
    p0, p1 = cp & _M32, cp >> 32
    acc = p0 * g[0]
    limbs = []
    for i in (1, 2, 3):  # p0 g, then p1 g added one limb up
        acc = p0 * g[i] + (acc >> 32)
        limbs.append(acc & _M32)
    limbs.append(acc >> 32)
    acc = 0
    for i in range(4):
        acc = p1 * g[i] + limbs[i] + (acc >> 32)
        limbs[i] = acc & _M32
    _, r2, r3, r4 = limbs
    inexact = ((r3 & 0x7FFFFFFF) | r2) != 0
    return (r3 >> 31) | (r4 << 1) | ((acc >> 32) << 33) | inexact


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest decimal that rounds to each finite,
    nonzero magnitude ``bits``, the closest when two are, ties to even f."""
    bq = (bits >> 52).astype(np.int64)
    frac = bits & ((1 << 52) - 1)
    c = np.where(bq > 0, frac | (1 << 52), frac)
    q = np.maximum(bq, 1) - 1075
    # at a power of two past the subnormals the gap below is half the gap above
    irregular = (frac == 0) & (bq > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    del bq, frac, q  # the products below set the peak
    lo = int(k.min())
    g = np.take(_g_limbs(lo, int(k.max())), k - lo, axis=1)
    cb = c << 2
    # 4 v, and the interval's ends, times 10^-k, rounded to odd, one
    # product at a time to keep _rop's limb temporaries to one value each
    vb, vbl, vbr = (_rop(g, x << h).view(np.int64) for x in (cb, cb - 2 + irregular, cb + 2))
    # an even significand's interval holds its ends
    odd = (c & 1).view(np.int64)
    vbl += odd
    vbr -= odd
    s = vb >> 2
    # at most one multiple of 10^(k+1) lies in the interval, and no decimal
    # in it is shorter
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, (sp10 + 10) << 2 <= vbr
    uin, win = vbl <= s << 2, (s + 1) << 2 <= vbr
    # s 10^k and (s + 1) 10^k straddle v; when both are in, the closer
    above_mid = vb - (4 * s + 2)
    up = np.where(uin != win, win, (above_mid > 0) | ((above_mid == 0) & (s & 1 == 1)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), s + up)
    return f.view(np.uint64), k


@cache
def _template(negative: bool, n: int, layout: int) -> np.ndarray:
    """Source columns, padded to WIDTH, of the text of an n-digit decimal:
    fixed notation at decpt = ``layout`` when it lies in ``_FIXED``, else
    exponent notation with ``layout - _SCI`` exponent digits."""
    digits = [_D1] + list(range(n - 1))
    cols = [_SIGN] if negative else []
    if layout in _FIXED:
        decpt = layout
        if decpt <= 0:
            cols += [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < n:
            cols += digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            cols += digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    else:
        fraction = [_DOT] + digits[1:] if n > 1 else []
        exponent = list(range(_PAD - (layout - _SCI), _PAD))
        cols += digits[:1] + fraction + [_E, _EXP_SIGN] + exponent
    return np.array(cols + [_PAD] * (WIDTH - len(cols)), np.intp)


def _format_block(x: np.ndarray, out: np.ndarray) -> None:
    """Write the repr of each value of ``x`` into the rows of ``out``."""
    bits = x.view(np.uint64)
    negative = (bits >> 63).astype(np.int16)
    magnitude = bits & ((1 << 63) - 1)
    special = (magnitude == 0) | (magnitude >= 0x7FF0 << 48)
    # 1.0 stands in for the specials, written at the end
    f, k = _decimal(np.where(special, 0x3FF0 << 48, magnitude))
    length = np.searchsorted(_POW10, f, side="right")
    whole = f * _POW10[_DIGITS - length]  # the digits, left-aligned to 17
    lead = whole // 10**16
    rest = whole - lead * 10**16
    quads, exponents, last = _digit_texts()
    src = np.empty((len(x), 32), np.uint8)
    words = src.view(np.uint32)
    n = np.ones(len(x), np.int8)  # digits up to the last nonzero one
    for i, eight in enumerate(np.divmod(rest, 10**8)):
        for j, quad in enumerate(np.divmod(eight, 10**4)):
            words[:, 2 * i + j] = quads[quad]
            np.maximum(n, 1 + 4 * (2 * i + j) + last[quad], out=n)
    decpt = k + length
    exponent = decpt - 1
    size = np.abs(exponent)
    words[:, 4] = _CONSTANTS
    words[:, 5] = exponents[size]
    src[:, _D1] = lead + ord("0")
    src[:, _EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))

    fixed = (decpt >= _FIXED.start) & (decpt < _FIXED.stop)
    layout = np.where(fixed, decpt, _SCI + 2 + (size >= 100))
    # one key per template: sign, digit count, layout (offset to stay >= 0)
    key = ((negative * (_DIGITS + 1) + n) * 128 + (layout - _FIXED.start)).astype(np.int16)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]).tolist()
    src = np.take(src, order, axis=0)
    texts = np.empty_like(out)
    for a, b in zip(starts, starts[1:] + [len(key)]):
        group, code = divmod(int(key[a]), 128)
        sign, digit_count = divmod(group, _DIGITS + 1)
        texts[a:b] = src[a:b, _template(bool(sign), digit_count, code + _FIXED.start)]
    out.view(f"V{WIDTH}")[order] = texts.view(f"V{WIDTH}")
    if special.any():
        rows = np.flatnonzero(special)
        mag = magnitude[rows]
        kind = np.where(mag == 0, 0, np.where(mag == 0x7FF0 << 48, 2, 4))
        kind += (kind < 4) & (negative[rows] == 1)
        out[rows] = _SPECIALS[kind].view(np.uint8).reshape(-1, WIDTH)


def float_reprs(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.array([repr(v).encode() for v in x], "S24")`` for a float64
    array, byte for byte, without a Python call per value.  The values are
    formatted ``_BLOCK`` at a time into the one array returned: ``out``,
    a C-contiguous (len(x), WIDTH) uint8 matrix whose every byte is
    written, when one is given."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if out is None:
        out = np.zeros((len(x), WIDTH), np.uint8)
    for lo in range(0, len(x), _BLOCK):
        _format_block(x[lo : lo + _BLOCK], out[lo : lo + _BLOCK])
    return out.view(f"S{WIDTH}").ravel()
