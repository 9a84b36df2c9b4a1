"""`"%.17g" % x` for a whole float64 array at once, byte for byte.

A double x = m·2^q, m a 53-bit integer, prints with decimal exponent E as
the 17 digits of N = round-half-even(x·10^a), a = 16 - E. For x in a binade
[2^p, 2^(p+1)), E is e0 = floor(log10(2^p)) or e0 + 1. With a = 16 - e0 and
k = -(q + a) - 1, floor(2·x·10^a) = floor(m·5^a/2^k) = floor(m·G/2^121)
for G = 5^a·2^(121-k), which two 64-bit words hold exactly from 2^-124
(E = -38) up to 2^54 (E = 16); the bits of m below 2^k say whether anything
lies past the half-unit, as 5^a is odd. numpy forms m·G from products of
32-bit halves for all values of a call at once, which is the fixed-precision
case of Adams, "Ryū revisited: printf floating point conversion" (OOPSLA
2019). A product from 10^17 on means E = e0 + 1, and one more division by
10; a rounding carry to 10^17 raises E by one as well. The digits are laid
out in `%g`'s notation as the rows of a byte matrix, one per value, with a
0 byte where a value prints nothing, so deleting the 0 bytes turns it into
text.

Zeros, subnormals, inf, nan and values outside that range, and calls with
fewer than VECTOR_MIN values, print through `%` itself, each text
left-aligned in a row of the same shape.

numpy >= 1.24 promotes uint64 mixed with int64 to float64, which would
still print plausible digits: every integer array and constant below is
explicitly uint64, or int64 for exponents and digit positions only.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Tuple

import numpy as np

# below this many values a call prints through `%`. The vector path costs
# ~100 µs a call plus ~0.13 µs a value; `%` costs ~0.55 µs a value of 17
# digits, so it loses from ~250 of those, but ~0.25 µs a value of a settled
# run, whose texts are short, and loses only from ~800 of those (a
# 356-value async3 chunk: 88 against 141 µs). The full async3 preset,
# whose chunks hold ~360 or over 5,000 values, writes ~20% faster at
# 1,000 than at 300
VECTOR_MIN = 1000

_U = np.uint64
_FRACTION = _U((1 << 52) - 1)
_BIASED = _U(0x7FF)
_HIDDEN = _U(1 << 52)
_LOW32 = _U(0xFFFFFFFF)
_E17, _E16, _E12, _E8, _E4 = (_U(10 ** p) for p in (17, 16, 12, 8, 4))
_ONE, _TWO, _SEVEN, _TEN = (_U(c) for c in (1, 2, 7, 10))
_32, _52, _57, _63 = (_U(s) for s in (32, 52, 57, 63))

# one output line: sign, "0." and up to three zeros before a number below
# 1, 17 digits with a point among them, exponent, line end
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 18 + b"e-00\n", np.uint8)
_BODY = slice(6, 24)
_EXP = slice(24, 28)
_J18 = np.arange(18, dtype=np.uint8)
_J17 = np.arange(17, dtype=np.uint8)
_J3 = np.arange(1, 4)
# the columns of format_g17's rows
WIDTH = len(_TEMPLATE)
# `%` left-aligns each text in a row's other columns, padding it with
# spaces, which no float's text holds, and then 0 bytes
_PADDED = f"%-{WIDTH - 1}.17g\n"
_MINUS, _ZERO, _POINT, _SPACE = (np.uint8(ord(c)) for c in "-0. ")


class _Tables(NamedTuple):
    g_hi: np.ndarray        # per biased binary exponent: G's high word,
    g_lo: np.ndarray        # its low word,
    below: np.ndarray       # the mask of m's bits below the half-unit,
    e0: np.ndarray          # the decimal exponent of the binade's low end,
    covered: np.ndarray     # and whether the vector path serves the binade
    quad: np.ndarray        # each 4-digit group's ASCII bytes in a word


@functools.cache
def _tables() -> _Tables:
    g_hi, g_lo, below = (np.zeros(2048, np.uint64) for _ in range(3))
    e0 = np.zeros(2048, np.int64)
    covered = np.zeros(2048, bool)
    for biased in range(1, 2047):
        p = biased - 1023                   # x in [2^p, 2^(p+1))
        e = len(str(1 << p)) - 1 if p >= 0 else -len(str(1 << -p))
        a = 16 - e
        k = 51 - p - a
        if a < 1 or k > 121:
            continue
        # 10^16 <= floor(x·10^a) < 2·10^17, so floor(2·x·10^a) < 2^59
        g = 5 ** a << (121 - k)
        assert g < 2 ** 128
        g_hi[biased], g_lo[biased] = g >> 64, g & (2 ** 64 - 1)
        below[biased] = (1 << min(max(k, 0), 64)) - 1
        e0[biased] = e
        covered[biased] = True
    quad = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T
            + _ZERO).copy().view(np.uint32).ravel()
    return _Tables(g_hi, g_lo, below, e0, covered, quad)


def format_g17(values: np.ndarray) -> np.ndarray:
    """`"%.17g" % x` of each float64 in `values`, as the rows of a uint8
    matrix of WIDTH columns: the text's bytes with a 0 byte wherever
    nothing prints, and a newline in the last column, so deleting the 0
    bytes leaves one line per value."""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    if len(bits) < VECTOR_MIN:
        return _printf(bits)
    binade = ((bits >> _52) & _BIASED).astype(np.intp)
    text = _layout(bits, *_decimal(bits, binade)).T
    # the tables are 0 for the binades they do not serve, so those values
    # come out as harmless wrong digits, which `%` then overwrites
    rest = np.flatnonzero(~_tables().covered[binade])
    if len(rest):
        text[rest] = _printf(bits[rest])
    return text


def _printf(bits: np.ndarray) -> np.ndarray:
    text = _PADDED * len(bits) % tuple(bits.view(np.float64).tolist())
    rows = np.frombuffer(bytearray(text, "ascii"), np.uint8).reshape(-1, WIDTH)
    rows[rows == _SPACE] = 0
    return rows


def _decimal(bits: np.ndarray, binade: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """The 17 correctly rounded digits of each |x| as ASCII rows d0..d16
    between two 0 rows, and its decimal exponent E."""
    t = _tables()
    m = (bits & _FRACTION) | _HIDDEN
    # whether 2·|x|·10^a has a fraction, which m's bits below 2^k hold
    inexact = (m & t.below[binade]) != 0
    twice = _scale(m, binade)                       # floor(2·|x|·10^a)
    # |x|·10^a from 10^17: E is one more, and the digit dropped for it
    # joins the fraction
    big = twice >= _E17 * _TWO
    tenth = twice // _TEN
    inexact |= big & (twice != tenth * _TEN)
    twice = np.where(big, tenth, twice)
    # half-even: up when the half bit is set and there is more, or N is odd
    n = twice >> _ONE
    n += twice & (n | inexact) & _ONE
    e = t.e0[binade] + big
    # 99...9 rounded up to 10^17 is 10^16 with E one more
    carried = n == _E17
    n[carried] = _E16
    e += carried
    digits = np.zeros((19, len(n)), np.uint8)
    _digits(n, digits[1:18])
    return digits, e


def _scale(m: np.ndarray, binade: np.ndarray) -> np.ndarray:
    """floor(m·G/2^121) for each binade's G = g_hi·2^64 + g_lo."""
    t = _tables()
    m_lo, m_hi = m & _LOW32, m >> _32
    high, low = _mul(m_lo, m_hi, t.g_hi[binade])
    # m·G/2^64 = m·g_hi + m·g_lo/2^64, whose floor adds m·g_lo's high word;
    # g_lo is 0 but for values below about 1e-9
    deep = np.flatnonzero(t.g_lo[binade])
    carry = _mul(m_lo[deep], m_hi[deep], t.g_lo[binade[deep]])[0]
    low[deep] += carry
    high[deep] += low[deep] < carry
    return (high << _SEVEN) | (low >> _57)


def _mul(m_lo: np.ndarray, m_hi: np.ndarray, g: np.ndarray):
    """High and low 64-bit words of m·g, m = m_hi·2^32 + m_lo < 2^53, from
    32-bit halves; g is overwritten."""
    high = g >> _32
    g &= _LOW32
    low = m_lo * g
    cross = m_lo * high
    high *= m_hi
    g *= m_hi
    g += low >> _32
    g += cross & _LOW32                 # the middle word and its carry
    high += cross >> _32
    high += g >> _32
    low &= _LOW32
    low |= g << _32
    return high, low


def _digits(n: np.ndarray, out: np.ndarray) -> None:
    """Write the 17 ASCII digits of each n in [10^16, 10^17) to the rows
    of `out`: d0, then four groups of four from scalar-divisor splits."""
    lead = n // _E16
    out[0] = _quads(lead)[3]
    rest = n - lead * _E16
    for row, unit in zip(range(1, 17, 4), (_E12, _E8, _E4, _ONE)):
        group = rest // unit
        rest -= group * unit
        out[row:row + 4] = _quads(group)


def _quads(groups: np.ndarray) -> np.ndarray:
    """The four ASCII digits of each number below 10^4, one row each."""
    return _tables().quad.take(groups).view(np.uint8).reshape(-1, 4).T


def _layout(bits: np.ndarray, digits: np.ndarray, e: np.ndarray
            ) -> np.ndarray:
    """`%g` text of each x from its digits and decimal exponent e, as the
    column of a byte matrix with a 0 byte where nothing prints: fixed
    notation for -4 <= e < 17, else d.ddde-XX, trailing zeros dropped."""
    # the position of the last digit that is not 0
    last = (_J17[:, None] * (digits[1:18] != _ZERO)).max(axis=0)
    scientific = e < -4
    below_one = (e < 0) & ~scientific
    # the point follows the units digit, or d0 in scientific notation, if
    # a digit prints after it; below 1 it precedes the digits
    point = np.where(scientific, 0, e)
    fraction = (last > point) & ~below_one
    # positions below 19, compared with _J18 as bytes
    dot = np.where(fraction, point + 1, 18).astype(np.uint8)
    chars = np.empty((len(_TEMPLATE), len(e)), np.uint8)
    chars[0] = _MINUS * (bits >> _63 == _ONE)
    chars[1:3] = _TEMPLATE[1:3, None] * below_one
    chars[3:6] = _ZERO * (_J3[:, None] <= np.where(below_one, -1 - e, 0))
    # an exponent only in the columns that print one, which are few
    chars[_EXP] = 0
    tiny = np.flatnonzero(scientific)
    chars[24:26, tiny] = _TEMPLATE[24:26, None]
    # its two digits are the last two of its 4-digit group
    chars[26:28, tiny] = _quads(-e[tiny])[2:]
    chars[-1] = _TEMPLATE[-1]
    # the digits, those past the point one row down
    body = chars[_BODY]
    np.copyto(body, digits[1:])
    np.copyto(body, digits[:-1], where=_J18[:, None] > dot)
    at = np.flatnonzero(fraction)
    body[dot[at], at] = _POINT
    end = (np.maximum(last, e) + fraction).astype(np.uint8)
    body *= (_J18[:, None] <= end).view(np.uint8)
    return chars
