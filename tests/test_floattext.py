"""format_g17 prints every float64 exactly as `"%.17g" % x` does."""

import numpy as np
from hypothesis import given, settings, strategies as st

from fairband import floattext
from fairband.floattext import VECTOR_MIN, WIDTH, format_g17


def _assert_prints_as_printf(values):
    got = format_g17(values)
    # one row per value, ended by a newline in its last column, so that
    # each row's bytes without its 0 bytes are that value's line
    assert got.dtype == np.uint8 and got.shape == (len(values), WIDTH)
    assert (got[:, -1] == ord("\n")).all()
    text = got[got != 0].tobytes().decode("ascii")
    want = "%.17g\n" * len(values) % tuple(values.tolist())
    if text != want:
        bad = [(x, g, w) for x, g, w in zip(values.tolist(), text.split("\n"),
                                            want.split("\n")) if g != w]
        raise AssertionError(f"{len(bad)} differ, first (x, got, want): "
                             f"{bad[:5]}")


def _near(x, ulps):
    """The doubles within `ulps` of each positive x, as bit patterns."""
    bits = np.asarray(x, np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel()


def _sweep():
    """About a million doubles of either sign, edge classes first."""
    rng = np.random.default_rng(0)
    odd = 2 * np.arange(500) + 1
    parts = [
        # exact binary fractions, whose decimal expansions end in a 5 at
        # the 18th digit (ties) for some k, such as 2^-25
        np.ldexp(1.0, -np.arange(1075)).view(np.int64),
        np.ldexp(odd[:, None], -np.arange(141)).ravel().view(np.int64),
        # each decade boundary and the doubles around it, where E changes
        # and a rounding carry can raise it
        _near(10.0 ** np.arange(-323, 309), 32),
        # the switches between fixed and exponent notation
        _near([1e-5, 1e-4, 1e16, 1e17], 20_000),
        # subnormals, and the normals next to them
        rng.integers(1, 1 << 52, 5_000),
        _near([5e-324 * 1001, 2.2250738585072014e-308], 1_000),
        # random bit patterns, and magnitudes log-uniform over the range a
        # run records
        rng.integers(0, (1 << 63) - 1, 10_000, endpoint=True),
        np.exp(rng.uniform(-92.0, 41.0, 715_000)).view(np.int64),
    ]
    bits = np.concatenate(parts)
    bits |= rng.integers(0, 2, len(bits)) << 63
    # the largest and smallest magnitudes, 0, inf, and nan, quiet and
    # signalling, with payloads, each of either sign
    ends = np.array([np.finfo(float).max, 5e-324, 0.0, np.inf]).view(np.int64)
    nans = np.array([0x7FF8000000000000, 0x7FF0000000000001,
                     0x7FFFFFFFFFFFFFFF])
    ends = np.concatenate([ends, nans])
    bits = np.concatenate([bits, ends, ends | np.int64(-(1 << 63))])
    rng.shuffle(bits)
    return bits.view(np.float64)


def test_sweep_of_edge_classes_prints_as_printf():
    values = _sweep()
    assert len(values) >= 10 ** 6
    # most of it takes the vector path, not `%`
    binade = (values.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    assert floattext._tables().covered[binade.astype(np.intp)].mean() > 0.8
    for lo in range(0, len(values), 1 << 16):
        _assert_prints_as_printf(values[lo:lo + (1 << 16)])


# raw 64-bit patterns, and patterns whose exponent lies in or next to the
# range the vector path serves
_PATTERNS = st.one_of(
    st.integers(0, (1 << 64) - 1),
    st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
              st.integers(0, 1), st.integers(1023 - 127, 1023 + 56),
              st.integers(0, (1 << 52) - 1)))


@settings(max_examples=50, deadline=None)
@given(st.lists(_PATTERNS, min_size=1, max_size=40))
def test_any_bit_patterns_print_as_printf(patterns):
    # repeated up to VECTOR_MIN values, so the vector path prints them
    bits = np.resize(np.array(patterns, np.uint64), VECTOR_MIN)
    _assert_prints_as_printf(bits.view(np.float64))
