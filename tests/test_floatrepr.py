"""``floatrepr.csv_rows`` against its oracle, ``repr``: the inputs that
steer Ryū off its common path or switch repr's notation, special values,
random bit patterns, and the share of exported values repr still writes."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck import constructions, floatrepr
from warpcheck.quadrature import grid_blocks


def oracle(block):
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in block.tolist()).encode()


def written(block):
    return b"".join(floatrepr.csv_rows(block))


def assert_like_repr(values):
    """Each value alone on a row, then the values four to a row."""
    values = np.asarray(values, dtype=np.float64).ravel()
    column = values[:, None]
    got, want = written(column).split(b"\n"), oracle(column).split(b"\n")
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]
    rows = values[:values.size // 4 * 4].reshape(-1, 4)
    assert written(rows) == oracle(rows)


def neighbours(values, ulps=2):
    """Each value and the doubles up to ``ulps`` steps either side of it,
    both signs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    near = bits[:, None] + np.arange(-ulps, ulps + 1)
    near = near[(near >= 0) & (near < 0x7FF0000000000000)]
    near = near.view(np.float64)
    return np.concatenate([near, -near])


def test_values_that_set_ryus_trailing_zero_flags():
    k = np.arange(1.0, 1025.0)
    dyadic = (k[:, None] / 2.0 ** np.arange(64)).ravel()       # k / 2^m
    tens = (k[:, None] * 10.0 ** np.arange(16)).ravel()
    twos = (k[:, None] * 2.0 ** np.arange(43)).ravel()
    integers = np.concatenate([tens, twos])
    integers = integers[integers < 2.0 ** 53]
    powers = np.concatenate([2.0 ** np.arange(-1022, 1024),
                             [float(f"1e{e}") for e in range(-307, 309)]])
    assert_like_repr(np.concatenate([dyadic, -dyadic, integers, -integers,
                                     neighbours(powers, 1)]))


def test_repr_notation_switches_and_two_to_the_54():
    assert_like_repr(neighbours([1e-4, 1e-5, 1e15, 1e16, 1e17, 2.0 ** 53,
                                 2.0 ** 54, 2.0 ** 55], ulps=4))


def test_special_values():
    signed_nans = np.array([0x7FF8000000000000, 0x7FF0000000000001,
                            0x7FFFFFFFFFFFFFFF, 0x7FF4000000000123,
                            0xFFF8000000000000, 0xFFF0000000000001,
                            0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    subnormals = np.array([1, 2, 3, 0xFFFFFFFFF, 0x000FFFFFFFFFFFFF,
                           0x0008000000000000], dtype=np.uint64)
    extremes = [0.0, -0.0, np.inf, -np.inf, 1.7976931348623157e308,
                -1.7976931348623157e308, 2.2250738585072014e-308]
    assert_like_repr(np.concatenate([
        signed_nans.view(np.float64), subnormals.view(np.float64),
        -subnormals.view(np.float64), extremes]))


def test_a_million_random_bit_patterns():
    # about half are |x| >= 2^54, NaNs or infinities, which repr writes; repr
    # of a random exponent is slow, so repr on both sides takes most of the
    # test's 2-3 s
    bits = np.random.default_rng(2018).integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
    block = bits.view(np.float64).reshape(-1, 4)
    assert written(block) == oracle(block)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=48))
def test_property_any_bit_pattern(patterns):
    assert_like_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_sub_blocks_of_any_size_join_to_the_same_bytes(monkeypatch):
    block = np.random.default_rng(7).normal(size=(11, 3))
    for rows in (1, 3, 4, 11, 12):
        monkeypatch.setattr(floatrepr, "BLOCK_ROWS", rows)
        chunks = list(floatrepr.csv_rows(block))
        assert len(chunks) == -(-11 // rows)
        assert b"".join(chunks) == oracle(block)


def test_without_short_repr_every_value_goes_to_repr(monkeypatch):
    def refuse(*args):
        raise AssertionError("Ryū's digits are not repr's here")
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    monkeypatch.setattr(floatrepr, "_shortest", refuse)
    block = np.array([[0.1, -0.0, 1e16, np.nan], [5e-324, 2.0 ** 60, 1.5, -2.5]])
    assert written(block) == oracle(block)


@pytest.mark.parametrize("pid", list(constructions.PROFILES))
def test_exported_values_rarely_go_to_repr(pid):
    """At most 0.1% of each export profile's values at 50 000 rows leave the
    vectorized path (at most 7 of 200 000 today), so zeros and ordinary
    values stay on it."""
    reads, build = constructions.PROFILES[pid]
    profile = build(*reads.values())
    slow = total = 0
    for ts in grid_blocks(profile.t0, profile.t1, 50_000):
        bits = np.column_stack((ts, *profile.eval(ts))).ravel().view(np.uint64)
        slow += int(floatrepr._shortest(bits, floatrepr._tables())[2].sum())
        total += bits.size
    assert total == 200_000
    assert slow <= total // 1000
