"""``floatrepr.csv_rows`` against its oracle, ``repr``: the inputs that
steer Ryū off its common path or switch repr's notation, special values,
random bit patterns, and the share of exported values repr still writes."""
import collections
import struct
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


def written(*blocks):
    return b"".join(floatrepr.csv_rows(blocks))


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


def ryu(x):
    """For a double on Ryū's common path, in Python integers: the product
    mv T, the 2T added for vp and the (1 + mmShift) T subtracted for vm,
    and the number of digits the shortest decimal drops from
    floor(mv T / 2^(64 + s)). None for a double off that path."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    biased, fraction = bits >> 52 & 0x7FF, bits & (1 << 52) - 1
    mv = (fraction | 1 << 52) << 2
    e2 = biased - 1077
    q = max(0, (-e2 * 732923 >> 20) - 1)
    if not 0 < biased < 1077 or q <= 1 or mv % (1 << q - 1) == 0:
        return None
    five = 5 ** (-e2 - q)
    k = five.bit_length() - 125
    t = five >> k if k >= 0 else five << -k
    product = mv * t
    kept = repr(abs(x)).split("e")[0].replace(".", "").strip("0")
    dropped = len(str(product >> q - k)) - len(kept)
    return product, 2 * t, t if fraction == 0 and biased > 1 else 2 * t, \
        dropped


def test_digit_removals_carries_and_borrows_match_repr():
    # random significands from 2^-1000 to 2^53, and decimals of 1 to 17
    # significant digits, which make Ryū drop from 1 to 16 digits
    rng = np.random.default_rng(38)
    spread = rng.random(4000) * 2.0 ** rng.integers(-1000, 53, 4000)
    sizes = rng.integers(1, 18, 4000)
    decimals = np.array([float(f"{rng.integers(10 ** (k - 1), 10 ** k)}"
                               f"e{rng.integers(-300, 16 - k)}")
                         for k in sizes])
    values = np.concatenate([spread, -decimals, decimals])
    seen = collections.Counter()
    low, middle = 1 << 64, 1 << 128
    for x in values.tolist():
        parts = ryu(x)
        if parts is None:
            continue
        product, up, down, dropped = parts
        seen[min(dropped, 3)] += 1
        seen["carry out of w0"] += product % low + up % low >= low
        seen["carry into w2"] += product % middle + up >= middle
        seen["borrow from w1"] += product % low < down % low
        seen["borrow from w2"] += product % middle < down
    assert min(seen.values()) >= 50 and len(seen) == 7, seen
    assert_like_repr(values)


def test_power_of_two_significands_subtract_t_for_vm():
    # mmShift = 0: the gap below 2^k is half the gap above it; only
    # 2^k <= 2^-28 reach the common path, the others set Ryū's trailing-zero
    # flags. The least normal keeps mmShift = 1
    powers = 2.0 ** np.arange(-1022, 54)
    fast = [x for x in powers.tolist() if ryu(x) is not None]
    assert len(fast) > 900 and max(fast) == 2.0 ** -28
    for x in fast:
        _, up, down, _ = ryu(x)
        assert down == (up if x == 2.0 ** -1022 else up // 2)
    assert_like_repr(neighbours(powers, 1))


@pytest.mark.parametrize("last_rows", [1, 3])
def test_one_workspace_serves_blocks_of_mixed_sizes_and_contents(
        monkeypatch, last_rows):
    # values repr writes, then ordinary ones in the same rows of the
    # workspace; sub-blocks of 4 rows, and a last block of 1 or 3 rows
    monkeypatch.setattr(floatrepr, "BLOCK_ROWS", 4)
    rng = np.random.default_rng(last_rows)
    special = np.array([[np.nan, 5e-324, -0.0, np.inf],
                        [2.0 ** 60, -1e-310, 0.0, 0.5],
                        [1e-5, 1e16, -1e22, 2.0 ** -1074]])
    ordinary = rng.normal(size=(9, 4)) * 10.0 ** rng.integers(-8, 8, (9, 4))
    last = np.full((last_rows, 4), 0.15)
    blocks = [special, ordinary, special[:1], last]
    expected = oracle(np.concatenate(blocks))
    assert written(*blocks) == expected

    def refilled():  # one buffer, refilled for each block
        buffer = np.empty((9, 4))
        for block in blocks:
            buffer[:len(block)] = block
            yield buffer[:len(block)]

    assert b"".join(floatrepr.csv_rows(refilled())) == expected
    # a block of another width gets a workspace of its own
    narrow = ordinary[:, :3]
    assert written(special, narrow, last) == oracle(special) \
        + oracle(narrow) + oracle(last)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=48))
def test_property_any_bit_pattern(patterns):
    assert_like_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_sub_blocks_of_any_size_join_to_the_same_bytes(monkeypatch):
    block = np.random.default_rng(7).normal(size=(11, 3))
    for rows in (1, 3, 4, 11, 12):
        monkeypatch.setattr(floatrepr, "BLOCK_ROWS", rows)
        chunks = list(floatrepr.csv_rows([block]))
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
    work = floatrepr._workspace(floatrepr.BLOCK_ROWS, 4)
    for ts in grid_blocks(profile.t0, profile.t1, 50_000):
        block = np.column_stack((ts, *profile.eval(ts)))
        for i in range(0, len(block), floatrepr.BLOCK_ROWS):
            bits = block[i:i + floatrepr.BLOCK_ROWS].ravel().view(np.uint64)
            _, _, masked = floatrepr._shortest(bits, floatrepr._tables(), work)
            slow += int(masked.sum())
            total += bits.size
    assert total == 200_000
    assert slow <= total // 1000
