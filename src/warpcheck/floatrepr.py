"""CSV rows of float64 blocks with the exact bytes of ``repr``, from
whole-array work.

``csv_rows`` writes every value as the shortest decimal string that reads
back to the same double: the string ``repr(float(v))`` gives. The digits
come from Ryū (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI
2018) on its common path, computed in uint64 arrays. One table-driven
gather then lays each value out as ``repr`` does. Values off that path are
written by ``repr`` itself: subnormals, infinities, NaNs, |x| >= 2^54 (Ryū's
e2 >= 0 branch), and every value whose products Ryū's trailing-zero test
could flag (its general case).

NumPy wraps array integer arithmetic silently but warns when a scalar
overflows, so every wrapping product here has an array operand. The tables
are built on first use, not at import.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

# rows formatted at once; at 4 columns the temporaries stay under about 2 MB
BLOCK_ROWS = 2048

_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_TEN = np.uint64(10)
_POW5_BITS = 125              # the width of Ryū's 5^i table entries
_EXP_LIMIT = 1023 + 54        # the biased exponent of 2^54

# byte offsets in the 32-byte source row of one value: the sign ('-' or a
# pad byte), '.', '0', 17 digits right-aligned at 3..19, 'e', the exponent's
# sign, two pad bytes, 4 exponent digits, the separator and 3 pad bytes. A
# value repr writes has repr's string in 0..27 instead, padded.
_SIGN, _DOT, _ZERO, _E, _ESIGN, _PAD, _SEP = 0, 1, 2, 20, 21, 22, 28
_ROW = 32
_WIDTH = 25                   # the longest field: -d.ddddddddddddddde-ddd,
# layout modes: decpt -3..16 in fixed notation, then 2 or 3 exponent digits
_MODES = 22
_SLOW = 17 * _MODES           # the layout of a value repr writes
_GATHER = 1024                # values gathered at once


def csv_rows(block):
    """Yield the bytes of ``block``'s rows, ``BLOCK_ROWS`` rows at a time:
    ``"v,...,v\\n"`` per row, each value written as ``repr(float(v))``."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    for i in range(0, len(block), BLOCK_ROWS):
        yield _format(block[i:i + BLOCK_ROWS])


def _format(block):
    """The bytes of ``block``'s rows."""
    if sys.float_repr_style != "short":  # repr is not the shortest here
        return "".join(",".join(map(repr, row)) + "\n"
                       for row in block.tolist()).encode()
    t = _tables()
    key, rows = _source_rows(block, t)
    # each value's field is a gather from its row by its layout; a slice of
    # values at a time keeps the index small
    fields = np.empty((key.size, _WIDTH), dtype=np.uint8)
    for i in range(0, key.size, _GATHER):
        index = np.take(t.layout, key[i:i + _GATHER], axis=0)
        index += np.arange(i * _ROW, (i + len(index)) * _ROW, _ROW)[:, None]
        rows.take(index, out=fields[i:i + _GATHER])
    return fields[fields != 0].tobytes()


def _source_rows(block, t):
    """The layout key and the flat source rows of each value in ``block``."""
    shape = block.shape
    bits = block.reshape(-1).view(np.uint64)
    digits, exp10, slow = _shortest(bits, t)
    length = np.searchsorted(t.pow10, digits, side="right") + 1
    # the decimal point follows digit decpt; repr writes it in place when
    # -4 < decpt <= 16, and else writes d.ddde+XX with 2 or 3 exponent digits
    decpt = length + exp10
    exponent = np.abs(decpt - 1)
    mode = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                    np.where(exponent < 100, 20, 21))
    key = np.where(slow, _SLOW, (length - 1) * _MODES + mode)

    # the 8 little-endian words of each row
    lead, rest = _divmod(digits, 10 ** 16)
    hi8, lo8 = (half.astype(np.intp) for half in _divmod(rest, 10 ** 8))
    words = np.empty(shape + (_ROW // 4,), dtype="<u4")
    words[..., 0] = (0x30302E00 + (lead << 24)
                     + (bits >> np.uint64(63)) * ord("-")).reshape(shape)
    for w, chunk in enumerate((*_divmod(hi8, 10 ** 4), *_divmod(lo8, 10 ** 4)),
                              1):
        words[..., w] = t.quad[chunk].reshape(shape)
    words[..., 5] = np.where(decpt > 0, ord("e") | ord("+") << 8,
                             ord("e") | ord("-") << 8).reshape(shape)
    words[..., 6] = t.quad[exponent].reshape(shape)
    words[..., 7] = ord(",")
    words[:, -1, 7] = ord("\n")
    rows = words.reshape(-1).view(np.uint8)
    if slow.any():
        where = np.flatnonzero(slow)
        text = b"".join(repr(v).encode().ljust(_SEP, b"\0")
                        for v in block.reshape(-1)[where].tolist())
        rows.reshape(-1, _ROW)[where, :_SEP] = \
            np.frombuffer(text, np.uint8).reshape(-1, _SEP)
    return key, rows


def _divmod(x, d):
    """x // d and x % d; NumPy divides by a scalar fast, but takes its
    remainder slowly."""
    quotient = x // d
    return quotient, x - quotient * d


def _mul_shift(m, t0, t1, t2, t3, shift):
    """floor(m T / 2^(64 + shift)) for m < 2^55 and the 125-bit T whose
    32-bit limbs are t0..t3; Ryū's mulShift64 from 32-bit halves."""
    a0 = m & _LO32
    a1 = m >> _32
    # the high words of m (t1 2^32 + t0) and of m (t3 2^32 + t2)
    high0 = _high(a0, a1, t0, t1)
    high1 = _high(a0, a1, t2, t3)
    low1 = m * ((t3 << _32) | t2)
    total = high0 + low1
    high1 += total < high0
    return (total >> shift) | (high1 << (np.uint64(64) - shift))


def _high(a0, a1, b0, b1):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), each half below
    2^32."""
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def _shortest(bits, t):
    """Ryū's shortest decimal digits and exponent of each double, and a
    mask of the values its common path cannot write. ±0.0 reads 0 and 0;
    the digits of a masked value are meaningless but in range."""
    biased = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.intp)
    fraction = bits & np.uint64((1 << 52) - 1)
    mv = (fraction | np.uint64(1 << 52)) << np.uint64(2)
    zero = (bits << np.uint64(1)) == 0
    slow = ((mv & t.tz_mask[biased]) == 0) | (biased == 0) \
        | (biased >= _EXP_LIMIT)
    slow &= ~zero
    # the interval's lower end is mv - 2, or mv - 1 at a power of 2 above
    # the smallest normal, where the gap below is half the gap above
    mm_shift = (fraction != 0) | (biased <= 1)
    limbs = [limb[biased] for limb in t.pow5]
    shift = t.shift[biased]
    vr = _mul_shift(mv, *limbs, shift)
    vp = _mul_shift(mv + np.uint64(2), *limbs, shift)
    vm = _mul_shift(mv - np.uint64(1) - mm_shift, *limbs, shift)

    # Ryū's common case: drop digits while vp and vm still differ above
    # them, then round on the last digit dropped. On this path 5^i / 10^q
    # >= 10, so vp - vm >= 30 and the first digit always goes
    removed = np.ones(bits.size, dtype=np.intp)
    vr, last = _divmod(vr, _TEN)
    vp //= _TEN
    vm //= _TEN
    active = np.flatnonzero(vp // _TEN > vm // _TEN)
    while active.size:
        r, p, m = vr[active], vp[active] // _TEN, vm[active] // _TEN
        vr[active], last[active] = _divmod(r, _TEN)
        vp[active], vm[active] = p, m
        removed[active] += 1
        active = active[p // _TEN > m // _TEN]
    digits = vr + ((vr == vm) | (last >= 5))
    exp10 = t.e10[biased] + removed
    digits[zero] = 0
    exp10[zero] = 0
    return digits, exp10, slow


@lru_cache(maxsize=None)
def _tables():
    """Ryū's constants per biased exponent, and the layout tables.

    A normal double with biased exponent b is mv 2^e2, with mv = 4 m2 for
    its 53-bit significand m2 and e2 = b - 1077 < 0 for b in 1..1076. Then
    q = max(0, floor(-e2 log10 5) - 1), i = -e2 - q, and the digits are
    floor(mv 5^i / 2^q) over 10^(q + e2). Other exponents get the constants
    of b = 1023, so the arithmetic of a value repr writes stays in range.
    """
    # Ryū's DOUBLE_POW5_SPLIT[i] as 32-bit limbs, and its shift k
    split, width, power = [], [], 1
    for _ in range(326):
        k = power.bit_length() - _POW5_BITS
        cut = power >> k if k >= 0 else power << -k
        split.append([cut >> s & 0xFFFFFFFF for s in (0, 32, 64, 96)])
        width.append(k)
        power *= 5
    e2 = np.arange(2048) - 1077
    e2[(e2 < -1076) | (e2 >= 0)] = 1023 - 1077
    q = np.maximum(0, (-e2 * 732923 >> 20) - 1)
    i = -e2 - q
    k = np.array(width)[i]
    split = np.array(split, dtype=np.uint64)[i]
    # Ryū flags vr as trailing zeros when q <= 1 or 2^q divides mv; testing
    # 2^(q - 1) is conservative, and from q = 56 none divides mv < 2^55
    tz_mask = np.where(q <= 1, 0, (np.uint64(1) << np.minimum(q - 1, 63)
                                   .astype(np.uint64)) - np.uint64(1))
    digits = np.arange(10 ** 4)
    quad = sum((digits // 10 ** (3 - k) % 10 + ord("0")) << 8 * k
               for k in range(4)).astype("<u4")
    layout = []
    for size in range(1, 18):
        d = list(range(20 - size, 20))
        for mode in range(_MODES):
            decpt = mode - 3
            if mode >= 20:                        # d.ddde+XX, d.ddde+XXX
                field = [d[0]] + ([_DOT] + d[1:] if size > 1 else []) \
                    + [_E, _ESIGN] + list(range(46 - mode, 28))
            elif decpt <= 0:                      # 0.000ddd
                field = [_ZERO, _DOT] + [_ZERO] * -decpt + d
            elif decpt < size:                    # dd.ddd
                field = d[:decpt] + [_DOT] + d[decpt:]
            else:                                 # ddd00.0
                field = d + [_ZERO] * (decpt - size) + [_DOT, _ZERO]
            layout.append([_SIGN, *field, _SEP]
                          + [_PAD] * (_WIDTH - 2 - len(field)))
    layout.append([*range(_WIDTH - 1), _SEP])     # _SLOW
    return SimpleNamespace(pow5=list(np.ascontiguousarray(split.T)),
                           shift=(q - k - 64).astype(np.uint64), e10=q + e2,
                           tz_mask=tz_mask, quad=quad,
                           layout=np.array(layout, dtype=np.intp),
                           pow10=10 ** np.arange(1, 18, dtype=np.uint64))
