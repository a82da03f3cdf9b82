"""CSV rows of float64 blocks with the exact bytes of ``repr``, from
whole-array work.

``csv_rows`` writes every value as the shortest decimal string that reads
back to the same double: the string ``repr(float(v))`` gives. The digits
come from Ryū (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI
2018) on its common path, computed in uint64 arrays: one 192-bit product
per value, from which Ryū's interval ends follow by an addition and a
subtraction. One table-driven gather then lays each value out as ``repr``
does. Values off that path are
written by ``repr`` itself: subnormals, infinities, NaNs, |x| >= 2^54 (Ryū's
e2 >= 0 branch), and every value whose products Ryū's trailing-zero test
could flag (its general case).

Every array a block needs lives in one workspace per ``csv_rows`` call,
and each step writes into it with ``out=`` or in place, so a block after
the first allocates nothing the size of the block but its output. Every
table index is in range by construction, so each ``take`` uses
``mode="clip"``, which writes to ``out`` without a buffer. NumPy wraps
array integer arithmetic silently but warns when a scalar overflows, so
every wrapping product here has an array operand. The tables and the
workspace are built on first use, not at import.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

# rows formatted at once; at 4 columns the workspace takes about 0.8 MB,
# which an export holds while it evaluates the next grid block
BLOCK_ROWS = 1024

_LO32 = np.uint64(0xFFFFFFFF)
_TEN = np.uint64(10)
_POW5_BITS = 125              # the width of Ryū's 5^i table entries
_EXP_LIMIT = 1023 + 54        # the biased exponent of 2^54

# byte offsets in the 32-byte source row of one value: 'e', the exponent's
# sign, two pad bytes and 4 exponent digits, then the sign ('-' or a pad
# byte), '.', '0', 17 digits right-aligned at 11..27, and the separator
# with 3 pad bytes. A value repr writes has repr's string in 0..27 instead,
# padded.
_E, _ESIGN, _PAD, _SIGN, _DOT, _ZERO, _SEP = 0, 1, 2, 8, 9, 10, 28
_ROW = 32
_WIDTH = 25                   # the longest field: -d.ddddddddddddddde-ddd,
# layout modes: decpt -3..16 in fixed notation, then 2 or 3 exponent digits
_MODES = 22
_SLOW = 17 * _MODES           # the layout of a value repr writes
_DECPT_MIN = -330             # below the least decpt of a normal double
_DECPTS = 360                 # decpt -330..29, beyond 2^54's 17
_GATHER = 512                 # values gathered at once
_ROWS = 4096                  # Ryū's table rows, 2 per biased exponent


def csv_rows(blocks):
    """Yield the bytes of the rows of each 2-d array in ``blocks``,
    ``BLOCK_ROWS`` rows at a time: ``"v,...,v\\n"`` per row, each value
    written as ``repr(float(v))``.

    One workspace serves every block, so each block is read before the
    next is drawn and may be a buffer its producer refills.
    """
    work = None
    for block in blocks:
        block = np.ascontiguousarray(block, dtype=np.float64)
        for i in range(0, len(block), BLOCK_ROWS):
            rows = block[i:i + BLOCK_ROWS]
            if sys.float_repr_style != "short":  # repr is not the shortest
                yield "".join(",".join(map(repr, row)) + "\n"
                              for row in rows.tolist()).encode()
                continue
            if work is None or work.cols != rows.shape[1] \
                    or work.size < rows.size:
                work = _workspace(BLOCK_ROWS, rows.shape[1])
            yield _format(rows, _tables(), work)


def _workspace(rows, cols):
    """The arrays that formatting ``rows`` rows of ``cols`` values needs;
    each separator is written here once."""
    size = rows * cols
    words = np.zeros((size, _ROW // 4), dtype="<u4")
    words[:, _SEP // 4] = ord(",")
    words[cols - 1::cols, _SEP // 4] = ord("\n")
    return SimpleNamespace(
        cols=cols, size=size, words=words,
        u=np.empty((12, size), dtype=np.uint64),
        flags=np.empty((3, size), dtype=bool),
        key=np.empty(size, dtype=np.intp),
        # the byte offset of each row of a gather slice from its first
        offset=np.repeat(np.arange(0, _GATHER * _ROW, _ROW), _WIDTH)
        .reshape(_GATHER, _WIDTH),
        index=np.empty((_GATHER, _WIDTH), dtype=np.intp),
        fields=np.empty((_GATHER, _WIDTH), dtype=np.uint8),
        keep=np.empty((_GATHER, _WIDTH), dtype=bool))


def _format(block, t, w):
    """The bytes of ``block``'s rows."""
    n = block.size
    key = _source_rows(block, t, w)
    # each value's field is a gather from its row by its layout, and the
    # pad bytes are dropped; a slice of values at a time keeps the
    # index small
    rows = w.words[:n].reshape(-1).view(np.uint8)
    pieces = []
    for i in range(0, n, _GATHER):
        j = min(i + _GATHER, n)
        index, fields = w.index[:j - i], w.fields[:j - i]
        t.layout.take(key[i:j], axis=0, out=index, mode="clip")
        index += w.offset[:j - i]
        rows[i * _ROW:].take(index, out=fields, mode="clip")
        pieces.append(fields[np.not_equal(fields, 0, out=w.keep[:j - i])])
    return b"".join(pieces)


def _source_rows(block, t, w):
    """Fill the source row of each value of ``block`` and return its
    layout key."""
    n = block.size
    bits = block.reshape(-1).view(np.uint64)
    digits, ex, slow = _shortest(bits, t, w)
    lead, rest, hi8, lo8, chunk, high = w.u[:6, :n]
    words = w.words[:n]
    # the number of digits less one; with ex it picks the layout and the
    # exponent, ex + length - 1 being decpt - _DECPT_MIN
    length = t.pow10[1:].searchsorted(digits, side="right")
    np.add(ex, length, out=ex)
    t.exponent.take(ex, out=words.view(np.uint64)[:, 0], mode="clip")
    length *= _DECPTS
    length += ex
    key = t.key.take(length, out=w.key[:n], mode="clip")
    np.putmask(key, slow, _SLOW)

    # the sign, '.', '0' and the lead digit, then 4 digits a word
    np.floor_divide(digits, 10 ** 16, out=lead)
    _remainder(digits, lead, 10 ** 16, rest)
    np.right_shift(bits, 63, out=high)
    high *= ord("-")
    np.left_shift(lead, 24, out=lead)
    lead += high
    lead += 0x30302E00
    words[:, _SIGN // 4] = lead
    np.floor_divide(rest, 10 ** 8, out=hi8)
    _remainder(rest, hi8, 10 ** 8, lo8)
    for word, part in ((_SIGN // 4 + 1, hi8), (_SIGN // 4 + 3, lo8)):
        np.floor_divide(part, 10 ** 4, out=high)
        _remainder(part, high, 10 ** 4, chunk)
        t.quad.take(high.view(np.intp), out=words[:, word], mode="clip")
        t.quad.take(chunk.view(np.intp), out=words[:, word + 1],
                    mode="clip")
    if slow.any():
        where = np.flatnonzero(slow)
        text = b"".join(repr(v).encode().ljust(_SEP, b"\0")
                        for v in block.reshape(-1)[where].tolist())
        words.view(np.uint8)[where, :_SEP] = \
            np.frombuffer(text, np.uint8).reshape(-1, _SEP)
    return key


def _remainder(x, quotient, d, out):
    """x - quotient d into ``out``: NumPy divides by a scalar fast, but
    takes its remainder slowly."""
    np.multiply(quotient, d, out=out)
    np.subtract(x, out, out=out)


def _high(a0, a1, b, out, p, q, r):
    """The high 64 bits of (a1 2^32 + a0) b into ``out``, for a0 < 2^32 and
    a1 < 2^23, with scratch p, q, r."""
    np.bitwise_and(b, _LO32, out=r)
    np.multiply(a0, r, out=p)              # a0 b0
    np.multiply(a1, r, out=r)              # a1 b0 < 2^55
    np.right_shift(b, 32, out=out)
    np.multiply(a0, out, out=q)            # a0 b1
    np.multiply(a1, out, out=out)          # a1 b1
    # the carry of the middle word: a1 b0 + low(a0 b1) + high(a0 b0)
    np.right_shift(p, 32, out=p)
    r += p
    np.bitwise_and(q, _LO32, out=p)
    r += p
    np.right_shift(r, 32, out=r)
    np.right_shift(q, 32, out=q)
    out += q
    out += r


def _shift_right(mid, high, s, s_complement, out):
    """floor((high 2^64 + mid) / 2^s) into ``out``, for s in 1..63 and
    s_complement = 64 - s; ``high`` is overwritten."""
    np.right_shift(mid, s, out=out)
    np.left_shift(high, s_complement, out=high)
    out |= high


def _shortest(bits, t, w):
    """Ryū's shortest digits of each double, their exponent, and a mask of
    the values its common path cannot write: ``(digits, ex, slow)``, views
    into ``w``. The double is digits 10^e with ex = e + 1 - ``_DECPT_MIN``;
    ±0.0 reads digits 0 and e = 0. The digits of a masked value are
    meaningless but in range."""
    n = bits.size
    row, w0, w1, w2, vp, vm, p, r, mv, a0, a1, q = w.u[:, :n]
    vr, shift, last = mv, a0, a1  # each free by the time it is written
    slow, flag, round_up = w.flags[:, :n]
    # one table row per biased exponent and zero or nonzero fraction
    np.bitwise_and(bits, (1 << 52) - 1, out=mv)
    np.equal(mv, 0, out=flag)
    np.right_shift(bits, 51, out=row)
    np.bitwise_and(row, 0xFFE, out=row)
    np.bitwise_or(row, flag, out=row)
    ix = row.view(np.intp)
    np.bitwise_or(mv, 1 << 52, out=mv)
    np.left_shift(mv, 2, out=mv)
    t.tz_mask.take(ix, out=p, mode="clip")
    p &= mv
    np.equal(p, 0, out=slow)

    # w2 w1 w0 = mv T, 192 bits; T = T1 2^64 + T0 < 2^125, mv < 2^55
    np.bitwise_and(mv, _LO32, out=a0)
    np.right_shift(mv, 32, out=a1)
    t.pow5[0].take(ix, out=vm, mode="clip")
    np.multiply(mv, vm, out=w0)
    _high(a0, a1, vm, w1, p, q, r)
    t.pow5[1].take(ix, out=vm, mode="clip")
    np.multiply(mv, vm, out=vp)
    _high(a0, a1, vm, w2, p, q, r)
    w1 += vp
    np.less(w1, vp, out=flag)
    w2 += flag
    # vr = floor(mv T / 2^(64 + s)); vp and vm are the same of (mv + 2) T
    # and (mv - 1 - mmShift) T, got by adding 2T to the product and
    # subtracting (1 + mmShift) T from it, with explicit carries
    t.shift.take(ix, out=shift, mode="clip")
    t.unshift.take(ix, out=last, mode="clip")
    t.up[0].take(ix, out=p, mode="clip")        # 2T, its low word
    t.up[1].take(ix, out=q, mode="clip")        # and its high word, < 2^62
    np.add(w0, p, out=r)
    np.less(r, p, out=flag)                     # the carry out of w0
    q += flag
    np.add(w1, q, out=r)
    np.less(r, q, out=flag)                     # the carry into w2
    np.add(w2, flag, out=p)
    _shift_right(r, p, shift, last, vp)
    t.down[0].take(ix, out=p, mode="clip")      # (1 + mmShift) T
    t.down[1].take(ix, out=q, mode="clip")
    np.less(w0, p, out=flag)                    # the borrow from w1
    q += flag
    np.subtract(w1, q, out=r)
    np.less(w1, q, out=flag)                    # the borrow from w2
    np.subtract(w2, flag, out=p)
    _shift_right(r, p, shift, last, vm)
    _shift_right(w1, w2, shift, last, vr)

    # Ryū's common case: drop digits while vp and vm still differ above
    # them, then round on the last digit dropped. On this path 5^i / 10^q
    # >= 10, so vp - vm >= 30 and the first digit always goes
    ex = t.e10.take(ix, out=shift.view(np.intp), mode="clip")
    np.floor_divide(vr, _TEN, out=q)
    _remainder(vr, q, _TEN, last)
    vr, q = q, vr
    np.floor_divide(vp, _TEN, out=vp)
    np.floor_divide(vm, _TEN, out=vm)
    # most values lose a second digit: drop it on whole arrays. Where p <= r
    # the loop has stopped, and p // 10 <= r // 10 stops it again below
    np.floor_divide(vp, _TEN, out=p)
    np.floor_divide(vm, _TEN, out=r)
    np.greater(p, r, out=flag)
    ex += flag
    np.putmask(vm, flag, r)
    np.floor_divide(vr, _TEN, out=vp)
    _remainder(vr, vp, _TEN, q)
    np.putmask(vr, flag, vp)
    np.putmask(last, flag, q)
    # the rest lose a third or more: count them on those values, then
    # divide each once
    np.floor_divide(p, _TEN, out=p)
    np.floor_divide(r, _TEN, out=r)
    np.greater(p, r, out=flag)
    if flag.any():
        active = np.flatnonzero(flag)
        hi, lo = p[active], r[active]
        count = np.ones(active.size, dtype=np.intp)
        more = np.empty(active.size, dtype=bool)
        while True:
            hi //= _TEN
            lo //= _TEN
            np.greater(hi, lo, out=more)
            if not more.any():
                break
            count += more
        ex[active] += count
        kept = vr[active] // t.pow10[count - 1]
        hi = kept // _TEN
        last[active] = kept - hi * _TEN
        vr[active] = hi
        vm[active] //= t.pow10[count]
    # round up on the last digit dropped, or when vr is vm itself
    np.equal(vr, vm, out=flag)
    np.greater_equal(last, 5, out=round_up)
    flag |= round_up
    vr += flag
    return vr, ex, slow


@lru_cache(maxsize=None)
def _tables():
    """Ryū's constants per table row, and the layout tables.

    A normal double with biased exponent b is mv 2^e2, with mv = 4 m2 for
    its 53-bit significand m2 and e2 = b - 1077 < 0 for b in 1..1076. Then
    q = max(0, floor(-e2 log10 5) - 1), i = -e2 - q, and the digits are
    floor(mv 5^i / 2^q) over 10^(q + e2). Row 2b + z serves the doubles of
    biased exponent b whose fraction is zero (z = 1) or not (z = 0); they
    differ in mmShift. Other exponents get the constants of b = 1023, so
    the arithmetic of a value repr writes stays in range.
    """
    # Ryū's DOUBLE_POW5_SPLIT[i] as 64-bit words, and its shift k
    split, width, power = [], [], 1
    for _ in range(326):
        k = power.bit_length() - _POW5_BITS
        cut = power >> k if k >= 0 else power << -k
        split.append([cut & (1 << 64) - 1, cut >> 64])
        width.append(k)
        power *= 5
    b = np.arange(2048)
    e2 = b - 1077
    e2[(e2 < -1076) | (e2 >= 0)] = 1023 - 1077
    q = np.maximum(0, (-e2 * 732923 >> 20) - 1)
    i = -e2 - q
    shift = q - np.array(width)[i] - 64
    t0, t1 = np.array(split, dtype=np.uint64)[i].T
    # Ryū flags vr as trailing zeros when q <= 1 or 2^q divides mv; testing
    # 2^(q - 1) is conservative, and from q = 56 none divides mv < 2^55
    tz_mask = np.where(q <= 1, 0, (np.uint64(1) << np.minimum(q - 1, 63)
                                   .astype(np.uint64)) - np.uint64(1))
    tz_mask[(b == 0) | (b >= _EXP_LIMIT)] = 0
    # 2T, and (1 + mmShift) T: T where the fraction is zero and b > 1
    u0, u1 = t0 << np.uint64(1), (t1 << np.uint64(1)) | (t0 >> np.uint64(63))
    t0, t1, u0, u1, tz_mask, shift = (np.repeat(x, 2) for x in (
        t0, t1, u0, u1, tz_mask, shift.astype(np.uint64)))
    power2 = (np.arange(_ROWS) % 2 == 1) & (np.arange(_ROWS) >= 4)
    d0, d1 = np.where(power2, t0, u0), np.where(power2, t1, u1)
    # ex of the last digit, q + e2, with the first digit dropped
    e10 = np.repeat(q + e2 + 2 - _DECPT_MIN, 2)
    # row 1, ±0.0: T = 0 and a vm apart from vr make its digits 0, e = 0
    for table in (t0, t1, u0, u1, d1):
        table[1] = 0
    d0[1], tz_mask[1], e10[1] = 1, ~np.uint64(0), 1 - _DECPT_MIN

    digits = np.arange(10 ** 4)
    quad = sum((digits // 10 ** (3 - k) % 10 + ord("0")) << 8 * k
               for k in range(4)).astype("<u4")
    decpt = np.arange(_DECPTS) + _DECPT_MIN
    exponent = (ord("e") | np.where(decpt > 0, ord("+"), ord("-")) << 8
                | quad[np.abs(decpt - 1)].astype(np.int64) << 32)
    mode = np.where((decpt > -4) & (decpt <= 16), decpt + 3,
                    np.where(np.abs(decpt - 1) < 100, 20, 21))
    layout = []
    for size in range(1, 18):
        d = list(range(28 - size, 28))
        for m in range(_MODES):
            decpt_m = m - 3
            if m >= 20:                           # d.ddde+XX, d.ddde+XXX
                field = [d[0]] + ([_DOT] + d[1:] if size > 1 else []) \
                    + [_E, _ESIGN] + list(range(26 - m, 8))
            elif decpt_m <= 0:                    # 0.000ddd
                field = [_ZERO, _DOT] + [_ZERO] * -decpt_m + d
            elif decpt_m < size:                  # dd.ddd
                field = d[:decpt_m] + [_DOT] + d[decpt_m:]
            else:                                 # ddd00.0
                field = d + [_ZERO] * (decpt_m - size) + [_DOT, _ZERO]
            layout.append([_SIGN, *field, _SEP]
                          + [_PAD] * (_WIDTH - 2 - len(field)))
    layout.append([*range(_WIDTH - 1), _SEP])     # _SLOW
    return SimpleNamespace(
        pow5=(t0, t1), up=(u0, u1), down=(d0, d1), tz_mask=tz_mask,
        shift=shift, unshift=np.uint64(64) - shift, e10=e10, quad=quad,
        exponent=exponent.astype(np.uint64),
        key=(np.arange(17)[:, None] * _MODES + mode).ravel(),
        layout=np.array(layout, dtype=np.intp),
        pow10=10 ** np.arange(18, dtype=np.uint64))
