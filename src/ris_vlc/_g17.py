"""The '%.17g' text of float64 arrays, byte for byte, in numpy.

A value becomes 17 digits this way: |x| is scaled by 10**(16 - E) in
double-double arithmetic (a Dekker two-product against columns of powers
of ten exact to about 2**-106), with E = floor(log10 |x|), and rounded to
the 17-digit integer D.  The scaled value is within 1e-13 of exact, so
every cell further than 1e-9 from a rounding tie rounds as '%.17g' does.

``cell_words`` lays out one kind of cell: E <= 0 and a nonzero digit
among the last four of D.  Its text is the sign, the first digit with
"0.000" before it (-4 <= E < 0) or '.' after it, the other 16 digits up
to the last nonzero one, and the exponent if E < -4.  It writes it as
four little-endian 64-bit words of ASCII bytes, NUL wherever the text
has no byte; ``runner`` deletes the NULs from the bytes of a chunk of
rows with one ``translate``.  '%.17g' itself formats every other cell:
|x| >= 10, D ending in 0000, zero, non-finite values, exponents beyond
_EXP_LIMIT, cells closer to a tie, and cells whose scaled value lies
within 16 of 1e16 or 1e17 (where log10 may be one off, or D may carry
to 10**17).  No input makes numpy warn here, so no ``np.errstate`` is
needed.  Only the profile path imports this module, and numpy with it.
"""

from __future__ import annotations

import numpy as np

# Decimal exponents E that numpy formats.  Up to |E| = _EXP_LIMIT the
# power 10**(16 - E), |x| and every Dekker partial product are normal
# doubles.
_EXP_LIMIT = 280
# |x| is first clamped to [1e-_EXP_BIAS, 1e_EXP_BIAS], so E + _EXP_BIAS is
# a row of every table here.
_EXP_BIAS = 290

# Veltkamp's splitting constant 2**27 + 1: a * _SPLIT separates the upper
# 26 significand bits of a from the lower 27.
_SPLIT = 134217729.0
# Keeps the sign, the exponent and the upper 26 significand bits of a
# double: a & _HEAD is a's head, and a minus it the 27-bit tail, exact.
_HEAD = np.uint64(2 ** 64 - 2 ** 27)


def _split(a):
    """Veltkamp split: a == head + tail, each at most 26 significant bits."""
    c = a * _SPLIT
    head = c - (c - a)
    return head, a - head


def _pow10_columns():
    """Columns hi, hi_head, hi_tail, lo of 10**(16 - E), each indexed by
    E + _EXP_BIAS; zero where |E| > _EXP_LIMIT.

    hi is 10**k correctly rounded and lo the correctly rounded remainder,
    so hi + lo is 10**k to about 2**-106 relative.  Both come from exact
    integers: int -> float and int / int round correctly.
    """
    his, los = [], []
    for k in range(16 + _EXP_BIAS, 15 - _EXP_BIAS, -1):
        if abs(16 - k) > _EXP_LIMIT:
            hi = lo = 0.0
        elif k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            scale = 10 ** -k
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    return (hi, *_split(hi), np.array(los))


_POW10 = _pow10_columns()


def decimal(v):
    """|v| rounded to 17 significant digits as d * 10**(x - _EXP_BIAS - 16).

    Returns (d, x, fallback) with 10**16 <= d < 10**17 (uint64) wherever
    ``fallback`` is False; x is the decimal exponent E plus _EXP_BIAS, a
    row of the tables here.  ``fallback`` flags the cells that numpy
    leaves to '%.17g' itself: zero, non-finite, outside the table's
    exponents, next to a decade edge or within 1e-9 of a rounding tie
    (which '%.17g' breaks to even).
    """
    # Zero, subnormal and non-finite values are moved to 1e-290 or 1e290
    # and, like every value beyond the exponents of _EXP_LIMIT, scale to
    # hi = 0 or hi outside [1e16, 1e17); the arithmetic stays finite and
    # raises no floating-point warning.
    a = np.abs(v)
    np.fmax(a, 10.0 ** -_EXP_BIAS, out=a)  # nan too
    np.fmin(a, 10.0 ** _EXP_BIAS, out=a)
    e = np.log10(a)
    e += _EXP_BIAS
    x = e.astype(np.intp)  # floor(e), or 0 for e a hair below 0
    hi_k, head_k, tail_k, lo_k = (c[x] for c in _POW10)
    # a * (hi_k + lo_k) as hi + lo: a Dekker two-product plus a * lo_k.
    # Every partial product is exact: 26 or 27 bits times 26.
    head = (a.view(np.uint64) & _HEAD).view(np.float64)
    tail = a - head
    p = a * hi_k
    t = head * head_k
    t -= p
    head *= tail_k
    t += head
    tail_k *= tail
    tail *= head_k
    t += tail
    t += tail_k
    lo_k *= a
    t += lo_k
    hi = p + t
    p -= hi
    lo = p
    lo += t  # t - (hi - p)
    # Outside (1e16, 1e17 - 16) log10 may have been one off or D may
    # carry to 10**17.
    fallback = (hi <= 1e16) | (hi >= 1e17 - 16)
    np.putmask(hi, fallback, 1e16)  # any digits that index the tables
    # hi is an integer (its ulp is 2 or more), so the rounding is lo's,
    # half up; a tie within 1e-9 shows as a fraction below 2e-9.
    lo += 0.5 + 1e-9
    up = np.floor(lo)
    lo -= up
    fallback |= lo < 2e-9
    d = hi.astype(np.int64)
    d += up.astype(np.int64)
    return d.view(np.uint64), x, fallback


def _ascii4_table():
    """Row q < 10**4: the 4 ASCII digits of q, first digit in the lowest
    byte; row 10**4 + q: the same with q's trailing zeros NUL."""
    q = np.arange(10 ** 4, dtype=np.uint32)
    plain = sum((q // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4))
    zeros = sum(q % 10 ** k == 0 for k in range(1, 5))
    kept = np.array([(1 << 8 * n) - 1 for n in range(5)], np.uint32)
    return np.concatenate([plain, plain & kept[4 - zeros]])


_ASCII4 = _ascii4_table()


# A cell is four little-endian 64-bit words; a byte outside the text is NUL:
#   word 0    '-', the "0.000" before a small number's first digit, that
#             first digit (byte 6) and, unless the "0.000" is shown, the
#             '.' after it (byte 7)
#   words 1-2 the other 16 digits, trailing zeros cut
#   word 3    the exponent ("e-05", "e-123") and byte _END for the row's
#             ',' or newline
_END = 8 * 3 + 5


def _layout_tables():
    """Word 0 without its first digit, by row 2 * x + sign bit, and word
    3 without its row terminator, by x.  Cells with E >= 1 go to '%.17g',
    so their rows are never shown."""
    head, tail = [], []
    for e in range(-_EXP_BIAS, 1 + _EXP_BIAS):
        small = -4 <= e < 0
        text = "0.000"[:1 - e] if small else ""
        word = int.from_bytes(text.encode(), "little") << 8
        word |= ord("0") << 48 | (0 if small else ord(".") << 56)
        head += [word, word | ord("-")]
        tail.append(int.from_bytes(
            f"e{e:+03d}".encode() if e < -4 else b"", "little"))
    return np.array(head, np.uint64), np.array(tail, np.uint64)


_HEADS, _TAILS = _layout_tables()


def cell_words(v, end, out):
    """Write the '%.17g' text of every v into ``out``, a (len(v), 4)
    uint64 array, four words a cell, NUL where no text is, with byte _END
    of each cell set to ``end`` (the row's ',' or newline)."""
    d, x, fallback = decimal(v)
    first = d // 10 ** 16
    d -= first * 10 ** 16
    groups = np.empty((len(d), 4), np.intp)  # 4 digits each
    for i, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        q = d // scale
        groups[:, i] = q
        d -= q * scale
    groups[:, 3] = d
    # A cell with E < 1 and a nonzero digit among the last four is word
    # 0, the 16 digits with the trailing zeros of the last four cut, and
    # word 3; '%.17g' formats every other cell.
    fallback |= (groups[:, 3] == 0) | (x > _EXP_BIAS)
    groups[:, 3] += 10 ** 4
    out[:, 0] = _HEADS[2 * x + np.signbit(v)] | first << 48
    digits = _ASCII4[groups].view(np.uint64)
    out[:, 1] = digits[:, 0]  # one column at a time: out's rows are apart
    out[:, 2] = digits[:, 1]
    out[:, 3] = _TAILS[x] | end << 8 * (_END % 8)
    if fallback.any():
        bad = fallback.nonzero()[0]
        text = b"".join(("%.17g%c" % (c, end)).encode().ljust(32, b"\0")
                        for c in v[bad].tolist())
        out[bad] = np.frombuffer(text, np.uint64).reshape(-1, 4)
