"""The '%.17g' text of float64 arrays, byte for byte, in numpy.

A value becomes 17 digits this way: |x| is scaled by 10**(16 - E) in
double-double arithmetic (a Dekker two-product against columns of powers
of ten exact to about 2**-106), with E = floor(log10 |x|), and rounded to
the 17-digit integer D.  The scaled value is within 1e-13 of exact, so
every cell further than 1e-9 from a rounding tie rounds as '%.17g' does.
The cells closer to a tie, zero, non-finite values, exponents beyond
_EXP_LIMIT and the cells whose scaled value lies within 16 of 1e16 or
1e17 (where log10 may be one off, or D may carry to 10**17) are
formatted by '%.17g' itself.

``cell_words`` lays each cell out as four little-endian 64-bit words of
ASCII bytes, NUL wherever the text has no byte; ``runner`` deletes the
NULs from the bytes of a chunk of rows with one ``translate``.  No
input makes numpy warn here, so no ``np.errstate`` is needed.  Only the
profile path imports this module, and numpy with it.
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
# By q < 10**4: the digits of q up to its last nonzero one, counted from
# the left of the 16 digits after the first, q being the last four.
_LAST4 = 16 - sum((np.arange(10 ** 4) % 10 ** k == 0) for k in range(1, 5))


# A cell is four little-endian 64-bit words; a byte outside the text is NUL:
#   word 0    '-', the "0.000" before a small number's first digit, that
#             first digit (byte 6) and the '.' after it (byte 7)
#   words 1-2 the other 16 digits, trailing zeros cut
#   word 3    the exponent ("e-05", "e+123") and byte _END for the row's
#             ',' or newline
# In fixed notation with 1 <= E <= 16 the '.' (or, if no fraction is
# shown, its NUL) moves from byte 7 to the byte after digit E.
_END = 8 * 3 + 5
_DOT = ord(".") << 56


def _layout_tables():
    """Lookup tables of the cell layout.

    By row 2 * x + sign bit: word 0 without its first digit.  By x: word
    3 without its row terminator, and the first row of x's class in the
    mask tables.  By class row plus the 16 digits' count up to the last
    nonzero one: the masks of words 0-2.  The classes: exponent notation
    and E = 0 ('.' shown after the first digit if any digit follows),
    -4 <= E < 0 ('.' in the "0.000"), and one class for each E from 1 to
    16 (E digits shown before the '.', which shows only if more follow).
    By E from 1 to 16: the byte order of a cell whose '.' moves.
    """
    upto = [(1 << 8 * n) - 1 for n in range(9)]  # the first n bytes
    head, tail, klass = [], [], []
    for e in range(-_EXP_BIAS, 1 + _EXP_BIAS):
        small, fixed = -4 <= e < 0, 1 <= e <= 16
        text = "0.000"[:1 - e] if small else ""
        word = int.from_bytes(text.encode(), "little") << 8
        word |= ord("0") << 48 | (0 if small else _DOT)
        head += [word, word | ord("-")]
        tail.append(int.from_bytes(
            b"" if -4 <= e <= 16 else f"e{e:+03d}".encode(), "little"))
        klass.append(17 * (1 if small else e + 1 if fixed else 0))
    masks = []
    for c in range(18):
        whole, limit = (0, 0) if c == 0 else (0, 16) if c == 1 else (c - 1,) * 2
        for last in range(17):
            shown = max(last, whole)
            masks.append([upto[8] if last > limit else upto[8] ^ _DOT,
                          upto[min(shown, 8)], upto[max(shown - 8, 0)]])
    order = [list(range(7)) + list(range(8, 8 + e)) + [7]
             + list(range(8 + e, 32)) for e in range(1, 17)]
    u64 = np.uint64
    masks = np.array(masks, u64)
    return {"head": np.array(head, u64), "tail": np.array(tail, u64),
            "class": np.array(klass, np.intp),
            "masks": tuple(np.ascontiguousarray(m) for m in masks.T),
            "order": np.array(order, np.intp)}


_LAYOUT = _layout_tables()


def cell_words(v, end, out):
    """Write the '%.17g' text of every v into ``out``, a (len(v), 4)
    uint64 array, four words a cell, NUL where no text is, with byte _END
    of each cell set to ``end`` (the row's ',' or newline)."""
    t = _LAYOUT
    d, x, fallback = decimal(v)
    first = d // 10 ** 16
    d -= first * 10 ** 16
    groups = np.empty((len(d), 4), np.intp)  # 4 digits each
    for i, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        q = d // scale
        groups[:, i] = q
        d -= q * scale
    groups[:, 3] = d
    # Most cells have a nonzero digit among the last four and E < 1: their
    # text is word 0, the 16 digits with the trailing zeros of the last
    # four cut, and word 3.
    odd = (groups[:, 3] == 0) | (x > _EXP_BIAS)
    groups[:, 3] += 10 ** 4
    out[:, 0] = t["head"][2 * x + np.signbit(v)] | first << 48
    digits = _ASCII4[groups].view(np.uint64)
    out[:, 1] = digits[:, 0]  # one column at a time: out's rows are apart
    out[:, 2] = digits[:, 1]
    out[:, 3] = t["tail"][x] | end << 8 * (_END % 8)
    if odd.any():
        _mask_odd_cells(out, odd.nonzero()[0], x, groups)
    if fallback.any():
        bad = fallback.nonzero()[0]
        text = b"".join(("%.17g%c" % (c, end)).encode().ljust(32, b"\0")
                        for c in v[bad].tolist())
        out[bad] = np.frombuffer(text, np.uint64).reshape(-1, 4)


def _mask_odd_cells(out, cells, x, groups):
    """Lay out the given cells in full: the '.' and the digits shown by
    their class and their last nonzero digit, the '.' moved for E in
    1..16."""
    t = _LAYOUT
    g = groups[cells]
    g[:, 3] -= 10 ** 4
    # count back to the last nonzero digit
    last = _LAST4[g[:, 0]] - 12
    for i in (1, 2, 3):
        last = np.where(g[:, i] == 0, last, _LAST4[g[:, i]] + 4 * i - 12)
    row = t["class"][x[cells]] + last
    m0, m1, m2 = (m[row] for m in t["masks"])
    digits = _ASCII4[g].view(np.uint64)
    out[cells, 0] &= m0
    out[cells, 1] = digits[:, 0] & m1
    out[cells, 2] = digits[:, 1] & m2
    moved = cells[row >= 34]
    if moved.size:
        e = x[moved] - _EXP_BIAS - 1
        chars = out[moved].view(np.uint8)
        out[moved] = np.take_along_axis(chars, t["order"][e], 1).view(np.uint64)
