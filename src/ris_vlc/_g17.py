"""The '%.17g' text of float64 arrays, byte for byte, in numpy.

A value becomes 17 digits this way: |x| is scaled by 10**(16 - E) in
double-double arithmetic (a Dekker two-product against a table of powers
of ten exact to about 2**-106), with E from floor(log10 |x|) corrected at
the decade edges, and rounded to the 17-digit integer D.  The scaled value
is within 1e-13 of exact, so every cell further than 1e-9 from a rounding
tie rounds as '%.17g' does.  The cells closer to a tie, zero, non-finite
values and exponents beyond _EXP_LIMIT are flagged for '%.17g' itself.

``cell_words`` lays each cell out as four little-endian 64-bit words of
ASCII bytes, NUL wherever the text has no byte; ``runner._profile_rows``
deletes the NULs from the bytes of a chunk of rows with one
``bytes.translate``.  Only the profile path imports this module, and
numpy with it.
"""

from __future__ import annotations

import numpy as np

# Decimal exponents E that numpy formats.  Up to |E| = _EXP_LIMIT + 1 the
# power 10**(16 - E), |x| and every Dekker partial product are normal
# doubles.
_EXP_LIMIT = 280

# Veltkamp's splitting constant 2**27 + 1: a * _SPLIT separates the upper
# 26 significand bits of a from the lower 27.
_SPLIT = 134217729.0


def _split(a):
    """Veltkamp split: a == head + tail, each at most 26 significant bits."""
    c = a * _SPLIT
    head = c - (c - a)
    return head, a - head


def _pow10_table():
    """Columns hi, hi_head, hi_tail, lo of 10**k for k = 16 - E, row
    1 + _EXP_LIMIT - E for |E| <= _EXP_LIMIT + 1.

    hi is 10**k correctly rounded and lo the correctly rounded remainder,
    so hi + lo is 10**k to about 2**-106 relative.  Both come from exact
    integers: int -> float and int / int round correctly.
    """
    his, los = [], []
    for k in range(15 - _EXP_LIMIT, 18 + _EXP_LIMIT):
        if k >= 0:
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
    return np.stack([hi, *_split(hi), np.array(los)], axis=1)


_POW10 = _pow10_table()


def _scaled(a, e):
    """a * 10**(16 - e) as a double-double (hi, lo): hi + lo is within
    about 1e-14 of the exact product, which lies near [1e16, 1e17)."""
    hi_k, head_k, tail_k, lo_k = np.take(_POW10, 1 + _EXP_LIMIT - e, axis=0).T
    p = a * hi_k
    head, tail = _split(a)
    t = ((head * head_k - p) + head * tail_k + tail * head_k) + tail * tail_k
    t += a * lo_k
    hi = p + t
    return hi, t - (hi - p)


def decimal(v):
    """|v| rounded to 17 significant digits as d * 10**(x - 16).

    Returns (d, x, fallback) with 10**16 <= d < 10**17 (uint64) wherever
    ``fallback`` is False.  ``fallback`` flags the cells that numpy leaves
    to '%.17g' itself: zero, non-finite, outside the table's exponents, or
    within 1e-9 of a rounding tie (which '%.17g' breaks to even).
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fallback = ~(np.abs(e) <= _EXP_LIMIT)
    a[fallback] = 1.0
    e[fallback] = 0.0
    e = e.astype(np.int64)
    hi, lo = _scaled(a, e)
    # log10 may land on the wrong side of a power of ten: rescale the
    # cells where hi + lo is outside [1e16, 1e17).
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    h, l = hi[edge], lo[edge]
    step = ((h > 1e17) | (h == 1e17) & (l >= 0)).astype(np.int64)
    step -= (h < 1e16) | (h == 1e16) & (l < 0)
    moved = edge[step != 0]
    if moved.size:
        e[moved] += step[step != 0]
        hi[moved], lo[moved] = _scaled(a[moved], e[moved])
    # hi is an integer (its ulp is 2 or more), so the fraction is lo's.
    whole = np.floor(lo)
    frac = lo - whole
    fallback |= np.abs(frac - 0.5) < 1e-9
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    fallback |= (d < 10 ** 16) | (d >= 10 ** 17) | (np.abs(e) > _EXP_LIMIT)
    e[fallback] = 0
    return d.view(np.uint64), e, fallback


def _ascii4_table():
    """The 4 ASCII digits of each q < 10**4, first digit in the lowest byte."""
    q = np.arange(10 ** 4, dtype=np.uint64)
    return sum((q // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4))


_ASCII4 = _ascii4_table()


# A cell is four little-endian 64-bit words; a byte outside the text is NUL:
#   word 0    '-', the "0.000" before a small number's first digit, that
#             first digit (byte 6)
#   words 1-2 the other 16 digits, a '.' inserted after digit p unless
#             p = 16, trailing zeros after the '.' cut
#   word 3    the digit pushed out of word 2, the exponent ("e-05",
#             "e+123"), then byte END for the row's ',' or newline
END = 8 * 3 + 6
_ZEROS = 0x3030303030303030


def _layout_tables():
    """Lookup tables of the cell layout.

    By p: the bytes before the '.' inside its word (all 8 for p = 16) and
    the '.' in place.  By the number of bytes shown after the first
    digit, up to 17: the masks of words 1 and 2 and of the pushed digit.
    By decimal exponent x, at index x + _EXP_LIMIT: the digits after the
    first that precede the '.', the last digit that a '.' may follow, and
    the text of word 0 before the first digit and of word 3's exponent
    (none in fixed notation, -4 <= x <= 16).
    """
    upto = [(1 << 8 * n) - 1 for n in range(9)]  # the first n bytes
    before = [upto[p % 8 if p < 16 else 8] for p in range(17)]
    dot = [ord(".") << 8 * (p % 8) if p < 16 else 0 for p in range(17)]
    shown = [[upto[min(s, 8)], upto[min(max(s - 8, 0), 8)],
              upto[s > 16]] for s in range(18)]
    whole, limit, head, tail = [], [], [], []
    for x in range(-_EXP_LIMIT, 1 + _EXP_LIMIT):
        fixed, small = -4 <= x <= 16, -4 <= x < 0
        whole.append(x if fixed and not small else 0)
        limit.append(16 if small else whole[-1])
        head.append("0.000"[:1 - x] if small else "")
        tail.append("" if fixed else f"e{x:+03d}")
    u64 = np.uint64

    def from_byte_1(strings):
        return np.array([int.from_bytes(s.encode(), "little") << 8
                         for s in strings], u64)

    return {"before": np.array(before, u64), "dot": np.array(dot, u64),
            "shown": np.array(shown, u64), "whole": np.array(whole),
            "limit": np.array(limit), "head": from_byte_1(head),
            "tail": from_byte_1(tail)}


_LAYOUT = _layout_tables()


def cell_words(v):
    """The '%.17g' text of every v in four words, NUL where no text is.

    Returns (words, fallback): a (len(v), 4) uint64 array with byte END
    of word 3 left NUL for the row terminator, and the cells left to
    '%.17g' itself, whose words hold no text to keep.
    """
    t = _LAYOUT
    d, x, fallback = decimal(v)
    x += _EXP_LIMIT
    first = d // 10 ** 16
    rest = d - first * 10 ** 16
    halves = np.empty((len(d), 2), np.uint64)
    halves[:, 0] = rest // 10 ** 8
    halves[:, 1] = rest - halves[:, 0] * 10 ** 8
    top = halves // 10 ** 4
    bottom = halves - top * 10 ** 4
    digits = np.take(_ASCII4, top) | np.take(_ASCII4, bottom) << 32
    upper, lower = digits[:, 0], digits[:, 1]
    # last: the last nonzero digit (0 if only the first one is)
    nonzero = (np.frexp(digits ^ _ZEROS)[1] + 7) // 8
    last = np.where(nonzero[:, 1] > 0, 8 + nonzero[:, 1], nonzero[:, 0])
    whole = np.take(t["whole"], x)
    dot = last > np.take(t["limit"], x)
    shown = np.take(t["shown"], np.maximum(last, whole) + dot, axis=0).T
    p = np.where(dot, whole, 16)
    into_upper = p < 8
    word = np.where(into_upper, upper, lower)
    before = np.take(t["before"], p)
    word = word & before | np.take(t["dot"], p) | (word & ~before) << 8
    words = np.empty((len(d), 4), np.uint64)
    words[:, 0] = (v.view(np.uint64) >> 63) * ord("-")
    words[:, 0] |= np.take(t["head"], x) | first + ord("0") << 48
    words[:, 1] = np.where(into_upper, word, upper) & shown[0]
    words[:, 2] = np.where(into_upper, upper >> 56 | lower << 8, word)
    words[:, 2] &= shown[1]
    words[:, 3] = lower >> 56 & shown[2] | np.take(t["tail"], x)
    return words, fallback
