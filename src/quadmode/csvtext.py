"""CSV text of float columns, each value exactly as Python's `'%.17g' % x`.

`csv_rows(columns)` formats a table (equal-length float64 columns) in numpy,
row by row: values separated by ',' and each row ended by '\\n'.  The
bytes are those of

    "".join(",".join("%.17g" % v for v in row) + "\\n" for row in zip(*columns))

For a finite nonzero x = m·2^e (frexp), with k the decimal exponent
(10^k <= |x| < 10^(k+1)), the 17 significant digits are the integer
D = round-half-even(|x|·10^(16-k)), as in D. M. Gay's correctly rounded
binary-to-decimal conversion (AT&T NAM 90-10, 1990), which CPython's `%`
uses.  10^(16-k) is read from a table as (hi + lo)·2^b, hi and lo doubles
built once from exact integers, and m·hi is taken exactly by Dekker's
two-product (Numer. Math. 18 (1971) 224), so the scaled value is known to
~1e-14 absolute against a rounding boundary at ½.  Where 10^(16-k) is a
double (lo = 0, 0 <= 16-k <= 22) the product is exact and a tie is rounded
half-even here.  Python's own `%` formats NaN, ±inf, and any value whose
inexact scaled fraction lies within `_TIE_GUARD` of ½.

The text is laid out in 48-byte slots, one per value, filled from lookup
tables of 8-byte words (digits interleaved with candidate decimal points)
and kept by a per-case byte mask; the kept bytes, in order, are the CSV
text.  The tables are built on first use, not at import.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np

_KMIN, _KMAX = -324, 308  # decimal exponents of the smallest subnormal and the largest double
_TIE_GUARD = 1e-6  # against an error of ~1e-14 in an inexact scaled fraction
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_D_TOP = 10**17  # one past the largest 17-digit D

# slot layout, in bytes: 0 '-', 1 '0', 2 '.', 3-5 '000' (the prefix of
# 0.000ddd), then digit 1 at 6 and digit j >= 2 at 2j + 4, each followed by a
# candidate '.', then 40 'e', 41 exponent sign, 42-44 exponent digits, 45 the
# separator; 46 and 47 are never kept
_SLOT = 48
_WORDS = _SLOT // 8
_SEP = 45
_GROUPS = 10000  # four-digit groups
_PIECE = 1 << 15  # slot bytes compressed at a time: the kept-byte index stays ~0.1 MB
# layouts: fixed notation for k = -4..16, the exponent notation with two
# and with three exponent digits, and zero; each has a case per count of
# trailing zeros of D (0..16) and sign
_FIXED = range(-4, 17)
_EXP2, _EXP3, _ZERO = len(_FIXED), len(_FIXED) + 1, len(_FIXED) + 2
_CASES = 17 * 2


def _digit_pos(j):
    """Slot byte of significant digit j (1..17)."""
    return np.where(j == 1, 6, 2 * j + 4)


@functools.cache
def _tables() -> SimpleNamespace:
    """Every lookup table, indexed by k - _KMIN where indexed by k."""
    ks = range(_KMIN, _KMAX + 2)

    # 10^(16-k) = (hi + lo)·2^b, hi in [1, 2] with 53 bits, and hi's Veltkamp halves
    hi, lo, b = [], [], []
    for k in ks:
        p = 16 - k
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        shift = num.bit_length() - den.bit_length()
        shift -= (num << max(-shift, 0)) < (den << max(shift, 0))  # num/den < 2^shift
        num, den = num << max(-shift, 0), den << max(shift, 0)  # num/den in [1, 2)
        top = (2 * (num << 52) + den) // (2 * den)  # round(num/den·2^52)
        hi.append(top / (1 << 52))
        lo.append(((num << 52) - top * den) / (den << 52))
        b.append(shift)
    hi, lo, b = np.array(hi), np.array(lo), np.array(b, np.int32)
    split = hi * _SPLITTER
    hh = split - (split - hi)

    # the smallest double >= 10^k, for k up to _KMAX + 2 (inf past the range)
    least = []
    for k in range(_KMIN, _KMAX + 3):
        f = float(f"1e{k}")  # the nearest double
        if math.isfinite(f):
            num, den = f.as_integer_ratio()
            if (num * 10**-k < den) if k < 0 else (num < den * 10**k):
                f = math.nextafter(f, math.inf)
        least.append(f)
    least = np.array(least)

    # words: 10,000 four-digit groups "a.b.c.d.", 10 slot prefixes
    # "-0.000d.", then per k the exponent word "e±ddd" with ',' and with '\n'.
    # Here and below the builds keep to intp arithmetic with // (no %, abs
    # or int8/uint16 operands): loops the program runs anyway, so a build
    # adds fewer code pages to the resident set
    text =np.zeros((_GROUPS + 10 + 2 * len(ks), 8), np.uint8)
    digits = np.arange(_GROUPS)
    text[:_GROUPS, 1::2] = ord(".")
    for i, div in enumerate((1000, 100, 10, 1)):
        text[:_GROUPS, 2 * i] = digits // div - digits // (10 * div) * 10 + ord("0")
    text[_GROUPS:_GROUPS + 10] = [list(b"-0.000%d." % d) for d in range(10)]
    exp = text[_GROUPS + 10:].reshape(-1, 2, 8)
    exp[:, :, :5] = np.frombuffer(b"".join(b"e%+04d" % k for k in ks), np.uint8).reshape(-1, 1, 5)
    exp[:, :, 5] = [ord(","), ord("\n")]
    words = text.view(np.uint64).ravel()

    # trailing zeros of a four-digit group (4 for 0000), for each word
    # (0 past the groups), and 2·z by the trailing zeros of groups 1-4 as
    # a number in base 5: z counts the zero groups from the last, and then
    # the trailing zeros of the last nonzero group
    tz = np.zeros(words.size, np.uint8)
    for power in (10, 100, 1000, 10000):
        tz[:_GROUPS] += digits // power * power == digits
    by_group = np.indices((5,) * 4).reshape(4, -1)
    zeros = by_group[3].copy()
    for g in (2, 1, 0):
        zeros += np.prod(by_group[g + 1:] == 4, axis=0) * by_group[g]

    # keep mask per case ((layout·17 + z)·2 + negative), z trailing zeros of D
    layout = np.arange(_ZERO + 1)[:, None, None, None]
    z = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    pos = np.arange(_SLOT)[None, None, None, :]
    k = layout + _FIXED.start
    fixed, small = layout < _EXP2, layout < -_FIXED.start
    exponent = (layout == _EXP2) | (layout == _EXP3)
    n_dig = np.where(fixed & ~small, np.maximum(k + 1, 17 - z), 17 - z)  # digits written
    n_int = np.where(fixed & ~small, k + 1, 1)  # digits before the point
    j = np.arange(1, 18)
    is_digit = np.zeros(_SLOT, bool)
    is_digit[_digit_pos(j)] = True
    digit_no = np.zeros(_SLOT, np.intp)
    digit_no[_digit_pos(j)] = j
    point_after = np.zeros(_SLOT, np.intp)  # the digit a candidate '.' follows
    point_after[_digit_pos(j[:-1]) + 1] = j[:-1]
    keep = np.zeros((_ZERO + 1, 17, 2, _SLOT), bool)
    keep |= (pos == 0) & (neg == 1)
    keep |= (layout == _ZERO) & (pos == 1)
    keep |= small & ((pos == 1) | (pos == 2) | ((pos >= 3) & (pos < 2 - k)))
    keep |= (layout < _ZERO) & is_digit[pos] & (digit_no[pos] <= n_dig)
    keep |= ~small & (layout < _ZERO) & (point_after[pos] == n_int) & (n_dig > n_int)
    keep |= exponent & ((pos == 40) | (pos == 41) | (pos == 43) | (pos == 44))
    keep |= (layout == _EXP3) & (pos == 42)
    keep |= pos == _SEP
    masks = keep.reshape(-1, _SLOT).view(np.uint64)

    kk = np.arange(ks.start, ks.stop)
    return SimpleNamespace(
        hi=hi, hh=hh, hl=hi - hh, lo=lo, b=b, guard=np.where(lo == 0, 1.0, 0.5 - _TIE_GUARD),
        least=least[:-1], least_next=least[1:], words=words, masks=masks,
        tz=tz, tz_weights=np.array([0, 125, 25, 5, 1, 0], np.int16), zeros=2 * zeros,
        prefix_at=_GROUPS, exp_at=_GROUPS + 10,
        layout=np.where((kk >= _FIXED.start) & (kk < _FIXED.stop), kk - _FIXED.start,
                        np.where((kk > -100) & (kk < 100), _EXP2, _EXP3)) * _CASES)


def _digits(a, t):
    """(D, k - _KMIN, tie) of each positive finite `a`: its 17 significant
    digits as an integer in [10^16, 10^17), its decimal exponent, and
    whether its inexact scaled fraction lies within `_TIE_GUARD` of ½."""
    m, e = np.frexp(a)
    # k from log10, corrected by an exact comparison with 10^k and 10^(k+1)
    ki = (np.log10(a) - _KMIN).astype(np.intp)
    ki += a >= t.least_next.take(ki)
    ki -= a < t.least.take(ki)

    # S = a·10^(16-k) = (m·hi + m·lo)·2^(e+b) in [1e16, 1e17), m·hi = ph + err exactly
    split = m * _SPLITTER
    mh = split - (split - m)
    ml = m - mh
    hh, hl = t.hh.take(ki), t.hl.take(ki)
    ph = m * t.hi.take(ki)
    err = ((mh * hh - ph) + mh * hl + ml * hh) + ml * hl
    err += m * t.lo.take(ki)
    scale = e + t.b.take(ki)
    ph = np.ldexp(ph, scale)  # an even integer: S >= 2^53
    tail = np.ldexp(err, scale)
    up = np.rint(tail)
    tie = ~(np.abs(tail - up) <= t.guard.take(ki))
    d = ph.astype(np.int64)
    d += up.astype(np.int64)
    carry = d == _D_TOP  # rounded up to 10^17: one digit fewer below the point
    d -= carry * (_D_TOP - _D_TOP // 10)
    ki += carry
    return d, ki, tie


def _words(d, ki, width, t):
    """The slot words of each value (`_digits`'s D and k - _KMIN), in
    rows of `width` values, and the trailing zeros of D, doubled."""
    # word indices: the prefix with digit 1, four groups of four digits,
    # and the exponent with the separator (',' or, closing a row, '\n')
    idx = np.empty((d.size, _WORDS), np.intp)
    high = d // 10**8
    low = d - high * 10**8
    for col, value in ((1, high), (3, low)):  # digit 1 with group 1, and group 2; groups 3 and 4
        part = value // 10**4
        np.subtract(value, part * 10**4, out=idx[:, col + 1])
        idx[:, col] = part
    idx[:, 0] = idx[:, 1] // 10**4 + t.prefix_at
    idx[:, 1] -= (idx[:, 0] - t.prefix_at) * 10**4
    np.add(2 * ki.reshape(-1, width), t.exp_at + (np.arange(width) == width - 1),
           out=idx.reshape(-1, width, _WORDS)[:, :, 5])
    return t.words.take(idx), t.zeros.take(t.tz.take(idx) @ t.tz_weights)


def _slots(x, width, t):
    """The slot words and keep masks of the values `x`, in rows of `width`
    values, and which of them Python's `%` must format (NaN, ±inf and the
    inexact near ties)."""
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0
    d, ki, tie = _digits(np.where(finite & ~zero, a, 1.0), t)
    words, zeros = _words(d, ki, width, t)
    case = np.where(zero, _ZERO * _CASES, t.layout.take(ki) + zeros) + np.signbit(x)
    return words, t.masks.take(case, axis=0), tie | ~finite


def csv_rows(columns) -> str:
    """The CSV text of the rows of `columns` (equal-length float arrays):
    each value as `'%.17g' % value`, values joined by ',', rows ended by
    '\\n'."""
    t = _tables()
    x = np.stack(columns, axis=1, dtype=np.float64).ravel()
    words, keep, python = _slots(x, len(columns), t)
    for i in np.flatnonzero(python):
        text = np.frombuffer(("%.17g" % x[i]).encode(), np.uint8)
        slot, mask = words[i].view(np.uint8), keep[i].view(bool)
        slot[:text.size] = text
        mask[:] = False
        mask[:text.size] = mask[_SEP] = True
    keep, words = keep.view(bool).ravel(), words.view(np.uint8).ravel()
    return "".join(str(np.compress(keep[i:i + _PIECE], words[i:i + _PIECE]).data, "ascii")
                   for i in range(0, keep.size, _PIECE))
