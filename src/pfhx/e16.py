"""The numpy kernel that spells doubles as ``'%.16e' % x`` does, for the run CSVs.

``norms.csv`` and ``snapshots.csv`` hold hundreds of thousands of numbers,
too many to format one ``%`` at a time.  ``_e16`` formats a few thousand
values at a time in one pass: each value's exact decimal exponent, its 17
digits, and its text as three 64-bit words.  A value it cannot settle, a
near tie or one outside the binades that meet [1e-280, 1e300], inf and
nan among them, is formatted by ``'%.16e' % x`` itself, which is the
kernel's oracle.  The kernel's temporaries live in one workspace, made
once per writer and reused for every chunk.  ``_csv`` writes both files'
rows: it lays the records of broadcast groups of columns into 24-byte
slots, the separator in the last byte, or 25-byte slots for a piece with a
record that fills its 24th byte (a three-digit exponent), and drops the
padding with one ``bytes.replace`` per piece.  ``cli`` imports this
module only when it writes a run's outputs, so a command that writes none
never loads numpy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

# The kernel formats at most this many values at a time, so that its
# workspace stays near 2 MB whatever the size of the run.
_CHUNK_VALUES = 2**14
_WORD = np.dtype("<u8")  # a 24-byte record is three of these
# The decimal exponents the tables cover: p = floor(log10 |x|) for |x| in the
# binades (2^-931, 2^997] that meet [1e-280, 1e300], the kernel's fast path.
_P = (-281, 300)
_SLOW = _P[1] - _P[0] + 1  # the table row of a value the fast path leaves to '%.16e'
_WORK_ROWS = 16  # the workspace's rows of _CHUNK_VALUES 8-byte words
_HALF = 0.5 - 1e-9  # a fraction of y within 1e-9 of one half is a near tie


@functools.cache  # the kernel's two tables of powers share most of theirs
def _ten_to(k: int) -> tuple[float, float]:
    """10^k as the unevaluated sum hi + lo of two doubles, hi the nearest to it.

    Python int true division rounds correctly; for k < 0, hi = m 2^-s
    exactly, so 10^k - hi = (2^s - m 10^-k) / 10^-k 2^-s.
    """
    ten = 10 ** abs(k)
    if k >= 0:
        h = float(ten)
        return h, float(ten - int(h))
    h = 1 / ten
    mantissa, exp = math.frexp(h)
    s = 53 - exp
    return h, math.ldexp(((1 << s) - int(mantissa * 2**53) * ten) / ten, -s)


@functools.cache
def _e16_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on first use.

    Indexed by p - ``_P[0]``, with the row ``_SLOW`` last: 10^(16 - p) as
    hi + lo and hi's Veltkamp split hi_hi + hi_lo, one row of four per p;
    the least double >= 10^p, which is 10^p's hi, or the next double up
    where its lo is positive; and the exponent field, 'e', sign and two or
    three digits, zero-padded in the top five bytes of a word.  The row
    ``_SLOW`` is (0, 0, 0, nan), so that every value given it has a t of
    nan, which the near-tie check sends to '%.16e'.

    Indexed by the binade e of |x| = (bits + 2^52 - 1) >> 52, for |x| in
    (2^(e - 1024), 2^(e - 1023)], and 0 for zero alone: the row of
    p = floor(log10 2^(e - 1024)), which p is or falls one short of, and
    the least double >= 10^(p + 1), to settle which.  A binade that does
    not meet [1e-280, 1e300] gets the row ``_SLOW`` and a bound of nan,
    which no comparison passes; zero gets the row of p = 0, which spells
    it 0.0000000000000000e+00.

    Indexed by the number: the ASCII of 0000 .. 9999 as little-endian
    words; and by the first digit d, d and '.' in bytes 1 and 2 of a word.
    """
    ps = range(_P[0], _P[1] + 1)
    hi, lo = np.array([_ten_to(16 - p) for p in ps]).T
    top, rest = np.array([_ten_to(p) for p in ps]).T
    cut = 134217729.0 * hi  # 2^27 + 1
    hi_hi = cut - (cut - hi)
    powers = np.stack([hi, hi_hi, hi - hi_hi, lo], 1)
    powers = np.concatenate([powers, [[0.0, 0.0, 0.0, math.nan]]])
    least = np.where(rest > 0, np.nextafter(top, np.inf), top)
    start = np.full(2049, _SLOW, np.intp)
    bound = np.full(2049, math.nan)
    first, last = (np.array([1e-280, 1e300]).view(_WORD) + (2**52 - 1) >> 52).tolist()
    q = np.arange(first, last + 1) - 1024
    # floor(q log10 2): 78913 / 2^18 is log10 2 to 8e-7, close enough for |q| < 1650
    start[first:last + 1] = (q * 78913 >> 18) - _P[0]
    bound[first:last + 1] = least[start[first:last + 1] + 1]
    start[0], bound[0] = -_P[0], least[1 - _P[0]]
    d = np.arange(10000, dtype=np.uint16)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1).astype(np.uint8) + 48
    heads = np.arange(10, dtype=_WORD) + 48 << 8 | ord(".") << 16
    exponents = b"".join((b"\0\0\0e%+03d" % p).ljust(8, b"\0") for p in ps) + bytes(8)
    return (powers, least, start, bound, digits.view("<u4").ravel().astype(_WORD), heads,
            np.frombuffer(exponents, _WORD))


def _workspace() -> np.ndarray:
    """The kernel's temporaries for one chunk: rows of 8-byte words, viewed as it needs."""
    return np.empty((_WORK_ROWS, _CHUNK_VALUES))


def _e16_chunk(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> int:
    """Write ``'%.16e' % v`` of each v of ``x`` into the row of three words of ``out``.

    Zero bytes fill what the text leaves of 24: a positive value's sign and
    the end of a shorter text.  p = floor(log10 |v|) is exact: the binade
    of |v| fixes it to within one, which a comparison with the least
    double >= 10^(p + 1) settles.  The 17 digits are the integer
    n = round(y), y = |v| 10^(16 - p) in [10^16, 10^17), held as ph + t:
    ph = fl(|v| hi), an integer, and t its error (Dekker's two-product,
    |v| split by masking its low 26 bits) plus |v| lo.  y is known to
    within 1e-14, so n is exact unless y's fraction lies within 1e-9 of
    one half; n = 10^17 carries to p + 1.  An element that this cannot
    settle, a near or exact tie, or one whose binade gets the row
    ``_SLOW`` (a t of nan), is formatted by ``'%.16e' % v`` itself.  Every
    temporary is a row of ``work``; floating-point warnings are the
    caller's to silence (``_e16``).  Returns how many were formatted by
    ``%``.
    """
    powers, _, start, bound, digits, heads, exponents = _e16_tables()
    size = len(x)
    f = work[:, :size]
    a, b, s, t, ph, whole = f[:6]
    i, e, n, k, h, lead = (row.view(np.int64) for row in f[6:12])
    rows = work[12:16].reshape(-1)[:4 * size].reshape(size, 4)
    mask = f[11].view(np.bool_)[:size]  # shares lead's words, free until lead is made
    np.abs(x, out=a)
    bits = a.view(_WORD)
    np.add(bits, 2**52 - 1, out=e.view(_WORD))
    np.right_shift(e.view(_WORD), 52, out=e.view(_WORD))
    start.take(e, out=i, mode="clip")
    bound.take(e, out=b, mode="clip")
    np.greater_equal(a, b, out=mask)
    np.add(i, mask, out=i)
    powers.take(i, axis=0, out=rows, mode="clip")
    hi, hi_hi, hi_lo, lo = rows.T
    np.multiply(a, hi, out=ph)
    a_hi, a_lo = b, s
    np.bitwise_and(bits, ~np.uint64(2**26 - 1), out=a_hi.view(_WORD))
    np.subtract(a, a_hi, out=a_lo)
    np.multiply(a_hi, hi_hi, out=t)
    np.subtract(t, ph, out=t)
    for u, v in ((a_hi, hi_lo), (a_lo, hi_hi), (a_lo, hi_lo), (a, lo)):
        np.multiply(u, v, out=whole)
        np.add(t, whole, out=t)
    np.add(t, 0.5, out=whole)
    np.floor(whole, out=whole)
    np.subtract(t, whole, out=s)
    np.abs(s, out=s)
    np.less_equal(s, _HALF, out=mask)  # false for nan
    np.logical_not(mask, out=mask)
    fallback = np.flatnonzero(mask)
    np.copyto(n, ph, casting="unsafe")
    np.copyto(k, whole, casting="unsafe")
    np.add(n, k, out=n)
    np.equal(n, 10**17, out=mask)
    np.copyto(n, 10**16, where=mask)
    np.add(i, mask, out=i)
    # n's digits: lead, then upper and lower, 8 each, then each of those as two of 4
    np.floor_divide(n, 10**8, out=h)
    np.floor_divide(h, 10**8, out=lead)
    np.multiply(h, 10**8, out=k)
    np.subtract(n, k, out=n)  # lower
    np.multiply(lead, 10**8, out=k)
    np.subtract(h, k, out=h)  # upper
    high, low = a.view(_WORD), ph.view(_WORD)  # the ASCII of upper's and of lower's digits
    for m, text, spare in ((h, high, b.view(_WORD)), (n, low, t.view(_WORD))):
        np.floor_divide(m, 10**4, out=k)
        digits.take(k, out=text, mode="clip")
        np.multiply(k, 10**4, out=k)
        np.subtract(m, k, out=k)
        digits.take(k, out=spare, mode="clip")
        np.left_shift(spare, 32, out=spare)
        np.bitwise_or(text, spare, out=text)
    head = e.view(_WORD)
    heads.take(lead, out=head, mode="clip")
    sign = s.view(_WORD)
    np.right_shift(x.view(_WORD), 63, out=sign)
    np.multiply(sign, ord("-"), out=sign)
    np.bitwise_or(head, sign, out=head)
    word = k.view(_WORD)
    np.left_shift(high, 24, out=word)
    np.bitwise_or(head, word, out=out[:, 0])
    np.right_shift(high, 40, out=high)
    np.left_shift(low, 24, out=word)
    np.bitwise_or(high, word, out=out[:, 1])
    np.right_shift(low, 40, out=low)
    exponents.take(i, out=word, mode="clip")
    np.bitwise_or(low, word, out=out[:, 2])
    for row, value in zip(fallback, x[fallback].tolist()):
        out[row] = np.frombuffer(("%.16e" % value).encode().ljust(24, b"\0"), _WORD)
    return len(fallback)


def _e16(values: np.ndarray, out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    """Each value as a 24-byte record: ``'%.16e' % v``, zero bytes where its text is shorter.

    The records' shape is the values' shape, then 24.  ``out``, rows of
    three words, one per value, receives them if given; ``work`` is a
    workspace to reuse (``_workspace``).
    """
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    if out is None:
        out = np.empty((len(x), 3), _WORD)
    if work is None:
        work = _workspace()
    with np.errstate(invalid="ignore"):  # the nan of a row _SLOW, cast to int and discarded
        for lo in range(0, len(x), _CHUNK_VALUES):
            _e16_chunk(x[lo:lo + _CHUNK_VALUES], out[lo:lo + _CHUNK_VALUES], work)
    return out.view(np.uint8).reshape(*np.shape(values), 24)


def _slot_width(parts: list[np.ndarray]) -> int:
    """24 bytes a value, the separator in the last, unless a record's text fills that byte."""
    return 25 if any(part[..., 23].any() for part in parts) else 24


def _csv(*groups: np.ndarray) -> Iterator[bytes]:
    """CSV text of groups of columns side by side, every value as ``'%.16e' % x`` spells it.

    Each group has shape (a, b, columns); its a * b rows, in order, are
    broadcast against the other groups' as numpy broadcasts, so a group of
    length one along a or b repeats down the rows.  A group that repeats
    is formatted whole, once.  The text comes in pieces of whole rows, each
    without its last newline and of about ``_CHUNK_VALUES`` values at most:
    a piece holds whole runs of b rows, or part of one if b rows hold more
    values than that.  A piece's slots are ``_slot_width`` bytes a value.
    The workspace and the buffers of records and slots are made once, and
    a piece drops its padding where it was laid out.
    """
    a, b = np.broadcast_shapes(*(g.shape[:2] for g in groups))
    cols = sum(g.shape[2] for g in groups)
    step = max(1, _CHUNK_VALUES // cols)
    da, db = max(1, step // b), min(b, step)
    work, records, slots = _workspace(), np.empty((da * db * cols, 3), _WORD), bytearray()
    once = [_e16(g, work=work) if g.shape[0] == 1 < a or g.shape[1] == 1 < b else None
            for g in groups]
    for i in range(0, a, da):
        for j in range(0, b, db):
            parts, used = [], 0
            for g, formatted in zip(groups, once):
                rows = slice(i, i + da) if g.shape[0] > 1 else slice(None)
                span = slice(j, j + db) if g.shape[1] > 1 else slice(None)
                if formatted is None:
                    values = g[rows, span]
                    parts.append(_e16(values, records[used:used + values.size], work))
                    used += values.size
                else:
                    parts.append(formatted[rows, span])
            width = _slot_width(parts)
            shape = (min(da, a - i), min(db, b - j), cols, width)
            if len(slots) != math.prod(shape):
                slots = bytearray(math.prod(shape))
            block = np.frombuffer(slots, np.uint8).reshape(shape)
            c = 0
            for part in parts:
                block[:, :, c:c + part.shape[2], :24] = part
                c += part.shape[2]
            block[..., -1] = ord(",")
            block[:, :, -1, -1] = ord("\n")
            block[-1, -1, -1, -1] = 0
            yield slots.replace(b"\0", b"")
