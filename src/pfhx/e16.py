"""The numpy kernel that spells doubles as ``'%.16e' % x`` does, for the run CSVs.

``norms.csv`` and ``snapshots.csv`` hold hundreds of thousands of numbers,
too many to format one ``%`` at a time.  ``_e16`` formats a few thousand
values at a time in one pass: each value's exact decimal exponent, its 17
digits, and its text as three 64-bit words.  A value it cannot settle, a
near tie or one outside [1e-280, 1e300], inf and nan among them, is
formatted by ``'%.16e' % x`` itself, which is the kernel's oracle.
``_csv`` writes both files' rows: it lays the records of broadcast groups
of columns into 25-byte slots, each ending in its separator, and drops the
padding with one ``bytes.replace`` per piece.  ``cli`` imports this module
only when it writes a run's outputs, so a command that writes none never
loads numpy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

# The kernel formats at most this many values at a time, so that its
# temporaries stay near 2 MB whatever the size of the run.
_CHUNK_VALUES = 2**14
_SLOTS = 25  # a CSV slot: the longest '%.16e' text, '-1.2345678901234567e-308', then a separator
_WORD = np.dtype("<u8")  # a 24-byte record is three of these
# The decimal exponents the tables cover: p = floor(log10 |x|) for |x| in
# [1e-280, 1e300], the kernel's fast path, and 301 for the least double >= 10^301.
_P = (-281, 301)


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
    """The kernel's tables, built on first use, each indexed by p - ``_P[0]``.

    10^(16 - p) as hi + lo, with hi's Veltkamp split hi_hi + hi_lo; the
    least double >= 10^p, which is 10^p's hi, or the next double up where
    its lo is positive; the ASCII of 0000 .. 9999 as little-endian words
    (indexed by the number); and the exponent field, 'e', sign and two or
    three digits, zero-padded in the top five bytes of a word.
    """
    ps = range(_P[0], _P[1] + 1)
    hi, lo = np.array([_ten_to(16 - p) for p in ps]).T
    top, rest = np.array([_ten_to(p) for p in ps]).T
    cut = 134217729.0 * hi  # 2^27 + 1
    hi_hi = cut - (cut - hi)
    d = np.arange(10000, dtype=np.uint16)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1).astype(np.uint8) + 48
    exponents = b"".join((b"\0\0\0e%+03d" % p).ljust(8, b"\0") for p in ps)
    return (hi, hi_hi, hi - hi_hi, lo, np.where(rest > 0, np.nextafter(top, np.inf), top),
            digits.view("<u4").ravel().astype(_WORD), np.frombuffer(exponents, _WORD))


def _e16_chunk(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``'%.16e' % v`` of each v of ``x`` into the row of three words of ``out``.

    Zero bytes fill what the text leaves of 24: a positive value's sign and
    the end of a shorter text.  p = floor(log10 |v|) is exact: log10 is off
    by at most one, which a comparison with the least double >= 10^p on
    each side of it undoes.  The 17 digits are the integer n = round(y),
    y = |v| 10^(16 - p) in [10^16, 10^17), held as ph + t: ph = fl(|v| hi),
    an integer, and t its error (Dekker's two-product) plus |v| lo.  y is
    known to within 1e-14, so n is exact unless y's fraction lies within
    1e-9 of one half; n = 10^17 carries to p + 1.  An element that this
    cannot settle, a near or exact tie, or one whose |v| lies outside
    [1e-280, 1e300] (zero excepted), inf and nan among them, is formatted
    by ``'%.16e' % v`` itself.  Returns how many were.
    """
    hi, hi_hi, hi_lo, lo, least, digits, exponents = _e16_tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e300)
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.int64) - _P[0]  # p - _P[0]
    i += a >= least[i + 1]
    i -= a < least[i]
    ph = a * hi[i]
    cut = 134217729.0 * a
    a_hi = cut - (cut - a)
    a_lo = a - a_hi
    h_hi, h_lo = hi_hi[i], hi_lo[i]
    t = (((a_hi * h_hi - ph) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo[i]
    whole = np.floor(t + 0.5)
    fallback = np.flatnonzero(~zero & (~fast | (np.abs(t - whole) > 0.5 - 1e-9)))
    n = ph.astype(np.int64) + whole.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    i += carry
    n[zero] = 0
    upper, lower = n // 10**8 % 10**8, n % 10**8  # digits 2 to 9 and 10 to 17
    high = digits[upper // 10000] | digits[upper % 10000] << 32  # their ASCII
    low = digits[lower // 10000] | digits[lower % 10000] << 32
    head = np.signbit(x) * ord("-") | (n // 10**16 + 48) << 8 | ord(".") << 16
    out[:, 0] = head.view(_WORD) | high << 24
    out[:, 1] = high >> 40 | low << 24
    out[:, 2] = low >> 40 | exponents[i]
    for row, value in zip(fallback, x[fallback].tolist()):
        out[row] = np.frombuffer(("%.16e" % value).encode().ljust(24, b"\0"), _WORD)
    return len(fallback)


def _e16(values: np.ndarray) -> np.ndarray:
    """Each value as a 24-byte record: ``'%.16e' % v``, zero bytes where its text is shorter.

    The records' shape is the values' shape, then 24.
    """
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    out = np.empty((len(x), 3), _WORD)
    for lo in range(0, len(x), _CHUNK_VALUES):
        _e16_chunk(x[lo:lo + _CHUNK_VALUES], out[lo:lo + _CHUNK_VALUES])
    return out.view(np.uint8).reshape(*np.shape(values), 24)


def _csv(*groups: np.ndarray) -> Iterator[bytes]:
    """CSV text of groups of columns side by side, every value as ``'%.16e' % x`` spells it.

    Each group has shape (a, b, columns); its a * b rows, in order, are
    broadcast against the other groups' as numpy broadcasts, so a group of
    length one along a or b repeats down the rows.  A group that repeats
    along a is formatted once.  The text comes in pieces of whole rows,
    each without its last newline and of about ``_CHUNK_VALUES`` values at
    most: a piece holds whole runs of b rows, or part of one if b rows hold
    more values than that.
    """
    a, b = np.broadcast_shapes(*(g.shape[:2] for g in groups))
    cols = sum(g.shape[2] for g in groups)
    step = max(1, _CHUNK_VALUES // cols)
    da, db = max(1, step // b), min(b, step)
    once = [_e16(g) if len(g) == 1 < a else None for g in groups]
    for i in range(0, a, da):
        for j in range(0, b, db):
            block = np.empty((min(da, a - i), min(db, b - j), cols, _SLOTS), np.uint8)
            c = 0
            for g, records in zip(groups, once):
                span = slice(j, j + db) if g.shape[1] > 1 else slice(None)
                part = _e16(g[i:i + da, span]) if records is None else records[:, span]
                block[:, :, c:c + g.shape[2], :-1] = part
                c += g.shape[2]
            block[..., -1] = ord(",")
            block[:, :, -1, -1] = ord("\n")
            block[-1, -1, -1, -1] = 0
            yield block.tobytes().replace(b"\0", b"")
