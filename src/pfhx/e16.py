"""The numpy kernel that spells doubles as ``'%.16e' % x`` does, for the run CSVs.

``norms.csv`` and ``snapshots.csv`` hold hundreds of thousands of numbers,
too many to format one ``%`` at a time.  ``_e16`` computes the 17 digits
of a few thousand values at a time; a value it cannot settle, a near tie
or one outside [1e-280, 1e300], inf and nan among them, is formatted by
``'%.16e' % x`` itself, which is the kernel's oracle.  ``_csv`` writes
both files' rows: it lays the records of broadcast groups of columns into
25-byte slots, each ending in its separator, and drops the padding with one
``bytes.replace`` per piece.  ``cli`` imports this module only when it
writes a run's outputs, so a command that writes none never loads numpy.
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
# The decimal exponents p = floor(log10 |x|) of |x| in [1e-280, 1e300], the
# kernel's fast path, with one to spare at each end for a mend or a carry.
_P = (-282, 302)


@functools.cache
def _e16_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on first use.

    10^(16 - p) for each p in ``_P`` as the unevaluated sum hi + lo of two
    doubles, with hi's Veltkamp split hi_hi + hi_lo; both parts come from
    Python int true division, which rounds correctly.  Then the ASCII of
    0000 .. 9999 as little-endian uint32, and for each p in ``_P`` its
    exponent field: 'e', sign, hundreds (0 when there are none), tens, ones.
    """
    hi, lo = [], []
    ten = 10 ** (_P[1] - 16)
    for _ in range(16, _P[1]):  # 10^-j = hi + lo with hi = m 2^-s exactly
        h = 1 / ten
        mantissa, exp = math.frexp(h)
        s = 53 - exp
        hi.append(h)
        lo.append(math.ldexp(((1 << s) - int(mantissa * 2**53) * ten) / ten, -s))
        ten //= 10
    for _ in range(_P[0], 17):
        h = float(ten)
        hi.append(h)
        lo.append(float(ten - int(h)))
        ten *= 10
    hi, lo = np.array(hi[::-1]), np.array(lo[::-1])  # indexed by p - _P[0]
    cut = 134217729.0 * hi  # 2^27 + 1
    hi_hi = cut - (cut - hi)
    d = np.arange(10000, dtype=np.uint16)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], 1).astype(np.uint8) + 48
    p = np.arange(_P[0], _P[1] + 1)
    a = np.abs(p)
    fields = np.stack([np.full_like(p, ord("e")), np.where(p < 0, ord("-"), ord("+")),
                       np.where(a >= 100, 48 + a // 100, 0), 48 + a // 10 % 10, 48 + a % 10], 1)
    return hi, hi_hi, hi - hi_hi, lo, digits.view("<u4").ravel(), fields.astype(np.uint8)


def _scaled(a: np.ndarray, p: np.ndarray, tables) -> tuple[np.ndarray, ...]:
    """n = round(y) as int64, whether y < 10^16, and y - n, for y = a 10^(16 - p).

    y is held as ph + t: ph = fl(a hi), and t its error (Dekker's
    two-product) plus a lo.  ph is an integer wherever y >= 2^53.
    """
    hi, hi_hi, hi_lo, lo = (table[p - _P[0]] for table in tables[:4])
    ph = a * hi
    cut = 134217729.0 * a
    a_hi = cut - (cut - a)
    a_lo = a - a_hi
    t = (((a_hi * hi_hi - ph) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    whole = np.floor(t + 0.5)
    return ph.astype(np.int64) + whole.astype(np.int64), (ph - 1e16) + t < 0, t - whole


def _e16_chunk(x: np.ndarray, out: np.ndarray) -> int:
    """Write ``'%.16e' % v`` of each v of ``x`` into the first 24 slots of ``out``'s rows.

    The text is left-aligned and zero-padded.  The 17 digits are the integer
    n = round(y), y = |v| 10^(16 - p) with p = floor(log10 |v|); y is known
    to within 1e-14, so n is exact unless y's fraction lies within 1e-9 of
    one half.  log10 can miss p by one next to a power of ten: that shows as
    y < 10^16 or n > 10^17 and is mended once, and n = 10^17 carries to
    p + 1.  Within 0.05 of y = 10^16 both p and p - 1 spell the digits
    1.0000000000000000 at exponent p, so no guard is needed there.  An
    element that this cannot settle, a near or exact tie, or one whose |v|
    lies outside [1e-280, 1e300] (zero excepted), inf and nan among them,
    is formatted by ``'%.16e' % v`` itself.  Returns how many were.
    """
    tables = _e16_tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e300)
    a = np.where(fast, a, 1.0)
    p = np.floor(np.log10(a)).astype(np.int64)
    n, low, offset = _scaled(a, p, tables)
    wrong = np.flatnonzero(low | (n > 10**17))
    if len(wrong):
        p[wrong] += np.where(low[wrong], -1, 1)
        n[wrong], low[wrong], offset[wrong] = _scaled(a[wrong], p[wrong], tables)
    tie = np.abs(offset) > 0.5 - 1e-9
    fallback = np.flatnonzero(~zero & (~fast | tie | low | (n > 10**17)))
    carry = n == 10**17
    n[carry] = 10**16
    p += carry
    n[zero] = 0
    p[zero] = 0
    lead = n // 10**16
    rest = n - lead * 10**16
    upper = (rest // 10**8).astype(np.uint32)
    lower = (rest - upper.astype(np.int64) * 10**8).astype(np.uint32)
    digits = tables[4]
    groups = np.empty((len(x), 4), np.uint32)
    groups[:, 0] = digits[upper // 10000]
    groups[:, 1] = digits[upper % 10000]
    groups[:, 2] = digits[lower // 10000]
    groups[:, 3] = digits[lower % 10000]
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    out[:, 1] = lead + 48
    out[:, 2] = ord(".")
    out[:, 3:19] = groups.view(np.uint8)
    out[:, 19:24] = tables[5][p - _P[0]]
    for i, value in zip(fallback, x[fallback].tolist()):
        text = ("%.16e" % value).encode()
        out[i, :24] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return len(fallback)


def _e16(values: np.ndarray) -> np.ndarray:
    """Each value as a 24-byte record: ``'%.16e' % v``, zero bytes where its text is shorter.

    The records' shape is the values' shape, then 24.
    """
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    out = np.empty((len(x), 24), np.uint8)
    for lo in range(0, len(x), _CHUNK_VALUES):
        _e16_chunk(x[lo:lo + _CHUNK_VALUES], out[lo:lo + _CHUNK_VALUES])
    return out.reshape(*np.shape(values), 24)


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
