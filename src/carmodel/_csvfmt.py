"""CSV rows of float64 values, every field byte-identical to "%.17g" % v.

Digits. Each value is scaled into [1e16, 1e17) in float64,
z = |v| * 10^(16-X) with X its decimal exponent, and cut into its integer
part D and its fraction. X is first taken as floor(log10|v|), which can be
one off next to a power of ten; the few values whose D falls outside
[1e16, 1e17) are scaled once more with X moved by one. Per X, with
k = -floor(X log2 10), _pow10_table() holds 10^(16-X) * 2^-k as a
double-double P_hi + P_lo, each part rounded once from the exact value.
Whatever X is, s = |v| * 2^k (np.ldexp, exact) lies near 1 and P_hi near
1e16, so Veltkamp's split by 2^27 + 1 neither overflows nor underflows, and
Dekker's two-product gives z_hi + r = s * P_hi exactly. Only s * P_lo and
the sum e = r + s * P_lo round, so z_hi + e is within about 2^-100 z of the
exact product. z_hi is an integer wherever z >= 2^53; a smaller z lies
below 1e16, off, and is scaled again. So D = z_hi + floor(e).

Ambiguity. numpy formats every finite value except the few that these
tests leave undecided; Python formats those, and "inf" and "nan". With
h = e - (floor(e) + 1/2), the fraction less one half:

- Where P_lo = 0 (0 <= 16 - X <= 22), z_hi + e is the exact product. A
  rounded difference is 0 only where the difference is, so the sign of h
  is exact: D + (h > 0) are the 17 digits, and h = 0 is a tie, rounded half
  to even as Python does.
- Elsewhere h is off by less than 2^-46, and a value with |h| <= 2^-40 is
  near a tie. Exact ties can occur there at 16 - X = 23 and 24 (3 * 2^-24,
  say); they are near too.
- A value is an edge when D <= 10^16 or D >= 10^17 - 1: its exact product
  may lie below 1e16 (X one too large), or its digits round up to 10^17.
  This also flags every D that the rescaling left outside [1e16, 1e17).

Values near a tie and edges go to Python.

Layout. A field is 48 bytes, six aligned 64-bit words: the sign, "0.000",
the leading digit and a "."; digits 1-16 as four "d.d.d.d." words, each
taken whole from a 10 000-entry table of 4-digit groups; then "e+XXX" and
the terminator. A table indexed by the layout (fixed notation for
-4 <= X < 17, or an exponent of 2 or 3 digits) and the number of
significant digits, itself read per group from a 4 x 10 000 table, masks
the bytes the field keeps, one 64-bit word at a time. The other bytes
become NUL: a masked field.

Assembly. csv_rows formats chunks of whole rows, about CHUNK_VALUES values
each, into a bytearray, copies each chunk's used bytes out as bytes and
deletes the NULs with one translate: the rows stay ASCII bytes from here to
the file, which the writers open in binary. csv_pairs serves files that
share a lead column (every channel's response beside the same frequencies,
say): it formats a chunk of the lead and every column in one pass, so the
lead once per chunk, lays out each column's rows, the lead's field less the
byte columns that none of the chunk's lead fields keeps, then the value's,
one column after another, and compacts each column's rows on its own.

The arithmetic sticks to float64 and int64 ufuncs, with lookup
tables for the rest: the first call of each new numpy loop in a process
maps about 64 KB of numpy's code, which counts in the peak memory of a run.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["csv_rows", "csv_pairs"]

# Values per chunk of whole rows (at least one row): three cochleagram rows
# of 1224 sections. Each value takes 48 bytes of masked field and at most
# 105 more of temporaries while it is formatted (tracemalloc's peak over a
# _masked call), so a chunk's memory stays near 0.6 MB; a larger chunk
# raises the peak memory of a run for little speed.
CHUNK_VALUES = 4096

# decimal exponents X of the table rows: the largest double's (308) to the
# smallest's (-324)
_P_X_MIN, _P_X_MAX = -324, 308
_SPLITTER = 2.0**27 + 1  # Veltkamp's constant for a 53-bit significand


@cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """Per decimal exponent X from _P_X_MIN, with k = -floor(X log2 10):
    P_hi and P_lo, 10^(16-X) * 2^-k as a double-double, each rounded once
    from the exact value; the two Veltkamp halves of P_hi; and k. Built with
    Python integers on first use, not at import, so that commands that
    format no float do not pay for it."""
    rows = []
    for x in range(_P_X_MIN, _P_X_MAX + 1):
        k = -math.floor(x * math.log2(10))
        num = 10 ** max(16 - x, 0) << max(-k, 0)
        den = 10 ** max(x - 16, 0) << max(k, 0)
        hi = num / den  # correctly rounded
        n, d = hi.as_integer_ratio()
        c = hi * _SPLITTER
        hi_1 = c - (c - hi)
        rows.append((hi, (num * d - n * den) / (den * d), hi_1, hi - hi_1, k))
    hi, lo, hi_1, hi_2, k = map(np.array, zip(*rows))
    return hi, lo, hi_1, hi_2, k.astype(np.intc)  # np.ldexp's exponent type


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text "d.d.d.d." of each 4-digit group g = 0..9999 as a 64-bit
    word; and for group k (digits 4k+1 to 4k+4 of D) holding g, at
    10000k + g, the number of digits of D up to its last nonzero one in the
    group (0 for g = 0). Both are built from 100-entry pieces, without
    10 000-entry int64 temporaries."""
    pair = np.frombuffer(
        b"".join(b"%d.%d." % divmod(p, 10) for p in range(100)), dtype=np.uint8
    ).reshape(100, 4)
    words = np.empty((100, 100, 8), dtype=np.uint8)
    words[:, :, :4] = pair[:, None]
    words[:, :, 4:] = pair[None, :]
    pair_sig = np.array([0 if p == 0 else 2 - (p % 10 == 0) for p in range(100)], dtype=np.uint8)
    group_sig = np.where(pair_sig > 0, pair_sig + 2, pair_sig[:, None]).reshape(-1)
    before = np.arange(1, 17, 4, dtype=np.uint8)[:, None]  # digits before group k
    sig = np.where(group_sig > 0, group_sig + before, 0)
    return words.reshape(-1).view(np.uint64), sig.reshape(-1)


_GROUP_WORD, _GROUP_SIG = _group_tables()
_GROUP_ROW = np.arange(0, 40000, 10000)[:, None]

# Byte columns of a field: a "." may follow every digit, and the mask keeps
# the bytes of the field's layout.
_SIGN = 0  # "-" or NUL
_PREFIX = slice(1, 6)  # "0.000" before the digits when -4 <= X < 0
_LEAD = 6  # digit 0, with the "." after it at 7
_HEAD_WORD = np.frombuffer(b"-0.0000.", dtype=np.uint64)[0]  # bytes 0-7
_DIGIT = slice(6, 40, 2)  # digit j at 6 + 2j, a possible "." after it
_GROUPS = slice(1, 5)  # the words of digits 1-16
_EXP = slice(40, 45)  # "e+XXX"
_END = 45  # "," or "\r"
_LF = 46  # "\n" after the last field of a row, NUL after the others
_WIDTH = 48

# Per decimal exponent X (from _X_MIN), the word of bytes 40-47 holding its
# "e+XXX", and the first row of its layout in _KEEP: layouts 0-20 for fixed
# notation with X = -4..16, 21 and 22 for e+XX and e+XXX.
_X_MIN = -330
_EXP_WORD = np.frombuffer(
    b"".join(b"e%+04d\0\0\0" % x for x in range(_X_MIN, 330)), dtype=np.uint64
)
_LAYOUT_ROW = np.array(
    [18 * (x + 4 if -4 <= x <= 16 else 21 + (abs(x) >= 100)) for x in range(_X_MIN, 330)]
)


def _keep_table() -> np.ndarray:
    """0xFF on the bytes a field keeps, per layout and number of
    significant digits (after stripping trailing zeros), in row
    layout * 18 + significant digits. The sign and the terminators are
    always kept: there a field holds NUL where it writes nothing."""
    table = np.zeros((23, 18, _WIDTH), dtype=bool)
    table[:, :, [_SIGN, _END, _LF]] = True
    for layout in range(23):
        for significant in range(18):
            row = table[layout, significant]
            x = layout - 4
            shown = max(significant, 1)  # the leading digit, even of 0
            if layout >= 21:  # d.ddde+XX(X)
                dot = 0
                row[_EXP] = True
                row[_EXP.start + 2] = layout == 22
            elif x < 0:  # 0.000ddd
                dot = None
                row[_PREFIX][: 1 - x] = True
            else:
                shown, dot = max(shown, x + 1), x
            row[_DIGIT][:shown] = True
            if dot is not None and shown > dot + 1:
                row[_DIGIT.start + 2 * dot + 1] = True
    return table.reshape(-1, _WIDTH).view(np.uint8) * np.uint8(0xFF)


_KEEP = _keep_table().view(np.uint64)
# The words of bytes 40-47 with only a terminator set: "," and CRLF
_COMMA, _CRLF = np.frombuffer(b"\0\0\0\0\0,\0\0\0\0\0\0\0\r\n\0", dtype=np.uint64)
_NUL_FOR_SPACE = bytes(range(256)).replace(b" ", b"\0")


def _python_fields(values: np.ndarray) -> np.ndarray:
    """Python's "%.17g" text of each value, NUL-padded to 24 bytes."""
    text = b"".join([b"%-24.17g" % f for f in values.tolist()]).translate(_NUL_FOR_SPACE)
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)


def _scaled(a, row) -> tuple[np.ndarray, np.ndarray]:
    """z_hi and e of the values a > 0 at the rows of _pow10_table(): z_hi +
    e is a * 10^(16-X) to within about 2^-100 times it, and exact where
    P_lo is 0. z_hi = s * P_hi rounded, for s = a * 2^k, and z_hi + r = s * P_hi
    exactly by Dekker's two-product; then e = r + s * P_lo."""
    hi, lo, hi_1, hi_2, k = _pow10_table()
    # every row is in range: "clip" only skips take's buffered bounds check
    s = np.ldexp(a, k.take(row, mode="clip"))
    s_1 = s * _SPLITTER
    s_1 -= s_1 - s
    s_2 = s - s_1
    z = s * hi.take(row, mode="clip")
    p = hi_1.take(row, mode="clip")
    r = z - s_1 * p
    r -= s_2 * p
    p = hi_2.take(row, mode="clip")
    r -= s_1 * p
    np.subtract(s_2 * p, r, out=r)
    r += s * lo.take(row, mode="clip")
    return z, r


def _digits(v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and the decimal exponent X of each value of v, and
    the indices of the ambiguous values, which Python formats. Its
    temporaries, most of a chunk's memory, are gone when it returns."""
    a = np.abs(v)
    zero = a == 0
    odd = ~np.isfinite(a)  # "inf" and "nan" come from Python
    a[zero | odd] = 2.0  # any value whose z is clear of the edges
    x = np.floor(np.log10(a)).astype(np.int64)  # X, or one off
    z, e = _scaled(a, x - _P_X_MIN)
    whole = np.floor(e)
    digits = z.astype(np.int64) + whole.astype(np.int64)  # 0 < z < 2^63
    off = np.subtract(digits, 10**16).view(np.uint64) >= 9 * 10**16
    if off.any():  # D outside [1e16, 1e17): move X by one and scale again
        i = np.flatnonzero(off)
        x[i] -= np.where(digits[i] < 10**16, 1, -1)
        z[i], e[i] = _scaled(a[i], x[i] - _P_X_MIN)
        whole[i] = np.floor(e[i])
        digits[i] = z[i].astype(np.int64) + whole[i].astype(np.int64)
    h = e - (whole + 0.5)
    near = abs(h) <= 2.0**-40
    if near.any():  # decided where P_lo = 0, 10^(16-X) times 2^-k exact
        i = np.flatnonzero(near)
        near[i] = _pow10_table()[1].take(x[i] - _P_X_MIN, mode="clip") != 0
    up = (h > 0) | ((h == 0) & ((digits & 1) == 1))  # ties to even
    # D <= 10^16 or D >= 10^17 - 1
    edge = np.subtract(digits, 10**16 + 1).view(np.uint64) > 9 * 10**16 - 3
    ambiguous = near | edge | odd
    digits += up
    digits[zero] = 0
    return digits, x, np.flatnonzero(ambiguous)


def _divmod(n, d: int, q, r) -> None:
    """q, r = divmod(n, d) for non-negative int64 n, r possibly n itself:
    floor_divide by a constant runs numpy's libdivide loop, which with a
    multiply and a subtract takes half the time of np.divmod."""
    np.floor_divide(n, d, out=q)
    np.subtract(n, q * d, out=r)


def _masked(v, tail, fields) -> None:
    """Write the masked fields of the values of v into fields, [len(v) x
    _WIDTH] uint8, each ended by its terminator from tail, the 64-bit words
    of bytes 40-47 with only the terminators set."""
    digits, x, slow = _digits(v)
    # digits = lead * 10^16 + groups[0] * 10^12 + ... + groups[3]
    words = fields.view(np.uint64)
    words[:, 0] = _HEAD_WORD
    groups = np.empty((4, v.shape[0]), dtype=np.int64)
    _divmod(digits, 10**16, groups[0], groups[3])
    np.add(groups[0], ord("0"), out=fields[:, _LEAD], casting="unsafe")
    _divmod(groups[3], 10**8, groups[1], groups[3])
    _divmod(groups[1::2], 10**4, groups[0::2], groups[1::2])
    for k in range(4):
        words[:, _GROUPS.start + k] = _GROUP_WORD.take(groups[k], mode="clip")
    np.multiply(np.signbit(v), ord("-"), out=fields[:, _SIGN], casting="unsafe")
    x -= _X_MIN
    np.bitwise_or(_EXP_WORD.take(x, mode="clip"), tail, out=words[:, _EXP.start // 8])
    groups += _GROUP_ROW
    significant = _GROUP_SIG.take(groups, mode="clip").max(axis=0)
    words &= _KEEP.take(_LAYOUT_ROW.take(x, mode="clip") + significant, axis=0, mode="clip")
    if slow.size:
        fields[slow, :24] = _python_fields(v[slow])
        fields[slow, 24:_END] = 0


def _compact(buf: bytearray, a: int, b: int) -> bytes:
    """The bytes of the masked fields in buf[a:b], every NUL deleted: a copy
    of those bytes and bytes.translate take less time than
    bytearray.translate on buf."""
    return memoryview(buf)[a:b].tobytes().translate(None, b"\0")


def _tail(rows: int, width: int, commas: int) -> np.ndarray:
    """The terminator words of rows of width fields: "," after the first
    commas fields of a row, CRLF after the others."""
    tail = np.full((rows, width), _CRLF)
    tail[:, :commas] = _COMMA
    return tail.reshape(-1)


def csv_rows(m: np.ndarray, index: bool = False, start: int = 0):
    """Yield the CSV text of the rows of the 2-D float64 matrix m as ASCII
    bytes, in chunks of whole rows, each row CRLF-terminated, fields "%.17g",
    preceded by the row number as "%d", counting from start, when index is
    set."""
    n_rows, n_cols = m.shape
    width = n_cols + index
    rows = max(1, CHUNK_VALUES // width)
    block = np.empty((rows, width), dtype=np.float64)
    tail = _tail(rows, width, width - 1)
    buf = bytearray(rows * width * _WIDTH)
    fields = np.frombuffer(buf, dtype=np.uint8).reshape(-1, _WIDTH)
    for r0 in range(0, n_rows, rows):
        r = min(rows, n_rows - r0)
        # integers below 2^53 print the same under "%.17g" and "%d"
        if index:
            block[:r, 0] = np.arange(start + r0, start + r0 + r)
        block[:r, index:] = m[r0 : r0 + r]
        k = r * width
        _masked(block[:r].reshape(-1), tail[:k], fields[:k])
        yield _compact(buf, 0, k * _WIDTH)


def csv_pairs(lead: np.ndarray, m: np.ndarray):
    """Yield, per chunk of whole rows, the CSV text of each column of the
    2-D float64 matrix m after the float64 column lead, as one list of ASCII
    bytes, one per column of m: rows "lead,value", CRLF-terminated, fields
    "%.17g". Each chunk is formatted in one pass over its [rows x (1 +
    columns)] values, so the lead once for every column."""
    n_rows, n_cols = m.shape
    width = 1 + n_cols
    rows = max(1, CHUNK_VALUES // width)
    block = np.empty((rows, width), dtype=np.float64)
    tail = _tail(rows, width, 1)
    slots = np.empty((rows * width, _WIDTH), dtype=np.uint8)
    buf = bytearray(n_cols * rows * 2 * _WIDTH)
    flat = np.frombuffer(buf, dtype=np.uint8)
    for r0 in range(0, n_rows, rows):
        r = min(rows, n_rows - r0)
        block[:r, 0] = lead[r0 : r0 + r]
        block[:r, 1:] = m[r0 : r0 + r]
        k = r * width
        _masked(block[:r].reshape(-1), tail[:k], slots[:k])
        fields = slots[:k].reshape(r, width, _WIDTH)
        # each column's rows one after another, each row the lead's field,
        # less the byte columns that none of the chunk's lead fields keeps,
        # and the value's
        lead_fields = fields[:, 0]
        lead_fields = lead_fields[:, lead_fields.any(axis=0)]
        size = r * (lead_fields.shape[1] + _WIDTH)
        pairs = flat[: n_cols * size].reshape(n_cols, r, -1)
        pairs[:, :, : -_WIDTH] = lead_fields
        pairs[:, :, -_WIDTH :] = fields[:, 1:].transpose(1, 0, 2)
        yield [_compact(buf, c * size, (c + 1) * size) for c in range(n_cols)]
