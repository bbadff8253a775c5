"""CSV rows of float64 values, every field byte-identical to "%.17g" % v.

Digits. Each value is scaled into [1e16, 1e17) in long double,
z = |v| * 10^(16-X) with X its decimal exponent, and cut into its integer
part D and its fraction. X is first taken as floor(log10|v|), which can be
one off next to a power of ten; the few values whose D falls outside
[1e16, 1e17) are scaled once more with X moved by one. The table entry
10^(16-X) and the product each round once, so z = exact * (1 + d) with
|d| <= u(2+u) = _REL_MARGIN, u being the unit roundoff of the long double,
and z is within _REL_MARGIN * z / (1 - _REL_MARGIN) of the exact product.

Ambiguity. Python formats the ambiguous values (exact ties among them) and
numpy every other one. The tests run in float64 and int64:

- The fraction z - D is exact in long double; as a double f it is off by at
  most 2^-54, and f - 0.5 by at most 2^-55 more. The margin m = D * c, with
  c = _REL_MARGIN * (1 + 2^-40) + 2^-52 / 1e16, rounds twice in float64
  (D to a double, then the product) and D >= z - 1, so for z >= 1e16 it is
  at least _REL_MARGIN * z / (1 - _REL_MARGIN) + 2^-53: the factor
  1 + 2^-40 covers the two roundings and the division. A value is
  ambiguous when |f - 0.5| <= m; otherwise the exact product lies on the
  same side of D + 0.5 as z, and D + (f > 0.5) are its 17 digits.
- A value is ambiguous when D <= 10^16 or D >= 10^17 - 1. As long as
  _REL_MARGIN * z < 1 this flags every z < 1e16 + 1 (the exact product may
  lie below 1e16, X one too large) and every z >= 1e17 - 1/2 (the digits
  would round up to 10^17), which are the values that the tests
  z - margin < 1e16 and z + 0.5 >= 1e17 flag in long double; it also flags
  every D that the rescaling left outside [1e16, 1e17).

Where the long double is no wider than a double, the margin is at least one
half and every value takes Python's path.

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
the file, which the writers open in binary. A column that several files
share (the frequencies of every channel's response, say) is formatted once
by column_fields into masked fields, less the byte columns that no field
keeps; csv_rows copies such lead columns into each chunk of rows ahead of
the fields it formats, then compacts the chunk.

The arithmetic sticks to float64, int64 and long double ufuncs, with lookup
tables for the rest: the first call of each new numpy loop in a process
maps about 64 KB of numpy's code, which counts in the peak memory of a run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows", "column_fields"]

# Values per chunk of whole rows (at least one row): three cochleagram rows
# of 1224 sections. Each value takes 48 bytes of masked field and about 80
# more of temporaries while it is formatted, so a chunk's memory stays near
# 0.5 MB; a larger chunk raises the peak memory of a run for little speed.
CHUNK_VALUES = 4096

# 10^(16-X) for X from the largest double (308) to the smallest (-324)
_P_MIN, _P_MAX = -292, 340


def _unit_roundoff() -> float:
    """The unit roundoff of long double array arithmetic as it runs, which
    differs from finfo's where an x87 unit works at double precision."""
    one = np.ones(1, dtype=np.longdouble)
    u = one * 0.5
    while (one + u != one)[0]:
        u *= 0.5
    return float(u[0])


_POW10 = np.array([f"1e{p}" for p in range(_P_MIN, _P_MAX + 1)], dtype=np.longdouble)
_REL_MARGIN = _unit_roundoff() * (2.0 + _unit_roundoff())


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
_NUL_FOR_SPACE = bytes(range(256)).replace(b" ", b"\0")


def _python_fields(values: np.ndarray) -> np.ndarray:
    """Python's "%.17g" text of each value, NUL-padded to 24 bytes."""
    text = b"".join([b"%-24.17g" % f for f in values.tolist()]).translate(_NUL_FOR_SPACE)
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)


def _digits(v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and the decimal exponent X of each value of v, and
    the indices of the ambiguous values, which Python formats. Its
    temporaries, most of a chunk's memory, are gone when it returns."""
    a = np.abs(v)
    zero = a == 0
    odd = ~np.isfinite(a)  # "inf" and "nan" come from Python
    a[zero | odd] = 2.0  # any value whose z is clear of the edges
    x = np.floor(np.log10(a)).astype(np.int64)  # X, or one off
    a = a.astype(np.longdouble)
    # every index is in range: "clip" only skips take's buffered bounds check
    z = a * _POW10.take(16 - _P_MIN - x, mode="clip")
    digits = z.astype(np.int64)  # floor: 0 < z < 2^63
    off = np.subtract(digits, 10**16).view(np.uint64) >= 9 * 10**16
    if off.any():  # D outside [1e16, 1e17): move X by one and scale again
        i = np.flatnonzero(off)
        x[i] -= np.where(digits[i] < 10**16, 1, -1)
        z[i] = a[i] * _POW10.take(16 - _P_MIN - x[i], mode="clip")
        digits[i] = z[i].astype(np.int64)
    frac = (z - digits).astype(np.float64)
    margin = digits * (_REL_MARGIN * (1 + 2.0**-40) + 2.0**-52 / 1e16)
    ambiguous = abs(frac - 0.5) <= margin
    # D <= 10^16 or D >= 10^17 - 1
    ambiguous |= np.subtract(digits, 10**16 + 1).view(np.uint64) > 9 * 10**16 - 3
    ambiguous |= odd
    digits += frac > 0.5
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


def _buffer(rows: int, width: int) -> tuple[bytearray, np.ndarray]:
    """A [rows x width] uint8 array over a bytearray, which numpy fills in
    place and _compact copies from."""
    buf = bytearray(rows * width)
    return buf, np.frombuffer(buf, dtype=np.uint8).reshape(rows, width)


def _compact(buf: bytearray, n: int) -> bytes:
    """The bytes of the masked fields in the first n bytes of buf, every NUL
    deleted: a copy of those bytes and bytes.translate take less time than
    bytearray.translate on buf."""
    return memoryview(buf)[:n].tobytes().translate(None, b"\0")


def _tail(rows: int, width: int) -> np.ndarray:
    """The terminator words of rows of width fields: "," after each field,
    CRLF after a row's last."""
    tail = np.zeros((rows * width, 8), dtype=np.uint8)
    tail[:, _END - _EXP.start] = ord(",")
    tail[width - 1 :: width, _END - _EXP.start :] = np.frombuffer(b"\r\n\0", dtype=np.uint8)
    return tail.view(np.uint64).reshape(-1)


def column_fields(v: np.ndarray) -> np.ndarray:
    """The masked fields of the 1-D float64 column v, each ended by ",", as
    one uint8 row per value: a lead column for csv_rows, formatted
    once for any number of files. The byte columns that no field keeps are
    left out, so a column of small integers takes a few bytes a row, not
    _WIDTH."""
    n = v.shape[0]
    tail = _tail(1, 2)[:1]  # the "," word of a two-field row
    fields = np.empty((n, _WIDTH), dtype=np.uint8)
    for i in range(0, n, CHUNK_VALUES):
        _masked(v[i : i + CHUNK_VALUES], tail, fields[i : i + CHUNK_VALUES])
    return fields[:, fields.any(axis=0)]


def csv_rows(m: np.ndarray, index: bool = False, start: int = 0, lead=()):
    """Yield the CSV text of the rows of the 2-D float64 matrix m as ASCII
    bytes, in chunks of whole rows, each row CRLF-terminated, fields "%.17g",
    preceded by the row number as "%d", counting from start, when index is
    set, and before that by the fields of the columns in lead, each from
    column_fields and as long as m."""
    n_rows, n_cols = m.shape
    formatted = n_cols + index
    rows = max(1, CHUNK_VALUES // (len(lead) + formatted))
    block = np.empty((rows, formatted), dtype=np.float64)
    tail = _tail(rows, formatted)
    ends = np.cumsum([0] + [column.shape[1] for column in lead])
    buf, out = _buffer(rows, ends[-1] + formatted * _WIDTH)
    if lead:
        slots = np.empty((rows * formatted, _WIDTH), dtype=np.uint8)
    else:  # formatted in place
        slots = out.reshape(-1, _WIDTH)
    for r0 in range(0, n_rows, rows):
        r = min(rows, n_rows - r0)
        # integers below 2^53 print the same under "%.17g" and "%d"
        if index:
            block[:r, 0] = np.arange(start + r0, start + r0 + r)
        block[:r, index:] = m[r0 : r0 + r]
        k = r * formatted
        _masked(block[:r].reshape(-1), tail[:k], slots[:k])
        if lead:
            for column, a, b in zip(lead, ends, ends[1:]):
                out[:r, a:b] = column[r0 : r0 + r]
            out[:r, ends[-1] :] = slots[:k].reshape(r, -1)
        yield _compact(buf, out[:r].nbytes)
