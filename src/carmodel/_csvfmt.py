"""CSV rows of float64 values, every field byte-identical to "%.17g" % v.

Each value is scaled into [1e16, 1e17) in long double, z = |v| * 10^(16-X)
with X its decimal exponent, and rounded to the 17-digit integer D. The
table entry 10^(16-X) and the product each round once, so z is within
u(2+u) * exact < _REL_MARGIN * z of the exact product, u being the unit
roundoff of the long double. A value is ambiguous when the fraction of z
lies within that margin of one half, when z lies within it of 1e16, or when
D would round up to 1e17. Python formats the ambiguous values (exact ties
among them) and numpy every other one. Where the long double is no wider
than a double, the margin is at least one half and every value takes
Python's path.

A field is laid out in fixed byte columns: sign, "0.000", the 17 digits
each with a possible "." after it, "e+XXX" and the terminator. A table
indexed by the layout (fixed notation for -4 <= X < 17, or an exponent of
2 or 3 digits) and the number of significant digits says which bytes the
field keeps, and one compaction per chunk drops the others.

The arithmetic sticks to float64, int64 and long double ufuncs, with lookup
tables for the rest: the first call of each new numpy loop in a process
maps about 64 KB of numpy's code, which counts in the peak memory of a run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]

# About one cochleagram row of values per chunk.
CHUNK_VALUES = 1224

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
_REL_MARGIN = 3.0 * _unit_roundoff()

# The two decimal digits of 0..99; and for pair k (digits 2k+1 and 2k+2 of
# D) holding p, at 100k + p, the number of digits up to its last nonzero one
# (0 for p = 0).
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8).reshape(100, 2)
_PAIR_SIG = np.array(
    [0 if p == 0 else 2 * k + 3 - (p % 10 == 0) for k in range(8) for p in range(100)]
)
_PAIR_ROW = np.arange(0, 800, 100)[:, None]
_NOT_SPACE = np.array([i != ord(" ") for i in range(256)])

# Byte columns of a field: a "." may follow every digit, and the mask keeps
# the bytes of the field's layout.
_SIGN = 0  # "-"
_PREFIX = slice(1, 6)  # "0.000" before the digits when -4 <= X < 0
_DIGIT = slice(6, 39, 2)  # digit j at 6 + 2j, a possible "." after it
_EXP = slice(39, 44)  # "e+XXX"
_END = 44  # "," or "\r"
_LF = 45  # "\n" after the last field of a row
_WIDTH = 46

# Per decimal exponent X (from _X_MIN), its "e+XXX" bytes and its layout: 0-20
# for fixed notation with X = -4..16, 21 and 22 for e+XX and e+XXX.
_X_MIN = -330
_EXP_TEXT = np.frombuffer(
    b"".join(b"e%+04d" % x for x in range(_X_MIN, 330)), dtype=np.uint8
).reshape(-1, 5)
_LAYOUT = np.array(
    [x + 4 if -4 <= x <= 16 else 21 + (abs(x) >= 100) for x in range(_X_MIN, 330)]
)


def _keep_table() -> np.ndarray:
    """Which bytes a field writes, apart from the sign and the "\\n", per
    layout and number of significant digits (after stripping trailing
    zeros), in row layout * 18 + significant digits."""
    table = np.zeros((23, 18, _WIDTH), dtype=bool)
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
            row[_END] = True
    return table.reshape(-1, _WIDTH)


_KEEP = _keep_table()


def _python_fields(values: np.ndarray) -> np.ndarray:
    """Python's "%.17g" text of each value, space-padded to 24 bytes."""
    text = b"".join([b"%-24.17g" % f for f in values.tolist()])
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)


def _fields(v, row_end, text, keep) -> bytes:
    """The "%.17g" text of each value of v, each followed by "," or, where
    row_end is set, by "\\r\\n". text and keep are [len(v) x _WIDTH] scratch,
    with text's terminators already in place."""
    n = v.shape[0]
    a = np.abs(v)
    zero = a == 0
    odd = ~np.isfinite(a)  # "inf" and "nan" come from Python
    a[zero | odd] = 2.0  # any value whose z is clear of the edges
    x = np.log10(a).astype(np.int64)  # X or X + 1
    a = a.astype(np.longdouble)
    z = a * _POW10.take(16 - x - _P_MIN, mode="clip")
    x = np.where(z < 1e16, x - 1, x)
    z = a * _POW10.take(16 - x - _P_MIN, mode="clip")
    digits = z.astype(np.int64)  # floor: 0 < z < 2^63
    frac = z - digits
    margin = z * _REL_MARGIN
    ambiguous = abs(frac - 0.5) <= margin
    ambiguous |= z - margin < 1e16
    ambiguous |= z + 0.5 >= 1e17  # D would round up to 10^17; the sum is exact
    ambiguous |= odd
    digits = np.where(frac > 0.5, digits + 1, digits)
    digits[zero] = 0

    # digits = lead * 10^16 + pairs[0] * 10^14 + ... + pairs[7]
    lead, rest = np.divmod(digits, 10**16)
    pairs = np.empty((8, n), dtype=np.int64)
    for i, scale in enumerate((10**14, 10**12, 10**10, 10**8, 10**6, 10**4, 10**2)):
        pairs[i], rest = np.divmod(rest, scale)
    pairs[7] = rest
    significant = _PAIR_SIG.take(pairs + _PAIR_ROW).max(axis=0)
    x -= _X_MIN
    _KEEP.take(_LAYOUT.take(x, mode="clip") * 18 + significant, axis=0, out=keep)
    keep[:, _SIGN] = np.signbit(v)
    keep[:, _LF] = row_end

    text[:, _SIGN] = ord("-")
    text[:, _PREFIX] = np.frombuffer(b"0.000", dtype=np.uint8)
    text[:, _DIGIT.start] = _DIGITS2[:, 1].take(lead)
    text[:, _DIGIT.start + 1 : _EXP.start : 2] = ord(".")
    pair_digits = text[:, 8:40].reshape(n, 8, 4)[:, :, ::2]  # digits 1..16
    pair_digits[...] = _DIGITS2.take(pairs, axis=0).transpose(1, 0, 2)
    text[:, _EXP] = _EXP_TEXT.take(x, axis=0, mode="clip")

    if ambiguous.any():
        slow = np.flatnonzero(ambiguous)
        padded = _python_fields(v[slow])
        text[slow, :24] = padded
        keep[slow, :24] = _NOT_SPACE.take(padded)
        keep[slow, 24:_END] = False
    return np.compress(keep.reshape(-1), text.reshape(-1)).tobytes()


def csv_rows(m: np.ndarray, index: bool = False):
    """Yield the CSV text of the rows of the 2-D float64 matrix m as str
    chunks, each row CRLF-terminated, fields "%.17g", preceded by the row
    number as "%d" when index is set."""
    n_rows, n_cols = m.shape
    width = n_cols + index
    rows = max(1, CHUNK_VALUES // width)
    row_end = np.zeros((rows, width), dtype=bool)
    row_end[:, -1] = True
    block = np.empty((rows, width), dtype=np.float64)
    text = np.empty((rows * width, _WIDTH), dtype=np.uint8)
    text[:, _END] = ord(",")
    text[width - 1 :: width, _END] = ord("\r")
    text[:, _LF] = ord("\n")
    keep = np.empty((rows * width, _WIDTH), dtype=bool)
    for r0 in range(0, n_rows, rows):
        r = min(rows, n_rows - r0)
        # integers below 2^53 print the same under "%.17g" and "%d"
        if index:
            block[:r, 0] = np.arange(r0, r0 + r)
        block[:r, index:] = m[r0 : r0 + r]
        k = r * width
        chunk = _fields(block[:r].reshape(-1), row_end[:r].reshape(-1), text[:k], keep[:k])
        yield chunk.decode("ascii")
