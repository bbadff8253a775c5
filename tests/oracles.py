"""Independent oracles used by the tests.

These deliberately avoid the implementation paths they check: the impulse
response comes from polynomial long division of the transfer function, the
autocorrelation from a direct O(N^2) sum, primitivity from GF(2)
polynomial order, a maximum-length sequence one float at a time, CSV text from the csv module, the fixed-point cascade
from one scalar section update on Python ints per (sample, section), with no
wavefront, limbs or lanes, and a coefficient table's checks row by row.
settling_samples, a test helper with no caller in the package, lives here
too.
"""

import csv
import io
import math

import numpy as np

from carmodel.fixed import FixedRunStats, _checked_inputs, _requantize, _step_raw


# doubles whose %.17g text takes each unusual form: signed zero, the smallest
# subnormal, an exponent, the largest finite magnitudes, the ends of fixed
# notation, a 3-digit negative exponent, the smallest normal, and an exact
# tie at 17 digits
CSV_EDGE_FLOATS = [
    -0.0, 5e-324, 1e22, 1.7976931348623157e308, -1.7976931348623157e308,
    0.0, 1e16, 1e17, 1e-4, 1e-5, 1e-300, 2.2250738585072014e-308,
    123456789012345.625,
]


def mls_sequence(order: int, taps) -> np.ndarray:
    """One period of the +-1 sequence of the Fibonacci register on taps,
    seeded with all ones, stepped 2^order - 1 times: each new bit is the
    parity of the tapped bits, written as +1.0 or -1.0 as it is made."""
    mask = (1 << order) - 1
    tap_mask = sum(1 << (p - 1) for p in taps)
    state = mask
    out = np.empty(mask, dtype=np.float64)
    for i in range(mask):
        fb = bin(state & tap_mask).count("1") & 1
        state = ((state << 1) | fb) & mask
        out[i] = 1.0 if fb else -1.0
    return out


def csv_text(header, rows) -> str:
    """What csv.writer writes for the header and rows, with every float as
    format(v, ".17g")."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def coeff_table_py(text: str):
    """A coefficient table's rows after its header, read and checked one row
    at a time, in the order the checks are documented: the message of the
    first check that fails, or the (positions, sections as tuples, sample
    rate) of the design."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
    positions, sections, fs = [], [], None
    for row in rows:
        if len(row) != 9:
            return f"coefficient row has {len(row)} fields: {row!r}"
        try:
            idx, values = int(row[0]), [float(v) for v in row[1:]]
        except ValueError:
            return f"coefficient row has a field that is not a number: {row!r}"
        if not all(math.isfinite(v) for v in values):
            return f"section {idx}: non-finite field in {row!r}"
        x, cf, theta, r, a0, c0, h, g = values
        for broken, message in [
            (abs(a0 * a0 + c0 * c0 - 1.0) > 1e-12, "a0^2 + c0^2 != 1"),
            (not 0.0 < theta < math.pi, "theta_r out of (0, pi)"),
            (c0 <= 0, "c0 must be positive"),
            (not 0.0 < r <= 1.0, "r out of (0, 1]"),
            (g <= 0, "g must be positive"),
            (cf <= 0, "cf_hz must be positive"),
        ]:
            if broken:
                return f"section {idx}: {message}"
        row_fs = 2.0 * math.pi * cf / theta
        if fs is None:
            fs = row_fs
        elif abs(row_fs - fs) > 1e-6 * fs:
            return f"section {idx}: implied sample rate {row_fs} disagrees with {fs}"
        positions.append(x)
        sections.append((cf, theta, r, a0, c0, h, g, idx))
    if not sections:
        return "coefficient table has no data rows"
    if [s[-1] for s in sections] != list(range(len(sections))):
        return "section indices must be 0..N-1 in order, base first"
    return positions, sections, fs


def tf_impulse_response(tf, n: int) -> np.ndarray:
    """Power-series coefficients of the rational transfer function.

    Long division of (b0 + b1 q + b2 q^2) by (1 + a1 q + a2 q^2) with
    q = z^-1, i.e. the direct-form recurrence on the polynomial
    coefficients, independent of any state-space realization.
    """
    h = np.zeros(n, dtype=np.float64)
    b = (tf.b0, tf.b1, tf.b2)
    for i in range(n):
        acc = b[i] if i < 3 else 0.0
        if i >= 1:
            acc -= tf.a1_den * h[i - 1]
        if i >= 2:
            acc -= tf.a2_den * h[i - 2]
        h[i] = acc
    return h


def circular_autocorrelation_brute(seq: np.ndarray) -> np.ndarray:
    """Direct O(N^2) circular autocorrelation."""
    n = len(seq)
    return np.array(
        [sum(seq[i] * seq[(i - k) % n] for i in range(n)) for k in range(n)]
    )


# prime factors of 2^n - 1 for the supported register lengths
_MERSENNE_FACTORS = {
    2: (3,), 3: (7,), 4: (3, 5), 5: (31,), 6: (3, 7), 7: (127,),
    8: (3, 5, 17), 9: (7, 73), 10: (3, 11, 31), 11: (23, 89),
    12: (3, 5, 7, 13), 13: (8191,), 14: (3, 43, 127), 15: (7, 31, 151),
    16: (3, 5, 17, 257), 17: (131071,), 18: (3, 7, 19, 73), 19: (524287,),
    20: (3, 5, 11, 31, 41), 21: (7, 127, 337), 22: (3, 23, 89, 683),
    23: (47, 178481), 24: (3, 5, 7, 13, 17, 241),
}


def _gf2_mulmod(a: int, b: int, poly: int, deg: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= poly
    return r


def _gf2_powmod(e: int, poly: int, deg: int) -> int:
    # x^e mod poly
    result = 1
    base = 2  # the polynomial "x"
    while e:
        if e & 1:
            result = _gf2_mulmod(result, base, poly, deg)
        base = _gf2_mulmod(base, base, poly, deg)
        e >>= 1
    return result


def taps_are_primitive(order: int, taps) -> bool:
    """Primitivity of the feedback polynomial over GF(2).

    The recurrence a_t = XOR of a_{t-p} over tap positions p corresponds to
    the polynomial x^order + sum_p x^(order-p); it is primitive iff x has
    multiplicative order 2^order - 1 modulo that polynomial.
    """
    poly = 1 << order
    for p in taps:
        poly |= 1 << (order - p)
    n = (1 << order) - 1
    if _gf2_powmod(n, poly, order) != 1:
        return False
    for q in _MERSENNE_FACTORS[order]:
        if _gf2_powmod(n // q, poly, order) == 1:
            return False
    return True


def settling_samples(design, tol: float = 1e-9) -> int:
    """Samples to discard before a steady-state measurement.

    Uses the slowest pole radius: enough samples for r^n to fall below tol.
    Undamped sections (r = 1) never settle; they fall back to the 8/theta_r
    rule. Always at least 512.
    """
    n = 512
    for s in design.sections:
        if s.r < 1.0:
            need = int(math.ceil(math.log(tol) / math.log(s.r)))
        else:
            need = int(math.ceil(8.0 / s.theta_r))
        n = max(n, need)
    return n


def fixed_process_block_py(qdesign, state, samples_raw):
    """fixed.fixed_process_block as a loop of fixed._step_raw on Python ints
    per (sample, section): the same contract, exact at any word length."""
    xs = _checked_inputs(qdesign, state, samples_raw).tolist()
    n_sections = qdesign.n_sections
    sfmt = qdesign.state_format
    cfrac = qdesign.coeff_format.frac_bits

    out = np.empty((len(xs), n_sections), dtype=np.int64)
    section_sat = np.zeros(n_sections, dtype=np.int64)
    input_sat = 0

    w1 = state.w1_raw.tolist()
    w2 = state.w2_raw.tolist()
    coeffs = qdesign.coeffs_raw
    io_frac = qdesign.io_format.frac_bits

    for t, x_io in enumerate(xs):
        # entrance: io -> state format (exact when state is finer and wider)
        x, sat = _requantize(x_io, io_frac, sfmt)
        input_sat += sat
        for k in range(n_sections):
            w1n, w2n, y, events = _step_raw(
                coeffs[k], w1[k], w2[k], x, sfmt.frac_bits, cfrac, sfmt
            )
            w1[k] = w1n
            w2[k] = w2n
            if events:
                section_sat[k] += events
            out[t, k] = y
            x = y

    state.w1_raw[:] = w1
    state.w2_raw[:] = w2
    return out, FixedRunStats(section_saturations=section_sat, input_saturations=input_sat)
