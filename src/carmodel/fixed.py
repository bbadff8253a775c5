"""Bit-accurate fixed-point emulation of the cascade datapath.

Intermediate products are exact at full width and results are rounded once at
each architectural register write. The scalar path (fixed_step_section)
computes on Python integers, exact at any width. FixedStream runs the
cascade over a stream of samples with one kernel, on the float kernel's
wavefront schedule. Its lanes are int64 inside an envelope derived from the
word lengths (see _int64_exact), and numpy object arrays of Python integers
elsewhere, for example with a 64-bit state. On int64 lanes a register write
is rounded in one limb, its products taken modulo 2^64, whenever a bound
shows that the result fits the state format and one limb: for the w1' and
w2' lines a bound on the norm of every section's (w1, w2), carried from
tick to tick, since each section's w-map is a scaled rotation, or one
computed on the tick where that norm bound fails as it is seeded; for the
y line one computed on the tick. Every other write splits its
multiply-accumulate into two limbs at the round shift, where every
intermediate fits int64, and tests the result for overflow. Both give the
raw integers of the scalar path, and
fixed_process_block is one flush of a fresh FixedStream. The datapath
mirrors core.step_section:

    entrance    x_io -> x in state format (one requantize, exact when the
                state format is at least as fine and wide as the io format)
    w1' write   round( r*(a0*w1 - c0*w2) + x ) -> state format
    w2' write   round( r*(c0*w1 + a0*w2) )     -> state format
    y   write   round( g*(h*w2' + x) )         -> state format

Inter-stage values (tap outputs, which are also the next section's inputs)
are carried in the state format: the cascade builds up large resonant peaks,
so the narrow io format applies only at the input boundary. A format is two
widths, total and fraction bits. Every write into one rounds to nearest,
ties to even, and saturates; every overflow event is counted, so nothing is
clipped silently.

Default word lengths: 16/15 io (16-bit PCM input), 32/24 state (integer
headroom of +-128 for inter-stage peaks), 18/16 coefficients (all designed
coefficients have magnitude below 2).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from ._outfile import OutFile
from .design import CascadeDesign
from .errors import ConfigError, DesignError, FixedPointError

log = logging.getLogger(__name__)

__all__ = [
    "FixedFormat",
    "FixedValue",
    "QuantizedDesign",
    "QuantizedSectionCoeffs",
    "FixedSectionState",
    "FixedCascadeState",
    "FixedRunStats",
    "DEFAULT_IO_FORMAT",
    "DEFAULT_STATE_FORMAT",
    "DEFAULT_COEFF_FORMAT",
    "quantize",
    "to_real",
    "quantize_design",
    "dequantized_design",
    "fixed_step_section",
    "FixedStream",
    "fixed_process_block",
    "quantize_block",
    "to_real_block",
    "write_quantized_table",
    "read_quantized_table",
    "QUANTIZED_TABLE_HEADER",
]

@dataclass(frozen=True)
class FixedFormat:
    """Signed two's-complement fixed-point format: writes into it round to
    nearest, ties to even, and saturate."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= 64:
            raise FixedPointError(f"total_bits must be in [2, 64], got {self.total_bits}")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise FixedPointError(
                f"frac_bits must be in [0, total_bits-1], got {self.frac_bits}"
            )

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def lsb(self) -> float:
        return math.ldexp(1.0, -self.frac_bits)


DEFAULT_IO_FORMAT = FixedFormat(16, 15)
DEFAULT_STATE_FORMAT = FixedFormat(32, 24)
DEFAULT_COEFF_FORMAT = FixedFormat(18, 16)


@dataclass(frozen=True)
class FixedValue:
    raw: int
    format: FixedFormat

    def __post_init__(self):
        if not self.format.raw_min <= self.raw <= self.format.raw_max:
            raise FixedPointError(
                f"raw value {self.raw} does not fit {self.format.total_bits}-bit format"
            )


def _round_shift(value: int, shift: int) -> int:
    """Round value / 2^shift to nearest, ties to even; negative shift is an
    exact left shift."""
    if shift <= 0:
        return value << (-shift)
    half = 1 << (shift - 1)
    frac = value & ((1 << shift) - 1)
    base = value >> shift
    if frac > half or (frac == half and (base & 1)):
        base += 1
    return base


def _saturate(raw: int, fmt: FixedFormat) -> tuple[int, bool]:
    """raw clipped to the format's range, and whether it had to be."""
    lo, hi = fmt.raw_min, fmt.raw_max
    if lo <= raw <= hi:
        return raw, False
    return (hi if raw > hi else lo), True


def _requantize(raw: int, from_frac: int, fmt: FixedFormat) -> tuple[int, bool]:
    return _saturate(_round_shift(raw, from_frac - fmt.frac_bits), fmt)


def quantize(value: float, fmt: FixedFormat) -> FixedValue:
    """Convert a real value into the format, rounded to nearest, ties to
    even, and saturated. NaN is rejected; infinities clamp to the format
    extremes."""
    if math.isnan(value):
        raise FixedPointError("cannot quantize NaN")
    if math.isinf(value):
        return FixedValue(fmt.raw_max if value > 0 else fmt.raw_min, fmt)
    try:
        scaled = math.ldexp(value, fmt.frac_bits)  # exact: power-of-two scale
    except OverflowError:
        raise FixedPointError(
            f"{value!r} overflows the {fmt.frac_bits}-bit fraction scale"
        ) from None
    raw, _ = _saturate(round(scaled), fmt)  # Python round() is round-half-to-even
    return FixedValue(raw, fmt)


def to_real(v: FixedValue) -> float:
    """Real value raw / 2^frac_bits (exact while raw fits a double)."""
    return math.ldexp(v.raw, -v.format.frac_bits)


class QuantizedSectionCoeffs(NamedTuple):
    r_raw: int
    a0_raw: int
    c0_raw: int
    h_raw: int
    g_raw: int


_COEFF_NAMES = ("r", "a0", "c0", "h", "g")


@dataclass(frozen=True)
class QuantizedDesign:
    """A cascade design with coefficients frozen to raw integers, each checked
    on construction to be a value of coeff_format (never clipped)."""

    design: CascadeDesign
    coeff_format: FixedFormat
    state_format: FixedFormat
    io_format: FixedFormat
    coeffs_raw: tuple[QuantizedSectionCoeffs, ...]

    def __post_init__(self):
        fmt = self.coeff_format
        for i, q in enumerate(self.coeffs_raw):
            for name, raw in zip(_COEFF_NAMES, q):
                if not fmt.raw_min <= raw <= fmt.raw_max:
                    raise DesignError(
                        f"section {i}: coefficient {name} (raw {raw}) does not fit "
                        f"{fmt.total_bits}/{fmt.frac_bits} format"
                    )

    @property
    def n_sections(self) -> int:
        return len(self.coeffs_raw)

    @cached_property
    def lane_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only int64 operands of the wavefront kernel, built on first
        use, in section-reversed lanes: [n x 2] pairs (r, r), (a0, a0) and
        (-c0, c0), and vectors h and g."""
        r, a0, c0, h, g = np.array(self.coeffs_raw, dtype=np.int64)[::-1].T
        arrays = (
            np.stack([r, r], axis=1),
            np.stack([a0, a0], axis=1),
            np.stack([-c0, c0], axis=1),
            h.copy(),
            g.copy(),
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays


def quantize_design(
    design: CascadeDesign,
    coeff_format: FixedFormat = DEFAULT_COEFF_FORMAT,
    state_format: FixedFormat = DEFAULT_STATE_FORMAT,
    io_format: FixedFormat = DEFAULT_IO_FORMAT,
) -> QuantizedDesign:
    """Quantize all section coefficients round-to-nearest into coeff_format."""
    frac = coeff_format.frac_bits
    rows = tuple(
        QuantizedSectionCoeffs(*(round(math.ldexp(v, frac)) for v in (s.r, s.a0, s.c0, s.h, s.g)))
        for s in design.sections
    )
    return QuantizedDesign(design, coeff_format, state_format, io_format, rows)


def dequantized_design(qdesign: QuantizedDesign) -> CascadeDesign:
    """The float design whose coefficients equal the quantized values exactly.

    This is the reference the fixed datapath converges to as word lengths
    grow, and the baseline for parity SNR: it isolates arithmetic word-length
    effects from the (separate) coefficient quantization.
    """
    frac = qdesign.coeff_format.frac_bits
    sections = tuple(
        s._replace(r=math.ldexp(q.r_raw, -frac), a0=math.ldexp(q.a0_raw, -frac),
                   c0=math.ldexp(q.c0_raw, -frac), h=math.ldexp(q.h_raw, -frac),
                   g=math.ldexp(q.g_raw, -frac))
        for s, q in zip(qdesign.design.sections, qdesign.coeffs_raw)
    )
    return replace(qdesign.design, sections=sections)


class FixedSectionState(NamedTuple):
    w1_raw: int = 0
    w2_raw: int = 0


class FixedCascadeState:
    """Raw (w1, w2) pairs as int64 arrays, mutated in place, and nothing
    else: overflow counts come from FixedStream.stats. int64 holds any value
    of a format up to 64 bits."""

    def __init__(self, n_sections: int):
        if n_sections < 1:
            raise ConfigError(f"n_sections must be >= 1, got {n_sections}")
        self.w1_raw = np.zeros(n_sections, dtype=np.int64)
        self.w2_raw = np.zeros(n_sections, dtype=np.int64)

    @property
    def n_sections(self) -> int:
        return self.w1_raw.shape[0]


@dataclass(frozen=True)
class FixedRunStats:
    """Overflow accounting for one fixed_process_block call."""

    section_saturations: np.ndarray
    input_saturations: int

    @property
    def total(self) -> int:
        return int(self.section_saturations.sum()) + self.input_saturations


def _step_raw(
    q: QuantizedSectionCoeffs,
    w1: int,
    w2: int,
    x: int,
    x_frac: int,
    cfrac: int,
    sfmt: FixedFormat,
) -> tuple[int, int, int, int]:
    """One section update on raw integers; x and y are in state format
    unless x_frac says otherwise. Returns (w1', w2', y, overflow_events)."""
    acc_frac = 2 * cfrac + sfmt.frac_bits
    events = 0

    acc = q.r_raw * (q.a0_raw * w1 - q.c0_raw * w2)
    acc += _round_shift(x, x_frac - acc_frac)
    w1n, sat = _requantize(acc, acc_frac, sfmt)
    events += sat

    acc = q.r_raw * (q.c0_raw * w1 + q.a0_raw * w2)
    w2n, sat = _requantize(acc, acc_frac, sfmt)
    events += sat

    inner_frac = cfrac + sfmt.frac_bits
    acc = q.h_raw * w2n
    acc += _round_shift(x, x_frac - inner_frac)
    y, sat = _requantize(q.g_raw * acc, acc_frac, sfmt)
    events += sat

    return w1n, w2n, y, events


def fixed_step_section(
    qdesign: QuantizedDesign,
    section_index: int,
    state: FixedSectionState,
    x: FixedValue,
) -> tuple[FixedSectionState, FixedValue, int]:
    """Advance one quantized section; returns (state', y, overflow_events).

    y is produced in the state format, which is also the inter-stage format.
    """
    q = qdesign.coeffs_raw[section_index]
    w1n, w2n, y, events = _step_raw(
        q,
        state.w1_raw,
        state.w2_raw,
        x.raw,
        x.format.frac_bits,
        qdesign.coeff_format.frac_bits,
        qdesign.state_format,
    )
    return FixedSectionState(w1n, w2n), FixedValue(y, qdesign.state_format), events


def quantize_block(samples: Sequence[float] | np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Vectorized quantize of a float block to raw integers (int64).

    Matches quantize() for every element (round-half-even, then saturate).
    Saturation is applied to the rounded doubles, before the cast to int64,
    so formats up to 64 bits do not overflow the cast. Like quantize(), a
    value whose scaled form overflows a double is an error.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size and not np.isfinite(x).all():
        raise FixedPointError("samples contain non-finite values")
    return _quantize_finite(x, fmt)[0]


def _quantize_finite(x: np.ndarray, fmt: FixedFormat) -> tuple[np.ndarray, int]:
    """quantize_block of finite doubles, and how many of them saturated."""
    with np.errstate(over="ignore"):
        scaled = x * math.ldexp(1.0, fmt.frac_bits)  # exact power-of-two scale
    if scaled.size and not np.isfinite(scaled).all():
        raise FixedPointError(f"samples overflow the {fmt.frac_bits}-bit fraction scale")
    raw = np.round(scaled)  # ties to even, same as round()
    limit = math.ldexp(1.0, fmt.total_bits - 1)  # -raw_min, raw_max + 1
    top = raw >= limit
    overflows = int(np.count_nonzero(top | (raw < -limit)))
    raw = np.where(top, 0.0, np.maximum(raw, -limit)).astype(np.int64)
    raw[top] = fmt.raw_max  # not a double above 53 bits
    return raw, overflows


def to_real_block(raw: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Raw integer block to real values (vectorized to_real)."""
    return raw.astype(np.float64) * math.ldexp(1.0, -fmt.frac_bits)


def _checked_inputs(
    qdesign: QuantizedDesign, state: FixedCascadeState, samples_raw
) -> np.ndarray:
    """The raw samples as a 1-D int64 array, each a value of the io format."""
    if state.n_sections != qdesign.n_sections:
        raise ConfigError(
            f"state has {state.n_sections} sections, design has {qdesign.n_sections}"
        )
    xs = np.asarray(samples_raw)
    if xs.ndim != 1 or (xs.size and not np.issubdtype(xs.dtype, np.integer)):
        raise ConfigError(f"raw samples must be 1-D integers, got {xs.dtype} {xs.shape}")
    out = (xs < qdesign.io_format.raw_min) | (xs > qdesign.io_format.raw_max)
    if out.any():
        raise ConfigError(f"input raw {xs[out][0]} does not fit the io format")
    return xs.astype(np.int64, copy=False)


# The int64 lanes' exact envelope. Let cb, sb be the coefficient and state
# widths, cf the coefficient fraction and s = 2 * cf the round shift of every
# register write. With every coefficient, state, input and output a value of
# its format, |c| <= 2^(cb-1) and |w|, |x| <= 2^(sb-1). Each line is
# round(c * D + (x << s)), whose exact form splits it into two limbs at s:
#   each product in D      <= 2^(cb+sb-2)      a0*w1, c0*w2, h*w2', x << cf
#   D                      <= 2^(cb+sb-1)
#   c * (D >> s)           <= 2^(2cb+sb-2-s)   high limb
#   c * (D & (2^s - 1))    <  2^(cb-1+s)       low limb
#   high limb + x + (low limb >> s) + rounding carry
# cb + sb <= 63, 2cb + sb - s <= 63 and cb + s <= 62 hold D to 2^62, both
# limbs to 2^61 and the final sum below 2^62 + 2, so no int64 operation
# overflows. The default 18/16 coefficient and 32/24 state formats give 50,
# 36 and 50. The one-limb form takes c * D + (x << s) modulo 2^64, as int64
# arithmetic wraps, and rounds that: exact whenever the rounded result lies
# in [-2^(63-s), 2^(63-s)), which _lane_kernel checks with a bound per tick
# and line (with the defaults, s = 32 and that range is the state format).
# The int64 entrance takes io raw values through doubles, exact up to an io
# width ib of 53 bits, which no PCM input exceeds. Outside the envelope (a
# 64-bit state, a small cf with wide words, a state value out of format)
# FixedStream runs the same kernel on object lanes of Python ints, exact form
# only. QuantizedDesign and _checked_inputs hold coefficients and inputs to
# format.
def _int64_exact(qdesign: QuantizedDesign, state: FixedCascadeState) -> bool:
    cb = qdesign.coeff_format.total_bits
    sb = qdesign.state_format.total_bits
    s = 2 * qdesign.coeff_format.frac_bits
    ib = qdesign.io_format.total_bits
    if cb + sb > 63 or 2 * cb + sb - s > 63 or cb + s > 62 or ib > 53:
        return False
    sfmt = qdesign.state_format
    return all(
        sfmt.raw_min <= w.min() and w.max() <= sfmt.raw_max
        for w in (state.w1_raw, state.w2_raw)
    )


def _lane_kernel(qdesign: QuantizedDesign, w: np.ndarray, sat: np.ndarray,
                 counts: list, bounds: list):
    """The cascade as a Wavefront kernel on lanes of w's dtype, int64 or
    object, bound to the section-reversed state pairs w [n x 2] and int64
    overflow counts sat, both updated in place, and to scratch of its own.
    Returns the kernel and its lane arrays, for the Wavefront to slice. It
    is called as kernel(ticks, x_in), with x_in >= |x| of every entrance
    sample of the call, and adds its ticks, those whose w-lines and whose
    y-line took the exact form, and its reductions of the state (seeds of
    N, below) to counts[0], [1], [2] and [3]. bounds carries from one call
    to the next the bound on the last tick's |y|, N (0 when unknown) and the
    peak |acc| of the last exact w-lines; (0, 0, 0) holds on an empty
    wavefront, where no y is in flight.

    A register write rounds acc = c * D (plus x << s on the w1' line) by the
    round shift s. Its exact form, on object lanes and wherever the bounds
    below fail, splits acc into two limbs at s: acc = hi * 2^s + lo with
    hi = c * (D >> s) + x and lo = c * (D & (2^s - 1)), so floor(acc / 2^s)
    = hi + (lo >> s) and the rounding remainder is lo mod 2^s; then the
    two-sided overflow test, which saturates. That is _step_raw on object
    lanes, and on int64 lanes within _int64_exact's envelope.

    The one-limb form, on int64 lanes, rounds acc modulo 2^64 itself, ties
    to even as (acc + ((acc >> s) & 1) + 2^(s-1) - 1) >> s. A line takes it
    when a bound on its result is at most lim = min(raw_max, 2^(63-s) - 1):
    the result is then in format and the wraparound cancels. X >= |x| of
    every lane on the tick is the larger of x_in and the previous tick's
    bound on |y| (its peak |acc| on the exact form).

    The w-lines' bound is N, an upper bound on every lane's norm
    ||(w1, w2)||_2, carried as a Python int from tick to tick. Section k's
    raw w-map [[ra, -rc], [rc, ra]] (ra = r*a0, rc = r*c0) is a rotation
    scaled by sqrt(ra^2 + rc^2) <= rho = max_k isqrt(ra^2 + rc^2) + 1. The
    shift rho * N >> s drops less than 1, the input adds (x, 0) and the two
    roundings a vector of norm at most sqrt(2) < 2, so a tick's results have
    norm below N' = max(N, (rho * N >> s) + 1 + X + 2). The max keeps N over
    the lanes the tick does not write: those yet to enter on fill ticks and
    those already left on drain and sliding ticks. When N' <= lim both
    w-lines take the one-limb form, with no reduction. N is seeded as
    isqrt(2 * P^2) + 1 from P = max|w| over the whole [n x 2] state (one
    absolute and one argmax, counted as a reduction) only when it is unknown
    (on a fresh wavefront, or after an exact w write, which may saturate)
    or when N' > lim. Where N' > lim right after a seed, the tick
    tries its own bound on both w-lines, (P * G >> s) + X + 2 with
    G = max_k(|r*a0| + |r*c0|). G is at most sqrt(2) * rho, the factor the
    seed carries into the chain, and less unless a section turns by pi/4
    at the largest scale, so this bound passes on a larger P; N is unknown
    after such a tick. rho, G and the y-line's max|g| come from Python
    ints, since int64 products of wide coefficients wrap. The y-line's
    bound is the tick's own (max|D| * max|g| >> s) + 2: a bound on |y| derived
    from N would hold every lane's worst case, loosen X and so end the
    chain sooner.

    A skipped bound only sends a line to the exact form, so a line skips it
    where it would fail: neither line computes it while X + 3 > lim (after a
    y that did not fit one limb), where the w-lines' cannot pass and the
    y-line's never did on the saturating and 40/32 streams measured; nor is
    N seeded after an exact w write whose peak |acc| was above lim, which
    fails again unless its lane leaves.

    The w1' and w2' lines run as the two columns of one contiguous [m x 2]
    write, in place in w, on (r, r), (a0, a0) and (-c0, c0) in the exact
    form and on ra = r * (a0, a0) and rq = r * (-c0, c0) in the one-limb
    form; the y line is computed in place in the wavefront's buffer.
    """
    n, lanes = qdesign.n_sections, w.dtype
    sfmt = qdesign.state_format
    cfrac = qdesign.coeff_format.frac_bits
    nearest = cfrac > 0  # a round shift of 0 writes exactly
    rmin, rmax = sfmt.raw_min, sfmt.raw_max
    shift, coeffs = 2 * cfrac, qdesign.coeffs_raw
    rho = max(math.isqrt((c.r_raw * c.a0_raw) ** 2 + (c.r_raw * c.c0_raw) ** 2)
              for c in coeffs) + 1
    g_max = max(abs(c.g_raw) for c in coeffs)
    gain = max(abs(c.r_raw * c.a0_raw) + abs(c.r_raw * c.c0_raw) for c in coeffs)
    lim = min(rmax, (1 << (63 - shift)) - 1) if lanes == np.int64 else 0
    # scalars as 0-d arrays of the lanes' dtype: a ufunc converts a Python int
    # on every call, and int64 operands would overflow object lanes
    mask_int = (1 << shift) - 1
    s, mask, half, one, cf = (
        np.array(v, dtype=lanes) for v in (shift, mask_int, mask_int >> 1, 1, cfrac)
    )
    mul, add, band = np.multiply, np.add, np.bitwise_and
    rshift, lshift, absolute = np.right_shift, np.left_shift, np.absolute

    def finish(c, d, t, acc, sat):
        """acc (holding c * (d >> s), plus x) += the low limb c * (d mod 2^s)
        >> s and the rounding carry; d and t are used up. Then the overflow
        check: the peak of |acc| against raw_max, and only where that fires
        the exact two-sided test, which raw_min itself passes, and the clip.
        Overflows are counted into sat. Returns the peak |acc| before it."""
        band(d, mask, d)
        mul(d, c, d)
        rshift(d, s, t)
        add(acc, t, acc)
        if nearest:
            # ties to even: the carry out of rem + parity + 2^(s-1) - 1
            band(d, mask, d)
            band(acc, one, t)
            add(d, t, d)
            add(d, half, d)
            rshift(d, s, d)
            add(acc, d, acc)
        absolute(acc, t)
        top = t.item(t.argmax())
        if top > rmax:
            over = (acc < rmin) | (acc > rmax)
            sat += over.sum(axis=1) if over.ndim == 2 else over
            np.clip(acc, rmin, rmax, out=acc)
        return top

    def one_limb(acc, t, out):
        """out = acc rounded by s, acc taken modulo 2^64; acc and t are used
        up."""
        if nearest:
            rshift(acc, s, t)
            band(t, one, t)
            add(acc, t, acc)
            add(acc, half, acc)
        rshift(acc, s, out)

    # Row k of the [n x 2] arrays holds section k's w1' and w2' lines:
    # D = p * w + q * (w2, w1) is (a0*w1 - c0*w2, a0*w2 + c0*w1).
    rr, p, q, h, g = (a.astype(lanes, copy=False) for a in qdesign.lane_arrays)
    ra, rq = rr * p, rr * q  # modulo 2^64 on int64 lanes
    dd, tt = np.empty((n, 2), dtype=lanes), np.empty((n, 2), dtype=lanes)
    dv, tv = np.empty(n, dtype=lanes), np.empty(n, dtype=lanes)

    def kernel(ticks, x_in):
        y_top, norm, w_top = bounds
        width = tick = exact_w = exact_y = seeds = 0
        x_max = max(y_top, x_in)  # X
        numbered = enumerate(ticks, 1)
        for tick, (x, y, (rrk, pk, q0, q1, rak, rq0, rq1, hk, gk, satk, wk, w1k, w2k)) in numbered:
            if len(y) != width:
                width = len(y)
                dk, tk, dvk, tvk = dd[:width], tt[:width], dv[:width], tv[:width]
                d0, t0, t1 = dk[:, 0], tk[:, 0], tk[:, 1]
            # (w1', w2') = round(r * D + (x << s, 0)), in place in w
            reach = x_max + 3 <= lim
            fits = False
            if reach and norm:
                norm = max(norm, (rho * norm >> shift) + x_max + 3)
                fits = norm <= lim
            if reach and not fits and w_top <= lim:
                seeds += 1
                absolute(w, tt)
                top = tt.item(tt.argmax())
                norm = math.isqrt(2 * top * top) + 1
                norm = max(norm, (rho * norm >> shift) + x_max + 3)
                fits = norm <= lim
                if not fits and (top * gain >> shift) + x_max + 2 <= lim:
                    fits, norm = True, 0  # the tick's own bound; N unknown after it
            if fits:
                mul(rak, wk, dk)
                mul(rq0, w2k, t0)
                mul(rq1, w1k, t1)
                add(dk, tk, dk)
                lshift(x, s, tvk)
                add(d0, tvk, d0)
                one_limb(dk, tk, wk)
                w_top = 0
            else:
                exact_w += 1
                mul(pk, wk, dk)
                mul(q0, w2k, t0)
                mul(q1, w1k, t1)
                add(dk, tk, dk)
                rshift(dk, s, tk)
                mul(rrk, tk, wk)
                add(w1k, x, w1k)
                w_top, norm = finish(rrk, dk, tk, wk, satk), 0
            # y = round(g * D) with D = h * w2' + (x << cf), in place in y
            mul(hk, w2k, dvk)
            lshift(x, cf, tvk)
            add(dvk, tvk, dvk)
            y_top = lim + 1
            if reach:
                absolute(dvk, tvk)
                y_top = (tvk.item(tvk.argmax()) * g_max >> shift) + 2
            if y_top <= lim:
                mul(gk, dvk, dvk)
                one_limb(dvk, tvk, y)
            else:
                exact_y += 1
                rshift(dvk, s, tvk)
                mul(gk, tvk, y)
                y_top = min(finish(gk, dvk, tvk, y, satk), rmax + 1)
            x_max = max(y_top, x_in)
        bounds[:] = y_top, norm, w_top
        counts[0] += tick
        counts[1] += exact_w
        counts[2] += exact_y
        counts[3] += seeds

    return kernel, (rr, p, q[:, 0], q[:, 1], ra, rq[:, 0], rq[:, 1], h, g, sat, w, w[:, 0], w[:, 1])


class FixedStream:
    """The quantized cascade over a stream of io-format raw samples, as
    core.CascadeStream is for the float one, with the same raw outputs
    however the input is split: one kernel, on int64 lanes inside
    _int64_exact's envelope and on object lanes outside it. Each call's
    entrance quantizes its samples into the state format. A flush writes
    back only (w1_raw, w2_raw), sets stats to the overflow counts since the
    last, and logs at info level the ticks since the last, how many of them
    wrote their w-lines and their y-line in the kernel's exact form, and
    how many reductions of the state seeded its w-lines' bound. The
    kernel's bounds carry from one push to the next, and a flush resets
    them with the wavefront.
    """

    def __init__(self, qdesign: QuantizedDesign, state: FixedCascadeState):
        _checked_inputs(qdesign, state, ())  # the section count
        self.qdesign, self.state, self.n_sections = qdesign, state, qdesign.n_sections
        self.stats: FixedRunStats | None = None
        self._sat = np.zeros(self.n_sections, dtype=np.int64)
        self._input_sat = 0
        self._counts = [0, 0, 0, 0]  # ticks, exact w-lines, exact y-lines, seeds
        self._bounds = [0, 0, 0]  # _lane_kernel's, as on an empty wavefront
        lanes = np.dtype(np.int64 if _int64_exact(qdesign, state) else object)
        log.info("fixed kernel: %d sections on %s lanes", self.n_sections, lanes)
        self._w = np.stack([state.w1_raw, state.w2_raw], axis=1)[::-1].astype(lanes)
        self._kernel, kernel_lanes = _lane_kernel(
            qdesign, self._w, self._sat[::-1], self._counts, self._bounds)
        self._front = _kernels.Wavefront(self.n_sections, kernel_lanes, dtype=lanes)

    def push(self, samples_raw: Sequence[int] | np.ndarray) -> np.ndarray:
        """Run one tick per sample; returns the raw rows they completed, a new
        int64 array."""
        return self._run(samples_raw, drain=False)

    def flush(self, samples_raw: Sequence[int] | np.ndarray = ()) -> np.ndarray:
        """Push samples, complete every row in flight, write the state back
        and return the rows not yet returned as int64: a view of the buffer
        on int64 lanes, a new array on object lanes."""
        rows = self._run(samples_raw, drain=True)
        self.state.w1_raw[:], self.state.w2_raw[:] = self._w[::-1].T
        self.stats = FixedRunStats(self._sat.copy(), self._input_sat)
        log.info("fixed flush: %d ticks, %d exact w-lines, %d exact y-lines, "
                 "%d headroom reductions", *self._counts)
        self._sat[:] = self._input_sat = 0
        self._counts[:] = (0, 0, 0, 0)
        self._bounds[:] = (0, 0, 0)
        return rows

    def _run(self, samples_raw, drain: bool) -> np.ndarray:
        xs = _checked_inputs(self.qdesign, self.state, samples_raw)
        io, sfmt = self.qdesign.io_format, self.qdesign.state_format
        if self._front.dtype == object:  # on Python ints, exact at any width
            entered = [_requantize(x, io.frac_bits, sfmt) for x in xs.tolist()]
            samples = np.array([raw for raw, _ in entered], dtype=object)
            input_sat = sum(sat for _, sat in entered)
        else:  # through doubles, exact within the envelope
            samples, input_sat = _quantize_finite(xs * io.lsb, sfmt)
        self._input_sat += input_sat
        x_in = int(np.absolute(samples).max(initial=0))
        run = self._front.flush if drain else self._front.push
        rows = run(samples, lambda ticks: self._kernel(ticks, x_in))
        return rows.astype(np.int64, copy=False)  # every state-format value fits


def fixed_process_block(
    qdesign: QuantizedDesign,
    state: FixedCascadeState,
    samples_raw: Sequence[int] | np.ndarray,
) -> tuple[np.ndarray, FixedRunStats]:
    """Propagate io-format raw samples through the quantized cascade.

    Returns (raw tap outputs [n_samples x n_sections] in state format,
    overflow statistics for this call). The datapath is integer-only, so
    identical raw inputs produce identical raw outputs on any platform.
    This is one flush of a fresh FixedStream.
    """
    stream = FixedStream(qdesign, state)
    return stream.flush(samples_raw), stream.stats


# ---------------------------------------------------------------------------
# Quantized coefficient file format: the raw integers are the interchange
# truth, one row per (section, coefficient).
# ---------------------------------------------------------------------------

QUANTIZED_TABLE_HEADER = ("section", "coeff_name", "raw_int", "total_bits", "frac_bits")


def write_quantized_table(qdesign: QuantizedDesign, path) -> None:
    # the rows csv.writer gives: no field needs quoting
    fmt = qdesign.coeff_format
    rows = [f"{i},{name},{raw},{fmt.total_bits},{fmt.frac_bits}\r\n"
            for i, q in enumerate(qdesign.coeffs_raw) for name, raw in zip(_COEFF_NAMES, q)]
    with OutFile(path) as f:
        f.write((",".join(QUANTIZED_TABLE_HEADER) + "\r\n" + "".join(rows)).encode("ascii"))


def _ranges(numbers: list[int]) -> str:
    """Sorted integers as runs: [0, 1, 2, 5, 7, 8] -> "0-2, 5, 7-8"."""
    runs: list[list[int]] = []
    for k in numbers:
        if runs and k == runs[-1][1] + 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def read_quantized_table(
    path,
    design: CascadeDesign,
    state_format: FixedFormat = DEFAULT_STATE_FORMAT,
    io_format: FixedFormat = DEFAULT_IO_FORMAT,
) -> QuantizedDesign:
    """Build a QuantizedDesign of design from a file of raw coefficient rows,
    one row per (section, coefficient) of every section."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != QUANTIZED_TABLE_HEADER:
            raise DesignError(
                f"bad quantized-table header: expected {','.join(QUANTIZED_TABLE_HEADER)}"
            )
        fmt = None
        rows: dict[int, dict[str, int]] = {}
        for row in reader:
            if not row:
                continue
            try:
                section, raw, total, frac = (int(row[i]) for i in (0, 2, 3, 4))
            except (ValueError, IndexError):
                raise DesignError(
                    f"quantized-table line {reader.line_num}: bad row {row!r}"
                ) from None
            name = row[1].strip()
            where = f"quantized-table line {reader.line_num}: section {section}"
            try:
                row_fmt = FixedFormat(total, frac)
            except FixedPointError as e:
                raise DesignError(f"{where}: {e}") from None
            if fmt is None:
                fmt = row_fmt
            elif row_fmt != fmt:
                raise DesignError(f"{where}: inconsistent coefficient format")
            if name not in _COEFF_NAMES:
                raise DesignError(f"{where}: unknown coefficient {name!r}")
            coeffs = rows.setdefault(section, {})
            if name in coeffs:
                raise DesignError(f"{where} coefficient {name} repeated")
            coeffs[name] = raw
    if fmt is None:
        raise DesignError("quantized table has no data rows")
    expected = set(range(design.n_sections))
    if rows.keys() != expected:
        gaps = [f"{what} sections {_ranges(sorted(which))}"
                for what, which in (("missing", expected - rows.keys()),
                                    ("extra", rows.keys() - expected)) if which]
        raise DesignError(
            f"quantized table for a {design.n_sections}-section design: {'; '.join(gaps)}"
        )
    packed = []
    for i in range(design.n_sections):
        row = rows[i]
        missing = [n for n in _COEFF_NAMES if n not in row]
        if missing:
            raise DesignError(f"section {i}: missing coefficients {missing}")
        packed.append(QuantizedSectionCoeffs(*(row[n] for n in _COEFF_NAMES)))
    return QuantizedDesign(design, fmt, state_format, io_format, tuple(packed))
