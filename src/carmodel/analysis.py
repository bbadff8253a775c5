"""Measurement instruments: maximum-length sequences, impulse and frequency
responses, and float/fixed parity reports.

The MLS path measures a linear system's impulse response by driving it with
a periodic pseudo-random +-1 sequence and circularly cross-correlating one
steady-state output period with the stimulus. Because the sequence's
circular autocorrelation takes exactly two values (N at zero lag, -1
elsewhere), the correlation can be inverted exactly:

    h[k] = (R_ys[k] + sum_j R_ys[j]) / (N + 1)

which recovers the period-folded impulse response with no bias. The DFT of
that full period samples the true frequency response exactly at the bin
frequencies, so measured and analytic responses can be compared tightly.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._csvfmt import csv_pairs
from .design import CascadeDesign, transfer_function
from .errors import AnalysisError, ConfigError

__all__ = [
    "DEFAULT_MLS_TAPS",
    "MlsConfig",
    "ResponseResult",
    "ParityReport",
    "mls_generate",
    "mls_warmup_periods",
    "impulse_response",
    "frequency_response_measured",
    "frequency_response_analytic",
    "parity_report",
    "peak_trajectory",
    "write_response_csv",
    "write_impulse_csv",
    "DB_FLOOR",
]

# Feedback tap positions (including the register length itself) of one
# primitive polynomial per order; each entry generates the full 2^order - 1
# period, which mls_generate re-verifies on every run.
DEFAULT_MLS_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 7, 6, 1),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}

DB_FLOOR = -200.0


@dataclass(frozen=True)
class MlsConfig:
    """Maximum-length-sequence stimulus parameters."""

    order: int = 14

    def __post_init__(self):
        if not 2 <= self.order <= 24:
            raise AnalysisError(f"order must be in [2, 24], got {self.order}")

    @property
    def period(self) -> int:
        return (1 << self.order) - 1


def mls_generate(config: MlsConfig) -> np.ndarray:
    """One full period of the +-1 maximum-length sequence.

    Fibonacci shift register on DEFAULT_MLS_TAPS[order], seeded with all
    ones; the new bit is the XOR of the bits delayed by each tap position,
    with bit 1 mapped to +1. The period is verified during generation: the
    register must first return to the seed after exactly 2^order - 1 steps,
    otherwise the taps are not a primitive polynomial and a validation error
    is raised.
    """
    order = config.order
    n_mask = (1 << order) - 1
    period = config.period
    taps = DEFAULT_MLS_TAPS[order]
    tap_mask = 0
    for p in taps:
        tap_mask |= 1 << (p - 1)
    seed = state = n_mask
    bits = bytearray(period)
    for i in range(period):
        fb = (state & tap_mask).bit_count() & 1
        state = ((state << 1) | fb) & n_mask
        bits[i] = fb
        if state == seed:
            break
    returned_at = i + 1 if state == seed else 0
    if returned_at != period:
        raise AnalysisError(
            f"taps {taps} give period {returned_at}, "
            f"need {period}; not a primitive polynomial"
        )
    return np.frombuffer(bits, dtype=np.uint8) * 2.0 - 1.0


def mls_warmup_periods(design: CascadeDesign, period: int) -> int:
    """Warm-up periods needed before the cascade's output is periodic.

    The slowest section mode decays as its pole radius to the n,
    r * sqrt(a0^2 + c0^2); enough whole periods are run that the leftover
    transient falls below 1e-14 relative to the response scale. At least one
    period is always used.
    """
    r_max = max(s.r * math.sqrt(s.a0 * s.a0 + s.c0 * s.c0) for s in design.sections)
    if r_max >= 1.0:
        raise AnalysisError("undamped design (pole radius >= 1) never reaches a periodic state")
    need = math.log(1e-14) / (period * math.log(r_max))
    return max(1, int(math.ceil(need)))


def impulse_response(
    system: Callable[[np.ndarray], np.ndarray | Iterable[np.ndarray]],
    n_samples: int,
    method: str = "direct_impulse",
    mls_config: MlsConfig | None = None,
    warmup_periods: int = 2,
) -> np.ndarray:
    """Per-channel impulse responses of a multichannel processing function.

    `system` maps an input vector to its [n, channels] output, as one array
    or as row blocks in order, and must start from its reset state; it is
    called exactly once. Only the rows analysed are kept, copied into one
    column-major array, however long the stimulus.

    direct_impulse drives a unit impulse. mls drives warmup_periods + 1 full
    periods of the configured sequence and recovers the (period-folded)
    impulse response from the last period by exact circular cross-correlation.
    n_samples must not exceed the MLS period.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    if method == "direct_impulse":
        stim = np.zeros(n_samples, dtype=np.float64)
        stim[0] = 1.0
        return _last_rows(system(stim), n_samples, n_samples)
    if method != "mls":
        raise ConfigError(f"unknown impulse-response method: {method!r}")

    config = mls_config if mls_config is not None else MlsConfig()
    period = config.period
    if n_samples > period:
        raise ConfigError(
            f"n_samples={n_samples} exceeds the MLS period {period} (order {config.order})"
        )
    if warmup_periods < 1:
        raise ConfigError("warmup_periods must be >= 1")
    seq = mls_generate(config)
    stim = np.tile(seq, warmup_periods + 1)
    spec = np.fft.rfft(_last_rows(system(stim), stim.shape[0], period), axis=0)
    spec *= np.conj(np.fft.rfft(seq))[:, None]
    h = np.fft.irfft(spec, n=period, axis=0)
    h += h.sum(axis=0, keepdims=True)
    h /= period + 1
    return h[:n_samples, :]


def _last_rows(out, n_rows: int, keep: int) -> np.ndarray:
    """The last keep of a system output's n_rows rows, copied into one
    column-major array: numpy's FFTs round differently on a C-order one.
    out is one [n_rows x channels] array or its row blocks in order."""
    y, row, skip = None, 0, n_rows - keep
    for block in [out] if isinstance(out, np.ndarray) else out:
        m = np.asarray(block, dtype=np.float64)
        if m.ndim != 2 or (y is not None and m.shape[1] != y.shape[1]):
            raise ConfigError(f"system must return 2-D row blocks of one channel count, "
                              f"got shape {m.shape}")
        if y is None:
            y = np.empty((keep, m.shape[1]), order="F")
        a, b = max(row, skip), min(row + len(m), n_rows)
        if a < b:
            y[a - skip : b - skip] = m[a - row : b - row]
        row += len(m)
    if row != n_rows:
        raise ConfigError(f"system returned {row} rows, expected {n_rows}")
    return y


@dataclass(frozen=True)
class ResponseResult:
    """Impulse responses, their spectra, and per-channel peak locations."""

    impulse_responses: np.ndarray      # [n_samples x channels]
    magnitudes_db: np.ndarray          # [bins x channels], clamped at DB_FLOOR
    frequencies_hz: np.ndarray
    peak_hz: np.ndarray                # NaN where flat
    peak_db: np.ndarray
    flat: np.ndarray                   # bool per channel


def frequency_response_measured(
    impulse_responses: np.ndarray,
    sample_rate_hz: float,
    n_fft: int | None = None,
) -> ResponseResult:
    """Magnitude responses (dB) of measured impulse responses.

    n_fft defaults to the impulse-response length; shorter is rejected
    (responses are never truncated, only zero-padded).
    """
    ir = np.asarray(impulse_responses, dtype=np.float64)
    if ir.ndim == 1:
        ir = ir[:, None]
    n = ir.shape[0]
    if n_fft is None:
        n_fft = n
    if n_fft < n:
        raise ConfigError(f"n_fft={n_fft} shorter than impulse response ({n})")
    db = np.abs(np.fft.rfft(ir, n=n_fft, axis=0))  # to dB in place: |X| is not kept
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 20.0
    np.maximum(db, DB_FLOOR, out=db)
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate_hz)
    peak_hz, peak_db, flat = _find_peaks(db, freqs)
    return ResponseResult(
        impulse_responses=ir,
        magnitudes_db=db,
        frequencies_hz=freqs,
        peak_hz=peak_hz,
        peak_db=peak_db,
        flat=flat,
    )


def frequency_response_analytic(
    design: CascadeDesign, frequencies: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Complex cascaded gain per channel: [len(frequencies) x n_sections].

    Channel k is the product of the transfer functions of sections 0..k
    evaluated on the unit circle.
    """
    freqs = np.asarray(frequencies, dtype=np.float64)
    nyquist = design.sample_rate_hz / 2.0
    if freqs.size and (freqs.min() < 0 or freqs.max() >= nyquist):
        raise ConfigError(f"frequencies must lie in [0, {nyquist}) Hz")
    z = np.exp(2j * np.pi * freqs / design.sample_rate_hz)
    out = np.empty((freqs.shape[0], design.n_sections), dtype=np.complex128)
    acc = np.ones_like(z)
    for k, s in enumerate(design.sections):
        acc = acc * transfer_function(s).evaluate(z)
        out[:, k] = acc
    return out


def _find_peaks(db: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_ch = db.shape[1]
    peak_hz = np.full(n_ch, np.nan)
    peak_db = np.empty(n_ch)
    flat = np.zeros(n_ch, dtype=bool)
    bin_step = freqs[1] - freqs[0] if len(freqs) > 1 else 0.0
    for ch in range(n_ch):
        col = db[:, ch]
        peak_db[ch] = col.max()
        if col.max() - col.min() < 1e-9:
            flat[ch] = True
            continue
        p = int(col.argmax())
        if 0 < p < len(col) - 1:
            ym, y0, yp = col[p - 1], col[p], col[p + 1]
            denom = ym - 2.0 * y0 + yp
            if denom != 0.0:
                delta = 0.5 * (ym - yp) / denom
                peak_hz[ch] = freqs[p] + delta * bin_step
                peak_db[ch] = y0 - 0.25 * (ym - yp) * delta
                continue
        peak_hz[ch] = freqs[p]
    return peak_hz, peak_db, flat


def peak_trajectory(result: ResponseResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel (peak_hz, peak_db, flat) of a ResponseResult, the peaks
    frequency_response_measured found.

    A parabola through the peak bin and its neighbors in dB refines each
    peak; a peak at either end of the spectrum is reported at its bin.
    Flat channels (no distinguishable peak) carry NaN frequencies.
    """
    return result.peak_hz, result.peak_db, result.flat


@dataclass(frozen=True)
class ParityReport:
    """Per-channel SNR of a fixed-point run against the float reference."""

    snr_db: np.ndarray
    exact: np.ndarray                  # channels where fixed == float exactly
    worst_channel: int
    worst_snr_db: float


def parity_report(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> ParityReport:
    """SNR per channel over every row of (reference, fixed) row blocks, 1-D
    ones of one channel: 10*log10(sum(ref^2) / sum((ref - fixed)^2)), +inf
    where every fixed value equals its float value (flagged exact), an
    all-zero channel included. No rows, or a zero-energy reference channel
    that is not exact, is an error, not a 0-dB report.

    One pass keeps each channel's reference and error energies as a running
    scale and a sum of squares relative to it (LAPACK's dlassq): no energy
    under- or overflows unless its values do."""
    rows, exact, scale, ssq = 0, True, 0.0, 0.0  # scale, ssq: (reference, error) x channels
    for ref, fix in blocks:
        ref, fix = np.asarray(ref, dtype=np.float64), np.asarray(fix, dtype=np.float64)
        if ref.ndim == 1:
            ref, fix = ref[:, None], fix[:, None]
        if ref.shape != fix.shape or np.shape(exact) not in ((), ref.shape[1:]):
            raise ConfigError(f"shape mismatch: {ref.shape} vs {fix.shape}, "
                              f"channels of earlier blocks {np.shape(exact) or 'none'}")
        exact &= (ref == fix).all(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.stack([ref, ref - fix])
            np.abs(x, out=x)
            new = np.maximum(scale, x.max(axis=1, initial=0.0))
            unit = np.where(new > 0.0, new, 1.0)
            x /= unit[:, None]
            x *= x
            ssq = ssq * (scale / unit) ** 2 + x.sum(axis=1)
        scale, rows = new, rows + len(ref)
        del ref, fix, x  # not held while the next block is made
    if rows == 0:
        raise AnalysisError("empty comparison window")
    zero = np.flatnonzero((scale[0] == 0.0) & ~exact)
    if zero.size:
        raise AnalysisError(f"undefined SNR: reference is all zero in channel {zero[0]}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        snr = 20.0 * np.log10(scale[0] / scale[1]) + 10.0 * np.log10(ssq[0] / ssq[1])
    finite = np.where(exact, np.inf, snr)
    worst = int(np.argmin(finite))
    return ParityReport(snr_db=finite, exact=exact, worst_channel=worst,
                        worst_snr_db=float(finite[worst]))


# Channel files open at once, at most: `analyze --channels` may name every
# section, 1224 on the north-star design, where a common soft limit on a
# process's open descriptors is 1024. 64 files still get 63 rows each per
# formatted chunk, and hold 0.5 MB of write buffers.
MAX_OPEN_FILES = 64


def write_response_csv(result: ResponseResult, paths: Sequence) -> None:
    """`frequency_hz,magnitude_db` rows per channel, one path per column of
    result.magnitudes_db."""
    _write_channels(b"frequency_hz,magnitude_db\r\n", result.frequencies_hz,
                    result.magnitudes_db, paths)


def write_impulse_csv(result: ResponseResult, paths: Sequence) -> None:
    """`sample_index,amplitude` rows per channel, one path per column of
    result.impulse_responses."""
    ir = result.impulse_responses
    _write_channels(b"sample_index,amplitude\r\n", np.arange(ir.shape[0], dtype=np.float64),
                    ir, paths)


def _write_channels(header: bytes, lead: np.ndarray, m: np.ndarray, paths: Sequence) -> None:
    """The CSV file of each column of m, its rows lead's value and the
    column's, written MAX_OPEN_FILES files at a time."""
    if len(paths) != m.shape[1]:
        raise ConfigError(f"{len(paths)} paths for {m.shape[1]} channels")
    for c0 in range(0, len(paths), MAX_OPEN_FILES):
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "wb"))
                     for path in paths[c0 : c0 + MAX_OPEN_FILES]]
            for f in files:
                f.write(header)
            for texts in csv_pairs(lead, m[:, c0 : c0 + len(files)]):
                for f, text in zip(files, texts):
                    f.write(text)
