"""Floating-point reference cascade.

Each section keeps two internal state variables (w1, w2) updated by the
coupled-form (rotator) recurrence

    w1' = r * (a0 * w1 - c0 * w2) + x
    w2' = r * (c0 * w1 + a0 * w2)
    y   = g * (x + h * w2')

whose input-output relation equals the section transfer function produced by
design.transfer_function; the tests verify that equivalence against a
polynomial long-division oracle. Section 0 consumes the input sample, each
later section consumes its predecessor's output, and the per-sample result is
the vector of all tap outputs.

process_sample runs the recurrence one section at a time. CascadeStream and
process_block run it on the wavefront schedule of _kernels, with the state
as section-reversed (w1, w2) pairs and the coefficients as the design's
lane_arrays: 9 numpy calls per tick, each operation of step_section on the
same operands in the same order, so both paths give the same bits.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from ._kernels import Wavefront, cascade_ticks
from .design import CascadeDesign, ChannelCoeffs
from .errors import ConfigError

__all__ = [
    "SectionState",
    "CascadeState",
    "CascadeStream",
    "STREAM_CHUNK_VALUES",
    "step_section",
    "process_sample",
    "process_block",
    "stream_rows",
]

# Tap values per chunk that stream_rows pushes: 512 KB of float64. The CSV
# formatter's _csvfmt.CHUNK_VALUES sizes another buffer, the text of a few
# rows (4096 values), kept that small because it takes 48 bytes per value.
STREAM_CHUNK_VALUES = 1 << 16


class SectionState(NamedTuple):
    w1: float = 0.0
    w2: float = 0.0


class CascadeState:
    """Per-section (w1, w2) pairs for one cascade instance, and nothing
    else: no run counts.

    Owned by a single processing context at a time; the arrays are mutated
    in place by process_sample/process_block, and by a CascadeStream when
    it flushes.
    """

    def __init__(self, n_sections: int):
        if n_sections < 1:
            raise ConfigError(f"n_sections must be >= 1, got {n_sections}")
        self.w1 = np.zeros(n_sections, dtype=np.float64)
        self.w2 = np.zeros(n_sections, dtype=np.float64)

    @property
    def n_sections(self) -> int:
        return self.w1.shape[0]


def step_section(
    coeffs: ChannelCoeffs, state: SectionState, x: float
) -> tuple[SectionState, float]:
    """Advance one section by one sample; returns (new state, output)."""
    if not math.isfinite(x):
        raise ConfigError(f"non-finite input sample: {x}")
    w1 = coeffs.r * (coeffs.a0 * state.w1 - coeffs.c0 * state.w2) + x
    w2 = coeffs.r * (coeffs.c0 * state.w1 + coeffs.a0 * state.w2)
    y = coeffs.g * (x + coeffs.h * w2)
    return SectionState(w1, w2), y


def _check_state(design: CascadeDesign, state: CascadeState) -> None:
    if state.n_sections != design.n_sections:
        raise ConfigError(
            f"state has {state.n_sections} sections, design has {design.n_sections}"
        )


def process_sample(design: CascadeDesign, state: CascadeState, x: float) -> np.ndarray:
    """Propagate one input sample through the cascade; returns all tap outputs."""
    _check_state(design, state)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite input sample: {x}")
    y = np.empty(design.n_sections, dtype=np.float64)
    xk = x
    for k, c in enumerate(design.sections):
        s, yk = step_section(c, SectionState(state.w1[k], state.w2[k]), xk)
        state.w1[k] = s.w1
        state.w2[k] = s.w2
        y[k] = yk
        xk = yk
    return y


def _checked_samples(samples: Sequence[float] | np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"samples must be one-dimensional, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ConfigError("samples contain non-finite values")
    return x


class CascadeStream:
    """The cascade over a sample stream: push samples, get tap rows back.

    Section k processes a sample k ticks after section 0, so each push
    returns the rows completed so far, n_sections - 1 samples behind the
    input, and flush runs the ticks that complete the rest. The outputs are
    bit-identical to process_sample's, however the input is split. The
    stream reads the state when it is made and writes back only (w1, w2) at
    every flush; after a flush it takes new pushes.
    """

    def __init__(self, design: CascadeDesign, state: CascadeState):
        _check_state(design, state)
        self.state = state
        self.n_sections = design.n_sections
        # the state as section-reversed (w1, w2) pairs, one lane array with
        # its two columns
        self._w = np.stack([state.w1, state.w2], axis=1)[::-1].copy()
        lanes = (*design.lane_arrays, self._w, self._w[:, 0], self._w[:, 1])
        scratch = np.empty((2, design.n_sections, 2))
        self._kernel = functools.partial(cascade_ticks, scratch)
        self._front = Wavefront(design.n_sections, lanes)

    def push(self, samples: Sequence[float] | np.ndarray) -> np.ndarray:
        """Run one tick per sample; returns the [rows x n_sections] outputs
        completed by them, a new array."""
        return self._front.push(_checked_samples(samples), self._kernel)

    def flush(self, samples: Sequence[float] | np.ndarray = ()) -> np.ndarray:
        """Push samples, the last ones before the flush, complete every row
        in flight, write the state back, and return the rows not yet
        returned, as one writable strided view of the stream's buffer."""
        rows = self._front.flush(_checked_samples(samples), self._kernel)
        self.state.w1[:], self.state.w2[:] = self._w[::-1].T
        return rows


def process_block(
    design: CascadeDesign, state: CascadeState, samples: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Propagate a block of samples; returns [n_samples x n_sections] outputs.

    Bit-identical to calling process_sample once per sample; state is carried
    across calls so long inputs can be processed in blocks. Each call drains
    the cascade; CascadeStream does not. The outputs are a writable strided
    view of the buffer the block ran in, not a contiguous array.
    """
    return CascadeStream(design, state).flush(samples)


def stream_rows(stream, samples: np.ndarray):
    """Yield the tap rows of samples through stream (a CascadeStream, or a
    fixed.FixedStream of raw samples) in order: it pushes whole chunks of
    about STREAM_CHUNK_VALUES tap values and flushes the rest.

    The first chunk is n_sections - 1 samples longer, the rows still in
    flight, so the stream sizes its buffer once; a shorter input is one
    flush.
    """
    n = stream.n_sections
    chunk = max(1, STREAM_CHUNK_VALUES // n)
    *parts, rest = np.split(samples, range(n - 1 + chunk, len(samples) + 1, chunk))
    for part in parts:
        yield stream.push(part)
    yield stream.flush(rest)
