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
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ._kernels import cascade_block
from .design import CascadeDesign, ChannelCoeffs
from .errors import ConfigError

__all__ = [
    "SectionState",
    "CascadeState",
    "step_section",
    "process_sample",
    "process_block",
    "reset",
    "settling_samples",
]


class SectionState(NamedTuple):
    w1: float = 0.0
    w2: float = 0.0


class CascadeState:
    """Per-section (w1, w2) pairs for one cascade instance.

    Owned by a single processing context at a time; the arrays are mutated
    in place by process_sample/process_block.
    """

    def __init__(self, n_sections: int):
        if n_sections < 1:
            raise ConfigError(f"n_sections must be >= 1, got {n_sections}")
        self.w1 = np.zeros(n_sections, dtype=np.float64)
        self.w2 = np.zeros(n_sections, dtype=np.float64)
        self.samples_processed = 0

    @property
    def n_sections(self) -> int:
        return self.w1.shape[0]

    def section(self, k: int) -> SectionState:
        return SectionState(float(self.w1[k]), float(self.w2[k]))


def reset(state: CascadeState) -> None:
    """Zero all internal variables and the sample counter."""
    state.w1[:] = 0.0
    state.w2[:] = 0.0
    state.samples_processed = 0


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
    state.samples_processed += 1
    return y


def process_block(
    design: CascadeDesign, state: CascadeState, samples: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Propagate a block of samples; returns [n_samples x n_sections] outputs.

    Bit-identical to calling process_sample once per sample; state is carried
    across calls so long inputs can be streamed in chunks.
    """
    _check_state(design, state)
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"samples must be one-dimensional, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ConfigError("samples contain non-finite values")
    out = np.empty((x.shape[0], design.n_sections), dtype=np.float64)
    if x.size:
        a0, c0, r, h, g = design.coeff_arrays
        cascade_block(x, a0, c0, r, h, g, state.w1, state.w2, out)
    state.samples_processed += x.shape[0]
    return out


def settling_samples(design: CascadeDesign, tol: float = 1e-9) -> int:
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
