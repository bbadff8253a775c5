"""Time-multiplexed hardware execution model.

One physical filter core serves many sections by iterating their state
through the datapath within a sample period; a core plus the sections it
serves is an array. Several arrays are chained, each adding one sample
period of pipeline delay. This module derives the core/array arithmetic
(sections per array, array count, latencies, feasibility) and delays the
tap rows of any stream, float or fixed, as the arrays would emit them.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import InfeasibleError

__all__ = [
    "HardwareParams",
    "ScheduleReport",
    "section_latency",
    "sections_per_array",
    "plan",
    "simulate_pipeline",
    "report_text",
    "report_csv",
]


@dataclass(frozen=True)
class HardwareParams:
    """Clocking and capacity of the modeled hardware."""

    clock_hz: float = 142e6
    cycles_per_section: int = 29
    sample_rate_hz: float = 48000.0
    max_arrays: int = 12

    def __post_init__(self):
        for name in ("clock_hz", "cycles_per_section", "sample_rate_hz", "max_arrays"):
            if getattr(self, name) <= 0:
                raise InfeasibleError(f"{name} must be positive")


@dataclass(frozen=True)
class ScheduleReport:
    """Derived timing facts for a requested section count."""

    n_sections: int
    section_latency_s: float
    sections_per_array: int
    arrays_needed: int
    total_sections_capacity: int
    end_to_end_latency_s: float
    sample_period_s: float
    feasible: bool
    slack_cycles_per_sample: int


def section_latency(cycles: int, clock_hz: float) -> float:
    """Time for one section to pass through the core: cycles / clock."""
    if cycles <= 0 or clock_hz <= 0:
        raise InfeasibleError("cycles and clock_hz must be positive")
    return cycles / clock_hz


def sections_per_array(params: HardwareParams) -> int:
    """Sections one core can serve within a sample period.

    floor((clock_hz / sample_rate_hz) / cycles_per_section); zero means a
    single section cannot finish within the sample period.
    """
    budget = int(math.floor(params.clock_hz / params.sample_rate_hz))
    per_array = budget // params.cycles_per_section
    if per_array == 0:
        raise InfeasibleError(
            f"one section needs {params.cycles_per_section} cycles but only "
            f"{budget} fit in a sample period"
        )
    return per_array


def plan(params: HardwareParams, n_sections: int) -> ScheduleReport:
    """Allocate sections to arrays and derive latencies and feasibility.

    Each array contributes one sample period to the end-to-end latency (the
    per-section core latency is absorbed within that period).
    """
    if n_sections < 1:
        raise InfeasibleError(f"n_sections must be >= 1, got {n_sections}")
    per_array = sections_per_array(params)
    arrays = -(-n_sections // per_array)  # ceil
    sample_period = 1.0 / params.sample_rate_hz
    budget = int(math.floor(params.clock_hz / params.sample_rate_hz))
    slack = budget - params.cycles_per_section * min(n_sections, per_array)
    return ScheduleReport(
        n_sections=n_sections,
        section_latency_s=section_latency(params.cycles_per_section, params.clock_hz),
        sections_per_array=per_array,
        arrays_needed=arrays,
        total_sections_capacity=per_array * params.max_arrays,
        end_to_end_latency_s=arrays * sample_period,
        sample_period_s=sample_period,
        feasible=arrays <= params.max_arrays,
        slack_cycles_per_sample=slack,
    )


def simulate_pipeline(params: HardwareParams, n_sections: int, blocks):
    """The row blocks of any stream of an n_sections cascade, float or fixed
    raw (those of core.stream_rows), as the array pipeline would emit them;
    an infeasible plan raises at the call, before any block is drawn.

    Every tap served by array a (0-based) is delayed by a whole samples, the
    pipeline-register delay between chained arrays, in the rows' own dtype.
    Sections within an array run strictly in index order, one sample at a
    time (the per-sample completion barrier), which is exactly the streams'
    iteration order.
    """
    report = plan(params, n_sections)
    if not report.feasible:
        raise InfeasibleError(
            f"{report.arrays_needed} arrays needed, only {params.max_arrays} available"
        )
    return _delayed(blocks, report.sections_per_array, report.arrays_needed - 1)


def _delayed(blocks, per_array: int, lag: int):
    """Delay the columns of array a in each block by a rows, in place,
    carrying the last a rows of each array a (zeros before the first)."""
    held = {}
    for rows in blocks:
        m = len(rows)
        for a in range(1, lag + 1):
            cols = rows[:, a * per_array : (a + 1) * per_array]
            carry = held[a] if a in held else np.zeros((a, cols.shape[1]), rows.dtype)
            kept = max(m - a, 0)  # rows that stay in this block, shifted down
            held[a] = np.concatenate([carry[m:], cols[kept:]])
            cols[a:] = cols[:kept]
            cols[: m - kept] = carry[:m]
        yield rows


def report_text(report: ScheduleReport) -> str:
    """Key: value rendering of a ScheduleReport."""
    lines = [
        f"n_sections: {report.n_sections}",
        f"section_latency_ns: {report.section_latency_s * 1e9:.4f}",
        f"sections_per_array: {report.sections_per_array}",
        f"arrays_needed: {report.arrays_needed}",
        f"total_sections_capacity: {report.total_sections_capacity}",
        f"sample_period_us: {report.sample_period_s * 1e6:.4f}",
        f"end_to_end_latency_us: {report.end_to_end_latency_s * 1e6:.4f}",
        f"slack_cycles_per_sample: {report.slack_cycles_per_sample}",
        f"feasible: {'yes' if report.feasible else 'no'}",
    ]
    return "\n".join(lines)


def report_csv(report: ScheduleReport) -> str:
    """Single-row CSV rendering of a ScheduleReport."""
    import csv

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow([f.name for f in fields(report)])
    w.writerow(astuple(report))
    return buf.getvalue()
