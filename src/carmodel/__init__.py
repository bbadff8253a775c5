"""Cascade-of-asymmetric-resonators cochlear filterbank.

Design per-place resonator coefficients, run the floating-point reference
cascade, emulate the fixed-point hardware datapath bit-exactly, model the
time-multiplexed execution schedule, and measure impulse/frequency responses.
"""

from .design import (
    CascadeDesign,
    ChannelCoeffs,
    DesignParams,
    RationalTF,
    design_cascade,
    greenwood_cf,
    place_positions,
    pole_angle,
    read_coeff_table,
    rotator_coeffs,
    transfer_function,
    write_coeff_table,
)
from .core import (
    CascadeState,
    CascadeStream,
    SectionState,
    process_block,
    process_sample,
    step_section,
)
from .errors import (
    AnalysisError,
    AudioFormatError,
    CarModelError,
    ConfigError,
    DesignError,
    FixedPointError,
    InfeasibleError,
)
from .fixed import (
    FixedCascadeState,
    FixedFormat,
    FixedValue,
    QuantizedDesign,
    fixed_process_block,
    fixed_step_section,
    quantize,
    quantize_design,
    to_real,
)
from .schedule import HardwareParams, ScheduleReport, plan, sections_per_array, simulate_pipeline

__version__ = "0.1.0"
