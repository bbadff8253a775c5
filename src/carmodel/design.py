"""Filter-cascade design: place map, per-section coefficients, and analytic views.

Each cochlear place coordinate x in [0, 1] (apex = 0, base = 1) maps to a
characteristic frequency through the Greenwood function. A section is a
two-pole-two-zero resonator parameterized by the pole angle theta_r
(radians/sample), pole radius r, rotator coefficients a0 = cos(theta_r) and
c0 = sin(theta_r), a zero-placement coefficient h = F * c0 (F is the zero
ratio, 1 by default), and a gain g that normalizes the DC response to unity:

    H(z) = g * (z^2 + (-2*a0 + h*c0)*r*z + r^2) / (z^2 - 2*a0*r*z + r^2)

Sections are ordered base to apex (index 0 = highest CF), which is also the
signal-flow order of the cascade.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._csvfmt import csv_rows
from .errors import DesignError

__all__ = [
    "DesignParams",
    "ChannelCoeffs",
    "CascadeDesign",
    "RationalTF",
    "greenwood_cf",
    "place_positions",
    "pole_angle",
    "rotator_coeffs",
    "complex_zero_bound",
    "zero_coeff",
    "dc_gain_coeff",
    "design_cascade",
    "transfer_function",
    "validate_channel_coeffs",
    "write_coeff_table",
    "read_coeff_table",
    "COEFF_TABLE_HEADER",
]

GREENWOOD_SCALE_HZ = 165.4
GREENWOOD_EXPONENT = 2.1


@dataclass(frozen=True)
class DesignParams:
    """Inputs to design_cascade.

    x runs from 1.0 at the base (highest CF) down to x_apex; sections are
    generated base first. r defaults to 1 - damping_zeta * theta_r per
    section, i.e. damping proportional to the pole angle, which keeps the
    relative bandwidth roughly uniform along the cascade. r_override, when
    given, replaces that rule with one global value.
    zero_ratio is F in h = F * c0 (see zero_coeff); the default 1.0 gives
    h = c0.
    """

    sample_rate_hz: float
    n_sections: int
    x_base: float = 1.0
    x_apex: float = 0.023
    damping_zeta: float = 0.1
    zero_ratio: float = 1.0
    r_override: float | None = None

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise DesignError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.n_sections < 1:
            raise DesignError(f"n_sections must be >= 1, got {self.n_sections}")
        if not (0.0 <= self.x_apex < self.x_base <= 1.0):
            raise DesignError(
                f"need 0 <= x_apex < x_base <= 1, got x_apex={self.x_apex}, x_base={self.x_base}"
            )
        if self.damping_zeta < 0:
            raise DesignError(f"damping_zeta must be >= 0, got {self.damping_zeta}")
        if not 0.0 < self.zero_ratio < math.inf:
            raise DesignError(f"zero_ratio must be finite and > 0, got {self.zero_ratio}")


class ChannelCoeffs(NamedTuple):
    """Resolved per-section filter parameters (one cascade stage)."""

    cf_hz: float
    theta_r: float
    r: float
    a0: float
    c0: float
    h: float
    g: float
    section_index: int


@dataclass(frozen=True)
class CascadeDesign:
    """Ordered base-to-apex section coefficients plus the sample rate.

    positions holds the place coordinate x of each section, parallel to
    sections; it is carried for the coefficient-table file format.
    """

    sections: tuple[ChannelCoeffs, ...]
    sample_rate_hz: float
    positions: tuple[float, ...]

    @property
    def n_sections(self) -> int:
        return len(self.sections)

    @cached_property
    def lane_arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only float64 operands of the float block kernel, built on
        first use, in section-reversed lanes: [n x 2] pairs (a0, a0),
        (c0, c0) and (r, r), and vectors h and g."""
        a0, c0, r, h, g = np.array(
            [[c.a0, c.c0, c.r, c.h, c.g] for c in self.sections[::-1]], dtype=np.float64
        ).T
        arrays = (*(np.stack([v, v], axis=1) for v in (a0, c0, r)), h.copy(), g.copy())
        for a in arrays:
            a.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class RationalTF:
    """Second-order rational transfer function in powers of z.

    Numerator b0*z^2 + b1*z + b2, monic denominator z^2 + a1_den*z + a2_den.
    """

    b0: float
    b1: float
    b2: float
    a1_den: float
    a2_den: float

    def evaluate(self, z: complex) -> complex:
        num = (self.b0 * z + self.b1) * z + self.b2
        den = (z + self.a1_den) * z + self.a2_den
        return num / den


def greenwood_cf(x: float) -> float:
    """Characteristic frequency in Hz at place coordinate x (human map).

    f = 165.4 * (10^(2.1*x) - 1); x = 0 is the apex, x = 1 the base.
    """
    if not 0.0 <= x <= 1.0:
        raise DesignError(f"place coordinate must be in [0, 1], got {x}")
    return GREENWOOD_SCALE_HZ * (10.0 ** (GREENWOOD_EXPONENT * x) - 1.0)


def place_positions(n_sections: int, x_base: float = 1.0, x_apex: float = 0.023) -> list[float]:
    """Equally spaced place coordinates, base (high CF) first.

    Returns n_sections values from x_base down to x_apex inclusive; a single
    section sits at x_base.
    """
    if n_sections < 1:
        raise DesignError(f"n_sections must be >= 1, got {n_sections}")
    if not x_apex < x_base:
        raise DesignError(f"need x_apex < x_base, got {x_apex} >= {x_base}")
    if n_sections == 1:
        return [x_base]
    step = (x_base - x_apex) / (n_sections - 1)
    xs = [x_base - i * step for i in range(n_sections)]
    xs[-1] = x_apex  # exact endpoint regardless of rounding
    return xs


def pole_angle(cf_hz: float, sample_rate_hz: float) -> float:
    """Normalized pole frequency in radians per sample: 2*pi*cf/fs."""
    if cf_hz <= 0:
        raise DesignError(f"cf_hz must be positive, got {cf_hz}")
    if cf_hz >= sample_rate_hz / 2.0:
        raise DesignError(
            f"cf_hz={cf_hz} is at or above Nyquist ({sample_rate_hz / 2.0} Hz); section would alias"
        )
    return 2.0 * math.pi * cf_hz / sample_rate_hz


def rotator_coeffs(theta_r: float) -> tuple[float, float]:
    """Rotator coefficients (a0, c0) = (cos, sin) of the pole angle.

    Near Nyquist 1 + a0 is smaller than the rounding of cos itself, so the
    rounded pair can break c0 < (2 + 2*a0)/c0, which exact cos and sin keep
    (it reduces to a0 > -1). a0 is then lifted by as many ulps as it takes
    to keep it; anywhere else the pair is plain (cos, sin).
    """
    if not 0.0 < theta_r < math.pi:
        raise DesignError(f"theta_r must be in (0, pi), got {theta_r}")
    a0, c0 = math.cos(theta_r), math.sin(theta_r)
    while c0 >= complex_zero_bound(a0, c0):
        a0 = math.nextafter(a0, 0.0)
    return a0, c0


def complex_zero_bound(a0: float, c0: float) -> float:
    """Largest h for which the zeros stay complex: (2 + 2*a0) / c0."""
    if c0 <= 0:
        raise DesignError(f"c0 must be positive, got {c0}")
    return (2.0 + 2.0 * a0) / c0


def zero_coeff(a0: float, c0: float, ratio: float = 1.0) -> float:
    """Zero-placement coefficient h = ratio * c0.

    An h proportional to c0 keeps the zeros a fixed frequency ratio above
    the poles. h is validated against the complex-zero bound
    (2 + 2*a0)/c0, which no ratio <= 1 reaches (the bound over c0 is
    2/(1 - a0) > 1); a violating h is rejected rather than clipped.
    """
    bound = complex_zero_bound(a0, c0)
    h = ratio * c0
    if not math.isfinite(h):
        raise DesignError(f"h={h} is not finite")
    if h >= bound:
        raise DesignError(
            f"h={h} violates the complex-zero bound {bound} for a0={a0}, c0={c0}"
        )
    return h


def dc_gain_coeff(a0: float, c0: float, h: float, r: float) -> float:
    """Gain g that makes the section's DC response exactly one."""
    num = 1.0 - 2.0 * a0 * r + r * r
    den = 1.0 - (2.0 * a0 - h * c0) * r + r * r
    if den == 0.0:
        raise DesignError(
            f"degenerate design: zero DC denominator for a0={a0}, c0={c0}, h={h}, r={r}"
        )
    return num / den


def _section_radius(params: DesignParams, theta_r: float) -> float:
    if params.r_override is None:
        return 1.0 - params.damping_zeta * theta_r
    return float(params.r_override)


def design_cascade(params: DesignParams) -> CascadeDesign:
    """Design all sections of the cascade from the place map.

    For each position, base to apex: CF from the Greenwood map, pole angle
    from the sample rate, rotator coefficients, radius from the damping
    rule, h = zero_ratio * c0, and the DC-normalizing gain. Any section that
    fails the Nyquist guard, the complex-zero bound, or the radius range
    aborts the whole design with its index.
    """
    positions = place_positions(params.n_sections, params.x_base, params.x_apex)
    sections = []
    for i, x in enumerate(positions):
        try:
            cf = greenwood_cf(x)
            theta = pole_angle(cf, params.sample_rate_hz)
            a0, c0 = rotator_coeffs(theta)
            r = _section_radius(params, theta)
            if not 0.0 < r <= 1.0:
                raise DesignError(f"pole radius r={r} outside (0, 1]")
            h = zero_coeff(a0, c0, params.zero_ratio)
            g = dc_gain_coeff(a0, c0, h, r)
            if g <= 0:
                raise DesignError(f"nonpositive DC gain g={g}")
        except DesignError as exc:
            raise DesignError(f"section {i} (x={x}): {exc}") from exc
        sections.append(
            ChannelCoeffs(
                cf_hz=cf, theta_r=theta, r=r, a0=a0, c0=c0, h=h, g=g, section_index=i
            )
        )
    design = CascadeDesign(
        sections=tuple(sections),
        sample_rate_hz=float(params.sample_rate_hz),
        positions=tuple(positions),
    )
    for s in design.sections:
        validate_channel_coeffs(s)
    return design


# The structural invariants of a section, in the order they are checked: a
# message, and a test that is true where a section, or a ChannelCoeffs of
# coefficient columns, breaks the invariant. The coefficients are finite.
_SECTION_CHECKS = (
    ("a0^2 + c0^2 != 1", lambda c: abs(c.a0 * c.a0 + c.c0 * c.c0 - 1.0) > 1e-12),
    ("theta_r out of (0, pi)", lambda c: (c.theta_r <= 0.0) | (c.theta_r >= math.pi)),
    ("c0 must be positive", lambda c: c.c0 <= 0),
    ("r out of (0, 1]", lambda c: (c.r <= 0.0) | (c.r > 1.0)),
    ("g must be positive", lambda c: c.g <= 0),
)


def validate_channel_coeffs(c: ChannelCoeffs) -> None:
    """Check the structural invariants of a designed section."""
    values = (c.cf_hz, c.theta_r, c.r, c.a0, c.c0, c.h, c.g)
    if not all(map(math.isfinite, values)):
        raise DesignError(f"section {c.section_index}: non-finite coefficient in {values}")
    for message, broken in _SECTION_CHECKS:
        if broken(c):
            raise DesignError(f"section {c.section_index}: {message}")


def transfer_function(coeffs: ChannelCoeffs) -> RationalTF:
    """Polynomial coefficients of the section's transfer function.

    The coupled-form state matrix r * [[a0, -c0], [c0, a0]] has determinant
    r^2 * (a0^2 + c0^2), the z^-2 term of the denominator; a quantized
    section need not keep a0^2 + c0^2 = 1.
    """
    r = coeffs.r
    det = r * r * (coeffs.a0 * coeffs.a0 + coeffs.c0 * coeffs.c0)
    return RationalTF(
        b0=coeffs.g,
        b1=coeffs.g * (-2.0 * coeffs.a0 + coeffs.h * coeffs.c0) * r,
        b2=coeffs.g * det,
        a1_den=-2.0 * coeffs.a0 * r,
        a2_den=det,
    )


# ---------------------------------------------------------------------------
# Coefficient-table file format
#
# CSV with header `section,x,cf_hz,theta_r,r,a0,c0,h,g`, one row per section,
# base first. Values are printed with 17 significant digits so a read-back
# reproduces the design bit for bit. The sample rate is implied by each row
# (fs = 2*pi*cf_hz/theta_r) and is validated for consistency on read.
# ---------------------------------------------------------------------------

COEFF_TABLE_HEADER = ("section", "x", "cf_hz", "theta_r", "r", "a0", "c0", "h", "g")


def write_coeff_table(design: CascadeDesign, path) -> None:
    """Write the design as a coefficient-table CSV (base section first)."""
    # section_index is a float column: integers below 2^53 print the same
    # under "%.17g" and "%d". The reshape keeps a design without sections 2-D.
    m = np.array(
        [(s.section_index, x, s.cf_hz, s.theta_r, s.r, s.a0, s.c0, s.h, s.g)
         for x, s in zip(design.positions, design.sections)],
        dtype=np.float64,
    ).reshape(-1, len(COEFF_TABLE_HEADER))
    with open(path, "wb") as f:
        f.write((",".join(COEFF_TABLE_HEADER) + "\r\n").encode("ascii"))
        f.writelines(csv_rows(m))


def read_coeff_table(path) -> CascadeDesign:
    """Read a coefficient-table CSV back into a CascadeDesign."""
    with open(path, newline="", encoding="utf-8") as f:
        return _read_coeff_rows(f)


def _read_coeff_rows(f) -> CascadeDesign:
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise DesignError("coefficient table is empty") from None
    if tuple(h.strip() for h in header) != COEFF_TABLE_HEADER:
        raise DesignError(
            f"bad coefficient-table header: expected {','.join(COEFF_TABLE_HEADER)}"
        )
    # x, cf_hz, theta_r, r, a0, c0, h, g of each row, and its section number
    numbers = array("d")
    indices = []
    for row in reader:
        if not row:
            continue
        try:
            idx, values = _parse_coeff_row(row)
        except DesignError:
            _check_coeff_columns(numbers, indices)  # an earlier row's error comes first
            raise
        indices.append(idx)
        numbers.extend(values)
    fs = _check_coeff_columns(numbers, indices)
    if not indices:
        raise DesignError("coefficient table has no data rows")
    if indices != list(range(len(indices))):
        raise DesignError("section indices must be 0..N-1 in order, base first")
    columns = np.frombuffer(numbers, dtype=np.float64).reshape(-1, 8).T.tolist()
    return CascadeDesign(sections=tuple(map(ChannelCoeffs, *columns[1:], indices)),
                         sample_rate_hz=fs, positions=tuple(columns[0]))


def _parse_coeff_row(row: list[str]) -> tuple[int, list[float]]:
    """The section number and the eight finite numbers of a table row."""
    if len(row) != len(COEFF_TABLE_HEADER):
        raise DesignError(f"coefficient row has {len(row)} fields: {row!r}")
    try:
        idx = int(row[0])
        values = list(map(float, row[1:]))
    except ValueError:
        raise DesignError(f"coefficient row has a field that is not a number: {row!r}") from None
    if not all(map(math.isfinite, values)):
        raise DesignError(f"section {idx}: non-finite field in {row!r}")
    return idx, values


def _check_coeff_columns(numbers: array, indices: list[int]) -> float | None:
    """The sample rate that the first row implies (fs = 2*pi*cf_hz/theta_r),
    after checking every row at once: the section invariants, cf_hz > 0 and
    an implied rate within 1e-6 of fs. The first row that fails raises the
    error of the first check it fails, as a row-by-row read would."""
    c = ChannelCoeffs(*np.frombuffer(numbers, dtype=np.float64).reshape(-1, 8).T[1:],
                      section_index=None)
    with np.errstate(all="ignore"):  # rows with theta_r = 0 fail an earlier check
        rate = 2.0 * math.pi * c.cf_hz / c.theta_r
        fs = rate[:1]
        broken = np.array([test(c) for _, test in _SECTION_CHECKS]
                          + [c.cf_hz <= 0, abs(rate - fs) > 1e-6 * fs])
    rows = np.flatnonzero(broken.any(axis=0))
    if rows.size:
        i = rows[0]
        messages = [message for message, _ in _SECTION_CHECKS] + [
            "cf_hz must be positive",
            f"implied sample rate {float(rate[i])} disagrees with {float(fs[0])}"]
        raise DesignError(f"section {indices[i]}: {messages[broken[:, i].argmax()]}")
    return float(fs[0]) if fs.size else None
