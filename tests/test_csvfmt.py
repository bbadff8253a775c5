"""The CSV float formatter against Python's "%.17g", through tests/oracles.py."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carmodel import _csvfmt
from carmodel._csvfmt import csv_rows
from carmodel.core import CascadeState, process_block
from carmodel.design import DesignParams, design_cascade
from oracles import csv_text


def rows_text(m) -> str:
    return b"".join(csv_rows(np.asarray(m, dtype=np.float64))).decode("ascii")


def expected_text(m) -> str:
    """csv.writer's rows for m, without the header line."""
    header = [f"c{k}" for k in range(m.shape[1])]
    return csv_text(header, m.tolist()).split("\r\n", 1)[1]


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(1e16)
@example(1e17)
@example(99999999999999999.0)
@example(1e-4)
@example(1e-5)
@example(0.1)
@example(2.5)
@example(123456789012345.625)  # an exact tie at 17 digits
@example(1234567890123456.75)  # another, rounded up to even
# long-double fractions of exactly 0.5 where the exact product lies below
# and above one half: decided by the two-product error, in numpy
@example(924054841002.1371)
@example(-1171477.2935763747)
@example(2.2250738585072014e-308)
# scaled, fractions 2.1u-2.9u times z from one half, u the unit roundoff of
# an 80-bit long double: numpy's path, as the derived margin allows
@example(127.31140689622409)
@example(0.0005925057029139637)
@example(9.816095571139052e24)
@example(6.865265516443868e-10)
@settings(max_examples=1000, deadline=None)
def test_matches_percent_g(value):
    m = np.array([[value]])
    assert rows_text(m) == expected_text(m)


@pytest.mark.skipif(_csvfmt._unit_roundoff() != 2.0**-64, reason="needs an 80-bit long double")
def test_margin_is_the_derived_bound(monkeypatch):
    assert _csvfmt._REL_MARGIN == 2.0**-64 * (2 + 2.0**-64)
    near_half = [127.31140689622409, 0.0005925057029139637, 9.816095571139052e24,
                 6.865265516443868e-10]
    seen = []
    python_fields = _csvfmt._python_fields
    monkeypatch.setattr(_csvfmt, "_python_fields", lambda v: seen.extend(v) or python_fields(v))
    m = np.array([near_half])
    assert rows_text(m) == expected_text(m)
    assert not seen


def test_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, 1_050_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000].reshape(-1, 40)
    assert rows_text(values) == expected_text(values)


def test_non_finite_values():
    m = np.array([[np.inf, -np.inf, np.nan, 1.5]])
    assert rows_text(m) == expected_text(m)


def test_python_path_gives_the_same_bytes(monkeypatch, rng):
    m = rng.normal(0, 1, (50, 30)) * 10.0 ** rng.integers(-300, 300, (50, 30))
    m[0, :4] = [0.0, -0.0, 123456789012345.625, 1e16]
    seen = []
    python_fields = _csvfmt._python_fields

    def counted(values):
        seen.extend(values.tolist())
        return python_fields(values)

    monkeypatch.setattr(_csvfmt, "_python_fields", counted)
    fast = rows_text(m)
    assert seen == [1e16]  # D = 10^16 is an edge; numpy formats every other value
    seen.clear()
    # at a double's unit roundoff the margin exceeds one half
    monkeypatch.setattr(_csvfmt, "_REL_MARGIN", 3 * 2.0**-53)
    assert rows_text(m) == fast == expected_text(m)
    assert len(seen) == m.size


def test_run_float_taps_rarely_reach_python(monkeypatch):
    # run_float's 240 samples of -12 dBFS noise through the default
    # 1224-section design: its taps reach 1e15, where many doubles are exact
    # ties at 17 digits and many more products have a long-double fraction
    # of exactly 0.5; numpy decides both
    design = design_cascade(DesignParams(48000.0, 1224))
    x = np.random.default_rng(8).uniform(-0.25, 0.25, 240)
    m = process_block(design, CascadeState(1224), x)
    seen = []
    python_fields = _csvfmt._python_fields
    monkeypatch.setattr(_csvfmt, "_python_fields", lambda v: seen.extend(v) or python_fields(v))
    assert rows_text(m) == expected_text(m)
    assert len(seen) < 0.001 * m.size


def test_power_table_within_half_ulp():
    for p, entry in zip(range(_csvfmt._P_MIN, _csvfmt._P_MAX + 1), _csvfmt._POW10):
        error = abs(Fraction(*entry.as_integer_ratio()) - Fraction(10) ** p)
        assert error <= Fraction(*np.spacing(entry).as_integer_ratio()) / 2, p


def test_power_errors_within_two_roundings():
    for p, entry, error in zip(range(_csvfmt._P_MIN, _csvfmt._P_MAX + 1), _csvfmt._POW10,
                               _csvfmt._pow10_errors()):
        exact = Fraction(10) ** p - Fraction(*entry.as_integer_ratio())
        bound = 2 * Fraction(_csvfmt._UNIT) * abs(exact)  # two roundings
        assert abs(Fraction(*error.as_integer_ratio()) - exact) <= bound, p


def test_group_tables_match_percent_04d():
    groups = [b"%04d" % g for g in range(10000)]
    words = np.full((10000, 8), ord("."), dtype=np.uint8)  # each digit followed by a "."
    words[:, ::2] = np.frombuffer(b"".join(groups), dtype=np.uint8).reshape(-1, 4)
    assert _csvfmt._GROUP_WORD.tobytes() == words.tobytes()
    for k in range(4):
        expect = [0 if g == 0 else 4 * k + 1 + len(text.rstrip(b"0")) for g, text in enumerate(groups)]
        assert _csvfmt._GROUP_SIG[10000 * k : 10000 * (k + 1)].tolist() == expect, k


def test_powers_of_ten_and_their_neighbours(monkeypatch):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.nextafter(powers, 0)
    values = np.concatenate([powers, below, np.nextafter(powers, np.inf)])
    m = np.concatenate([values, -values]).reshape(-1, 6)
    assert rows_text(m) == expected_text(m)
    # floor(log10|v|) is one too large for most doubles just below a power of
    # ten; scaled again, they stay on numpy's path
    seen = []
    python_fields = _csvfmt._python_fields
    monkeypatch.setattr(_csvfmt, "_python_fields", lambda v: seen.extend(v) or python_fields(v))
    assert rows_text(below[:, None]) == expected_text(below[:, None])
    assert len(seen) < 0.1 * below.size
