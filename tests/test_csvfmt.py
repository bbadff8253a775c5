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
# scaled, fractions 1.3e-21 z to 1.5e-17 z below and above one half:
# decided in numpy
@example(924054841002.1371)
@example(-1171477.2935763747)
@example(2.2250738585072014e-308)
# scaled, fractions 0.9e-19 z to 1.7e-19 z from one half: numpy's path
@example(127.31140689622409)
@example(0.0005925057029139637)
@example(9.816095571139052e24)
@example(6.865265516443868e-10)
@example(3 * 2.0**-24)  # an exact tie at 16 - X = 23, where P_lo is not 0
# 2^-55 above one half at 16 - X = 25, below float64's error: Python's path
@example(4.974148370910348e-09)
@settings(max_examples=1000, deadline=None)
def test_matches_percent_g(value):
    m = np.array([[value]])
    assert rows_text(m) == expected_text(m)


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
    assert rows_text(m) == expected_text(m)
    assert seen == [1e16]  # D = 10^16 is an edge; numpy formats every other value


def test_run_float_taps_rarely_reach_python(monkeypatch):
    # run_float's 240 samples of -12 dBFS noise through the default
    # 1224-section design: its taps reach 1e15, where many doubles are exact
    # ties at 17 digits; numpy decides them
    design = design_cascade(DesignParams(48000.0, 1224))
    x = np.random.default_rng(8).uniform(-0.25, 0.25, 240)
    m = process_block(design, CascadeState(1224), x)
    seen = []
    python_fields = _csvfmt._python_fields
    monkeypatch.setattr(_csvfmt, "_python_fields", lambda v: seen.extend(v) or python_fields(v))
    assert rows_text(m) == expected_text(m)
    assert len(seen) < 0.001 * m.size


def significant_bits(f) -> int:
    n = abs(Fraction(f).numerator)
    return (n // (n & -n)).bit_length() if n else 0


def test_power_table_is_a_double_double_of_the_exact_power():
    hi, lo, hi_1, hi_2, k = _csvfmt._pow10_table()
    for i, x in enumerate(range(_csvfmt._P_X_MIN, _csvfmt._P_X_MAX + 1)):
        exact = Fraction(10) ** (16 - x) * Fraction(2) ** -int(k[i])
        assert 2**52 < exact <= 10**16, x  # scaled near 1e16
        error = abs(Fraction(hi[i]) + Fraction(lo[i]) - exact)
        assert error <= Fraction(np.spacing(abs(lo[i]))) / 2, x
        assert (lo[i] == 0) == (Fraction(hi[i]) == exact) == (0 <= 16 - x <= 22), x
        # Veltkamp's halves: exact products with the halves of a scaled value
        assert hi_1[i] + hi_2[i] == hi[i], x
        assert significant_bits(hi_1[i]) <= 26 and significant_bits(hi_2[i]) <= 26, x


def test_exact_products_stay_in_numpy(monkeypatch):
    # 0 <= 16 - X <= 22: the products are exact, so their ties (the last
    # two, rounded down and up to even) are decided in numpy
    seen = []
    python_fields = _csvfmt._python_fields
    monkeypatch.setattr(_csvfmt, "_python_fields", lambda v: seen.extend(v) or python_fields(v))
    m = np.array([[2.5, 0.125, 123456789012345.625, 1234567890123456.75]])
    assert rows_text(m) == expected_text(m)
    assert not seen


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
