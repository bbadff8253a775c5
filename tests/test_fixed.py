"""Fixed-point arithmetic and the quantized cascade datapath."""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carmodel.core import CascadeState, process_block
from carmodel.design import DesignParams, design_cascade
from carmodel.errors import ConfigError, DesignError, FixedPointError
from carmodel.fixed import (
    DEFAULT_COEFF_FORMAT,
    DEFAULT_IO_FORMAT,
    DEFAULT_STATE_FORMAT,
    FixedCascadeState,
    FixedFormat,
    FixedSectionState,
    FixedStream,
    FixedValue,
    QUANTIZED_TABLE_HEADER,
    QuantizedDesign,
    QuantizedSectionCoeffs,
    dequantized_design,
    fixed_process_block,
    fixed_step_section,
    quantize,
    quantize_block,
    quantize_design,
    read_quantized_table,
    to_real,
    to_real_block,
    write_quantized_table,
)
from carmodel.fixed import _requantize

from oracles import fixed_process_block_py

Q15 = FixedFormat(16, 15)


def table_file(path, rows, fmt=DEFAULT_COEFF_FORMAT):
    """path, written as a quantized table of {section: {name: raw}} rows."""
    lines = [",".join(QUANTIZED_TABLE_HEADER)]
    lines += [f"{i},{name},{raw},{fmt.total_bits},{fmt.frac_bits}"
              for i, coeffs in rows.items() for name, raw in coeffs.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def mls_signal(order, amplitude):
    from carmodel.analysis import MlsConfig, mls_generate

    return amplitude * mls_generate(MlsConfig(order=order))


# strategy: formats small enough to exercise overflow often
@st.composite
def formats(draw):
    total = draw(st.integers(4, 40))
    return FixedFormat(total, draw(st.integers(0, min(20, total - 1))))


@st.composite
def wide_formats(draw):
    total = draw(st.integers(2, 64))
    return FixedFormat(total, draw(st.integers(0, total - 1)))


class TestFormat:
    def test_range(self):
        assert Q15.raw_min == -32768
        assert Q15.raw_max == 32767
        assert Q15.raw_min * Q15.lsb == -1.0
        assert Q15.raw_max * Q15.lsb == pytest.approx(1.0 - 2**-15)

    @pytest.mark.parametrize("total,frac", [(1, 0), (65, 10), (8, 8), (8, -1)])
    def test_invalid(self, total, frac):
        with pytest.raises(FixedPointError):
            FixedFormat(total, frac)

    def test_value_outside_format_rejected(self):
        with pytest.raises(FixedPointError):
            FixedValue(40000, Q15)


class TestQuantize:
    def test_exact_half(self):
        assert quantize(0.5, Q15).raw == 16384

    def test_positive_one_saturates(self):
        assert quantize(1.0, Q15).raw == 32767

    def test_negative_one_exact(self):
        assert quantize(-1.0, Q15).raw == -32768

    def test_tie_to_even(self):
        # exactly half an LSB rounds to the even raw value 0
        assert quantize(2.0**-16, Q15).raw == 0
        assert quantize(3 * 2.0**-16, Q15).raw == 2

    def test_nan_rejected(self):
        with pytest.raises(FixedPointError):
            quantize(float("nan"), Q15)

    def test_infinities_clamp(self):
        assert quantize(float("inf"), Q15).raw == 32767
        assert quantize(float("-inf"), Q15).raw == -32768

    @given(value=st.floats(-0.999, 0.999), frac=st.integers(4, 30))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_half_lsb(self, value, frac):
        fmt = FixedFormat(frac + 2, frac)
        v = quantize(value, fmt)
        assert abs(to_real(v) - value) <= 2.0 ** (-frac - 1)

    @given(
        fmt=wide_formats(),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
        near=st.lists(st.floats(-4.0, 4.0), max_size=8),
    )
    @example(fmt=FixedFormat(64, 63), values=[1.0], near=[])
    @example(fmt=FixedFormat(64, 10), values=[1.0], near=[])
    @example(fmt=FixedFormat(64, 63), values=[1e308], near=[])
    @settings(max_examples=300, deadline=None)
    def test_block_matches_scalar(self, fmt, values, near):
        # near: multiples of the format's range, where saturation acts
        scale = math.ldexp(1.0, fmt.total_bits - 1 - fmt.frac_bits)
        lo, hi = fmt.raw_min * fmt.lsb, fmt.raw_max * fmt.lsb
        limits = [lo, hi, scale, lo - fmt.lsb, 1.0, -1.0]
        values = values + [v * scale for v in near] + limits
        try:
            expect = [quantize(v, fmt).raw for v in values]
        except FixedPointError:  # the scaled value overflows a double
            with pytest.raises(FixedPointError):
                quantize_block(values, fmt)
            return
        got = quantize_block(values, fmt)
        assert got.dtype == np.int64
        assert got.tolist() == expect

    def test_to_real_examples(self):
        assert to_real(FixedValue(16384, Q15)) == 0.5
        assert to_real(FixedValue(-32768, Q15)) == -1.0


class TestFixedOps:
    # _requantize rounds a full-width product or sum once into a format and
    # flags an overflow, which the oracle below ignores and these pin
    def test_mul_exact(self):
        half = quantize(0.5, Q15).raw
        assert _requantize(half * half, 30, Q15) == (quantize(0.25, Q15).raw, False)

    def test_mul_minus_one_squared_saturates(self):
        m1 = quantize(-1.0, Q15).raw
        assert _requantize(m1 * m1, 30, Q15) == (32767, True)

    def test_add_saturates(self):
        assert _requantize(Q15.raw_max + Q15.raw_max, 15, Q15) == (Q15.raw_max, True)

    def test_add_identity_bit_exact(self, rng):
        # adding zero at the operand's own fraction changes nothing
        for raw in map(int, rng.integers(Q15.raw_min, Q15.raw_max + 1, 100)):
            assert _requantize(raw + 0, 15, Q15) == (raw, False)

    @given(
        a_raw=st.integers(-(1 << 17), (1 << 17) - 1),
        b_raw=st.integers(-(1 << 17), (1 << 17) - 1),
        a_frac=st.integers(0, 17),
        b_frac=st.integers(0, 17),
        out=formats(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_integer_oracle(self, a_raw, b_raw, a_frac, b_frac, out):
        # a full-width product rounded once, as every register write is
        got, _ = _requantize(a_raw * b_raw, a_frac + b_frac, out)
        # oracle: exact rational arithmetic via Fraction
        from fractions import Fraction

        exact = Fraction(a_raw, 1 << a_frac) * Fraction(b_raw, 1 << b_frac)
        scaled = exact * (1 << out.frac_bits)
        assert got == _overflow_oracle(_round_half_even(scaled), out)

    def test_mul_error_within_one_lsb(self, rng):
        for _ in range(200):
            a = quantize(float(rng.uniform(-0.99, 0.99)), Q15)
            b = quantize(float(rng.uniform(-0.99, 0.99)), Q15)
            out = FixedValue(_requantize(a.raw * b.raw, 30, Q15)[0], Q15)
            assert abs(to_real(out) - to_real(a) * to_real(b)) <= Q15.lsb


def _round_half_even(frac):
    from fractions import Fraction

    floor = frac.numerator // frac.denominator
    rem = frac - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor + (floor & 1)


def _overflow_oracle(raw, fmt):
    return min(max(raw, fmt.raw_min), fmt.raw_max)


class TestQuantizeDesign:
    def test_half_lsb_bound(self):
        design = design_cascade(DesignParams(48000.0, 50))
        fmt = FixedFormat(32, 30)
        qd = quantize_design(design, coeff_format=fmt)
        for s, q in zip(design.sections, qd.coeffs_raw):
            for ideal, raw in zip((s.r, s.a0, s.c0, s.h, s.g), q):
                assert abs(math.ldexp(raw, -30) - ideal) <= 2.0**-31

    def test_idempotent(self):
        design = design_cascade(DesignParams(48000.0, 20))
        qd = quantize_design(design)
        again = quantize_design(dequantized_design(qd))
        assert again.coeffs_raw == qd.coeffs_raw

    def test_out_of_range_names_section_and_coeff(self):
        design = design_cascade(DesignParams(48000.0, 4))
        tight = FixedFormat(4, 3)  # range [-1, 0.875]: r near 1 will not fit
        with pytest.raises(DesignError, match=r"section \d+: coefficient"):
            quantize_design(design, coeff_format=tight)

    def test_every_constructor_checks_raw_range(self, tmp_path):
        design = design_cascade(DesignParams(48000.0, 2))
        qd = quantize_design(design)
        fmt = qd.coeff_format
        rows = list(qd.coeffs_raw)
        rows[1] = rows[1]._replace(g_raw=fmt.raw_max + 1)
        with pytest.raises(DesignError, match=r"section 1: coefficient g \(raw"):
            QuantizedDesign(design, fmt, qd.state_format, qd.io_format, tuple(rows))
        table = {i: dict(zip(("r", "a0", "c0", "h", "g"), q)) for i, q in enumerate(rows)}
        with pytest.raises(DesignError, match=r"section 1: coefficient g \(raw"):
            read_quantized_table(table_file(tmp_path / "q.csv", table, fmt), design)

    def test_zero_quantizes_to_zero(self):
        assert quantize(0.0, DEFAULT_COEFF_FORMAT).raw == 0

    def test_lane_arrays_built_once_read_only(self):
        qd = quantize_design(design_cascade(DesignParams(48000.0, 6)))
        rr, p, q, h, g = qd.lane_arrays
        assert qd.lane_arrays[0] is rr
        r, a0, c0, h_raw, g_raw = (list(col)[::-1] for col in zip(*qd.coeffs_raw))
        assert rr.tolist() == [[v, v] for v in r]
        assert p.tolist() == [[v, v] for v in a0]
        assert q.tolist() == [[-v, v] for v in c0]
        assert (h.tolist(), g.tolist()) == (h_raw, g_raw)
        for a in (rr, p, q, h, g):
            assert a.dtype == np.int64 and not a.flags.writeable


class TestFixedStepSection:
    def test_zero_in_zero_out(self):
        design = design_cascade(DesignParams(48000.0, 3))
        qd = quantize_design(design)
        state, y, sats = fixed_step_section(
            qd, 0, FixedSectionState(), FixedValue(0, qd.io_format)
        )
        assert state == FixedSectionState(0, 0)
        assert y.raw == 0
        assert sats == 0

    def test_single_input_relation(self):
        # zero state: w1' = x exactly; y = g*x rounded once
        design = design_cascade(DesignParams(48000.0, 3))
        qd = quantize_design(design)
        x = quantize(0.25, qd.io_format)
        state, y, sats = fixed_step_section(qd, 1, FixedSectionState(), x)
        sfrac = qd.state_format.frac_bits
        assert state.w1_raw == x.raw << (sfrac - qd.io_format.frac_bits)
        assert state.w2_raw == 0
        g_raw = qd.coeffs_raw[1].g_raw
        cfrac = qd.coeff_format.frac_bits
        expect = _round_half_even_int(g_raw * state.w1_raw, cfrac)
        assert y.raw == expect
        assert sats == 0

    def test_mid_cf_impulse_snr_pinned(self):
        # one mid-CF section, default formats, impulse at half scale
        design = design_cascade(DesignParams(48000.0, 100))
        qd = quantize_design(design)
        section = 50
        n = 2048
        x_imp = quantize(0.5, qd.io_format)
        zero = FixedValue(0, qd.io_format)
        state = FixedSectionState()
        fixed_out = np.empty(n)
        for i in range(n):
            state, y, _ = fixed_step_section(qd, section, state, x_imp if i == 0 else zero)
            fixed_out[i] = to_real(y)
        from carmodel.core import SectionState, step_section

        ref_design = dequantized_design(qd)
        fstate = SectionState()
        ref = np.empty(n)
        for i in range(n):
            fstate, ref[i] = step_section(
                ref_design.sections[section], fstate, 0.5 if i == 0 else 0.0
            )
        snr = 10 * np.log10((ref**2).sum() / ((ref - fixed_out) ** 2).sum())
        assert snr >= 60.0
        # regression pin: bit-exact datapath, deterministic reference
        assert snr == pytest.approx(116.1485, abs=0.01)


def _round_half_even_int(v, shift):
    half = 1 << (shift - 1)
    frac = v & ((1 << shift) - 1)
    base = v >> shift
    if frac > half or (frac == half and (base & 1)):
        base += 1
    return base


# a deterministic full-scale signal of 130 samples
LONG_SIGNAL = [((37 * i) % 19 - 9) / 9 for i in range(130)]


class TestFixedProcessBlock:
    def test_silence(self):
        design = design_cascade(DesignParams(48000.0, 10))
        qd = quantize_design(design)
        state = FixedCascadeState(10)
        out, stats = fixed_process_block(qd, state, [0] * 50)
        assert np.all(out == 0)
        assert stats.total == 0

    def test_matches_scalar_steps(self, rng):
        design = design_cascade(DesignParams(48000.0, 6, damping_zeta=0.25))
        qd = quantize_design(design)
        raw_in = quantize_block(rng.uniform(-0.5, 0.5, 40), qd.io_format)
        state = FixedCascadeState(6)
        out, _ = fixed_process_block(qd, state, raw_in)

        states = [FixedSectionState() for _ in range(6)]
        for t, x_io in enumerate(raw_in):
            x_raw, _ = _requantize(int(x_io), qd.io_format.frac_bits, qd.state_format)
            x = FixedValue(x_raw, qd.state_format)
            for k in range(6):
                states[k], y, _ = fixed_step_section(qd, k, states[k], x)
                assert out[t, k] == y.raw
                x = y

    def test_full_scale_dc_converges_no_silent_clip(self):
        design = design_cascade(DesignParams(48000.0, 8, x_apex=0.5, damping_zeta=0.3))
        qd = quantize_design(design)
        full = qd.io_format.raw_max
        state = FixedCascadeState(8)
        out, stats = fixed_process_block(qd, state, [full] * 3000)
        finals = to_real_block(out[-1:, :], qd.state_format)
        assert np.max(np.abs(finals - to_real(FixedValue(full, qd.io_format)))) < 1e-3
        assert stats.total == int(stats.section_saturations.sum()) + stats.input_saturations

    def test_bit_exact_determinism(self, rng):
        design = design_cascade(DesignParams(48000.0, 12, damping_zeta=0.25))
        qd = quantize_design(design)
        raw_in = quantize_block(rng.uniform(-0.25, 0.25, 200), qd.io_format)
        s1 = FixedCascadeState(12)
        s2 = FixedCascadeState(12)
        out1, _ = fixed_process_block(qd, s1, raw_in)
        out2, _ = fixed_process_block(qd, s2, raw_in)
        assert np.array_equal(out1, out2)
        assert np.array_equal(s1.w1_raw, s2.w1_raw)

    def test_input_out_of_format_rejected(self):
        design = design_cascade(DesignParams(48000.0, 3))
        qd = quantize_design(design)
        for run in (fixed_process_block, fixed_process_block_py):
            for bad in (
                [qd.io_format.raw_max + 1],
                [2**70],
                [0.7, 1.9],  # not integers: rejected, never truncated
                np.zeros((2, 2), dtype=np.int64),  # not 1-D
            ):
                with pytest.raises(ConfigError):
                    run(qd, FixedCascadeState(3), bad)
            out, stats = run(qd, FixedCascadeState(3), [])
            assert out.shape == (0, 3) and stats.total == 0

    def test_io_wider_than_a_double_is_exact(self):
        # 2^62 + 2^38 + 1 is not a double: rounded to one, its entrance into
        # the 24-bit state fraction would be a tie, taken to the even 2^23
        # where the exact value rounds up to 2^23 + 1
        qd = quantize_design(design_cascade(DesignParams(48000.0, 2)),
                             io_format=FixedFormat(64, 63))
        xs = [2**62 + 2**38 + 1]
        out, _ = fixed_process_block(qd, FixedCascadeState(2), xs)
        ref, _ = fixed_process_block_py(qd, FixedCascadeState(2), xs)
        assert np.array_equal(out, ref)

    def test_state_arrays_updated_and_reset_in_place(self):
        design = design_cascade(DesignParams(48000.0, 4))
        qd = quantize_design(design)
        stats = []
        for run in (fixed_process_block, fixed_process_block_py):
            state = FixedCascadeState(4)
            w1, w2 = state.w1_raw, state.w2_raw
            assert w1.dtype == w2.dtype == np.int64
            stats.append(run(qd, state, quantize_block(mls_signal(6, 0.5), qd.io_format))[1])
            assert state.w1_raw is w1 and state.w2_raw is w2
            assert w1.any() and w2.any()
        assert np.array_equal(stats[0].section_saturations, stats[1].section_saturations)
        assert stats[0].input_saturations == stats[1].input_saturations

    def test_saturation_counted_not_hidden(self):
        # a cramped state format must overflow on resonant buildup and say so
        design = design_cascade(DesignParams(48000.0, 30))
        tiny_state = FixedFormat(12, 10)  # range +-2: resonances exceed it
        qd = quantize_design(design, state_format=tiny_state)
        sig = mls_signal(10, 0.9)
        raw_in = quantize_block(sig, qd.io_format)
        _, stats = fixed_process_block(qd, FixedCascadeState(30), raw_in)
        _, ref_stats = fixed_process_block_py(qd, FixedCascadeState(30), raw_in)
        assert stats.total > 0
        assert np.array_equal(stats.section_saturations, ref_stats.section_saturations)
        assert stats.input_saturations == ref_stats.input_saturations

    def test_overflow_onto_raw_max(self):
        # integer formats, one hand-set section: w1 = 3*100 + 83 = 383 is
        # past raw_max = 127 and saturates onto it
        design = design_cascade(DesignParams(48000.0, 1))
        rows = (QuantizedSectionCoeffs(r_raw=1, a0_raw=3, c0_raw=0, h_raw=0, g_raw=1),)
        state_fmt = FixedFormat(8, 0)
        qd = QuantizedDesign(design, FixedFormat(4, 0), state_fmt, FixedFormat(8, 0), rows)
        state = FixedCascadeState(1)
        out, stats = fixed_process_block(qd, state, [100, 83])
        assert out[:, 0].tolist() == [100, 83]
        assert state.w1_raw.tolist() == [127]
        assert stats.section_saturations.tolist() == [1]
        ref_state = FixedCascadeState(1)
        ref_out, _ = fixed_process_block_py(qd, ref_state, [100, 83])
        assert np.array_equal(out, ref_out)
        assert ref_state.w1_raw.tolist() == [127]

    def test_overflow_onto_raw_min(self):
        # the section of test_overflow_onto_raw_max: y = x = -128 and
        # w1 = 3*(-40) - 8 = -128 are raw_min itself, in range and no event;
        # one LSB lower is one event, onto raw_min
        design = design_cascade(DesignParams(48000.0, 1))
        rows = (QuantizedSectionCoeffs(r_raw=1, a0_raw=3, c0_raw=0, h_raw=0, g_raw=1),)
        state_fmt = FixedFormat(8, 0)
        qd = QuantizedDesign(design, FixedFormat(4, 0), state_fmt, FixedFormat(8, 0), rows)
        for xs, w1, events in (([-128], -128, 0), ([-40, -8], -128, 0), ([-40, -9], -128, 1)):
            state = FixedCascadeState(1)
            out, stats = fixed_process_block(qd, state, xs)
            assert out[:, 0].tolist() == xs
            assert state.w1_raw.tolist() == [w1]
            assert stats.section_saturations.tolist() == [events]
            ref_state = FixedCascadeState(1)
            ref_out, ref_stats = fixed_process_block_py(qd, ref_state, xs)
            assert np.array_equal(out, ref_out)
            assert ref_state.w1_raw.tolist() == [w1]
            assert ref_stats.section_saturations.tolist() == [events]

    def test_snr_monotone_in_word_length(self):
        design = design_cascade(DesignParams(48000.0, 10, x_apex=0.5, damping_zeta=0.2))
        sig = mls_signal(10, 0.25)
        snrs = []
        for frac in (12, 16, 20, 24, 28):
            state_fmt = FixedFormat(frac + 8, frac)
            io_fmt = FixedFormat(frac + 1, frac)
            qd = quantize_design(design, state_format=state_fmt, io_format=io_fmt)
            raw_in = quantize_block(sig, io_fmt)
            st = FixedCascadeState(10)
            out, stats = fixed_process_block(qd, st, raw_in)
            assert stats.total == 0
            fixed_real = to_real_block(out, state_fmt)
            ref_state = CascadeState(10)
            ref = process_block(
                dequantized_design(qd), ref_state, to_real_block(raw_in, io_fmt)
            )
            err = ((ref - fixed_real) ** 2).sum()
            snrs.append(10 * math.log10(float((ref**2).sum() / err)))
        assert all(b >= a for a, b in zip(snrs, snrs[1:]))
        assert snrs[-1] > snrs[0] + 40  # converges toward the float reference

    @given(
        coeff_frac=st.integers(0, 24),
        coeff_int=st.integers(3, 5),
        state_bits=st.integers(6, 64),
        state_int=st.integers(1, 12),
        io_bits=st.integers(2, 24),
        n_sections=st.integers(1, 12),
        signal=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
        cuts=st.lists(st.integers(1, 15), min_size=1, max_size=6),
    )
    # the defaults, a saturating state, and a 64-bit state outside the int64 envelope
    @example(16, 2, 32, 8, 16, 12, [0.9, -1.0] * 20, [1, 5])
    @example(10, 2, 12, 2, 16, 12, [0.9, -1.0] * 20, [3])
    @example(16, 2, 64, 24, 16, 5, [0.5, -0.25] * 10, [2, 7])
    # chunks of n - 1, n and n + 1 samples, a long full-width stretch, then
    # partial chunks: the kernel's lanes change from full to narrow and back
    @example(16, 2, 32, 8, 16, 12, LONG_SIGNAL, [11, 12, 13, 80, 3, 1])
    @example(10, 2, 12, 2, 16, 12, LONG_SIGNAL, [11, 12, 13, 80, 3, 1])
    # whole blocks of 1, n - 1, n and n + 1 samples: row strides of the
    # sample count and of n, and the edges of the fill and the drain
    @example(16, 2, 32, 8, 16, 12, LONG_SIGNAL[:1], [1])
    @example(16, 2, 32, 8, 16, 12, LONG_SIGNAL[:11], [11])
    @example(16, 2, 32, 8, 16, 12, LONG_SIGNAL[:12], [12])
    @example(16, 2, 32, 8, 16, 12, LONG_SIGNAL[:13], [13])
    # entrances that round: ties (io raw 16 and 48 over a 5-bit shift), and
    # io values near +1 that round up past a Q1 state's raw_max and
    # saturate; and a 64-bit io format, outside the int64 envelope
    @example(16, 2, 12, 2, 16, 3, [2**-11, 3 * 2**-11, -(2**-11), -3 * 2**-11] * 3, [5])
    @example(16, 2, 8, 1, 16, 3, [1.0, 0.9999, -1.0] * 3, [4])
    @example(16, 2, 32, 8, 64, 4, [0.5, -0.3, 1.0] * 4, [5])
    # the one-limb form with a round shift of 0, the only write that does
    # not round
    @example(0, 3, 32, 8, 16, 5, LONG_SIGNAL[:40], [7])
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(
        self, coeff_frac, coeff_int, state_bits, state_int, io_bits, n_sections, signal, cuts,
    ):
        coeff_fmt = FixedFormat(coeff_frac + coeff_int, coeff_frac)
        state_fmt = FixedFormat(state_bits, max(0, state_bits - state_int))
        io_fmt = FixedFormat(io_bits, io_bits - 1)
        design = design_cascade(DesignParams(48000.0, n_sections, damping_zeta=0.2))
        qd = quantize_design(design, coeff_fmt, state_fmt, io_fmt)
        raw_in = quantize_block(signal, io_fmt)

        ref_state = FixedCascadeState(n_sections)
        ref_out, ref_stats = fixed_process_block_py(qd, ref_state, raw_in)
        state = FixedCascadeState(n_sections)
        out, stats = fixed_process_block(qd, state, raw_in)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(state.w1_raw, ref_state.w1_raw)
        assert np.array_equal(state.w2_raw, ref_state.w2_raw)
        assert np.array_equal(stats.section_saturations, ref_stats.section_saturations)
        assert stats.input_saturations == ref_stats.input_saturations

        # uneven chunks, some shorter than the cascade, carry the state exactly
        chunked = FixedCascadeState(n_sections)
        parts, start, i = [], 0, 0
        section_sat, input_sat = 0, 0
        while start < len(raw_in):
            stop = start + cuts[i % len(cuts)]
            part, part_stats = fixed_process_block(qd, chunked, raw_in[start:stop])
            parts.append(part)
            section_sat += part_stats.section_saturations
            input_sat += part_stats.input_saturations
            start, i = stop, i + 1
        assert np.array_equal(np.concatenate(parts), ref_out)
        assert np.array_equal(chunked.w1_raw, ref_state.w1_raw)
        assert np.array_equal(chunked.w2_raw, ref_state.w2_raw)
        assert np.array_equal(section_sat, ref_stats.section_saturations)
        assert input_sat == ref_stats.input_saturations


def hand_set(coeffs, coeff_fmt=DEFAULT_COEFF_FORMAT, state_fmt=DEFAULT_STATE_FORMAT):
    """A quantized design of one section per (r, a0, c0, h, g) raw row."""
    design = design_cascade(DesignParams(48000.0, len(coeffs)))
    rows = tuple(QuantizedSectionCoeffs(*c) for c in coeffs)
    return QuantizedDesign(design, coeff_fmt, state_fmt, DEFAULT_IO_FORMAT, rows)


def run_like_oracle(qd, w1, w2, calls):
    """Push each call's io raw samples through a FixedStream whose state
    starts at (w1, w2), the last call being a flush; checks rows, state and
    saturation counts against the reference loop and returns its stats."""
    n = qd.n_sections
    state, ref_state = FixedCascadeState(n), FixedCascadeState(n)
    for s in (state, ref_state):
        s.w1_raw[:], s.w2_raw[:] = w1, w2
    expect, ref_stats = fixed_process_block_py(qd, ref_state, np.concatenate(calls))
    stream = FixedStream(qd, state)
    rows = [stream.push(c) for c in calls[:-1]] + [stream.flush(calls[-1])]
    assert np.array_equal(np.concatenate(rows), expect)
    assert np.array_equal(state.w1_raw, ref_state.w1_raw)
    assert np.array_equal(state.w2_raw, ref_state.w2_raw)
    assert np.array_equal(stream.stats.section_saturations, ref_stats.section_saturations)
    assert stream.stats.input_saturations == ref_stats.input_saturations
    return ref_stats


class TestOneLimbBound:
    """The edges of the bound that lets the int64 kernel round a line in one
    limb: each case is one where a looser bound would let a write that
    overflows through unchecked."""

    def test_w1_rounds_up_onto_raw_max_plus_one(self):
        # r = 1, a0 = 1 + 2^-16: tick 1 takes w1 to W = 2130674432 and tick 2
        # writes round(r*a0*W + x) with floor(r*a0*W) + x = raw_max and a
        # fraction of 0.51, so w1' = raw_max + 1, where the bound without
        # its slack would say raw_max
        qd = hand_set([(1 << 16, (1 << 16) + 1, 0, 0, 0)])
        stats = run_like_oracle(qd, [2130641921], [0], [np.array([0, 32767])])
        assert stats.section_saturations.tolist() == [1]

    def test_first_tick_of_a_push_reads_x_near_raw_max(self):
        # section 0 holds w2 = 2^29 - 2^25 and gives y = g*h*w2, about
        # raw_max - 2^27, from its first tick on; section 1 (w1' = w1 + x,
        # w1 = 2^28) first reads it on the first tick of the second call and
        # overflows there, with max|w| * G well below raw_max
        one, top = 1 << 16, (1 << 17) - 1
        qd = hand_set([(one, one, 0, top, top), (one, one, 0, 0, 0)])
        stats = run_like_oracle(qd, [0, 1 << 28], [(1 << 29) - (1 << 25), 0],
                                [np.zeros(1, np.int64), np.zeros(2, np.int64)])
        assert stats.section_saturations.tolist() == [0, 3]

    def test_fill_ticks_enter_lanes_near_raw_max(self):
        # sections 0 and 1 pass x through; section 2, with r*a0 = 1 + 2^-6
        # and w1 = raw_max - 2^20, overflows on the tick it enters
        one, sfmt = 1 << 16, DEFAULT_STATE_FORMAT
        qd = hand_set([(0, 0, 0, 0, one)] * 2 + [(one, one + (1 << 10), 0, 0, 0)])
        stats = run_like_oracle(qd, [0, 0, sfmt.raw_max - (1 << 20)], [0, 0, 0],
                                [np.array([100, -200, 300, 0, 5])])
        assert stats.section_saturations[2] > 0

    def test_wide_coefficients_wrap_in_int64(self):
        # 38/10 coefficients r = a0 = 2^32: r*a0 = 2^64 is 0 in int64, so a
        # gain taken from int64 products would call w1' = 2^44 * w1 small
        # on tick 2, after tick 1 wrote w1 = x = 1 (io 2048, a 6/4 LSB)
        qd = hand_set([(1 << 32, 1 << 32, 0, 0, 0)], FixedFormat(38, 10), FixedFormat(6, 4))
        stats = run_like_oracle(qd, [0], [0], [np.array([2048, 0, 0, 0])])
        assert stats.section_saturations.tolist() == [3]

    def test_norm_seed_covers_both_values(self):
        # a 45-degree rotation (r = 1, a0 = c0 = 2^-1/2) of w1 = w2 = 3/4 of
        # full scale: each value fits, but their norm, and so w2', is
        # sqrt(2) * 3/4 of full scale, past raw_max
        one, c = 1 << 16, 46341
        top = DEFAULT_STATE_FORMAT.raw_max * 3 // 4
        qd = hand_set([(one, c, c, 0, 0)])
        stats = run_like_oracle(qd, [top], [top], [np.zeros(1, np.int64)])
        assert stats.section_saturations.tolist() == [1]

    def test_norm_bound_keeps_lanes_not_yet_entered(self):
        # damped sections (r = 1/2 or 0), so the norm bound of the lanes
        # written shrinks on the fill ticks; section 3 enters on tick 3 with
        # w1 at 0.7 of full scale and x = y of section 2, whose g*h*w2' is
        # about 0.8 of it, and overflows: the bound has to keep section 3's
        # norm from before it entered
        one, half, top = 1 << 16, 1 << 15, (1 << 17) - 1
        raw_max = DEFAULT_STATE_FORMAT.raw_max
        qd = hand_set([(0, 0, 0, 0, one)] * 2 + [(half, one, 0, top, top), (half, one, 0, 0, 0)])
        stats = run_like_oracle(qd, [0, 0, 0, raw_max * 7 // 10], [0, 0, raw_max * 4 // 10, 0],
                                [np.zeros(5, np.int64)])
        assert stats.section_saturations[3] > 0

    def test_norm_bound_forgotten_after_exact_write(self):
        # a Q0.15 state, r*a0 = 1 + 2^-4: the second call's full-scale x
        # leaves no room for one limb, so its write is exact and takes w1 to
        # raw_max; the third call's x is 0, but w1 grows past raw_max, which
        # the norm bound of the small first call no longer covers
        one = 1 << 16
        qd = hand_set([(one, one + (1 << 12), 0, 0, 0)], state_fmt=FixedFormat(16, 15))
        stats = run_like_oracle(qd, [0], [0], [np.ones(3, np.int64), np.array([32767]),
                                                np.zeros(2, np.int64)])
        assert stats.section_saturations.tolist() == [3]

    def test_states_past_one_limb(self):
        # with s = 32, a 40/32 state's values from 2^31 up (0.5) do not fit
        # one limb
        qd = quantize_design(design_cascade(DesignParams(48000.0, 12, damping_zeta=0.2)),
                             state_format=FixedFormat(40, 32))
        raw_in = quantize_block(LONG_SIGNAL, qd.io_format)
        run_like_oracle(qd, 0, 0, [raw_in[:50], raw_in[50:]])


@st.composite
def fixed_stream_runs(draw):
    """A section count and a sequence of pushes (sizes, with 0, 1, n - 1,
    n and n + 1 among them) and flushes (None)."""
    n = draw(st.sampled_from([1, 2, 3, 7, 12]))
    edges = st.sampled_from(sorted({0, 1, max(0, n - 1), n, n + 1}))
    step = st.one_of(st.none(), edges, st.integers(0, 3 * n))
    return n, draw(st.lists(step, max_size=10))


class TestFixedStream:
    @given(
        state_fmt=st.tuples(st.integers(6, 64), st.integers(1, 12)),
        run=fixed_stream_runs(),
        tail=st.integers(0, 14),
        seed=st.integers(0, 2**32 - 1),
        zeta=st.sampled_from([0.0, 0.2]),
        start=st.integers(0, 8),
    )
    # saturating 12-bit states, and 64-bit states outside the int64
    # envelope, which run on object lanes; the second of them overflows
    # past 2^63, which no int64 holds, and saturates
    @example((12, 2), (12, [11, 12, 13, 80, None, 1, 0]), 5, 1, 0.2, 0)
    @example((12, 2), (7, [6, 7, 8, 0, 40, 1]), 3, 2, 0.2, 0)
    @example((64, 24), (7, [6, None, 8, 1, 0, 20]), 2, 3, 0.2, 0)
    @example((64, 2), (7, [6, None, 8, 1, 0, 20]), 2, 3, 0.2, 0)
    # a short fresh flush on object lanes: its ticks take their lane views
    # from strided views of object arrays
    @example((64, 8), (12, []), 4, 6, 0.2, 0)
    # full-scale inputs overflow a Q1.7 state at the entrance between flushes
    @example((8, 1), (3, [5, None, 5, None, 4]), 3, 4, 0.2, 0)
    # the w-lines' norm bound: undamped sections (rho >= 2^s) from rest; a
    # state whose lanes' norm, sqrt(2) * 3/4 of full scale, is past raw_max
    # while each value is below it; a state at 5/8 of full scale, where the
    # bound starts one-limb; undamped sections from rest in uneven pushes;
    # writes that saturate once undamped sections ring up, after one-limb
    # ticks; and pushes that split the fill, a flush that fills and drains,
    # then a fill split again
    @example((32, 8), (12, [11, 12, 13, 80, None, 1, 0]), 5, 1, 0.0, 0)
    @example((32, 8), (12, [11, 12, 13, 80, None, 1, 0]), 5, 1, 0.0, 6)
    @example((32, 12), (12, [11, 12, 13, 80, None, 1, 0]), 5, 1, 0.2, 5)
    @example((32, 12), (7, [6, 7, 8, 0, 40, 1]), 3, 2, 0.0, 0)
    @example((32, 5), (12, [30, 30, 30, None, 30, 30]), 5, 7, 0.0, 1)
    @example((32, 12), (12, [3, 4, None, 5, 2]), 9, 8, 0.2, 0)
    @settings(max_examples=100, deadline=None)
    def test_push_flush_equals_reference_loop(self, state_fmt, run, tail, seed, zeta, start):
        bits, int_bits = state_fmt
        n, steps = run
        design = design_cascade(DesignParams(48000.0, n, damping_zeta=zeta))
        sfmt = FixedFormat(bits, max(0, bits - int_bits))
        qd = quantize_design(design, state_format=sfmt)
        rng = np.random.default_rng(seed)
        # the last tail samples go in with the final flush
        x = rng.uniform(-1, 1, sum(s or 0 for s in steps) + tail)
        x[::5] = 1.0  # rounds up past raw_max of a state with 1 integer bit
        raw_in = quantize_block(x, qd.io_format)
        # every w1 and w2 starts at +-start/8 of full scale
        w1, w2 = rng.choice([-1, 1], (2, n)) * (sfmt.raw_max * start // 8)
        ref_state = FixedCascadeState(n)
        ref_state.w1_raw[:], ref_state.w2_raw[:] = w1, w2
        expect, ref_stats = fixed_process_block_py(qd, ref_state, raw_in)

        state = FixedCascadeState(n)
        state.w1_raw[:], state.w2_raw[:] = w1, w2
        stream = FixedStream(qd, state)
        rows, pushed, section_sat, input_sat = [], 0, 0, 0
        for size in steps:
            if size is None:
                rows.append(stream.flush())
                section_sat += stream.stats.section_saturations
                input_sat += stream.stats.input_saturations
            else:
                rows.append(stream.push(raw_in[pushed : pushed + size]))
                pushed += size
        rows.append(stream.flush(raw_in[pushed:]))
        section_sat += stream.stats.section_saturations
        input_sat += stream.stats.input_saturations
        assert np.array_equal(np.concatenate(rows), expect)
        assert np.array_equal(state.w1_raw, ref_state.w1_raw)
        assert np.array_equal(state.w2_raw, ref_state.w2_raw)
        assert np.array_equal(section_sat, ref_stats.section_saturations)
        assert input_sat == ref_stats.input_saturations

    def test_lanes_logged_and_object_rows_int64(self, caplog):
        # the envelope picks the lanes: int64 for the default formats, object
        # for a 64-bit state and for a state holding a value outside its format
        design = design_cascade(DesignParams(48000.0, 5, damping_zeta=0.2))
        default, wide = quantize_design(design), quantize_design(
            design, state_format=FixedFormat(64, 56))
        outside = FixedCascadeState(5)
        outside.w1_raw[2] = default.state_format.raw_max + 1
        raw_in = quantize_block(np.linspace(-0.9, 0.9, 13), default.io_format)
        caplog.set_level("INFO", logger="carmodel.fixed")
        for qd, state, lanes in ((default, FixedCascadeState(5), "int64"),
                                 (wide, FixedCascadeState(5), "object"),
                                 (default, outside, "object")):
            ref_state = FixedCascadeState(5)
            ref_state.w1_raw[:] = state.w1_raw
            expect, ref_stats = fixed_process_block_py(qd, ref_state, raw_in)
            caplog.clear()
            stream = FixedStream(qd, state)
            assert caplog.messages == [f"fixed kernel: 5 sections on {lanes} lanes"]
            rows = [stream.push(raw_in[:7]), stream.flush(raw_in[7:])]
            assert [r.dtype for r in rows] == [np.int64, np.int64]
            assert np.array_equal(np.concatenate(rows), expect)
            assert np.array_equal(state.w1_raw, ref_state.w1_raw)
            assert np.array_equal(stream.stats.section_saturations,
                                  ref_stats.section_saturations)
            assert stream.stats.input_saturations == ref_stats.input_saturations

    def test_flush_logs_exact_lines(self, caplog):
        # compare's 100-section design at the default formats: the bounds
        # carry across pushes, so every line takes the one-limb form, and the
        # w-lines' norm bound is reseeded from a reduction of the state on
        # fewer than a tenth of the ticks; a saturating 12/10 state often
        # writes exactly, and object lanes always do, with no reduction
        compare = design_cascade(DesignParams(48000.0, 100, damping_zeta=0.25))
        # 2400 samples of -12 dBFS noise, io raw
        noise = np.random.default_rng(11).integers(-8230, 8231, 2400)
        caplog.set_level("INFO", logger="carmodel.fixed")
        for qd, exact in ((quantize_design(compare), "none"),
                          (quantize_design(compare, state_format=FixedFormat(12, 10)), "some"),
                          (quantize_design(compare, state_format=FixedFormat(64, 56)), "all")):
            for calls in ([noise], [noise[i : i + 53] for i in range(0, 2400, 53)]):
                caplog.clear()
                stream = FixedStream(qd, FixedCascadeState(100))
                rows = [stream.push(c) for c in calls[:-1]] + [stream.flush(calls[-1])]
                message = caplog.messages[-1]
                ticks, exact_w, exact_y, reductions = map(int, re.findall(r"\d+", message))
                assert message == (f"fixed flush: {ticks} ticks, {exact_w} exact w-lines, "
                                   f"{exact_y} exact y-lines, {reductions} headroom reductions")
                assert ticks == 2400 + 99
                assert sum(map(len, rows)) == 2400
                if exact == "none":
                    assert exact_w == exact_y == 0 and reductions < ticks / 10
                    assert stream.stats.total == 0
                elif exact == "some":
                    assert exact_w + exact_y > 0 and stream.stats.total > 0
                else:
                    assert exact_w == exact_y == ticks and reductions == 0

    def test_failed_chain_falls_back_to_the_ticks_own_bound(self, caplog):
        # 12 sections at zeta = 0.2, a 32/22 state whose w1 and w2 start at
        # +-1/4 of full scale, and +-1 noise in 30-sample pushes: by the
        # second flush the state holds most of its range, and the norm chain
        # fails right after every seed; the tick's own bound, with
        # G = max(|r*a0| + |r*c0|) = 1.22 * 2^s below sqrt(2) * rho = 1.41 *
        # 2^s, still passes on some ticks (every tick took the exact form
        # before it)
        design = design_cascade(DesignParams(48000.0, 12, damping_zeta=0.2))
        sfmt = FixedFormat(32, 22)
        qd = quantize_design(design, state_format=sfmt)
        rng = np.random.default_rng(5)
        raw_in = quantize_block(rng.uniform(-1, 1, 130), qd.io_format)
        w1, w2 = rng.choice([-1, 1], (2, 12)) * (sfmt.raw_max // 4)
        ref_state = FixedCascadeState(12)
        ref_state.w1_raw[:], ref_state.w2_raw[:] = w1, w2
        expect, ref_stats = fixed_process_block_py(qd, ref_state, raw_in)

        state = FixedCascadeState(12)
        state.w1_raw[:], state.w2_raw[:] = w1, w2
        stream = FixedStream(qd, state)
        caplog.set_level("INFO", logger="carmodel.fixed")
        rows = [stream.push(raw_in[:30]), stream.push(raw_in[30:60]), stream.flush(raw_in[60:65])]
        first = stream.stats
        rows += [stream.push(raw_in[65:95]), stream.push(raw_in[95:125]),
                 stream.flush(raw_in[125:])]
        assert np.array_equal(np.concatenate(rows), expect)
        assert np.array_equal(state.w1_raw, ref_state.w1_raw)
        assert np.array_equal(state.w2_raw, ref_state.w2_raw)
        section_sat = first.section_saturations + stream.stats.section_saturations
        assert np.array_equal(section_sat, ref_stats.section_saturations)
        assert first.input_saturations + stream.stats.input_saturations == ref_stats.input_saturations
        assert ref_stats.total == 0
        ticks, exact_w, _, seeds = map(int, re.findall(r"\d+", caplog.messages[-1]))
        assert ticks == seeds == 76
        assert exact_w < ticks

    def test_checks_like_fixed_process_block(self):
        qd = quantize_design(design_cascade(DesignParams(48000.0, 3)))
        with pytest.raises(ConfigError):
            FixedStream(qd, FixedCascadeState(4))
        stream = FixedStream(qd, FixedCascadeState(3))
        with pytest.raises(ConfigError):
            stream.push([0, 1 << 15])
        with pytest.raises(ConfigError):
            stream.push([0.5])


class TestQuantizedTable:
    def test_round_trip(self, tmp_path):
        design = design_cascade(DesignParams(48000.0, 7))
        qd = quantize_design(design)
        path = tmp_path / "quantized.csv"
        write_quantized_table(qd, path)
        rebuilt = read_quantized_table(path, design)
        assert rebuilt.coeff_format == qd.coeff_format
        assert rebuilt.coeffs_raw == qd.coeffs_raw

    def test_header(self, tmp_path):
        design = design_cascade(DesignParams(48000.0, 2))
        qd = quantize_design(design)
        path = tmp_path / "quantized.csv"
        write_quantized_table(qd, path)
        assert path.read_text().splitlines()[0] == "section,coeff_name,raw_int,total_bits,frac_bits"

    @pytest.mark.parametrize("bits", [(18, 16), (64, 62)])
    def test_bytes_match_csv_writer(self, tmp_path, bits):
        # the bytes csv.writer gives these rows, CRLF line ends and all
        fmt = FixedFormat(*bits)
        qd = quantize_design(design_cascade(DesignParams(48000.0, 3)), coeff_format=fmt)
        path = tmp_path / "quantized.csv"
        path.write_bytes(b"x" * 10000)  # longer than the table
        write_quantized_table(qd, path)
        text = io.StringIO()
        w = csv.writer(text)
        w.writerow(["section", "coeff_name", "raw_int", "total_bits", "frac_bits"])
        w.writerows([i, name, raw, *bits] for i, q in enumerate(qd.coeffs_raw)
                    for name, raw in zip(("r", "a0", "c0", "h", "g"), q))
        assert path.read_bytes() == text.getvalue().encode("ascii")

    def test_missing_section_rejected(self, tmp_path):
        design = design_cascade(DesignParams(48000.0, 3))
        qd = quantize_design(design)
        path = tmp_path / "quantized.csv"
        write_quantized_table(qd, path)
        rows_text = [l for l in path.read_text().splitlines() if not l.startswith("2,")]
        path.write_text("\n".join(rows_text) + "\n")
        with pytest.raises(DesignError):
            read_quantized_table(path, design)

    def test_repeated_coefficient_rejected(self, tmp_path):
        # a repeated (section, coefficient) row would otherwise win silently
        qd = quantize_design(design_cascade(DesignParams(48000.0, 2)))
        path = tmp_path / "quantized.csv"
        write_quantized_table(qd, path)
        with open(path, "a", newline="") as f:
            f.write("0,r,1,18,16\r\n")
        with pytest.raises(DesignError, match=r"^quantized-table line 12: section 0 coefficient r "):
            read_quantized_table(path, qd.design)

    @pytest.mark.parametrize("row, message", [
        ("0,r,1,99,16", "total_bits must be in [2, 64], got 99"),
        ("0,zz,1,18,16", "unknown coefficient 'zz'"),
        ("0,r,1,18,15", "inconsistent coefficient format"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        qd = quantize_design(design_cascade(DesignParams(48000.0, 2)))
        path = tmp_path / "quantized.csv"
        write_quantized_table(qd, path)
        with open(path, "a", newline="") as f:
            f.write(row + "\r\n")
        with pytest.raises(DesignError) as info:
            read_quantized_table(path, qd.design)
        assert str(info.value) == f"quantized-table line 12: section 0: {message}"

    @pytest.mark.parametrize("text, message", [
        ("section,coeff,raw_int,total_bits,frac_bits\n0,r,1,18,16\n",
         "bad quantized-table header: expected section,coeff_name,raw_int,total_bits,frac_bits"),
        ("", "bad quantized-table header: expected section,coeff_name,raw_int,total_bits,frac_bits"),
        ("section,coeff_name,raw_int,total_bits,frac_bits\n\n", "quantized table has no data rows"),
        ("section,coeff_name,raw_int,total_bits,frac_bits\n0,r,1,18,16\n0,a0,1,18,16\n",
         "section 0: missing coefficients ['c0', 'h', 'g']"),
    ], ids=["header", "empty", "no_rows", "missing_coefficient"])
    def test_bad_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "quantized.csv"
        path.write_text(text)
        with pytest.raises(DesignError) as info:
            read_quantized_table(path, design_cascade(DesignParams(48000.0, 1)))
        assert str(info.value) == message

    def test_missing_section_named_briefly(self, tmp_path):
        # names the missing and extra sections, not the 1223 others
        design = design_cascade(DesignParams(48000.0, 1224))
        rows = {i: {"r": 0} for i in range(1224) if i != 3}
        with pytest.raises(DesignError) as info:
            read_quantized_table(table_file(tmp_path / "q.csv", rows), design)
        assert str(info.value) == "quantized table for a 1224-section design: missing sections 3"
        rows.update({3: {"r": 0}, 1224: {"r": 0}, 1225: {"r": 0}, 1300: {"r": 0}})
        del rows[7], rows[8]
        with pytest.raises(DesignError, match=r"missing sections 7-8; extra sections 1224-1225, 1300$"):
            read_quantized_table(table_file(tmp_path / "q.csv", rows), design)

    def test_raw_integers_are_truth(self, tmp_path):
        # hand-edited raw survives a round trip untouched
        design = design_cascade(DesignParams(48000.0, 2))
        qd = quantize_design(design)
        fmt = qd.coeff_format
        rows = {i: dict(zip(("r", "a0", "c0", "h", "g"), q)) for i, q in enumerate(qd.coeffs_raw)}
        rows[1]["h"] += 3
        rebuilt = read_quantized_table(table_file(tmp_path / "q.csv", rows, fmt), design)
        assert rebuilt.coeffs_raw[1].h_raw == qd.coeffs_raw[1].h_raw + 3
