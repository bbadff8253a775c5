"""MLS generation, response measurement, parity, and peak extraction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from carmodel import analysis
from carmodel._csvfmt import CHUNK_VALUES
from carmodel._outfile import OutFile
from carmodel.analysis import (
    DB_FLOOR,
    DEFAULT_MLS_TAPS,
    MlsConfig,
    ResponseResult,
    frequency_response_analytic,
    frequency_response_measured,
    impulse_response,
    mls_generate,
    mls_warmup_periods,
    parity_report,
    peak_trajectory,
    write_impulse_csv,
    write_peaks_csv,
    write_response_csv,
)
from carmodel.core import CascadeState, CascadeStream, process_block, stream_rows
from carmodel.design import CascadeDesign, ChannelCoeffs, DesignParams, design_cascade
from carmodel.errors import AnalysisError, ConfigError
from carmodel.fixed import dequantized_design, quantize_design

from oracles import (
    CSV_EDGE_FLOATS,
    circular_autocorrelation_brute,
    csv_text,
    mls_sequence,
    taps_are_primitive,
)


def cascade_system(design):
    def system(stim):
        state = CascadeState(design.n_sections)
        return process_block(design, state, stim)

    return system


def identity_design(n=3):
    sections = tuple(
        ChannelCoeffs(cf_hz=1000, theta_r=1.0, r=0.0, a0=math.cos(1.0),
                      c0=math.sin(1.0), h=0.0, g=1.0, section_index=i)
        for i in range(n)
    )
    return CascadeDesign(sections=sections, sample_rate_hz=48000.0,
                         positions=tuple([0.5] * n))


class TestMlsGenerate:
    def test_order_3_worked_example(self):
        seq = mls_generate(MlsConfig(order=3))  # taps (3, 2)
        assert len(seq) == 7
        assert sorted((int((seq > 0).sum()), int((seq < 0).sum()))) == [3, 4]

    def test_order_10_period(self):
        assert len(mls_generate(MlsConfig(order=10))) == 1023

    def test_balanced_all_orders(self):
        for order in range(2, 17):
            seq = mls_generate(MlsConfig(order=order))
            assert int((seq > 0).sum()) == int((seq < 0).sum()) + 1

    def test_matches_register_stepped_bit_by_bit(self):
        for order in range(2, 17):
            expect = mls_sequence(order, DEFAULT_MLS_TAPS[order])
            assert mls_generate(MlsConfig(order=order)).tobytes() == expect.tobytes(), order

    def test_two_valued_autocorrelation_brute(self):
        cfg = MlsConfig(order=10)
        seq = mls_generate(cfg)
        ac = circular_autocorrelation_brute(seq)
        n = cfg.period
        assert ac[0] == pytest.approx(n)
        assert np.allclose(ac[1:], -1.0)

    def test_nonprimitive_taps_rejected(self, monkeypatch):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is not primitive
        monkeypatch.setitem(DEFAULT_MLS_TAPS, 4, (4, 2))
        with pytest.raises(AnalysisError, match="period"):
            mls_generate(MlsConfig(order=4))

    def test_default_taps_are_primitive_polynomials(self):
        for order, taps in DEFAULT_MLS_TAPS.items():
            assert taps_are_primitive(order, taps), (order, taps)

    def test_bad_configs(self):
        with pytest.raises(AnalysisError):
            MlsConfig(order=1)
        with pytest.raises(AnalysisError):
            MlsConfig(order=25)


class TestImpulseResponse:
    def test_identity_direct(self):
        ir = impulse_response(cascade_system(identity_design()), 16)
        assert np.array_equal(ir[0], np.ones(3))
        assert np.all(ir[1:] == 0.0)

    def test_single_section_first_sample_is_g(self, fast_design):
        ir = impulse_response(cascade_system(fast_design), 8)
        assert ir[0, 0] == fast_design.sections[0].g

    def test_mls_matches_direct_for_linear_cascade(self):
        design = design_cascade(DesignParams(48000.0, 20, x_apex=0.6))
        cfg = MlsConfig(order=14)
        warm = mls_warmup_periods(design, cfg.period)
        ir_mls = impulse_response(
            cascade_system(design), 2048, method="mls", mls_config=cfg,
            warmup_periods=warm,
        )
        ir_direct = impulse_response(cascade_system(design), 2048)
        rms = np.sqrt(((ir_mls - ir_direct) ** 2).mean(axis=0))
        assert rms.max() < 1e-6

    def test_identity_through_mls(self):
        ir = impulse_response(
            cascade_system(identity_design()), 32, method="mls",
            mls_config=MlsConfig(order=8),
        )
        assert np.allclose(ir[0], 1.0, atol=1e-12)
        assert np.allclose(ir[1:], 0.0, atol=1e-12)

    def test_n_samples_beyond_period_rejected(self):
        with pytest.raises(ConfigError):
            impulse_response(
                cascade_system(identity_design()), 300, method="mls",
                mls_config=MlsConfig(order=8),
            )

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            impulse_response(cascade_system(identity_design()), 8, method="chirp")

    def test_warmup_must_be_positive(self):
        with pytest.raises(ConfigError):
            impulse_response(
                cascade_system(identity_design()), 8, method="mls",
                mls_config=MlsConfig(order=8), warmup_periods=0,
            )

    def test_warmup_periods_helper(self, default_design_20, fast_design):
        # slow apex modes need several periods; a fast design needs one
        assert mls_warmup_periods(default_design_20, 16383) >= 6
        assert mls_warmup_periods(fast_design, 16383) == 1

    def test_warmup_follows_the_pole_radius(self):
        # the modes decay as r * sqrt(a0^2 + c0^2), which need not be r
        def design(scale):
            c = ChannelCoeffs(cf_hz=1000, theta_r=1.0, r=0.99, a0=math.cos(1.0) * scale,
                              c0=math.sin(1.0) * scale, h=0.0, g=1.0, section_index=0)
            return CascadeDesign(sections=(c,), sample_rate_hz=48000.0, positions=(0.5,))

        assert mls_warmup_periods(design(1.0), 255) == 13
        assert mls_warmup_periods(design(0.5), 255) == 1
        with pytest.raises(AnalysisError, match="never reaches a periodic state"):
            mls_warmup_periods(design(1.0 / 0.99), 255)


def block_system(design, rows):
    """cascade_system's output as row blocks of rows rows (None: one block)."""
    def system(stim):
        out = cascade_system(design)(stim)
        step = rows or len(out)
        return (out[i : i + step] for i in range(0, len(out), step))

    return system


class TestImpulseResponseBlocks:
    MLS = {"method": "mls", "mls_config": MlsConfig(order=8), "warmup_periods": 2}

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("method", ["direct_impulse", "mls"])
    def test_blocks_give_the_bits_of_one_array(self, fast_design, method, rows):
        kwargs = self.MLS if method == "mls" else {}
        whole = impulse_response(cascade_system(fast_design), 200, **kwargs)
        got = impulse_response(block_system(fast_design, rows), 200, **kwargs)
        assert got.shape == whole.shape == (200, fast_design.n_sections)
        assert got.tobytes() == whole.tobytes()

    def test_stream_of_taps_gives_the_bits_of_their_columns(self, fast_design):
        taps = [0, 4, 9]
        whole = impulse_response(cascade_system(fast_design), 200, **self.MLS)

        def system(stim):
            return stream_rows(CascadeStream(fast_design, CascadeState(10), taps=taps), stim)

        got = impulse_response(system, 200, **self.MLS)
        assert got.tobytes() == np.ascontiguousarray(whole[:, taps]).tobytes()

    @pytest.mark.parametrize("method", ["direct_impulse", "mls"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_row_count_rejected(self, fast_design, method, extra):
        kwargs = self.MLS if method == "mls" else {}

        def system(stim):
            blocks = list(block_system(fast_design, 7)(stim))
            if extra < 0:
                blocks[-1] = blocks[-1][:-1]
            else:
                blocks.append(blocks[-1][:1])
            return iter(blocks)

        with pytest.raises(ConfigError, match="rows, expected"):
            impulse_response(system, 200, **kwargs)
        with pytest.raises(ConfigError, match="rows, expected"):
            impulse_response(lambda stim: iter(()), 200, **kwargs)

    @pytest.mark.parametrize("method", ["direct_impulse", "mls"])
    def test_ragged_blocks_rejected(self, fast_design, method):
        kwargs = self.MLS if method == "mls" else {}

        def ragged(stim):
            out = cascade_system(fast_design)(stim)
            return iter([out[:5], out[5:, :-1]])

        for system in (ragged, lambda stim: iter([np.zeros(len(stim))])):
            with pytest.raises(ConfigError, match="blocks"):
                impulse_response(system, 200, **kwargs)


class TestFrequencyResponse:
    def test_identity_flat_zero_db(self):
        ir = impulse_response(cascade_system(identity_design()), 64)
        result = frequency_response_measured(ir, 48000.0)
        assert np.allclose(result.magnitudes_db, 0.0, atol=1e-9)
        assert result.flat.all()

    def test_dc_bin_unity(self, default_design_20):
        cfg = MlsConfig(order=12)
        warm = mls_warmup_periods(default_design_20, cfg.period)
        ir = impulse_response(
            cascade_system(default_design_20), cfg.period, method="mls",
            mls_config=cfg, warmup_periods=warm,
        )
        result = frequency_response_measured(ir, 48000.0)
        assert np.max(np.abs(result.magnitudes_db[0, :])) < 0.01

    def test_measured_matches_analytic(self, default_design_20):
        cfg = MlsConfig(order=13)
        warm = mls_warmup_periods(default_design_20, cfg.period)
        ir = impulse_response(
            cascade_system(default_design_20), cfg.period, method="mls",
            mls_config=cfg, warmup_periods=warm,
        )
        result = frequency_response_measured(ir, 48000.0)
        analytic = frequency_response_analytic(default_design_20, result.frequencies_hz)
        with np.errstate(divide="ignore"):
            db_analytic = np.maximum(20 * np.log10(np.abs(analytic)), DB_FLOOR)
        assert np.max(np.abs(result.magnitudes_db - db_analytic)) < 0.1

    def test_h_zero_sections_are_flat_at_dc_gain(self):
        # h = 0 puts the zeros on the poles: H = g and Eq-5 makes g = 1
        sections = []
        for i, theta in enumerate((0.5, 1.2, 2.0)):
            a0, c0 = math.cos(theta), math.sin(theta)
            sections.append(ChannelCoeffs(cf_hz=1000 + i, theta_r=theta, r=0.9,
                                          a0=a0, c0=c0, h=0.0, g=1.0, section_index=i))
        design = CascadeDesign(sections=tuple(sections), sample_rate_hz=48000.0,
                               positions=(0.1, 0.2, 0.3))
        gains = frequency_response_analytic(design, np.linspace(0, 23000, 64))
        assert np.allclose(np.abs(gains), 1.0, atol=1e-12)

    def test_analytic_dc_is_unity(self, default_design_20):
        gains = frequency_response_analytic(default_design_20, [0.0])
        assert np.allclose(np.abs(gains[0]), 1.0, atol=1e-10)

    def test_single_section_peak_near_cf(self):
        design = design_cascade(DesignParams(48000.0, 1, damping_zeta=0.05))
        freqs = np.linspace(10, 23900, 4000)
        mags = np.abs(frequency_response_analytic(design, freqs))[:, 0]
        peak_f = freqs[mags.argmax()]
        cf = design.sections[0].cf_hz
        assert cf / 2 < peak_f < cf * 1.1

    def test_nyquist_guard(self, default_design_20):
        with pytest.raises(ConfigError):
            frequency_response_analytic(default_design_20, [24000.0])

    def test_nfft_shorter_than_ir_rejected(self):
        with pytest.raises(ConfigError):
            frequency_response_measured(np.zeros((64, 2)), 48000.0, n_fft=32)

    def test_one_dimensional_ir_rejected(self):
        with pytest.raises(ConfigError, match=r"must be 2-D, got shape \(64,\)"):
            frequency_response_measured(np.zeros(64), 48000.0)

    def test_analytic_follows_a_quantized_design(self):
        # 18/16 coefficients break a0^2 + c0^2 = 1: the analytic response of
        # compare_fixed's dequantized design must still be the recurrence's
        design = dequantized_design(quantize_design(
            design_cascade(DesignParams(48000.0, 100, damping_zeta=0.25))))
        taps, n = [0, 33, 66, 99], 1 << 16
        impulse = np.zeros(n)
        impulse[0] = 1.0
        ir = np.concatenate(list(stream_rows(
            CascadeStream(design, CascadeState(100), taps=taps), impulse)))
        freqs = np.fft.rfftfreq(n, 1 / 48000.0)[:-1]  # below Nyquist
        with np.errstate(divide="ignore"):  # far stopband bins that round to 0
            measured = 20 * np.log10(np.abs(np.fft.rfft(ir, axis=0)[:-1]))
        analytic = 20 * np.log10(np.abs(frequency_response_analytic(design, freqs)[:, taps]))
        near = measured >= measured.max(axis=0) - 40  # within 40 dB of each peak
        assert np.abs(measured - analytic)[near].max() < 1e-6

    def test_internal_consistency(self, fast_design):
        ir = impulse_response(cascade_system(fast_design), 512)
        result = frequency_response_measured(ir, 48000.0, n_fft=1024)
        mag = np.abs(np.fft.rfft(result.impulse_responses, n=1024, axis=0))
        with np.errstate(divide="ignore"):
            recomputed = np.maximum(20.0 * np.log10(mag), DB_FLOOR)
        assert np.array_equal(recomputed, result.magnitudes_db)


class TestPeakTrajectory:
    def test_non_increasing_across_channels(self, default_design_20):
        ir = impulse_response(cascade_system(default_design_20), 8192)
        result = frequency_response_measured(ir, 48000.0, n_fft=16384)
        peak_hz, _, flat = peak_trajectory(result)
        assert not flat.any()
        diffs = np.diff(peak_hz)
        assert np.all(diffs <= 0)

    def test_identity_flagged_flat(self):
        ir = impulse_response(cascade_system(identity_design()), 64)
        result = frequency_response_measured(ir, 48000.0)
        peak_hz, _, flat = peak_trajectory(result)
        assert flat.all()
        assert np.isnan(peak_hz).all()

    def test_peaks_near_cf(self, default_design_20):
        # cascaded peaks sit within a factor of two of the section CF
        # (slightly above it for mid channels, below for the ends)
        ir = impulse_response(cascade_system(default_design_20), 8192)
        result = frequency_response_measured(ir, 48000.0, n_fft=16384)
        peak_hz, _, _ = peak_trajectory(result)
        cfs = np.array([s.cf_hz for s in default_design_20.sections])
        assert np.all(peak_hz >= cfs / 2)
        assert np.all(peak_hz <= cfs * 1.01)


def extreme_channels(rng):
    """(reference, fixed) rows of six channels whose energies a plain sum
    of squares gets wrong or right: channels near 1e-162 square to 0 or to
    subnormals, against zeros (0 dB) and against a saturated +-128 (about
    -3282 dB), beside two channels whose energies are normal; channels near
    1e160 square past the largest double, against the saturated +-128
    (both energies overflow) and against an error near 1e150 (only the
    reference's)."""
    ref = rng.uniform(-1, 1, (240, 4))
    ref[:, 1:3] *= 1e-162
    fix = ref + rng.normal(0, 1e-3, ref.shape)
    fix[:, 1] = 0.0
    fix[:, 2] = np.where(rng.uniform(size=240) < 0.5, -128.0, 128.0)
    big = rng.uniform(-1, 1, (240, 2)) * 1e160
    ref = np.column_stack([ref, big])
    fix = np.column_stack([fix, fix[:, 2], big[:, 1] + rng.normal(0, 1e150, 240)])
    return ref, fix


def exact_snr_db(ref, fix) -> float:
    """10*log10(sum(ref^2) / sum((ref - fix)^2)) of one channel, the sums
    in exact rational arithmetic."""
    energy = sum(Fraction(v) ** 2 for v in ref)
    error = sum((Fraction(r) - Fraction(f)) ** 2 for r, f in zip(ref, fix))
    q = energy / error
    return 10.0 * (math.log10(q.numerator) - math.log10(q.denominator))


class TestParityReport:
    def test_exact_marker(self, rng):
        ref = rng.uniform(-1, 1, (100, 4))
        report = parity_report([(ref, ref.copy())])
        assert report.exact.all()
        assert np.all(np.isinf(report.snr_db))

    def test_known_noise_power(self, rng):
        n = 20000
        ref = rng.uniform(-1, 1, (n, 2))
        noise = rng.normal(0, 1e-3, (n, 2))
        report = parity_report([(ref, ref + noise)])
        expected = 10 * np.log10((ref**2).sum(axis=0) / (noise**2).sum(axis=0))
        assert report.snr_db == pytest.approx(expected, abs=0.5)

    def test_zero_reference_rejected(self):
        with pytest.raises(AnalysisError, match="undefined SNR"):
            parity_report([(np.zeros((32, 2)), np.ones((32, 2)))])

    @pytest.mark.filterwarnings("error")
    def test_exact_zero_reference_is_exact(self, rng):
        ref = np.zeros((32, 3))
        ref[:, 2] = rng.uniform(-1, 1, 32)
        fix = ref.copy()
        fix[3, 2] += 1e-6
        report = parity_report([(ref[:16], fix[:16]), (ref[16:], fix[16:])])
        assert report.exact.tolist() == [True, True, False]
        assert np.isinf(report.snr_db[:2]).all() and np.isfinite(report.snr_db[2])
        assert report.worst_channel == 2

    # no blocks, or blocks of no rows, such as a stream's final flush
    @pytest.mark.parametrize("blocks", [[], [(np.zeros((0, 2)), np.zeros((0, 2)))] * 2])
    def test_no_rows_rejected(self, blocks):
        with pytest.raises(AnalysisError, match="empty comparison window"):
            parity_report(blocks)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_energy_is_not_zero(self, rng):
        ref, fix = extreme_channels(rng)
        report = parity_report([(ref, fix)])
        for ch in range(6):
            snr = exact_snr_db(ref[:, ch], fix[:, ch])
            assert report.snr_db[ch] == pytest.approx(snr, rel=1e-12, abs=1e-12)
        assert report.snr_db[1] == 0.0
        assert report.worst_channel == 2 and report.worst_snr_db < -3000
        assert not report.exact.any()
        assert parity_report([(ref[:, 1:2], ref[:, 1:2].copy())]).exact.all()
        # an error that overflows itself gives nan, as the plain formula does
        assert np.isnan(parity_report([(np.array([1e308, 1.0])[:, None],
                                        np.array([-1e308, 1.0])[:, None])]).snr_db[0])

    @pytest.mark.filterwarnings("error")
    def test_block_split_does_not_matter(self, rng):
        # the extreme channels and one exact channel, in blocks of 1, 7 and
        # all 240 rows, each split followed by a block of no rows
        ref, fix = extreme_channels(rng)
        ref, fix = np.column_stack([ref, ref[:, 0]]), np.column_stack([fix, ref[:, 0]])
        reports = []
        for size in (1, 7, 240):
            blocks = [(ref[i : i + size], fix[i : i + size]) for i in range(0, 240, size)]
            reports.append(parity_report(iter(blocks + [(ref[:0], fix[:0])])))
        whole = reports[-1]
        assert whole.exact.tolist() == [False] * 6 + [True]
        for report in reports:
            assert np.array_equal(report.exact, whole.exact)
            assert report.worst_channel == whole.worst_channel == 2
            assert report.snr_db[:6] == pytest.approx(whole.snr_db[:6], rel=1e-13)

    def test_tiny_error_is_not_exact(self):
        # the error, about 1e-165 per sample, squares to 0 beside a normal
        # reference energy; every value differs, so no channel is exact
        ref = np.full((100, 1), 1e-150)
        report = parity_report([(ref, np.full((100, 1), 1e-150 + 1e-165))])
        assert not report.exact.any()
        err = 1e-150 - (1e-150 + 1e-165)
        assert report.snr_db[0] == pytest.approx(10 * math.log10((1e-150 / err) ** 2), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            parity_report([(np.zeros((32, 2)), np.zeros((32, 3)))])
        # between blocks, as well as within one; a block is [rows x channels]
        with pytest.raises(ConfigError):
            parity_report([(np.ones((32, 2)), np.ones((32, 2))), (np.ones(4), np.ones(4))])
        with pytest.raises(ConfigError, match=r"shape mismatch: \(4,\) vs \(4,\)"):
            parity_report([(np.ones(4), np.ones(4)), (np.ones((2, 1)), np.ones((2, 1)))])

    def test_worst_channel_identified(self, rng):
        ref = rng.uniform(-1, 1, (500, 3))
        fix = ref.copy()
        fix[:, 1] += 1e-3
        fix[:, 2] += 1e-6
        report = parity_report([(ref, fix)])
        assert report.worst_channel == 1


class TestResponseExport:
    @staticmethod
    def write_and_check(result, tmp_path):
        """Both writers on every channel of result, each file's bytes
        against the oracle's."""
        channels = range(result.magnitudes_db.shape[1])
        freq = [tmp_path / f"freq_{c}.csv" for c in channels]
        impulse = [tmp_path / f"impulse_{c}.csv" for c in channels]
        write_response_csv(result, freq)
        write_impulse_csv(result, impulse)
        for c in channels:
            rows = zip(result.frequencies_hz.tolist(), result.magnitudes_db[:, c].tolist())
            expect = csv_text(["frequency_hz", "magnitude_db"], rows)
            assert freq[c].read_bytes() == expect.encode("utf-8"), c
            rows = enumerate(result.impulse_responses[:, c].tolist())
            expect = csv_text(["sample_index", "amplitude"], rows)
            assert impulse[c].read_bytes() == expect.encode("utf-8"), c

    def test_frequency_csv(self, fast_design, tmp_path):
        ir = impulse_response(cascade_system(fast_design), 256)
        result = frequency_response_measured(ir, 48000.0)
        paths = [tmp_path / f"freq_{c}.csv" for c in range(fast_design.n_sections)]
        write_response_csv(result, paths)
        lines = paths[0].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "frequency_hz,magnitude_db"
        assert len(lines) == len(result.frequencies_hz) + 1
        f0, db0 = lines[1].split(",")
        assert float(f0) == 0.0
        assert float(db0) == result.magnitudes_db[0, 0]
        result.magnitudes_db[: len(CSV_EDGE_FLOATS), 1] = CSV_EDGE_FLOATS
        self.write_and_check(result, tmp_path)

    def test_impulse_csv(self, fast_design, tmp_path):
        ir = impulse_response(cascade_system(fast_design), 64)
        result = frequency_response_measured(ir, 48000.0)
        paths = [tmp_path / f"impulse_{c}.csv" for c in range(fast_design.n_sections)]
        write_impulse_csv(result, paths)
        lines = paths[2].read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sample_index,amplitude"
        assert len(lines) == 65
        assert float(lines[1].split(",")[1]) == ir[0, 2]
        result.impulse_responses[: len(CSV_EDGE_FLOATS), 3] = CSV_EDGE_FLOATS
        self.write_and_check(result, tmp_path)

    @staticmethod
    def edge_result(rng, n, channels):
        """A result of n rows with CSV_EDGE_FLOATS at the top of every
        column, and again across the first chunk seam of the writers."""
        seam = CHUNK_VALUES // (1 + channels) - len(CSV_EDGE_FLOATS) // 2
        freqs = rng.uniform(0, 24000, n)
        ir = rng.normal(0, 1, (n, channels))
        db = rng.normal(-40, 20, (n, channels))
        for column in (freqs, *db.T, *ir.T):
            column[: len(CSV_EDGE_FLOATS)] = CSV_EDGE_FLOATS
            column[seam : seam + len(CSV_EDGE_FLOATS)] = CSV_EDGE_FLOATS
        return ResponseResult(ir, db, freqs, np.zeros(channels),
                              np.zeros(channels), np.zeros(channels, dtype=bool))

    def test_shared_columns_across_channels(self, rng, tmp_path):
        # the frequency and index columns are formatted once per chunk for
        # every channel's file; the rows run past the first chunk seam
        for channels in (1, 3):
            n = CHUNK_VALUES // (1 + channels) + 37
            self.write_and_check(self.edge_result(rng, n, channels), tmp_path)

    def test_open_files_capped(self, rng, tmp_path, monkeypatch):
        # 8 channels with at most 3 files open: groups of 3, 3 and 2
        monkeypatch.setattr(analysis, "MAX_OPEN_FILES", 3)
        opened = []

        def counted_open(path):
            opened.append(OutFile(path))
            assert sum(not f.closed for f in opened) <= 3
            return opened[-1]

        monkeypatch.setattr(analysis, "OutFile", counted_open)
        self.write_and_check(self.edge_result(rng, CHUNK_VALUES // 4 + 5, 8), tmp_path)
        assert len(opened) == 16 and all(f.closed for f in opened)

    def test_peaks_csv_bytes(self, tmp_path):
        # `%.6g` fields and LF line ends, written over a longer file
        result = ResponseResult(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros(4),
                                np.array([1234.5678, 2e4]), np.array([-3.25, 41.0]),
                                np.array([True, False]))
        path = tmp_path / "peaks.csv"
        path.write_bytes(b"x" * 10000)
        write_peaks_csv(result, [3, 60], path)
        assert path.read_bytes() == (b"section,peak_hz,peak_db,flat\n"
                                     b"3,1234.57,-3.25,1\n60,20000,41,0\n")

    def test_one_path_per_channel(self, rng, tmp_path):
        result = self.edge_result(rng, CHUNK_VALUES // 4 + 37, 3)
        with pytest.raises(ConfigError, match="2 paths for 3 channels"):
            write_response_csv(result, [tmp_path / "a.csv", tmp_path / "b.csv"])
        with pytest.raises(ConfigError, match="4 paths for 3 channels"):
            write_impulse_csv(result, [tmp_path / f"{c}.csv" for c in range(4)])
        assert not list(tmp_path.iterdir())
