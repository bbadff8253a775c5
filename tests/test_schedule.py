"""Hardware timing model: core/array arithmetic and pipeline simulation."""

import tracemalloc

import numpy as np
import pytest

from carmodel import core
from carmodel.core import CascadeState, process_block
from carmodel.design import DesignParams, design_cascade
from carmodel.errors import InfeasibleError
from carmodel.schedule import (
    HardwareParams,
    _delayed,
    plan,
    report_csv,
    report_text,
    section_latency,
    sections_per_array,
    simulate_pipeline,
)

from conftest import float_rows


class TestSectionLatency:
    def test_reference_clock(self):
        # 29 cycles at 142 MHz
        assert section_latency(29, 142e6) == pytest.approx(204.23e-9, abs=0.05e-9)

    def test_one_ghz(self):
        assert section_latency(1, 1e9) == pytest.approx(1e-9)

    def test_latency_near_203ns(self):
        assert section_latency(29, 142e6) == pytest.approx(203e-9, rel=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(InfeasibleError):
            section_latency(0, 142e6)


class TestHardwareParams:
    @pytest.mark.parametrize("name", ["clock_hz", "sample_rate_hz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive(self, name, value):
        with pytest.raises(InfeasibleError, match=f"^{name} must be finite and positive$"):
            HardwareParams(**{name: value})


class TestSectionsPerArray:
    def test_defaults(self):
        assert sections_per_array(HardwareParams()) == 102

    def test_exact_fit(self):
        p = HardwareParams(clock_hz=48000 * 29, sample_rate_hz=48000)
        assert sections_per_array(p) == 1

    def test_double_rate(self):
        assert sections_per_array(HardwareParams(sample_rate_hz=96000)) == 51

    def test_infeasible_core(self):
        p = HardwareParams(clock_hz=48000 * 28, sample_rate_hz=48000)
        with pytest.raises(InfeasibleError):
            sections_per_array(p)

    def test_monotone_in_clock(self):
        prev = 0
        for clock in (50e6, 100e6, 142e6, 200e6, 400e6):
            spa = sections_per_array(HardwareParams(clock_hz=clock))
            assert spa >= prev
            prev = spa


class TestPlan:
    def test_reference_configuration_triple(self):
        r = plan(HardwareParams(), 1224)
        assert r.sections_per_array == 102
        assert r.arrays_needed == 12
        assert r.end_to_end_latency_s == pytest.approx(250e-6, abs=0.1e-6)
        assert r.feasible

    def test_single_array(self):
        r = plan(HardwareParams(), 102)
        assert r.arrays_needed == 1
        assert r.end_to_end_latency_s == pytest.approx(20.833e-6, abs=1e-9)

    def test_over_capacity(self):
        r = plan(HardwareParams(), 1225)
        assert r.arrays_needed == 13
        assert not r.feasible

    def test_budget_never_exceeded(self):
        for fs in (16000, 44100, 48000, 96000):
            for cycles in (13, 29, 60):
                p = HardwareParams(sample_rate_hz=fs, cycles_per_section=cycles)
                spa = sections_per_array(p)
                assert spa * cycles <= p.clock_hz / fs

    def test_slack_defaults(self):
        assert plan(HardwareParams(), 1224).slack_cycles_per_sample == 0
        # 1 section leaves nearly the whole budget
        assert plan(HardwareParams(), 1).slack_cycles_per_sample == 2958 - 29

    def test_monotone_in_sections(self):
        prev = 0
        for n in (1, 10, 102, 103, 500, 1224, 5000):
            arrays = plan(HardwareParams(), n).arrays_needed
            assert arrays >= prev
            prev = arrays

    def test_capacity_field(self):
        r = plan(HardwareParams(), 10)
        assert r.total_sections_capacity == 102 * 12

    def test_rejects_zero_sections(self):
        with pytest.raises(InfeasibleError):
            plan(HardwareParams(), 0)


def three_array_params():
    # budget of 87+ cycles -> floor(87.5/29) = 3 sections per array
    return HardwareParams(clock_hz=48000 * 29 * 3 + 24000, sample_rate_hz=48000)


class TestSimulatePipeline:
    def test_single_array_identical(self, rng):
        design = design_cascade(DesignParams(48000.0, 5, damping_zeta=0.2))
        xs = rng.uniform(-1, 1, 100)
        out = np.concatenate(list(simulate_pipeline(HardwareParams(), 5, float_rows(design, xs))))
        ref = process_block(design, CascadeState(5), xs)
        assert np.array_equal(out, ref)

    def test_two_arrays_shift_one_sample(self):
        design = design_cascade(DesignParams(48000.0, 5, damping_zeta=0.2))
        params = HardwareParams(clock_hz=48000 * 29 * 3 + 24000, sample_rate_hz=48000)
        imp = np.zeros(64)
        imp[0] = 1.0
        out = np.concatenate(list(simulate_pipeline(params, 5, float_rows(design, imp))))
        ref = process_block(design, CascadeState(5), imp)
        assert np.array_equal(out[:, :3], ref[:, :3])
        assert np.all(out[0, 3:] == 0.0)
        assert np.array_equal(out[1:, 3:], ref[:-1, 3:])

    def test_three_arrays_exact_delays(self, rng):
        design = design_cascade(DesignParams(48000.0, 8, damping_zeta=0.2))
        params = three_array_params()
        assert plan(params, 8).arrays_needed == 3
        # one sample is shorter than the largest delay
        for xs in (rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 1)):
            out = np.concatenate(list(simulate_pipeline(params, 8, float_rows(design, xs))))
            ref = process_block(design, CascadeState(8), xs)
            assert out.shape == ref.shape
            for k in range(8):
                delay = k // 3
                if delay:
                    assert np.all(out[:delay, k] == 0.0)
                    assert np.array_equal(out[delay:, k], ref[:-delay, k])
                else:
                    assert np.array_equal(out[:, k], ref[:, k])

    @pytest.mark.parametrize("chunk", [1, 4, 40])
    def test_delays_carried_across_short_blocks(self, monkeypatch, rng, chunk):
        # 40 sections on 14 arrays: the last is 13 samples late, and the
        # stream's blocks are about chunk samples long, shorter or longer
        monkeypatch.setattr(core, "STREAM_CHUNK_VALUES", 40 * chunk)
        design = design_cascade(DesignParams(48000.0, 40, damping_zeta=0.2))
        params = HardwareParams(clock_hz=48000 * 29 * 3 + 24000, sample_rate_hz=48000,
                                max_arrays=14)
        xs = rng.uniform(-1, 1, 150)
        blocks = list(simulate_pipeline(params, 40, float_rows(design, xs)))
        assert len(blocks) > 2
        assert (min(b.shape[0] for b in blocks) < 13) == (chunk < 13)
        out = np.concatenate(blocks)
        ref = process_block(design, CascadeState(40), xs)
        assert out.shape == ref.shape
        for k in range(40):
            delay = k // 3
            assert np.all(out[:delay, k] == 0.0)
            assert np.array_equal(out[delay:, k], ref[: 150 - delay, k])

    def test_delay_shifts_in_place(self):
        # 1224 columns on 12 arrays of 102, in blocks of 128 rows: a copy of
        # one block's delayed columns would take 128 x 1122 doubles (1.1 MB).
        # Integer rows keep their bits across the seams: odd int64 values
        # above 2^53 do not survive a round trip through float64.
        rng = np.random.default_rng(5)
        for blocks in ([rng.uniform(-1, 1, (128, 1224)) for _ in range(3)],
                       [rng.integers(2**53, 2**62, (128, 1224)) | 1 for _ in range(3)]):
            whole = np.concatenate(blocks)
            tracemalloc.start()
            try:
                delayed = list(_delayed(iter(blocks), 102, 11))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(d is b for d, b in zip(delayed, blocks))
            out = np.concatenate(delayed)
            assert out.dtype == whole.dtype
            for a in range(12):
                cols = slice(a * 102, (a + 1) * 102)
                assert np.all(out[:a, cols] == 0)
                assert np.array_equal(out[a:, cols], whole[: 384 - a, cols])
            assert peak < 128 * 1122 * 8 / 4

    def test_infeasible_rejected(self):
        params = HardwareParams(
            clock_hz=48000 * 29 * 3 + 24000, sample_rate_hz=48000, max_arrays=2
        )

        def untouched():
            raise AssertionError("a block was drawn")
            yield

        with pytest.raises(InfeasibleError):
            simulate_pipeline(params, 40, untouched())

    def test_full_scale_final_tap_delay(self):
        # 1224 sections on the default hardware: the last array (index 11)
        # aligns its taps 11 samples late in the output grid, while the
        # physical end-to-end latency reported by plan() is 12 sample
        # periods (each array occupies one period, including the last).
        design = design_cascade(DesignParams(48000.0, 1224))
        params = HardwareParams()
        imp = np.zeros(16)
        imp[0] = 1.0
        out = np.concatenate(list(simulate_pipeline(params, 1224, float_rows(design, imp))))
        ref = process_block(design, CascadeState(1224), imp)
        assert np.all(out[:11, -1] == 0.0)
        assert np.array_equal(out[11:, -1], ref[:5, -1])
        report = plan(params, 1224)
        assert report.end_to_end_latency_s == pytest.approx(250e-6, abs=0.1e-6)


class TestReportSerialization:
    def test_text_keys(self):
        text = report_text(plan(HardwareParams(), 1224))
        assert "sections_per_array: 102" in text
        assert "arrays_needed: 12" in text
        assert "end_to_end_latency_us: 250.0000" in text
        assert "feasible: yes" in text
        for line in text.splitlines():
            assert ": " in line

    def test_csv_round_trip(self):
        import csv
        import io

        r = plan(HardwareParams(), 500)
        rows = list(csv.DictReader(io.StringIO(report_csv(r))))
        assert len(rows) == 1
        assert int(rows[0]["arrays_needed"]) == r.arrays_needed
        assert rows[0]["feasible"] == "True"
