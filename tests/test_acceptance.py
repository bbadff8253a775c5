"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with the measured quantities after its assertions hold."""

import math
import random
import time

import numpy as np
import pytest

from carmodel.analysis import (
    DB_FLOOR,
    MlsConfig,
    frequency_response_analytic,
    frequency_response_measured,
    impulse_response,
    mls_generate,
    mls_warmup_periods,
    parity_report,
    peak_trajectory,
)
from carmodel.audio_io import AudioBuffer, write_wav
from carmodel.cli import cli_main
from carmodel.core import (
    CascadeState,
    CascadeStream,
    SectionState,
    process_block,
    step_section,
    stream_rows,
)
from carmodel.design import (
    DesignParams,
    design_cascade,
    greenwood_cf,
    transfer_function,
)
from carmodel.fixed import (
    FixedCascadeState,
    FixedFormat,
    FixedStream,
    dequantized_design,
    fixed_process_block,
    quantize_block,
    quantize_design,
    to_real_block,
)
from carmodel.schedule import HardwareParams, plan, section_latency, sections_per_array, simulate_pipeline

from conftest import random_section
from oracles import settling_samples, tf_impulse_response


def test_criterion_1_greenwood_endpoints():
    base = greenwood_cf(1.0)
    apex = greenwood_cf(0.023)
    assert base == pytest.approx(20657.2, abs=0.5)
    assert apex == pytest.approx(19.46, abs=0.05)
    print(f"\nPASS criterion 1: greenwood endpoints {base:.1f} Hz / {apex:.3f} Hz")


def test_criterion_2_schedule_triple():
    params = HardwareParams(clock_hz=142e6, cycles_per_section=29, sample_rate_hz=48000.0)
    spa = sections_per_array(params)
    report = plan(params, 1224)
    latency = section_latency(29, 142e6)
    assert spa == 102
    assert report.arrays_needed == 12
    assert report.end_to_end_latency_s == pytest.approx(250e-6, abs=0.1e-6)
    assert latency == pytest.approx(204.2e-9, abs=0.1e-9)
    assert latency == pytest.approx(203e-9, rel=0.01)
    print(
        f"\nPASS criterion 2: sections/array {spa}, arrays {report.arrays_needed}, "
        f"latency {report.end_to_end_latency_s * 1e6:.1f} us, "
        f"section {latency * 1e9:.1f} ns"
    )


def test_criterion_3_dc_unity_gain():
    t0 = time.time()
    design = design_cascade(DesignParams(48000.0, 100))
    state = CascadeState(100)
    settle = settling_samples(design, tol=1e-12)
    y = None
    for start in range(0, settle, 16384):
        n = min(16384, settle - start)
        y = process_block(design, state, np.full(n, 0.25))
    worst = float(np.max(np.abs(y[-1] - 0.25)))
    assert worst < 1e-6
    print(
        f"\nPASS criterion 3: DC taps within {worst:.2e} of 0.25 "
        f"after {settle} samples ({time.time() - t0:.2f} s)"
    )


def test_criterion_4_oracle_equivalence(rng):
    t0 = time.time()
    n = 2048
    worst = 0.0
    for _ in range(50):
        c = random_section(rng)
        state = SectionState()
        measured = np.empty(n)
        for i in range(n):
            state, measured[i] = step_section(c, state, 1.0 if i == 0 else 0.0)
        reference = tf_impulse_response(transfer_function(c), n)
        rms = math.sqrt(float(np.mean((measured - reference) ** 2)))
        worst = max(worst, rms)
        assert rms <= 1e-10
    print(f"\nPASS criterion 4: 50 sections, worst oracle RMS {worst:.2e} "
          f"({time.time() - t0:.2f} s)")


def test_criterion_5_pole_zero_placement():
    design = design_cascade(DesignParams(48000.0, 64))
    worst_pole = worst_zero = 0.0
    for s in design.sections:
        tf = transfer_function(s)
        for p in np.roots([1.0, tf.a1_den, tf.a2_den]):
            worst_pole = max(worst_pole, abs(abs(p) - s.r))
            assert abs(abs(p) - s.r) < 1e-9
            assert abs(abs(np.angle(p)) - s.theta_r) < 1e-9
        for z in np.roots([tf.b0, tf.b1, tf.b2]):
            worst_zero = max(worst_zero, abs(abs(z) - s.r))
            assert abs(abs(z) - s.r) < 1e-9
    print(f"\nPASS criterion 5: 64 sections, pole radius err {worst_pole:.2e}, "
          f"zero radius err {worst_zero:.2e}")


def test_criterion_6_qualitative_response_reproduction():
    t0 = time.time()
    design = design_cascade(DesignParams(48000.0, 20))
    config = MlsConfig(order=14)
    warm = mls_warmup_periods(design, config.period)

    def system(stim):
        state = CascadeState(20)
        return process_block(design, state, stim)

    ir = impulse_response(system, config.period, method="mls", mls_config=config,
                          warmup_periods=warm)
    result = frequency_response_measured(ir, 48000.0)

    # (a) peaks strictly ordered high to low
    peak_hz, _, flat = peak_trajectory(result)
    assert not flat.any()
    assert np.all(np.diff(peak_hz) < 0)

    # (b) unity DC per channel
    dc_err = float(np.max(np.abs(result.magnitudes_db[0, :])))
    assert dc_err < 0.01

    # (c) measured vs analytic cascade product
    analytic = frequency_response_analytic(design, result.frequencies_hz)
    with np.errstate(divide="ignore"):
        analytic_db = np.maximum(20 * np.log10(np.abs(analytic)), DB_FLOOR)
    max_diff = float(np.max(np.abs(result.magnitudes_db - analytic_db)))
    assert max_diff < 0.1

    print(
        f"\nPASS criterion 6: peaks {peak_hz[0]:.0f}..{peak_hz[-1]:.1f} Hz strictly "
        f"ordered, DC err {dc_err:.1e} dB, measured-vs-analytic {max_diff:.1e} dB "
        f"({time.time() - t0:.2f} s)"
    )


# Measured once from the bit-exact datapath on this scenario and frozen;
# the fixed path is integer-only, so any drift is a real regression.
PINNED_WORST_SNR_DB = 112.85


def test_criterion_7_fixed_point_parity():
    t0 = time.time()
    design = design_cascade(DesignParams(48000.0, 100, damping_zeta=0.25))
    qdesign = quantize_design(design)  # default 18/16, 32/24, 16/15 formats
    stimulus = 10 ** (-12 / 20) * mls_generate(MlsConfig(order=14))

    raw_in = quantize_block(stimulus, qdesign.io_format)
    fixed_state = FixedCascadeState(100)
    raw_out, stats = fixed_process_block(qdesign, fixed_state, raw_in)
    assert stats.total == 0, "saturation events in the default-format run"

    reference_design = dequantized_design(qdesign)
    ref_state = CascadeState(100)
    reference = process_block(
        reference_design, ref_state, to_real_block(raw_in, qdesign.io_format)
    )
    report = parity_report([(reference, to_real_block(raw_out, qdesign.state_format))])
    assert report.worst_snr_db >= 60.0
    assert report.worst_snr_db == pytest.approx(PINNED_WORST_SNR_DB, abs=0.05)
    print(
        f"\nPASS criterion 7: worst-channel SNR {report.worst_snr_db:.2f} dB "
        f"(channel {report.worst_channel}), 0 saturations ({time.time() - t0:.1f} s)"
    )


@pytest.mark.parametrize("state_format", [None, FixedFormat(32, 24), FixedFormat(64, 56)],
                         ids=["float", "fixed-32-24", "fixed-64-56"])
def test_criterion_8_pipeline_equivalence(rng, state_format):
    design = design_cascade(DesignParams(48000.0, 8, damping_zeta=0.2))
    # synthetic 3-sections-per-array budget -> ceil(8/3) = 3 arrays
    params = HardwareParams(clock_hz=48000 * 29 * 3 + 24000, sample_rate_hz=48000.0)
    report = plan(params, 8)
    assert report.arrays_needed == 3
    xs = rng.uniform(-1, 1, 256)
    if state_format is None:
        stream = CascadeStream(design, CascadeState(8))
        ref = process_block(design, CascadeState(8), xs)
    else:  # raw rows, on int64 lanes at 32/24 and on object lanes at 64/56
        qdesign = quantize_design(design, state_format=state_format)
        xs = quantize_block(xs, qdesign.io_format)
        stream = FixedStream(qdesign, FixedCascadeState(8))
        ref, _ = fixed_process_block(qdesign, FixedCascadeState(8), xs)
    # pieces of 1 and 2 samples: blocks of at most 2 rows, so the seams fall
    # inside the 2-row delay of the last array
    *pieces, rest = np.split(xs, [i for i in range(1, 256) if i % 3])
    blocks = [stream.push(piece) for piece in pieces] + [stream.flush(rest)]
    piped = np.concatenate(list(simulate_pipeline(params, 8, blocks)))
    assert piped.dtype == ref.dtype
    for k in range(8):
        delay = k // report.sections_per_array
        assert np.all(piped[:delay, k] == 0)
        assert np.array_equal(piped[delay:, k], ref[: 256 - delay, k])
    print(f"\nPASS criterion 8 ({'float' if state_format is None else 'fixed'}): "
          "3-array pipeline bit-identical up to per-array delays")


def test_criterion_9_desk_scale_real_time(rng):
    design = design_cascade(DesignParams(48000.0, 1224))
    state = CascadeState(1224)
    process_block(design, state, np.zeros(16))  # warm-up call, kept out of the timed region

    samples = rng.uniform(-0.5, 0.5, 48000)
    state = CascadeState(1224)
    rows = 0
    t0 = time.perf_counter()
    for start in range(0, 48000, 4800):
        rows += process_block(design, state, samples[start : start + 4800]).shape[0]
    elapsed = time.perf_counter() - t0
    assert rows == 48000
    assert elapsed <= 10.0
    print(f"\nPASS criterion 9: 1.0 s of 48 kHz audio through 1224 sections "
          f"in {elapsed:.2f} s")


def test_criterion_10_mls_integrity():
    t0 = time.time()
    for order in range(3, 17):
        config = MlsConfig(order=order)
        seq = mls_generate(config)  # full-period check built into generation
        n = config.period
        assert len(seq) == n
        spectrum = np.fft.rfft(seq)
        autocorr = np.fft.irfft(spectrum * np.conj(spectrum), n=n)
        rounded = np.round(autocorr)
        assert np.max(np.abs(autocorr - rounded)) < 1e-5
        assert rounded[0] == n
        assert np.all(rounded[1:] == -1)
    print(f"\nPASS criterion 10: orders 3..16 full period and two-valued "
          f"autocorrelation ({time.time() - t0:.2f} s)")


def test_bounded_1224_section_design():
    # zeros moved towards the poles (F = 0.06, about CAR-FAC's section
    # density over this cascade's) bound the gain and keep the taps tuned
    design = design_cascade(DesignParams(48000.0, 1224, damping_zeta=0.2, zero_ratio=0.06))
    freqs = np.geomspace(5.0, 23900.0, 1500)
    db = 20.0 * np.log10(np.abs(frequency_response_analytic(design, np.r_[0.0, freqs])))
    dc_db, db = db[0], db[1:]
    peak_db = db.max(axis=0)
    tuned = peak_db > dc_db + 1.0
    cfs = np.array([s.cf_hz for s in design.sections])
    peak_over_cf = freqs[db.argmax(axis=0)][tuned] / cfs[tuned]
    median = float(np.median(peak_over_cf))
    assert peak_db.max() <= 42.0
    assert tuned.sum() >= 1150
    assert 0.9 <= median <= 1.0
    print(f"\nPASS bounded design: 1224 sections (zeta 0.2, zero ratio 0.06), peak tap gain "
          f"{peak_db.max():.1f} dB, {tuned.sum()} tuned taps, median peak/CF {median:.2f}")


def bounded_1224_noise(n_samples):
    """The bounded 1224-section design, and n_samples of -12 dBFS noise as
    16-bit raw samples: uniform, as perfbench's generator draws them, seed 3."""
    design = design_cascade(DesignParams(48000.0, 1224, damping_zeta=0.2, zero_ratio=0.06))
    peak = round(10 ** (-12 / 20) * 32767)
    noise = random.Random(3)
    return design, np.array([noise.randint(-peak, peak) for _ in range(n_samples)],
                            dtype=np.int64)


def streamed_parity(qdesign, raw_in):
    """parity_report of raw_in through a FixedStream of qdesign against a
    CascadeStream of its dequantized design, both fed by stream_rows; with
    the fixed stream's stats and the rows compared."""
    fixed_stream = FixedStream(qdesign, FixedCascadeState(qdesign.n_sections))
    float_stream = CascadeStream(dequantized_design(qdesign), CascadeState(qdesign.n_sections))
    rows = []

    def blocks():
        for raw, ref in zip(stream_rows(fixed_stream, raw_in),
                            stream_rows(float_stream, raw_in * qdesign.io_format.lsb),
                            strict=True):
            rows.append(len(raw))
            yield ref, to_real_block(raw, qdesign.state_format)

    report = parity_report(blocks())
    return report, fixed_stream.stats, sum(rows)


def test_bounded_1224_section_datapath():
    # the bounded design through the fixed datapath at 32/24 against its
    # dequantized float reference, both streamed, on 1 s of -12 dBFS noise
    t0 = time.time()
    design, raw_in = bounded_1224_noise(48000)
    report, stats, rows = streamed_parity(quantize_design(design), raw_in)
    assert rows == 48000
    assert stats.total == 0  # sections and input
    assert report.worst_snr_db >= 60.0
    print(f"\nPASS bounded datapath: 1224 sections at 32/24, 48000 samples of -12 dBFS noise, "
          f"0 saturations, worst-channel SNR {report.worst_snr_db:.2f} dB (channel "
          f"{report.worst_channel}), median {float(np.median(report.snr_db)):.2f} dB "
          f"({time.time() - t0:.1f} s)")


def test_bounded_1224_section_compare(tmp_path, capsys):
    # `carmodel compare` on the bounded design's table prints what the
    # library's streams of that design give on the same 4800 samples
    t0 = time.time()
    coeffs, wav = tmp_path / "c.csv", tmp_path / "in.wav"
    assert cli_main(["design", "--sections", "1224", "--h-policy", "ratio:0.06",
                     "--zeta", "0.2", "-o", str(coeffs)]) == 0
    design, raw_in = bounded_1224_noise(4800)
    write_wav(wav, AudioBuffer(48000, raw_in / 32768.0))
    capsys.readouterr()
    assert cli_main(["compare", "--coeffs", str(coeffs), "--wav", str(wav)]) == 0
    out = capsys.readouterr().out
    report, stats, rows = streamed_parity(quantize_design(design), raw_in)
    median = float(np.median(report.snr_db))
    assert (rows, stats.total, report.exact.any()) == (4800, 0, False)
    assert out.splitlines() == [
        "channels: 1224",
        "window: samples [0, 4800)",
        "saturations: 0",
        f"worst_snr_db: {report.worst_snr_db:.2f} (channel {report.worst_channel})",
        f"median_snr_db: {median:.2f}",
    ]
    print(f"\nPASS bounded compare: 1224 sections, 4800 samples, 0 saturations, worst-channel "
          f"SNR {report.worst_snr_db:.2f} dB (channel {report.worst_channel}), median "
          f"{median:.2f} dB ({time.time() - t0:.1f} s)")
