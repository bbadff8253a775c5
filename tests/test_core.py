"""Float reference cascade: recurrence oracle, propagation, and invariants."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carmodel._kernels import Wavefront
from carmodel.core import (
    CascadeState,
    CascadeStream,
    SectionState,
    process_block,
    process_sample,
    step_section,
    stream_rows,
)
from carmodel.design import ChannelCoeffs, DesignParams, design_cascade, transfer_function
from carmodel.errors import ConfigError

from conftest import random_section
from oracles import settling_samples, tf_impulse_response


def assert_same_bits(got, expect):
    """Equal as IEEE bit patterns: unlike np.array_equal, -0.0 is not 0.0."""
    assert got.shape == expect.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expect).tobytes()


def signed_zeros(xs, rng):
    """xs with its first quarter and about a third of the rest replaced by
    +0.0 or -0.0. Signed zeros reach the state and the outputs only while the
    state is still zero."""
    xs = xs.copy()
    zeros = (rng.random(xs.size) < 1 / 3) | (np.arange(xs.size) < xs.size / 4)
    xs[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return xs


def section_impulse(coeffs, n):
    state = SectionState()
    out = np.empty(n)
    for i in range(n):
        state, out[i] = step_section(coeffs, state, 1.0 if i == 0 else 0.0)
    return out


class TestStepSection:
    def test_zero_state_single_input(self, rng):
        c = random_section(rng)
        state, y = step_section(c, SectionState(), 0.37)
        assert state.w1 == 0.37
        assert state.w2 == 0.0
        assert y == c.g * 0.37

    def test_zero_input_stays_zero(self, rng):
        c = random_section(rng)
        state = SectionState()
        for _ in range(32):
            state, y = step_section(c, state, 0.0)
            assert y == 0.0
        assert state == SectionState(0.0, 0.0)

    def test_worked_oracle_example(self):
        c = ChannelCoeffs(cf_hz=8000, theta_r=math.pi / 3, r=0.9, a0=0.5,
                          c0=math.sqrt(3) / 2, h=0.0, g=1.0, section_index=0)
        h_meas = section_impulse(c, 100)
        h_ref = tf_impulse_response(transfer_function(c), 100)
        assert np.max(np.abs(h_meas - h_ref)) < 1e-12

    def test_rejects_nonfinite(self, rng):
        c = random_section(rng)
        with pytest.raises(ConfigError):
            step_section(c, SectionState(), float("nan"))
        with pytest.raises(ConfigError):
            step_section(c, SectionState(), float("inf"))

    def test_transfer_function_equivalence_randomized(self, rng):
        # the state recurrence is locked to the rational transfer function
        n = 2048
        for _ in range(50):
            c = random_section(rng)
            h_meas = section_impulse(c, n)
            h_ref = tf_impulse_response(transfer_function(c), n)
            rms = math.sqrt(float(np.mean((h_meas - h_ref) ** 2)))
            assert rms <= 1e-10

    def test_stability_decay(self):
        # designed sections with modest radius decay below 1e-6 within 1k samples
        d = design_cascade(DesignParams(48000.0, 60))
        checked = 0
        for s in d.sections:
            if s.r <= 0.985:
                tail = section_impulse(s, 2048)[1024:]
                assert np.max(np.abs(tail)) < 1e-6
                checked += 1
        assert checked > 10

    def test_stability_envelope_near_unity_radius(self):
        # |h[n]| <= C * r^n even for slow sections (r up to ~0.9997)
        d = design_cascade(DesignParams(48000.0, 30))
        for s in (d.sections[0], d.sections[15], d.sections[-1]):
            h = section_impulse(s, 2048)
            n = np.arange(2048)
            envelope = np.abs(h) / (s.r ** n)
            c_early = envelope[:256].max()
            assert envelope.max() <= c_early * 1.0001 + 1e-12


class TestProcessSample:
    def test_zero_input_zero_output(self, default_design_20):
        state = CascadeState(20)
        y = process_sample(default_design_20, state, 0.0)
        assert np.all(y == 0.0)
        assert not state.w1.any() and not state.w2.any()

    def test_passthrough_degenerate_sections(self):
        # h = 0, g = 1, r = 0 turns every stage into y = x
        sections = tuple(
            ChannelCoeffs(cf_hz=1000, theta_r=1.0, r=0.0, a0=math.cos(1.0),
                          c0=math.sin(1.0), h=0.0, g=1.0, section_index=i)
            for i in range(5)
        )
        from carmodel.design import CascadeDesign

        design = CascadeDesign(sections=sections, sample_rate_hz=48000.0,
                               positions=tuple([0.5] * 5))
        state = CascadeState(5)
        y = process_sample(design, state, 0.625)
        assert np.all(y == 0.625)

    def test_chaining_matches_step_section(self, fast_design, rng):
        state = CascadeState(fast_design.n_sections)
        xs = rng.uniform(-1, 1, 64)
        manual_states = [SectionState() for _ in fast_design.sections]
        for x in xs:
            y = process_sample(fast_design, state, float(x))
            xk = float(x)
            for k, c in enumerate(fast_design.sections):
                manual_states[k], yk = step_section(c, manual_states[k], xk)
                xk = yk
                assert y[k] == yk

    def test_length_mismatch(self, fast_design):
        with pytest.raises(ConfigError):
            process_sample(fast_design, CascadeState(3), 0.1)

    def test_dc_convergence(self):
        design = design_cascade(DesignParams(48000.0, 10, x_apex=0.5))
        state = CascadeState(10)
        settle = settling_samples(design, tol=1e-9)
        y = None
        for _ in range(settle):
            y = process_sample(design, state, 1.0)
        assert np.max(np.abs(y - 1.0)) < 1e-6


class TestProcessBlock:
    def test_empty_input(self, fast_design):
        state = CascadeState(fast_design.n_sections)
        out = process_block(fast_design, state, np.array([]))
        assert out.shape == (0, fast_design.n_sections)
        assert np.all(state.w1 == 0.0)

    def test_single_sample_equals_process_sample(self, fast_design):
        s1 = CascadeState(fast_design.n_sections)
        s2 = CascadeState(fast_design.n_sections)
        out = process_block(fast_design, s1, [0.3])
        y = process_sample(fast_design, s2, 0.3)
        assert_same_bits(out[0], y)
        assert_same_bits(s1.w1, s2.w1)
        assert_same_bits(s1.w2, s2.w2)

    def test_bit_identical_to_sample_path(self, rng):
        # (sections, samples): a typical block, a single section, and a block
        # shorter than the cascade, so the wavefront never fills it; signed
        # zeros among the samples put -0.0 into the state and the outputs
        for n, n_samples in ((7, 300), (1, 50), (60, 25)):
            design = design_cascade(DesignParams(48000.0, n, damping_zeta=0.2))
            xs = signed_zeros(rng.uniform(-0.9, 0.9, n_samples), rng)
            sblock = CascadeState(n)
            out_block = process_block(design, sblock, xs)
            sloop = CascadeState(n)
            out_loop = np.vstack([process_sample(design, sloop, float(x)) for x in xs])
            assert_same_bits(out_block, out_loop)
            assert_same_bits(sblock.w1, sloop.w1)
            assert_same_bits(sblock.w2, sloop.w2)

    def test_chunked_equals_whole(self, fast_design, rng):
        xs = rng.uniform(-1, 1, 1000)
        s1 = CascadeState(fast_design.n_sections)
        whole = process_block(fast_design, s1, xs)
        # even splits, then uneven ones with 1-sample chunks and chunks
        # shorter than the 10-section cascade
        even = list(range(256, 1000, 256))
        uneven = list(np.cumsum([1, 1, 3, 9, 10, 11, 2, 256, 1, 7, 500]))
        for cuts in (even, uneven):
            s2 = CascadeState(fast_design.n_sections)
            parts = np.vstack([
                process_block(fast_design, s2, chunk) for chunk in np.split(xs, cuts)
            ])
            assert np.array_equal(whole, parts)
            assert np.array_equal(s1.w1, s2.w1)
            assert np.array_equal(s1.w2, s2.w2)

    def test_sine_rms_matches_analytic_gain(self):
        from carmodel.analysis import frequency_response_analytic

        design = design_cascade(DesignParams(48000.0, 10, x_apex=0.6))
        t = np.arange(480)
        x = 0.5 * np.sin(2 * np.pi * 1000.0 * t / 48000.0)
        state = CascadeState(10)
        out = process_block(design, state, x)
        measured_rms = np.sqrt((out[240:, :] ** 2).mean(axis=0))
        gains = np.abs(frequency_response_analytic(design, [1000.0]))[0]
        expected_rms = gains * 0.5 / math.sqrt(2)
        assert np.max(np.abs(measured_rms / expected_rms - 1.0)) < 0.01

    def test_linearity(self, fast_design, rng):
        x1 = rng.uniform(-1, 1, 400)
        x2 = rng.uniform(-1, 1, 400)
        a, b = 0.7, -1.3
        def run(x):
            st = CascadeState(fast_design.n_sections)
            return process_block(fast_design, st, x)
        lhs = run(a * x1 + b * x2)
        rhs = a * run(x1) + b * run(x2)
        scale = np.abs(rhs).max()
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_rejects_nonfinite(self, fast_design):
        state = CascadeState(fast_design.n_sections)
        with pytest.raises(ConfigError):
            process_block(fast_design, state, [0.1, float("nan")])

    def test_rejects_matrix_input(self, fast_design):
        state = CascadeState(fast_design.n_sections)
        with pytest.raises(ConfigError):
            process_block(fast_design, state, np.zeros((4, 4)))

    def test_determinism(self, fast_design, rng):
        xs = rng.uniform(-1, 1, 500)
        s1 = CascadeState(fast_design.n_sections)
        s2 = CascadeState(fast_design.n_sections)
        assert np.array_equal(
            process_block(fast_design, s1, xs), process_block(fast_design, s2, xs)
        )

    def test_short_block_takes_a_short_buffer(self):
        # the row stride is min(samples, n): 48 samples through 1224 sections
        # take about 0.5 MB, where tick rows of n + 1 values would take 12.5 MB
        design = _stream_design(1224)
        xs = np.random.default_rng(4).uniform(-1, 1, 48)
        expect = process_block(design, CascadeState(1224), xs)  # caches the design's arrays
        tracemalloc.start()
        try:
            got = process_block(design, CascadeState(1224), xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, expect)
        assert peak < 1 << 20


@functools.lru_cache(maxsize=None)
def _stream_design(n_sections):
    return design_cascade(DesignParams(48000.0, n_sections, damping_zeta=0.2))


@st.composite
def stream_runs(draw):
    """A section count and a sequence of pushes (sizes, empty ones and
    1-sample ones among them, most shorter than the cascade) and flushes
    (None)."""
    n = draw(st.sampled_from([1, 2, 3, 7, 16]))
    step = st.one_of(st.none(), st.integers(0, 1), st.integers(0, n + 2), st.integers(0, 3 * n))
    return n, draw(st.lists(step, max_size=12))


class TestCascadeStream:
    @given(stream_runs(), st.integers(0, 20), st.integers(0, 2**32 - 1))
    # pushes of n - 1, n and n + 1 samples, a long full-width stretch, then
    # partial pushes and a drain: the kernel's lanes change from full to
    # narrow and back
    @example((7, [6, 7, 8, 90, 3, 1, 2]), 0, 1)
    @example((16, [15, 16, 17, 120, 5, 1, None, 2]), 3, 2)
    # short pushes on a full cascade: the rows in flight move to the front of
    # the buffer twice
    @example((7, [20] + [3] * 11), 2, 3)
    # the flush moves the rows in flight in overlapping pieces; then pushes
    # follow the flush
    @example((16, [20, 3, None, 5, 30, None, 17]), 3, 4)
    # a first push narrower than the cascade: its buffer grows in the fill
    @example((16, [5, 5, 5, 40, 2]), 4, 5)
    @settings(max_examples=200, deadline=None)
    def test_push_flush_equals_reference_loop(self, run, tail, seed):
        n, steps = run
        design = _stream_design(n)
        # the last tail samples go in with the final flush
        rng = np.random.default_rng(seed)
        xs = signed_zeros(rng.uniform(-1, 1, sum(s or 0 for s in steps) + tail), rng)
        ref = CascadeState(n)
        expect = np.array([process_sample(design, ref, float(x)) for x in xs]).reshape(xs.size, n)

        state = CascadeState(n)
        stream = CascadeStream(design, state)
        rows, pushed, in_flight = [], 0, 0
        for size in steps:
            if size is None:
                rows.append(stream.flush())
                in_flight = 0
                assert sum(map(len, rows)) == pushed
            else:
                rows.append(stream.push(xs[pushed : pushed + size]))
                # rows come out n - 1 samples behind the input
                lag = n - 1
                assert rows[-1].shape[0] == max(0, in_flight + size - lag) - max(0, in_flight - lag)
                pushed += size
                in_flight += size
        rows.append(stream.flush(xs[pushed:]))
        got = np.concatenate(rows)
        assert_same_bits(got, expect)
        assert_same_bits(state.w1, ref.w1)
        assert_same_bits(state.w2, ref.w2)

    def test_stream_rows_flush_is_not_copied(self):
        # 512 sections, 128-sample chunks: the first push is 639 samples, so
        # the buffer has room for them and their drain; the second push runs
        # into that room, so the flush moves the 511 rows in flight to the
        # front, in place, and hands them out as one view of the buffer
        n = 512
        design = _stream_design(n)
        xs = np.random.default_rng(3).uniform(-1, 1, 767)
        expect = process_block(design, CascadeState(n), xs)
        tracemalloc.start()
        try:
            blocks = stream_rows(CascadeStream(design, CascadeState(n)), xs)
            got = [next(blocks), next(blocks)]  # the two pushes
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            flushed = list(blocks)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [b.shape[0] for b in got + flushed] == [128, 128, 511]
        assert flushed[0].base is not None
        assert np.array_equal(np.concatenate(got + flushed), expect)
        # a copy of the rows in flight would take (n - 1) * n doubles
        assert peak < (n - 1) * n * 8 / 4

    def test_flush_without_pushes(self, fast_design):
        state = CascadeState(fast_design.n_sections)
        stream = CascadeStream(fast_design, state)
        assert stream.flush().shape == (0, fast_design.n_sections)
        assert stream.push([]).shape == (0, fast_design.n_sections)
        assert stream.flush().shape == (0, fast_design.n_sections)
        assert np.all(state.w1 == 0.0)

    def test_checks_like_process_block(self, fast_design):
        with pytest.raises(ConfigError):
            CascadeStream(fast_design, CascadeState(fast_design.n_sections + 1))
        stream = CascadeStream(fast_design, CascadeState(fast_design.n_sections))
        with pytest.raises(ConfigError):
            stream.push([0.1, float("inf")])
        with pytest.raises(ConfigError):
            stream.push(np.zeros((2, 2)))


def _same_view(got, expect):
    return (got.shape, got.strides, got.__array_interface__["data"][0]) == (
        expect.shape, expect.strides, expect.__array_interface__["data"][0])


class TestWavefrontTicks:
    N = 7

    @pytest.mark.parametrize("dtype", [np.float64, object])
    @pytest.mark.parametrize(
        "calls",
        # fresh flushes of 1, 2, n - 2, n - 1, n and n + 5 samples, then pushes
        # followed by a flush: narrower than the cascade (a sliding run on a
        # buffer of row stride n), filling it, and past it
        [[(k, True)] for k in (1, 2, N - 2, N - 1, N, N + 5)]
        + [[(3, False), (2, False), (0, True)], [(1, False), (3, True)],
           [(N + 2, False), (1, False), (4, True)], [(2, False), (N, False), (0, True)]],
    )
    def test_views_are_the_tick_slices(self, dtype, calls):
        # every tick's lane views are the lanes sliced to its active sections,
        # and x and y the slices of the buffer the schedule gives it, however
        # the wavefront builds them
        n = self.N
        pairs = np.arange(2 * n).reshape(n, 2).astype(dtype)
        lanes = (np.arange(n).astype(dtype), pairs, pairs[:, 1], np.arange(n).astype(dtype)[::-1])
        front = Wavefront(n, lanes, dtype)
        for size, drain in calls:
            start, seen = front.pushed, []

            def kernel(ticks):
                seen.append((front.buf, front.first, front.width, front.pushed, list(ticks)))

            samples = np.zeros(size, dtype=dtype)
            (front.flush if drain else front.push)(samples, kernel)
            buf, first, w, end, ticks = seen[0]
            assert len(ticks) == (end + n - 1 if drain and end else end) - start
            for tick, (x, y, views) in enumerate(ticks, start):
                lo, hi = max(0, n - 1 - tick), min(n, n - 1 + end - tick)
                x0 = (tick - first) * (w + 1) - n + 1  # where x of lane 0 would start
                assert _same_view(x, buf[x0 + lo : x0 + hi])
                assert _same_view(y, buf[x0 + w + lo : x0 + w + hi])
                assert len(views) == len(lanes)
                assert all(_same_view(v, a[lo:hi]) for v, a in zip(views, lanes))


class TestCascadeComposition:
    def test_tap_response_is_product_of_sections(self):
        from carmodel.analysis import frequency_response_analytic

        design = design_cascade(DesignParams(48000.0, 8, x_apex=0.5))
        n_fft = 8192
        imp = np.zeros(n_fft)
        imp[0] = 1.0
        state = CascadeState(8)
        out = process_block(design, state, imp)
        spectrum = np.fft.rfft(out, axis=0)
        bins = np.linspace(1, n_fft // 2 - 1, 32).astype(int)
        freqs = bins * 48000.0 / n_fft
        analytic = frequency_response_analytic(design, freqs)
        measured_db = 20 * np.log10(np.abs(spectrum[bins, :]))
        analytic_db = 20 * np.log10(np.abs(analytic))
        assert np.max(np.abs(measured_db - analytic_db)) < 0.1
