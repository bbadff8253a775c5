"""File I/O and the command-line front end."""

import os
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import carmodel
from carmodel import fixed
from carmodel._csvfmt import CHUNK_VALUES
from carmodel.analysis import mls_warmup_periods
from carmodel.audio_io import (
    AudioBuffer,
    read_cochleagram,
    read_wav,
    write_cochleagram,
    write_wav,
)
from carmodel.cli import cli_main
from carmodel.core import STREAM_CHUNK_VALUES, CascadeState, CascadeStream, process_block
from carmodel.design import read_coeff_table
from carmodel.errors import AudioFormatError, ConfigError

from oracles import CSV_EDGE_FLOATS, csv_text, fixed_process_block_py


def _child_env(**env) -> dict:
    """The environment of a child that imports the same package as the
    suite, installed or not."""
    src = str(Path(carmodel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def build_wav(
    samples_bytes: bytes,
    channels: int = 1,
    bits: int = 16,
    audio_format: int = 1,
    sample_rate: int = 48000,
    truncate_data_by: int = 0,
) -> bytes:
    block_align = channels * bits // 8
    declared = len(samples_bytes) + truncate_data_by
    fmt = struct.pack(
        "<HHIIHH", audio_format, channels, sample_rate,
        sample_rate * block_align, block_align, bits,
    )
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", declared) + samples_bytes
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestReadWav:
    def test_minimal_single_zero_sample(self, tmp_path):
        data = build_wav(struct.pack("<h", 0))
        assert len(data) == 46  # 44-byte classic header + one 16-bit sample
        p = tmp_path / "one.wav"
        p.write_bytes(data)
        buf = read_wav(p)
        assert buf.sample_rate_hz == 48000
        assert buf.samples.tolist() == [0.0]

    def test_16bit_scaling(self, tmp_path):
        p = tmp_path / "s.wav"
        p.write_bytes(build_wav(struct.pack("<4h", -32768, 16384, 32767, -16384)))
        buf = read_wav(p)
        assert buf.samples[0] == -1.0
        assert buf.samples[1] == 0.5
        assert buf.samples[2] == pytest.approx(32767 / 32768)
        assert buf.samples[3] == -0.5

    def test_24bit_scaling(self, tmp_path):
        def pack24(v):
            return struct.pack("<i", v & 0xFFFFFF)[:3]

        payload = pack24(-(1 << 23)) + pack24(1 << 22) + pack24((1 << 23) - 1)
        p = tmp_path / "d.wav"
        p.write_bytes(build_wav(payload, bits=24))
        buf = read_wav(p)
        assert buf.samples[0] == -1.0
        assert buf.samples[1] == 0.5
        assert buf.samples[2] == pytest.approx((2**23 - 1) / 2**23)

    def test_stereo_rejected_naming_field(self, tmp_path):
        p = tmp_path / "st.wav"
        p.write_bytes(build_wav(struct.pack("<2h", 0, 0), channels=2))
        with pytest.raises(AudioFormatError, match="NumChannels=2"):
            read_wav(p)

    def test_float_format_rejected(self, tmp_path):
        p = tmp_path / "f.wav"
        p.write_bytes(build_wav(struct.pack("<h", 0), audio_format=3))
        with pytest.raises(AudioFormatError, match="AudioFormat=3"):
            read_wav(p)

    def test_8bit_rejected(self, tmp_path):
        p = tmp_path / "8.wav"
        p.write_bytes(build_wav(b"\x80", bits=8))
        with pytest.raises(AudioFormatError, match="BitsPerSample=8"):
            read_wav(p)

    def test_truncated_data_reports_offset(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(build_wav(struct.pack("<2h", 1, 2), truncate_data_by=64))
        # the data chunk's body starts after the 44-byte header
        with pytest.raises(AudioFormatError, match="truncated chunk b'data' at byte 44:"):
            read_wav(p)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(AudioFormatError, match="RIFF"):
            read_wav(p)

    def test_extra_chunks_skipped(self, tmp_path):
        # LIST metadata between fmt and data must not confuse the parser
        fmt = struct.pack("<HHIIHH", 1, 1, 48000, 96000, 2, 16)
        payload = struct.pack("<2h", 16384, -16384)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
        body += b"data" + struct.pack("<I", len(payload)) + payload
        p = tmp_path / "chunks.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        buf = read_wav(p)
        assert buf.samples.tolist() == [0.5, -0.5]

    def test_write_read_round_trip(self, tmp_path, rng):
        samples = np.round(rng.uniform(-1, 0.999, 500) * 32768) / 32768
        buf = AudioBuffer(44100, samples)
        p = tmp_path / "rt.wav"
        write_wav(p, buf)
        back = read_wav(p)
        assert back.sample_rate_hz == 44100
        assert np.array_equal(back.samples, samples)


class TestCochleagram:
    def test_csv_round_trip(self, tmp_path, rng):
        edges = rng.uniform(-2, 2, (17, len(CSV_EDGE_FLOATS)))
        edges[3] = CSV_EDGE_FLOATS
        # wider than one chunk of the formatter; and a row count that is not
        # a multiple of the rows in a chunk
        wide = rng.normal(0, 1, (3, CHUNK_VALUES + 5))
        wide *= 10.0 ** rng.integers(-40, 40, wide.shape)
        tall = rng.normal(0, 1, (2 * (CHUNK_VALUES // 6) + 3, 5))
        for m in (edges, wide, tall):
            p = tmp_path / "c.csv"
            write_cochleagram(m, p, format="csv")
            back, fs = read_cochleagram(p)
            assert fs is None
            assert np.array_equal(back, m)
            header = ["t"] + [f"y_{k}" for k in range(m.shape[1])]
            rows = [[t] + m[t].tolist() for t in range(m.shape[0])]
            assert p.read_bytes() == csv_text(header, rows).encode("utf-8")

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        m = rng.uniform(-2, 2, (64, 9))
        p = tmp_path / "c.bin"
        write_cochleagram(m, p, format="binary", sample_rate_hz=48000.0)
        back, fs = read_cochleagram(p)
        assert fs == 48000.0
        assert np.array_equal(back, m)

    def test_cross_format_equality(self, tmp_path, rng):
        m = rng.normal(0, 1, (33, 4))
        write_cochleagram(m, tmp_path / "a.csv", format="csv")
        write_cochleagram(m, tmp_path / "a.bin", format="binary", sample_rate_hz=1.0)
        csv_m, _ = read_cochleagram(tmp_path / "a.csv")
        bin_m, _ = read_cochleagram(tmp_path / "a.bin")
        assert np.array_equal(csv_m, bin_m)

    def test_empty_matrix(self, tmp_path):
        m = np.zeros((0, 6))
        write_cochleagram(m, tmp_path / "e.csv", format="csv")
        write_cochleagram(m, tmp_path / "e.bin", format="binary")
        csv_m, _ = read_cochleagram(tmp_path / "e.csv")
        bin_m, _ = read_cochleagram(tmp_path / "e.bin")
        assert csv_m.shape == (0, 6)
        assert bin_m.shape == (0, 6)
        header = (tmp_path / "e.csv").read_text().splitlines()
        assert header == ["t,y_0,y_1,y_2,y_3,y_4,y_5"]
        expect = csv_text(["t"] + [f"y_{k}" for k in range(6)], [])
        assert (tmp_path / "e.csv").read_bytes() == expect.encode("utf-8")
        write_cochleagram(np.zeros((3, 0)), tmp_path / "n.csv", format="csv")
        expect = csv_text(["t"], [[0], [1], [2]])
        assert (tmp_path / "n.csv").read_bytes() == expect.encode("utf-8")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda b: b[:10], "truncated cochleagram header"),
        (lambda b: b[:4] + struct.pack("<H", 2) + b[6:], "unsupported cochleagram version 2"),
        (lambda b: b[:-1], "payload is 47 bytes, expected 48"),
        (lambda b: b"x,y_0\r\n0,1\r\n", "bad cochleagram CSV header"),
        (lambda b: b"t,y_0,y_1\r\n0,1,2\r\n1,2\r\n", "row has 2 fields, expected 3"),
    ], ids=["truncated_header", "version", "payload_size", "csv_header", "csv_row"])
    def test_malformed_file_rejected(self, tmp_path, corrupt, message):
        write_cochleagram(np.zeros((2, 3)), tmp_path / "good.bin", format="binary")
        (tmp_path / "bad").write_bytes(corrupt((tmp_path / "good.bin").read_bytes()))
        with pytest.raises(ConfigError, match=message):
            read_cochleagram(tmp_path / "bad")

    def test_single_cell(self, tmp_path):
        write_cochleagram(np.array([[0.5]]), tmp_path / "s.csv", format="csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[1] == "0,0.5"

    def test_bad_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_cochleagram(np.zeros((1, 1)), tmp_path / "x", format="hdf5")

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_row_blocks_write_the_matrix_bytes(self, tmp_path, rng, fmt):
        m = rng.normal(0, 1, (40, 7))
        write_cochleagram(m, tmp_path / "whole", format=fmt, sample_rate_hz=8000.0)
        blocks = iter(np.split(m, [0, 1, 17, 17, 39]))  # empty blocks among them
        write_cochleagram(blocks, tmp_path / "blocks", format=fmt, sample_rate_hz=8000.0,
                          n_samples=40)
        assert (tmp_path / "blocks").read_bytes() == (tmp_path / "whole").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks", "whole"]

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_failed_write_leaves_path(self, tmp_path, fmt):
        p = tmp_path / "c"
        p.write_bytes(b"before")
        blocks = (np.full((3, 2), v) for v in (1.0, 2.0, np.inf))
        with pytest.raises(ConfigError, match="non-finite"):
            write_cochleagram(blocks, p, format=fmt, n_samples=9)
        with pytest.raises(ConfigError, match="2-D"):
            write_cochleagram(iter([np.zeros((3, 2)), np.zeros((3, 3))]), p, format=fmt,
                              n_samples=6)
        with pytest.raises(ConfigError, match="expected 7"):
            write_cochleagram(iter([np.zeros((3, 2)), np.zeros((3, 2))]), p, format=fmt,
                              n_samples=7)
        assert p.read_bytes() == b"before"
        assert [q.name for q in tmp_path.iterdir()] == ["c"]

    def test_binary_row_blocks_need_n_samples(self, tmp_path):
        with pytest.raises(ConfigError, match="n_samples"):
            write_cochleagram(iter([np.zeros((3, 2))]), tmp_path / "c", format="binary")
        assert list(tmp_path.iterdir()) == []

    def test_nested_list_is_a_matrix(self, tmp_path):
        write_cochleagram([[0.5, 1.0], [2.0, 3.0]], tmp_path / "c.csv", format="csv")
        back, _ = read_cochleagram(tmp_path / "c.csv")
        assert np.array_equal(back, [[0.5, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_symlink_written_through(self, tmp_path, rng, fmt):
        m = rng.normal(0, 1, (5, 3))
        write_cochleagram(m, tmp_path / "expect", format=fmt)
        target = tmp_path / "target"
        target.write_bytes(b"before")
        target.chmod(0o640)
        (tmp_path / "link").symlink_to(target)
        write_cochleagram(m, tmp_path / "link", format=fmt)
        assert (tmp_path / "link").is_symlink()
        assert target.read_bytes() == (tmp_path / "expect").read_bytes()
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expect", "link", "target"]

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_fifo_written_through(self, tmp_path, rng, fmt):
        m = rng.normal(0, 1, (300, 7))
        write_cochleagram(m, tmp_path / "expect", format=fmt, sample_rate_hz=8000.0)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        # row blocks: the binary header cannot be written last on a pipe
        write_cochleagram(iter(np.split(m, [100, 200])), fifo, format=fmt,
                          sample_rate_hz=8000.0, n_samples=300)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        reader.join(timeout=30)
        assert got == [(tmp_path / "expect").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expect", "fifo"]


@pytest.fixture()
def workspace(tmp_path, rng):
    """Coefficient table and a short WAV to drive the CLI."""
    rc = cli_main([
        "design", "--sections", "24", "--fs", "48000", "--zeta", "0.25",
        "-o", str(tmp_path / "coeffs.csv"),
        "--quantize", str(tmp_path / "qcoeffs.csv"),
    ])
    assert rc == 0
    samples = np.round(rng.uniform(-0.25, 0.25, 2400) * 32768) / 32768
    write_wav(tmp_path / "in.wav", AudioBuffer(48000, samples))
    return tmp_path


class TestCliDesign:
    def test_writes_tables(self, workspace):
        header = (workspace / "coeffs.csv").read_text().splitlines()[0]
        assert header == "section,x,cf_hz,theta_r,r,a0,c0,h,g"
        assert len((workspace / "coeffs.csv").read_text().splitlines()) == 25
        assert (workspace / "qcoeffs.csv").exists()

    def test_full_scale_endpoints(self, tmp_path):
        rc = cli_main([
            "design", "--sections", "1224", "--fs", "48000",
            "-o", str(tmp_path / "big.csv"),
        ])
        assert rc == 0
        from carmodel.design import read_coeff_table

        d = read_coeff_table(tmp_path / "big.csv")
        assert d.n_sections == 1224
        assert d.sections[0].cf_hz == pytest.approx(20657.2, abs=0.5)
        assert d.sections[-1].cf_hz == pytest.approx(19.46, abs=0.05)

    def test_invalid_params_exit_1(self, tmp_path, capsys):
        rc = cli_main(["design", "--sections", "10", "--fs", "30000",
                       "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.strip()

    def test_unit_ratio_writes_the_default_tables(self, tmp_path):
        tables = set()
        for policy in ([], ["--h-policy", "proportional"], ["--h-policy", "ratio:1"]):
            out, q = tmp_path / "c.csv", tmp_path / "q.csv"
            assert cli_main(["design", *policy, "-o", str(out), "--quantize", str(q)]) == 0
            tables.add((out.read_bytes(), q.read_bytes()))
        assert len(tables) == 1

    def test_ratio_above_bound_names_section_0(self, tmp_path, capsys):
        rc = cli_main(["design", "--h-policy", "ratio:1.5", "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: section 0 ") and "complex-zero bound" in err

    @pytest.mark.parametrize("policy", ["fraction:0.5", "explicit:0.4"])
    def test_removed_h_policy_kinds_name_ratio(self, tmp_path, capsys, policy):
        rc = cli_main(["design", "--h-policy", policy, "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" not in err.strip() and "ratio:F" in err

    def test_h_policy_from_config_matches_flag(self, tmp_path):
        cfg = tmp_path / "carmodel.conf"
        cfg.write_text("h_policy = ratio:0.06\n")
        flag, conf, default = (tmp_path / f"{n}.csv" for n in ("flag", "conf", "default"))
        assert cli_main(["design", "--h-policy", "ratio:0.06", "-o", str(flag)]) == 0
        assert cli_main(["design", "--config", str(cfg), "-o", str(conf)]) == 0
        assert cli_main(["design", "-o", str(default)]) == 0
        assert conf.read_bytes() == flag.read_bytes() != default.read_bytes()


class TestCliRun:
    def test_float_mode(self, workspace):
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"),
            "-o", str(workspace / "out.csv"), "--mode", "float",
        ])
        assert rc == 0
        m, _ = read_cochleagram(workspace / "out.csv")
        assert m.shape == (2400, 24)

    def test_float_mode_streams_the_block_taps(self, workspace, rng):
        # several chunks of the 24-section cascade: rows, index column and
        # header come out as from one process_block call
        x = np.round(rng.uniform(-0.25, 0.25, 3 * (STREAM_CHUNK_VALUES // 24)) * 32768) / 32768
        write_wav(workspace / "long.wav", AudioBuffer(48000, x))
        design = read_coeff_table(workspace / "coeffs.csv")
        taps = process_block(design, CascadeState(24), read_wav(workspace / "long.wav").samples)
        for fmt in ("csv", "binary"):
            out = workspace / f"long.{fmt}"
            rc = cli_main(["run", "--coeffs", str(workspace / "coeffs.csv"),
                           "--wav", str(workspace / "long.wav"), "-o", str(out), "--format", fmt])
            assert rc == 0
            write_cochleagram(taps, workspace / "expect", format=fmt, sample_rate_hz=48000.0)
            assert out.read_bytes() == (workspace / "expect").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_non_finite_taps_leave_output(self, workspace, capsys, fmt):
        # g = 1e200 from section 3 on overflows the taps once the input
        # turns nonzero, after two chunks of silence were written
        lines = (workspace / "coeffs.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for cols in rows[3:]:
            cols[8] = "1e200"
        (workspace / "hot.csv").write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
        x = np.zeros(3 * (STREAM_CHUNK_VALUES // 24))
        x[-100:] = 0.5
        write_wav(workspace / "late.wav", AudioBuffer(48000, x))
        out = workspace / "out.keep"
        out.write_bytes(b"earlier output")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli_main(["run", "--coeffs", str(workspace / "hot.csv"),
                           "--wav", str(workspace / "late.wav"), "-o", str(out), "--format", fmt])
        assert rc == 1
        assert capsys.readouterr().err == "error: cochleagram contains non-finite values\n"
        assert out.read_bytes() == b"earlier output"
        assert not (workspace / "out.keep.part").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_output_to_stdout_pipe(self, workspace, fmt):
        argv = ["run", "--coeffs", str(workspace / "coeffs.csv"),
                "--wav", str(workspace / "in.wav"), "--format", fmt]
        assert cli_main([*argv, "-o", str(workspace / "expect")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "carmodel.cli", *argv, "-o", "/dev/stdout"],
            capture_output=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith((workspace / "expect").read_bytes())

    def test_silence_gives_zero_matrix(self, workspace):
        write_wav(workspace / "zero.wav", AudioBuffer(48000, np.zeros(100)))
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "zero.wav"),
            "-o", str(workspace / "z.csv"),
        ])
        assert rc == 0
        m, _ = read_cochleagram(workspace / "z.csv")
        assert np.all(m == 0.0)

    def test_fixed_mode_with_stats(self, workspace):
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"),
            "-o", str(workspace / "out.bin"), "--format", "binary",
            "--mode", "fixed", "--stats", str(workspace / "sat.csv"),
        ])
        assert rc == 0
        m, fs = read_cochleagram(workspace / "out.bin")
        assert fs == 48000.0
        assert m.shape == (2400, 24)
        stats = (workspace / "sat.csv").read_text().splitlines()
        assert stats[0] == "section,saturations"
        assert len(stats) == 25

    def test_fixed_mode_wide_state_matches_reference_loop(self, tmp_path, rng):
        # a 64-bit state runs the kernel on object lanes; six narrowly spaced,
        # lightly damped sections overflow its 8 integer bits
        assert cli_main(["design", "--sections", "6", "--x-base", "0.5", "--x-apex", "0.45",
                         "--zeta", "0.02", "-o", str(tmp_path / "c.csv")]) == 0
        samples = np.round(rng.uniform(-0.25, 0.25, 600) * 32768) / 32768
        write_wav(tmp_path / "in.wav", AudioBuffer(48000, samples))
        rc = cli_main([
            "run", "--coeffs", str(tmp_path / "c.csv"), "--wav", str(tmp_path / "in.wav"),
            "-o", str(tmp_path / "out.bin"), "--format", "binary", "--mode", "fixed",
            "--state-bits", "64", "--state-frac", "56", "--stats", str(tmp_path / "sat.csv"),
        ])
        assert rc == 0
        qd = fixed.quantize_design(read_coeff_table(tmp_path / "c.csv"),
                                   state_format=fixed.FixedFormat(64, 56))
        raw_in = fixed.quantize_block(read_wav(tmp_path / "in.wav").samples, qd.io_format)
        raw, stats = fixed_process_block_py(qd, fixed.FixedCascadeState(6), raw_in)
        m, _ = read_cochleagram(tmp_path / "out.bin")
        assert np.array_equal(m, fixed.to_real_block(raw, qd.state_format))
        assert stats.section_saturations[-1] > 0
        sat = (tmp_path / "sat.csv").read_text().splitlines()
        assert sat == ["section,saturations",
                       *(f"{k},{c}" for k, c in enumerate(stats.section_saturations))]

    def test_wav_clips_at_io_entrance_counted(self, workspace, capsys):
        # 8388607 and 8388606 round up past the 16/15 io format's raw_max
        ints = (8388607, -8388608, 8388606, 100)
        payload = b"".join(struct.pack("<i", v)[:3] for v in ints)
        (workspace / "loud.wav").write_bytes(build_wav(payload, bits=24))
        io_args = ["--coeffs", str(workspace / "coeffs.csv"), "--wav", str(workspace / "loud.wav")]
        assert cli_main(["run", *io_args, "-o", str(workspace / "l.csv"), "--mode", "fixed"]) == 0
        assert "saturations: 2 (input 2, sections 0)\n" in capsys.readouterr().out
        assert cli_main(["compare", *io_args]) == 0
        assert "saturations: 2\n" in capsys.readouterr().out

    def test_pipeline_mode(self, workspace):
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"),
            "-o", str(workspace / "pipe.csv"), "--mode", "pipeline",
        ])
        assert rc == 0

    def test_sample_rate_mismatch_rejected(self, workspace, capsys):
        write_wav(workspace / "bad.wav", AudioBuffer(44100, np.zeros(10)))
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "bad.wav"),
            "-o", str(workspace / "nope.csv"),
        ])
        assert rc == 1
        assert "sample rate" in capsys.readouterr().err

    def test_fixed_mode_deterministic_bytes(self, workspace):
        args = [
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"), "--format", "binary",
            "--mode", "fixed",
        ]
        assert cli_main(args + ["-o", str(workspace / "d1.bin")]) == 0
        assert cli_main(args + ["-o", str(workspace / "d2.bin")]) == 0
        assert (workspace / "d1.bin").read_bytes() == (workspace / "d2.bin").read_bytes()

    def test_quantized_table_input(self, workspace):
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"),
            "-o", str(workspace / "q.bin"), "--format", "binary",
            "--mode", "fixed", "--quantized", str(workspace / "qcoeffs.csv"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("row", ["0,r,1.5,18,16", "0,r,x,18,16", "0,r,65208,18"])
    def test_bad_quantized_row_exits_1(self, workspace, capsys, row):
        lines = (workspace / "qcoeffs.csv").read_text().splitlines()
        (workspace / "bad_q.csv").write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        rc = cli_main([
            "run", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"), "-o", str(workspace / "q.bin"),
            "--mode", "fixed", "--quantized", str(workspace / "bad_q.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quantized-table line 2:") and "\n" not in err.strip()

    def test_invalid_section_in_coeff_table_exits_1(self, workspace, capsys):
        lines = (workspace / "coeffs.csv").read_text().splitlines()
        cols = lines[1].split(",")
        cols[4] = "1.5"  # r
        (workspace / "bad.csv").write_text("\n".join([lines[0], ",".join(cols), *lines[2:]]) + "\n")
        rc = cli_main([
            "run", "--coeffs", str(workspace / "bad.csv"),
            "--wav", str(workspace / "in.wav"), "-o", str(workspace / "o.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: section 0: r out of") and "\n" not in err.strip()

    def test_fixed_datapath_called_once(self, workspace, monkeypatch):
        # perfbench captures these results through the module attributes
        from carmodel import analysis, fixed

        calls = {}
        for module, name in ((fixed, "quantize_block"), (fixed, "fixed_process_block"),
                             (fixed, "to_real_block"), (analysis, "parity_report")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
            calls[name] = 0
        io_args = ["--coeffs", str(workspace / "coeffs.csv"), "--wav", str(workspace / "in.wav")]
        for argv, expect in (
            # the WAV entrance quantizes in cli._wav_raw, which counts clips,
            # not through quantize_block
            (["compare", *io_args, "-o", str(workspace / "p.csv")],
             {"quantize_block": 0, "fixed_process_block": 1, "to_real_block": 1,
              "parity_report": 1}),
            # run streams: no whole-input block, one conversion per row block,
            # and the 2400 samples through 24 sections are one block
            (["run", *io_args, "-o", str(workspace / "f.csv"), "--mode", "fixed"],
             {"quantize_block": 0, "fixed_process_block": 0, "to_real_block": 1,
              "parity_report": 0}),
        ):
            calls.update(dict.fromkeys(calls, 0))
            assert cli_main(argv) == 0
            assert calls == expect


class TestCliAnalyze:
    def test_mls_analysis_outputs(self, workspace):
        rc = cli_main([
            "analyze", "--coeffs", str(workspace / "coeffs.csv"),
            "--method", "mls", "--mls-order", "11",
            "--channels", "0,8,23", "--out-dir", str(workspace / "resp"),
        ])
        assert rc == 0
        for section in (0, 8, 23):
            assert (workspace / "resp" / f"channel_{section:04d}_freq.csv").exists()
            assert (workspace / "resp" / f"channel_{section:04d}_impulse.csv").exists()
        peaks = (workspace / "resp" / "peaks.csv").read_text().splitlines()
        assert peaks[0] == "section,peak_hz,peak_db,flat"
        assert len(peaks) == 4

    def test_default_channels_spread(self, workspace):
        rc = cli_main([
            "analyze", "--coeffs", str(workspace / "coeffs.csv"),
            "--method", "impulse", "--n-samples", "512",
            "--out-dir", str(workspace / "resp2"),
        ])
        assert rc == 0
        peaks = (workspace / "resp2" / "peaks.csv").read_text().splitlines()
        assert len(peaks) == 21  # header + 20 evenly spread channels

    @pytest.mark.parametrize("method", ["impulse", "mls"])
    def test_zero_samples_rejected(self, workspace, capsys, method):
        rc = cli_main([
            "analyze", "--coeffs", str(workspace / "coeffs.csv"), "--method", method,
            "--mls-order", "10", "--n-samples", "0", "--channels", "0",
            "--out-dir", str(workspace / "r0"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_samples must be >= 1" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("method, rows", [("impulse", 2048), ("mls", 1023)])
    def test_omitted_n_samples_uses_default_length(self, workspace, method, rows):
        out = workspace / method
        rc = cli_main([
            "analyze", "--coeffs", str(workspace / "coeffs.csv"), "--method", method,
            "--mls-order", "10", "--channels", "0", "--out-dir", str(out),
        ])
        assert rc == 0
        lines = (out / "channel_0000_impulse.csv").read_text().splitlines()
        assert len(lines) == 1 + rows

    @pytest.mark.parametrize("method", ["impulse", "mls"])
    def test_streams_only_sections_read(self, tmp_path, monkeypatch, capsys, method):
        # taps 0 and 3 depend on sections 0..3 alone: the files are those of
        # a run through all 12 sections, byte for byte
        coeffs = tmp_path / "c.csv"
        assert cli_main(["design", "--sections", "12", "--zeta", "0.25", "-o", str(coeffs)]) == 0
        full = read_coeff_table(coeffs)
        stream_rows = carmodel.cli.stream_rows
        seen = []

        def spy(stream, samples):
            seen.append(stream.n_sections)
            return stream_rows(stream, samples)

        def whole(stream, samples):
            return stream_rows(CascadeStream(full, CascadeState(full.n_sections),
                                             taps=stream.taps), samples)

        outputs = {}
        for name, wrapper in (("cut", spy), ("full", whole)):
            monkeypatch.setattr(carmodel.cli, "stream_rows", wrapper)
            out = tmp_path / name
            assert cli_main(["analyze", "--coeffs", str(coeffs), "--method", method,
                             "--mls-order", "10", "--channels", "0,3",
                             "--out-dir", str(out)]) == 0
            outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert seen and set(seen) == {4}
        assert len(outputs["cut"]) == 5 and outputs["cut"] == outputs["full"]

    def test_bad_channels_rejected(self, workspace, capsys):
        rc = cli_main([
            "analyze", "--coeffs", str(workspace / "coeffs.csv"),
            "--channels", "0,99", "--out-dir", str(workspace / "r3"),
        ])
        assert rc == 1
        assert "channels out of range" in capsys.readouterr().err


def _traced_peak(argv) -> int:
    """Peak bytes traced by tracemalloc over one cli_main call."""
    tracemalloc.start()
    try:
        assert cli_main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCliMemory:
    # pipeline: 16 sections per array, so the 64 sections run on 4 arrays
    @pytest.mark.parametrize("mode", [
        ["--mode", "float"],
        ["--mode", "fixed"],
        ["--mode", "pipeline", "--clock-hz", str(48000 * 29 * 16)],
    ], ids=["float", "fixed", "pipeline"])
    def test_run_peak_flat_in_input_length(self, tmp_path, rng, capsys, mode):
        assert cli_main(["design", "--sections", "64", "-o", str(tmp_path / "c.csv")]) == 0
        peaks = []
        for n_samples in (4096, 4096, 8192):  # the first run warms caches up
            x = np.round(rng.uniform(-0.25, 0.25, n_samples) * 32768) / 32768
            write_wav(tmp_path / "in.wav", AudioBuffer(48000, x))
            peaks.append(_traced_peak(["run", "--coeffs", str(tmp_path / "c.csv"),
                                       "--wav", str(tmp_path / "in.wav"),
                                       "-o", str(tmp_path / "o.bin"), "--format", "binary",
                                       *mode]))
        # holding the taps would add 4096 x 64 doubles (2 MB)
        assert peaks[2] - peaks[1] < STREAM_CHUNK_VALUES * 8

    def test_compare_holds_only_the_fixed_rows(self, tmp_path, rng, capsys):
        # the whole-input fixed result is held; the float reference and the
        # parity sums stream beside it
        assert cli_main(["design", "--sections", "100", "--zeta", "0.25",
                         "-o", str(tmp_path / "c.csv")]) == 0
        peaks = []
        for n_samples in (2400, 2400, 9600):  # the first run warms caches up
            x = np.round(rng.uniform(-0.25, 0.25, n_samples) * 32768) / 32768
            write_wav(tmp_path / "in.wav", AudioBuffer(48000, x))
            peaks.append(_traced_peak(["compare", "--coeffs", str(tmp_path / "c.csv"),
                                       "--wav", str(tmp_path / "in.wav"),
                                       "-o", str(tmp_path / "p.csv")]))
        fixed_rows_growth = (9600 - 2400) * 100 * 8  # int64 taps
        assert peaks[2] - peaks[1] <= fixed_rows_growth + (1 << 20)

    def test_binary_write_takes_no_copy_of_a_block(self, tmp_path):
        m = np.ones((512, 512))
        tracemalloc.start()
        try:
            write_cochleagram(iter([m]), tmp_path / "o.bin", format="binary", n_samples=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_cochleagram(tmp_path / "o.bin")[0].tobytes() == m.tobytes()
        assert peak < m.nbytes / 2

    def test_binary_write_copies_a_strided_block_in_slices(self, tmp_path, rng):
        # every other column: the writer cannot hand this buffer to the file
        m = rng.normal(0, 1, (1000, 1024))[:, ::2]
        tracemalloc.start()
        try:
            write_cochleagram(iter([m]), tmp_path / "o.bin", format="binary", n_samples=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_cochleagram(tmp_path / "o.bin")[0].tobytes() == m.tobytes()
        assert peak < m.nbytes / 4

    def test_analyze_peak_below_tap_matrix(self, tmp_path, capsys):
        assert cli_main(["design", "--sections", "64", "--x-apex", "0.4",
                         "-o", str(tmp_path / "c.csv")]) == 0
        argv = ["analyze", "--coeffs", str(tmp_path / "c.csv"), "--mls-order", "12",
                "--channels", "0,31,63", "--out-dir", str(tmp_path / "a")]
        _traced_peak(argv)
        peak = _traced_peak(argv)
        design = read_coeff_table(tmp_path / "c.csv")
        stimulus = (mls_warmup_periods(design, 4095) + 1) * 4095
        assert peak < 0.5 * stimulus * 64 * 8

    def test_analyze_peak_flat_in_warmup_periods(self, tmp_path, capsys):
        # the warm-up periods' rows are not kept: a table that needs 6 of
        # them at order 12 peaks less than one period's rows above one that
        # needs 1 (the 20 default channels of 64 sections, 655 KB)
        tables = {}
        for name, flags in (("fast", ["--x-apex", "0.4"]), ("slow", ["--x-apex", "0.1"])):
            tables[name] = tmp_path / f"{name}.csv"
            assert cli_main(["design", "--sections", "64", *flags,
                             "-o", str(tables[name])]) == 0
        warmups = [mls_warmup_periods(read_coeff_table(t), 4095) for t in tables.values()]
        assert warmups == [1, 6]
        peaks = []
        for table in (tables["fast"], *tables.values()):  # the first run warms caches up
            peaks.append(_traced_peak(["analyze", "--coeffs", str(table), "--mls-order", "12",
                                       "--out-dir", str(tmp_path / "a")]))
        assert peaks[2] - peaks[1] < 4095 * 20 * 8


class TestCliScheduleCompare:
    def test_schedule_report(self, tmp_path, capsys):
        rc = cli_main(["schedule", "--sections", "1224",
                       "--csv", str(tmp_path / "sched.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "arrays_needed: 12" in out
        assert "end_to_end_latency_us: 250.0000" in out
        assert (tmp_path / "sched.csv").exists()

    @pytest.mark.parametrize("clock", ["nan", "inf"])
    def test_schedule_non_finite_clock_exits_1(self, clock, capsys):
        assert cli_main(["schedule", "--clock-hz", clock]) == 1
        assert capsys.readouterr() == ("", "error: clock_hz must be finite and positive\n")

    def test_compare(self, workspace, capsys):
        rc = cli_main([
            "compare", "--coeffs", str(workspace / "coeffs.csv"),
            "--wav", str(workspace / "in.wav"),
            "-o", str(workspace / "parity.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst_snr_db:" in out
        lines = (workspace / "parity.csv").read_text().splitlines()
        assert lines[0] == "channel,snr_db,exact,saturations"
        assert len(lines) == 25

    def test_compare_short_input_through_full_design(self, tmp_path, rng, capsys):
        # 240 samples reach the apex channels of the 1224-section design only
        # as values near 1e-162, whose squares underflow to 0
        assert cli_main(["design", "-o", str(tmp_path / "c.csv")]) == 0
        x = np.round(rng.uniform(-0.25, 0.25, 240) * 32768) / 32768
        write_wav(tmp_path / "in.wav", AudioBuffer(48000, x))
        rc = cli_main(["compare", "--coeffs", str(tmp_path / "c.csv"),
                       "--wav", str(tmp_path / "in.wav"), "-o", str(tmp_path / "p.csv")])
        assert rc == 0, capsys.readouterr().err
        rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
        assert len(rows) == 1224 and not any(",nan," in row for row in rows)

    def test_compare_silent_wav_is_exact(self, workspace, capsys):
        # every tap is 0 in both datapaths: exact, not an undefined SNR
        write_wav(workspace / "silent.wav", AudioBuffer(48000, np.zeros(480)))
        rc = cli_main(["compare", "--coeffs", str(workspace / "coeffs.csv"),
                       "--wav", str(workspace / "silent.wav"),
                       "-o", str(workspace / "p.csv")])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert "worst_snr_db: exact (all channels bit-identical)\n" in out
        rows = (workspace / "p.csv").read_text().splitlines()
        assert rows[1:] == [f"{ch},inf,1,0" for ch in range(24)]

    def test_compare_empty_wav_exits_1(self, workspace, capsys):
        write_wav(workspace / "empty.wav", AudioBuffer(48000, np.zeros(0)))
        rc = cli_main(["compare", "--coeffs", str(workspace / "coeffs.csv"),
                       "--wav", str(workspace / "empty.wav")])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: empty comparison window\n")


class TestCliPlumbing:
    def test_unknown_flag_exits_2(self):
        assert cli_main(["design", "--bogus"]) == 2

    def test_unknown_subcommand_exits_2(self):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = cli_main([
            "run", "--coeffs", str(tmp_path / "absent.csv"),
            "--wav", str(tmp_path / "absent.wav"),
            "-o", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "carmodel.conf"
        cfg.write_text("# design defaults\nsections = 5\nzeta = 0.2\n")
        rc = cli_main(["design", "--config", str(cfg),
                       "-o", str(tmp_path / "a.csv")])
        assert rc == 0
        from carmodel.design import read_coeff_table

        assert read_coeff_table(tmp_path / "a.csv").n_sections == 5
        rc = cli_main(["design", "--config", str(cfg), "--sections", "7",
                       "-o", str(tmp_path / "b.csv")])
        assert rc == 0
        assert read_coeff_table(tmp_path / "b.csv").n_sections == 7

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("sektions = 5\n")
        rc = cli_main(["design", "--config", str(cfg), "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("sections = abc\n")
        rc = cli_main(["design", "--config", str(cfg), "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "argument --sections: invalid int value: 'abc'" in err
        assert "Traceback" not in err
        # argparse checks no default against its flag's choices
        for command, key in (("run", "mode"), ("run", "format"), ("analyze", "method")):
            cfg.write_text(f"{key} = foo\n")
            argv = [command, "--config", str(cfg), "--coeffs", str(tmp_path / "absent.csv")]
            if command == "run":
                argv += ["--wav", str(tmp_path / "absent.wav"), "-o", str(tmp_path / "out")]
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: carmodel {command} ")
            assert f"invalid choice for {key}: 'foo'" in err

    def test_required_flag_or_missing_file_in_config_exit_1(self, workspace, capsys):
        cfg = workspace / "req.conf"
        cfg.write_text(f"coeffs = {workspace / 'coeffs.csv'}\n")
        for conf in (cfg, workspace / "absent.conf"):
            rc = cli_main(["analyze", "--config", str(conf),
                           "--coeffs", str(workspace / "coeffs.csv")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "\n" not in err.strip()

    def test_flags_override_config_fixed_format_and_hardware(self, tmp_path, capsys):
        cfg = tmp_path / "fmt.conf"
        cfg.write_text(f"sections = 3\ncoeff_bits = 20\nquantize = {tmp_path / 'q.csv'}\n")
        out = tmp_path / "c.csv"
        assert cli_main(["design", "--config", str(cfg), "-o", str(out)]) == 0
        assert "quantized coefficients (20/16)" in capsys.readouterr().out
        args = ["design", "--config", str(cfg), "--coeff-bits", "22", "-o", str(out)]
        assert cli_main(args) == 0
        assert "quantized coefficients (22/16)" in capsys.readouterr().out

        cfg = tmp_path / "hw.conf"
        cfg.write_text("clock_hz = 100e6\nsections = 500\n")
        assert cli_main(["schedule", "--config", str(cfg)]) == 0
        assert "sections_per_array: 71" in capsys.readouterr().out
        assert cli_main(["schedule", "--config", str(cfg), "--clock-hz", "142e6"]) == 0
        assert "sections_per_array: 102" in capsys.readouterr().out

    def test_design_takes_only_the_coefficient_format(self, tmp_path, capsys):
        assert cli_main(["design", "--state-bits", "20"]) == 2
        cfg = tmp_path / "fmt.conf"
        cfg.write_text("state_bits = 20\n")
        capsys.readouterr()
        assert cli_main(["design", "--config", str(cfg), "-o", str(tmp_path / "x.csv")]) == 1
        assert "unknown config key: state_bits" in capsys.readouterr().err
        assert cli_main(["design", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--coeff-bits" in out and "--coeff-frac" in out
        assert "--state-" not in out and "--io-" not in out

    def test_help_shows_library_defaults(self, capsys):
        assert cli_main(["run", "--help"]) == 0
        out = capsys.readouterr().out
        assert "default 142000000.0" in out
        assert "default 18" in out

    def test_bad_channels_or_h_policy_exit_1(self, workspace, capsys):
        coeffs, out = str(workspace / "coeffs.csv"), str(workspace / "o")
        for argv in (
            ["analyze", "--coeffs", coeffs, "--channels", "1,x", "--out-dir", out],
            ["analyze", "--coeffs", coeffs, "--channels", "1,,2", "--out-dir", out],
            ["design", "--h-policy", "ratio:abc", "-o", out],
            ["design", "--sections", "3", "--h-policy", "ratio:nan", "-o", out],
            ["design", "--sections", "3", "--h-policy", "ratio:inf", "-o", out],
            ["design", "--sections", "3", "--h-policy", "ratio:0", "-o", out],
        ):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "\n" not in err.strip()

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "carmodel.cli", "schedule", "--sections", "102"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert "arrays_needed: 1" in proc.stdout

    def test_fixed_lanes_logged_outputs_unchanged(self, workspace):
        # in a child: under pytest's log capture basicConfig does nothing
        io_args = ["--coeffs", str(workspace / "coeffs.csv"), "--wav", str(workspace / "in.wav")]
        out = workspace / "out"
        for formats, lanes in (([], "int64"), (["--state-bits", "64", "--state-frac", "56"],
                                               "object")):
            for argv in (["run", *io_args, "--mode", "fixed", "-o", str(out)],
                         ["compare", *io_args, "-o", str(out)]):
                seen = []
                for level in ("warning", "info"):
                    out.unlink(missing_ok=True)
                    proc = subprocess.run(
                        [sys.executable, "-m", "carmodel.cli", *argv, *formats],
                        capture_output=True, text=True, env=_child_env(CARMODEL_LOG=level),
                    )
                    assert proc.returncode == 0, proc.stderr
                    seen.append((proc.stdout, out.read_bytes()))
                    logged = f"fixed kernel: 24 sections on {lanes} lanes" in proc.stderr
                    assert logged == (level == "info"), (argv, level, proc.stderr)
                assert seen[0] == seen[1], argv

    def test_unknown_log_level_means_warning(self):
        # in a child: under pytest's log capture basicConfig does nothing
        def schedule(level):
            return subprocess.run(
                [sys.executable, "-m", "carmodel.cli", "schedule", "--sections", "4"],
                capture_output=True, text=True, env=_child_env(CARMODEL_LOG=level),
            )

        expect = schedule("warning")
        assert expect.returncode == 0 and "arrays_needed" in expect.stdout
        for level in ("basic_format", "critical", "Error"):
            proc = schedule(level)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expect.stdout, ""), level
