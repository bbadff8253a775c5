"""Command-line front end.

Subcommands: design (coefficient tables), run (WAV -> cochleagram),
analyze (impulse/frequency response CSVs), schedule (hardware timing
report), compare (float vs fixed parity). Every processing error prints a
single `error: ...` line on stderr and exits 1; usage problems exit 2.

A config file (--config) holds `key = value` lines keyed by the long option
names with dashes replaced by underscores; values parse like their flags (a
bad one, or one outside the flag's choices, is a usage error) and explicit
flags override them. CARMODEL_LOG sets log verbosity (debug, info, warning,
error; anything else means warning), never the outputs.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, audio_io, fixed, schedule
from ._outfile import OutFile
# No command calls process_block, but perfbench's traced runs wrap cli.process_block.
from .core import CascadeState, CascadeStream, process_block, stream_rows  # noqa: F401
from .design import (
    CascadeDesign,
    DesignParams,
    design_cascade,
    read_coeff_table,
    write_coeff_table,
)
from .errors import CarModelError, ConfigError

log = logging.getLogger("carmodel")

__all__ = ["cli_main", "main"]

_SHOW_DEFAULT = "default %(default)s"
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _parse_h_policy(text: str) -> float:
    """The zero ratio F of h = F * c0 that an --h-policy value names."""
    t = text.strip()
    if t in ("proportional", "proportional_to_c0", "c0"):
        return 1.0
    kind, _, value = t.partition(":")
    try:
        if kind == "ratio":
            return float(value)
    except ValueError:
        pass
    raise ConfigError(f"bad h-policy {text!r}; use proportional or ratio:F")


def _load_config(path: str, command: argparse.ArgumentParser) -> dict[str, str]:
    """The `key = value` lines of a config file, each naming an optional flag.
    argparse checks no default against its flag's choices, so this does."""
    known = {a.dest: a for a in command._actions if a.option_strings and not a.required}
    del known["help"], known["config"]
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
        cfg[key] = value.strip()
        choices = known[key].choices
        if choices is not None and cfg[key] not in choices:
            command.error(f"{path}:{lineno}: invalid choice for {key}: {cfg[key]!r} "
                          f"(choose from {', '.join(choices)})")
    return cfg


def _fixed_formats(args) -> tuple[fixed.FixedFormat, fixed.FixedFormat, fixed.FixedFormat]:
    return (
        fixed.FixedFormat(args.coeff_bits, args.coeff_frac),
        fixed.FixedFormat(args.state_bits, args.state_frac),
        fixed.FixedFormat(args.io_bits, args.io_frac),
    )


def _hardware(args, sample_rate_hz: float) -> schedule.HardwareParams:
    return schedule.HardwareParams(
        clock_hz=args.clock_hz,
        cycles_per_section=args.cycles_per_section,
        sample_rate_hz=sample_rate_hz,
        max_arrays=args.max_arrays,
    )


def _load_design_checked(coeffs_path: str, wav: audio_io.AudioBuffer) -> CascadeDesign:
    design = read_coeff_table(coeffs_path)
    if abs(wav.sample_rate_hz - design.sample_rate_hz) > 1e-6 * design.sample_rate_hz:
        raise ConfigError(
            f"WAV sample rate {wav.sample_rate_hz} Hz differs from design rate "
            f"{design.sample_rate_hz:.6g} Hz; resampling is not performed"
        )
    return design


def _wav_raw(wav: audio_io.AudioBuffer, io_format: fixed.FixedFormat) -> tuple[np.ndarray, int]:
    """The WAV's samples as io-format raw integers, and how many of them
    clipped to the format's range: input saturations the fixed datapath,
    which starts from these integers, does not see."""
    return fixed._quantize_finite(wav.samples, io_format)  # samples are finite


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_design(args) -> int:
    params = DesignParams(
        sample_rate_hz=args.fs,
        n_sections=args.sections,
        x_base=args.x_base,
        x_apex=args.x_apex,
        damping_zeta=args.zeta,
        zero_ratio=_parse_h_policy(args.h_policy),
        r_override=args.r,
    )
    design = design_cascade(params)
    write_coeff_table(design, args.output)
    print(
        f"designed {design.n_sections} sections, CF {design.sections[0].cf_hz:.1f} Hz "
        f"down to {design.sections[-1].cf_hz:.2f} Hz -> {args.output}"
    )
    if args.quantize:
        coeff_fmt = fixed.FixedFormat(args.coeff_bits, args.coeff_frac)
        fixed.write_quantized_table(fixed.quantize_design(design, coeff_fmt), args.quantize)
        print(
            f"quantized coefficients ({coeff_fmt.total_bits}/{coeff_fmt.frac_bits}) "
            f"-> {args.quantize}"
        )
    return 0


def _cmd_run(args) -> int:
    wav = audio_io.read_wav(args.wav)
    design = _load_design_checked(args.coeffs, wav)
    log.info("run: %d samples through %d sections, mode=%s",
             wav.samples.size, design.n_sections, args.mode)

    if args.mode != "fixed":  # float, or the float rows as the pipeline emits them
        outputs = stream_rows(CascadeStream(design, CascadeState(design.n_sections)), wav.samples)
        if args.mode == "pipeline":
            outputs = schedule.simulate_pipeline(_hardware(args, design.sample_rate_hz),
                                                 design.n_sections, outputs)
    else:
        coeff_fmt, state_fmt, io_fmt = _fixed_formats(args)
        if args.quantized:
            qd = fixed.read_quantized_table(args.quantized, design, state_fmt, io_fmt)
        else:
            qd = fixed.quantize_design(design, coeff_fmt, state_fmt, io_fmt)
        stream = fixed.FixedStream(qd, fixed.FixedCascadeState(qd.n_sections))
        raw_in, clipped = _wav_raw(wav, qd.io_format)
        outputs = (fixed.to_real_block(raw, qd.state_format) for raw in stream_rows(stream, raw_in))

    audio_io.write_cochleagram(
        outputs, args.output, format=args.format, sample_rate_hz=design.sample_rate_hz,
        n_samples=wav.samples.size,
    )
    if args.mode == "fixed":
        stats = stream.stats
        print(f"saturations: {stats.total + clipped} (input {stats.input_saturations + clipped}, "
              f"sections {int(stats.section_saturations.sum())})")
        if args.stats:
            rows = [f"{k},{int(c)}\n" for k, c in enumerate(stats.section_saturations)]
            with OutFile(args.stats) as f:
                f.write(("section,saturations\n" + "".join(rows)).encode("ascii"))
    print(f"cochleagram {wav.samples.size} x {design.n_sections} -> {args.output}")
    return 0


def _default_channels(n_sections: int, count: int = 20) -> list[int]:
    if n_sections <= count:
        return list(range(n_sections))
    picks = np.linspace(0, n_sections - 1, count)
    return sorted(set(int(round(p)) for p in picks))


def _cmd_analyze(args) -> int:
    design = read_coeff_table(args.coeffs)
    if args.channels:
        try:
            channels = sorted(set(int(c) for c in args.channels.split(",")))
        except ValueError:
            raise ConfigError(f"channels must be integers: {args.channels!r}") from None
        bad = [c for c in channels if not 0 <= c < design.n_sections]
        if bad:
            raise ConfigError(f"channels out of range: {bad}")
    else:
        channels = _default_channels(design.n_sections)

    # The cascade feeds forward, so the taps read depend on no later section.
    cut = max(channels) + 1
    head = CascadeDesign(design.sections[:cut], design.sample_rate_hz, design.positions[:cut])

    def system(stim: np.ndarray):  # row blocks of the channels' taps alone
        return stream_rows(CascadeStream(head, CascadeState(cut), taps=channels), stim)

    if args.method == "mls":
        config = analysis.MlsConfig(order=args.mls_order)
        n_samples = config.period if args.n_samples is None else args.n_samples
        warmup = analysis.mls_warmup_periods(design, config.period)
        ir = analysis.impulse_response(
            system, n_samples, method="mls", mls_config=config, warmup_periods=warmup
        )
    else:  # impulse
        n_samples = 2048 if args.n_samples is None else args.n_samples
        ir = analysis.impulse_response(system, n_samples, method="direct_impulse")

    result = analysis.frequency_response_measured(
        ir, design.sample_rate_hz, n_fft=args.n_fft
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_response_csv(
        result, [out_dir / f"channel_{section:04d}_freq.csv" for section in channels])
    analysis.write_impulse_csv(
        result, [out_dir / f"channel_{section:04d}_impulse.csv" for section in channels])
    analysis.write_peaks_csv(result, channels, out_dir / "peaks.csv")
    print(f"analyzed {len(channels)} channels ({args.method}) -> {out_dir}")
    return 0


def _cmd_schedule(args) -> int:
    report = schedule.plan(_hardware(args, args.fs), args.sections)
    print(schedule.report_text(report))
    if args.csv:
        with OutFile(args.csv) as f:
            f.write(schedule.report_csv(report).encode("ascii"))
    return 0


def _cmd_compare(args) -> int:
    """Per-channel SNR of one whole-input fixed run against its float reference, streamed."""
    wav = audio_io.read_wav(args.wav)
    design = _load_design_checked(args.coeffs, wav)
    qd = fixed.quantize_design(design, *_fixed_formats(args))
    raw_in, clipped = _wav_raw(wav, qd.io_format)
    raw_out, stats = fixed.fixed_process_block(qd, fixed.FixedCascadeState(qd.n_sections), raw_in)

    def blocks():  # the float reference sees the same io-quantized input, exactly
        stream = CascadeStream(fixed.dequantized_design(qd), CascadeState(qd.n_sections))
        start = 0
        for ref in stream_rows(stream, raw_in * qd.io_format.lsb):
            yield ref, fixed.to_real_block(raw_out[start : start + len(ref)], qd.state_format)
            start += len(ref)

    report = analysis.parity_report(blocks())
    finite = report.snr_db[np.isfinite(report.snr_db)]
    print(f"channels: {design.n_sections}")
    print(f"window: samples [0, {len(raw_in)})")
    print(f"saturations: {stats.total + clipped}")
    if finite.size:
        print(f"worst_snr_db: {report.worst_snr_db:.2f} (channel {report.worst_channel})")
        print(f"median_snr_db: {float(np.median(finite)):.2f}")
    else:
        print("worst_snr_db: exact (all channels bit-identical)")
    if args.output:
        rows = [f"{ch},{'inf' if math.isinf(snr) else format(snr, '.6g')},"
                f"{int(report.exact[ch])},{int(stats.section_saturations[ch])}\n"
                for ch, snr in enumerate(report.snr_db)]
        with OutFile(args.output) as f:
            f.write(("channel,snr_db,exact,saturations\n" + "".join(rows)).encode("ascii"))
        print(f"parity report -> {args.output}")
    return 0


# ---------------------------------------------------------------------------


def _add_size_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fs", type=float, default=schedule.HardwareParams.sample_rate_hz,
                   help="sample rate in Hz (default %(default)s)")
    p.add_argument("--sections", type=int, default=1224,
                   help="number of sections (default %(default)s)")


def _add_hardware_flags(p: argparse.ArgumentParser) -> None:
    hw = schedule.HardwareParams
    p.add_argument("--clock-hz", type=float, default=hw.clock_hz, help=_SHOW_DEFAULT)
    p.add_argument("--cycles-per-section", type=int, default=hw.cycles_per_section,
                   help=_SHOW_DEFAULT)
    p.add_argument("--max-arrays", type=int, default=hw.max_arrays, help=_SHOW_DEFAULT)


def _add_fixed_format_flags(p: argparse.ArgumentParser, words=("coeff", "state", "io")) -> None:
    formats = {"coeff": fixed.DEFAULT_COEFF_FORMAT, "state": fixed.DEFAULT_STATE_FORMAT,
               "io": fixed.DEFAULT_IO_FORMAT}
    for word in words:
        fmt = formats[word]
        p.add_argument(f"--{word}-bits", type=int, default=fmt.total_bits, help=_SHOW_DEFAULT)
        p.add_argument(f"--{word}-frac", type=int, default=fmt.frac_bits, help=_SHOW_DEFAULT)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="carmodel",
        description="Cochlear filter-cascade design, simulation, and measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="compute a coefficient table")
    p.add_argument("--config")
    _add_size_flags(p)
    p.add_argument("--x-base", type=float, default=DesignParams.x_base, help=_SHOW_DEFAULT)
    p.add_argument("--x-apex", type=float, default=DesignParams.x_apex, help=_SHOW_DEFAULT)
    p.add_argument("--zeta", type=float, default=DesignParams.damping_zeta,
                   help="damping factor (default %(default)s)")
    p.add_argument("--h-policy", default="proportional",
                   help="proportional | ratio:F, h = F * c0 (default %(default)s)")
    p.add_argument("--r", type=float, help="explicit global pole radius")
    p.add_argument("--output", "-o", default="coeffs.csv", help=_SHOW_DEFAULT)
    p.add_argument("--quantize", help="also write a quantized coefficient table here")
    _add_fixed_format_flags(p, words=("coeff",))  # the only format the table stores
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("run", help="process a WAV into a cochleagram")
    p.add_argument("--config")
    p.add_argument("--coeffs", required=True, help="coefficient table CSV")
    p.add_argument("--wav", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--format", choices=["csv", "binary"], default="csv", help=_SHOW_DEFAULT)
    p.add_argument("--mode", choices=["float", "fixed", "pipeline"], default="float",
                   help=_SHOW_DEFAULT)
    p.add_argument("--stats", help="per-section saturation CSV (fixed mode)")
    p.add_argument("--quantized", help="raw quantized coefficient table to use")
    _add_hardware_flags(p)
    _add_fixed_format_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="impulse/frequency response measurement")
    p.add_argument("--config")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--method", choices=["impulse", "mls"], default="mls", help=_SHOW_DEFAULT)
    p.add_argument("--mls-order", type=int, default=analysis.MlsConfig.order, help=_SHOW_DEFAULT)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-fft", type=int)
    p.add_argument("--channels", help="comma-separated tap indices (default: 20 spread)")
    p.add_argument("--out-dir", default="analysis_out", help=_SHOW_DEFAULT)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("schedule", help="hardware timing report")
    p.add_argument("--config")
    _add_size_flags(p)
    _add_hardware_flags(p)
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("compare", help="float vs fixed parity report")
    p.add_argument("--config")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--output", "-o", help="per-channel parity CSV")
    _add_fixed_format_flags(p)
    p.set_defaults(func=_cmd_compare)

    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv. With --config, parse it again over the file's values as
    the subcommand's defaults: argparse converts them by each flag's type,
    and flags given on the command line override them."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        command = commands[args.command]
        command.set_defaults(**_load_config(args.config, command))
        args = parser.parse_args(argv)
    return args


def cli_main(argv=None) -> int:
    level = os.environ.get("CARMODEL_LOG", "warning").lower()
    logging.basicConfig(level=level.upper() if level in _LOG_LEVELS else logging.WARNING)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help or a usage error
        return int(exc.code) if exc.code is not None else 0
    except (CarModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
