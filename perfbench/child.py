"""One measured run in a fresh process: set up, warm up, time passes, check.

run.py starts this file as a script, once per run; it is not imported.
After set-up the child prints READY on stdout, which is where run.py stops
the set-up clock; with --setup-only it exits there. Otherwise it runs one
untimed warm-up pass, which also captures what the correctness checks need,
then timed passes until --seconds have elapsed (at least MIN_PASSES), then
the checks, and writes result.json (and spans.json with --trace 1) into
--work.

Without --trace the passes call the program's real entry points with
nothing in between: carmodel.cli.cli_main for the CLI workloads and
carmodel.core.process_block for streaming. With --trace 1 the public
functions each layer exposes are wrapped, as module attributes, in spans.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from carmodel import _kernels, analysis, audio_io, cli, core, design, fixed  # noqa: E402

from reference import reference_task  # noqa: E402
from tracing import Patcher, Tracer  # noqa: E402
from workloads import BLOCK_SAMPLES, CHECK_PREFIX_SAMPLES, read_wav_ints  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

MIN_PASSES = 3
MIN_SNR_DB = 60.0           # criterion 7's parity floor
MAX_RESPONSE_ERR_DB = 0.1   # criterion 6's measured-vs-analytic tolerance


def _core_counts(args, kwargs, out):
    return {"core.process_block_calls": 1, "core.section_updates": out.size}


def _fixed_counts(args, kwargs, result):
    raw_out, stats = result
    return {"fixed.section_updates": raw_out.size, "fixed.saturations": stats.total}


def _bytes_written(args, kwargs, result):
    return {"audio_io.bytes_written": os.path.getsize(args[1])}


def _response_rows(args, kwargs, result):
    return {"analysis.csv_rows": args[0].frequencies_hz.shape[0]}


def _impulse_rows(args, kwargs, result):
    return {"analysis.csv_rows": args[0].impulse_responses.shape[0]}


# (module, attribute, span name, counter). The CLI binds read_coeff_table and
# process_block into its own namespace, so those are wrapped there too.
TRACE_POINTS = [
    (cli, "read_coeff_table", "design.read_coeff_table", None),
    (cli, "process_block", "core.process_block", _core_counts),
    (core, "process_block", "core.process_block", _core_counts),
    (audio_io, "read_wav", "audio_io.read_wav", None),
    (audio_io, "write_cochleagram", "audio_io.write_cochleagram", _bytes_written),
    (fixed, "quantize_design", "fixed.quantize_design", None),
    (fixed, "quantize_block", "fixed.quantize_block", None),
    (fixed, "fixed_process_block", "fixed.fixed_process_block", _fixed_counts),
    (fixed, "to_real_block", "fixed.to_real_block", None),
    (analysis, "mls_generate", "analysis.mls_generate", None),
    (analysis, "impulse_response", "analysis.impulse_response", None),
    (analysis, "frequency_response_measured", "analysis.frequency_response_measured", None),
    (analysis, "peak_trajectory", "analysis.peak_trajectory", None),
    (analysis, "write_response_csv", "analysis.write_csv", _response_rows),
    (analysis, "write_impulse_csv", "analysis.write_csv", _impulse_rows),
    (analysis, "parity_report", "analysis.parity_report", None),
]

# Span name -> per-layer metric where it is not simply name + "_s". The
# pass span's self time is whatever no layer span covers.
SPAN_METRIC = {
    "pass": "cli.self_s",
    "analysis.impulse_response": "analysis.impulse_response_self_s",
}

# Every per-layer metric the child reports; layers a workload does not
# exercise read 0. Pass metrics are means per timed pass.
LAYER_METRICS = [
    "setup.import_s",
    "setup.design.design_cascade_s",
    "setup.design.write_coeff_table_s",
    "setup.design.read_coeff_table_s",
    "setup.fixed.quantize_design_s",
    "design.read_coeff_table_s",
    "core.process_block_s",
    "core.process_block_calls",
    "core.section_updates",
    "core.msu_per_s",
    "fixed.quantize_design_s",
    "fixed.quantize_block_s",
    "fixed.fixed_process_block_s",
    "fixed.to_real_block_s",
    "fixed.section_updates",
    "fixed.msu_per_s",
    "fixed.saturations",
    "audio_io.read_wav_s",
    "audio_io.write_cochleagram_s",
    "audio_io.bytes_written",
    "analysis.mls_generate_s",
    "analysis.impulse_response_self_s",
    "analysis.frequency_response_measured_s",
    "analysis.peak_trajectory_s",
    "analysis.write_csv_s",
    "analysis.csv_rows",
    "analysis.parity_report_s",
    "cli.self_s",
    "trace.wall_s",
]


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def load_csv_taps(path: Path) -> np.ndarray:
    """Tap matrix of a CSV cochleagram, parsed by numpy, not the program."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def float_oracle(des, samples: np.ndarray) -> np.ndarray:
    """Taps from the scalar reference, core.process_sample, one sample at a time."""
    state = core.CascadeState(des.n_sections)
    return np.array([core.process_sample(des, state, float(x)) for x in samples])


def capture(patcher: Patcher, module, attr: str, store: dict) -> None:
    """Keep the result of the latest call to module.attr in store[attr]."""
    fn = getattr(module, attr)

    def hook(*args, **kwargs):
        store[attr] = fn(*args, **kwargs)
        return store[attr]

    patcher.set(module, attr, hook)


class Workload:
    """Set-up, one pass, and checks of one workload."""

    ops_per_pass = 1

    def __init__(self, work: Path, params: dict, tracer: Tracer):
        self.work = work
        self.params = params
        self.tracer = tracer
        self.coeffs = work / "coeffs.csv"
        self.wav = work / "input.wav"
        self.checks: list[dict] = []
        self.accuracy: dict[str, float] = {}
        self.extra: dict = {}
        self.captured: dict = {}
        self.block_s: list[float] = []  # per-block host times (stream_float only)

    def setup(self) -> None:
        t = self.tracer
        p = design.DesignParams(
            sample_rate_hz=self.params["sample_rate_hz"], **self.params["design"]
        )
        des = t.call("setup.design.design_cascade", design.design_cascade, p)
        t.call("setup.design.write_coeff_table", design.write_coeff_table, des, self.coeffs)
        self.design = t.call("setup.design.read_coeff_table", design.read_coeff_table, self.coeffs)

    def signal(self) -> np.ndarray:
        return np.array(read_wav_ints(self.wav), dtype=np.float64) / 32768.0

    def install_captures(self, patcher: Patcher) -> None:
        pass

    def after_warmup(self) -> None:
        pass

    def run_pass(self) -> None:
        rc = cli.cli_main(self.argv)
        if rc != 0:
            raise RuntimeError(f"carmodel {self.argv[0]} exited with {rc}")

    def check(self, name: str, fn) -> None:
        """Run one correctness check; fn returns (ok, detail)."""
        try:
            ok, detail = fn()
        except Exception:  # a check that crashes is a failed check
            ok, detail = False, traceback.format_exc(limit=3)
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def check_prefix(self, taps: np.ndarray) -> None:
        n = CHECK_PREFIX_SAMPLES
        expect = (self.signal().size, self.design.n_sections)
        self.check("taps_shape", lambda: (taps.shape == expect, f"{taps.shape} vs {expect}"))
        self.check(
            "float_prefix_equals_process_sample",
            lambda: (np.array_equal(taps[:n], float_oracle(self.design, self.signal()[:n])),
                     f"{n} samples x {taps.shape[1]} taps"),
        )


class RunFloat(Workload):
    def setup(self):
        super().setup()
        self.out = self.work / "cochleagram.csv"
        self.argv = ["run", "--coeffs", str(self.coeffs), "--wav", str(self.wav),
                     "--output", str(self.out)]

    def run_checks(self):
        taps = load_csv_taps(self.out)
        self.check_prefix(taps)
        self.extra["taps_sha256"] = sha256_bytes(taps.tobytes())


class StreamFloat(Workload):
    def setup(self):
        super().setup()
        self.samples = self.signal()
        self.ops_per_pass = -(-self.samples.size // BLOCK_SAMPLES)
        self.taps: list[np.ndarray] = []

    def run_pass(self):
        state = core.CascadeState(self.design.n_sections)
        taps = []
        for i in range(0, self.samples.size, BLOCK_SAMPLES):
            t0 = time.perf_counter()
            taps.append(core.process_block(self.design, state, self.samples[i:i + BLOCK_SAMPLES]))
            self.block_s.append(time.perf_counter() - t0)
        self.taps = taps

    def run_checks(self):
        taps = np.concatenate(self.taps)
        self.check_prefix(taps)
        self.extra["taps_sha256"] = sha256_bytes(taps.tobytes())

        def same_as_cli_run():
            out = self.work / "check_run.csv"
            rc = cli.cli_main(["run", "--coeffs", str(self.coeffs), "--wav", str(self.wav),
                               "--output", str(out)])
            if rc != 0:
                return False, f"carmodel run exited with {rc}"
            ran = sha256_bytes(load_csv_taps(out).tobytes())
            return ran == self.extra["taps_sha256"], f"run taps sha256 {ran}"

        self.check("stream_taps_equal_run_taps", same_as_cli_run)


class CompareFixed(Workload):
    def setup(self):
        super().setup()
        self.qdesign = self.tracer.call(
            "setup.fixed.quantize_design", fixed.quantize_design, self.design
        )
        self.out = self.work / "parity.csv"
        self.argv = ["compare", "--coeffs", str(self.coeffs), "--wav", str(self.wav),
                     "--output", str(self.out)]

    def install_captures(self, patcher):
        capture(patcher, fixed, "fixed_process_block", self.captured)
        capture(patcher, analysis, "parity_report", self.captured)

    def after_warmup(self):
        self.warm_digest = sha256_bytes(self.out.read_bytes())

    def run_checks(self):
        raw_out, stats = self.captured["fixed_process_block"]
        report = self.captured["parity_report"]
        self.accuracy["worst_snr_db"] = report.worst_snr_db
        n = CHECK_PREFIX_SAMPLES
        qd = self.qdesign

        def prefix_equals_step_section():
            expect = np.empty((n, qd.n_sections), dtype=np.int64)
            states = [fixed.FixedSectionState()] * qd.n_sections
            for t, sample in enumerate(self.signal()[:n]):
                x_io = fixed.quantize(float(sample), qd.io_format)
                x = fixed.quantize(fixed.to_real(x_io), qd.state_format)
                for k in range(qd.n_sections):
                    states[k], x, _ = fixed.fixed_step_section(qd, k, states[k], x)
                    expect[t, k] = x.raw
            return np.array_equal(raw_out[:n], expect), f"{n} samples x {qd.n_sections} taps"

        self.check("fixed_prefix_equals_step_section", prefix_equals_step_section)
        self.check("fixed_no_saturations", lambda: (stats.total == 0, f"{stats.total} events"))
        self.check("worst_snr_at_least_60_db",
                   lambda: (report.worst_snr_db >= MIN_SNR_DB, f"{report.worst_snr_db} dB"))
        self.check("timed_passes_repeat_parity_csv",
                   lambda: (sha256_bytes(self.out.read_bytes()) == self.warm_digest, ""))


class AnalyzeMls(Workload):
    def setup(self):
        super().setup()
        self.out = self.work / "analysis"
        self.argv = ["analyze", "--coeffs", str(self.coeffs), "--method", "mls",
                     "--mls-order", str(self.params["mls_order"]), "--out-dir", str(self.out)]

    def install_captures(self, patcher):
        capture(patcher, analysis, "frequency_response_measured", self.captured)

    def after_warmup(self):
        self.warm_digest = sha256_dir(self.out)

    def run_checks(self):
        result = self.captured["frequency_response_measured"]
        peaks = np.loadtxt(self.out / "peaks.csv", delimiter=",", skiprows=1, ndmin=2)
        channels = peaks[:, 0].astype(int)
        measured = result.magnitudes_db
        analytic = analysis.frequency_response_analytic(self.design, result.frequencies_hz)
        with np.errstate(divide="ignore"):
            analytic_db = np.maximum(20 * np.log10(np.abs(analytic[:, channels])), analysis.DB_FLOOR)
        cols = np.arange(channels.size)
        peak_bin = measured.argmax(axis=0)
        err = float(np.max(np.abs(measured[peak_bin, cols] - analytic_db[peak_bin, cols])))
        self.accuracy["response_err_db"] = err
        self.check("response_err_within_0.1_db",
                   lambda: (err <= MAX_RESPONSE_ERR_DB, f"{err} dB over {channels.size} channels"))
        files = len(list(self.out.iterdir()))
        self.check("csv_file_count",
                   lambda: (files == 2 * channels.size + 1, f"{files} files"))
        self.check("timed_passes_repeat_csvs",
                   lambda: (sha256_dir(self.out) == self.warm_digest, ""))


WORKLOAD_CLASSES = {
    "run_float": RunFloat,
    "stream_float": StreamFloat,
    "compare_fixed": CompareFixed,
    "analyze_mls": AnalyzeMls,
}


def layer_metrics(tracer: Tracer, pass_ids: set[str], pass_s: list[float]) -> dict[str, float]:
    n = len(pass_ids)
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    m["setup.import_s"] = IMPORT_S
    for name, s in tracer.self_times({"setup"}).items():
        m[name + "_s"] = s
    for name, s in tracer.self_times(pass_ids).items():
        m[SPAN_METRIC.get(name, name + "_s")] = s / n
    for key, c in tracer.count_totals(pass_ids).items():
        m[key] = c / n
    for layer, busy in (("core", "core.process_block_s"), ("fixed", "fixed.fixed_process_block_s")):
        if m[busy] > 0:
            m[f"{layer}.msu_per_s"] = m[f"{layer}.section_updates"] / m[busy] / 1e6
    m["trace.wall_s"] = sum(pass_s) / n
    unknown = set(m) - set(LAYER_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    params = json.loads((args.work / "params.json").read_text())
    tracer = Tracer()
    wl = WORKLOAD_CLASSES[params["workload"]](args.work, params, tracer)
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    traced = Patcher()
    if args.trace:
        for module, attr, name, counter in TRACE_POINTS:
            traced.set(module, attr, tracer.wrap(getattr(module, attr), name, counter))

    pass_s: list[float] = []
    ref_s: list[float] = []
    failed_ops = 0
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        tracer.pass_id = "warmup"
        hooks = Patcher()
        wl.install_captures(hooks)
        try:
            wl.run_pass()
        finally:
            hooks.restore()
        wl.after_warmup()
        wl.block_s.clear()

        start = time.perf_counter()
        ref_s.append(reference_task())
        while len(pass_s) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            tracer.pass_id = f"pass{len(pass_s)}"
            index = len(tracer.spans)
            try:
                tracer.call("pass", wl.run_pass)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed_ops += wl.ops_per_pass
            _, begin, end, _, _ = tracer.spans[index]
            pass_s.append(end - begin)
            ref_s.append(reference_task())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer.pass_id = "check"

        def all_checks_ran():
            wl.run_checks()
            return True, ""

        wl.check("checks_completed", all_checks_ran)

    traced.restore()
    pass_ids = {f"pass{i}" for i in range(len(pass_s))}
    if args.trace:
        self_sum = sum(tracer.self_times(pass_ids).values())
        wl.check("trace_self_times_sum_to_wall",
                 lambda: (abs(self_sum - sum(pass_s)) <= 1e-6 * len(pass_s),
                          f"{self_sum} vs {sum(pass_s)}"))
    result = {
        "workload": params["workload"],
        "backend": "numba" if _kernels.HAVE_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pass_s": pass_s,
        "wall_s": statistics.median(pass_s),
        # each pass over the mean of the reference runs just before and after it
        "wall_ref": statistics.median(
            p / ((r0 + r1) / 2) for p, r0, r1 in zip(pass_s, ref_s, ref_s[1:])
        ),
        "ref_s": statistics.median(ref_s),
        "peak_rss_mb": peak_rss_mb,
        "ops": wl.ops_per_pass * len(pass_s),
        "failed_ops": failed_ops,
        "checks": wl.checks,
        "accuracy": wl.accuracy,
        "inputs": {wl.coeffs.name: sha256_bytes(wl.coeffs.read_bytes())},
        **wl.extra,
    }
    if wl.block_s:
        result["block_s"] = wl.block_s
    if args.trace:
        result["layers"] = layer_metrics(tracer, pass_ids, pass_s)
        (args.work / "spans.json").write_text(json.dumps(tracer.dump()))
    (args.work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
