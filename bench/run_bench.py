"""Measurements at the north-star size (1224 sections, 48 kHz), written to a
BENCH_<n>.json file.

Usage, from the repository root; TREE is a checkout with src/ and perfbench/:

    python3 bench/run_bench.py --tree TREE --label before --out BENCH_9.json
    python3 bench/run_bench.py --tree . --label after --out BENCH_9.json

Each call measures the program in TREE and stores its numbers under
--label, keeping the other labels the file holds. Every entry is the median
of its REPEATS repeats, with the repeats themselves, and each label is stamped with
the Python and numpy versions, nproc and the tree's git revision:

- block_48_process_block_ms, block_48_push_ms: one 48-sample block through
  the 1224-section design, state carried from block to block: through
  process_block, which drains the cascade on every call, and through
  CascadeStream.push once the stream is full. Timed in a child process with
  perfbench's Tracer.
- tick_float_64x8200_us, tick_fixed_100x2400_us: microseconds per
  wavefront tick of each kernel on the size a benchmark workload runs it
  at, timed in a child process with perfbench's Tracer. The float kernel
  is CascadeStream.push of 8200 samples through analyze_mls's 64-section
  design once the stream is full, so every tick is full-width; the fixed
  kernel is one fixed_process_block call of 2400 samples through
  compare_fixed's 100-section design, its 99 drain ticks included.
- Each timing child runs perfbench's reference_task() before every timed
  call and stores the times as <child>_ref_s. Each block_ and tick_ entry
  comes a second time as <entry>_nominal: divided by the child's median
  reference time and multiplied by NOMINAL_REF_S, as perfbench's wall_ref
  does, so host drift between two labels' runs does not read as speed.
- run_binary: `carmodel run --format binary` on 0.5 s and 1 s of -12 dBFS
  noise, each in a fresh child process: peak RSS (getrusage), the RSS
  before the run, and the run's wall time.
- analyze_mls: TREE's `perfbench/run.py --workload analyze_mls`, one run per
  seed: peak_rss_mb and wall_ref.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from reference import NOMINAL_REF_S, reference_task  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BLOCK_SAMPLES, WORKLOADS, noise_samples, write_wav  # noqa: E402

N_SECTIONS = 1224
SAMPLE_RATE_HZ = 48000
RUN_SECONDS = (0.5, 1.0)
ANALYZE_SEEDS = (801, 802, 803)
ANALYZE_SECONDS = 5.0  # perfbench's --seconds for each analyze_mls run
REPEATS = 5  # timed block and tick calls, and run children per input length
FLOAT_TICK_SIZE = (64, 8200)  # sections, samples: analyze_mls's stream
FIXED_TICK_SIZE = (100, 2400)  # compare_fixed's fixed_process_block call
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "repeats": values}


# ---------------------------------------------------------------------------
# child side: imports the program from --tree


def _import_program(tree: Path):
    sys.path.insert(0, str(tree / "src"))
    import numpy as np
    from carmodel import cli, core, design, fixed

    return np, cli, core, design, fixed


class Timer:
    """Seconds of calls timed with perfbench's Tracer, each after one run
    of perfbench's reference task, whose times measure the host's speed."""

    def __init__(self):
        self.tracer = Tracer()
        self.ref_s: list[float] = []

    def call(self, fn, *args) -> float:
        self.ref_s.append(reference_task())
        self.tracer.call(fn.__name__, fn, *args)
        _, s, e, _, _ = self.tracer.spans[-1]
        return e - s


def child_block(tree: Path) -> dict:
    """Per-block ms of process_block and of push."""
    np, _, core, design, _ = _import_program(tree)
    des = design.design_cascade(design.DesignParams(float(SAMPLE_RATE_HZ), N_SECTIONS))
    x = np.array(noise_samples(random.Random(8), 64 * BLOCK_SAMPLES)) / 32768.0
    blocks = [x[i : i + BLOCK_SAMPLES] for i in range(0, x.size, BLOCK_SAMPLES)]
    timer = Timer()
    state = core.CascadeState(N_SECTIONS)
    core.process_block(des, state, blocks[0])  # warms up
    result = {"process_block": [1e3 * timer.call(core.process_block, des, state, blocks[i])
                                for i in range(1, REPEATS + 1)]}
    stream = core.CascadeStream(des, core.CascadeState(N_SECTIONS))
    for block in blocks[: -(-N_SECTIONS // BLOCK_SAMPLES) + 1]:  # fill the cascade
        stream.push(block)
    result["push"] = [1e3 * timer.call(stream.push, blocks[i % len(blocks)])
                      for i in range(REPEATS)]
    return {"times": result, "ref_s": timer.ref_s}


def child_tick(tree: Path) -> dict:
    """Microseconds per tick of the float and the fixed kernel."""
    np, _, core, design, fixed = _import_program(tree)
    timer = Timer()

    def timed(ticks, fn, *args):
        fn(*args)  # warms up
        return [1e6 * timer.call(fn, *args) / ticks for _ in range(REPEATS)]

    n, samples = FLOAT_TICK_SIZE
    des = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), **WORKLOADS["analyze_mls"]["design"]))
    x = np.array(noise_samples(random.Random(10), samples)) / 32768.0
    stream = core.CascadeStream(des, core.CascadeState(n))
    stream.push(x[: n - 1])  # fill the cascade: every later tick is full-width
    result = {f"float_{n}x{samples}": timed(samples, stream.push, x)}

    n, samples = FIXED_TICK_SIZE
    des = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), **WORKLOADS["compare_fixed"]["design"]))
    qd = fixed.quantize_design(des)
    raw = fixed.quantize_block(np.array(noise_samples(random.Random(11), samples)) / 32768.0,
                               qd.io_format)
    state = fixed.FixedCascadeState(n)
    result[f"fixed_{n}x{samples}"] = timed(
        samples + n - 1, fixed.fixed_process_block, qd, state, raw)
    return {"times": result, "ref_s": timer.ref_s}


def child_run(tree: Path, coeffs: Path, wav: Path) -> dict:
    """Peak RSS and wall time of one `carmodel run --format binary`."""
    import resource

    _, cli, _, _, _ = _import_program(tree)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--coeffs", str(coeffs), "--wav", str(wav),
                "-o", str(Path(tmp) / "out.bin"), "--format", "binary"]
        tracer = Tracer()
        with open(os.devnull, "w") as devnull:
            saved, sys.stdout = sys.stdout, devnull
            try:
                rc = tracer.call("run", cli.cli_main, argv)
            finally:
                sys.stdout = saved
    if rc != 0:
        raise SystemExit(f"carmodel run exited with {rc}")
    _, s, e, _, _ = tracer.spans[0]
    return {"rss_before_mb": before,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_s": e - s}


# ---------------------------------------------------------------------------
# parent side


def in_child(*args: str) -> dict:
    out = subprocess.run([sys.executable, __file__, *args], check=True, capture_output=True,
                         text=True, env={**os.environ, **THREAD_ENV}).stdout
    return json.loads(out.splitlines()[-1])


def timing_entries(child: dict, prefix: str, unit: str) -> dict:
    """A timing child's entries, as measured and at the nominal reference
    speed, and its reference times."""
    scale = NOMINAL_REF_S / statistics.median(child["ref_s"])
    entries = {f"{prefix}_ref_s": summary(child["ref_s"])}
    for name, times in child["times"].items():
        entries[f"{prefix}_{name}_{unit}"] = summary(times)
        entries[f"{prefix}_{name}_{unit}_nominal"] = summary([t * scale for t in times])
    return entries


def measure(tree: Path) -> dict:
    entries = {
        **timing_entries(in_child("--child", "block", "--tree", str(tree)), "block_48", "ms"),
        **timing_entries(in_child("--child", "tick", "--tree", str(tree)), "tick", "us"),
    }

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        coeffs = tmp / "coeffs.csv"
        subprocess.run([sys.executable, "-m", "carmodel.cli", "design", "--sections",
                        str(N_SECTIONS), "-o", str(coeffs)], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(tree / "src")})
        for seconds in RUN_SECONDS:
            wav = tmp / f"noise_{seconds}s.wav"
            write_wav(wav, noise_samples(random.Random(9), int(seconds * SAMPLE_RATE_HZ)))
            runs = [in_child("--child", "run", "--tree", str(tree), "--coeffs", str(coeffs),
                             "--wav", str(wav)) for _ in range(REPEATS)]
            entries[f"run_binary_{seconds}s"] = {
                key: summary([r[key] for r in runs]) for key in runs[0]
            }

    analyze = []
    for seed in ANALYZE_SEEDS:
        out = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "analyze_mls",
             "--seed", str(seed), "--seconds", str(ANALYZE_SECONDS)],
            check=True, capture_output=True, text=True, cwd=tree,
        ).stdout
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        analyze.append({k: metrics[k]["value"] for k in ("peak_rss_mb", "wall_ref")})
    entries["analyze_mls"] = {k: summary([a[k] for a in analyze]) for k in analyze[0]}
    return entries


def stamp(tree: Path) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        check=True, capture_output=True, text=True).stdout.strip()
    revision = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                              capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "revision": revision or "unknown"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=HERE.parent)
    ap.add_argument("--label", default="after")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", choices=["block", "tick", "run"], help=argparse.SUPPRESS)
    ap.add_argument("--coeffs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--wav", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    tree = args.tree.resolve()

    if args.child == "block":
        print(json.dumps(child_block(tree)))
        return 0
    if args.child == "tick":
        print(json.dumps(child_tick(tree)))
        return 0
    if args.child == "run":
        print(json.dumps(child_run(tree, args.coeffs, args.wav)))
        return 0
    if args.out is None:
        ap.error("--out is required")

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("script", "bench/run_bench.py")
    entries = measure(tree)
    record[args.label] = {"stamp": stamp(tree), **entries}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
