"""Measurements at the north-star size (1224 sections, 48 kHz), written to a
BENCH_<n>.json file.

Usage, from the repository root; TREE is a checkout with src/ and perfbench/:

    python3 bench/run_bench.py --tree TREE --label before --out BENCH_9.json
    python3 bench/run_bench.py --tree . --label after --out BENCH_9.json
    python3 bench/run_bench.py --ab PARENT --tree . --out BENCH_11.json

Each call measures the program in TREE and stores its numbers under
--label, keeping the other labels the file holds. Every entry is the median
of its REPEATS repeats, with the repeats themselves, and each label is stamped with
the Python and numpy versions, nproc and the tree's git revision:

- block_48_process_block_ms, block_48_push_ms: one 48-sample block through
  the 1224-section design, state carried from block to block: through
  process_block, which drains the cascade on every call, and through
  CascadeStream.push once the stream is full. Timed in a child process with
  perfbench's Tracer, after one call that warms each up.
- tick_float_64x8200_us, tick_fixed_100x2400_us: microseconds per
  wavefront tick of each kernel on the size a benchmark workload runs it
  at, timed as the block calls are. The float kernel
  is CascadeStream.push of 8200 samples through analyze_mls's 64-section
  design once the stream is full, so every tick is full-width; the fixed
  kernel is one fixed_process_block call of 2400 samples through
  compare_fixed's 100-section design, its 99 drain ticks included.
- Each timing child runs perfbench's reference_task() before every timed
  call and stores the times as <child>_ref_s. Each block_ and tick_ entry
  comes a second time as <entry>_nominal: divided by the child's median
  reference time and multiplied by NOMINAL_REF_S, as perfbench's wall_ref
  does, so host drift between two labels' runs does not read as speed.
- run_binary_<mode>: `carmodel run --format binary --mode <mode>`, for
  each of float, fixed and pipeline (on the default hardware: 12 arrays at
  1224 sections), on 0.5 s and 1 s of -12 dBFS noise, each in a fresh
  child process: peak RSS (getrusage), the RSS before the run, and the
  run's wall time.
- analyze_mls: TREE's `perfbench/run.py --workload analyze_mls`, one run per
  seed: peak_rss_mb and wall_ref.

--ab PARENT compares two trees in one child process instead, because one
child per label cannot resolve a 20% change on this kind of host: the
child imports PARENT's and TREE's carmodel under two package names and
alternates their calls on the same inputs, PAIRS pairs per entry, the
first call of each pair switching trees from pair to pair. For the four
block_ and tick_ calls above it stores the median and quartiles of the
per-pair ratio TREE / PARENT under "ab"; a ratio below 1 means TREE is
faster. It also stores run_binary_<mode> for both trees, as "before"
(PARENT) and "after" (TREE).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
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
RUN_MODES = ("float", "fixed", "pipeline")
ANALYZE_SEEDS = (801, 802, 803)
ANALYZE_SECONDS = 5.0  # perfbench's --seconds for each analyze_mls run
REPEATS = 5  # timed block and tick calls, and run children per input length
PAIRS = 31  # alternating calls of the two trees per --ab entry
FLOAT_TICK_SIZE = (64, 8200)  # sections, samples: analyze_mls's stream
FIXED_TICK_SIZE = (100, 2400)  # compare_fixed's fixed_process_block call
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "repeats": values}


# ---------------------------------------------------------------------------
# child side: imports the program from --tree


def _import_program(tree: Path):
    sys.path.insert(0, str(tree / "src"))
    from carmodel import cli, core, design, fixed

    return cli, core, design, fixed


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


def timed_calls(core, design, fixed) -> dict:
    """The block_ and tick_ calls, set up on one tree's modules: name ->
    (a function of the call's index, wavefront ticks per call, or None
    where the entry is the time per call)."""
    import numpy as np

    des = design.design_cascade(design.DesignParams(float(SAMPLE_RATE_HZ), N_SECTIONS))
    x = np.array(noise_samples(random.Random(8), 64 * BLOCK_SAMPLES)) / 32768.0
    blocks = [x[i : i + BLOCK_SAMPLES] for i in range(0, x.size, BLOCK_SAMPLES)]
    state = core.CascadeState(N_SECTIONS)
    stream = core.CascadeStream(des, core.CascadeState(N_SECTIONS))
    for block in blocks[: -(-N_SECTIONS // BLOCK_SAMPLES) + 1]:  # fill the cascade
        stream.push(block)
    calls = {
        "block_48_process_block": (lambda i: core.process_block(des, state, blocks[i % 64]), None),
        "block_48_push": (lambda i: stream.push(blocks[i % 64]), None),
    }

    n, samples = FLOAT_TICK_SIZE
    des64 = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), **WORKLOADS["analyze_mls"]["design"]))
    x64 = np.array(noise_samples(random.Random(10), samples)) / 32768.0
    stream64 = core.CascadeStream(des64, core.CascadeState(n))
    stream64.push(x64[: n - 1])  # fill the cascade: every later tick is full-width
    calls[f"tick_float_{n}x{samples}"] = (lambda i: stream64.push(x64), samples)

    n, samples = FIXED_TICK_SIZE
    des100 = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), **WORKLOADS["compare_fixed"]["design"]))
    qd = fixed.quantize_design(des100)
    raw = fixed.quantize_block(np.array(noise_samples(random.Random(11), samples)) / 32768.0,
                               qd.io_format)
    fstate = fixed.FixedCascadeState(n)
    calls[f"tick_fixed_{n}x{samples}"] = (
        lambda i: fixed.fixed_process_block(qd, fstate, raw), samples + n - 1)
    return calls


def child_times(tree: Path, prefix: str) -> dict:
    """ms per call of the block_48 calls, or µs per tick of the tick calls,
    each after one call that warms it up."""
    _, core, design, fixed = _import_program(tree)
    timer = Timer()
    result = {}
    for name, (call, ticks) in timed_calls(core, design, fixed).items():
        if name.startswith(prefix + "_"):
            call(0)
            scale = 1e3 if ticks is None else 1e6 / ticks
            result[name[len(prefix) + 1 :]] = [scale * timer.call(call, i)
                                               for i in range(1, REPEATS + 1)]
    return {"times": result, "ref_s": timer.ref_s}


def _import_as(tree: Path, name: str):
    """TREE's carmodel package, imported as the package name."""
    pkg = tree / "src" / "carmodel"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [importlib.import_module(f"{name}.{m}") for m in ("core", "design", "fixed")]


def child_ab(parent: Path, tree: Path) -> dict:
    """Per-pair time ratios TREE / PARENT of each timed call."""
    both = [timed_calls(*_import_as(parent, "carmodel_parent")),
            timed_calls(*_import_as(tree, "carmodel_tree"))]
    tracer = Tracer()

    def seconds(fn, i):
        tracer.call("ab", fn, i)
        _, s, e, _, _ = tracer.spans[-1]
        return e - s

    ratios = {}
    for name in both[0]:
        for calls in both:
            calls[name][0](0)  # warms up
        ratios[name] = []
        for i in range(1, PAIRS + 1):
            order = (0, 1) if i % 2 else (1, 0)
            t = {side: seconds(both[side][name][0], i) for side in order}
            ratios[name].append(t[1] / t[0])
    return ratios


def child_run(tree: Path, coeffs: Path, wav: Path, mode: str) -> dict:
    """Peak RSS and wall time of one `carmodel run --format binary`."""
    import resource

    cli, _, _, _ = _import_program(tree)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--coeffs", str(coeffs), "--wav", str(wav),
                "-o", str(Path(tmp) / "out.bin"), "--format", "binary", "--mode", mode]
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
        **timing_entries(in_child("--child", "block_48", "--tree", str(tree)), "block_48", "ms"),
        **timing_entries(in_child("--child", "tick", "--tree", str(tree)), "tick", "us"),
        **run_binary(tree),
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


def measure_ab(parent: Path, tree: Path) -> dict:
    ratios = in_child("--child", "ab", "--tree", str(tree), "--ab", str(parent))
    entries = {"pairs": PAIRS}
    for name, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        entries[name] = {"median": median, "quartiles": [q1, q3], "ratios": values}
    return entries


def run_binary(tree: Path) -> dict:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        coeffs = tmp / "coeffs.csv"
        subprocess.run([sys.executable, "-m", "carmodel.cli", "design", "--sections",
                        str(N_SECTIONS), "-o", str(coeffs)], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(tree / "src")})
        for seconds in RUN_SECONDS:
            wav = tmp / f"noise_{seconds}s.wav"
            write_wav(wav, noise_samples(random.Random(9), int(seconds * SAMPLE_RATE_HZ)))
            for mode in RUN_MODES:
                runs = [in_child("--child", "run", "--tree", str(tree), "--coeffs", str(coeffs),
                                 "--wav", str(wav), "--mode", mode) for _ in range(REPEATS)]
                entries[f"run_binary_{mode}_{seconds}s"] = {
                    key: summary([r[key] for r in runs]) for key in runs[0]
                }
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
    ap.add_argument("--ab", type=Path, metavar="PARENT",
                    help="time PARENT and TREE against each other in one process")
    ap.add_argument("--child", choices=["block_48", "tick", "run", "ab"], help=argparse.SUPPRESS)
    ap.add_argument("--coeffs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--wav", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--mode", choices=RUN_MODES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    tree = args.tree.resolve()

    if args.child in ("block_48", "tick"):
        print(json.dumps(child_times(tree, args.child)))
        return 0
    if args.child == "run":
        print(json.dumps(child_run(tree, args.coeffs, args.wav, args.mode)))
        return 0
    if args.child == "ab":
        print(json.dumps(child_ab(args.ab.resolve(), tree)))
        return 0
    if args.out is None:
        ap.error("--out is required")

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("script", "bench/run_bench.py")
    if args.ab:
        parent = args.ab.resolve()
        record["ab"] = {"parent": stamp(parent), "tree": stamp(tree),
                        **measure_ab(parent, tree)}
        record["before"] = {"stamp": stamp(parent), **run_binary(parent)}
        record["after"] = {"stamp": stamp(tree), **run_binary(tree)}
    else:
        record[args.label] = {"stamp": stamp(tree), **measure(tree)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
