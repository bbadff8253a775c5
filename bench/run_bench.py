"""Measurements of two trees against each other at the north-star size
(1224 sections, 48 kHz), written to a BENCH_<n>.json file.

Usage, from the repository root; PARENT and TREE are checkouts with src/
and perfbench/. To measure one tree alone, pass it as both sides:

    python3 bench/run_bench.py --ab PARENT --tree . --out BENCH_13.json
    python3 bench/run_bench.py --ab . --tree . --out alone.json

perfbench's workloads module, which imports hashlib and so OpenSSL, is
imported only where its inputs are made, so that a run child's peak RSS
counts no library that a bare `carmodel` process does not load.

A child process imports PARENT's and TREE's carmodel under two package
names and alternates their calls on the same inputs, PAIRS pairs per call,
the first call of each pair switching trees from pair to pair: one child
per tree cannot resolve a 20% change on a host whose speed drifts by 20-30%.
Each pair starts with perfbench's reference_task(). The calls, each warmed
up by one call first:

- block_48_process_block, block_48_push: 48-sample blocks through the
  1224-section design, state carried from block to block: one block through
  process_block, which drains the cascade on every call, and PUSHES
  consecutive blocks through CascadeStream.push once the stream is full. One
  push, about 1 ms, is too short to time alone at the level of the host's
  scheduling noise.
- tick_float_64x8200, tick_fixed_100x2400: each kernel on the size a
  benchmark workload runs it at. The float kernel is CascadeStream.push of
  8200 samples through analyze_mls's 64-section design once the stream is
  full, so every tick is full-width; the fixed kernel is one
  fixed_process_block call of 2400 samples through compare_fixed's
  100-section design, its 99 drain ticks included.
- tick_fixed_1224: PUSHES FixedStream.push calls of 53 samples of -12 dBFS
  noise (about +-0.25) at the default 32/24 state through the bounded
  1224-section design (BOUNDED_DESIGN, F = 0.06 and zeta = 0.2) once the
  stream holds 1223 samples, so every tick is full-width. Set-up checks that
  the input gives 0 saturations, so the kernel's one-limb form is what runs.
- wide_fixed_48x1224: one fixed_process_block call of 48 samples through
  the 1224-section design with a 64/56 state, outside the int64 envelope:
  the fixed kernel on object lanes of Python ints, state carried from call
  to call, in ms per call.
- sat_fixed_480x1224: one fixed_process_block call of 480 samples through
  the 1224-section design at the default formats, from a fresh state each
  call, in ms per call. It counts 169,319 saturations, so most of its
  register writes take the kernel's exact form.
- csv_cochleagram_240x1224, csv_analyze_20ch: the CSV writers on what
  run_float and analyze_mls write, into os.devnull so that the formatter
  alone is timed, no file system. The first is write_cochleagram of the
  240 x 1224 taps of run_float's design and signal; the second writes both
  files of each of analyze_mls's 20 default channels (MLS order 12, 4095
  samples) from a fresh copy of its ResponseResult, as one `carmodel
  analyze` does.
- files_cochleagram_240x1224, files_analyze_20ch: the same, and
  peaks.csv, into a directory of each tree's own: the cochleagram of one
  `carmodel run`, and the 41 files of one `carmodel analyze`. Every call
  but the warm-up overwrites the tree's files of the call before it, as
  each timed pass of run_float and analyze_mls does.
- read_coeff_1224: read_coeff_table of the 1224-section table, which each
  tree writes once with its own write_coeff_table, in ms per call.

One child has favoured one of two identical trees by about 10% on
block_48_push, perhaps by the order in which it imports them, so two
children run the pairs: one imports PARENT first, the other TREE first. For
each call, "ab" stores the ratios TREE / PARENT of both children's pairs
with their median and quartiles; a ratio below 1 means TREE is faster.
median_parent_first and median_tree_first are each child's own median, so
an import-order bias shows as a gap between them. "aa" stores the same
entries for TREE against a temporary copy of TREE's src/, timed the same
way in two more children: the harness's own ratios for identical code,
beside which each "ab" ratio is read. Each entry also has each
tree's median time at the nominal reference speed, parent_<unit>_nominal
and tree_<unit>_nominal, in ms per block (block_48) or call (csv_, files_,
read_) or µs per wavefront tick (tick_): each time times NOMINAL_REF_S over
its pair's reference time, as perfbench's wall_ref does. ref_s is the median
reference time.

Before the first child starts, the src/ of PARENT, of TREE and of the
A/A copy is byte-compiled, so that every child imports a current cache.

"before" (PARENT) and "after" (TREE) store run_binary_<mode>_<seconds>s:
`carmodel run --format binary --mode <mode>` for float, fixed and pipeline
(12 arrays at 1224 sections) on 0.5 s and 1 s of -12 dBFS noise; and
compare_<seconds>s: `carmodel compare` of the same noise through the bounded
1224-section design (COMPARE_DESIGN), on which no register saturates, so
its parity means something; and analyze_<order>: `carmodel analyze
--mls-order <order>` with its 20 default channels through the same bounded
table, which needs 4 warm-up periods at order 14. Each is REPEATS fresh
child processes: its peak RSS, the peak before the command, both read as
VmHWM (getrusage's ru_maxrss starts at the spawning process's peak on
Linux), and its wall time. The children of PARENT and TREE alternate, the
first of each pair switching trees from pair to pair, so that both sides'
wall times see the same drift of the host's speed. Each side is stamped
with the Python and numpy versions, nproc and its git revision. --out is
overwritten.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import importlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from reference import NOMINAL_REF_S, reference_task  # noqa: E402
from tracing import Tracer  # noqa: E402

N_SECTIONS = 1224
SAMPLE_RATE_HZ = 48000
RUN_SECONDS = (0.5, 1.0)
RUN_MODES = ("float", "fixed", "pipeline")
BOUNDED_DESIGN = {"zero_ratio": 0.06, "damping_zeta": 0.2}  # F and zeta: no saturation at -12 dBFS
COMPARE_DESIGN = ("--h-policy", f"ratio:{BOUNDED_DESIGN['zero_ratio']}",
                  "--zeta", str(BOUNDED_DESIGN["damping_zeta"]))  # `carmodel design` flags
ANALYZE_MLS_ORDER = 14  # of the analyze_ children, on COMPARE_DESIGN's table
REPEATS = 5  # run children per mode and input length
PAIRS = 31  # alternating calls of the two trees per timed call
PUSHES = 8  # 48-sample pushes per timed call of block_48_push
SIDES = ("parent", "tree")
FLOAT_TICK_SIZE = (64, 8200)  # sections, samples: analyze_mls's stream
FIXED_TICK_SIZE = (100, 2400)  # compare_fixed's fixed_process_block call
FIXED_PUSH = 53  # samples per FixedStream push of tick_fixed_1224
WIDE_STATE = (64, 56)  # total and fraction bits of a state outside the int64 envelope
SAT_SAMPLES = 480  # samples of sat_fixed_480x1224
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "repeats": values}


# ---------------------------------------------------------------------------
# child side


def timed_calls(core, design, fixed, analysis, audio_io, work: Path) -> dict:
    """The block_, tick_, csv_, files_ and read_ calls, set up on one tree's
    modules, which write their files into the directory work: name -> (a
    function of the call's index, the entry's unit, and the blocks,
    wavefront ticks or calls per call that a time in that unit is per)."""
    import numpy as np
    from workloads import BLOCK_SAMPLES, WORKLOADS, noise_samples

    des = design.design_cascade(design.DesignParams(float(SAMPLE_RATE_HZ), N_SECTIONS))
    x = np.array(noise_samples(random.Random(8), 64 * BLOCK_SAMPLES)) / 32768.0
    blocks = [x[i : i + BLOCK_SAMPLES] for i in range(0, x.size, BLOCK_SAMPLES)]
    state = core.CascadeState(N_SECTIONS)
    stream = core.CascadeStream(des, core.CascadeState(N_SECTIONS))
    for block in blocks[: -(-N_SECTIONS // BLOCK_SAMPLES) + 1]:  # fill the cascade
        stream.push(block)

    def push(i):
        for j in range(i * PUSHES, (i + 1) * PUSHES):
            stream.push(blocks[j % 64])

    calls = {
        "block_48_process_block": (lambda i: core.process_block(des, state, blocks[i % 64]),
                                   "ms", 1),
        "block_48_push": (push, "ms", PUSHES),
    }

    n, samples = FLOAT_TICK_SIZE
    des64 = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), **WORKLOADS["analyze_mls"]["design"]))
    x64 = np.array(noise_samples(random.Random(10), samples)) / 32768.0
    stream64 = core.CascadeStream(des64, core.CascadeState(n))
    stream64.push(x64[: n - 1])  # fill the cascade: every later tick is full-width
    calls[f"tick_float_{n}x{samples}"] = (lambda i: stream64.push(x64), "us", samples)

    n, samples = FIXED_TICK_SIZE
    des100 = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), **WORKLOADS["compare_fixed"]["design"]))
    qd = fixed.quantize_design(des100)
    raw = fixed.quantize_block(np.array(noise_samples(random.Random(11), samples)) / 32768.0,
                               qd.io_format)
    fstate = fixed.FixedCascadeState(n)
    calls[f"tick_fixed_{n}x{samples}"] = (
        lambda i: fixed.fixed_process_block(qd, fstate, raw), "us", samples + n - 1)

    bounded = design.design_cascade(
        design.DesignParams(float(SAMPLE_RATE_HZ), N_SECTIONS, **BOUNDED_DESIGN))
    qd_bounded = fixed.quantize_design(bounded)
    raw = fixed.quantize_block(
        np.array(noise_samples(random.Random(12), N_SECTIONS - 1 + 64 * FIXED_PUSH)) / 32768.0,
        qd_bounded.io_format)
    _, stats = fixed.fixed_process_block(qd_bounded, fixed.FixedCascadeState(N_SECTIONS), raw)
    if stats.total:
        raise SystemExit(f"tick_fixed_{N_SECTIONS}: {stats.total} saturations, expected 0")
    fixed_stream = fixed.FixedStream(qd_bounded, fixed.FixedCascadeState(N_SECTIONS))
    fixed_stream.push(raw[: N_SECTIONS - 1])  # fill the cascade: every later tick is full-width
    pushes = raw[N_SECTIONS - 1 :].reshape(64, FIXED_PUSH)

    def push_fixed(i):
        for j in range(i * PUSHES, (i + 1) * PUSHES):
            fixed_stream.push(pushes[j % 64])

    calls[f"tick_fixed_{N_SECTIONS}"] = (push_fixed, "us", PUSHES * FIXED_PUSH)

    qd_wide = fixed.quantize_design(des, state_format=fixed.FixedFormat(*WIDE_STATE))
    raw48 = fixed.quantize_block(blocks[0], qd_wide.io_format)
    wstate = fixed.FixedCascadeState(N_SECTIONS)
    calls[f"wide_fixed_{BLOCK_SAMPLES}x{N_SECTIONS}"] = (
        lambda i: fixed.fixed_process_block(qd_wide, wstate, raw48), "ms", 1)

    qd_sat = fixed.quantize_design(des)
    raw_sat = fixed.quantize_block(
        np.array(noise_samples(random.Random(11), SAT_SAMPLES)) / 32768.0, qd_sat.io_format)
    calls[f"sat_fixed_{SAT_SAMPLES}x{N_SECTIONS}"] = (
        lambda i: fixed.fixed_process_block(qd_sat, fixed.FixedCascadeState(N_SECTIONS), raw_sat),
        "ms", 1)

    samples = WORKLOADS["run_float"]["wav_samples"]
    taps = core.process_block(des, core.CascadeState(N_SECTIONS), x[:samples])
    calls[f"csv_cochleagram_{samples}x{N_SECTIONS}"] = (
        lambda i: audio_io.write_cochleagram(taps, os.devnull), "ms", 1)
    calls[f"files_cochleagram_{samples}x{N_SECTIONS}"] = (
        lambda i: audio_io.write_cochleagram(taps, work / "cochleagram.csv"), "ms", 1)

    # cli._default_channels of 64 sections: 20 evenly spaced ones
    channels = sorted({int(round(p)) for p in np.linspace(0, 63, 20)})
    mls = analysis.MlsConfig(order=WORKLOADS["analyze_mls"]["mls_order"])
    ir = analysis.impulse_response(
        lambda stim: core.process_block(des64, core.CascadeState(64), stim)[:, channels],
        mls.period, method="mls", mls_config=mls,
        warmup_periods=analysis.mls_warmup_periods(des64, mls.period))
    response = analysis.frequency_response_measured(ir, SAMPLE_RATE_HZ)

    def write_analyze(i):
        result = dataclasses.replace(response)
        analysis.write_response_csv(result, [os.devnull] * len(channels))
        analysis.write_impulse_csv(result, [os.devnull] * len(channels))

    calls[f"csv_analyze_{len(channels)}ch"] = (write_analyze, "ms", 1)

    out = work / "analyze"
    out.mkdir()
    files = {kind: [out / f"channel_{c:04d}_{kind}.csv" for c in channels]
             for kind in ("freq", "impulse")}

    def write_files(i):
        result = dataclasses.replace(response)
        analysis.write_response_csv(result, files["freq"])
        analysis.write_impulse_csv(result, files["impulse"])
        analysis.write_peaks_csv(result, channels, out / "peaks.csv")

    calls[f"files_analyze_{len(channels)}ch"] = (write_files, "ms", 1)

    table = work / "coeffs.csv"
    design.write_coeff_table(des, table)
    calls[f"read_coeff_{N_SECTIONS}"] = (lambda i: design.read_coeff_table(table), "ms", 1)
    return calls


def _import_as(tree: Path, name: str):
    """TREE's carmodel package, imported as the package name."""
    pkg = tree / "src" / "carmodel"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [importlib.import_module(f"{name}.{m}")
            for m in ("core", "design", "fixed", "analysis", "audio_io")]


def child_ab(parent: Path, tree: Path) -> dict:
    """Seconds of each timed call on PARENT and TREE, PAIRS alternating
    pairs, with the reference time taken before each pair and the call's
    unit and count, as timed_calls gives them. PARENT is imported first."""
    with tempfile.TemporaryDirectory() as tmp:
        both = {}
        for side, path in zip(SIDES, (parent, tree)):
            work = Path(tmp) / side
            work.mkdir()
            both[side] = timed_calls(*_import_as(path, f"carmodel_{side}"), work)
        tracer = Tracer()
        times = {}
        for name, (_, unit, per) in both["parent"].items():
            for calls in both.values():
                calls[name][0](0)  # warms up
            entry = times[name] = {"unit": unit, "per": per, "ref_s": [], "parent": [], "tree": []}
            for i in range(1, PAIRS + 1):
                entry["ref_s"].append(reference_task())
                for side in SIDES if i % 2 else SIDES[::-1]:
                    tracer.call("ab", both[side][name][0], i)
                    _, s, e, _, _ = tracer.spans[-1]
                    entry[side].append(e - s)
    return times


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB, VmHWM: it belongs to the
    process's own address space, where getrusage's ru_maxrss carries the
    spawning process's peak across exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc/self/status")


def child_run(tree: Path, coeffs: Path, wav: Path | None, mode: str) -> dict:
    """Peak RSS and wall time of one `carmodel run --format binary --mode
    <mode>`, of one `carmodel compare` with its parity CSV where mode is
    "compare", or of one `carmodel analyze --mls-order ANALYZE_MLS_ORDER`
    where it is "analyze"."""
    sys.path.insert(0, str(tree / "src"))
    from carmodel import cli

    before = peak_rss_mb()
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        if mode == "analyze":
            argv = ["analyze", "--coeffs", str(coeffs), "--mls-order", str(ANALYZE_MLS_ORDER),
                    "--out-dir", out]
        elif mode == "compare":
            argv = ["compare", "--coeffs", str(coeffs), "--wav", str(wav), "-o", out]
        else:
            argv = ["run", "--coeffs", str(coeffs), "--wav", str(wav), "-o", out,
                    "--format", "binary", "--mode", mode]
        tracer = Tracer()
        with open(os.devnull, "w") as devnull:
            saved, sys.stdout = sys.stdout, devnull
            try:
                rc = tracer.call("run", cli.cli_main, argv)
            finally:
                sys.stdout = saved
    if rc != 0:
        raise SystemExit(f"carmodel {argv[0]} exited with {rc}")
    _, s, e, _, _ = tracer.spans[0]
    return {"rss_before_mb": before,
            "peak_rss_mb": peak_rss_mb(),
            "wall_s": e - s}


# ---------------------------------------------------------------------------
# parent side


def in_child(*args: str) -> dict:
    out = subprocess.run([sys.executable, __file__, *args], check=True, capture_output=True,
                         text=True, env={**os.environ, **THREAD_ENV}).stdout
    return json.loads(out.splitlines()[-1])


def ab_halves(parent: Path, tree: Path) -> dict:
    """child_ab's times from two children, by which tree each imports first:
    "parent_first", and "tree_first", whose child is given the trees the
    other way round and whose sides are swapped back here."""
    parent_first = in_child("--child", "ab", "--tree", str(tree), "--ab", str(parent))
    tree_first = in_child("--child", "ab", "--tree", str(parent), "--ab", str(tree))
    for t in tree_first.values():
        t["parent"], t["tree"] = t["tree"], t["parent"]
    return {"parent_first": parent_first, "tree_first": tree_first}


def pooled_entries(halves: dict) -> dict:
    """ab_entries of both halves' pairs together, each entry with the
    median ratio of each half as median_<half>."""
    first, second = halves.values()
    pooled = {name: {**t, **{key: t[key] + second[name][key] for key in ("ref_s", *SIDES)}}
              for name, t in first.items()}
    entries = ab_entries(pooled)
    for half, times in halves.items():
        for name, entry in ab_entries(times).items():
            entries[name][f"median_{half}"] = entry["median"]
    return entries


def ab_entries(times: dict) -> dict:
    """child_ab's times as entries: per call, the per-pair ratios TREE /
    PARENT with their median and quartiles, and each side's median time at
    the nominal reference speed, in its unit per block or tick."""
    entries = {}
    for name, t in times.items():
        ratios = [b / a for a, b in zip(t["parent"], t["tree"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        unit = t["unit"]
        scale = {"ms": 1e3, "us": 1e6}[unit] / t["per"]
        nominal = [scale * NOMINAL_REF_S / ref for ref in t["ref_s"]]
        entries[name] = {"median": median, "quartiles": [q1, q3], "ratios": ratios,
                         "ref_s": statistics.median(t["ref_s"]), "per": t["per"]}
        for side in SIDES:
            entries[name][f"{side}_{unit}_nominal"] = statistics.median(
                [s * k for s, k in zip(t[side], nominal)])
    return entries


def design_table(tree: Path, coeffs: Path, *flags: str) -> None:
    """TREE's `carmodel design` table of the 1224-section design, with the
    given design flags."""
    subprocess.run([sys.executable, "-m", "carmodel.cli", "design", "--sections",
                    str(N_SECTIONS), *flags, "-o", str(coeffs)], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})


def run_children(parent: Path, tree: Path) -> tuple[dict, dict]:
    """The run_binary_, compare_ and analyze_ entries of PARENT and of TREE,
    their children alternating pair by pair."""
    from workloads import noise_samples, write_wav

    trees = dict(zip(SIDES, (parent, tree)))
    runs = {side: {} for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tables = {}  # side -> mode -> its coefficient table
        for side in SIDES:
            default, bounded = tmp / f"coeffs_{side}.csv", tmp / f"bounded_{side}.csv"
            design_table(trees[side], default)
            design_table(trees[side], bounded, *COMPARE_DESIGN)
            tables[side] = {**dict.fromkeys(RUN_MODES, default), "compare": bounded,
                            "analyze": bounded}
        jobs = []  # (entry name, mode, the wav flags)
        for seconds in RUN_SECONDS:
            wav = tmp / f"noise_{seconds}s.wav"
            write_wav(wav, noise_samples(random.Random(9), int(seconds * SAMPLE_RATE_HZ)))
            jobs += [(f"compare_{seconds}s" if mode == "compare" else
                      f"run_binary_{mode}_{seconds}s", mode, ("--wav", str(wav)))
                     for mode in (*RUN_MODES, "compare")]
        jobs.append((f"analyze_{ANALYZE_MLS_ORDER}", "analyze", ()))
        for name, mode, wav_flags in jobs:
            for i in range(REPEATS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].setdefault(name, []).append(in_child(
                        "--child", "run", "--tree", str(trees[side]), "--coeffs",
                        str(tables[side][mode]), *wav_flags, "--mode", mode))
    return tuple({name: {key: summary([r[key] for r in rs]) for key in rs[0]}
                  for name, rs in runs[side].items()} for side in SIDES)


def compile_trees(*trees: Path) -> None:
    """Byte-compile each tree's src/, so that no child compiles the package
    as it imports it, as every child does where PYTHONDONTWRITEBYTECODE is
    set and no cache is there yet. A side whose cache is stale read about
    1.7 MB more peak RSS."""
    for tree in trees:
        if not compileall.compile_dir(tree / "src", quiet=1):
            raise SystemExit(f"cannot byte-compile {tree / 'src'}")


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
    ap.add_argument("--ab", type=Path, metavar="PARENT", help="the tree TREE is timed against")
    ap.add_argument("--tree", type=Path, default=HERE.parent)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", choices=["run", "ab"], help=argparse.SUPPRESS)
    ap.add_argument("--coeffs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--wav", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--mode", choices=(*RUN_MODES, "compare", "analyze"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    tree = args.tree.resolve()

    if args.child == "run":
        print(json.dumps(child_run(tree, args.coeffs, args.wav, args.mode)))
        return 0
    if args.ab is None or (args.child is None and args.out is None):
        ap.error("--ab and --out are required")
    parent = args.ab.resolve()
    if args.child == "ab":
        print(json.dumps(child_ab(parent, tree)))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(tree / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        compile_trees(parent, tree, copy)
        entries = pooled_entries(ab_halves(parent, tree))
        aa = pooled_entries(ab_halves(copy, tree))
    stamps = {"parent": stamp(parent), "tree": stamp(tree)}
    before, after = run_children(parent, tree)
    record = {
        "script": "bench/run_bench.py",
        "ab": {**stamps, "pairs": 2 * PAIRS, **entries},
        "aa": {"pairs": 2 * PAIRS, **aa},
        "before": {"stamp": stamps["parent"], **before},
        "after": {"stamp": stamps["tree"], **after},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
