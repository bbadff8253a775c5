"""Benchmark for carmodel: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_float --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run writes its inputs from --seed, starts fresh child processes
(perfbench/child.py) one at a time with one math-library thread, and prints
a readable report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The full record of every run (stamps, input hashes, checks, pass times,
spans) is kept under --results for perfbench/compare.py.

--trace 0: SETUP_REPEATS children measure set-up (start to READY); the
middle one also runs the timed passes. Both times are divided by a reference
task (reference.py) timed next to them, which cancels the host's speed
drift: wall_ref is the median pass time in reference-task units, and setup_s
the median set-up time at the reference speed NOMINAL_REF_S. --trace 1: one untraced and one traced child
each measure for half of --seconds; the difference of their wall_ref,
converted to seconds, is trace.overhead_s.

Exit status: 0 when every check passed, 1 when a check or pass failed, 2
when the program is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_REF_S, reference_task  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(work: Path, seconds: float, trace: int, setup_only: bool) -> tuple[dict, dict | None]:
    """Run one child; returns ({"setup_s", "ref_s"}, result or None).

    setup_s runs from starting the child to its READY line. ref_s is the
    reference task, run in this process just before the child starts.
    """
    setup = {"ref_s": reference_task()}
    cmd = [sys.executable, str(HERE / "child.py"), "--work", str(work),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup["setup_s"] = time.perf_counter() - start
        if line.strip() != b"READY":
            raise ChildFailed(f"child did not reach READY (got {line!r})")
        proc.stdout.read()
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if rc != 0:
            raise ChildFailed(f"child exited with {rc}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if setup_only:
        return setup, None
    return setup, json.loads((work / "result.json").read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 results_dir: Path) -> dict:
    work = ROOT / ".perfbench" / "work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "nproc": os.cpu_count(), "cpu": cpu_model()}
    info = {}
    try:
        record["inputs"] = make_inputs(name, seed, work)
        if trace == 0:
            # Set-up-only children run before and after the measuring child,
            # so the median samples the machine across the whole run.
            setups = [spawn(work, seconds, 0, True)[0] for _ in range(SETUP_REPEATS // 2)]
            setup, res = spawn(work, seconds, 0, False)
            setups.append(setup)
            setups += [spawn(work, seconds, 0, True)[0] for _ in range(SETUP_REPEATS // 2)]
            ratio = statistics.median(s["setup_s"] / s["ref_s"] for s in setups)
            metrics = {"setup_s": ratio * NOMINAL_REF_S,
                       "wall_ref": res["wall_ref"], "peak_rss_mb": res["peak_rss_mb"]}
            record["setups"] = setups
            info["setup_measured_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        else:
            _, base = spawn(work, seconds / 2, 0, False)
            _, res = spawn(work, seconds / 2, 1, False)
            metrics = dict(res["layers"])
            metrics["trace.overhead_s"] = (res["wall_ref"] - base["wall_ref"]) * res["ref_s"]
            res["checks"] += [{**c, "name": "untraced." + c["name"]} for c in base["checks"]]
            res["ops"] += base["ops"]
            res["failed_ops"] += base["failed_ops"]
            record["spans"] = json.loads((work / "spans.json").read_text())
    except (ChildFailed, OSError, KeyError, ValueError) as exc:
        print(f"[{name}] run failed: {exc}", file=sys.stderr)
        record.update(correct=False, attempted=1, failed=1, metrics={})
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["inputs"].update(res["inputs"])
    failed_checks = sum(not c["ok"] for c in res["checks"])
    for key in ("backend", "python", "numpy", "checks", "pass_s", "taps_sha256"):
        if key in res:
            record[key] = res[key]
    info.update(wall_s=(res["wall_s"], "s"), ref_task_s=(res["ref_s"], "s"),
                passes=(len(res["pass_s"]), "count"))
    info.update({k: (v, "dB") for k, v in res["accuracy"].items()})
    if "block_s" in res and trace == 0:
        blocks_ms = [s * 1e3 for s in res["block_s"]]
        record["block_s"] = res["block_s"]
        info.update(block_latency_p50_ms=(percentile(blocks_ms, 50), "ms"),
                    block_latency_p90_ms=(percentile(blocks_ms, 90), "ms"),
                    blocks=(len(blocks_ms), "count"))
    record["info"] = {k: {"value": v, "unit": u} for k, (v, u) in info.items()}

    units = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"BENCHMARK.json names metrics the run does not produce: {sorted(missing)}")
    record.update(
        correct=failed_checks == 0 and res["failed_ops"] == 0,
        attempted=res["ops"] + len(res["checks"]),
        failed=res["failed_ops"] + failed_checks,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    name = record["workload"]
    print(f"[{name}] seed {record['seed']}, backend {record.get('backend')}, "
          f"python {record.get('python')}, numpy {record.get('numpy')}, "
          f"nproc {record['nproc']}, cpu {record['cpu']}")
    for file, digest in record.get("inputs", {}).items():
        print(f"[{name}] input {file} sha256 {digest}")
    for check in record.get("checks", []):
        print(f"[{name}] check {check['name']}: {'ok' if check['ok'] else 'FAILED'} {check['detail']}")
    for key, m in {**record["metrics"], **record.get("info", {})}.items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    print(f"[{name}] {record['failed']} of {record['attempted']} operations failed")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=ROOT / ".perfbench" / "results")
    args = ap.parse_args()

    if not (ROOT / "src" / "carmodel" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'carmodel'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, args.trace, spec, args.results)
        report(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
