"""Compare two sets of benchmark results, workload by workload.

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes under --results (one JSON
file per run). Only untraced runs are compared. For every workload and
end-to-end metric in BENCHMARK.json the table gives each side's median and
quartiles and the change of the median as a share of the base median, and
flags a change worse than the metric's bound. The comparison is refused
when the two sets ran on different kernel backends, or either set mixes
backends.

Exit status: 0 when nothing regressed beyond its bound, 1 when something
did, 2 when the sets cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and record.get("metrics"):
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def backends(sets: dict[str, list[dict]]) -> set[str]:
    return {r.get("backend") for records in sets.values() for r in records}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    base_backends, new_backends = backends(base), backends(new)
    if len(base_backends) != 1 or base_backends != new_backends:
        print(f"error: refusing to compare kernel backends {sorted(map(str, base_backends))} "
              f"with {sorted(map(str, new_backends))}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':14} {'metric':12} {'base q1/med/q3':>28} {'new q1/med/q3':>28} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = quartiles([r["metrics"][name]["value"] for r in base[workload]])
            n = quartiles([r["metrics"][name]["value"] for r in new[workload]])
            change = (n[1] - b[1]) / b[1]
            worse = change if metric["better"] == "lower" else -change
            spread = (b[2] - b[0]) / b[1]
            if worse > bound:
                verdict = "WORSE"
                regressed = True
            elif spread > bound:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:14} {name:12} {'/'.join(f'{v:.4g}' for v in b):>28} "
                  f"{'/'.join(f'{v:.4g}' for v in n):>28} {change:+8.1%} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
