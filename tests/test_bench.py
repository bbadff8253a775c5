"""bench/run_bench.py's A/B summary: pair times to BENCH entries; and the
library names that perfbench/child.py reaches."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "run_bench", Path(__file__).resolve().parents[1] / "bench" / "run_bench.py")
run_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_bench)
NOMINAL = run_bench.NOMINAL_REF_S


def test_ab_entries_ratio_quartiles_and_nominal_times():
    # five pairs on a host alternating between nominal and half speed; TREE
    # takes 0.5 to 0.9 of PARENT's time, which is 10 ms at nominal speed
    ref_s = [NOMINAL, 2 * NOMINAL, NOMINAL, 2 * NOMINAL, NOMINAL]
    parent = [0.010 * r / NOMINAL for r in ref_s]
    tree = [p * q for p, q in zip(parent, (0.5, 0.6, 0.7, 0.8, 0.9))]
    times = {
        "block": {"unit": "ms", "per": 1, "ref_s": ref_s, "parent": parent, "tree": tree},
        # 200 ticks in 2 ms at half speed: 5 µs per tick at nominal speed
        "tick": {"unit": "us", "per": 200, "ref_s": [2 * NOMINAL] * 3,
                 "parent": [0.002] * 3, "tree": [0.004] * 3},
        # block_48_push times PUSHES pushes per call: 8 ms at nominal speed
        # is 1 ms per push, the unit of the real-time bar
        "push": {"unit": "ms", "per": run_bench.PUSHES, "ref_s": [NOMINAL, 2 * NOMINAL],
                 "parent": [0.008, 0.016], "tree": [0.004, 0.008]},
    }
    entries = run_bench.ab_entries(times)
    block = entries["block"]
    # TREE / PARENT: below 1 means TREE is faster
    assert block["ratios"] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])
    assert block["median"] == pytest.approx(0.7)
    assert block["quartiles"] == pytest.approx([0.55, 0.85])
    # each time is scaled by its own pair's reference time, not the median's
    assert block["parent_ms_nominal"] == pytest.approx(10.0)
    assert block["tree_ms_nominal"] == pytest.approx(7.0)
    assert block["ref_s"] == NOMINAL
    tick = entries["tick"]
    assert tick["median"] == pytest.approx(2.0)
    assert tick["parent_us_nominal"] == pytest.approx(5.0)
    assert tick["tree_us_nominal"] == pytest.approx(10.0)
    push = entries["push"]
    assert run_bench.PUSHES == push["per"] == 8
    assert push["parent_ms_nominal"] == pytest.approx(1.0)
    assert push["tree_ms_nominal"] == pytest.approx(0.5)


def test_run_children_alternate_trees(monkeypatch, tmp_path):
    # every run child of PARENT has one of TREE next to it, the first of a
    # pair switching trees from pair to pair, so host drift hits both sides;
    # compare and analyze read the bounded design's table, and analyze no WAV
    calls = []

    def in_child(*args):
        tree, mode = args[args.index("--tree") + 1], args[args.index("--mode") + 1]
        table = Path(args[args.index("--coeffs") + 1]).read_text()
        calls.append((Path(tree).name, mode, table))
        assert ("--wav" in args) == (mode != "analyze")
        return {"peak_rss_mb": float(len(calls)), "wall_s": 0.5 if tree.endswith("a") else 0.25}

    monkeypatch.setattr(run_bench, "in_child", in_child)
    monkeypatch.setattr(run_bench, "design_table",
                        lambda tree, coeffs, *flags: coeffs.write_text(" ".join(flags)))
    monkeypatch.setattr(run_bench, "RUN_SECONDS", (0.001,))
    monkeypatch.setattr(run_bench, "RUN_MODES", ("float", "fixed"))
    monkeypatch.setattr(run_bench, "REPEATS", 3)
    before, after = run_bench.run_children(tmp_path / "a", tmp_path / "b")
    bounded = " ".join(run_bench.COMPARE_DESIGN)
    assert calls == [(tree, mode, bounded if mode in ("compare", "analyze") else "")
                     for mode in ("float", "fixed", "compare", "analyze")
                     for tree in ("a", "b", "b", "a", "a", "b")]
    assert list(before) == list(after) == ["run_binary_float_0.001s", "run_binary_fixed_0.001s",
                                           "compare_0.001s", "analyze_14"]
    assert before["run_binary_float_0.001s"]["peak_rss_mb"]["repeats"] == [1.0, 4.0, 5.0]
    assert after["run_binary_fixed_0.001s"]["peak_rss_mb"]["repeats"] == [8.0, 9.0, 12.0]
    assert before["run_binary_fixed_0.001s"]["wall_s"]["median"] == 0.5
    assert after["run_binary_float_0.001s"]["wall_s"]["median"] == 0.25
    assert after["compare_0.001s"]["peak_rss_mb"]["repeats"] == [14.0, 15.0, 18.0]
    assert before["analyze_14"]["peak_rss_mb"]["repeats"] == [19.0, 22.0, 23.0]


def test_ab_children_swap_import_order(monkeypatch, tmp_path):
    # the second ab child is given the trees the other way round, so it
    # imports TREE first; its sides are swapped back before pooling
    parent, tree = tmp_path / "a", tmp_path / "b"
    calls = []

    def in_child(*args):
        calls.append(args)
        first, second = args[args.index("--ab") + 1], args[args.index("--tree") + 1]
        # TREE takes twice PARENT's time; the first import gains 10%
        seconds = {str(parent): 0.010, str(tree): 0.020}
        return {"call": {"unit": "ms", "per": 1, "ref_s": [NOMINAL] * 3,
                         "parent": [0.9 * seconds[first]] * 3, "tree": [seconds[second]] * 3}}

    monkeypatch.setattr(run_bench, "in_child", in_child)
    halves = run_bench.ab_halves(parent, tree)
    assert calls == [("--child", "ab", "--tree", str(tree), "--ab", str(parent)),
                     ("--child", "ab", "--tree", str(parent), "--ab", str(tree))]
    assert list(halves) == ["parent_first", "tree_first"]
    entry = run_bench.pooled_entries(halves)["call"]
    assert entry["ratios"] == pytest.approx([2 / 0.9] * 3 + [0.9 * 2] * 3)
    assert entry["median_parent_first"] == pytest.approx(2 / 0.9)
    assert entry["median_tree_first"] == pytest.approx(0.9 * 2)
    assert entry["parent_ms_nominal"] == pytest.approx(9.5)
    assert entry["tree_ms_nominal"] == pytest.approx(19.0)


def perfbench_library_names():
    """The (module, attribute) pairs of carmodel that perfbench/child.py
    reaches, read from its syntax tree without running it: every module.attr
    on a carmodel module it imports, and every (module, "attr") pair in
    TRACE_POINTS and in capture(...) calls, which its traced runs look up
    with getattr."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "carmodel"
               for alias in node.names}
    pairs = []  # (module node, attribute node) pairs named by value
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACE_POINTS" for t in node.targets):
            pairs += [point.elts[:2] for point in node.value.elts]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "capture":
            pairs.append(node.args[1:3])
    names = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    names |= {(module.id, attr.value) for module, attr in pairs}
    return names


def test_perfbench_library_names_resolve():
    # the traced runs wrap cli.process_block and analysis.peak_trajectory,
    # which no CLI path calls: deleting either breaks only those runs
    names = perfbench_library_names()
    assert {("cli", "process_block"), ("analysis", "peak_trajectory"),
            ("fixed", "fixed_process_block"), ("core", "process_sample")} <= names
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(importlib.import_module(f"carmodel.{module}"), attr)]
    assert missing == []
