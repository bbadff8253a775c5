"""bench/run_bench.py's A/B summary: pair times to BENCH entries; the files
its analyze calls write and a run child's own peak RSS; and the library
names that perfbench/child.py reaches."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_BENCH = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"
_spec = importlib.util.spec_from_file_location("run_bench", RUN_BENCH)
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


def cache_is_current(source: Path) -> bool:
    """Whether the import system would load source's __pycache__ file as it
    stands, without compiling source again."""
    pyc = Path(importlib.util.cache_from_source(source))
    if not pyc.exists():
        return False
    head, data = pyc.read_bytes()[:16], source.read_bytes()
    if head[:4] != importlib.util.MAGIC_NUMBER:
        return False
    if int.from_bytes(head[4:8], "little"):  # hash-based
        return head[8:16] == importlib.util.source_hash(data)
    st = source.stat()
    return head[8:16] == ((int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                          + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little"))


def test_main_runs_an_aa_beside_the_ab(monkeypatch, tmp_path):
    # the A/A children time TREE against a copy of TREE's src/, in both
    # import orders, and every A/B call has an A/A entry beside it; every
    # tree a child is given has a current bytecode cache already
    parent, tree, out = tmp_path / "a", tmp_path / "b", tmp_path / "bench.json"
    for side, text in ((parent, "PARENT = 1\n"), (tree, "TREE = 1\n")):
        (side / "src" / "carmodel").mkdir(parents=True)
        (side / "src" / "carmodel" / "core.py").write_text(text)
    calls = []

    def in_child(*args):
        first, second = Path(args[args.index("--ab") + 1]), Path(args[args.index("--tree") + 1])
        copy = next((p for p in (first, second) if p not in (parent, tree)), None)
        calls.append((first, second))
        assert all(cache_is_current(side / "src" / "carmodel" / "core.py")
                   for side in (first, second))
        if copy is not None:
            assert (copy / "src" / "carmodel" / "core.py").read_text() == "TREE = 1\n"
        # TREE takes 1.1 times PARENT's time, and twice the copy's
        seconds = {parent: 0.010, tree: 0.011, copy: 0.0055}
        times = {"unit": "ms", "per": 1, "ref_s": [NOMINAL] * 3,
                 "parent": [seconds[first]] * 3, "tree": [seconds[second]] * 3}
        return {"block": times, "tick": {**times, "unit": "us"}}

    monkeypatch.setattr(run_bench, "in_child", in_child)
    monkeypatch.setattr(run_bench, "run_children", lambda parent, tree: ({}, {}))
    monkeypatch.setattr(run_bench, "stamp", lambda tree: {"revision": tree.name})
    monkeypatch.setattr(sys, "argv", ["run_bench.py", "--ab", str(parent), "--tree", str(tree),
                                      "--out", str(out)])
    assert run_bench.main() == 0
    assert calls[:2] == [(parent, tree), (tree, parent)]
    copy = calls[2][0]
    assert copy not in (parent, tree) and calls[2:] == [(copy, tree), (tree, copy)]
    record = json.loads(out.read_text())
    assert record["aa"]["pairs"] == record["ab"]["pairs"] == 2 * run_bench.PAIRS
    for name in ("block", "tick"):
        assert record["ab"][name]["median"] == pytest.approx(1.1)
        assert record["aa"][name]["median"] == pytest.approx(2.0)
        assert set(record["aa"][name]) == set(record["ab"][name])


def test_loading_leaves_hashlib_out():
    # perfbench's workloads imports hashlib (OpenSSL), which a run child's
    # peak RSS would count above a bare carmodel process's
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('run_bench', {str(RUN_BENCH)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout
    assert out.strip() == "[]"


def test_files_analyze_overwrites_the_files_of_carmodel_analyze(tmp_path):
    # csv_analyze_20ch times the formatter into os.devnull; files_analyze_20ch
    # writes `carmodel analyze`'s 41 files, over those of the call before
    from carmodel import analysis, audio_io, cli, core, design, fixed

    calls = run_bench.timed_calls(core, design, fixed, analysis, audio_io, tmp_path)
    out = tmp_path / "analyze"
    calls["csv_analyze_20ch"][0](0)
    assert list(out.iterdir()) == []
    write_files, unit, per = calls["files_analyze_20ch"]
    assert (unit, per) == ("ms", 1)
    write_files(0)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    assert set(first) == {"peaks.csv"} | {f"channel_{c:04d}_{kind}.csv"
                                          for c in cli._default_channels(64)
                                          for kind in ("freq", "impulse")}
    assert len(first) == 41
    write_files(1)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    assert {p.name: p.stat().st_ino for p in out.iterdir()} == inodes
    assert calls["tick_fixed_1224"][1:] == ("us", run_bench.PUSHES * run_bench.FIXED_PUSH)


def test_run_child_peak_rss_is_its_own(tmp_path):
    # Linux carries getrusage's ru_maxrss across exec, so a child read its
    # spawner's peak: here over 128 MB, for a child that needs about 40
    from carmodel.design import DesignParams, design_cascade, write_coeff_table

    write_coeff_table(design_cascade(DesignParams(48000.0, 8)), tmp_path / "coeffs.csv")
    held = bytearray(b"\1") * (128 << 20)
    run = run_bench.in_child("--child", "run", "--tree", str(RUN_BENCH.parents[1]),
                             "--coeffs", str(tmp_path / "coeffs.csv"), "--mode", "analyze")
    del held
    assert 0 < run["rss_before_mb"] <= run["peak_rss_mb"] < 128


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
