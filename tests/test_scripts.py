"""The programs outside the library that drive it: a smoke test of the
README's worked example script, checks of the benchmark's imports and
of the package's public surface, and stub-runner checks, a toy-shape
traced pass and an extraction check of scripts/bench_pairs.py."""

import ast
import importlib
import importlib.util
import inspect
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "synthetic_mc_experiment.py"


def test_synthetic_mc_experiment_runs(capsys):
    spec = importlib.util.spec_from_file_location("synthetic_mc_experiment",
                                                  SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["noise", "space", "baseline", "mae", "rmse",
                              "improvement"]
    assert [tuple(row.split()[:2]) for row in rows] == [
        (f"{noise:.2f}", space) for noise in script.NOISE_LEVELS
        for space in ("latent", "reconstructed")]


def test_benchmark_imports_exist():
    # read, not imported: a library change that drops a name the benchmark
    # imports fails here rather than in the benchmark run
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text("utf-8"))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module is not None
             and (node.module == "mccf" or node.module.startswith("mccf."))
             for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_star_import_binds_the_import_block():
    # the package's __all__ is derived from its import block: a star import
    # binds exactly the names its own modules' imports list, none of them
    # a module or private
    tree = ast.parse((ROOT / "src" / "mccf" / "__init__.py").read_text("utf-8"))
    listed = {alias.asname or alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names}
    namespace = {}
    exec("from mccf import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == listed
    for name, value in namespace.items():
        assert not name.startswith("_") and not inspect.ismodule(value), name


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _toy_checkout(top, source):
    """A checkout of the repository's BENCHMARK.json, a one-line perfbench
    and a one-module library of the text source."""
    (top / "perfbench").mkdir(parents=True)
    (top / "perfbench" / "run.py").write_text("same")
    (top / "src" / "mccf").mkdir(parents=True)
    (top / "src" / "mccf" / "engine.py").write_text(source)
    (top / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text("utf-8"))


METRIC_NAMES = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]]
STAGES = ("fit", "evaluate", "recommend")


def _flat_peaks(checkout, workload, seed):
    """A stub traced pass: 1 MiB at every stage."""
    return dict.fromkeys(STAGES, 1.0)


def test_bench_pairs_alternates_and_summarises(tmp_path):
    bench = _bench_pairs()
    base, head = tmp_path / "base", tmp_path / "head"
    _toy_checkout(base, "old\n")
    _toy_checkout(head, "new\nlines\n")
    # the n-th base and head run of a seed, each metric lower-is-better;
    # the others read 7 in every run
    shapes = {
        # head wins 3 pairs of 4, one tied; base IQR 1.5, wider than the bound
        "topn_p50_ms": (lambda n: n, lambda n: n if n == 3 else n / 2),
        # head wins every pair by far more than base's IQR of 0.15
        "eval_s": (lambda n: 10 + n / 10, lambda n: 5.0),
        # head's median nearly twice base's
        "fit_s": (lambda n: 10 + n / 10, lambda n: 20.0),
        # a tie keeps head to 3 wins of 4: below nine tenths, no gain
        "topn_p95_ms": (lambda n: 10 + n / 10,
                        lambda n: 10.3 if n == 3 else 5.0),
        # base's IQR of 4 is wider than the bound and than head's lead,
        # but every head run beats every base run
        "setup_s": (lambda n: 1.0 if n < 3 else 5.0, lambda n: 0.9),
    }
    calls = []

    def runner(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        n = (len(calls) + 1) // 2
        side = checkout != base
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": float(
                    shapes[name][side](n) if name in shapes else 7)}
                    for name in METRIC_NAMES}}

    out = bench.compare(base, head, ["w"], [1], 4, 0.1, runner, _flat_peaks)
    # each pair flips which side goes first
    assert calls == ["base", "head", "head", "base"] * 2
    assert out["library_sha256"]["base"] != out["library_sha256"]["head"]
    assert out["library_lines"] == {"base": 1, "head": 2}
    run = out["workloads"]["w"]["1"]
    assert run["head"] == {"correct": [True] * 4, "failed": [0] * 4}
    assert run["checks_passed"] == {"base": True, "head": True}
    p50 = run["metrics"]["topn_p50_ms"]
    assert p50["base"] == {"runs": [1.0, 2.0, 3.0, 4.0], "median": 2.5,
                           "q1": 1.75, "q3": 3.25}
    assert p50["head"]["runs"] == [0.5, 1.0, 3.0, 2.0]
    assert p50["pair_wins"] == {"base": 0, "head": 3}
    assert run["metrics"]["topn_p95_ms"]["pair_wins"] == {"base": 0, "head": 3}
    assert {name: m["verdict"] for name, m in run["metrics"].items()} == {
        "topn_p50_ms": "unresolved", "eval_s": "gain", "fit_s": "worse",
        "topn_p95_ms": "no change", "setup_s": "no change",
        "peak_rss_mb": "no change", "mae": "no change"}

    (head / "perfbench" / "run.py").write_text("changed")
    with pytest.raises(ValueError, match="perfbench"):
        bench.compare(base, head, ["w"], [1], 1, 0.1, runner, _flat_peaks)


def test_bench_pairs_exits_1_when_a_run_fails_its_checks(tmp_path, monkeypatch):
    # a stub runner in toy checkouts: the verdicts of a side whose run is
    # not correct, or failed an operation, are written and flagged, and
    # main exits 1; with every run passing it exits 0
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "extract", lambda rev, dest: _toy_checkout(
        dest, f"{dest.name}\n"))
    monkeypatch.setattr(bench, "_git", lambda *args: "" if args[0] == "stash"
                        else "c0ffee")
    compare, bad = bench.compare, {}

    def runner(checkout, workload, seed, seconds):
        flaw = bad.get((checkout.name, seed), {})
        return {"correct": flaw.get("correct", True),
                "failed": flaw.get("failed", 0),
                "metrics": {name: {"value": 1.0} for name in METRIC_NAMES}}

    monkeypatch.setattr(bench, "compare", lambda *args: compare(
        *args, runner=runner, tracer=_flat_peaks))
    out = tmp_path / "out.json"
    argv = ["--base", "HEAD", "--workloads", "w", "--seeds", "1,3",
            "--pairs", "2", "--seconds", "0.1", "--out", str(out)]
    for flaws, status, passed in (
            ({}, 0, {"base": True, "head": True}),
            ({("head", 3): {"failed": 1}}, 1, {"base": True, "head": False}),
            ({("base", 3): {"correct": False}}, 1,
             {"base": False, "head": True})):
        bad.clear()
        bad.update(flaws)
        assert bench.main(argv) == status
        runs = json.loads(out.read_text())["workloads"]["w"]
        assert runs["1"]["checks_passed"] == {"base": True, "head": True}
        assert runs["3"]["checks_passed"] == passed


def test_bench_pairs_records_the_head_it_measured(tmp_path, monkeypatch):
    # the stub's `git stash create` makes a commit on a dirty tree and none
    # on a clean one; head names the commit extracted, and git is asked
    # nothing after the first run, so a tree edited during the runs does
    # not change the record
    bench = _bench_pairs()
    extracted, calls = [], []
    monkeypatch.setattr(bench, "extract", lambda rev, dest: (
        extracted.append(rev), _toy_checkout(dest, f"{dest.name}\n")))
    compare = bench.compare

    def runner(checkout, workload, seed, seconds):
        calls.append("run")
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in METRIC_NAMES}}

    monkeypatch.setattr(bench, "compare", lambda *args: compare(
        *args, runner=runner, tracer=_flat_peaks))
    out = tmp_path / "out.json"
    argv = ["--base", "HEAD", "--workloads", "w", "--pairs", "1",
            "--seconds", "0.1", "--out", str(out)]
    for stash, head in (("5ta5h", {"commit": "5ta5h", "dirty": True}),
                        ("", {"commit": "c0ffee", "dirty": False})):
        extracted.clear()
        calls.clear()
        monkeypatch.setattr(bench, "_git", lambda *args, stash=stash: (
            calls.append(args[0]), stash if args[0] == "stash" else "c0ffee")[1])
        assert bench.main(argv) == 0
        assert json.loads(out.read_text())["head"] == head
        assert extracted == ["c0ffee", head["commit"]]
        assert set(calls[calls.index("run"):]) == {"run"}


def test_bench_pairs_traces_both_sides_at_a_toy_shape(tmp_path):
    # the real traced pass, in checkouts of the repository's perfbench and
    # library with a toy-shape workload added; the head's library keeps one
    # extra MiB alive per store build, so its fit and evaluate peaks rise
    bench = _bench_pairs()
    skip = shutil.ignore_patterns("__pycache__")
    for side in ("base", "head"):
        for top in ("perfbench", "src"):
            shutil.copytree(ROOT / top, tmp_path / side / top, ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
        with open(tmp_path / side / "perfbench" / "workloads.py", "a") as fh:
            fh.write('\nWORKLOADS["toy"] = Workload("toy", gen.PlainShape('
                     'users=40, items=30, draws=700), max_neighbors=5)\n')
    with open(tmp_path / "head" / "src" / "mccf" / "similarity.py", "a") as fh:
        fh.write("\n_KEPT, _build = [], item_similarity_matrix\n\n\n"
                 "def item_similarity_matrix(*args, **kwargs):\n"
                 "    _KEPT.append(np.ones(2 ** 17))\n"
                 "    return _build(*args, **kwargs)\n")

    def runner(checkout, workload, seed, seconds):
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in METRIC_NAMES}}

    out = bench.compare(tmp_path / "base", tmp_path / "head", ["toy"], [1], 1,
                        0.1, runner)
    run = out["workloads"]["toy"]["1"]
    peaks = run["traced_peak_mib"]
    for side in ("base", "head"):
        assert set(peaks[side]) == set(STAGES)
        assert all(peak > 0 for peak in peaks[side].values())
    assert set(run["traced_agree"]) == set(STAGES)
    for stage in ("fit", "evaluate"):
        assert run["traced_agree"][stage] is False
        assert peaks["base"][stage] < 1 <= peaks["head"][stage]
    assert abs(peaks["head"]["recommend"] - peaks["base"]["recommend"]) < 0.01
    # the timed runs' verdicts stand beside the traced peaks, unchanged
    assert run["metrics"]["peak_rss_mb"]["verdict"] == "no change"


def test_bench_pairs_extracts_the_tracked_files(tmp_path):
    bench = _bench_pairs()
    try:
        tracked = subprocess.run(
            ["git", "-C", str(ROOT), "ls-tree", "-r", "--name-only", "HEAD",
             "src", "perfbench"], check=True, capture_output=True,
            text=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git or the repository's history is absent")
    bench.extract("HEAD", tmp_path)
    got = sorted(p.relative_to(tmp_path).as_posix()
                 for top in ("src", "perfbench")
                 for p in (tmp_path / top).rglob("*") if p.is_file())
    # the tracked files only: no __pycache__ or other untracked file
    assert got == sorted(tracked)
