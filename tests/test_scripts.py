"""The programs outside the library that drive it: a smoke test of the
README's worked example script, a check of the benchmark's imports
and a stub-runner check of the paired benchmark driver."""

import ast
import importlib
import importlib.util
import json
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



def test_bench_pairs_alternates_and_summarises(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    base, head = tmp_path / "base", tmp_path / "head"
    for side, source in ((base, "old"), (head, "new")):
        (side / "perfbench").mkdir(parents=True)
        (side / "perfbench" / "run.py").write_text("same")
        (side / "src" / "mccf").mkdir(parents=True)
        (side / "src" / "mccf" / "engine.py").write_text(source)
    declared = (ROOT / "BENCHMARK.json").read_text("utf-8")
    (head / "BENCHMARK.json").write_text(declared)
    names = [m["name"] for m in json.loads(declared)["end_to_end"]]
    calls = []

    def runner(checkout, workload, seed, seconds):
        # the n-th head run of a seed reads n / 2, the n-th base run n,
        # but the third head run ties its pair
        calls.append(checkout.name)
        n = (len(calls) + 1) // 2
        value = float(n) if checkout == base or n == 3 else n / 2
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": value} for name in names}}

    out = bench.compare(base, head, ["w"], [1], 4, 0.1, runner)
    # each pair flips which side goes first
    assert calls == ["base", "head", "head", "base"] * 2
    assert out["library_sha256"]["base"] != out["library_sha256"]["head"]
    run = out["workloads"]["w"]["1"]
    assert run["head"] == {"correct": [True] * 4, "failed": [0] * 4}
    p50 = run["metrics"]["topn_p50_ms"]
    assert p50["base"] == {"runs": [1.0, 2.0, 3.0, 4.0], "median": 2.5,
                           "q1": 1.75, "q3": 3.25}
    assert p50["head"]["runs"] == [0.5, 1.0, 3.0, 2.0]
    assert p50["pair_wins"] == {"base": 0, "head": 3}

    (head / "perfbench" / "run.py").write_text("changed")
    with pytest.raises(ValueError, match="perfbench"):
        bench.compare(base, head, ["w"], [1], 1, 0.1, runner)
