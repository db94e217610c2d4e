"""The programs outside the library that drive it: a smoke test of the
README's worked example script, and a check of the benchmark's imports."""

import ast
import importlib
import importlib.util
from pathlib import Path

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
