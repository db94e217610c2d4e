"""Smoke test of the README's worked example script."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_mc_experiment.py"


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
