"""Self-tests of the benchmark: generator determinism, the metric
catalogue, and the correctness checks.  No test gates on wall time.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import workloads as wl  # noqa: E402

TINY_PLAIN = gen.PlainShape(users=40, items=30, draws=700)
TINY_MC = gen.McShape(users=30, items=20, criteria=3, draws=450)
TINY = {
    "plain-knn": wl.Workload("plain-knn", TINY_PLAIN, max_neighbors=5),
    "plain-full": wl.Workload("plain-full", TINY_PLAIN, max_neighbors=None),
    "mc-knn": wl.Workload("mc-knn", TINY_MC, max_neighbors=4,
                          ranks=(3, 3, 2)),
}


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("write", [gen.write_plain, gen.write_mc])
def test_generator_is_deterministic_in_the_seed(tmp_path, write):
    shape = TINY_PLAIN if write is gen.write_plain else TINY_MC
    a, b, c = (tmp_path / n for n in "abc")
    write(a, shape, 7)
    write(b, shape, 7)
    write(c, shape, 8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generated_shape_and_signal():
    u, i, rating, ts = gen.plain_ratings(gen.ML100K, 1)
    stats = gen.shape_stats(u, i)
    assert stats["draws"] == 100_000
    assert stats["distinct_cells"] + stats["duplicates"] == stats["draws"]
    assert stats["users"] <= 943 and stats["items"] <= 1682
    assert rating.min() >= 1 and rating.max() <= 5
    assert np.all(np.diff(ts) >= 0)
    # planted signal: ratings are far from uniform over 1..5
    counts = np.bincount(rating, minlength=6)[1:]
    assert counts.max() > 2 * counts.min()
    _, _, values = gen.mc_ratings(gen.MC, 1)
    assert values.shape == (gen.MC.draws, gen.MC.criteria + 1)
    assert values.min() >= 1 and values.max() <= 5


def test_records_stay_in_draw_order(tmp_path):
    """Draw order is kept: records are not grouped by user."""
    path = tmp_path / "u.data"
    gen.write_plain(path, TINY_PLAIN, 3)
    users = [line.split("\t")[0] for line in path.read_text().splitlines()]
    changes = sum(a != b for a, b in zip(users, users[1:]))
    assert changes > len(set(users)) - 1


def test_metric_catalogue_matches_benchmark_json():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == wl.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == wl.PER_LAYER_UNITS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_passes_its_checks(tmp_path, name):
    w = TINY[name]
    ledger = wl.Ledger()
    metrics = wl.timed_run(w, 5, 0.01, tmp_path, ledger, tmp_path)
    result = ledger.result(metrics, wl.END_TO_END_UNITS)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == set(wl.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert ledger.failed == 0
    # rejected loads of the model file are tallied apart, never as failures
    assert sum(ledger.known_defects.values()) <= (1 if w.is_mc else 0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_replay_reproduces_the_evaluation(tmp_path, name):
    w = TINY[name]
    ledger = wl.Ledger()
    metrics = wl.traced_run(w, 5, tmp_path, ledger, tmp_path,
                             tmp_path / "t.json", {})
    assert ledger.correct
    assert set(metrics) == set(wl.PER_LAYER_UNITS)
    spans = json.loads((tmp_path / "t.json").read_text())["spans"]
    call = next(s for s in spans if s["name"] == wl.CALL)
    steps = [s for s in spans if s["step"]]
    assert all(s["parent"] == wl.CALL for s in steps)
    # the steps and the evaluation's self time account for the whole call
    assert metrics["evaluation.self_s"] + sum(
        s["end"] - s["start"] for s in steps) == pytest.approx(
        metrics["evaluation.whole_s"])
    assert metrics["trace.overhead_s"] == pytest.approx(
        call["end"] - call["start"] - metrics["evaluation.whole_s"])
    assert metrics["engine.pairs_predicted"] <= metrics["engine.pairs_attempted"]
    if w.is_mc:
        assert metrics["engine.loads_attempted"] == wl.PERSIST_ROUNDS
        assert sum(ledger.known_defects.values()) == (
            wl.PERSIST_ROUNDS - metrics["engine.loads_ok"])
    else:
        assert not ledger.known_defects
    assert ledger.failed == 0


def test_top_n_check_catches_a_wrong_order(tmp_path, monkeypatch):
    w = TINY["plain-knn"]
    path = wl.input_path(w, tmp_path)
    wl.write_input(w, 5, path)
    model = wl.fit(w, wl.parse_input(w, path), 5)
    ledger = wl.Ledger()
    wl.check_top_n(model, 5, ledger)
    assert ledger.correct and ledger.failed == 0

    real = wl.recommend
    monkeypatch.setattr(wl, "recommend", lambda m, u: real(m, u)[::-1])
    wl.check_top_n(model, 5, ledger)
    assert not ledger.correct
    assert ledger.failed == wl.CHECK_USERS


def test_replay_check_catches_a_changed_report(tmp_path, monkeypatch):
    w = TINY["plain-full"]
    real = wl.evaluate

    def shifted(*args):
        report = real(*args)
        return type(report)(**{**report.__dict__, "mae": report.mae + 1e-3})

    monkeypatch.setattr(wl, "evaluate", shifted)
    ledger = wl.Ledger()
    wl.traced_run(w, 5, tmp_path, ledger, tmp_path, tmp_path / "t.json",
                   {})
    assert not ledger.correct
    assert ledger.failed == 2


def test_cpu_time_counts_work_on_other_threads():
    """Work the library hands to a thread pool is timed; the probe's own
    loop is not."""
    from concurrent.futures import ThreadPoolExecutor

    def spin(_):
        acc = 0
        for i in range(300_000):
            acc += i * i
        return acc

    with wl.SpeedProbe() as speed:
        clock = wl.Clock(wl.Ledger(), speed)
        clock.call("here", lambda: spin(0))
        with ThreadPoolExecutor(max_workers=2) as pool:
            clock.call("pool", lambda: list(pool.map(spin, range(4))))
    # four spins in the pool cost about four times one spin here; were
    # only the calling thread timed, the pool call would read close to 0
    assert clock.cpu("pool")[0] > clock.cpu("here")[0]


def test_report_record_catches_a_changed_report(tmp_path):
    w = TINY["plain-full"]
    ledger = wl.Ledger()
    wl.timed_run(w, 5, 0.01, tmp_path, ledger, tmp_path)
    records = list(tmp_path.glob("report-plain-full-seed5-*.txt"))
    assert len(records) == 1 and ledger.correct
    # a traced run of the same seed checks against the timed run's record
    wl.traced_run(w, 5, tmp_path, ledger, tmp_path, tmp_path / "t.json", {})
    assert ledger.correct and ledger.failed == 0
    records[0].write_text(records[0].read_text() + " ", encoding="utf-8")
    ledger = wl.Ledger()
    wl.traced_run(w, 5, tmp_path, ledger, tmp_path, tmp_path / "t.json", {})
    assert not ledger.correct and ledger.failed == 1


def test_only_the_known_load_defect_is_spared(tmp_path, monkeypatch):
    w = TINY["mc-knn"]
    path = wl.input_path(w, tmp_path)
    wl.write_input(w, 5, path)
    model = wl.fit(w, wl.parse_input(w, path), 5)

    def reject(message):
        def load(_path):
            raise wl.ModelFormatError(message)
        return load

    monkeypatch.setattr(wl, "load_model", reject(wl.LOAD_DEFECT))
    ledger = wl.Ledger()
    wl.persist(model, tmp_path, 5, ledger, rounds=2)
    assert ledger.failed == 0 and sum(ledger.known_defects.values()) == 2

    monkeypatch.setattr(wl, "load_model", reject("not a model file"))
    ledger = wl.Ledger()
    wl.persist(model, tmp_path, 5, ledger, rounds=2)
    assert ledger.failed == 2 and not ledger.known_defects
