"""The three workloads, the timed run and the traced run.

Every call into mccf goes through its public entry points, the way a
researcher's script or a serving process would use the library.  One
process runs one workload with a single client in a closed loop: each
top-N request is sent only after the previous one returned.

The timed run (trace off) reports the end-to-end metrics.  The traced
run times the whole evaluation call, then replays the same steps through
public calls with a span around each, and reports per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from spans import Tracer

import mccf
from mccf import (
    BenchmarkConfig,
    CriteriaTensor,
    Dataset,
    EvalReport,
    McBenchmarkConfig,
    NeighborhoodSpec,
    RatingScale,
    RelevanceSpec,
    SimilarityStore,
    SplitSpec,
    aggregate_overall,
    batch_predict,
    bias,
    build_mc_model,
    hosvd,
    impute_missing,
    item_similarity_matrix,
    load_model,
    mae,
    mc_recommend_top_n,
    parse_movielens,
    parse_multicriteria,
    predict_criteria,
    predict_matrix,
    predict_overall,
    predict_single,
    recommend_top_n,
    rmse,
    run_benchmark,
    run_mc_benchmark,
    save_model,
    split_train_test,
    tucker_reconstruct,
)
from mccf.engine import ModelFormatError
# the evaluation's own helpers, so the replay runs the library's code
from mccf.evaluation import _decision_metrics, _matrix_top_n

SCALE = RatingScale.one_to_five()
TOP_N = 10
SIM = "pearson"
TRAIN_FRACTION = 0.8
# set-up and fit repeat until this much time is spent (at least 3 and 2
# times, at most 15 and 5), so short ones report a median of several
SETUP_BUDGET_S = 0.6
FIT_BUDGET_S = 1.2
# short evaluations repeat (at most 3 times) until this much is spent
EVAL_BUDGET_S = 4.0
# at least 200 top-N requests, so p95 has 10 samples beyond it
TOPN_USERS = 200
CHECK_USERS = 5
PERSIST_ROUNDS = 3
CHECK_TOL = 1e-12
# load_model's message for the known defect of rejecting its own files
# (see perfbench/NOTES.md); matched exactly, so other load errors fail
LOAD_DEFECT = "id maps changed across save/load"
# span around the whole replayed evaluation call
CALL = "evaluation.call"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.PlainShape | gen.McShape
    max_neighbors: int | None
    ranks: tuple[int, int, int] | None = None

    @property
    def is_mc(self) -> bool:
        return isinstance(self.shape, gen.McShape)

    @property
    def spec(self) -> NeighborhoodSpec:
        return NeighborhoodSpec(max_neighbors=self.max_neighbors)

    def config(self, seed: int):
        if self.is_mc:
            return McBenchmarkConfig(
                ranks=self.ranks, train_fraction=TRAIN_FRACTION,
                seed=seed, sim_space="latent", top_n=TOP_N,
                neighborhood=self.spec)
        return BenchmarkConfig(sim=SIM, train_fraction=TRAIN_FRACTION,
                               seed=seed, top_n=TOP_N, neighborhood=self.spec)


WORKLOADS = {w.name: w for w in (
    Workload("ml100k-knn30", gen.ML100K, max_neighbors=30),
    Workload("ml100k-full", gen.ML100K, max_neighbors=None),
    Workload("mc-knn20", gen.MC, max_neighbors=20, ranks=(8, 8, 3)),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "eval_s": "s", "fit_s": "s", "topn_p50_ms": "ms",
    "topn_p95_ms": "ms", "peak_rss_mb": "MB", "mae": "rating",
}

PER_LAYER_UNITS = {
    "ingest.parse_s": "s", "ingest.split_s": "s", "ingest.records": "count",
    "core.index_s": "s", "core.duplicates": "count", "core.dense_s": "s",
    "similarity.build_s": "s", "similarity.defined_pairs": "count",
    "similarity.density": "ratio", "similarity.store_bytes": "bytes",
    "linalg.impute_s": "s", "linalg.hosvd_s": "s",
    "linalg.reconstruct_s": "s",
    "engine.predict_s": "s", "engine.pairs_attempted": "count",
    "engine.pairs_predicted": "count", "engine.topn_s": "s",
    "engine.topn_users": "count", "engine.items_scored": "count",
    "engine.mc_build_s": "s", "engine.model_bytes": "bytes",
    "engine.save_s": "s", "engine.load_s": "s",
    "engine.loads_attempted": "count", "engine.loads_ok": "count",
    "evaluation.whole_s": "s", "evaluation.f1": "ratio",
    "evaluation.metrics_s": "s",
    "evaluation.self_s": "s", "trace.overhead_s": "s",
}


class Ledger:
    """Operations attempted and failed, and whether every correctness
    check passed.  A failed check is also a failed operation.

    Calls that hit a known, documented library defect are tallied in
    ``known_defects`` instead: they are neither attempted nor failed
    operations, so the failed count stays the benchmark's own signal.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.known_defects: dict[str, int] = {}

    def defect(self, what: str) -> None:
        self.known_defects[what] = self.known_defects.get(what, 0) + 1

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, ok: bool, what: str) -> None:
        self.op(ok)
        if not ok:
            self.correct = False
            print(f"check failed: {what}", file=sys.stderr)

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        }


# ---- inputs and the library calls each workload makes -----------------------

def input_path(w: Workload, workdir: Path) -> Path:
    return workdir / ("ratings.csv" if w.is_mc else "u.data")


def write_input(w: Workload, seed: int, path: Path) -> None:
    if w.is_mc:
        gen.write_mc(path, w.shape, seed)
    else:
        gen.write_plain(path, w.shape, seed)


def parse_input(w: Workload, path: Path) -> list:
    if w.is_mc:
        return parse_multicriteria(path, w.shape.criteria, SCALE)
    return parse_movielens(path)


def evaluate(w: Workload, path: Path, seed: int) -> EvalReport:
    """The researcher's experiment: one full evaluation from the file."""
    if w.is_mc:
        records = parse_multicriteria(path, w.shape.criteria, SCALE)
        return run_mc_benchmark(records, w.config(seed),
                                k=w.shape.criteria, scale=SCALE)
    return run_benchmark(path, w.config(seed))


@dataclass(frozen=True)
class PlainModel:
    data: Dataset
    sims: SimilarityStore
    spec: NeighborhoodSpec


def fit(w: Workload, records: list, seed: int):
    """A servable model on the full input."""
    if w.is_mc:
        tensor = CriteriaTensor.from_records(records, w.shape.criteria, SCALE)
        return build_mc_model(tensor, w.ranks, w.config(seed).engine_config())
    data = Dataset.from_records(records, SCALE)
    return PlainModel(data, item_similarity_matrix(data, SIM), w.spec)


def model_users(model) -> tuple[str, ...]:
    if isinstance(model, PlainModel):
        return model.data.user_ids
    return model.tensor.user_ids


def recommend(model, user_id: str) -> list[tuple[str, float]]:
    if isinstance(model, PlainModel):
        return recommend_top_n(model.data, model.sims, user_id, TOP_N,
                               model.spec)
    return mc_recommend_top_n(model, user_id, TOP_N)


def reference_top_n(model, user_id: str) -> list[tuple[str, float]]:
    """Top-N from one single-pair prediction per unrated item, sorted by
    value descending and item index ascending."""
    scored = []
    if isinstance(model, PlainModel):
        d = model.data
        rated = set(d.items_of(d.user_index(user_id))[0].tolist())
        for i in range(d.n_items):
            if i not in rated:
                p = predict_single(user_id, d.item_id(i), d, model.sims,
                                   model.spec)
                if p is not None:
                    scored.append((-p.value, i))
        ids = d.item_ids
    else:
        t = model.tensor
        rated = set(t.cells_of(t.user_index(user_id))[0].tolist())
        for i in range(t.n_items):
            if i not in rated:
                v = predict_overall(model, user_id, t.item_id(i))
                if v is not None:
                    scored.append((-v, i))
        ids = t.item_ids
    scored.sort()
    return [(ids[i], -v) for v, i in scored[:TOP_N]]


def request_users(model, seed: int) -> list[str]:
    """TOPN_USERS users spread evenly over the ranking by number of rated
    items, from a seeded offset, in seeded order.  Request cost grows with
    the user's ratings, so a stratified sample keeps the latency
    percentiles from drifting with which heavy users a seed happens to
    pick."""
    if isinstance(model, PlainModel):
        d = model.data
        rated = [d.items_of(u)[0].size for u in range(d.n_users)]
    else:
        t = model.tensor
        rated = [t.cells_of(u)[0].size for u in range(t.n_users)]
    order = np.argsort(rated, kind="stable")
    n = min(TOPN_USERS, len(order))
    rng = np.random.default_rng([seed, 3])
    step = len(order) / n
    pick = order[(rng.random() * step + step * np.arange(n)).astype(np.int64)]
    users = model_users(model)
    return [users[int(u)] for u in rng.permutation(pick)]


def sample_ids(ids, seed: int, stream: int, n: int) -> list[str]:
    rng = np.random.default_rng([seed, stream])
    pick = rng.choice(len(ids), size=min(n, len(ids)), replace=False)
    return [ids[int(p)] for p in pick]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- checks -----------------------------------------------------------------

def check_top_n(model, seed: int, ledger: Ledger) -> None:
    for uid in sample_ids(model_users(model), seed, 4, CHECK_USERS):
        got = recommend(model, uid)
        ref = reference_top_n(model, uid)
        ok = ([i for i, _ in got] == [i for i, _ in ref]
              and all(abs(a - b) <= CHECK_TOL
                      for (_, a), (_, b) in zip(got, ref)))
        ledger.check(ok, f"top-{TOP_N} of user {uid} differs from the "
                         f"single-pair reference")


def _library_digest() -> str:
    """Short hash of the library source, so a record made by one version
    of the library is never held against another."""
    h = hashlib.sha256()
    for f in sorted(Path(mccf.__file__).parent.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def check_report_record(w: Workload, seed: int, text: str, record_dir: Path,
                        ledger: Ledger) -> None:
    """The first run of a (workload, seed) keeps its evaluation report's
    to_text() under record_dir; every later run, timed or traced, must
    produce the same text byte for byte."""
    path = record_dir / f"report-{w.name}-seed{seed}-{_library_digest()}.txt"
    if path.exists():
        ledger.check(path.read_text(encoding="utf-8") == text,
                     "evaluation report text differs from an earlier run "
                     "of the same seed")
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def persist(model, workdir: Path, seed: int, ledger: Ledger,
            rounds: int) -> dict[str, float]:
    """save_model / load_model round trips of an MC model.

    A load rejected with the known id-map error (the library rejects its
    own files when the saved cell order meets items out of index order)
    is tallied as a known defect, not as an operation; any other load
    error is a failed operation.  load_s is taken over successful loads
    only, and loads_attempted / loads_ok give the rejected share.
    """
    path = workdir / "model.txt"
    saves, loads = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        save_model(model, path)
        saves.append(time.perf_counter() - t0)
        ledger.op()
        t0 = time.perf_counter()
        try:
            loaded = load_model(path)
        except ModelFormatError as exc:
            if str(exc) == LOAD_DEFECT:
                ledger.defect(f"load_model: {exc}")
            else:
                ledger.op(ok=False)
            print(f"load_model failed: {exc}", file=sys.stderr)
            continue
        loads.append(time.perf_counter() - t0)
        ledger.op()
        t = model.tensor
        pairs = zip(sample_ids(t.user_ids, seed, 5, CHECK_USERS),
                    sample_ids(t.item_ids, seed, 6, CHECK_USERS))
        ledger.check(all(abs(predict_overall(loaded, u, i)
                             - predict_overall(model, u, i)) <= CHECK_TOL
                         for u, i in pairs),
                     "loaded model predicts differently")
    return {
        "engine.save_s": statistics.median(saves),
        "engine.load_s": statistics.median(loads) if loads else 0.0,
        "engine.model_bytes": path.stat().st_size,
        "engine.loads_attempted": rounds,
        "engine.loads_ok": len(loads),
    }


# ---- timed run --------------------------------------------------------------

# The host is a shared virtual machine: the hypervisor steals 10% or
# more of the CPU at times, and the speed of the CPU it does give drifts
# by up to 1.7x in phases of seconds to minutes, so raw wall times of
# runs in different phases differ by more than any useful bound.  Two
# corrections make the end-to-end times comparable across runs:
#  - every operation is timed in CPU time, which leaves out stolen time
#    (the work is CPU-bound and the process runs on one pinned CPU): the
#    CPU time of the whole process, so work the library hands to other
#    threads counts, plus that of waited-for child processes, less the
#    CPU time of the probe thread below;
#  - a background thread of the same process times a fixed pure-Python
#    reference loop every PROBE_INTERVAL_S, in its own thread CPU time,
#    and each operation's time is multiplied by PROBE_NOMINAL_S and
#    divided by the median loop time sampled while it ran.
# The result is CPU seconds on a host where the loop takes
# PROBE_NOMINAL_S.  The library cannot change the loop, so the rescaling
# never hides a change in the library.
PROBE_LOOP = 15_000
PROBE_NOMINAL_S = 1.0e-3
PROBE_INTERVAL_S = 0.1
# samples this far around a short operation count for it too
PROBE_MARGIN_S = 1.0


class SpeedProbe:
    """Background sampler of the reference loop; use as a context
    manager, which stops and joins the thread on exit."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            at = time.perf_counter()
            c0 = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i
            self.samples.append((at, time.thread_time() - c0))
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def work_cpu(self) -> float:
        """CPU seconds of this process and its waited-for children, less
        the probe thread's own; only valid while the probe runs."""
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time() + kids.ru_utime + kids.ru_stime
                - time.clock_gettime(self._clock))

    def factor(self, start: float, end: float) -> float:
        """PROBE_NOMINAL_S over the median loop time around [start, end]
        (over all samples when none fell near it)."""
        samples = list(self.samples)
        near = [c for at, c in samples
                if start - PROBE_MARGIN_S <= at <= end + PROBE_MARGIN_S]
        return PROBE_NOMINAL_S / statistics.median(
            near or [c for _, c in samples])


class Clock:
    """Per metric name, each timed call's wall-clock interval and CPU time
    (SpeedProbe.work_cpu).  Every timed call is one operation in the
    ledger."""

    def __init__(self, ledger: Ledger, speed: SpeedProbe) -> None:
        self.ledger = ledger
        self.speed = speed
        self.calls: dict[str, list[tuple[float, float, float]]] = {}

    def call(self, name: str, fn):
        t0 = time.perf_counter()
        c0 = self.speed.work_cpu()
        result = fn()
        cpu = self.speed.work_cpu() - c0
        self.calls.setdefault(name, []).append((t0, time.perf_counter(), cpu))
        self.ledger.op()
        return result

    def repeat(self, name: str, fn, budget_s: float, least: int, most: int):
        """Call fn until budget_s wall seconds are spent, at least `least`
        and at most `most` times; return the last result."""
        spent = 0.0
        for n in range(most):
            if n >= least and spent >= budget_s:
                break
            result = self.call(name, fn)
            t0, t1, _ = self.calls[name][-1]
            spent += t1 - t0
        return result

    def wall(self, name: str) -> list[float]:
        return [t1 - t0 for t0, t1, _ in self.calls[name]]

    def cpu(self, name: str) -> list[float]:
        return [cpu for _, _, cpu in self.calls[name]]

    def scaled(self, name: str) -> list[float]:
        return [cpu * self.speed.factor(t0, t1)
                for t0, t1, cpu in self.calls[name]]


def timed_run(w: Workload, seed: int, seconds: float, workdir: Path,
              ledger: Ledger, record_dir: Path) -> dict[str, float]:
    """End-to-end metrics.  Set-up, fit and top-N are each measured half
    before and half after the long evaluation call, so their medians span
    both."""
    with SpeedProbe() as speed:
        clock = Clock(ledger, speed)
        report, model = _timed_steps(w, seed, seconds, workdir, clock)
        metrics = {
            "setup_s": statistics.median(clock.scaled("setup")),
            "eval_s": statistics.median(clock.scaled("eval")),
            "fit_s": statistics.median(clock.scaled("fit")),
            "topn_p50_ms": 1e3 * statistics.median(clock.scaled("topn")),
            "topn_p95_ms": 1e3 * float(np.percentile(clock.scaled("topn"),
                                                     95)),
        }
        for kind, times in (("wall", clock.wall), ("cpu", clock.cpu)):
            print(f"# raw {kind} seconds " + json.dumps({
                "setup_s": statistics.median(times("setup")),
                "eval_s": statistics.median(times("eval")),
                "fit_s": statistics.median(times("fit")),
                "topn_p50_ms": 1e3 * statistics.median(times("topn")),
                "topn_p95_ms": 1e3 * float(np.percentile(times("topn"), 95)),
            }))
        print("# reference loop ms " + json.dumps(
            1e3 * statistics.median(c for _, c in speed.samples)))
    print(f"top-N requests: {len(clock.calls['topn'])}", file=sys.stderr)
    check_report_record(w, seed, report.to_text(), record_dir, ledger)
    check_top_n(model, seed, ledger)
    if w.is_mc:
        persist(model, workdir, seed, ledger, rounds=1)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["mae"] = report.mae
    return metrics


def _timed_steps(w: Workload, seed: int, seconds: float, workdir: Path,
                 clock: Clock):
    path = input_path(w, workdir)

    def setup():
        write_input(w, seed, path)

    clock.repeat("setup", setup, SETUP_BUDGET_S / 2, 2, 8)
    records = parse_input(w, path)
    model = clock.repeat("fit", lambda: fit(w, records, seed),
                         FIT_BUDGET_S / 2, 1, 3)
    users = request_users(model, seed)
    half = len(users) // 2

    def requests(batch):
        for uid in batch:
            clock.call("topn", lambda: recommend(model, uid))

    requests(users[:half])
    texts: list[str] = []

    def run_eval():
        report = evaluate(w, path, seed)
        texts.append(report.to_text())
        return report

    report = clock.repeat("eval", run_eval, EVAL_BUDGET_S, 1, 3)
    if len(texts) > 1:
        clock.ledger.check(len(set(texts)) == 1,
                           "evaluation report text differs across repeats")
    clock.repeat("setup", setup, SETUP_BUDGET_S / 2, 1, 7)
    clock.repeat("fit", lambda: fit(w, records, seed), FIT_BUDGET_S / 2, 1, 2)
    del records
    requests(users[half:])
    while sum(clock.wall("topn")) < seconds:
        requests(users)
    return report, model


# ---- traced run -------------------------------------------------------------

def _interesting(test_recs, threshold: float):
    """Test users in first-appearance order and their interesting items,
    keyed in the order the evaluation builds them."""
    interesting: dict[str, set[str]] = {}
    test_users: list[str] = []
    seen: set[str] = set()
    for rec in test_recs:
        if rec.user_id not in seen:
            seen.add(rec.user_id)
            test_users.append(rec.user_id)
        if rec.overall >= threshold:
            interesting.setdefault(rec.user_id, set()).add(rec.item_id)
    return test_users, interesting


def _replay_plain(w, path, seed, tr: Tracer, counts: dict) -> EvalReport:
    cfg = w.config(seed)
    with tr.span(CALL, step=False):
        with tr.span("ingest.parse"):
            records = parse_movielens(path)
        with tr.span("ingest.split"):
            train_recs, test_recs = split_train_test(
                records, SplitSpec(cfg.train_fraction, seed))
        with tr.span("core.index"):
            train = Dataset.from_records(train_recs, SCALE)
        with tr.span("similarity.build"):
            sims = item_similarity_matrix(train, SIM)
        # mapping test pairs and building the interesting sets is the
        # evaluation's own work: outside every step span, so its share of
        # the evaluation call shows in evaluation.self_s
        known = [(train.user_index(r.user_id), train.item_index(r.item_id),
                  r.overall) for r in test_recs
                 if train.has_user(r.user_id) and train.has_item(r.item_id)]
        users = np.array([k[0] for k in known], dtype=np.int64)
        items = np.array([k[1] for k in known], dtype=np.int64)
        test_users, interesting = _interesting(
            test_recs, RelevanceSpec.default_for(SCALE).threshold)
        eval_users = [u for u in test_users if train.has_user(u)]
        with tr.span("engine.predict"):
            if w.max_neighbors is None:
                # batch_predict's unbounded branch, kept for the top-N step
                pm = predict_matrix(train, sims, w.spec)
                preds = pm[users, items]
            else:
                preds = batch_predict(train, sims, users, items, w.spec)
        with tr.span("engine.topn"):
            if w.max_neighbors is None:
                recs = {u: [train.item_id(i) for i in _matrix_top_n(
                            pm, train, train.user_index(u), TOP_N)]
                        for u in eval_users}
            else:
                recs = {u: [i for i, _ in recommend_top_n(
                            train, sims, u, TOP_N, w.spec)]
                        for u in eval_users}
        with tr.span("evaluation.metrics"):
            truths = np.array([k[2] for k in known], dtype=np.float64)
            made = ~np.isnan(preds)
            pair_count = int(made.sum())
            pairs = np.column_stack([preds[made], truths[made]])
            decision = _decision_metrics(recs, interesting, train.item_ids,
                                         len(test_recs), pair_count)
            report = EvalReport(
                sim=SIM, train_fraction=cfg.train_fraction, seed=seed,
                ranks=None, mae=mae(pairs), bias=bias(pairs),
                rmse=rmse(pairs), precision=decision[0], recall=decision[1],
                f1=decision[2], prediction_coverage=decision[3],
                catalog_coverage=decision[4], pair_count=pair_count,
                no_prediction_count=len(test_recs) - pair_count)

    # run inside both similarity.build and engine.predict, timed once here
    with tr.span("core.dense", parent="similarity.build", step=False):
        train.to_dense()
        train.to_mask()
    counts.update({
        "ingest.records": len(records),
        "core.duplicates": train.duplicates,
        "similarity.defined_pairs": sims.defined_count(),
        "similarity.density": sims.defined_count()
        / (train.n_items * (train.n_items - 1) / 2),
        "similarity.store_bytes": sims.values.nbytes,
        "engine.pairs_attempted": len(test_recs),
        "engine.pairs_predicted": pair_count,
        "engine.topn_users": len(eval_users),
        "engine.items_scored": sum(
            train.n_items - train.items_of(train.user_index(u))[0].size
            for u in eval_users),
    })
    return report


def _replay_mc(w, path, seed, workdir, tr: Tracer, counts: dict,
               ledger: Ledger) -> EvalReport:
    cfg = w.config(seed)
    k = w.shape.criteria
    with tr.span(CALL, step=False):
        with tr.span("ingest.parse"):
            records = parse_multicriteria(path, k, SCALE)
        with tr.span("ingest.split"):
            train_recs, test_recs = split_train_test(
                records, SplitSpec(cfg.train_fraction, seed))
        with tr.span("core.index"):
            train = CriteriaTensor.from_records(train_recs, k, SCALE)
        with tr.span("engine.mc_build"):
            model = build_mc_model(train, w.ranks, cfg.engine_config())
        with tr.span("engine.predict"):
            overall_pairs, crit_pairs = [], [[] for _ in range(k)]
            for rec in test_recs:
                crits = predict_criteria(model, rec.user_id, rec.item_id)
                if crits is None:
                    continue
                overall_pairs.append(
                    (aggregate_overall(model.aggregation, crits, SCALE),
                     rec.overall))
                for c in range(k):
                    crit_pairs[c].append((crits[c], rec.criteria[c]))
        test_users, interesting = _interesting(
            test_recs, RelevanceSpec.default_for(SCALE).threshold)
        eval_users = [u for u in test_users if train.has_user(u)]
        with tr.span("engine.topn"):
            recs = {u: [i for i, _ in mc_recommend_top_n(model, u, TOP_N)]
                    for u in eval_users}
        with tr.span("evaluation.metrics"):
            decision = _decision_metrics(recs, interesting, train.item_ids,
                                         len(test_recs), len(overall_pairs))
            report = EvalReport(
                sim="latent", train_fraction=cfg.train_fraction, seed=seed,
                ranks=tuple(w.ranks), mae=mae(overall_pairs),
                bias=bias(overall_pairs), rmse=rmse(overall_pairs),
                precision=decision[0], recall=decision[1], f1=decision[2],
                prediction_coverage=decision[3], catalog_coverage=decision[4],
                pair_count=len(overall_pairs),
                no_prediction_count=len(test_recs) - len(overall_pairs),
                criteria_mae=tuple(mae(p) for p in crit_pairs))

    # the build's inner steps, re-run one at a time
    with tr.span("core.dense", parent="engine.mc_build", step=False):
        dense = train.to_dense()
        train.to_mask()
    with tr.span("linalg.impute", parent="engine.mc_build", step=False):
        imputed = np.empty_like(dense)
        for s in range(k + 1):
            imputed[:, :, s] = impute_missing(dense[:, :, s],
                                              cfg.impute_strategy)
    with tr.span("linalg.hosvd", parent="engine.mc_build", step=False):
        tucker = hosvd(imputed, w.ranks, seed=seed)
    with tr.span("linalg.reconstruct", parent="engine.mc_build", step=False):
        tucker_reconstruct(tucker)
    with tr.span("similarity.build", parent="engine.mc_build", step=False):
        item_similarity_matrix(model.criteria_data[0], "latent_cosine",
                               model=tucker)

    store = model.item_similarities[0]
    n = train.n_items
    counts.update({
        "ingest.records": len(records),
        "core.duplicates": train.duplicates,
        "similarity.defined_pairs": store.defined_count(),
        "similarity.density": store.defined_count() / (n * (n - 1) / 2),
        "similarity.store_bytes": sum(s.values.nbytes
                                      for s in model.item_similarities),
        "engine.pairs_attempted": len(test_recs),
        "engine.pairs_predicted": len(overall_pairs),
        "engine.topn_users": len(eval_users),
        "engine.items_scored": sum(
            n - train.cells_of(train.user_index(u))[0].size
            for u in eval_users),
    })
    counts.update(persist(model, workdir, seed, ledger, PERSIST_ROUNDS))
    return report


def traced_run(w: Workload, seed: int, workdir: Path, ledger: Ledger,
               record_dir: Path, trace_path: Path,
               machine: dict) -> dict[str, float]:
    path = input_path(w, workdir)
    write_input(w, seed, path)
    ledger.op()

    t0 = time.perf_counter()
    whole = evaluate(w, path, seed)
    whole_s = time.perf_counter() - t0
    ledger.op()

    tr = Tracer(f"{w.name}-seed{seed}")
    counts: dict[str, float] = {"engine.save_s": 0.0, "engine.load_s": 0.0,
                                "engine.model_bytes": 0,
                                "engine.loads_attempted": 0,
                                "engine.loads_ok": 0}
    if w.is_mc:
        replay = _replay_mc(w, path, seed, workdir, tr, counts, ledger)
    else:
        replay = _replay_plain(w, path, seed, tr, counts)
    ledger.op()

    ledger.check(replay.pair_count == whole.pair_count
                 and replay.mae == whole.mae,
                 "replayed pair_count/mae differ from the evaluation call")
    ledger.check(replay.to_text() == whole.to_text(),
                 "replayed report text differs from the evaluation call")
    check_report_record(w, seed, whole.to_text(), record_dir, ledger)

    metrics = dict(counts)
    for name in ("ingest.parse", "ingest.split", "core.index", "core.dense",
                 "similarity.build", "linalg.impute", "linalg.hosvd",
                 "linalg.reconstruct", "engine.predict", "engine.topn",
                 "engine.mc_build", "evaluation.metrics"):
        metrics[name + "_s"] = tr.total(name)
    replay_s = tr.total(CALL)
    metrics["evaluation.whole_s"] = whole_s
    metrics["evaluation.f1"] = whole.f1
    # the untraced call less the replayed steps: the evaluation's own
    # work, plus run-to-run noise (it can be negative)
    metrics["evaluation.self_s"] = whole_s - tr.step_total()
    # traced minus untraced call: span bookkeeping plus run-to-run noise
    metrics["trace.overhead_s"] = replay_s - whole_s
    tr.write(trace_path, {"workload": w.name, "seed": seed,
                          "machine": machine, "report": whole.to_text(),
                          "metrics": metrics})
    return metrics
