"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v``.  Every test emits a single
``[PASS]``/``[FAIL]``/``[SKIP] criterion N: ...`` line on the real stdout
(bypassing capture) so the gate can be read off the console directly.

Criteria 1 and 2 need the MovieLens 100k ratings file; they skip cleanly
when it is absent (see README for how to fetch it).  Everything else is
self-contained and uses independent oracles written with plain loops or
dense eigensolvers, never the library code path under test.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_MATRIX, dataset_from_dense
from mccf.core import Dataset, RatingRecord, RatingScale
from mccf.engine import NeighborhoodSpec, predict_single
from mccf.evaluation import (
    BenchmarkConfig,
    McBenchmarkConfig,
    bias,
    global_mean_baseline,
    mae,
    precision_recall_f1,
    rmse,
    run_benchmark,
    run_mc_benchmark,
)
from mccf.ingest import SplitSpec, parse_movielens, split_train_test
from mccf.linalg import hosvd, impute_missing, pca, pca_project, pca_reconstruct, truncated_svd, tucker_reconstruct
from mccf.similarity import item_similarity_matrix
from mccf.synth import SyntheticTensorSpec, generate_tensor
import oracles

TABLE_SIMS = ("pearson", "euclidean", "loglikelihood", "tanimoto")

# published reference table: sim -> (MAE, RMSE) per training fraction
REFERENCE = {
    0.7: {"pearson": (0.842, 1.080), "euclidean": (0.816, 1.022),
          "loglikelihood": (0.814, 1.019), "tanimoto": (0.793, 0.999)},
    0.8: {"pearson": (0.828, 1.061), "euclidean": (0.818, 1.026),
          "loglikelihood": (0.817, 1.025), "tanimoto": (0.794, 1.002)},
}
TABLE_TOL = 0.05
SWEEP_SECONDS = 300.0
SEEDS = (101, 202, 303, 404, 505)


def _verdict(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{tag}] criterion {num}: {label}{suffix}")


def _skip(capsys, num: int, label: str, reason: str) -> None:
    with capsys.disabled():
        print(f"[SKIP] criterion {num}: {label} ({reason})")
    pytest.skip(reason)


def _ml100k_path() -> str | None:
    env = os.environ.get("MCCF_ML100K")
    if env and Path(env).is_file():
        return env
    default = Path(__file__).resolve().parent.parent / "data" / "ml-100k" / "u.data"
    return str(default) if default.is_file() else None


def _table_check(capsys, num: int, fraction: float) -> None:
    label = f"MovieLens 100k benchmark table at {int(fraction * 100)}% training"
    path = _ml100k_path()
    if path is None:
        _skip(capsys, num, label,
              "dataset not present; run scripts/fetch_ml100k.py or set MCCF_ML100K")
    records = parse_movielens(path)
    table = REFERENCE[fraction]
    worst = 0.0
    order_hits = 0
    slowest = 0.0
    for seed in SEEDS:
        start = time.perf_counter()
        got = {}
        for sim in TABLE_SIMS:
            rep = run_benchmark(records, BenchmarkConfig(
                sim=sim, train_fraction=fraction, seed=seed))
            got[sim] = (rep.mae, rep.rmse)
        slowest = max(slowest, time.perf_counter() - start)
        for sim, (ref_mae, ref_rmse) in table.items():
            worst = max(worst, abs(got[sim][0] - ref_mae),
                        abs(got[sim][1] - ref_rmse))
        mid = (got["loglikelihood"][0], got["euclidean"][0])
        if got["tanimoto"][0] <= min(mid) and max(mid) < got["pearson"][0]:
            order_hits += 1
    ok = worst <= TABLE_TOL and order_hits >= 4 and slowest <= SWEEP_SECONDS
    _verdict(capsys, num, label, ok,
             f"max|delta|={worst:.4f} ordering {order_hits}/5 "
             f"slowest sweep {slowest:.1f}s")
    assert ok, f"worst deviation {worst}, ordering held {order_hits}/5"


def test_criterion_1_table_70(capsys):
    _table_check(capsys, 1, 0.7)


def test_criterion_2_table_80(capsys):
    _table_check(capsys, 2, 0.8)


def test_criterion_3_randomized_svd_oracle(capsys):
    label = "randomized SVD vs dense eigensolver on 100 seeded matrices"
    worst_rel = 0.0
    worst_ratio = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        u = np.linalg.qr(rng.normal(size=(30, 20)))[0]
        v = np.linalg.qr(rng.normal(size=(20, 20)))[0]
        spectrum = 10.0 * 0.8 ** np.arange(20)
        a = (u * spectrum) @ v.T
        model = truncated_svd(a, 5, seed=seed)
        evals = np.linalg.eigvalsh(a.T @ a)[::-1]
        oracle = np.sqrt(np.clip(evals, 0.0, None))
        rel = float(np.max(np.abs(model.sigma - oracle[:5]) / oracle[:5]))
        err = float(np.linalg.norm(a - model.reconstruct()))
        optimum = float(np.sqrt(np.sum(oracle[5:] ** 2)))
        worst_rel = max(worst_rel, rel)
        worst_ratio = max(worst_ratio, err / optimum)
    ok = worst_rel <= 1e-6 and worst_ratio <= 1.1
    _verdict(capsys, 3, label,
             ok, f"max rel sigma err {worst_rel:.2e}, "
                 f"max error ratio {worst_ratio:.4f}")
    assert ok


def _oracle_hosvd_error(t: np.ndarray, ranks: tuple[int, int, int]) -> float:
    """Classic HOSVD truncation error via dense eigendecompositions."""
    approx = t
    for mode, r in enumerate(ranks):
        unfold = np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)
        _, vecs = np.linalg.eigh(unfold @ unfold.T)
        basis = vecs[:, ::-1][:, :r]
        proj = basis @ basis.T
        approx = np.moveaxis(
            np.tensordot(proj, np.moveaxis(approx, mode, 0), axes=(1, 0)),
            0, mode)
    return float(np.linalg.norm(t - approx))


def test_criterion_4_hosvd_exactness(capsys):
    label = "HOSVD full-rank exactness and truncation bound on 50 tensors"
    worst_full = 0.0
    worst_gap = -np.inf
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                int(rng.integers(2, 6)))
        t = rng.normal(size=dims)
        scale = float(np.linalg.norm(t))
        full = hosvd(t, dims, seed=seed)
        worst_full = max(
            worst_full,
            float(np.linalg.norm(t - tucker_reconstruct(full))) / scale)
        ranks = tuple(int(rng.integers(1, d + 1)) for d in dims)
        trunc = hosvd(t, ranks, seed=seed)
        err = float(np.linalg.norm(t - tucker_reconstruct(trunc)))
        worst_gap = max(worst_gap, err - _oracle_hosvd_error(t, ranks))
    ok = worst_full <= 1e-8 and worst_gap <= 1e-6
    _verdict(capsys, 4, label, ok,
             f"max full-rank rel err {worst_full:.2e}, "
             f"max excess over oracle {worst_gap:.2e}")
    assert ok


def test_criterion_5_pca_identities(capsys):
    label = "PCA orthonormality, trace identity, round-trip on 100 samples"
    worst_orth = 0.0
    worst_trace = 0.0
    worst_rt = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(10, 41))
        d = int(rng.integers(2, 9))
        x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) \
            + rng.normal(size=d)
        model = pca(x, d)
        c = model.components
        worst_orth = max(worst_orth,
                         float(np.max(np.abs(c.T @ c - np.eye(d)))))
        trace = float(np.trace(np.cov(x, rowvar=False)))
        worst_trace = max(worst_trace,
                          abs(float(np.sum(model.eigenvalues)) - trace))
        back = pca_reconstruct(model, pca_project(model, x))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))
    ok = worst_orth <= 1e-10 and worst_trace <= 1e-8 and worst_rt <= 1e-8
    _verdict(capsys, 5, label, ok,
             f"orth {worst_orth:.2e}, trace {worst_trace:.2e}, "
             f"round-trip {worst_rt:.2e}")
    assert ok


def test_criterion_6_metric_identities(capsys):
    label = "error-metric identities and exact decision-metric examples"
    rng = np.random.default_rng(4000)
    ordered = True
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        pairs = [(float(a), float(p))
                 for a, p in rng.uniform(0.0, 10.0, size=(n, 2))]
        if mae(pairs) > rmse(pairs) + 1e-12:
            ordered = False
            break
    rec = {f"r{i}" for i in range(10)}
    good = {"r0", "r1", "r2"} | {f"g{i}" for i in range(3)}
    exact = precision_recall_f1(rec, good) == (0.3, 0.5, 0.375)
    same = {"a", "b"}
    exact &= precision_recall_f1(same, same) == (1.0, 1.0, 1.0)
    # hits=1, |rec|=2, |good|=4 -> p=0.5, r=0.25, f1=1/3 exactly
    exact &= precision_recall_f1({"a", "x"}, {"a", "b", "c", "d"}) \
        == (0.5, 0.25, 1.0 / 3.0)
    errors = True
    for fn in (mae, rmse, bias):
        try:
            fn([])
        except ValueError:
            pass
        else:
            errors = False
    ok = ordered and exact and errors
    _verdict(capsys, 6, label, ok,
             f"mae<=rmse {ordered}, exact examples {exact}, "
             f"empty-input errors {errors}")
    assert ok


def test_criterion_7_multicriteria_pipeline(capsys):
    label = "multi-criteria pipeline accuracy on synthetic tensors"
    shape = dict(n_users=60, n_items=24, n_groups=4, n_criteria=3)
    neighborhood = NeighborhoodSpec(max_neighbors=3)

    noisy_spec = SyntheticTensorSpec(noise_std=0.1, seed=5, **shape)
    noisy = generate_tensor(noisy_spec)
    baseline = global_mean_baseline(noisy, 0.8, 5)
    noisy_rep = run_mc_benchmark(noisy, McBenchmarkConfig(
        ranks=noisy_spec.ranks, train_fraction=0.8, seed=5,
        sim="euclidean",
        neighborhood=neighborhood))
    improvement = (baseline - noisy_rep.mae) / baseline

    clean_spec = SyntheticTensorSpec(noise_std=0.0, seed=5, **shape)
    clean_rep = run_mc_benchmark(generate_tensor(clean_spec), McBenchmarkConfig(
        ranks=clean_spec.ranks, train_fraction=0.8, seed=5,
        sim="euclidean",
        neighborhood=neighborhood))

    source = generate_tensor(SyntheticTensorSpec(
        n_users=40, n_items=16, n_groups=4, n_criteria=3,
        noise_std=0.3, seed=67))
    overall = [RatingRecord(r.user_id, r.item_id, r.overall, None)
               for r in source.iter_records()]
    d = Dataset.from_records(overall, RatingScale.one_to_five())
    plain = run_benchmark(overall, BenchmarkConfig(
        sim="euclidean", train_fraction=0.8, seed=11))
    degen = run_mc_benchmark(
        oracles.duplicate_overall_tensor(d), McBenchmarkConfig(
            ranks=(d.n_users, d.n_items, 2), train_fraction=0.8, seed=11,
            sim="euclidean"))
    degen_gap = abs(degen.mae - plain.mae)

    ok = improvement >= 0.20 and clean_rep.mae <= 0.05 and degen_gap <= 1e-6
    _verdict(capsys, 7, label, ok,
             f"improvement {improvement:.1%}, noiseless MAE "
             f"{clean_rep.mae:.4f}, degenerate gap {degen_gap:.2e}")
    assert ok, (improvement, clean_rep.mae, degen_gap)


def test_criterion_8_determinism(capsys):
    label = "bitwise reproducibility of every randomized path"
    t = generate_tensor(SyntheticTensorSpec(
        n_users=40, n_items=18, n_groups=3, n_criteria=3,
        noise_std=0.3, seed=12))
    records = [RatingRecord(r.user_id, r.item_id, r.overall, None)
               for r in t.iter_records()]

    spec = SplitSpec(train_fraction=0.75, seed=9)
    split_same = split_train_test(records, spec) == split_train_test(records, spec)

    rng = np.random.default_rng(77)
    a = rng.normal(size=(25, 15))
    m1 = truncated_svd(a, 4, seed=13)
    m2 = truncated_svd(a, 4, seed=13)
    svd_same = (np.array_equal(m1.u, m2.u)
                and np.array_equal(m1.sigma, m2.sigma)
                and np.array_equal(m1.v, m2.v))

    cube = rng.normal(size=(7, 6, 4))
    h1 = hosvd(cube, (3, 3, 2), seed=5)
    h2 = hosvd(cube, (3, 3, 2), seed=5)
    hosvd_same = np.array_equal(h1.core, h2.core) and all(
        np.array_equal(f, g) for f, g in zip(h1.factors, h2.factors))

    cfg = BenchmarkConfig(sim="latent", train_fraction=0.8, seed=21,
                          latent_rank=6)
    report_same = (run_benchmark(records, cfg).to_text()
                   == run_benchmark(records, cfg).to_text())

    mc_cfg = McBenchmarkConfig(ranks=(2, 3, 4), train_fraction=0.8, seed=21)
    mc_same = (run_mc_benchmark(t, mc_cfg).to_text()
               == run_mc_benchmark(t, mc_cfg).to_text())

    ok = split_same and svd_same and hosvd_same and report_same and mc_same
    _verdict(capsys, 8, label, ok,
             f"split {split_same}, svd {svd_same}, hosvd {hosvd_same}, "
             f"benchmark {report_same}, mc benchmark {mc_same}")
    assert ok


# ---------------------------------------------------------------- criterion 9

def _desk_columns(matrix: np.ndarray) -> list[dict[int, float]]:
    cols = []
    for j in range(matrix.shape[1]):
        cols.append({u: float(matrix[u, j]) for u in range(matrix.shape[0])
                     if not math.isnan(matrix[u, j])})
    return cols


def _desk_user_means(matrix: np.ndarray) -> list[float]:
    means = []
    for u in range(matrix.shape[0]):
        vals = [float(v) for v in matrix[u] if not math.isnan(v)]
        means.append(sum(vals) / len(vals))
    return means


def _co_raters(ci: dict[int, float], cj: dict[int, float]) -> list[int]:
    return sorted(set(ci) & set(cj))


def _oracle_pearson(ci, cj, users=None, means=None):
    co = _co_raters(ci, cj)
    if len(co) < 2:
        return None
    x = [ci[u] for u in co]
    y = [cj[u] for u in co]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx <= 1e-9 or vy <= 1e-9:
        return None
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))


def _oracle_cosine(ci, cj, users=None, means=None):
    co = _co_raters(ci, cj)
    if len(co) < 2:
        return None
    sxx = sum(ci[u] ** 2 for u in co)
    syy = sum(cj[u] ** 2 for u in co)
    if sxx <= 1e-9 or syy <= 1e-9:
        return None
    sxy = sum(ci[u] * cj[u] for u in co)
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


def _oracle_adjusted_cosine(ci, cj, users=None, means=None):
    co = _co_raters(ci, cj)
    if len(co) < 2:
        return None
    x = [ci[u] - means[u] for u in co]
    y = [cj[u] - means[u] for u in co]
    nx = sum(a * a for a in x)
    ny = sum(b * b for b in y)
    if nx <= 1e-9 or ny <= 1e-9:
        return None
    num = sum(a * b for a, b in zip(x, y))
    return max(-1.0, min(1.0, num / math.sqrt(nx * ny)))


def _oracle_euclidean(ci, cj, users=None, means=None):
    co = _co_raters(ci, cj)
    if len(co) < 2:
        return None
    dist = math.sqrt(sum((ci[u] - cj[u]) ** 2 for u in co))
    return 1.0 / (1.0 + dist / math.sqrt(len(co)))


def _oracle_tanimoto(ci, cj, users=None, means=None):
    inter = len(set(ci) & set(cj))
    if inter < 1:
        return None
    union = len(set(ci) | set(cj))
    return inter / union


def _oracle_loglikelihood(ci, cj, users=None, means=None):
    k11 = len(set(ci) & set(cj))
    if k11 < 1:
        return None
    n = float(users)
    k12 = len(ci) - k11
    k21 = len(cj) - k11
    k22 = n - len(ci) - len(cj) + k11
    row1, col1 = k11 + k12, k11 + k21
    g = 0.0
    for k, row, col in ((k11, row1, col1), (k12, row1, n - col1),
                        (k21, n - row1, col1), (k22, n - row1, n - col1)):
        if k > 0:
            g += k * math.log(k * n / (row * col))
    g = max(0.0, 2.0 * g)
    return 1.0 - 1.0 / (1.0 + g)


DESK_ORACLES = {
    "pearson": _oracle_pearson,
    "adjusted_cosine": _oracle_adjusted_cosine,
    "cosine": _oracle_cosine,
    "euclidean": _oracle_euclidean,
    "tanimoto": _oracle_tanimoto,
    "loglikelihood": _oracle_loglikelihood,
}


def _oracle_predict(u, i, sims, cols, spec):
    """Exhaustive-loop weighted-mean prediction from an oracle sim table."""
    cand = []
    for j, col in enumerate(cols):
        if j == i or u not in col:
            continue
        s = sims[i][j] if i != j else None
        if s is None or s <= 0.0:
            continue
        cand.append((s, j, col[u]))
    cand.sort(key=lambda triple: (-triple[0], triple[1]))
    if spec.max_neighbors is not None:
        cand = cand[:spec.max_neighbors]
    denom = sum(abs(s) for s, _, _ in cand)
    if denom <= 1e-12:
        return None
    value = sum(s * r for s, _, r in cand) / denom
    return min(max(value, 1.0), 5.0), len(cand)


def test_criterion_9_desk_brute_force(capsys):
    label = "desk dataset similarities and predictions vs loop oracles"
    d = dataset_from_dense(DESK_MATRIX)
    cols = _desk_columns(DESK_MATRIX)
    means = _desk_user_means(DESK_MATRIX)
    n_users, n_items = DESK_MATRIX.shape
    specs = (NeighborhoodSpec(), NeighborhoodSpec(max_neighbors=3))

    worst_sim = 0.0
    worst_pred = 0.0
    agree = True
    factor = truncated_svd(impute_missing(DESK_MATRIX), 3, seed=0)
    latent_vecs = [list(map(float, row)) for row in factor.item_vectors()]

    for kind in (*DESK_ORACLES, "latent_cosine"):
        if kind == "latent_cosine":
            store = item_similarity_matrix(d, kind, model=factor)
            table = [[None] * n_items for _ in range(n_items)]
            for i in range(n_items):
                for j in range(n_items):
                    if i == j:
                        continue
                    vi, vj = latent_vecs[i], latent_vecs[j]
                    ni = sum(a * a for a in vi)
                    nj = sum(b * b for b in vj)
                    if ni <= 1e-9 or nj <= 1e-9:
                        continue
                    dot = sum(a * b for a, b in zip(vi, vj))
                    table[i][j] = max(-1.0, min(1.0,
                                                dot / math.sqrt(ni * nj)))
        else:
            store = item_similarity_matrix(d, kind)
            oracle = DESK_ORACLES[kind]
            table = [[oracle(cols[i], cols[j], n_users, means)
                      if i != j else None for j in range(n_items)]
                     for i in range(n_items)]

        for i in range(n_items):
            for j in range(n_items):
                if i == j:
                    continue
                got = oracles.sim(store, i, j)
                want = table[i][j]
                if (got is None) != (want is None):
                    agree = False
                elif got is not None:
                    worst_sim = max(worst_sim, abs(got - want))

        for spec in specs:
            for u in range(n_users):
                for i in range(n_items):
                    got = predict_single(f"u{u}", f"i{i}", d, store, spec)
                    want = _oracle_predict(u, i, table, cols, spec)
                    if (got is None) != (want is None):
                        agree = False
                    elif got is not None:
                        worst_pred = max(worst_pred,
                                         abs(got.value - want[0]))
                        agree &= got.support == want[1]

    ok = agree and worst_sim <= 1e-10 and worst_pred <= 1e-10
    _verdict(capsys, 9, label, ok,
             f"definedness/support agree {agree}, max sim err "
             f"{worst_sim:.2e}, max prediction err {worst_pred:.2e}")
    assert ok
