"""Error and decision-support metrics plus the benchmark harness.

Metric conventions:
- mae uses |p - r| (the signed mean, reported separately as ``bias``, would
  cancel over- and under-predictions and is not comparable to published
  numbers).
- precision/recall are macro-averaged over users whose test set contains at
  least one interesting item; the reported f1 is the harmonic mean of the
  two averages.
- Test pairs the engine cannot predict are excluded from mae/rmse and
  counted in no_prediction_count; prediction coverage = predicted/attempted.

The harness splits with the keyed-hash splitter from ingest (no second
source of randomness), so a (fraction, seed) pair fully determines the
partition and every report is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import CriteriaRecord, CriteriaTensor, Dataset, RatingScale
from .engine import (
    McConfig,
    NeighborhoodSpec,
    _aggregate_rows,
    _criteria_rows,
    _groups,
    _top_n,
    _unrated,
    batch_predict,
    build_mc_model,
    mc_recommend_top_n,
    predict_matrix,
    recommend_top_n,
)
from .ingest import MOVIELENS_SCALE, SplitSpec, parse_movielens, split_train_test
from .linalg import impute_missing, truncated_svd
from .similarity import check_store_budget, item_similarity_matrix

# CLI-facing measure names -> similarity-module kinds
SIM_NAME_MAP = {
    "pearson": "pearson",
    "euclidean": "euclidean",
    "loglikelihood": "loglikelihood",
    "tanimoto": "tanimoto",
    "adjusted-cosine": "adjusted_cosine",
    "latent": "latent_cosine",
}


def _pair_array(pairs) -> np.ndarray:
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one (prediction, truth) pair")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("pairs must be finite")
    return arr


def mae(pairs) -> float:
    arr = _pair_array(pairs)
    return float(np.abs(arr[:, 0] - arr[:, 1]).mean())


def bias(pairs) -> float:
    """Mean signed error (prediction minus truth); 0 for unbiased errors."""
    arr = _pair_array(pairs)
    return float((arr[:, 0] - arr[:, 1]).mean())


def rmse(pairs) -> float:
    arr = _pair_array(pairs)
    diff = arr[:, 0] - arr[:, 1]
    return float(math.sqrt((diff * diff).mean()))


def precision_recall_f1(recommended, interesting) -> tuple[float, float, float]:
    """Set-overlap metrics; empty sets give 0 rather than an error.

    f1 uses the count form 2|∩| / (|rec| + |good|), which equals the
    harmonic mean of precision and recall but avoids its rounding (one
    integer division instead of three chained ones).
    """
    rec = set(recommended)
    good = set(interesting)
    hits = len(rec & good)
    p = hits / len(rec) if rec else 0.0
    r = hits / len(good) if good else 0.0
    denom = len(rec) + len(good)
    f1 = 2.0 * hits / denom if denom else 0.0
    return p, r, f1


def coverage(attempted: int, made: int, catalog,
             recommendable) -> tuple[float, float]:
    """(prediction coverage, catalog coverage)."""
    if attempted == 0:
        raise ValueError("no prediction attempts")
    if made > attempted:
        raise ValueError(f"made {made} predictions out of {attempted} attempts")
    cat = set(catalog)
    reachable = set(recommendable) & cat
    catalog_cov = len(reachable) / len(cat) if cat else 0.0
    return made / attempted, catalog_cov


@dataclass(frozen=True)
class RelevanceSpec:
    """Ratings at or above the threshold mark a test item as interesting."""

    threshold: float

    @classmethod
    def default_for(cls, scale: RatingScale) -> "RelevanceSpec":
        # top third of the scale: 4 on 1-5, 9 on the 13-level ladder
        return cls(float(math.ceil(scale.max_value - scale.span / 3.0)))

    def check(self, scale: RatingScale) -> "RelevanceSpec":
        if not scale.contains(self.threshold):
            raise ValueError(
                f"relevance threshold {self.threshold} outside scale "
                f"[{scale.min_value}, {scale.max_value}]"
            )
        return self


@dataclass(frozen=True)
class EvalReport:
    """One benchmark run: error metrics, decision metrics, coverage, and
    the configuration that produced them."""

    sim: str
    train_fraction: float
    seed: int
    ranks: tuple[int, int, int] | None
    mae: float
    bias: float
    rmse: float
    precision: float
    recall: float
    f1: float
    prediction_coverage: float
    catalog_coverage: float
    pair_count: int
    no_prediction_count: int
    criteria_mae: tuple[float, ...] = ()

    CSV_FIELDS = (
        "sim", "train_fraction", "seed", "ranks", "mae", "bias", "rmse",
        "precision", "recall", "f1", "prediction_coverage",
        "catalog_coverage", "pair_count", "no_prediction_count",
        "criteria_mae",
    )

    def _cells(self, fraction: str, digits: int) -> dict[str, str]:
        """CSV_FIELDS -> formatted value, metrics to `digits` decimals."""
        metrics = ("mae", "bias", "rmse", "precision", "recall", "f1",
                   "prediction_coverage", "catalog_coverage")
        return {
            "sim": self.sim, "train_fraction": fraction, "seed": str(self.seed),
            "ranks": "-" if self.ranks is None else ",".join(map(str, self.ranks)),
            **{m: f"{getattr(self, m):.{digits}f}" for m in metrics},
            "pair_count": str(self.pair_count),
            "no_prediction_count": str(self.no_prediction_count),
            "criteria_mae": ";".join(f"{v:.{digits}f}" for v in self.criteria_mae),
        }

    def to_text(self) -> str:
        """key=value lines, one metric per line; criteria_mae only when set."""
        cells = self._cells(str(self.train_fraction), 6)
        if not self.criteria_mae:
            del cells["criteria_mae"]
        return "\n".join(f"{key}={value}" for key, value in cells.items())

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)

    def to_csv_row(self) -> str:
        cells = self._cells(f"{self.train_fraction:.4f}", 4)
        cells["ranks"] = cells["ranks"].replace(",", ";")
        return ",".join(cells.values())


@dataclass(frozen=True)
class BenchmarkConfig:
    """Single-criterion benchmark: measure, split, and protocol knobs."""

    sim: str
    train_fraction: float
    seed: int
    top_n: int = 10
    relevance_threshold: float | None = None
    latent_rank: int = 8
    neighborhood: NeighborhoodSpec = field(default_factory=NeighborhoodSpec)

    def __post_init__(self) -> None:
        if self.sim not in SIM_NAME_MAP:
            raise ValueError(f"unknown similarity {self.sim!r}; "
                             f"choose from {sorted(SIM_NAME_MAP)}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.latent_rank < 1:
            raise ValueError("latent_rank must be >= 1")


def _records(source) -> list:
    """The records of a MovieLens file path, a CriteriaTensor or a record
    sequence."""
    if isinstance(source, (str, Path)):
        return parse_movielens(source)
    if isinstance(source, CriteriaTensor):
        return list(source.iter_records())
    return list(source)


def _split_records(records, fraction: float, seed: int):
    train_recs, test_recs = split_train_test(records, SplitSpec(fraction, seed))
    if not train_recs:
        raise ValueError("training split is empty; raise the train fraction")
    if not test_recs:
        raise ValueError("test split is empty; lower the train fraction")
    return train_recs, test_recs


def _build_store(train: Dataset, sim: str, latent_rank: int, seed: int):
    """Item similarities for a measure name of SIM_NAME_MAP."""
    kind = SIM_NAME_MAP[sim]
    if kind != "latent_cosine":
        return item_similarity_matrix(train, kind)
    check_store_budget(train)
    rank = min(latent_rank, train.n_users, train.n_items)
    imputed = impute_missing(train.to_dense(), "item_mean")
    model = truncated_svd(imputed, rank, seed=seed)
    return item_similarity_matrix(train, "latent_cosine", model=model)


def _matrix_top_n(pm: np.ndarray, train: Dataset, u: int, n: int) -> list[int]:
    """Top-n unrated item indices from a precomputed prediction matrix;
    value descending, index ascending on ties (the engine's rule)."""
    items = _unrated(train.n_items, train.items_of(u)[0])
    return [i for i, _ in _top_n(items, pm[u, items], n)]


def _decision_metrics(recommendations: dict[str, list[str]],
                      interesting: dict[str, set[str]],
                      catalog, attempted: int, made: int):
    """Macro-averaged precision/recall (+f1 of the averages) and coverage."""
    precisions: list[float] = []
    recalls: list[float] = []
    recommended_union: set[str] = set()
    for uid, top in recommendations.items():
        recommended_union.update(top)
    for uid, good in interesting.items():
        if not good:
            continue
        p, r, _ = precision_recall_f1(recommendations.get(uid, []), good)
        precisions.append(p)
        recalls.append(r)
    precision = float(np.mean(precisions)) if precisions else 0.0
    recall = float(np.mean(recalls)) if recalls else 0.0
    f1 = 0.0 if precision + recall == 0 else \
        2.0 * precision * recall / (precision + recall)
    pred_cov, cat_cov = coverage(attempted, made, catalog, recommended_union)
    return precision, recall, f1, pred_cov, cat_cov


def _error_metrics(preds: np.ndarray,
                   truths: np.ndarray) -> tuple[float, float, float]:
    """(mae, bias, rmse) over the pairs; NaN each when there are none."""
    if not len(preds):
        return (float("nan"),) * 3
    pairs = np.column_stack([preds, truths])
    return mae(pairs), bias(pairs), rmse(pairs)


def _relevance(threshold: float | None, scale: RatingScale) -> float:
    if threshold is None:
        return RelevanceSpec.default_for(scale).threshold
    return RelevanceSpec(threshold).check(scale).threshold


def _decision_stage(test_recs, train: Dataset | CriteriaTensor,
                    threshold: float, top_n_ids: Callable[[str], list[str]],
                    made: int):
    """The protocol both harnesses share: every test user the training data
    knows gets a top-N list, scored against the test items rated at or
    above the relevance threshold; returns _decision_metrics' tuple."""
    interesting: dict[str, set[str]] = {}
    test_users: dict[str, None] = {}
    for rec in test_recs:
        test_users.setdefault(rec.user_id)
        if rec.overall >= threshold:
            interesting.setdefault(rec.user_id, set()).add(rec.item_id)
    recommendations = {uid: top_n_ids(uid) for uid in test_users
                       if train.has_user(uid)}
    return _decision_metrics(recommendations, interesting, train.item_ids,
                             len(test_recs), made)


def _known_cells(test_recs, train: Dataset | CriteriaTensor):
    """The test records whose user and item the training data knows, in
    order, with their user and item index arrays."""
    known = [rec for rec in test_recs
             if train.has_user(rec.user_id) and train.has_item(rec.item_id)]
    users = np.array([train.user_index(r.user_id) for r in known], dtype=np.int64)
    items = np.array([train.item_index(r.item_id) for r in known], dtype=np.int64)
    return known, users, items


def _source_scale(source, scale: RatingScale | None) -> RatingScale:
    """The given scale, else a tensor's own, else MovieLens 1-5."""
    default = source.scale if isinstance(source, CriteriaTensor) else MOVIELENS_SCALE
    return default if scale is None else scale


def run_benchmark(source, config: BenchmarkConfig,
                  scale: RatingScale | None = None) -> EvalReport:
    """Split -> similarity store on train -> predict every test pair -> metrics.

    ``source`` is a MovieLens file path, a record sequence or a
    CriteriaTensor (whose overall ratings are used).  The scale defaults
    to a tensor's own and to MovieLens 1-5 otherwise.  Unbounded
    neighborhoods predict through predict_matrix, bounded ones through the
    per-user neighborhood kernel.
    """
    scale = _source_scale(source, scale)
    train_recs, test_recs = _split_records(
        _records(source), config.train_fraction, config.seed)
    train = Dataset.from_records(train_recs, scale)
    threshold = _relevance(config.relevance_threshold, scale)
    sims = _build_store(train, config.sim, config.latent_rank, config.seed)
    spec = config.neighborhood

    known, users, items = _known_cells(test_recs, train)
    truths = np.array([r.overall for r in known], dtype=np.float64)
    if spec.max_neighbors is None:
        pm = predict_matrix(train, sims, spec)
        preds = pm[users, items]

        def top_n_ids(uid: str) -> list[str]:
            return [train.item_id(i) for i in _matrix_top_n(
                pm, train, train.user_index(uid), config.top_n)]
    else:
        preds = batch_predict(train, sims, users, items, spec)

        def top_n_ids(uid: str) -> list[str]:
            return [item for item, _ in
                    recommend_top_n(train, sims, uid, config.top_n, spec)]

    made = ~np.isnan(preds)
    pair_count = int(made.sum())
    mae_v, bias_v, rmse_v = _error_metrics(preds[made], truths[made])
    precision, recall, f1, pred_cov, cat_cov = _decision_stage(
        test_recs, train, threshold, top_n_ids, pair_count)

    report_ranks = (config.latent_rank,) if config.sim == "latent" else None
    return EvalReport(
        sim=config.sim, train_fraction=config.train_fraction,
        seed=config.seed, ranks=report_ranks,
        mae=mae_v, bias=bias_v, rmse=rmse_v,
        precision=precision, recall=recall, f1=f1,
        prediction_coverage=pred_cov, catalog_coverage=cat_cov,
        pair_count=pair_count,
        no_prediction_count=len(test_recs) - pair_count,
    )


def run_sweep(source, sims: Sequence[str], fractions: Sequence[float],
              seed: int, scale: RatingScale | None = None,
              top_n: int = 10,
              relevance_threshold: float | None = None) -> list[EvalReport]:
    """Benchmark grid: one report per (measure, fraction), fixed seed;
    source and scale as for run_benchmark."""
    scale = _source_scale(source, scale)
    records = _records(source)
    reports = []
    for fraction in fractions:
        for sim in sims:
            config = BenchmarkConfig(
                sim=sim, train_fraction=fraction, seed=seed, top_n=top_n,
                relevance_threshold=relevance_threshold)
            reports.append(run_benchmark(records, config, scale))
    return reports


@dataclass(frozen=True)
class McBenchmarkConfig:
    """Multi-criteria benchmark: factorization ranks plus protocol knobs.
    sim "latent" picks the latent space, any other measure the
    reconstructed one; sim_space, if given, must name the same space."""

    ranks: tuple[int, int, int]
    train_fraction: float
    seed: int
    pca_option: bool = False
    sim_space: str | None = None
    sim: str = "latent"
    top_n: int = 10
    relevance_threshold: float | None = None
    impute_strategy: str = "item_mean"
    neighborhood: NeighborhoodSpec = field(default_factory=NeighborhoodSpec)

    def __post_init__(self) -> None:
        if len(self.ranks) != 3 or any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be three positive integers")
        # the fields shared with BenchmarkConfig pass its checks
        BenchmarkConfig(self.sim, self.train_fraction, self.seed, self.top_n)
        latent = self.sim == "latent"
        if self.sim_space not in (None, "latent" if latent else "reconstructed"):
            raise ValueError(f"sim_space {self.sim_space!r} does not match "
                             f"sim {self.sim!r}")

    def engine_config(self) -> McConfig:
        return McConfig(pca_option=self.pca_option,
                        sim_kind=SIM_NAME_MAP[self.sim],
                        impute_strategy=self.impute_strategy,
                        neighborhood=self.neighborhood, seed=self.seed)


def run_mc_benchmark(source, config: McBenchmarkConfig,
                     k: int | None = None,
                     scale: RatingScale | None = None) -> EvalReport:
    """Multi-criteria protocol: split cells -> build McModel on the train
    tensor -> predict each held-out overall (plus per-criterion MAE).

    ``source`` is a CriteriaTensor or a CriteriaRecord sequence (with k and
    scale given).
    """
    if isinstance(source, (str, Path)):
        raise ValueError("a path has no criteria; pass a tensor or records")
    records = _records(source)
    if isinstance(source, CriteriaTensor):
        k, scale = source.k, source.scale
    elif k is None or scale is None:
        raise ValueError("record input needs explicit k and scale")
    elif not all(isinstance(r, CriteriaRecord) for r in records):
        raise ValueError("records without criteria; pass CriteriaRecords")
    train_recs, test_recs = _split_records(records, config.train_fraction,
                                           config.seed)
    train = CriteriaTensor.from_records(train_recs, k, scale)
    caps = (train.n_users, train.n_items, k + 1)
    if any(r > cap for r, cap in zip(config.ranks, caps)):
        raise ValueError(f"ranks {config.ranks} exceed tensor dims {caps}")
    threshold = _relevance(config.relevance_threshold, scale)
    model = build_mc_model(train, config.ranks, config.engine_config())

    # held-out cells, one row of criterion predictions per known cell;
    # unknown users or items are the only no-predictions
    known, users, items = _known_cells(test_recs, train)
    crits = np.empty((len(known), k))
    for u, group in _groups(users):
        crits[group] = _criteria_rows(model, u, items[group])
    overall = _aggregate_rows(model.aggregation, crits, scale)
    truths = np.array([(r.overall, *r.criteria) for r in known],
                      dtype=np.float64).reshape(-1, k + 1)
    mae_v, bias_v, rmse_v = _error_metrics(overall, truths[:, 0])
    criteria_mae = tuple(_error_metrics(crits[:, c], truths[:, c + 1])[0]
                         for c in range(k))

    def top_n_ids(uid: str) -> list[str]:
        return [item for item, _ in mc_recommend_top_n(model, uid, config.top_n)]

    precision, recall, f1, pred_cov, cat_cov = _decision_stage(
        test_recs, train, threshold, top_n_ids, len(known))

    return EvalReport(
        sim=config.sim,
        train_fraction=config.train_fraction, seed=config.seed,
        ranks=tuple(config.ranks),
        mae=mae_v, bias=bias_v, rmse=rmse_v,
        precision=precision, recall=recall, f1=f1,
        prediction_coverage=pred_cov, catalog_coverage=cat_cov,
        pair_count=len(known),
        no_prediction_count=len(test_recs) - len(known),
        criteria_mae=criteria_mae,
    )


def global_mean_baseline(source, fraction: float, seed: int) -> float:
    """MAE of always predicting the training mean, same split as the harness."""
    train_recs, test_recs = _split_records(_records(source), fraction, seed)
    mean = float(np.mean([r.overall for r in train_recs]))
    return float(np.mean([abs(mean - r.overall) for r in test_recs]))
