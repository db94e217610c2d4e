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
partition and every report is bitwise reproducible.  As the split is keyed
by (user, item), no test pair is a training cell, so both harnesses take
each test user the training data knows once through the engine's ranking
step and read the top-N list and the held-out pairs from its scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Real
from pathlib import Path
from typing import Callable, ClassVar, Sequence

import numpy as np

from .core import (CriteriaRecord, CriteriaTensor, Dataset, RatingScale,
                   _Ratings, _check_integer)
from .engine import (
    McConfig,
    NeighborhoodSpec,
    _groups,
    _mc_score,
    _predict_user,
    _ranked,
    _weighted_means,
    build_mc_model,
    products_cells,
)
from .ingest import MOVIELENS_SCALE, SplitSpec, _parse_movielens, _train_mask
from .linalg import (CellTensor, _check_ranks, cell_factoring_cells,
                     check_cell_budget, truncated_svd)
from .similarity import item_similarity_matrix, store_cells

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
    if attempted <= 0:
        raise ValueError(f"no prediction attempts (got {attempted})")
    if not 0 <= made <= attempted:
        raise ValueError(f"made {made} predictions out of {attempted} attempts")
    cat = set(catalog)
    reachable = set(recommendable) & cat
    catalog_cov = len(reachable) / len(cat) if cat else 0.0
    return made / attempted, catalog_cov


@dataclass(frozen=True)
class RelevanceSpec:
    """Ratings at or above the threshold mark a test item as interesting."""

    threshold: float

    def __post_init__(self) -> None:
        t = self.threshold
        if isinstance(t, bool) or not isinstance(t, Real) or not abs(t) < math.inf:
            raise ValueError(f"relevance threshold must be a finite number, got {t!r}")

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

    CSV_FIELDS: ClassVar[tuple[str, ...]]     # the fields, in order

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


EvalReport.CSV_FIELDS = tuple(f.name for f in fields(EvalReport))


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
        SplitSpec(self.train_fraction, self.seed)
        _check_integer("top_n", self.top_n)
        _check_integer("latent_rank", self.latent_rank)
        if self.relevance_threshold is not None:
            RelevanceSpec(self.relevance_threshold)
        McConfig(neighborhood=self.neighborhood)    # McConfig checks the spec


def _batch(source, k: int | None = None) -> _Ratings:
    """The ratings of a MovieLens file path, a CriteriaTensor (its cells,
    user-major) or a record sequence (with k criteria when k is given)."""
    if isinstance(source, (str, Path)):
        return _parse_movielens(source, stamps=False)
    if isinstance(source, CriteriaTensor):
        return source._ratings()
    return _Ratings.of_records(source, k)


def _split(batch: _Ratings, fraction: float, seed: int):
    """(train, test) batches, each in input order."""
    if not len(batch.values):
        raise ValueError("input has no ratings")
    train = _train_mask(batch, SplitSpec(fraction, seed))
    if not train.any():
        raise ValueError("training split is empty; raise the train fraction")
    if train.all():
        raise ValueError("test split is empty; lower the train fraction")
    return batch.take(train), batch.take(~train)


def _build_store(train: Dataset, sim: str, latent_rank: int, seed: int):
    """Item similarities for a measure name of SIM_NAME_MAP."""
    kind = SIM_NAME_MAP[sim]
    if kind != "latent_cosine":
        return item_similarity_matrix(train, kind)
    # the factoring from the cells, then the store, before either runs
    check_cell_budget(_build_store_cells(train, sim, latent_rank))
    model = truncated_svd(CellTensor(train), latent_rank, seed=seed)
    return item_similarity_matrix(train, "latent_cosine", model=model)


def _build_store_cells(train: Dataset, sim: str, latent_rank: int) -> float:
    """Cells _build_store holds: the store, for latent after the factoring
    from the cells at latent_rank."""
    kind = SIM_NAME_MAP[sim]
    factoring = cell_factoring_cells((train.n_users, train.n_items, 1),
                                     train.n_ratings, (latent_rank, latent_rank, 1))
    return store_cells(train, kind) + (factoring if kind == "latent_cosine" else 0)


# only perfbench's replay calls this now; it goes with ROADMAP F
def _matrix_top_n(pm: np.ndarray, train: Dataset, u: int, n: int) -> list[int]:
    """Top-n unrated item indices from a precomputed prediction matrix;
    value descending, index ascending on ties (the engine's rule)."""
    top = _ranked(train, train.user_id(u), n, lambda u, items: pm[u, items, None])[2]
    return [i for i, _ in top]


def _decision_metrics(recommendations: dict[str, list[str]],
                      interesting: dict[str, set[str]],
                      catalog, attempted: int, made: int):
    """Macro-averaged precision/recall (+f1 of the averages) and coverage."""
    scores = [precision_recall_f1(recommendations.get(uid, []), good)[:2]
              for uid, good in interesting.items()] or [(0.0, 0.0)]
    precision, recall = (float(np.mean(c)) for c in zip(*scores))
    f1 = 0.0 if precision + recall == 0 else \
        2.0 * precision * recall / (precision + recall)
    pred_cov, cat_cov = coverage(attempted, made, catalog,
                                 set().union(*recommendations.values()))
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


def _scored_test(test: _Ratings, train: Dataset | CriteriaTensor,
                 threshold: float, top_n: int, width: int,
                 score: Callable[[int, np.ndarray], np.ndarray]):
    """The protocol of both harnesses.  Each test user the training data
    knows is scored once, by score(u, items) -> (len(items), width) on the
    items without a training cell; column 0 ranks the top-N list and is the
    prediction.  Returns which test rows were predicted, their rows, and
    the top-N item ids and interesting test items of each user."""
    interesting: dict[str, set[str]] = {}
    good = test.values[:, 0] >= threshold
    for u, i in zip(test.u[good].tolist(), test.i[good].tolist()):
        interesting.setdefault(test.user_ids[u], set()).add(test.item_ids[i])
    # each row's training item index, -1 where training lacks the item
    known = np.array([train._items.pos.get(x, -1) for x in test.item_ids],
                     dtype=np.int64)[test.i]
    rows = np.full((len(test.u), width), np.nan)
    recommendations: dict[str, list[str]] = {}
    for code, at in _groups(test.u):
        ranked = _ranked(train, test.user_ids[code], top_n, score)
        if ranked is None:
            continue
        items, scored, top = ranked
        recommendations[test.user_ids[code]] = [train.item_id(i) for i, _ in top]
        # no test pair is a training cell, so each known one is in items
        at = at[known[at] >= 0]
        rows[at] = scored.take(items.searchsorted(known[at]), axis=0)
    made = ~np.isnan(rows[:, 0])
    return made, rows[made], recommendations, interesting


def _report(config: BenchmarkConfig | McBenchmarkConfig, ranks,
            test: _Ratings, train: Dataset | CriteriaTensor, threshold: float,
            width: int, score) -> EvalReport:
    """A harness's report from its score (see _scored_test): column 0
    predicts the overall, any column c after it criterion c."""
    made, rows, recommendations, interesting = _scored_test(
        test, train, threshold, config.top_n, width, score)
    truths = test.values[made]
    mae_v, bias_v, rmse_v = _error_metrics(rows[:, 0], truths[:, 0])
    criteria_mae = tuple(_error_metrics(rows[:, c], truths[:, c])[0]
                         for c in range(1, width))
    precision, recall, f1, pred_cov, cat_cov = _decision_metrics(
        recommendations, interesting, train.item_ids, len(test.u), len(rows))
    return EvalReport(
        sim=config.sim, train_fraction=config.train_fraction,
        seed=config.seed, ranks=ranks,
        mae=mae_v, bias=bias_v, rmse=rmse_v,
        precision=precision, recall=recall, f1=f1,
        prediction_coverage=pred_cov, catalog_coverage=cat_cov,
        pair_count=len(rows),
        no_prediction_count=len(test.u) - len(rows),
        criteria_mae=criteria_mae,
    )


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
    neighborhoods predict through predict_matrix's two products, bounded
    ones through the per-user neighborhood kernel.  The unbounded step
    lets go of the store once its positive weights exist.
    """
    train, test = _split(_batch(source), config.train_fraction, config.seed)
    train = Dataset.from_records(train, _source_scale(source, scale))
    return _evaluate(train, test, config)


def _evaluate(train: Dataset, test: _Ratings,
              config: BenchmarkConfig) -> EvalReport:
    """run_benchmark after the split."""
    threshold = _relevance(config.relevance_threshold, train.scale)
    spec = config.neighborhood
    if spec.max_neighbors is None:
        # the store's build, then the products: the store is handed over
        # unnamed, so it is freed once the weights exist
        check_cell_budget(max(
            _build_store_cells(train, config.sim, config.latent_rank),
            products_cells(train)))
        pm = _weighted_means(train, np.fmax(_build_store(
            train, config.sim, config.latent_rank, config.seed).values, 0.0))

        def score(u: int, items: np.ndarray) -> np.ndarray:
            return pm[u, items, None]
    else:
        sims = _build_store(train, config.sim, config.latent_rank, config.seed)

        def score(u: int, items: np.ndarray) -> np.ndarray:
            return _predict_user(train, sims, u, items, spec)[0]

    ranks = (config.latent_rank,) if config.sim == "latent" else None
    return _report(config, ranks, test, train, threshold, 1, score)


def run_sweep(source, sims: Sequence[str], fractions: Sequence[float],
              seed: int, scale: RatingScale | None = None,
              top_n: int = 10,
              relevance_threshold: float | None = None) -> list[EvalReport]:
    """Benchmark grid: one report per (measure, fraction), fixed seed;
    source and scale as for run_benchmark.  Each fraction is split and
    indexed once, for all measures."""
    scale = _source_scale(source, scale)
    batch = _batch(source)
    reports = []
    for fraction in fractions:
        configs = [BenchmarkConfig(
            sim=sim, train_fraction=fraction, seed=seed, top_n=top_n,
            relevance_threshold=relevance_threshold) for sim in sims]
        train, test = _split(batch, fraction, seed)
        train = Dataset.from_records(train, scale)
        reports += [_evaluate(train, test, c) for c in configs]
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
    # the one fill the multi-criteria build uses; not a setting
    impute_strategy: ClassVar[str] = "item_mean"
    neighborhood: NeighborhoodSpec = field(default_factory=NeighborhoodSpec)

    def __post_init__(self) -> None:
        _check_ranks(self.ranks)
        # the fields shared with BenchmarkConfig and McConfig pass their checks
        BenchmarkConfig(self.sim, self.train_fraction, self.seed, self.top_n,
                        self.relevance_threshold)
        self.engine_config()
        latent = self.sim == "latent"
        if self.sim_space not in (None, "latent" if latent else "reconstructed"):
            raise ValueError(f"sim_space {self.sim_space!r} does not match "
                             f"sim {self.sim!r}")

    def engine_config(self) -> McConfig:
        return McConfig(pca_option=self.pca_option,
                        sim_kind=SIM_NAME_MAP[self.sim],
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
    if isinstance(source, CriteriaTensor):
        k, scale = source.k, source.scale
    elif k is None or scale is None:
        raise ValueError("record input needs explicit k and scale")
    else:
        source = list(source)
        if not all(isinstance(r, CriteriaRecord) for r in source):
            raise ValueError("records without criteria; pass CriteriaRecords")
    train, test = _split(_batch(source, k), config.train_fraction, config.seed)
    train = CriteriaTensor.from_records(train, k, scale)
    threshold = _relevance(config.relevance_threshold, scale)
    model = build_mc_model(train, config.ranks, config.engine_config())
    # unknown users or items are the only no-predictions
    return _report(config, tuple(config.ranks), test, train, threshold,
                   k + 1, lambda u, items: _mc_score(model, u, items))


def global_mean_baseline(source, fraction: float, seed: int) -> float:
    """MAE of always predicting the training mean, same split as the harness."""
    train, test = _split(_batch(source), fraction, seed)
    mean = float(np.mean(train.values[:, 0]))
    return float(np.mean(np.abs(mean - test.values[:, 0])))
