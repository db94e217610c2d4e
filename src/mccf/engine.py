"""Item-based neighborhood prediction and the multi-criteria pipeline.

Single-rating path: a Dataset plus a SimilarityStore predict held-out
ratings as similarity-weighted means over the target user's rated items.

Multi-criteria path (McModel): the rating tensor is imputed, factored with
a Tucker/HOSVD model (optionally mean-centered first), and per-criterion
item similarities are computed from the reconstructed slices restricted to
the observed-cell structure (or from shared latent item factors).  Criterion
predictions use the neighborhood formula over *observed* ratings; the
reconstructed tensor only fills in cells the neighborhood cannot reach.
A linear aggregation fitted on training cells maps criterion predictions
to the overall rating.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CriteriaTensor,
    Dataset,
    RatingScale,
    _IndexMap,
    criteria_slice,
)
from .linalg import (TuckerModel, check_cell_budget, hosvd, impute_missing,
                     tucker_reconstruct)
from .similarity import (
    SIMILARITY_KINDS,
    SimilarityStore,
    item_similarity_matrix,
)

# Below this total neighbor weight a weighted mean is numerically
# meaningless and the engine reports no-prediction instead.
DENOM_EPS = 1e-12


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Neighbor filter: size cap and similarity threshold.

    min_similarity=None keeps strictly positive similarities only (negative
    and zero weights are excluded); an explicit threshold keeps sims
    strictly above it, so e.g. -1.0 admits negative-similarity neighbors,
    which then enter the prediction with |sim| in the denominator.
    """

    max_neighbors: int | None = None
    min_similarity: float | None = None

    def __post_init__(self) -> None:
        k = self.max_neighbors
        if k is not None and (isinstance(k, bool)
                              or not isinstance(k, (int, np.integer)) or k < 1):
            raise ValueError(f"max_neighbors must be an integer >= 1, got {k!r}")
        t = self.min_similarity
        if t is not None and not math.isfinite(t):
            raise ValueError(f"min_similarity must be finite, got {t!r}")


@dataclass(frozen=True)
class Prediction:
    user_id: str
    item_id: str
    value: float
    support: int


def _keep_mask(sims: np.ndarray, spec: NeighborhoodSpec) -> np.ndarray:
    threshold = 0.0 if spec.min_similarity is None else spec.min_similarity
    return sims > threshold    # NaN compares False


def _groups(labels: np.ndarray):
    """(label, positions) for each distinct label, positions ascending."""
    order = labels.argsort(kind="stable")
    ordered = labels[order]
    edges = ((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist()
    for lo, hi in zip([0] + edges, edges + [len(order)]):
        if hi > lo:
            yield int(ordered[lo]), order[lo:hi]


def _neighborhood(sims: SimilarityStore, rated: np.ndarray, ratings: np.ndarray,
                  items: np.ndarray,
                  spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (len(items), c) values and the support of one user who
    rated the items `rated` with the (len(rated), c) `ratings`, for each
    item index in `items`; NaN values and 0 support mark no prediction.

    An item's neighbors are the user's rated items whose similarity to it
    passes the threshold; with a cap of k, the k most similar, ties going
    to the lower item index.  Each column's value is sum(w * r) / sum(|w|)
    over the one neighbor set.

    Every value is bitwise what a one-item-at-a-time loop gives, because
    the summation order is the same: ascending item index, or descending
    similarity (stable) where the cap cut the row.  Rows are grouped by
    neighbor count so each group is one np.vecdot over a contiguous
    (rows, c, count) block: the same BLAS ddot as a 1-D dot product.
    """
    # the store is symmetric: read the side with fewer rows
    w = (sims.values[items][:, rated] if len(items) <= len(rated)
         else sims.values[rated][:, items].T)
    keep = _keep_mask(w, spec)
    count = keep.sum(axis=1)
    k = spec.max_neighbors
    cut = count > k if k is not None else np.zeros(count.shape, dtype=bool)
    if cut.any():
        # keep the weights at or above the k-th largest kept one
        wc = np.where(keep[cut], w[cut], -np.inf)
        kth = np.partition(wc, -k, axis=1)[:, -k, None]
        sel = wc >= kth
        tied = (sel.sum(axis=1) > k).nonzero()[0]
        if tied.size:
            # too many ties at the k-th weight: the lower indices win
            ties = wc[tied] == kth[tied]
            room = k - (wc[tied] > kth[tied]).sum(axis=1, keepdims=True)
            sel[tied] &= ~ties | (ties.cumsum(axis=1) <= room)
        keep[cut] = sel
        count[cut] = k
    kept_w = w[keep]
    kept_r = ratings[keep.nonzero()[1]]
    start = count.cumsum() - count

    values = np.full((len(items), ratings.shape[1]), np.nan)
    for g, idx in _groups(np.where(cut, -1, count)):   # cut rows: group -1
        if g == 0:
            continue
        first = start[idx, None]
        pos = first + np.arange(k if g < 0 else g)
        if g < 0:
            pos = first + (-kept_w[pos]).argsort(axis=1, kind="stable")
        gw = kept_w[pos]
        denom = np.abs(gw).sum(axis=1)
        # a NaN denominator leaves the row NaN, without a warning
        denom[denom < DENOM_EPS] = np.nan
        gr = np.ascontiguousarray(kept_r[pos].transpose(0, 2, 1))
        values[idx] = np.vecdot(gw[:, None], gr) / denom[:, None]
    return values, np.where(np.isnan(values[:, 0]), 0, count)


def _predict_user(d: Dataset, sims: SimilarityStore, u: int, items: np.ndarray,
                  spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
    """Clamped (values, support) of user u for each item index in `items`."""
    rated, ratings = d.items_of(u)
    values, support = _neighborhood(sims, rated, ratings[:, None], items, spec)
    return values[:, 0].clip(d.scale.min_value, d.scale.max_value), support


def _unrated(n_items: int, rated: np.ndarray) -> np.ndarray:
    unrated = np.ones(n_items, dtype=bool)
    unrated[rated] = False
    return np.flatnonzero(unrated)


def _top_n(items: np.ndarray, values: np.ndarray,
           n: int) -> list[tuple[int, float]]:
    """The n best (item index, value) pairs, value descending and index
    ascending on ties; NaN values are left out."""
    ok = ~np.isnan(values)
    items, values = items[ok], values[ok]
    order = np.lexsort((items, -values))[:n]
    return list(zip(items[order].tolist(), values[order].tolist()))


def predict_single(user_id: str, item_id: str, d: Dataset,
                   sims: SimilarityStore,
                   spec: NeighborhoodSpec = NeighborhoodSpec()) -> Prediction | None:
    """Weighted-mean prediction; None when no usable neighborhood exists.

    Unknown users/items are a no-prediction (they count against coverage),
    not an error.
    """
    if not (d.has_user(user_id) and d.has_item(item_id)):
        return None
    values, support = _predict_user(d, sims, d.user_index(user_id),
                                    np.array([d.item_index(item_id)]), spec)
    if not support[0]:
        return None
    return Prediction(user_id, item_id, float(values[0]), int(support[0]))


def predict_matrix(d: Dataset, sims: SimilarityStore,
                   spec: NeighborhoodSpec = NeighborhoodSpec()) -> np.ndarray:
    """All (user, item) predictions at once; NaN marks no-prediction.

    Only valid for unbounded neighborhoods, where the weighted sums reduce
    to two matrix products over the full similarity matrix.  The products
    sum in another order than the neighborhood kernel, so values agree
    with predict_single to rounding, not bitwise.
    """
    if spec.max_neighbors is not None:
        raise ValueError("predict_matrix requires an unbounded neighborhood")
    s = np.where(_keep_mask(sims.values, spec), sims.values, 0.0)
    b = d.to_mask().astype(np.float64)
    r = np.nan_to_num(d.to_dense(), nan=0.0)
    num = r @ s     # r is 0 wherever b is, so r carries the mask
    den = b @ np.abs(s)
    out = np.full_like(num, np.nan)
    good = den >= DENOM_EPS
    out[good] = num[good] / den[good]
    return np.clip(out, d.scale.min_value, d.scale.max_value)


def batch_predict(d: Dataset, sims: SimilarityStore,
                  users: np.ndarray, items: np.ndarray,
                  spec: NeighborhoodSpec = NeighborhoodSpec()) -> np.ndarray:
    """Predictions for parallel index arrays; NaN marks no-prediction.

    One kernel call per distinct user, so every value equals
    predict_single's bitwise.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    out = np.full(users.shape, np.nan)
    for u, pos in _groups(users):
        out[pos] = _predict_user(d, sims, u, items[pos], spec)[0]
    return out


def recommend_top_n(d: Dataset, sims: SimilarityStore, user_id: str, n: int,
                    spec: NeighborhoodSpec = NeighborhoodSpec()) -> list[tuple[str, float]]:
    """Top-n unrated items by predicted rating.

    Sort is by value descending with ties broken by ascending internal item
    index; items without a prediction are left out; unknown user -> [].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not d.has_user(user_id):
        return []
    u = d.user_index(user_id)
    items = _unrated(d.n_items, d.items_of(u)[0])
    values, _ = _predict_user(d, sims, u, items, spec)
    return [(d.item_id(i), v) for i, v in _top_n(items, values, n)]


# ---- multi-criteria pipeline -----------------------------------------------


@dataclass(frozen=True)
class AggregationWeights:
    """Linear map criteria -> overall: w0 + sum(w_c * pred_c).

    fallback is set when the fit was underdetermined and equal weights
    (0, 1/k each) were substituted.
    """

    intercept: float
    weights: tuple[float, ...]
    fallback: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.intercept) or not np.all(np.isfinite(self.weights)):
            raise ValueError("aggregation weights must be finite")

    @property
    def k(self) -> int:
        return len(self.weights)


_RIDGE = 1e-6


def fit_aggregation(train: CriteriaTensor) -> AggregationWeights:
    """Least-squares fit of the overall on (1, criteria) over training cells.

    Normal equations with ridge damping on the Gram diagonal keep exactly
    collinear criteria solvable; fewer cells than parameters falls back to
    equal weights.
    """
    k = train.k
    cells = train.cell_matrix()
    if len(cells) < k + 1:
        return AggregationWeights(0.0, (1.0 / k,) * k, fallback=True)
    y = cells[:, 0]
    x = np.column_stack([np.ones(len(cells)), cells[:, 1:]])
    gram = x.T @ x + _RIDGE * np.eye(k + 1)
    w = np.linalg.solve(gram, x.T @ y)
    if not np.all(np.isfinite(w)):
        return AggregationWeights(0.0, (1.0 / k,) * k, fallback=True)
    return AggregationWeights(float(w[0]), tuple(float(v) for v in w[1:]))


def aggregate_overall(weights: AggregationWeights, criteria_preds,
                      scale: RatingScale) -> float:
    preds = np.asarray(criteria_preds, dtype=np.float64)
    if preds.shape != (weights.k,):
        raise ValueError(f"expected {weights.k} criterion predictions, "
                         f"got shape {preds.shape}")
    return float(_aggregate_rows(weights, preds[None, :], scale)[0])


def _aggregate_rows(weights: AggregationWeights, crits: np.ndarray,
                    scale: RatingScale) -> np.ndarray:
    """aggregate_overall for each row of a (n, k) array."""
    overall = weights.intercept + np.vecdot(crits, np.array(weights.weights))
    return np.clip(overall, scale.min_value, scale.max_value)


SIM_SPACES = ("reconstructed", "latent")


@dataclass(frozen=True)
class McConfig:
    """Pipeline knobs for build_mc_model."""

    pca_option: bool = False
    sim_space: str = "latent"
    sim_kind: str = "euclidean"
    impute_strategy: str = "item_mean"
    neighborhood: NeighborhoodSpec = field(default_factory=NeighborhoodSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sim_space not in SIM_SPACES:
            raise ValueError(f"unknown sim_space {self.sim_space!r}")
        if self.sim_space == "reconstructed":
            if self.sim_kind not in SIMILARITY_KINDS or self.sim_kind == "latent_cosine":
                raise ValueError(
                    f"sim_kind {self.sim_kind!r} not usable in reconstructed space"
                )


class McModel:
    """Immutable multi-criteria model; safe for concurrent prediction."""

    def __init__(self, tensor: CriteriaTensor, ranks: tuple[int, int, int],
                 config: McConfig, tucker: TuckerModel,
                 slice_means: np.ndarray | None, denoised: np.ndarray,
                 stores: tuple[SimilarityStore, ...],
                 criteria_data: tuple[Dataset, ...],
                 aggregation: AggregationWeights):
        self.tensor = tensor
        self.ranks = ranks
        self.config = config
        self.tucker = tucker
        self.slice_means = slice_means
        self.denoised = denoised
        # one store shared by all criteria (latent space) or one per criterion
        self.item_similarities = stores
        self.criteria_data = criteria_data
        self.aggregation = aggregation
        self.scale = tensor.scale
        self.denoised.setflags(write=False)

    @property
    def k(self) -> int:
        return self.tensor.k


def _reconstructed_slice_dataset(template: Dataset, values: np.ndarray) -> Dataset:
    """Template's observed structure with reconstructed values, clamped
    into scale since a truncated reconstruction may overshoot the bounds."""
    clamped = np.clip(values, template.scale.min_value, template.scale.max_value)
    return template.with_dense_values(clamped)


def impute_tensor(t: CriteriaTensor, strategy: str) -> np.ndarray:
    """Dense (users, items, k+1) copy of t, each slice imputed on its own;
    an over-budget tensor fails before any dense copy is made."""
    check_cell_budget(t.n_users * t.n_items * (t.k + 1))
    dense = t.to_dense()
    for s in range(t.k + 1):
        dense[:, :, s] = impute_missing(dense[:, :, s], strategy)
    return dense


def _denoise(t: CriteriaTensor, imputed: np.ndarray, tucker: TuckerModel,
             slice_means: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(reconstruction, denoised): observed cells keep their imputed value,
    every other cell takes the reconstructed one."""
    recon = tucker_reconstruct(tucker)
    if slice_means is not None:
        recon = recon + slice_means[None, :, :]
    return recon, np.where(t.to_mask()[:, :, None], imputed, recon)


def build_mc_model(t: CriteriaTensor, ranks: tuple[int, int, int],
                   config: McConfig = McConfig()) -> McModel:
    """Impute -> (center) -> HOSVD -> reconstruct -> similarities -> weights."""
    imputed = impute_tensor(t, config.impute_strategy)

    if config.pca_option:
        # center the user mode: each (item, slice) column loses its mean
        # over users, mirroring covariance-based factor extraction; the
        # means return after reconstruction
        slice_means = imputed.mean(axis=0)
        work = imputed - slice_means[None, :, :]
    else:
        slice_means = None
        work = imputed

    tucker = hosvd(work, ranks, seed=config.seed)
    recon, denoised = _denoise(t, imputed, tucker, slice_means)

    criteria_data = tuple(criteria_slice(t, c) for c in range(1, t.k + 1))
    if config.sim_space == "latent":
        stores = (item_similarity_matrix(criteria_data[0], "latent_cosine",
                                         model=tucker),)
    else:
        stores = tuple(
            item_similarity_matrix(
                _reconstructed_slice_dataset(criteria_data[c - 1], recon[:, :, c]),
                config.sim_kind,
            )
            for c in range(1, t.k + 1)
        )

    return McModel(t, tuple(int(r) for r in ranks), config, tucker,
                   slice_means, denoised, stores, criteria_data,
                   fit_aggregation(t))


def _criteria_rows(model: McModel, u: int, items: np.ndarray) -> np.ndarray:
    """(len(items), k) clamped criterion predictions of user u, one kernel
    call per similarity store: the latent space's one shared store scores
    all k criteria over one neighbor selection.  Criteria whose
    neighborhood yields nothing take the denoised tensor's value."""
    rated, cells = model.tensor.cells_of(u)
    stores = model.item_similarities
    # k columns for one shared store, or one column for each of k stores
    columns = np.array_split(np.arange(1, model.k + 1), len(stores))
    out = np.hstack([_neighborhood(s, rated, cells[:, c], items,
                                   model.config.neighborhood)[0]
                     for s, c in zip(stores, columns)])
    out = np.where(np.isnan(out), model.denoised[u, items, 1:], out)
    return np.clip(out, model.scale.min_value, model.scale.max_value)


def predict_criteria(model: McModel, user_id: str, item_id: str) -> np.ndarray | None:
    """Per-criterion predictions (clamped); None for unknown user/item.

    Criteria whose neighborhood yields nothing take the reconstructed-tensor
    value, so indexed pairs always get a full vector.
    """
    t = model.tensor
    if not (t.has_user(user_id) and t.has_item(item_id)):
        return None
    return _criteria_rows(model, t.user_index(user_id),
                          np.array([t.item_index(item_id)]))[0]


def predict_overall(model: McModel, user_id: str, item_id: str) -> float | None:
    preds = predict_criteria(model, user_id, item_id)
    if preds is None:
        return None
    return aggregate_overall(model.aggregation, preds, model.scale)


def mc_recommend_top_n(model: McModel, user_id: str, n: int) -> list[tuple[str, float]]:
    """Top-n items the user has no training cell for, by predicted overall."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = model.tensor
    if not t.has_user(user_id):
        return []
    u = t.user_index(user_id)
    items = _unrated(t.n_items, t.cells_of(u)[0])
    overall = _aggregate_rows(model.aggregation,
                              _criteria_rows(model, u, items), model.scale)
    return [(t.item_id(i), v) for i, v in _top_n(items, overall, n)]


# ---- persistence ------------------------------------------------------------

_MODEL_MAGIC = "mccf-model"
_SCHEMA_VERSION = 2


class ModelFormatError(ValueError):
    pass


def save_model(model: McModel, path) -> None:
    """Versioned .npz archive of the fitted arrays.

    The tensor goes in as its id arrays, the (user, item) index of every
    cell in cell_matrix() row order and cell_matrix() itself, so a load
    keeps every index map.  The file is written through an open handle:
    given a path, np.savez would append ".npz" to it.
    """
    cfg = model.config
    spec = cfg.neighborhood
    scale = model.scale
    t = model.tensor
    w = model.aggregation
    arrays = {
        "magic": np.array(_MODEL_MAGIC),
        "version": np.array(_SCHEMA_VERSION),
        "scale": np.array([scale.min_value, scale.max_value, scale.levels]),
        "grade_labels": np.array(scale.grade_labels or (), dtype=str),
        "ranks": np.array(model.ranks),
        "config": np.array(["on" if cfg.pca_option else "off", cfg.sim_space,
                            cfg.sim_kind, cfg.impute_strategy, str(cfg.seed)]),
        # NaN marks an unset neighborhood bound
        "neighborhood": np.array([
            np.nan if spec.max_neighbors is None else spec.max_neighbors,
            np.nan if spec.min_similarity is None else spec.min_similarity]),
        # intercept, the k weights, then the fallback flag as 0/1
        "aggregation": np.array((w.intercept, *w.weights, w.fallback)),
        "user_ids": np.array(t.user_ids, dtype=str),
        "item_ids": np.array(t.item_ids, dtype=str),
        "cell_index": np.stack(np.nonzero(t.to_mask()), axis=1),
        "cells": t.cell_matrix(),
        "core": model.tucker.core,
        "factor1": model.tucker.factors[0],
        "factor2": model.tucker.factors[1],
        "factor3": model.tucker.factors[2],
        "similarities": np.stack([s.values for s in model.item_similarities]),
    }
    if model.slice_means is not None:
        arrays["slice_means"] = model.slice_means
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_archive(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.lib.npyio.NpzFile):
                return {key: archive[key] for key in archive.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ModelFormatError(f"not a model file: {exc}") from exc
    raise ModelFormatError("not a model file")


def load_model(path) -> McModel:
    """Rebuild a model from save_model output (same schema version only).

    Only the denoised tensor and the per-criterion datasets are
    recomputed; every other array is the saved one.
    """
    a = _read_archive(path)
    if str(a.get("magic")) != _MODEL_MAGIC:
        raise ModelFormatError("not a model file")
    version = a.get("version")
    if version is None or version.shape != () or version.dtype.kind not in "iu":
        raise ModelFormatError("schema version is not an integer")
    if int(version) != _SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema version {int(version)}")
    try:
        return _model_from_arrays(a)
    except KeyError as exc:
        raise ModelFormatError(f"missing key {exc}") from exc
    except (ValueError, IndexError, TypeError) as exc:
        raise ModelFormatError(f"inconsistent model file: {exc}") from exc


def _model_from_arrays(a: dict[str, np.ndarray]) -> McModel:
    lo, hi, levels = a["scale"].tolist()
    scale = RatingScale(lo, hi, int(levels),
                        tuple(a["grade_labels"].tolist()) or None)
    pca, sim_space, sim_kind, impute, seed = a["config"].tolist()
    max_neighbors, min_similarity = a["neighborhood"].tolist()
    neighborhood = NeighborhoodSpec(
        None if np.isnan(max_neighbors) else int(max_neighbors),
        None if np.isnan(min_similarity) else min_similarity,
    )
    config = McConfig(pca_option=pca == "on", sim_space=sim_space,
                      sim_kind=sim_kind, impute_strategy=impute,
                      neighborhood=neighborhood, seed=int(seed))
    intercept, *weights, fallback = a["aggregation"].tolist()
    aggregation = AggregationWeights(intercept, tuple(weights),
                                     fallback=bool(fallback))

    user_ids = a["user_ids"].tolist()
    item_ids = a["item_ids"].tolist()
    cells = a["cells"]
    index = a["cell_index"]
    if index.shape != (len(cells), 2):
        raise ValueError("cell index does not match the cells")
    # the constructor rejects out-of-range and repeated cells
    k = aggregation.k
    tensor = CriteriaTensor(_IndexMap(user_ids), _IndexMap(item_ids), k,
                            index[:, 0], index[:, 1], cells, scale)

    tucker = TuckerModel(a["core"], (a["factor1"], a["factor2"], a["factor3"]))
    slice_means = a["slice_means"] if config.pca_option else None
    if slice_means is not None and slice_means.shape != (len(item_ids), k + 1):
        raise ValueError("slice means do not match the tensor")
    _, denoised = _denoise(tensor, impute_tensor(tensor, impute), tucker,
                           slice_means)

    sims = a["similarities"]
    n_stores = 1 if sim_space == "latent" else k
    if sims.shape != (n_stores, len(item_ids), len(item_ids)):
        raise ValueError("similarity stores do not match the tensor")
    kind = "latent_cosine" if sim_space == "latent" else sim_kind
    stores = tuple(SimilarityStore(kind, values, tensor.item_ids)
                   for values in sims)
    criteria_data = tuple(criteria_slice(tensor, c) for c in range(1, k + 1))
    return McModel(tensor, tuple(int(r) for r in a["ranks"]), config, tucker,
                   slice_means, denoised, stores, criteria_data, aggregation)
