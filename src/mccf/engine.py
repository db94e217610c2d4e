"""Item-based neighborhood prediction and the multi-criteria pipeline.

Single-rating path: a Dataset plus a SimilarityStore predict held-out
ratings as similarity-weighted means over the target user's rated items.

Multi-criteria path (McModel): the rating tensor, filled slice by slice
with item means and optionally mean-centred, is factored with a Tucker/HOSVD model
straight from its cells (linalg.CellTensor), so no dense tensor exists in
the build or the model.  Per-criterion item similarities are computed
from the reconstruction at the observed cells (or, for the latent_cosine
kind, from shared latent item factors).  Criterion predictions use the
neighborhood formula over *observed* ratings; a criterion the
neighborhood cannot reach takes the cell's rating where it is observed
and the reconstruction U1[u] . w[i] elsewhere.  A linear aggregation
fitted on training cells maps criterion predictions to the overall
rating.

Each model kind has one score of a user's items, _predict_user's one
column or _mc_score's overall and k criteria, and every top-N list, of a
request or of a benchmark harness, comes from one ranking step, _ranked.

A model holds no per-criterion copy of the cells.  A saved model holds
the training tensor, the settings and the Tucker factors; a load runs the
model's one constructor on them, as a build does.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CriteriaTensor,
    Dataset,
    RatingScale,
    _CELL_BLOCK,
    _IndexMap,
    _SEED_BOUND,
    _check_integer,
    criteria_slice,
)
from .linalg import (CellTensor, TuckerModel, _check_ranks, _item_means,
                     cell_factoring_cells, check_cell_budget, hosvd)
from .similarity import (
    SIMILARITY_KINDS,
    SimilarityStore,
    item_similarity_matrix,
    store_cells,
)

# Below this total neighbor weight a weighted mean is numerically
# meaningless and the engine reports no-prediction instead.
DENOM_EPS = 1e-12


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Neighborhood size cap; None keeps every positive-similarity neighbor."""

    max_neighbors: int | None = None

    def __post_init__(self) -> None:
        if self.max_neighbors is not None:
            _check_integer("max_neighbors", self.max_neighbors)


@dataclass(frozen=True)
class Prediction:
    user_id: str
    item_id: str
    value: float
    support: int


def _groups(labels: np.ndarray):
    """(label, positions) for each distinct label, positions ascending."""
    order = labels.argsort(kind="stable")
    ordered = labels[order]
    edges = ((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist()
    for lo, hi in zip([0] + edges, edges + [len(order)]):
        if hi > lo:
            yield int(ordered[lo]), order[lo:hi]


def _select(sims: SimilarityStore, rated: np.ndarray, items: np.ndarray,
            k: int | None) -> np.ndarray:
    """The kept neighbors of each item index in `items` among a user's rated
    items `rated`: the (len(items), len(rated)) weights, nonzero just there.

    An item's neighbors are the rated items of strictly positive similarity
    to it; with a cap of k, the k most similar, ties going to the lower item
    index.  Rows of more than k positive weights, counted only when the user
    rated more than k items, are capped: one ascending sort of a copy of them
    gives each its k-th largest weight; one multiply in place by w >= a
    threshold per row (that weight, or 0 for an uncut row) zeroes the
    smaller ones, and ties at it past the top k's room go to 0 in item order.
    """
    n, m = len(items), len(rated)
    # the store is symmetric: gather from the side with fewer rows; either
    # way w is a new C-ordered block, so its rows sum in one order
    w = (sims.values[items[:, None], rated] if n <= m
         else sims.values[rated].T[items])
    np.fmax(w, 0.0, out=w)          # NaN and non-positive weights to 0
    cut = [] if k is None or m <= k else ((w > 0).sum(axis=1) > k).nonzero()[0]
    if len(cut):
        # a sorted copy of the cut rows ends with the k largest weights, all
        # positive, so the k-th largest is each one's threshold
        srt = w[cut]
        srt.sort(axis=1)
        kth = srt[:, m - k]
        thr = np.zeros((n, 1))
        thr[cut, 0] = kth
        w *= (w >= thr)
        tied = (srt[:, m - k - 1] == kth).nonzero()[0]
        if tied.size:
            # too many ties at the k-th weight: the lower indices win,
            # as many as the top k has room for beside the larger weights
            room = k - (srt[tied, m - k:] > kth[tied, None]).sum(axis=1)
            rows = cut[tied]
            r, c = (w[rows] == kth[tied, None]).nonzero()
            # a tie's rank in its row: its place less its row's first place
            drop = np.arange(len(r)) - np.searchsorted(r, r) >= room[r]
            w[rows[r[drop]], c[drop]] = 0.0
    return w


def _neighborhood(sims: SimilarityStore, rated: np.ndarray, ratings: np.ndarray,
                  items: np.ndarray,
                  spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (len(items), c) values of one user who rated the items
    `rated` with the (len(rated), c) `ratings`, for each item index in
    `items`, NaN for no prediction, and _select's kept weights w.

    A column's value is sum(w * r) / sum(w) over the whole rated row: one
    row sum and one np.vecdot (a 1-D BLAS ddot) in ascending item order, as
    a one-item-at-a-time loop sums, so every value is that loop's, bitwise.
    A row's den, a sum of weights >= 0, is 0 with no positive neighbor and
    in (0, DENOM_EPS) with a negligible total weight: no prediction either way.
    """
    w = _select(sims, rated, items, spec.max_neighbors)
    den = w.sum(axis=1)
    num = np.vecdot(w, np.ascontiguousarray(ratings.T)[:, None, :])
    den[den < DENOM_EPS] = np.nan    # the row stays NaN, without a warning
    return (num / den).T, w


def _predict_user(d: Dataset, sims: SimilarityStore, u: int, items: np.ndarray,
                  spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
    """User u's clamped (len(items), 1) plain scores and kept weights; store checked."""
    rated, ratings = d.items_of(u)
    values, w = _neighborhood(sims, rated, ratings[:, None], items, spec)
    return values.clip(d.scale.min_value, d.scale.max_value, out=values), w


def _check_store(d: Dataset, sims: SimilarityStore) -> None:
    """ValueError unless the store indexes d's items, in d's order; a store
    built from d holds d's own id tuple, so one identity test passes it."""
    if sims.item_ids is not d.item_ids and sims.item_ids != d.item_ids:
        raise ValueError("the similarity store indexes other items than the data")


def _ranked(cells: Dataset | CriteriaTensor, user_id: str, n: int, score):
    """Every top-N list's one ranking step: the user's items without a cell,
    score(u, items) -> (len(items), width) on them and the top n (item
    index, value) pairs by column 0; None for an unknown user."""
    _check_integer("n", n)
    u = cells._users.pos.get(user_id)
    if u is None:
        return None
    unrated = np.ones(cells.n_items, dtype=bool)
    unrated[cells._row(u)[0]] = False
    items = np.flatnonzero(unrated)
    scored = score(u, items)
    return items, scored, _top_n(items, scored[:, 0], n)


def _top_n(items: np.ndarray, values: np.ndarray,
           n: int) -> list[tuple[int, float]]:
    """The n best (item index, value) pairs, value descending and index
    ascending on ties; NaN values are left out.  Ties keep their order in
    `items`, which every caller passes ascending."""
    ok = ~np.isnan(values)
    items, values = items[ok], values[ok]
    if n < len(values):     # keep the n-th best value and all above
        keep = values >= np.partition(values, -n)[-n]
        items, values = items[keep], values[keep]
    order = np.argsort(-values, kind="stable")[:n]
    return list(zip(items[order].tolist(), values[order].tolist()))


def predict_single(user_id: str, item_id: str, d: Dataset,
                   sims: SimilarityStore,
                   spec: NeighborhoodSpec = NeighborhoodSpec()) -> Prediction | None:
    """Weighted-mean prediction; None when no usable neighborhood exists.

    Unknown users/items are a no-prediction (they count against coverage),
    not an error.
    """
    _check_store(d, sims)
    if not (d.has_user(user_id) and d.has_item(item_id)):
        return None
    values, w = _predict_user(d, sims, d.user_index(user_id),
                              np.array([d.item_index(item_id)]), spec)
    if np.isnan(values[0, 0]):
        return None
    return Prediction(user_id, item_id, float(values[0, 0]), int(np.count_nonzero(w)))


def predict_matrix(d: Dataset, sims: SimilarityStore,
                   spec: NeighborhoodSpec = NeighborhoodSpec()) -> np.ndarray:
    """All (user, item) predictions at once; NaN marks no-prediction.

    Only valid for unbounded neighborhoods, where the weighted sums reduce
    to two matrix products over the full similarity matrix.  The products
    sum in another order than the neighborhood kernel, so values agree
    with predict_single to rounding, not bitwise.  Data over the budget
    for its products_cells is rejected before any array is formed.
    """
    if spec.max_neighbors is not None:
        raise ValueError("predict_matrix requires an unbounded neighborhood")
    _check_store(d, sims)
    check_cell_budget(products_cells(d))
    return _weighted_means(d, np.fmax(sims.values, 0.0))


def products_cells(d: Dataset) -> int:
    """Float64 cells predict_matrix holds: the store, the positive weights
    and three users x items arrays: the ratings (then the mask), the
    numerator, the denominator."""
    return 2 * d.n_items ** 2 + 3 * d.n_users * d.n_items


def _weighted_means(d: Dataset, s: np.ndarray) -> np.ndarray:
    """predict_matrix from the positive weights s (the kernel's np.fmax of
    the store) and _Cells._user_block's zero-filled ratings, then mask: one
    unblocked product each, as blocks change bits.  _neighborhood's rule:
    a den below DENOM_EPS (0: no positive neighbor) is no prediction."""
    num = d._user_block(0, d.n_users, 0, (d.values,), np.float64)[0] @ s
    den = d.to_mask(np.float64) @ s
    den[den < DENOM_EPS] = np.nan    # the cell stays NaN, without a warning
    num /= den
    return np.clip(num, d.scale.min_value, d.scale.max_value, out=num)


def batch_predict(d: Dataset, sims: SimilarityStore,
                  users: np.ndarray, items: np.ndarray,
                  spec: NeighborhoodSpec = NeighborhoodSpec()) -> np.ndarray:
    """Predictions for parallel index arrays; NaN marks no-prediction.

    One kernel call per distinct user, so every value equals predict_single's
    bitwise.  The store is checked before the pairs (_Cells._pairs's checks).
    """
    _check_store(d, sims)
    users, items = d._pairs(users, items)
    out = np.full(users.shape, np.nan)
    for u, pos in _groups(users):
        out[pos] = _predict_user(d, sims, u, items[pos], spec)[0][:, 0]
    return out


def recommend_top_n(d: Dataset, sims: SimilarityStore, user_id: str, n: int,
                    spec: NeighborhoodSpec = NeighborhoodSpec()) -> list[tuple[str, float]]:
    """Top-n unrated items by predicted rating.

    Sort is by value descending with ties broken by ascending internal item
    index; items without a prediction are left out; unknown user -> [].
    """
    _check_store(d, sims)
    ranked = _ranked(d, user_id, n, lambda u, items: _predict_user(
        d, sims, u, items, spec)[0])
    return [] if ranked is None else [(d.item_id(i), v) for i, v in ranked[2]]


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
    k, cells = train.k, train.values
    w = np.full(k + 1, np.nan)      # fewer cells than parameters: the fallback
    if len(cells) > k:
        x = np.column_stack([np.ones(len(cells)), cells[:, 1:]])
        # squares past float64's range leave w non-finite: the fallback too
        with np.errstate(over="ignore", invalid="ignore"):
            gram = x.T @ x + _RIDGE * np.eye(k + 1)
            w = np.linalg.solve(gram, x.T @ cells[:, 0])
    if not np.all(np.isfinite(w)):
        return AggregationWeights(0.0, (1.0 / k,) * k, fallback=True)
    return AggregationWeights(float(w[0]), tuple(float(v) for v in w[1:]))


def aggregate_overall(weights: AggregationWeights, criteria_preds,
                      scale: RatingScale) -> float:
    preds = np.asarray(criteria_preds, dtype=np.float64)
    if preds.shape != (weights.k,):
        raise ValueError(f"expected {weights.k} criterion predictions, "
                         f"got shape {preds.shape}")
    if not all(map(math.isfinite, preds.tolist())):
        raise ValueError(f"criterion predictions must be finite, got {preds.tolist()}")
    return float(_aggregate_rows(weights, preds[None, :], scale)[0])


def _aggregate_rows(weights: AggregationWeights, crits: np.ndarray,
                    scale: RatingScale) -> np.ndarray:
    """aggregate_overall for each row of a (n, k) array."""
    overall = weights.intercept + np.vecdot(crits, np.array(weights.weights))
    return np.clip(overall, scale.min_value, scale.max_value)


@dataclass(frozen=True)
class McConfig:
    """Pipeline knobs for build_mc_model.  The tensor is always filled with
    item means; pca_option also centres it.  sim_kind "latent_cosine" picks
    the latent space (one store shared by the criteria); any other kind is
    that measure on each criterion's reconstructed slice."""

    pca_option: bool = False
    sim_kind: str = "latent_cosine"
    neighborhood: NeighborhoodSpec = field(default_factory=NeighborhoodSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.pca_option, bool):
            raise ValueError(f"pca_option must be a bool, got {self.pca_option!r}")
        if self.sim_kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown sim_kind {self.sim_kind!r}")
        if not isinstance(self.neighborhood, NeighborhoodSpec):
            raise ValueError(f"neighborhood must be a NeighborhoodSpec, "
                             f"got {self.neighborhood!r}")
        _check_integer("seed", self.seed, 0, _SEED_BOUND)


class McModel:
    """Immutable multi-criteria model; safe for concurrent prediction.

    Of the tensor, its settings and its Tucker model it derives the PCA
    option's slice means, the aggregation weights, the stores and w = core
    x2 U2 x3 U3, laid out (items, k+1, r1), so the reconstruction of cell
    (u, i, s) is the dot product of w[i, s] with U1[u], plus the slice mean.
    """

    def __init__(self, tensor: CriteriaTensor, config: McConfig,
                 tucker: TuckerModel):
        self.tensor, self.config, self.tucker = tensor, config, tucker
        # (items, k+1) item means the PCA option's CellTensor took out; else None
        self.slice_means = _item_means(tensor)[2] if config.pca_option else None
        self.scale = tensor.scale
        _, u2, u3 = tucker.factors
        self.w = np.ascontiguousarray(
            np.einsum("abc,ib,sc->isa", tucker.core, u2, u3))
        for arr in (self.w, self.slice_means):
            if arr is not None:
                arr.setflags(write=False)
        self.aggregation = fit_aggregation(tensor)
        # one store shared by all criteria (latent space) or one per criterion
        self.item_similarities = self._stores()

    def _stores(self) -> tuple[SimilarityStore, ...]:
        t, kind = self.tensor, self.config.sim_kind
        if kind == "latent_cosine":
            return (item_similarity_matrix(t, kind, model=self.tucker),)
        # each criterion's observed cells with their reconstructed values,
        # clamped: a truncated reconstruction may overshoot the scale
        crits = np.clip(self.reconstruction(*t.cell_index()),
                        self.scale.min_value, self.scale.max_value)
        return tuple(item_similarity_matrix(t._dataset(crits[:, c]), kind)
                     for c in range(t.k))

    @property
    def criteria_data(self) -> tuple[Dataset, ...]:
        """The k criterion slices as Datasets, made on each access."""
        return tuple(criteria_slice(self.tensor, c) for c in range(1, self.k + 1))

    @property
    def k(self) -> int:
        return self.tensor.k

    @property
    def ranks(self) -> tuple[int, int, int]:
        return tuple(int(r) for r in self.tucker.core.shape)

    def reconstruction(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """(pairs, k) reconstructed criteria at the index pairs _Cells._pairs
        checks, gathered _CELL_BLOCK pairs at a time: one dot product per
        value, so a value does not depend on the other pairs or criteria."""
        users, items = self.tensor._pairs(users, items)
        u1, out = self.tucker.factors[0], np.empty((len(users), self.k))
        for lo in range(0, len(users), _CELL_BLOCK):
            at = slice(lo, lo + _CELL_BLOCK)
            out[at] = np.vecdot(self.w[items[at], 1:], u1[users[at], None])
        if self.slice_means is not None:
            out += self.slice_means[items, 1:]
        return out


def mc_build_cells(t: CriteriaTensor, ranks: tuple[int, int, int],
                   config: McConfig) -> float:
    """Float64 cells build_mc_model holds, and load_model too: the factoring
    from the cells (its per-cell arrays cover a load's archive and tensor),
    w, three cells per cell and criterion for the per-cell arrays that
    follow it (the aggregation fit's design matrix, the k reconstructed
    criteria at the cells, held at once), and one latent store or k
    reconstructed ones, the last on the float64 path fractional values take."""
    shape = (t.n_users, t.n_items, t.k + 1)
    stores = (store_cells(t, "latent_cosine") if config.sim_kind == "latent_cosine"
              else (t.k - 1) * t.n_items ** 2
              + store_cells(t, config.sim_kind, exact=False))
    return (cell_factoring_cells(shape, t.n_cells, ranks)
            + ranks[0] * t.n_items * (t.k + 1) + 3 * t.k * t.n_cells + stores)


def build_mc_model(t: CriteriaTensor, ranks: tuple[int, int, int],
                   config: McConfig = McConfig()) -> McModel:
    """(Impute -> center) -> HOSVD -> similarities -> weights.

    The imputed (and centred) tensor is never formed: hosvd factors it
    from t's cells, read in place, and the fill (linalg.CellTensor).
    """
    _check_ranks(ranks, (t.n_users, t.n_items, t.k + 1))
    check_cell_budget(mc_build_cells(t, ranks, config))
    # the CellTensor goes with hosvd's return, before the stores are built
    return McModel(t, config, hosvd(CellTensor(t, config.pca_option), ranks,
                                    seed=config.seed))


def _mc_score(model: McModel, u: int, items: np.ndarray) -> np.ndarray:
    """The multi-criteria score: user u's clamped (len(items), k+1) aggregated
    overall and k criteria, one kernel call per similarity store: the
    latent space's one shared store scores all k criteria over one neighbor
    selection.  Criteria whose neighborhood yields nothing take the user's
    rating where the cell is observed and the reconstruction elsewhere."""
    rated, cells = model.tensor.cells_of(u)
    stores = model.item_similarities
    out = np.empty((len(items), model.k + 1))
    # k columns for one shared store, or one column for each of k stores
    step = model.k // len(stores)
    for s, c in zip(stores, range(1, model.k + 1, step)):
        out[:, c:c + step] = _neighborhood(s, rated, cells[:, c:c + step], items,
                                           model.config.neighborhood)[0]
    crits = out[:, 1:]
    rows = np.isnan(crits).any(axis=1).nonzero()[0]
    if rows.size:
        at = items[rows]
        fill = model.reconstruction(np.full(len(at), u), at)
        pos = rated.searchsorted(at)
        seen = pos < len(rated)
        seen[seen] = rated[pos[seen]] == at[seen]
        fill[seen] = cells[pos[seen], 1:]
        crits[rows] = np.where(np.isnan(crits[rows]), fill, crits[rows])
    np.clip(crits, model.scale.min_value, model.scale.max_value, out=crits)
    out[:, 0] = _aggregate_rows(model.aggregation, crits, model.scale)
    return out


def _mc_pair(model: McModel, user_id: str, item_id: str) -> np.ndarray | None:
    """_mc_score's row for one pair; None for unknown user/item."""
    t = model.tensor
    if not (t.has_user(user_id) and t.has_item(item_id)):
        return None
    return _mc_score(model, t.user_index(user_id),
                     np.array([t.item_index(item_id)]))[0]


def predict_criteria(model: McModel, user_id: str, item_id: str) -> np.ndarray | None:
    """Per-criterion predictions (clamped); None for unknown user/item.

    A criterion whose neighborhood yields nothing takes the user's
    observed cell where there is one and the reconstructed-tensor value
    elsewhere, so indexed pairs always get a full vector.
    """
    row = _mc_pair(model, user_id, item_id)
    return None if row is None else row[1:]


def predict_overall(model: McModel, user_id: str, item_id: str) -> float | None:
    row = _mc_pair(model, user_id, item_id)
    return None if row is None else float(row[0])


def mc_recommend_top_n(model: McModel, user_id: str, n: int) -> list[tuple[str, float]]:
    """Top-n items the user has no training cell for, by predicted overall."""
    t = model.tensor
    ranked = _ranked(t, user_id, n, lambda u, items: _mc_score(model, u, items))
    return [] if ranked is None else [(t.item_id(i), v) for i, v in ranked[2]]


# ---- persistence ------------------------------------------------------------

_MODEL_MAGIC = "mccf-model"
_SCHEMA_VERSION = 6


class ModelFormatError(ValueError):
    pass


def save_model(model: McModel, path) -> None:
    """Versioned .npz archive of the training tensor, the settings and the
    Tucker factors: all a load cannot cheaply derive again.

    The settings go in as one JSON header, numpy scalars as the Python
    numbers they hold.  The tensor goes in as its id arrays, the (user,
    item) index of every cell in cell_matrix() row order and cell_matrix()
    itself, so a load keeps every index map.  An open handle keeps np.savez
    from appending ".npz" to the name."""
    cfg, scale, t = model.config, model.scale, model.tensor
    header = {"magic": _MODEL_MAGIC, "version": _SCHEMA_VERSION,
              "scale": [scale.min_value, scale.max_value, scale.grade_labels],
              "config": [cfg.pca_option, cfg.sim_kind,
                         cfg.neighborhood.max_neighbors, cfg.seed]}
    arrays = {
        "header": np.array(json.dumps(header, default=np.generic.item)),
        "user_ids": np.array(t.user_ids, dtype=str),
        "item_ids": np.array(t.item_ids, dtype=str),
        "cell_index": np.stack(t.cell_index(), axis=1).astype(np.intp),
        "cells": t.cell_matrix(),
        "core": model.tucker.core,
        "factor1": model.tucker.factors[0],
        "factor2": model.tucker.factors[1],
        "factor3": model.tucker.factors[2],
    }
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
    """Rebuild a model from save_model output (same schema version only):
    the settings' own constructors check the header's values, and the
    McModel constructor, which build_mc_model ends with too, derives every
    array but the saved ones, the PCA slice means too, so a loaded model
    equals the saved one bitwise."""
    a = _read_archive(path)
    try:
        header = json.loads(a.pop("header").item())
        magic, version = header["magic"], header["version"]
    except (KeyError, ValueError, TypeError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if magic != _MODEL_MAGIC:
        raise ModelFormatError("not a model file")
    if type(version) is not int or version != _SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema version {version!r}")
    try:
        return _model_from_arrays(header, a)
    except KeyError as exc:
        raise ModelFormatError(f"missing key {exc}") from exc
    except (ValueError, IndexError, TypeError) as exc:
        raise ModelFormatError(f"inconsistent model file: {exc}") from exc


def _model_from_arrays(header: dict, a: dict[str, np.ndarray]) -> McModel:
    lo, hi, labels = header["scale"]
    scale = RatingScale(lo, hi, tuple(labels) if isinstance(labels, list) else labels)
    pca_option, sim_kind, cap, seed = header["config"]
    config = McConfig(pca_option=pca_option, sim_kind=sim_kind,
                      neighborhood=NeighborhoodSpec(cap), seed=seed)

    # taken out of the archive, so the tensor's copies are the only ones kept
    cells, index = a.pop("cells"), a.pop("cell_index")
    users, items = a.pop("user_ids"), a.pop("item_ids")
    if index.shape != (len(cells), 2):
        raise ValueError("cell index does not match the cells")
    if users.dtype.kind != "U" or items.dtype.kind != "U":
        raise ValueError("ids are not strings")
    # the constructor rejects non-integer, out-of-range and repeated cells
    tensor = CriteriaTensor(_IndexMap(users.tolist()), _IndexMap(items.tolist()),
                            index[:, 0], index[:, 1], cells, scale)
    del cells, index, users, items

    # a factor of one row would broadcast over a whole tensor mode, one of
    # one column over a whole core mode
    tucker = TuckerModel(a["core"], (a["factor1"], a["factor2"], a["factor3"]))
    dims = (tensor.n_users, tensor.n_items, tensor.k + 1)
    if tucker.core.ndim != 3 or tuple(f.shape for f in tucker.factors) != \
            tuple(zip(dims, tucker.core.shape)):
        raise ValueError("Tucker factors do not match the tensor and core")
    if not all(np.isfinite(x).all() for x in (tucker.core, *tucker.factors)):
        raise ValueError("non-finite Tucker core or factor")
    check_cell_budget(mc_build_cells(tensor, tucker.core.shape, config))
    return McModel(tensor, config, tucker)
