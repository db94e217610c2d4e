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

A model holds no per-criterion copy of the cells.  A saved model holds
the training tensor, the settings and the Tucker factors; a load runs the
model's one constructor on them, as a build does.
"""

from __future__ import annotations

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
from .linalg import (CellTensor, TuckerModel, cell_factoring_cells,
                     check_cell_budget, hosvd)
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
        k = self.max_neighbors
        if k is not None and (isinstance(k, bool)
                              or not isinstance(k, (int, np.integer)) or k < 1):
            raise ValueError(f"max_neighbors must be an integer >= 1, got {k!r}")


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


def _neighborhood(sims: SimilarityStore, rated: np.ndarray, ratings: np.ndarray,
                  items: np.ndarray,
                  spec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (len(items), c) values and the support of one user who
    rated the items `rated` with the (len(rated), c) `ratings`, for each
    item index in `items`; NaN values and 0 support mark no prediction.

    An item's neighbors are the user's rated items of strictly positive
    similarity to it; with a cap of k, the k most similar, ties going to
    the lower item index.  Each column's value is sum(w * r) / sum(w) over
    the one neighbor set.

    Every value is bitwise what a one-item-at-a-time loop gives, because
    the summation order is the same: ascending item index, or descending
    similarity (stable) where the cap cut the row.  Rows are ordered by
    neighbor count.  The cut rows form one (rows, k) block and the uncut
    rows one contiguous block per count; each block is one np.vecdot,
    the same BLAS ddot as a 1-D dot product.
    """
    n, m = len(items), len(rated)
    # the store is symmetric: gather from the side with fewer rows
    w = (sims.values[items[:, None], rated] if n <= m
         else sims.values[rated].T[items])
    keep = w > 0    # NaN compares False
    count = keep.sum(axis=1)
    # rows without neighbors, then uncut rows, then cut ones, by count
    order = count.argsort(kind="stable")
    sizes = count[order]
    k = spec.max_neighbors
    lo = int(sizes.searchsorted(1))
    hi = n if k is None else int(sizes.searchsorted(k, "right"))
    blocks = []     # (rows, weights, rated positions), each (len(rows), g)
    if lo < hi:
        rows, sizes = order[lo:hi], sizes[lo:hi]
        flat = keep[rows].ravel().nonzero()[0]
        cols = flat - np.arange(0, len(rows) * m, m).repeat(sizes)
        kw = w.take(rows, axis=0).ravel().take(flat)
        per = np.bincount(sizes)
        a = start = 0
        for g in per.nonzero()[0].tolist():
            b, end = a + int(per[g]), start + int(per[g]) * g
            blocks.append((rows[a:b], kw[start:end].reshape(-1, g),
                           cols[start:end].reshape(-1, g)))
            a, start = b, end
    if hi < n:
        # sorted negated rows (NaN last) lead with the k largest weights:
        # keep those at or above the k-th, summed in descending order
        cut = order[hi:]
        wc = w[cut]
        s = np.sort(-wc, axis=1)
        kth = -s[:, k - 1, None]
        sel = wc >= kth
        tied = (sel.sum(axis=1) > k).nonzero()[0]
        if tied.size:
            # too many ties at the k-th weight: the lower indices win
            ties = wc[tied] == kth[tied]
            room = k - (wc[tied] > kth[tied]).sum(axis=1, keepdims=True)
            sel[tied] &= ~ties | (ties.cumsum(axis=1) <= room)
        flat = sel.ravel().nonzero()[0]
        cols = flat - np.arange(0, len(cut) * m, m).repeat(k)
        by_weight = (-wc.ravel().take(flat)).reshape(-1, k).argsort(
            axis=1, kind="stable") + np.arange(0, flat.size, k)[:, None]
        blocks.append((cut, -s[:, :k], cols.take(by_weight)))
        count[cut] = k
    values = np.full((n, ratings.shape[1]), np.nan)
    for rows, gw, at in blocks:
        den = gw.sum(axis=1)
        den[den < DENOM_EPS] = np.nan    # the row stays NaN, without a warning
        values[rows] = (np.vecdot(gw, ratings.T.take(at, axis=1)) / den).T
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
    ascending on ties; NaN values are left out.  Ties keep their order in
    `items`, which every caller passes ascending."""
    ok = ~np.isnan(values)
    items, values = items[ok], values[ok]
    if 0 < n < len(values):     # keep the n-th best value and all above
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
    with predict_single to rounding, not bitwise.  Data over the budget
    for its products_cells is rejected before any array is formed.
    """
    if spec.max_neighbors is not None:
        raise ValueError("predict_matrix requires an unbounded neighborhood")
    check_cell_budget(products_cells(d))
    return _weighted_means(d, _positive_weights(sims))


def products_cells(d: Dataset) -> int:
    """Float64 cells predict_matrix holds: the store, the positive weights
    (their mask, an eighth, as they form) and three users x items arrays:
    the ratings (then the mask), the numerator, the denominator."""
    return 2 * d.n_items ** 2 + 3 * d.n_users * d.n_items


def _positive_weights(sims: SimilarityStore) -> np.ndarray:
    """The store's strictly positive similarities, 0 elsewhere (NaN too):
    an unbounded neighborhood's weights, as a new items x items array."""
    return np.where(sims.values > 0, sims.values, 0.0)


def _weighted_means(d: Dataset, s: np.ndarray) -> np.ndarray:
    """predict_matrix from the positive weights s."""
    # the ratings are 0 off the mask, so they carry it; one unblocked
    # product, since blocks of user rows or of weight columns change bits
    num = np.nan_to_num(d.to_dense(), nan=0.0, copy=False) @ s
    den = d.to_mask(np.float64) @ s
    good = den >= DENOM_EPS
    np.divide(num, den, out=num, where=good)
    num[~good] = np.nan
    return np.clip(num, d.scale.min_value, d.scale.max_value, out=num)


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
    return _recommend(d, user_id, n, lambda u, items: _predict_user(
        d, sims, u, items, spec)[0])


def _recommend(cells: Dataset | CriteriaTensor, user_id: str, n: int,
               score) -> list[tuple[str, float]]:
    """recommend_top_n of a Dataset or a tensor, by score(u, items)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not cells.has_user(user_id):
        return []
    u = cells.user_index(user_id)
    items = _unrated(cells.n_items, cells._row(u)[0])
    return [(cells.item_id(i), v) for i, v in _top_n(items, score(u, items), n)]


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
    cells = train.values
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
        if self.sim_kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown sim_kind {self.sim_kind!r}")


class McModel:
    """Immutable multi-criteria model; safe for concurrent prediction.

    Of the tensor and its Tucker model it derives the aggregation weights,
    the stores and w = core x2 U2 x3 U3, laid out (items, k+1, r1), so the
    reconstruction of cell (u, i, s) is the dot product of w[i, s] with
    U1[u], plus the PCA option's slice mean.
    """

    def __init__(self, tensor: CriteriaTensor, config: McConfig,
                 tucker: TuckerModel, slice_means: np.ndarray | None):
        self.tensor = tensor
        self.config = config
        self.tucker = tucker
        # (items, k+1) means over users, for the PCA option; else None
        self.slice_means = slice_means
        self.scale = tensor.scale
        _, u2, u3 = tucker.factors
        self.w = np.ascontiguousarray(
            np.einsum("abc,ib,sc->isa", tucker.core, u2, u3))
        for arr in (self.w, slice_means):
            if arr is not None:
                arr.setflags(write=False)
        self.aggregation = fit_aggregation(tensor)
        # one store shared by all criteria (latent space) or one per criterion
        self.item_similarities = self._stores()

    def _stores(self) -> tuple[SimilarityStore, ...]:
        t, kind = self.tensor, self.config.sim_kind
        if kind == "latent_cosine":
            return (item_similarity_matrix(t, kind, model=self.tucker),)
        # each slice's observed cells with their reconstructed values,
        # clamped: a truncated reconstruction may overshoot the scale
        users, items = t.cell_index()
        lo, hi = self.scale.min_value, self.scale.max_value
        return tuple(item_similarity_matrix(t._dataset(np.clip(
            self.reconstruction(users, items, slice(c, c + 1))[:, 0], lo, hi)),
            kind) for c in range(1, t.k + 1))

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

    def reconstruction(self, users: np.ndarray, items: np.ndarray,
                       s: slice = slice(1, None)) -> np.ndarray:
        """(pairs, slices) reconstructed tensor at the (user, item) index
        pairs, slices s (the criteria by default): one dot product per
        value, so a value does not depend on the other pairs asked for."""
        out = np.vecdot(self.w[items, s], self.tucker.factors[0][users, None])
        if self.slice_means is not None:
            out += self.slice_means[items, s]
        return out


def mc_build_cells(t: CriteriaTensor, ranks: tuple[int, int, int],
                   config: McConfig) -> float:
    """Float64 cells build_mc_model holds, and load_model too: the factoring
    from the cells (its per-cell arrays cover a load's archive and tensor),
    w, three cells per cell and criterion for the per-cell arrays that
    follow it (the aggregation fit's design matrix, a reconstructed store's
    values at the cells), and one latent store or k reconstructed ones, the
    last on the float64 path fractional values take."""
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
    check_cell_budget(mc_build_cells(t, ranks, config))
    cells = CellTensor(t, config.pca_option)
    tucker, slice_means = hosvd(cells, ranks, seed=config.seed), cells.means
    del cells       # freed before the stores are built
    return McModel(t, config, tucker, slice_means)


def _criteria_rows(model: McModel, u: int, items: np.ndarray) -> np.ndarray:
    """(len(items), k) clamped criterion predictions of user u, one kernel
    call per similarity store: the latent space's one shared store scores
    all k criteria over one neighbor selection.  Criteria whose
    neighborhood yields nothing take the user's rating where the cell is
    observed and the reconstruction elsewhere."""
    rated, cells = model.tensor.cells_of(u)
    stores = model.item_similarities
    # k columns for one shared store, or one column for each of k stores
    columns = np.array_split(np.arange(1, model.k + 1), len(stores))
    out = np.hstack([_neighborhood(s, rated, cells[:, c], items,
                                   model.config.neighborhood)[0]
                     for s, c in zip(stores, columns)])
    rows = np.isnan(out).any(axis=1).nonzero()[0]
    if rows.size:
        at = items[rows]
        fill = model.reconstruction(np.full(len(at), u), at)
        pos = rated.searchsorted(at)
        seen = pos < len(rated)
        seen[seen] = rated[pos[seen]] == at[seen]
        fill[seen] = cells[pos[seen], 1:]
        out[rows] = np.where(np.isnan(out[rows]), fill, out[rows])
    return np.clip(out, model.scale.min_value, model.scale.max_value)


def predict_criteria(model: McModel, user_id: str, item_id: str) -> np.ndarray | None:
    """Per-criterion predictions (clamped); None for unknown user/item.

    A criterion whose neighborhood yields nothing takes the user's
    observed cell where there is one and the reconstructed-tensor value
    elsewhere, so indexed pairs always get a full vector.
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
    return _recommend(model.tensor, user_id, n, lambda u, items: _aggregate_rows(
        model.aggregation, _criteria_rows(model, u, items), model.scale))


# ---- persistence ------------------------------------------------------------

_MODEL_MAGIC = "mccf-model"
_SCHEMA_VERSION = 5


class ModelFormatError(ValueError):
    pass


def save_model(model: McModel, path) -> None:
    """Versioned .npz archive of the training tensor, the settings and the
    Tucker factors: all a load cannot cheaply derive again.

    The tensor goes in as its id arrays, the (user, item) index of every
    cell in cell_matrix() row order and cell_matrix() itself, so a load
    keeps every index map.  An open handle keeps np.savez from appending
    ".npz" to the name."""
    cfg = model.config
    k = cfg.neighborhood.max_neighbors
    scale = model.scale
    t = model.tensor
    arrays = {
        "magic": np.array(_MODEL_MAGIC),
        "version": np.array(_SCHEMA_VERSION),
        "scale": np.array([scale.min_value, scale.max_value]),
        "grade_labels": np.array(scale.grade_labels or (), dtype=str),
        "config": np.array(["on" if cfg.pca_option else "off", cfg.sim_kind,
                            str(cfg.seed)]),
        # NaN marks an unbounded neighborhood
        "neighborhood": np.array([np.nan if k is None else k]),
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
    the McModel constructor, which build_mc_model ends with too, derives
    every array but the saved ones again, so a loaded model equals the
    saved one bitwise."""
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


def _count(x) -> int:
    if not float(x).is_integer():
        raise ValueError(f"{x!r} is not a whole number")
    return int(x)


def _model_from_arrays(a: dict[str, np.ndarray]) -> McModel:
    lo, hi = a["scale"].tolist()
    scale = RatingScale(lo, hi, tuple(a["grade_labels"].tolist()) or None)
    pca, sim_kind, seed = a["config"].tolist()
    if pca not in ("on", "off"):
        raise ValueError(f"unknown pca flag {pca!r}")
    (cap,) = a["neighborhood"].tolist()
    neighborhood = NeighborhoodSpec(None if np.isnan(cap) else _count(cap))
    config = McConfig(pca_option=pca == "on", sim_kind=sim_kind,
                      neighborhood=neighborhood, seed=int(seed))

    # taken out of the archive, so the tensor's copies are the only ones kept
    cells, index = a.pop("cells"), a.pop("cell_index")
    if index.shape != (len(cells), 2):
        raise ValueError("cell index does not match the cells")
    # the constructor rejects non-integer, out-of-range and repeated cells
    tensor = CriteriaTensor(_IndexMap(a.pop("user_ids").tolist()),
                            _IndexMap(a.pop("item_ids").tolist()),
                            index[:, 0], index[:, 1], cells, scale)
    del cells, index

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
    # the PCA option's slice means come from the cells, as in the build
    slice_means = CellTensor(tensor, center=True).means if config.pca_option else None
    return McModel(tensor, config, tucker, slice_means)
