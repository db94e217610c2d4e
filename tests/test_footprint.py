"""Every budgeted step holds at most its footprint: the traced peak of the
step alone, with any array its caller holds for it, is at most 8 bytes per
cell the step's footprint function counts, beside the Python objects and
array headers that no count of cells holds."""

from functools import cache

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on first use, in a traced step
import pytest

from conftest import dataset_from_dense, traced
from mccf.core import CriteriaTensor, Dataset, RatingScale, _IndexMap
from mccf.engine import (McConfig, build_mc_model, load_model, mc_build_cells,
                         predict_matrix, products_cells, save_model)
from mccf.evaluation import (BenchmarkConfig, _build_store, _build_store_cells,
                             _evaluate, _split)
from mccf.linalg import (CellTensor, cell_factoring_cells, dense_hosvd_cells,
                         hosvd, impute_missing, pca, pca_cells, truncated_svd)
from mccf.similarity import (_BLOCK_ARRAYS, RATING_KINDS, SET_KINDS, _BLOCK,
                             _USER_BLOCK, _float32_exact,
                             item_similarity_matrix, store_cells)

# (users, items): each rating matrix spans two _BLOCKs of items; the latent
# MC build forms one items x items store and no users x items array, so it
# runs at smaller, faster shapes.  The stores also run with more users than
# one user block.
SHAPES = ((30, _BLOCK + 14), (40, _BLOCK + 6))
SMALL_SHAPES = ((40, 80), (120, 60))
TALL_SHAPE = (3 * _USER_BLOCK, _BLOCK + 14)
STORES = RATING_KINDS + SET_KINDS
OBJECTS = 4096


@cache
def _ratings(shape):
    n_users, n_items = shape
    rng = np.random.default_rng(n_items)
    return dataset_from_dense(np.where(
        rng.random(shape) < 0.25,
        rng.integers(1, 6, shape).astype(float), np.nan))


@cache
def _tensor(shape):
    # 10% of the (user, item) pairs, each with an overall and a criterion
    n_users, n_items = shape
    rng = np.random.default_rng(n_users)
    flat = rng.choice(n_users * n_items, n_users * n_items // 10,
                      replace=False)
    return CriteriaTensor(_IndexMap([f"u{x}" for x in range(n_users)]),
                          _IndexMap([f"i{x}" for x in range(n_items)]),
                          flat // n_items, flat % n_items,
                          rng.integers(1, 6, (len(flat), 2)).astype(float),
                          RatingScale.one_to_five())


def _store(kind):
    def step(shape):
        d = _ratings(shape)
        # the exact kinds take float32 blocks, adjusted_cosine the float64 one
        assert _float32_exact(d, kind) == (kind != "adjusted_cosine")
        return lambda: item_similarity_matrix(d, kind), store_cells(d, kind), 0
    return step


def _latent_store(shape):
    d = _ratings(shape)
    return (lambda: _build_store(d, "latent", 8, 1),
            _build_store_cells(d, "latent", 8), 0)


def _cells_svd(shape):
    d = _ratings(shape)
    return (lambda: truncated_svd(CellTensor(d), 8, seed=1),
            cell_factoring_cells((*shape, 1), d.n_ratings, (8, 8, 1)), 0)


def _pca(shape):
    d = _ratings(shape)
    return lambda: pca(impute_missing(d.to_dense()), 8), pca_cells(shape), 0


def _dense_hosvd(shape):
    t = np.random.default_rng(1).random((shape[0], shape[1] // 4, 5))
    return lambda: hosvd(t, (8, 8, 3)), dense_hosvd_cells(t.shape), t.nbytes


def _unbounded_harness(shape):
    d = _ratings(shape)
    train, test = _split(d._ratings(), 0.8, 1)
    train = Dataset.from_records(train, d.scale)
    config = BenchmarkConfig(sim="pearson", train_fraction=0.8, seed=1)
    return (lambda: _evaluate(train, test, config),
            max(_build_store_cells(train, "pearson", 8), products_cells(train)),
            0)


def _predict_matrix(shape):
    d = _ratings(shape)
    sims = item_similarity_matrix(d, "pearson")
    return (lambda: predict_matrix(d, sims), products_cells(d),
            sims.values.nbytes)


def _mc_build(sim_kind):
    def step(shape):
        t, config = _tensor(shape), McConfig(sim_kind=sim_kind)
        return (lambda: build_mc_model(t, (8, 8, 2), config),
                mc_build_cells(t, (8, 8, 2), config), 0)
    return step


STEPS = {**{f"store-{kind}": _store(kind) for kind in STORES},
         "latent-store": _latent_store, "cells-svd": _cells_svd, "pca": _pca,
         "dense-hosvd": _dense_hosvd, "unbounded-harness": _unbounded_harness,
         "predict-matrix": _predict_matrix}
MC_STEPS = {"mc-latent": _mc_build("latent_cosine"),
            "mc-pearson": _mc_build("pearson")}


@pytest.mark.parametrize("name, shape", [
    *((name, shape) for name in STEPS for shape in SHAPES),
    *(("mc-latent", shape) for shape in SMALL_SHAPES),
    *(("mc-pearson", shape) for shape in SHAPES),
    *((f"store-{kind}", TALL_SHAPE) for kind in STORES)],
    ids=lambda x: x if isinstance(x, str) else "x".join(map(str, x)))
def test_step_holds_at_most_its_footprint(name, shape, tmp_path_factory):
    run, cells, held = {**STEPS, **MC_STEPS}[name](shape)
    result, peak, built = traced(run)
    assert peak + held <= 8 * cells + OBJECTS, (peak + held) / (8 * cells)
    if name in MC_STEPS:
        # a load of the built model keeps the build's footprint, and peaks
        # above the build by at most the tensor it constructs, which the
        # loaded model holds beyond the built one
        path = tmp_path_factory.mktemp(name) / "model.npz"
        save_model(result, path)
        del result
        _, load_peak, loaded = traced(lambda: load_model(path))
        assert load_peak <= 8 * cells + OBJECTS, load_peak / (8 * cells)
        assert load_peak - peak <= loaded - built + OBJECTS, \
            (load_peak - peak, loaded - built)


@pytest.mark.parametrize("kind", [k for k in STORES if k != "adjusted_cosine"])
def test_exact_store_counts_one_user_block(kind):
    """With more users than one user block, a float32 store counts less
    than a build holding users x items float32 layers (the mask counted
    whole) beside _BLOCK_ARRAYS row blocks."""
    d = _ratings(TALL_SHAPE)
    assert _float32_exact(d, kind)
    n_users, n_items = TALL_SHAPE
    layers = 1.5 if kind in RATING_KINDS else 1
    assert store_cells(d, kind) < (
        n_items ** 2 + layers * n_users * n_items
        + _BLOCK_ARRAYS.get(kind, 2.25) * _BLOCK * n_items)
