"""Differential tests: the engine's vectorized neighborhood kernel against
the per-pair loop it replaced, kept as oracles.loop_predict.

Every prediction path (single pair, batch, top-N, multi-criteria) must give
the loop's definedness and support exactly and its values bitwise, since a
last-digit difference can flip a near-tie in a top-N list.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from_dense
from mccf.core import CriteriaTensor
from mccf.engine import (
    McConfig,
    McModel,
    NeighborhoodSpec,
    _neighborhood,
    batch_predict,
    build_mc_model,
    mc_recommend_top_n,
    predict_criteria,
    predict_overall,
    predict_single,
    recommend_top_n,
)
from mccf.similarity import SimilarityStore, item_similarity_matrix
from mccf.synth import SyntheticTensorSpec, generate_tensor
from oracles import loop_predict, store_for

SPECS = [
    NeighborhoodSpec(),
    NeighborhoodSpec(max_neighbors=1),
    NeighborhoodSpec(max_neighbors=5),
    NeighborhoodSpec(max_neighbors=5, min_similarity=-1.0),
]
SPEC_IDS = ["unbounded", "k1", "k5", "k5-negative"]


def _ratings_matrix(seed, n_users=70, n_items=60):
    """Sparse 1-5 ratings with user activity from 1 to most of the
    catalog; the last three items are rated by user 0 alone, so they have
    no co-raters and no defined similarity."""
    rng = np.random.default_rng(seed)
    fill = np.linspace(0.02, 0.8, n_users)[rng.permutation(n_users), None]
    dense = np.where(rng.random((n_users, n_items)) < fill,
                     rng.integers(1, 6, (n_users, n_items)).astype(float),
                     np.nan)
    dense[:, -3:] = np.nan
    dense[0, -3:] = (5.0, 1.0, 3.0)
    dense[1] = np.nan
    dense[1, 0] = 4.0                              # a one-rating user
    return dense


@pytest.fixture(scope="module")
def data():
    d = dataset_from_dense(_ratings_matrix(71))
    pearson = item_similarity_matrix(d, "pearson")
    # coarsened to quarter steps, so many neighbors tie on their weight
    tied = SimilarityStore("pearson", np.round(pearson.values * 4) / 4,
                           d.item_ids)
    return d, {"pearson": pearson, "tied": tied}


def test_fixture_exercises_ties_cuts_and_empty_rows(data):
    d, stores = data
    assert np.isnan(stores["pearson"].values[-3:]).all()
    tie_cuts = 0
    for u in range(d.n_users):
        rated = d.items_of(u)[0]
        for i in range(d.n_items):
            row = stores["tied"].values[i, rated]
            kept = np.sort(row[row > 0])[::-1]
            # the 5th and 6th best weights tie: the cap splits a tie
            tie_cuts += kept.size > 5 and kept[4] == kept[5]
    assert tie_cuts > 100


@pytest.mark.parametrize("store", ["pearson", "tied"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_single_pair_and_top_n_match_loop(data, store, spec):
    d, stores = data
    sims = stores[store]
    made = 0
    for u, uid in enumerate(d.user_ids):
        rated = set(d.items_of(u)[0].tolist())
        scored = []
        for i, iid in enumerate(d.item_ids):
            expect = loop_predict(d, sims, u, i, spec)
            got = predict_single(uid, iid, d, sims, spec)
            if expect is None:
                assert got is None, (u, i)
                continue
            made += 1
            assert (got.value, got.support) == expect, (u, i)
            if i not in rated:
                scored.append((-got.value, i))
        # top-N is the single-pair predictions sorted by value, then index
        scored.sort()
        assert recommend_top_n(d, sims, uid, 10, spec) == \
            [(d.item_id(i), -v) for v, i in scored[:10]]
    assert 0 < made < d.n_users * d.n_items


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_batch_predict_matches_single_pairs(data, spec):
    d, stores = data
    sims = stores["tied"]
    rng = np.random.default_rng(72)
    users = rng.integers(0, d.n_users, 2000)
    items = rng.integers(0, d.n_items, 2000)
    out = batch_predict(d, sims, users, items, spec)
    for n, (u, i) in enumerate(zip(users.tolist(), items.tolist())):
        p = predict_single(d.user_id(u), d.item_id(i), d, sims, spec)
        if p is None:
            assert np.isnan(out[n])
        else:
            assert out[n] == p.value
    assert batch_predict(d, sims, [], [], spec).shape == (0,)


def _sparse_tensor(seed):
    t = generate_tensor(SyntheticTensorSpec(
        n_users=30, n_items=24, n_groups=4, n_criteria=3, noise_std=0.3,
        seed=seed))
    keep = np.random.default_rng(seed).random(t.n_cells) < 0.5
    records = [r for r, k in zip(t.iter_records(), keep) if k]
    return CriteriaTensor.from_records(records, t.k, t.scale)


def _quarter_steps(store):
    """The store coarsened to quarter steps, so many neighbors tie."""
    return SimilarityStore(store.kind, np.round(store.values * 4) / 4,
                           store.item_ids)


def _mc_model(kind, spec):
    """A latent or reconstructed model of a sparse tensor; "latent-tied"
    is the latent model with its shared store in quarter steps."""
    t = _sparse_tensor(73)
    sim_kind = "pearson" if kind == "reconstructed" else "latent_cosine"
    m = build_mc_model(t, (3, 4, 3), McConfig(
        sim_kind=sim_kind, neighborhood=spec, seed=2))
    if kind != "latent-tied":
        return m
    return McModel(m.tensor, m.config, m.tucker, m.denoised,
                   (_quarter_steps(m.item_similarities[0]),),
                   m.criteria_data, m.aggregation)


def test_tied_latent_store_splits_ties_at_the_cap():
    m = _mc_model("latent-tied", SPECS[2])
    sims = m.item_similarities[0].values
    tie_cuts = 0
    for u in range(m.tensor.n_users):
        rated = m.tensor.cells_of(u)[0]
        for i in range(m.tensor.n_items):
            row = sims[i, rated]
            kept = np.sort(row[row > 0])[::-1]
            tie_cuts += kept.size > 5 and kept[4] == kept[5]
    assert tie_cuts > 100


@pytest.mark.parametrize("kind", ["latent", "latent-tied", "reconstructed"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_multicriteria_paths_match_loop(kind, spec):
    model = _mc_model(kind, spec)
    t = model.tensor
    for u, uid in enumerate(t.user_ids):
        rated = set(t.cells_of(u)[0].tolist())
        scored = []
        for i, iid in enumerate(t.item_ids):
            expect = np.empty(t.k)
            for c in range(1, t.k + 1):
                got = loop_predict(model.criteria_data[c - 1],
                                   store_for(model, c), u, i, spec)
                value = float(model.denoised[u, i, c]) if got is None \
                    else got[0]
                expect[c - 1] = t.scale.clamp(value)
            assert np.array_equal(predict_criteria(model, uid, iid), expect)
            if i not in rated:
                scored.append((-predict_overall(model, uid, iid), i))
        scored.sort()
        assert mc_recommend_top_n(model, uid, 8) == \
            [(t.item_id(i), -v) for v, i in scored[:8]]


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([1, 3]),
       k=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
       threshold=st.sampled_from([None, -1.0, 0.25]))
def test_kernel_columns_match_loop(seed, c, k, threshold):
    """Each of the c rating columns gives the loop's value bitwise, over
    one neighbor selection with the loop's support."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    upper = np.triu(rng.integers(-4, 5, (n, n)) / 4, 1)
    values = upper + upper.T
    undefined = rng.random((n, n)) < 0.3
    values[undefined | undefined.T] = np.nan
    np.fill_diagonal(values, np.nan)
    item_ids = tuple(f"i{i}" for i in range(n))
    sims = SimilarityStore("pearson", values, item_ids)
    rated = np.flatnonzero(rng.random(n) < rng.random())
    ratings = rng.integers(1, 6, (len(rated), c)).astype(float)
    items = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    spec = NeighborhoodSpec(k, threshold)

    got, support = _neighborhood(sims, rated, ratings, items, spec)
    assert got.shape == (len(items), c)
    for j in range(c):
        row = np.full((1, n), np.nan)
        row[0, rated] = ratings[:, j]
        d = dataset_from_dense(row)
        for p, i in enumerate(items.tolist()):
            expect = loop_predict(d, sims, 0, i, spec)
            if expect is None:
                assert np.isnan(got[p, j]) and support[p] == 0
            else:
                assert (d.scale.clamp(got[p, j]), support[p]) == expect
