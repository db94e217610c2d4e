"""Differential tests: the engine's vectorized neighborhood kernel against
the per-pair loop it replaced, kept as oracles.loop_predict.

Every prediction path (single pair, batch, top-N, multi-criteria) must give
the loop's definedness and support exactly and its values bitwise, since a
last-digit difference can flip a near-tie in a top-N list.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from_dense
from mccf.core import CriteriaTensor, RatingScale
from mccf.engine import (
    McConfig,
    NeighborhoodSpec,
    _neighborhood,
    _select,
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
from oracles import (clamp, factored_value, loop_neighbors, loop_predict,
                     store_for)

SPECS = [
    NeighborhoodSpec(),
    NeighborhoodSpec(max_neighbors=1),
    NeighborhoodSpec(max_neighbors=5),
]
SPEC_IDS = ["unbounded", "k1", "k5"]


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
    model = copy.copy(m)
    model.item_similarities = (_quarter_steps(m.item_similarities[0]),)
    return model


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
    t, criteria = model.tensor, model.criteria_data
    for u, uid in enumerate(t.user_ids):
        rated = set(t.cells_of(u)[0].tolist())
        scored = []
        for i, iid in enumerate(t.item_ids):
            expect = np.empty(t.k)
            for c in range(1, t.k + 1):
                got = loop_predict(criteria[c - 1],
                                   store_for(model, c), u, i, spec)
                value = factored_value(model, u, i, c) if got is None \
                    else got[0]
                expect[c - 1] = clamp(t.scale, value)
            assert np.array_equal(predict_criteria(model, uid, iid), expect)
            if i not in rated:
                scored.append((-predict_overall(model, uid, iid), i))
        scored.sort()
        assert mc_recommend_top_n(model, uid, 8) == \
            [(t.item_id(i), -v) for v, i in scored[:8]]


def _support(values, w):
    """Each row's support, as predict_single reports it: the count of its
    kept weights, or 0 for a row without a value."""
    return np.where(np.isnan(values[:, 0]), 0, np.count_nonzero(w, axis=1))


def _kernel_matches_loop(sims, rated, ratings, items, spec):
    """_neighborhood's (values, support) for one user, each rating column
    checked against the loop bitwise, on a scale wide enough that no value
    is clamped; _select's kept weights, which _neighborhood returns, are
    each row's similarities at exactly the loop's kept neighbors, so their
    count of nonzeros is the loop's count."""
    got, kept_w = _neighborhood(sims, rated, ratings, items, spec)
    support = _support(got, kept_w)
    assert got.shape == (len(items), ratings.shape[1])
    w = _select(sims, rated, items, spec.max_neighbors)
    assert np.array_equal(kept_w, w)
    for p, i in enumerate(items.tolist()):
        kept = loop_neighbors(sims, rated, i, spec.max_neighbors)
        # kept weights are positive, so the nonzero columns are the kept set
        assert np.array_equal(w[p], np.where(kept, sims.values[i, rated], 0.0)), i
        assert np.count_nonzero(w[p]) == kept.sum()
    for j in range(ratings.shape[1]):
        row = np.full((1, len(sims.item_ids)), np.nan)
        row[0, rated] = ratings[:, j]
        d = dataset_from_dense(row, RatingScale(-1e300, 1e300))
        for p, i in enumerate(items.tolist()):
            expect = loop_predict(d, sims, 0, i, spec)
            if expect is None:
                assert np.isnan(got[p, j]) and support[p] == 0
            else:
                assert (got[p, j], support[p]) == expect, (i, j)
    return got, support


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.sampled_from([1, 3]),
       k=st.sampled_from([None, 1, 2, 3, 4, 5, 6]))
def test_kernel_columns_match_loop(seed, c, k):
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
    _kernel_matches_loop(sims, rated, ratings, items, NeighborhoodSpec(k))


@pytest.fixture(scope="module")
def wide_store():
    """300 items in steps of 1/3, biased positive so rows keep dozens of
    neighbors, with a fifth of the pairs undefined.  Thirds are inexact in
    binary, so a sum in another order changes bits."""
    rng = np.random.default_rng(74)
    n = 300
    upper = np.triu(rng.integers(-2, 4, (n, n)) / 3, 1)
    values = upper + upper.T
    undefined = np.triu(rng.random((n, n)) < 0.2, 1)
    values[undefined | undefined.T] = np.nan
    np.fill_diagonal(values, np.nan)
    return SimilarityStore("pearson", values, tuple(f"i{i}" for i in range(n)))


@pytest.mark.parametrize("c", [1, 4])
@pytest.mark.parametrize("k", [30, None])
def test_wide_blocks_match_loop(wide_store, k, c):
    """Rows with dozens of kept neighbors, cut at k=30 with many ties at
    the cap, give the loop's values bitwise.  The user with 40 rated items
    is scored on more items than it rated and the one with 200 on fewer,
    so both gather orientations run."""
    n = len(wide_store.item_ids)
    rng = np.random.default_rng(75)
    tie_cuts = 0
    for n_rated in (40, 200):
        rated = np.sort(rng.permutation(n)[:n_rated])
        items = np.setdiff1d(np.arange(n), rated)
        ratings = rng.integers(1, 6, (n_rated, c)).astype(float)
        _kernel_matches_loop(wide_store, rated, ratings, items,
                             NeighborhoodSpec(k))
        w = wide_store.values[np.ix_(items, rated)]
        best = -np.sort(-np.where(w > 0, w, -np.inf), axis=1)
        # the 30th and 31st best kept weights tie: a cap of 30 splits a tie
        tie_cuts += int(((best[:, 30] == best[:, 29])
                         & (best[:, 30] > -np.inf)).sum())
    assert tie_cuts > 50


@pytest.mark.parametrize("c", [1, 4])
def test_count_groups_mix_defined_and_negligible_rows(c):
    """An unbounded call over 45 neighbor counts, three rows each: one of
    weights near 1e-14, whose total stays below DENOM_EPS; one near 1e-13,
    whose total falls on either side of it with the count; and one of
    ordinary weights.  Undefined rows lie among defined rows of the same
    count, and every row gives the loop's value and support bitwise.  Two
    rated items without a positive weight are scored too: _select keeps
    none of their neighbors and some of each negligible row's, though both
    kinds of row have no value and support 0."""
    rng = np.random.default_rng(76)
    m = 60
    counts = np.repeat(np.arange(1, 46), 3)
    scales = np.tile([1e-14, 1e-13, 1.0], 45)
    # rated items first, then the scored ones; unkept pairs are negative
    # or undefined
    block = np.where(rng.random((len(counts), m)) < 0.5, -1.0, np.nan)
    for r, (g, scale) in enumerate(zip(counts.tolist(), scales.tolist())):
        block[r, rng.permutation(m)[:g]] = scale * rng.uniform(0.5, 1.5, g)
    n = m + len(counts)
    values = np.full((n, n), np.nan)
    values[m:, :m], values[:m, m:] = block, block.T
    # rated items 0 and 1, scored too, see only negative or undefined weights
    values[0, 1:m] = values[1:m, 0] = -1.0
    sims = SimilarityStore("pearson", values, tuple(f"i{i}" for i in range(n)))
    rated = np.arange(m)
    ratings = rng.integers(1, 6, (m, c)).astype(float)
    items = np.append(m + rng.permutation(len(counts)), [0, 1])

    got, support = _kernel_matches_loop(sims, rated, ratings, items,
                                        NeighborhoodSpec())
    negligible = np.isnan(got[:, 0])
    assert 0 < negligible.sum() < len(items)
    # each count holding a negligible row also holds a defined one
    assert np.unique(support[~negligible]).size == 45
    count = np.count_nonzero(_select(sims, rated, items, None), axis=1)
    none = items < m
    assert (support[negligible] == 0).all() and negligible[none].all()
    assert (count[negligible & ~none] > 0).all() and (count[none] == 0).all()


@pytest.mark.parametrize("c", [1, 4])
def test_capped_rows_sum_in_item_order(c):
    """A capped row sums its k kept weights in ascending item order, as an
    uncut row does, beside uncut rows of k neighbors.  Row 5 keeps weights
    0.1, 0.2 and 0.3, whose float64 sum in that order differs from the
    sum in descending order; row 6 ties three ways at the 3rd weight, and
    the two lower items win; row 7 keeps exactly 3 neighbors uncut; row 8
    keeps none; row 9 keeps 0.4, 0.6 and 0.7."""
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
    assert 0.4 + 0.6 + 0.7 != 0.7 + 0.6 + 0.4
    nan = np.nan
    block = np.array([[0.1, 0.2, 0.3, 0.05, nan],
                      [0.5, 0.25, 0.25, 0.25, -0.5],
                      [0.1, nan, 0.2, -1.0, 0.3],
                      [nan, -0.2, nan, nan, nan],
                      [0.4, 0.6, 0.7, 0.1, 0.2]])
    values = np.full((10, 10), nan)
    values[5:, :5], values[:5, 5:] = block, block.T
    sims = SimilarityStore("pearson", values, tuple(f"i{i}" for i in range(10)))
    rated = np.arange(5)
    ratings = np.random.default_rng(77).integers(1, 6, (5, c)).astype(float)
    ratings[:, 0] = (1.0, 2.0, 3.0, 5.0, 4.0)
    items = np.array([9, 5, 8, 6, 7])

    got, support = _kernel_matches_loop(sims, rated, ratings, items,
                                        NeighborhoodSpec(3))
    assert support.tolist() == [3, 3, 0, 3, 3]
    # row 6 keeps items 0, 1 and 2, not item 3 of the same weight
    assert got[3, 0] == (0.5 * 1.0 + 0.25 * 2.0 + 0.25 * 3.0) / 1.0


def _store_of(block):
    """(store, rated, items): the m rated items come first and hold the
    (n, m) block's similarities to the n scored items after them; every
    other pair is undefined."""
    n, m = block.shape
    values = np.full((m + n, m + n), np.nan)
    values[m:, :m], values[:m, m:] = block, block.T
    sims = SimilarityStore("pearson", values,
                           tuple(f"i{i}" for i in range(m + n)))
    return sims, np.arange(m), m + np.arange(n)


@pytest.mark.parametrize("c", [1, 4])
def test_unbounded_rows_sum_the_whole_rated_row(c):
    """An unbounded row sums over all of the user's rated items, in item
    order, with the weight 0 for each NaN or non-positive similarity.
    Item 12 keeps 7 of 12 rated items, with NaN and non-positive weights
    between them, so its pairwise row sum differs in the last bit from
    the sum of the 7 packed weights.  Each item scored alone (fewer
    scored items than rated) gives bitwise its value among all 14 (more
    scored than rated): both gather sides sum a C-ordered row."""
    nan = np.nan
    first = np.array([0.1, 0.2, 0.3, nan, 0.4, -0.5, 0.7, 0.0, nan, 0.6,
                      -0.1, 0.05])
    kept = first > 0
    assert first[kept].sum() != np.where(kept, first, 0.0).sum()
    rng = np.random.default_rng(78)
    m, n = 12, 14
    block = rng.integers(-2, 4, (n, m)) / 3
    block[rng.random((n, m)) < 0.2] = nan
    block[0] = first
    sims, rated, items = _store_of(block)
    ratings = rng.integers(1, 6, (m, c)).astype(float)
    ratings[:, 0] = (1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.0, 4.0)
    spec = NeighborhoodSpec()

    got, support = _kernel_matches_loop(sims, rated, ratings, items, spec)
    assert support[0] == 7
    for p, i in enumerate(items.tolist()):
        alone, alone_w = _neighborhood(sims, rated, ratings, np.array([i]),
                                       spec)
        assert np.array_equal(alone[0], got[p], equal_nan=True), i
        assert _support(alone, alone_w)[0] == support[p]


@pytest.mark.parametrize("c", [1, 4])
def test_capped_rows_sum_the_whole_rated_row(c):
    """A capped row sums over all of the user's rated items, in item
    order, with the weight 0 for each item it does not keep, as an
    unbounded row does.  With a cap of 5, item 12 has 8 positive weights
    of 12 and keeps 0.3, 0.6, 0.4, 0.2 and 0.7, with unselected positive,
    NaN and non-positive weights between them; item 13 keeps its 5
    positive weights uncut.  For both, the pairwise sum of the whole row
    differs in the last bit from the sum of the 5 packed weights.  Each
    item scored alone (fewer scored items than rated) gives bitwise its
    value among all 14 (more scored than rated)."""
    nan = np.nan
    first = np.array([0.3, 0.15, nan, 0.1, -0.3, 0.6, 0.4, 0.0, 0.05, nan,
                      0.2, 0.7])
    second = np.array([0.2, nan, 0.6, 0.3, -0.2, 0.0, 0.05, nan, -1 / 3,
                       nan, 0.4, -0.1])
    for row, kept in ((first, [0, 5, 6, 10, 11]), (second, [0, 2, 3, 6, 10])):
        zero_filled = np.zeros_like(row)
        zero_filled[kept] = row[kept]
        assert row[kept].sum() != zero_filled.sum()
    rng = np.random.default_rng(79)
    m, n = 12, 14
    block = rng.integers(-2, 4, (n, m)) / 3
    block[rng.random((n, m)) < 0.2] = nan
    block[:2] = first, second
    sims, rated, items = _store_of(block)
    ratings = rng.integers(1, 6, (m, c)).astype(float)
    ratings[:, 0] = (1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.0, 4.0)
    spec = NeighborhoodSpec(5)

    got, support = _kernel_matches_loop(sims, rated, ratings, items, spec)
    assert support[:2].tolist() == [5, 5]
    assert ((block > 0).sum(axis=1) > 5).sum() > 2    # other rows are cut
    for p, i in enumerate(items.tolist()):
        alone, alone_w = _neighborhood(sims, rated, ratings, np.array([i]),
                                       spec)
        assert np.array_equal(alone[0], got[p], equal_nan=True), i
        assert _support(alone, alone_w)[0] == support[p]


@pytest.mark.parametrize("c", [1, 4])
def test_capped_selection_at_its_boundaries(c):
    """The capped selection at its edges, at k = 4, each row against the
    loop.  Over m = 5 rated items: rows 0 and 1 have 5 positive weights,
    so the tie test reads the first column of the sorted row; row 1's two
    smallest tie at the k-th weight, and the lower item wins.  Row 2's
    five equal weights all tie: the room is k, and the four lower items
    win.  Row 3's three largest weights tie above the k-th weight but not
    at it, so it is not tied.  Over m = 7: rows 0 and 1 are capped rows
    holding -0.0 and 0.0, row 1 tied at the k-th weight.  The uncut rows
    (the last over m = 5, the last two over m = 7, one of them with exactly
    k neighbors), with small, -0.0, NaN and negative weights, score bitwise
    as in a call that cuts no row.  Then a user of exactly k rated items,
    whose rows cannot be cut, so _select counts none, and one of k + 1,
    each with NaN, -0.0, negative and tiny weights: rows whose total stays
    below DENOM_EPS (row 1 over m = k; over m = k + 1, row 2, cut from five
    weights to four), a capped row that keeps 1e-13 out (row 1) and one of
    five equal weights whose kept four still pass it (row 4)."""
    nan = np.nan
    spec = NeighborhoodSpec(4)
    rng = np.random.default_rng(80)
    scored = []
    for block, support in (
            (np.array([[0.3, 0.1, 0.5, 0.2, 0.4],
                       [0.3, 0.2, 0.5, 0.2, 0.4],
                       [0.25] * 5,
                       [0.5, 0.5, 0.5, 0.2, 0.1],
                       [0.005, nan, 0.2, -0.5, -0.0]]), [4, 4, 4, 4, 2]),
            (np.array([[0.3, -0.0, 0.2, 0.0, 0.4, 0.1, 0.5],
                       [0.3, -0.0, 0.2, 0.0, 0.2, 0.4, 0.5],
                       [0.1, nan, -0.0, 0.7, -0.3, 0.2, 0.0],
                       [-0.0, 0.3, 0.3, nan, 0.3, 0.0, 0.6]]), [4, 4, 3, 4]),
            (np.array([[0.3, nan, -0.0, 0.2],
                       [1e-13, 2e-13, nan, -0.5],
                       [0.5, 0.25, 0.4, 0.1],
                       [nan, -0.0, -0.2, 0.0],
                       [1e-13, 0.3, -0.0, 0.1]]), [2, 0, 4, 0, 3]),
            (np.array([[0.3, 1e-13, nan, 0.2, 0.4],
                       [0.3, 1e-13, 0.5, 0.2, 0.4],
                       [1e-14, 2e-14, 3e-14, 4e-14, 5e-14],
                       [-0.0, nan, -0.3, 0.0, 0.2],
                       [3e-13] * 5]), [4, 4, 0, 1, 4])):
        sims, rated, items = _store_of(block)
        ratings = rng.integers(1, 6, (len(rated), c)).astype(float)
        ratings[:, 0] = np.arange(len(rated)) % 5 + 1
        got, got_support = _kernel_matches_loop(sims, rated, ratings, items,
                                                spec)
        assert got_support.tolist() == support
        uncut = (block > 0).sum(axis=1) <= 4
        alone, _ = _neighborhood(sims, rated, ratings, items[uncut], spec)
        assert alone.tobytes() == got[uncut].tobytes()
        scored.append(got[:, 0])
    # of the five equal weights, the one on rated item 4 (rating 5) is cut
    assert scored[0][2] == (1 + 2 + 3 + 4) / 4
