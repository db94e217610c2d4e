import copy
import json
import re
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from_dense, random_dataset, traced
from mccf.core import (CriteriaRecord, CriteriaTensor, Dataset, RatingScale,
                       _CELL_BLOCK, _IndexMap, overall_slice)
from mccf.engine import (
    AggregationWeights,
    McConfig,
    ModelFormatError,
    NeighborhoodSpec,
    aggregate_overall,
    batch_predict,
    build_mc_model,
    fit_aggregation,
    load_model,
    mc_build_cells,
    mc_recommend_top_n,
    predict_criteria,
    predict_matrix,
    predict_overall,
    predict_single,
    recommend_top_n,
    save_model,
    _mc_score,
    _top_n,
)
from mccf.linalg import CellTensor, tucker_reconstruct
from mccf.similarity import SimilarityStore, item_similarity_matrix
from mccf.synth import SyntheticTensorSpec, generate_tensor
from oracles import (duplicate_overall_tensor, factored_value, loop_predict,
                     sim, top_n, whole_matrix_predictions)

NAN = np.nan

SPECS = [
    NeighborhoodSpec(),
    NeighborhoodSpec(max_neighbors=1),
    NeighborhoodSpec(max_neighbors=3),
]


@pytest.mark.parametrize("spec", SPECS, ids=[str(s) for s in SPECS])
def test_predictions_match_brute_force(spec):
    d = random_dataset(31, n_users=15, n_items=8)
    store = item_similarity_matrix(d, "pearson")
    for u, uid in enumerate(d.user_ids):
        for i, iid in enumerate(d.item_ids):
            expect = loop_predict(d, store, u, i, spec)
            got = predict_single(uid, iid, d, store, spec)
            if expect is None:
                assert got is None
            else:
                assert (got.value, got.support) == expect
                assert got.user_id == uid and got.item_id == iid


def test_predict_matrix_matches_per_pair():
    d = random_dataset(32, n_users=12, n_items=7)
    store = item_similarity_matrix(d, "euclidean")
    pm = predict_matrix(d, store)
    spec = NeighborhoodSpec()
    for u, uid in enumerate(d.user_ids):
        for i, iid in enumerate(d.item_ids):
            got = predict_single(uid, iid, d, store, spec)
            if got is None:
                assert np.isnan(pm[u, i])
            else:
                assert pm[u, i] == pytest.approx(got.value, abs=1e-10)
    with pytest.raises(ValueError):
        predict_matrix(d, store, NeighborhoodSpec(max_neighbors=5))


def test_store_over_other_items_is_rejected():
    # the kernel reads the store by the data's item indices, so a store of
    # other items, or of the same items in another order, is an error
    d = random_dataset(35, n_users=6, n_items=12)
    wide = random_dataset(36, n_users=6, n_items=20)
    store, wide_store = (item_similarity_matrix(x, "pearson") for x in (d, wide))
    reindexed = Dataset.from_records(list(d.iter_records())[::-1], d.scale)
    assert sorted(reindexed.item_ids) == sorted(d.item_ids) != list(d.item_ids)
    for data, sims in ((reindexed, store), (d, wide_store), (wide, store)):
        uid, iid = data.user_ids[0], data.item_ids[0]
        for call in (lambda: predict_single(uid, iid, data, sims),
                     lambda: batch_predict(data, sims, [0], [0]),
                     lambda: recommend_top_n(data, sims, uid, 3),
                     lambda: predict_matrix(data, sims)):
            with pytest.raises(ValueError, match="other items"):
                call()
        # the store is checked before the ids, so an unknown one is no way round
        for call in (lambda: predict_single("nobody", iid, data, sims),
                     lambda: predict_single(uid, "nothing", data, sims),
                     lambda: recommend_top_n(data, sims, "nobody", 3)):
            with pytest.raises(ValueError, match="other items"):
                call()
    # a store of equal ids in another tuple is the data's own
    same = SimilarityStore(store.kind, store.values, tuple(list(d.item_ids)))
    assert same.item_ids is not d.item_ids
    uid = d.user_ids[0]
    assert recommend_top_n(d, same, uid, 5) == recommend_top_n(d, store, uid, 5)


def test_batch_predict_checks_the_store_before_any_pair():
    # a store of other items is rejected with no pair to predict, and
    # before the pairs' own checks
    d = random_dataset(35, n_users=6, n_items=12)
    wide = item_similarity_matrix(random_dataset(36, n_users=6, n_items=20),
                                  "pearson")
    for users, items in (([], []), ([0], [-1]), ([0, 1], [0])):
        with pytest.raises(ValueError, match="other items"):
            batch_predict(d, wide, users, items)
    assert batch_predict(d, item_similarity_matrix(d, "pearson"), [], []).shape == (0,)


def test_predict_matrix_is_bitwise_the_whole_matrix_build():
    d = random_dataset(34, n_users=40, n_items=25, fill=0.3)
    for kind in ("pearson", "euclidean"):
        store = item_similarity_matrix(d, kind)
        before = store.values.copy()
        got = predict_matrix(d, store)
        expect = whole_matrix_predictions(d, store)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
        assert np.array_equal(store.values, before, equal_nan=True)


def test_batch_predict_both_paths():
    d = random_dataset(33, n_users=10, n_items=6)
    store = item_similarity_matrix(d, "tanimoto")
    users = np.array([0, 3, 7, 9])
    items = np.array([1, 5, 0, 2])
    for spec in (NeighborhoodSpec(), NeighborhoodSpec(max_neighbors=2)):
        out = batch_predict(d, store, users, items, spec)
        for n, (u, i) in enumerate(zip(users, items)):
            expect = loop_predict(d, store, u, i, spec)
            if expect is None:
                assert np.isnan(out[n])
            else:
                assert out[n] == expect[0]


def test_unknown_ids_are_no_prediction():
    d = random_dataset(34)
    store = item_similarity_matrix(d, "pearson")
    assert predict_single("ghost", d.item_ids[0], d, store) is None
    assert predict_single(d.user_ids[0], "ghost", d, store) is None


def test_negative_only_similarities_give_none():
    # the only defined similarity is negative; default spec excludes it
    d = dataset_from_dense(np.array([
        [5.0, 1.0, NAN],
        [1.0, 5.0, NAN],
        [4.0, 2.0, 3.0],
    ]))
    store = item_similarity_matrix(d, "pearson")
    assert sim(store, 0, 1) == pytest.approx(-1.0)
    assert predict_single("u0", "i2", d, store) is None


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 6))
def test_predictions_stay_in_scale(seed):
    d = random_dataset(seed, n_users=10, n_items=6)
    store = item_similarity_matrix(d, "euclidean")
    pm = predict_matrix(d, store)
    finite = pm[~np.isnan(pm)]
    assert np.all(finite >= 1.0) and np.all(finite <= 5.0)


def test_neighbor_tie_breaks_prefer_lower_index():
    # i3's similarity to i0/i1/i2 is identical; ratings differ per item
    store = SimilarityStore("euclidean", _tie_matrix(), ("i0", "i1", "i2", "i3"))
    d = dataset_from_dense(np.array([
        [5.0, 3.0, 1.0, NAN],
    ]))
    got = predict_single("u0", "i3", d, store, NeighborhoodSpec(max_neighbors=1))
    assert got.value == 5.0    # ties keep the lowest item index


def _tie_matrix():
    values = np.full((4, 4), NAN)
    for i in range(3):
        values[i, 3] = values[3, i] = 0.5
    return values


@settings(deadline=None, max_examples=150)
@given(st.lists(st.sampled_from([NAN, 1.0, 2.5, 2.5, 4.0, 0.0, -0.0, -1.0,
                                 np.inf]), max_size=40),
       st.integers(0, 50), st.integers(1, 45))
def test_top_n_partial_selection_matches_lexsort(values, first, n):
    """Heavy ties, NaNs, all-NaN and empty input, and n >= len: the
    partial selection keeps the lexsort rule on ascending items."""
    items = first + np.arange(len(values), dtype=np.int64) * 3
    values = np.array(values, dtype=np.float64)
    assert _top_n(items, values, n) == top_n(items, values, n)


def test_recommend_excludes_rated_and_orders():
    d = dataset_from_dense(np.array([
        [5.0, NAN, NAN, NAN],
        [4.0, 5.0, 3.0, 5.0],
    ]))
    store = SimilarityStore("euclidean", _tie_matrix_full(), d.item_ids)
    top = recommend_top_n(d, store, "u0", 4)
    items = [item for item, _ in top]
    assert "i0" not in items
    values = [v for _, v in top]
    assert values == sorted(values, reverse=True)
    # equal predicted values fall back to ascending item index
    tied = [item for item, v in top if v == max(values)]
    assert tied == sorted(tied)
    assert recommend_top_n(d, store, "ghost", 3) == []
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            recommend_top_n(d, store, "u0", bad)
    assert recommend_top_n(d, store, "u0", np.int64(3)) == top[:3]


def _tie_matrix_full():
    values = np.full((4, 4), 0.5)
    np.fill_diagonal(values, NAN)
    return values


def test_neighborhood_spec_validation():
    for bad in ({"max_neighbors": 0}, {"max_neighbors": 2.5},
                {"max_neighbors": True}, {"max_neighbors": "3"}):
        with pytest.raises(ValueError):
            NeighborhoodSpec(**bad)
    NeighborhoodSpec(max_neighbors=None)
    NeighborhoodSpec(max_neighbors=np.int64(3))


def test_aggregation_weights_validation():
    with pytest.raises(ValueError):
        AggregationWeights(float("nan"), (1.0,))
    with pytest.raises(ValueError):
        AggregationWeights(0.0, (float("inf"),))
    w = AggregationWeights(0.5, (0.25, 0.75))
    assert w.k == 2


def linear_tensor(seed, w0, weights, n_users=40, n_items=12):
    """Tensor whose overall is an exact linear map of its criteria."""
    rng = np.random.default_rng(seed)
    k = len(weights)
    crit = rng.uniform(2.0, 4.0, (n_users, n_items, k))
    overall = w0 + crit @ np.asarray(weights)
    assert overall.min() >= 1.0 and overall.max() <= 5.0
    from mccf.core import CriteriaRecord
    records = [
        CriteriaRecord(f"u{u}", f"i{i}", tuple(crit[u, i]), float(overall[u, i]))
        for u in range(n_users) for i in range(n_items)
    ]
    return CriteriaTensor.from_records(records, k, RatingScale.one_to_five())


def test_fit_aggregation_recovers_linear_map():
    t = linear_tensor(40, 0.2, (0.5, 0.3, 0.4))
    w = fit_aggregation(t)
    assert not w.fallback
    assert w.intercept == pytest.approx(0.2, abs=1e-5)
    assert np.allclose(w.weights, (0.5, 0.3, 0.4), atol=1e-5)


def test_fit_aggregation_falls_back_quietly_when_squares_overflow():
    # cells near 1e153 have squares near float64's limit, so their sums
    # overflow: the fit falls back to equal weights without a warning
    records = [CriteriaRecord(f"u{n}", "i0", (v, 2 * v), 3 * v)
               for n, v in enumerate(np.linspace(1e153, 9e153, 6))]
    t = CriteriaTensor.from_records(records, 2, RatingScale(0, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = fit_aggregation(t)
    assert w == AggregationWeights(0.0, (0.5, 0.5), fallback=True)


def test_fit_aggregation_fallback_when_underdetermined():
    from mccf.core import CriteriaRecord
    records = [
        CriteriaRecord("u0", "i0", (3.0, 2.0, 4.0), 3.0),
        CriteriaRecord("u0", "i1", (1.0, 2.0, 3.0), 2.0),
    ]
    w = fit_aggregation(CriteriaTensor.from_records(records, 3,
                                                    RatingScale.one_to_five()))
    assert w.fallback
    assert w.intercept == 0.0
    assert w.weights == (pytest.approx(1 / 3),) * 3


def test_aggregate_overall_clamps_and_validates():
    w = AggregationWeights(0.0, (2.0,))
    scale = RatingScale.one_to_five()
    assert aggregate_overall(w, [4.0], scale) == 5.0
    assert aggregate_overall(w, [0.4], scale) == 1.0
    with pytest.raises(ValueError):
        aggregate_overall(w, [1.0, 2.0], scale)
    # a non-finite prediction is refused, as a non-finite weight is: an
    # infinity would clamp to a bound and a NaN would pass through
    w = AggregationWeights(0.0, (0.5, 0.5))
    for preds in ([np.inf, 3.0], [np.nan, 3.0], [3.0, -np.inf]):
        with pytest.raises(ValueError, match="^criterion predictions must be finite"):
            aggregate_overall(w, preds, scale)


def test_mc_config_validation():
    for kind in ("dice", "latent", "", "Pearson"):
        with pytest.raises(ValueError, match="sim_kind"):
            McConfig(sim_kind=kind)
    assert McConfig().sim_kind == "latent_cosine"
    assert McConfig(sim_kind="tanimoto").sim_kind == "tanimoto"
    # a truthy string or number would build a centred model
    for pca in ("off", "on", 1, 0, None, np.True_):
        with pytest.raises(ValueError, match="^pca_option must be a bool"):
            McConfig(pca_option=pca)
    # the build checks its ranks by hosvd's rule before counting its cells
    t = small_tensor()
    for ranks, error in ((("2", 2, 2), "mode 1 rank must be an integer in [1, 21), got '2'"),
                         ((2, 2), "ranks must be three integers, got (2, 2)"),
                         ((2, 2, 2, 2), "ranks must be three integers, got (2, 2, 2, 2)")):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            build_mc_model(t, ranks)
    # a neighborhood that is no NeighborhoodSpec fails where the config is
    # made, not at the model's first prediction or save
    for bad in (5, None, "5", (5,)):
        error = f"neighborhood must be a NeighborhoodSpec, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            McConfig(neighborhood=bad)


def test_synthetic_spec_validation():
    for bad in (dict(n_users=1), dict(n_items=1), dict(n_groups=0),
                dict(n_groups=25), dict(n_criteria=0), dict(noise_std=-0.1),
                dict(n_users=60.5), dict(n_groups=True), dict(n_criteria=2.0),
                dict(seed=1.5), dict(seed=-1), dict(seed=2 ** 64)):
        with pytest.raises(ValueError):
            SyntheticTensorSpec(**bad)
    spec = SyntheticTensorSpec(n_groups=np.int64(24), seed=np.uint64(3))
    assert spec.ranks == (2, 24, 4)
    # the noise is a real, finite sigma >= 0 where the spec is made: NaN
    # built a noiseless tensor, True a noise of 1 and inf failed in the scale
    for bad in (float("nan"), True, float("inf"), "0.1", -0.1, None):
        with pytest.raises(ValueError, match="^noise_std must be a finite number >= 0"):
            SyntheticTensorSpec(noise_std=bad)
    for sd in (0, 0.0, np.float64(0.5), 2):
        assert SyntheticTensorSpec(noise_std=sd).noise_std == sd


def small_tensor(seed=50):
    return generate_tensor(SyntheticTensorSpec(
        n_users=20, n_items=12, n_groups=3, n_criteria=2, noise_std=0.2,
        seed=seed))


def test_build_mc_model_store_layout():
    t = small_tensor()
    latent = build_mc_model(t, (2, 3, 3), McConfig(seed=1))
    assert len(latent.item_similarities) == 1
    assert latent.item_similarities[0].kind == "latent_cosine"
    recon = build_mc_model(t, (2, 3, 3), McConfig(sim_kind="euclidean", seed=1))
    assert len(recon.item_similarities) == t.k
    assert all(s.kind == "euclidean" for s in recon.item_similarities)
    assert len({id(s) for s in recon.item_similarities}) == t.k


def _without_neighbors(m):
    """m with stores that have no defined similarity, so that every
    criterion takes the fallback."""
    model = copy.copy(m)
    model.item_similarities = tuple(
        SimilarityStore(s.kind, np.full_like(s.values, NAN), s.item_ids)
        for s in m.item_similarities)
    return model


def test_factored_rows_preserve_observed_cells():
    # the fallback at an observed cell is its rating; w is core x2 U2 x3
    # U3, and U1[u] . w[i] (plus the slice means) the dense reconstruction's
    # criteria
    t = small_tensor(51)
    for pca_option in (False, True):
        m = build_mc_model(t, (2, 3, 3), McConfig(pca_option=pca_option,
                                                  seed=3))
        model = _without_neighbors(m)
        for u in range(t.n_users):
            rated, cells = t.cells_of(u)
            assert np.array_equal(_mc_score(model, u, rated)[:, 1:], cells[:, 1:])
        core, (u1, u2, u3) = m.tucker.core, m.tucker.factors
        assert np.allclose(m.w, np.einsum("abc,ib,sc->isa", core, u2, u3),
                           rtol=0, atol=1e-12)
        dense = tucker_reconstruct(m.tucker)
        if pca_option:
            dense += m.slice_means
        users, items = t.cell_index()
        assert np.allclose(m.reconstruction(users, items),
                           dense[users, items, 1:], rtol=0, atol=1e-12)
        assert (m.slice_means is None) == (not pca_option)


def test_batch_reconstruction_is_per_pair_calls():
    # one dot product over w's contiguous r1 axis per value: a batch that
    # spans a block bound gives each pair's and each criterion's bits alone,
    # so the reconstructed-space stores take all k criteria in one call
    t = small_tensor(58)
    rng = np.random.default_rng(58)
    users = rng.integers(0, t.n_users, _CELL_BLOCK + 100)
    items = rng.integers(0, t.n_items, len(users))
    for pca_option in (False, True):
        m = build_mc_model(t, (2, 3, 3), McConfig(pca_option=pca_option,
                                                  seed=8))
        batch = m.reconstruction(users, items)
        assert batch.shape == (len(users), t.k)
        u1, means = m.tucker.factors[0], m.slice_means
        for p, (u, i) in enumerate(zip(users.tolist(), items.tolist())):
            one = m.reconstruction(users[p:p + 1], items[p:p + 1])[0]
            assert one.tobytes() == batch[p].tobytes()
            for c in range(1, t.k + 1):
                value = np.vecdot(m.w[i, c], u1[u])
                value += 0.0 if means is None else means[i, c]
                assert value == one[c - 1]


def test_index_pairs_are_checked_alike():
    # batch_predict and reconstruction take one rule: equal-length 1-D
    # integer arrays of indices in range, so no negative index wraps to the
    # last user or item and no array of one broadcasts over the other
    d = random_dataset(33, n_users=10, n_items=6)
    store = item_similarity_matrix(d, "tanimoto")
    t = small_tensor(59)
    m = build_mc_model(t, (2, 3, 3), McConfig(seed=3))
    for n_users, n_items, call in (
            (d.n_users, d.n_items, lambda u, i: batch_predict(d, store, u, i)),
            (t.n_users, t.n_items, lambda u, i: m.reconstruction(
                np.asarray(u), np.asarray(i)))):
        for users, items in (([0], [-1]), ([-1], [0]), ([0, 1, 2], [0]),
                             ([0], [0, 1]), ([n_users], [0]), ([0], [n_items]),
                             ([0.0], [0]), ([0], [True]), ([[0]], [[0]]),
                             (0, 0)):
            with pytest.raises(ValueError, match="indices"):
                call(users, items)
        # the last indices, in any integer type, and no pairs at all pass
        assert len(call(np.uint8([n_users - 1]), np.int32([n_items - 1]))) == 1
        assert len(call([], [])) == 0


def test_predict_criteria_shape_and_bounds():
    t = small_tensor(52)
    model = build_mc_model(t, (2, 3, 3), McConfig(seed=4))
    preds = predict_criteria(model, t.user_ids[0], t.item_ids[3])
    assert preds.shape == (t.k,)
    assert np.all(preds >= 1.0) and np.all(preds <= 5.0)
    assert predict_criteria(model, "ghost", t.item_ids[0]) is None
    assert predict_overall(model, "ghost", t.item_ids[0]) is None
    value = predict_overall(model, t.user_ids[0], t.item_ids[3])
    assert 1.0 <= value <= 5.0


def test_predict_overall_is_aggregated_criteria():
    t = small_tensor(53)
    model = build_mc_model(t, (2, 3, 3), McConfig(seed=5))
    uid, iid = t.user_ids[2], t.item_ids[1]
    crits = predict_criteria(model, uid, iid)
    assert predict_overall(model, uid, iid) == pytest.approx(
        aggregate_overall(model.aggregation, crits, t.scale), abs=1e-12)


def test_unreachable_neighborhood_falls_back_to_reconstruction():
    t = small_tensor(54)
    lo, hi = t.scale.min_value, t.scale.max_value
    for kind in ("latent_cosine", "pearson"):
        for pca_option in (False, True):
            model = _without_neighbors(build_mc_model(t, (2, 3, 3), McConfig(
                sim_kind=kind, pca_option=pca_option, seed=6)))
            for u, uid in enumerate(t.user_ids):
                expect = np.clip([[factored_value(model, u, i, c)
                                   for c in range(1, t.k + 1)]
                                  for i in range(t.n_items)], lo, hi)
                # one item at a time and all at once give the same bits
                assert np.array_equal(
                    _mc_score(model, u, np.arange(t.n_items))[:, 1:], expect)
                for i, iid in enumerate(t.item_ids):
                    assert np.array_equal(predict_criteria(model, uid, iid),
                                          expect[i])


def test_mc_recommend_excludes_training_cells():
    t = small_tensor(55)
    model = build_mc_model(t, (2, 3, 3), McConfig(seed=7))
    uid = t.user_ids[0]
    rated = {t.item_id(i) for i in t.cells_of(0)[0].tolist()}
    top = mc_recommend_top_n(model, uid, 5)
    assert all(item not in rated for item, _ in top)
    values = [v for _, v in top]
    assert values == sorted(values, reverse=True)
    assert mc_recommend_top_n(model, "ghost", 5) == []
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            mc_recommend_top_n(model, uid, bad)
    assert mc_recommend_top_n(model, uid, np.int64(3)) == top[:3]


MODEL_KEYS = {"header", "user_ids", "item_ids", "cell_index", "cells",
              "core", "factor1", "factor2", "factor3"}


def test_save_load_roundtrip(tmp_path):
    # both similarity spaces, with and without the PCA centering
    t = small_tensor(57)
    for sim_kind in ("latent_cosine", "pearson"):
        for pca_option in (False, True):
            config = McConfig(sim_kind=sim_kind, pca_option=pca_option, seed=9,
                              neighborhood=NeighborhoodSpec(max_neighbors=4))
            model = build_mc_model(t, (2, 3, 3), config)
            if pca_option:
                # the centring's slice means are the item means, bit for bit
                assert (model.slice_means.tobytes()
                        == CellTensor(t)._term[1].tobytes())
            _assert_roundtrip(model, tmp_path / "model.txt")
    # numpy scalars are saved as the numbers they hold, a float32 bound
    # neither cut to an integer nor rounded
    t = CriteriaTensor(_IndexMap(t.user_ids), _IndexMap(t.item_ids),
                       *t.cell_index(), t.cell_matrix(),
                       RatingScale(np.float32(0.7), 5.0))
    config = McConfig(seed=np.int64(9),
                      neighborhood=NeighborhoodSpec(np.int64(4)))
    _assert_roundtrip(build_mc_model(t, (2, 3, 3), config),
                      tmp_path / "model.npz")


def _assert_roundtrip(model, path):
    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        assert set(archive.files) == MODEL_KEYS
    back = load_model(path)
    assert back.ranks == model.ranks == (2, 3, 3)
    assert back.config == model.config
    assert back.scale == model.scale
    assert back.aggregation == model.aggregation
    t = model.tensor
    assert back.tensor.user_ids == t.user_ids
    assert back.tensor.item_ids == t.item_ids
    assert np.array_equal(back.tensor.cell_matrix(), t.cell_matrix())
    assert np.array_equal(back.w, model.w)
    if model.slice_means is None:
        assert back.slice_means is None
    else:
        assert back.slice_means.tobytes() == model.slice_means.tobytes()
    assert len(back.item_similarities) == len(model.item_similarities)
    for a, b in zip(back.item_similarities, model.item_similarities):
        assert a.kind == b.kind
        assert np.array_equal(a.values, b.values, equal_nan=True)
    for a, b in zip(back.criteria_data, model.criteria_data):
        assert np.array_equal(a.to_dense(), b.to_dense(), equal_nan=True)
    for uid in t.user_ids:
        for iid in t.item_ids:
            assert np.array_equal(predict_criteria(back, uid, iid),
                                  predict_criteria(model, uid, iid))
        assert mc_recommend_top_n(back, uid, 5) == mc_recommend_top_n(model, uid, 5)


def test_save_load_keeps_id_maps(tmp_path):
    # z first appears after y, but in a's (user, item)-sorted cells it
    # comes before y: a reload that re-indexes the saved cells in order
    # would swap y and z
    recs = [CriteriaRecord("a", "x", (4.0,), 4.0),
            CriteriaRecord("b", "y", (2.0,), 3.0),
            CriteriaRecord("b", "z", (5.0,), 5.0),
            CriteriaRecord("a", "z", (3.0,), 2.0)]
    t = CriteriaTensor.from_records(recs, 1, RatingScale.one_to_five())
    model = build_mc_model(t, (2, 3, 2), McConfig(seed=3))
    save_model(model, tmp_path / "model.npz")
    back = load_model(tmp_path / "model.npz")
    assert back.tensor.user_ids == ("a", "b")
    assert back.tensor.item_ids == ("x", "y", "z")
    assert np.array_equal(back.tensor.cell_matrix(), t.cell_matrix())
    assert np.array_equal(back.w, model.w)
    for got, want in zip(back.item_similarities, model.item_similarities):
        assert np.array_equal(got.values, want.values, equal_nan=True)
    for uid in t.user_ids:
        for iid in t.item_ids:
            assert np.array_equal(predict_criteria(back, uid, iid),
                                  predict_criteria(model, uid, iid))
        assert mc_recommend_top_n(back, uid, 3) == mc_recommend_top_n(model, uid, 3)


def _members(path):
    """(name, bytes) of each archive member, in order: the archive less
    the zip timestamps."""
    with zipfile.ZipFile(path) as archive:
        return [(info.filename, archive.read(info))
                for info in archive.infolist()]


def test_saved_archive_is_byte_identical(tmp_path):
    # the cell index comes from the tensor's own cell arrays; it is the
    # one the stored-cell mask gives, and a load saves to the same bytes
    t = small_tensor(56)
    model = build_mc_model(t, (2, 3, 3), McConfig(pca_option=True, seed=8))
    save_model(model, tmp_path / "a.npz")
    save_model(load_model(tmp_path / "a.npz"), tmp_path / "b.npz")
    with np.load(tmp_path / "a.npz", allow_pickle=False) as archive:
        arrays = dict(archive)
    arrays["cell_index"] = np.stack(np.nonzero(t.to_mask()), axis=1)
    with open(tmp_path / "c.npz", "wb") as fh:
        np.savez(fh, **arrays)
    assert _members(tmp_path / "a.npz") == _members(tmp_path / "b.npz") \
        == _members(tmp_path / "c.npz")


def test_load_rejects_corrupt_file(tmp_path):
    t = small_tensor(58)
    model = build_mc_model(t, (2, 3, 3), McConfig(seed=10))
    p = tmp_path / "model.npz"
    save_model(model, p)
    good = dict(np.load(p, allow_pickle=False))
    raw = p.read_bytes()
    header = json.loads(good["header"].item())
    assert header == {"magic": "mccf-model", "version": 6,
                      "scale": [1.0, 5.0, None],
                      "config": [False, "latent_cosine", None, 10]}
    load_model(p)

    def assert_rejected(data=None, **changes):
        bad = tmp_path / "bad.npz"
        if data is None:
            arrays = {key: value for key, value in {**good, **changes}.items()
                      if value is not None}
            with open(bad, "wb") as fh:
                np.savez(fh, **arrays)
        else:
            bad.write_bytes(data)
        with pytest.raises(ModelFormatError):
            load_model(bad)

    def with_header(**changes):
        return np.array(json.dumps({**header, **changes}))

    # not an npz archive: an old text model, an .npy array, an empty file
    assert_rejected(b"mccf-model 1\nscale 1.0 5.0 5 -\n")
    with open(tmp_path / "array.npy", "wb") as fh:
        np.save(fh, np.arange(3))
    assert_rejected((tmp_path / "array.npy").read_bytes())
    assert_rejected(b"")
    # truncated archives
    assert_rejected(raw[:len(raw) // 2])
    assert_rejected(raw[:-1])
    # a schema 5 file, which kept each setting in a member of its own
    assert_rejected(header=None, magic=np.array("mccf-model"),
                    version=np.array(5), scale=np.array([1.0, 5.0]),
                    grade_labels=np.array((), dtype=str),
                    config=np.array(["off", "latent_cosine", "10"]),
                    neighborhood=np.array([np.nan]))
    # a header that is no JSON object, or lacks an entry
    for text in ("", "not json", "[6]", "6", '"mccf-model"'):
        assert_rejected(header=np.array(text))
    assert_rejected(header=np.arange(3))
    for key in header:
        assert_rejected(header=np.array(json.dumps(
            {k: v for k, v in header.items() if k != key})))
    # the header's magic and version, every member, then the cells and
    # factors against the id maps
    assert_rejected(header=with_header(magic="not-a-model"))
    for version in (1, 2, 3, 4, 5, 7, 6.0, "6", [6], True, None):
        assert_rejected(header=with_header(version=version))
    assert set(good) == MODEL_KEYS
    for key in good:
        assert_rejected(**{key: None})
    for row, col, value in ((0, 0, t.n_users), (0, 1, t.n_items),
                            (-1, 0, -1), (-1, 1, -1)):
        index = good["cell_index"].copy()
        index[row, col] = value
        assert_rejected(cell_index=index)
    assert_rejected(cell_index=good["cell_index"][1:])
    # a cell listed twice, which would hide the cell it overwrote
    index = good["cell_index"].copy()
    index[1] = index[0]
    assert_rejected(cell_index=index)
    # indices that would not index, or would mask
    assert_rejected(cell_index=good["cell_index"] + 0.25)
    assert_rejected(cell_index=good["cell_index"] > 0)
    # ids that are not strings
    assert_rejected(user_ids=np.arange(t.n_users))
    assert_rejected(item_ids=np.arange(t.n_items).astype(float))
    # a PCA flag that is no bool, an unknown kind, a seed that is no seed;
    # a config of the wrong length (schema 4's also stored the impute
    # strategy) or with no cap
    for config in (["off", "latent_cosine", None, 10],
                   [1, "latent_cosine", None, 10],
                   [False, "dice", None, 10], [False, ["pearson"], None, 10],
                   [False, "latent_cosine", None, -1],
                   [False, "latent_cosine", None, "10"],
                   [False, "latent_cosine", "item_mean", None, 10],
                   [False, "latent_cosine", 10]):
        assert_rejected(header=with_header(config=config))
    # a cap that is not a whole number, non-positive, infinite or of the
    # wrong type
    for cap in (2.5, 2.0, 0, -1, np.inf, -np.inf, np.nan, "3", [2], True):
        assert_rejected(header=with_header(
            config=[False, "latent_cosine", cap, 10]))
    # infinite, unordered or missing bounds, a scale of the wrong length
    # (schema 4's also stored a level count)
    for scale in ([1.0, np.inf, None], [1.0, np.nan, None],
                  [np.nan, 5.0, None], [5.0, 1.0, None], [-np.inf, 5.0, None],
                  ["1", 5.0, None], [1.0, None, None], [1.0, 5.0],
                  [1.0, 5.0, 5, None], [[1.0, 5.0], None]):
        assert_rejected(header=with_header(scale=scale))
    # grade labels that do not give each whole number of the scale one
    for scale in ([1.0, 5.0, ["a", "b"]], [1.0, 5.5, list("abcde")],
                  [1.0, 5.0, []]):
        assert_rejected(header=with_header(scale=scale))
    # bools for bounds; labels that are one string (not split into
    # letters), a number, an object or a list not all of strings
    for scale in ([True, 5.0, None], [0.0, True, None], [1.0, 5.0, "abcde"],
                  [1.0, 5.0, 5], [1.0, 5.0, {"a": 1}],
                  [1.0, 5.0, [1, 2, 3, 4, 5]],
                  [1.0, 5.0, ["a", "b", "c", "d", None]]):
        assert_rejected(header=with_header(scale=scale))
    # factors of another tensor shape, or of other ranks than the core's;
    # one user row would otherwise broadcast over every user
    assert_rejected(factor1=good["factor1"][:1])
    assert_rejected(factor2=good["factor2"][1:])
    assert_rejected(factor3=good["factor3"][:, :1])
    assert_rejected(core=good["core"][:1])
    # cells without criteria, even with a matching mode-3 factor
    assert_rejected(cells=good["cells"][:, :1], factor3=good["factor3"][:1])
    # a non-finite core or factor entry, which every score would carry
    for key in ("core", "factor1", "factor2", "factor3"):
        for value in (np.inf, np.nan):
            bad = good[key].copy()
            bad.flat[0] = value
            assert_rejected(**{key: bad})


def test_hosvd_budget_checked_before_any_dense_copy(monkeypatch):
    # 15,000 x 15,000 x 2 cells is 4.5e8, above the 2e8 budget; a dense
    # float64 copy would take 3.6 GB
    n = 15_000
    ids = _IndexMap([str(x) for x in range(n)])
    diagonal = np.arange(n)
    t = CriteriaTensor(ids, ids, diagonal, diagonal, np.full((n, 2), 3.0),
                       RatingScale.one_to_five())

    def dense_copy(*args, **kwargs):
        raise AssertionError("dense copy made before the budget check")

    monkeypatch.setattr(CriteriaTensor, "to_dense", dense_copy)
    monkeypatch.setattr(CriteriaTensor, "to_mask", dense_copy)
    with pytest.raises(ValueError, match="budget"):
        build_mc_model(t, (2, 2, 2))


def test_budget_counts_the_copies_a_build_holds(monkeypatch, tmp_path):
    # a build or load runs at the build's footprint; one cell fewer
    # rejects both before the factoring, a store or any dense copy
    t = generate_tensor(SyntheticTensorSpec(n_users=20, n_items=10, seed=1))
    ranks = (2, 3, 3)
    for config in (McConfig(), McConfig(sim_kind="pearson", pca_option=True)):
        cells = mc_build_cells(t, ranks, config)
        path = tmp_path / "model.npz"
        monkeypatch.undo()
        save_model(build_mc_model(t, ranks, config), path)
        monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells)
        build_mc_model(t, ranks, config)
        load_model(path)
        monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells - 1)

        def allocation(*args, **kwargs):
            raise AssertionError("allocation made before the budget check")

        for name in ("mccf.engine.CellTensor", "mccf.engine.hosvd",
                     "mccf.engine.item_similarity_matrix"):
            monkeypatch.setattr(name, allocation)
        monkeypatch.setattr(CriteriaTensor, "to_dense", allocation)
        monkeypatch.setattr(CriteriaTensor, "to_mask", allocation)
        with pytest.raises(ValueError, match="budget"):
            build_mc_model(t, ranks, config)
        with pytest.raises(ModelFormatError, match="budget"):
            load_model(path)


def test_budget_admits_no_build_a_store_rejects(monkeypatch):
    # 2,000 users x 200 items x 2 slices, one cell per user, under a budget
    # of the latent build's own count: its 200 x 200 store fits, as it
    # forms no users x items array; a reconstructed-space build also holds
    # the 400,000-cell users x items operands of its stores' builds and is
    # rejected before the factoring runs
    rng = np.random.default_rng(18)
    n_users, n_items, ranks = 2000, 200, (2, 2, 2)
    users = np.arange(n_users)
    t = CriteriaTensor(_IndexMap([f"u{u}" for u in users]),
                       _IndexMap([f"i{i}" for i in range(n_items)]),
                       users, users % n_items,
                       rng.integers(1, 6, size=(n_users, 2)).astype(float),
                       RatingScale.one_to_five())
    cells = mc_build_cells(t, ranks, McConfig())
    assert cells + n_users * n_items <= mc_build_cells(
        t, ranks, McConfig(sim_kind="pearson"))
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells)
    assert build_mc_model(t, ranks).item_similarities[0].values.shape == \
        (n_items, n_items)

    def factoring(*args, **kwargs):
        raise AssertionError("factoring run before the budget check")

    monkeypatch.setattr("mccf.engine.hosvd", factoring)
    with pytest.raises(ValueError, match="budget"):
        build_mc_model(t, ranks, McConfig(sim_kind="pearson"))


def test_sparse_build_peaks_below_one_dense_copy():
    # 2,000 x 1,500 x 5 cells, 120 MB a dense copy, with 1% of the cells
    # observed: the build holds no dense tensor at all
    rng = np.random.default_rng(60)
    n_users, n_items, n_cells = 2000, 1500, 30_000
    flat = rng.choice(n_users * n_items, size=n_cells, replace=False)
    t = CriteriaTensor(_IndexMap([f"u{x}" for x in range(n_users)]),
                       _IndexMap([f"i{x}" for x in range(n_items)]),
                       flat // n_items, flat % n_items,
                       rng.integers(1, 6, size=(n_cells, 5)).astype(float),
                       RatingScale.one_to_five())
    copy = n_users * n_items * 5 * 8
    for config in (McConfig(), McConfig(pca_option=True)):
        _, peak, _ = traced(lambda: build_mc_model(t, (8, 8, 3), config))
        assert peak < copy, (config, peak / copy)


def test_degenerate_single_criterion_matches_plain_cf():
    d = random_dataset(59, n_users=15, n_items=10, fill=0.8)
    t = duplicate_overall_tensor(d)
    ranks = (t.n_users, t.n_items, 2)
    model = build_mc_model(t, ranks, McConfig(sim_kind="euclidean", seed=0))
    store = item_similarity_matrix(overall_slice(t), "euclidean")
    spec = NeighborhoodSpec()
    for uid in t.user_ids:
        for iid in t.item_ids:
            mc = predict_overall(model, uid, iid)
            plain = predict_single(uid, iid, overall_slice(t), store, spec)
            if plain is None:
                continue
            assert mc == pytest.approx(plain.value, abs=1e-6)
