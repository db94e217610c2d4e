import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_from_dense, random_dataset
from mccf.core import (CriteriaRecord, CriteriaTensor, Dataset, RatingScale,
                       _IndexMap, overall_slice)
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
    mc_recommend_top_n,
    predict_criteria,
    predict_matrix,
    predict_overall,
    predict_single,
    recommend_top_n,
    save_model,
)
from mccf.similarity import SimilarityStore, item_similarity_matrix
from mccf.synth import SyntheticTensorSpec, generate_tensor
from oracles import sim

NAN = np.nan


def brute_predict(d, store, uid, iid, spec):
    """Independent loop implementation of the neighborhood formula."""
    if not (d.has_user(uid) and d.has_item(iid)):
        return None
    u, i = d.user_index(uid), d.item_index(iid)
    thr = 0.0 if spec.min_similarity is None else spec.min_similarity
    cands = []
    items, vals = d.items_of(u)
    for j, r in zip(items.tolist(), vals.tolist()):
        s = sim(store, i, int(j))
        if s is not None and s > thr:
            cands.append((s, int(j), r))
    cands.sort(key=lambda t: (-t[0], t[1]))
    if spec.max_neighbors is not None:
        cands = cands[:spec.max_neighbors]
    den = sum(abs(s) for s, _, _ in cands)
    if den < 1e-12:
        return None
    val = sum(s * r for s, _, r in cands) / den
    return d.scale.clamp(val)


SPECS = [
    NeighborhoodSpec(),
    NeighborhoodSpec(max_neighbors=1),
    NeighborhoodSpec(max_neighbors=3),
    NeighborhoodSpec(min_similarity=0.4),
    NeighborhoodSpec(max_neighbors=2, min_similarity=-1.0),
]


@pytest.mark.parametrize("spec", SPECS, ids=[str(s) for s in SPECS])
def test_predictions_match_brute_force(spec):
    d = random_dataset(31, n_users=15, n_items=8)
    store = item_similarity_matrix(d, "pearson")
    for uid in d.user_ids:
        for iid in d.item_ids:
            expect = brute_predict(d, store, uid, iid, spec)
            got = predict_single(uid, iid, d, store, spec)
            if expect is None:
                assert got is None
            else:
                assert got.value == pytest.approx(expect, abs=1e-10)
                assert got.user_id == uid and got.item_id == iid
                assert got.support >= 1


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


def test_batch_predict_both_paths():
    d = random_dataset(33, n_users=10, n_items=6)
    store = item_similarity_matrix(d, "tanimoto")
    users = np.array([0, 3, 7, 9])
    items = np.array([1, 5, 0, 2])
    for spec in (NeighborhoodSpec(), NeighborhoodSpec(max_neighbors=2)):
        out = batch_predict(d, store, users, items, spec)
        for n, (u, i) in enumerate(zip(users, items)):
            expect = brute_predict(d, store, d.user_id(u), d.item_id(i), spec)
            if expect is None:
                assert np.isnan(out[n])
            else:
                assert out[n] == pytest.approx(expect, abs=1e-10)


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
    # an explicit threshold below -1 admits them, weighted by |sim|
    got = predict_single("u2", "i2", d, store, NeighborhoodSpec(min_similarity=-1.5))
    assert got is None or got.value >= 1.0    # i2 has no defined sims at all


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
    with pytest.raises(ValueError):
        recommend_top_n(d, store, "u0", 0)


def _tie_matrix_full():
    values = np.full((4, 4), 0.5)
    np.fill_diagonal(values, NAN)
    return values


def test_neighborhood_spec_validation():
    for bad in ({"max_neighbors": 0}, {"max_neighbors": 2.5},
                {"max_neighbors": True}, {"max_neighbors": "3"},
                {"min_similarity": float("nan")},
                {"min_similarity": float("inf")},
                {"min_similarity": -float("inf")}):
        with pytest.raises(ValueError):
            NeighborhoodSpec(**bad)
    NeighborhoodSpec(max_neighbors=None)
    NeighborhoodSpec(max_neighbors=np.int64(3), min_similarity=-1.0)


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


def test_mc_config_validation():
    for kind in ("dice", "latent", "", "Pearson"):
        with pytest.raises(ValueError, match="sim_kind"):
            McConfig(sim_kind=kind)
    assert McConfig().sim_kind == "latent_cosine"
    assert McConfig(sim_kind="tanimoto").sim_kind == "tanimoto"


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


def test_denoised_preserves_observed_cells():
    t = small_tensor(51)
    model = build_mc_model(t, (2, 3, 3), McConfig(seed=3))
    from mccf.linalg import impute_missing
    dense = t.to_dense()
    mask = t.to_mask()
    for s in range(t.k + 1):
        imputed = impute_missing(dense[:, :, s], "item_mean")
        assert np.array_equal(model.denoised[:, :, s][mask], imputed[mask])


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
    # sims are capped at 1, so a threshold above 1 empties every neighborhood
    config = McConfig(seed=6, neighborhood=NeighborhoodSpec(min_similarity=2.0))
    model = build_mc_model(t, (2, 3, 3), config)
    u, i = 0, 0
    preds = predict_criteria(model, t.user_id(u), t.item_id(i))
    for c in range(1, t.k + 1):
        expect = t.scale.clamp(float(model.denoised[u, i, c]))
        assert preds[c - 1] == pytest.approx(expect, abs=1e-12)


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


MODEL_KEYS = {"magic", "version", "scale", "grade_labels", "config",
              "neighborhood", "user_ids", "item_ids", "cell_index", "cells",
              "core", "factor1", "factor2", "factor3"}


def test_save_load_roundtrip(tmp_path):
    # both similarity spaces, with and without the PCA centering
    t = small_tensor(57)
    for sim_kind in ("latent_cosine", "pearson"):
        for pca_option in (False, True):
            config = McConfig(sim_kind=sim_kind, pca_option=pca_option, seed=9,
                              neighborhood=NeighborhoodSpec(max_neighbors=4))
            _assert_roundtrip(build_mc_model(t, (2, 3, 3), config),
                              tmp_path / "model.txt")


def _assert_roundtrip(model, path):
    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        assert set(archive.files) == MODEL_KEYS
    back = load_model(path)
    assert back.ranks == model.ranks == (2, 3, 3)
    assert back.config == model.config
    assert back.aggregation == model.aggregation
    t = model.tensor
    assert back.tensor.user_ids == t.user_ids
    assert back.tensor.item_ids == t.item_ids
    assert np.array_equal(back.tensor.cell_matrix(), t.cell_matrix())
    assert np.array_equal(back.denoised, model.denoised)
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
    assert np.array_equal(back.denoised, model.denoised)
    for got, want in zip(back.item_similarities, model.item_similarities):
        assert np.array_equal(got.values, want.values, equal_nan=True)
    for uid in t.user_ids:
        for iid in t.item_ids:
            assert np.array_equal(predict_criteria(back, uid, iid),
                                  predict_criteria(model, uid, iid))
        assert mc_recommend_top_n(back, uid, 3) == mc_recommend_top_n(model, uid, 3)


def test_load_rejects_corrupt_file(tmp_path):
    t = small_tensor(58)
    model = build_mc_model(t, (2, 3, 3), McConfig(seed=10))
    p = tmp_path / "model.npz"
    save_model(model, p)
    good = dict(np.load(p, allow_pickle=False))
    raw = p.read_bytes()

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

    # not an npz archive: an old text model, an .npy array, an empty file
    assert_rejected(b"mccf-model 1\nscale 1.0 5.0 5 -\n")
    with open(tmp_path / "array.npy", "wb") as fh:
        np.save(fh, np.arange(3))
    assert_rejected((tmp_path / "array.npy").read_bytes())
    assert_rejected(b"")
    # truncated archives
    assert_rejected(raw[:len(raw) // 2])
    assert_rejected(raw[:-1])
    # header, every key, then the cells and factors against the id maps
    assert_rejected(magic=np.array("not-a-model"))
    assert_rejected(version=np.array(1))
    assert_rejected(version=np.array(2))
    assert_rejected(version=np.array(4))
    assert_rejected(version=np.array(3.0))
    assert_rejected(version=np.array("3"))
    assert_rejected(version=np.array([3]))
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
    assert_rejected(config=np.array(["off", "dice", "item_mean", "10"]))
    # factors of another tensor shape, or of other ranks than the core's;
    # one user row would otherwise broadcast over every user
    assert_rejected(factor1=good["factor1"][:1])
    assert_rejected(factor2=good["factor2"][1:])
    assert_rejected(factor3=good["factor3"][:, :1])
    assert_rejected(core=good["core"][:1])
    # cells without criteria, even with a matching mode-3 factor
    assert_rejected(cells=good["cells"][:, :1], factor3=good["factor3"][:1])


def test_hosvd_budget_checked_before_any_dense_copy(monkeypatch):
    # 15,000 x 15,000 x 2 cells is 4.5e8, above the 2e8 budget; a dense
    # float64 copy would take 3.6 GB
    n = 15_000
    ids = _IndexMap([str(x) for x in range(n)])
    diagonal = np.arange(n)
    t = CriteriaTensor(ids, ids, 1, diagonal, diagonal, np.full((n, 2), 3.0),
                       RatingScale.one_to_five())

    def dense_copy(*args, **kwargs):
        raise AssertionError("dense copy made before the budget check")

    monkeypatch.setattr(CriteriaTensor, "to_dense", dense_copy)
    monkeypatch.setattr(CriteriaTensor, "to_mask", dense_copy)
    with pytest.raises(ValueError, match="budget"):
        build_mc_model(t, (2, 2, 2))


def test_degenerate_single_criterion_matches_plain_cf():
    from mccf.synth import duplicate_overall_tensor
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
