import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DESK_MATRIX, dataset_from_dense, random_dataset, traced
from mccf.core import RatingScale
from mccf.linalg import FactorModel, truncated_svd
from mccf.similarity import (
    _BLOCK,
    _GRAMS,
    _USER_BLOCK,
    _VAR_EPS,
    RATING_KINDS,
    SET_KINDS,
    SIMILARITY_KINDS,
    SimilarityStore,
    _float32_exact,
    _mirror_upper,
    item_similarity_matrix,
)
from oracles import (
    adjusted_cosine,
    co_ratings,
    cosine,
    defined_pairs,
    euclidean_sim,
    latent_cosine,
    loglikelihood,
    pearson,
    sim,
    symmetrize,
    tanimoto,
    whole_matrix_similarity,
)

NAN = np.nan


def test_co_ratings_desk(desk):
    co = co_ratings(0, 4, desk)       # i0 raters {0..4}, i4 raters {1,2,3,4,5}
    assert co.users.tolist() == [1, 2, 3, 4]
    assert co.ratings_i.tolist() == [3.0, 4.0, 3.0, 1.0]
    assert co.ratings_j.tolist() == [3.0, 5.0, 4.0, 1.0]


def test_pearson_hand_values():
    d = dataset_from_dense(np.array([
        [1.0, 2.0, 5.0],
        [2.0, 4.0, 4.0],
        [3.0, 5.0, 1.0],
    ]))
    assert pearson(0, 1, d) == pytest.approx(
        np.corrcoef([1, 2, 3], [2, 4, 5])[0, 1], abs=1e-12)
    assert pearson(0, 2, d) == pytest.approx(
        np.corrcoef([1, 2, 3], [5, 4, 1])[0, 1], abs=1e-12)
    assert pearson(0, 2, d) < 0


def test_pearson_undefined():
    d = dataset_from_dense(np.array([
        [1.0, 2.0, NAN],
        [NAN, 3.0, 4.0],
        [3.0, 2.0, NAN],
    ]))
    assert pearson(0, 2, d) is None            # no co-rater
    assert pearson(1, 2, d) is None            # one co-rater
    assert pearson(0, 1, d) is None            # item 1 constant on co-raters


def test_adjusted_cosine_hand_value():
    # each user's centered ratings are (+2, -2) and (-2, +2)
    d = dataset_from_dense(np.array([
        [5.0, 1.0],
        [1.0, 5.0],
    ]))
    assert adjusted_cosine(0, 1, d) == pytest.approx(-1.0, abs=1e-12)


def test_adjusted_cosine_centers_on_all_rated_items():
    # user means include item 2 even though it is outside the pair
    d = dataset_from_dense(np.array([
        [4.0, 2.0, 3.0],
        [2.0, 4.0, 3.0],
        [5.0, 1.0, 3.0],
    ]))
    means = d.to_dense().mean(axis=1)
    x = d.to_dense()[:, 0] - means
    y = d.to_dense()[:, 1] - means
    expect = float(x @ y / np.sqrt((x @ x) * (y @ y)))
    assert adjusted_cosine(0, 1, d) == pytest.approx(expect, abs=1e-12)


def test_cosine_hand_value():
    d = dataset_from_dense(np.array([
        [3.0, 4.0],
        [4.0, 3.0],
    ]))
    expect = (3 * 4 + 4 * 3) / (5.0 * 5.0)
    assert cosine(0, 1, d) == pytest.approx(expect, abs=1e-12)


def test_euclidean_modes():
    d = dataset_from_dense(np.array([
        [1.0, 3.0],
        [1.0, 3.0],
    ]))
    # distance sqrt(8), two co-raters
    assert euclidean_sim(0, 1, d) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert euclidean_sim(0, 0, d) == 1.0


def test_euclidean_no_coraters():
    d = dataset_from_dense(np.array([
        [1.0, NAN],
        [NAN, 3.0],
    ]))
    assert euclidean_sim(0, 1, d) is None


def test_tanimoto_counts():
    d = dataset_from_dense(np.array([
        [1.0, 2.0, NAN],
        [3.0, NAN, NAN],
        [5.0, 4.0, NAN],
        [NAN, 1.0, 2.0],
    ]))
    assert tanimoto(0, 1, d) == pytest.approx(2.0 / 4.0)
    assert tanimoto(0, 2, d) == 0.0
    assert tanimoto(1, 1, d) == 1.0


def test_loglikelihood_entropy_oracle():
    # N=100 users; item i rated by 15, item j by 14, overlap 10
    rows = [[5.0, 5.0]] * 10 + [[5.0, NAN]] * 5 + [[NAN, 5.0]] * 4 \
        + [[NAN, NAN]] * 81
    d = dataset_from_dense(np.array(rows))
    counts = np.array([[10.0, 5.0], [4.0, 81.0]])
    p = counts / counts.sum()
    mutual = sum(
        p[a, b] * math.log(p[a, b] / (p[a].sum() * p[:, b].sum()))
        for a in range(2) for b in range(2))
    expect_llr = 2.0 * counts.sum() * mutual
    got = loglikelihood(0, 1, d)
    assert got == pytest.approx(1.0 - 1.0 / (1.0 + expect_llr), abs=1e-9)
    # frozen desk value, cross-checked by hand with the cell-sum G form
    assert expect_llr == pytest.approx(29.63767630648372, abs=1e-9)


def test_loglikelihood_independent_sets():
    # exact independence: k11*N == row*col -> LLR 0 -> similarity 0
    rows = [[1.0, 1.0], [1.0, NAN], [NAN, 1.0], [NAN, NAN]]
    d = dataset_from_dense(np.array(rows))
    assert loglikelihood(0, 1, d) == pytest.approx(0.0, abs=1e-12)


def test_loglikelihood_total_users():
    d = dataset_from_dense(np.array([[1.0, 1.0], [2.0, NAN]]))
    assert loglikelihood(0, 1, d, total_users=50) > loglikelihood(0, 1, d)
    with pytest.raises(ValueError):
        loglikelihood(0, 1, d, total_users=1)


def test_latent_cosine_hand_vectors():
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    model = FactorModel(np.zeros((5, 2)), np.array([2.0, 1.0]), v)
    assert latent_cosine(model, 0, 2) == pytest.approx(1.0)
    assert latent_cosine(model, 0, 1) == pytest.approx(0.0)
    assert latent_cosine(model, 0, 3) is None   # zero vector


PAIR_FUNCS = {
    "pearson": pearson,
    "adjusted_cosine": adjusted_cosine,
    "cosine": cosine,
    "euclidean": euclidean_sim,
    "tanimoto": tanimoto,
    "loglikelihood": loglikelihood,
}


@pytest.mark.parametrize("kind", RATING_KINDS + SET_KINDS)
def test_matrix_matches_per_pair_reference(kind):
    _assert_matches_per_pair(random_dataset(17), kind)


def _assert_matches_per_pair(d, kind):
    """Every pair of the whole-matrix store is undefined exactly where the
    per-pair function (behind the co-rater gate) is, and equal to 1e-12
    elsewhere."""
    store = item_similarity_matrix(d, kind)
    gate = 2 if kind in RATING_KINDS else 1
    fn = PAIR_FUNCS[kind]
    for i in range(d.n_items):
        for j in range(d.n_items):
            got = sim(store, i, j)
            if i == j or len(co_ratings(i, j, d).users) < gate:
                assert got is None
                continue
            expect = fn(i, j, d)
            if expect is None:
                assert got is None
            else:
                assert got == pytest.approx(expect, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(2, 25),
       n_items=st.integers(2, 12), fill=st.floats(0.05, 0.9))
def test_matrix_matches_per_pair_on_random_sparse_data(seed, n_users, n_items,
                                                       fill):
    """Integer 1-5 ratings with items nobody rated, users with a single
    rating and constant columns, for every rating and set measure."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n_users, n_items)) < fill,
                     rng.integers(1, 6, (n_users, n_items)).astype(float), NAN)
    single = rng.random(n_users) < 0.2           # users left one rating
    for u in np.flatnonzero(single):
        keep = rng.integers(n_items)
        dense[u, np.arange(n_items) != keep] = NAN
    role = rng.integers(0, 4, n_items)           # 0: unrated, 1: constant
    dense[:, role == 0] = NAN
    for i in np.flatnonzero(role == 1):
        dense[~np.isnan(dense[:, i]), i] = float(rng.integers(1, 6))
    d = dataset_from_dense(dense)
    for kind in RATING_KINDS + SET_KINDS:
        _assert_matches_per_pair(d, kind)


def test_matrix_gating():
    d = random_dataset(18)
    store = item_similarity_matrix(d, "pearson")
    for i, j, _ in defined_pairs(store):
        assert len(co_ratings(i, j, d).users) >= 2


def test_matrix_latent():
    d = random_dataset(19)
    from mccf.linalg import impute_missing
    model = truncated_svd(impute_missing(d.to_dense(), "item_mean"), 4, seed=0)
    store = item_similarity_matrix(d, "latent_cosine", model=model)
    for i in range(d.n_items):
        for j in range(i + 1, d.n_items):
            assert sim(store, i, j) == pytest.approx(
                latent_cosine(model, i, j), abs=1e-12)
    with pytest.raises(ValueError):
        item_similarity_matrix(d, "latent_cosine")
    with pytest.raises(ValueError, match="item count"):
        item_similarity_matrix(d, "latent_cosine", model=FactorModel(
            model.u, model.sigma, model.v[1:]))


def test_matrix_unknown_kind():
    with pytest.raises(ValueError):
        item_similarity_matrix(random_dataset(1), "dice")


def test_store_structure(desk):
    store = item_similarity_matrix(desk, "euclidean")
    assert np.all(np.isnan(np.diag(store.values)))
    assert np.array_equal(store.values, store.values.T, equal_nan=True)
    pairs = defined_pairs(store)
    assert store.defined_count() == len(pairs)
    assert all(i < j for i, j, _ in pairs)
    assert store.item_ids == desk.item_ids


def test_store_rejects_values_that_are_not_a_symmetric_square():
    ids = ("i0", "i1", "i2")
    good = np.array([[NAN, 0.5, NAN],
                     [0.5, NAN, -0.25],
                     [NAN, -0.25, NAN]])
    store = SimilarityStore("pearson", good, ids)
    with pytest.raises(ValueError, match="read-only"):
        store.values[0, 1] = 0.99   # a one-sided write would break symmetry
    asymmetric = good.copy()
    asymmetric[0, 1] = 0.75
    one_sided = good.copy()
    one_sided[0, 2] = 0.25          # defined one way, undefined the other
    diagonal = good.copy()
    diagonal[1, 1] = 1.0
    # the check runs in 256-row blocks: flaws inside the ragged last one
    n = 2 * 256 + 37
    many = tuple(f"i{i}" for i in range(n))
    big = np.random.default_rng(3).random((n, n))
    big += big.T
    np.fill_diagonal(big, NAN)
    SimilarityStore("pearson", big, many)
    big_asymmetric, big_one_sided = big.copy(), big.copy()
    big_asymmetric[540, 520] += 0.5
    big_one_sided[530, 545] = NAN
    for values, item_ids in ((asymmetric, ids), (one_sided, ids),
                             (diagonal, ids), (good[:, :2], ids),
                             (good[:2], ids), (good[0], ids),
                             (good, ids[:2]), (good, ids + ("i3",)),
                             (big_asymmetric, many), (big_one_sided, many)):
        with pytest.raises(ValueError, match="symmetric items x items"):
            SimilarityStore("pearson", values, item_ids)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_similarity_ranges(seed):
    d = random_dataset(seed, n_users=12, n_items=6)
    for kind in RATING_KINDS + SET_KINDS:
        store = item_similarity_matrix(d, kind)
        vals = store.values[~np.isnan(store.values)]
        if kind in ("pearson", "adjusted_cosine", "cosine"):
            assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
        elif kind == "euclidean":
            assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        elif kind == "tanimoto":
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        else:
            assert np.all(vals >= 0.0) and np.all(vals < 1.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_pearson_affine_invariance(seed):
    d = random_dataset(seed, n_users=12, n_items=6)
    squeezed = dataset_from_dense(d.to_dense() * 0.5 + 1.5)
    a = item_similarity_matrix(d, "pearson").values
    b = item_similarity_matrix(squeezed, "pearson").values
    assert np.allclose(a, b, atol=1e-9, equal_nan=True)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_set_measures_ignore_values(seed):
    d = random_dataset(seed, n_users=12, n_items=6)
    dense = d.to_dense()
    rng = np.random.default_rng(seed + 1)
    reshuffled = np.where(np.isnan(dense), NAN,
                          rng.integers(1, 6, dense.shape).astype(float))
    d2 = dataset_from_dense(reshuffled)
    for kind in SET_KINDS:
        assert np.array_equal(item_similarity_matrix(d, kind).values,
                              item_similarity_matrix(d2, kind).values,
                              equal_nan=True)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_user_order_invariance(seed):
    d = random_dataset(seed, n_users=10, n_items=6)
    flipped = dataset_from_dense(d.to_dense()[::-1])
    for kind in ("pearson", "euclidean", "tanimoto"):
        a = item_similarity_matrix(d, kind).values
        b = item_similarity_matrix(flipped, kind).values
        assert np.allclose(a, b, atol=1e-12, equal_nan=True)


def assert_same_bits(got: np.ndarray, expect: np.ndarray) -> None:
    assert got.shape == expect.shape
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def _wide_dataset(seed: int, continuous: bool):
    """40 users over more than two item blocks, the last one ragged, with
    unrated items and constant columns.  Continuous values add columns
    whose co-rater variance sits near _VAR_EPS, where sxx - sx^2/n
    cancels."""
    n_users, n_items = 40, 2 * _BLOCK + 37
    rng = np.random.default_rng(seed)
    values = (rng.uniform(1.0, 5.0, (n_users, n_items)) if continuous
              else rng.integers(1, 6, (n_users, n_items)).astype(float))
    dense = np.where(rng.random((n_users, n_items)) < 0.3, values, NAN)
    dense[:, ::50] = NAN                                  # unrated
    dense[:, 7::61] = np.where(np.isnan(dense[:, 7::61]), NAN, 4.0)
    if continuous:
        for col, scale in zip(range(11, n_items, 97), (0.5, 1.0, 2.0) * 2):
            step = scale * math.sqrt(_VAR_EPS / 4)
            wobble = rng.choice((-step, step), n_users)
            dense[:, col] = np.where(np.isnan(dense[:, col]), NAN, 3.0 + wobble)
    return dataset_from_dense(dense)


def _tall_dataset(seed: int):
    """Integer ratings of 61 users over more than two item blocks.  With
    _USER_BLOCK at 8 they are more than two user blocks, the last one
    ragged.  Users 8 to 39 rate only the first item block: a run longer
    than two user blocks of the second item block, which take at most
    8 x items // (items - _BLOCK) = 14 users each, so at least one of its
    user blocks has no cell at or after its first item."""
    n_users, n_items = 61, 2 * _BLOCK + 37
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n_users, n_items)) < 0.3,
                     rng.integers(1, 6, (n_users, n_items)).astype(float), NAN)
    dense[8:40, _BLOCK:] = NAN
    return dataset_from_dense(dense)


@pytest.mark.parametrize("kind", RATING_KINDS + SET_KINDS)
def test_store_is_bitwise_the_whole_matrix_build(kind, monkeypatch):
    """Integer data takes the float32 sums over user blocks (adjusted_cosine
    centres it, so it does not); continuous data the one float64 block of
    the rating kinds.  Both must give the float64 whole-matrix bits."""
    for d, exact, users in ((_wide_dataset(23, False), True, _USER_BLOCK),
                            (_wide_dataset(23, True), kind in SET_KINDS, _USER_BLOCK),
                            (_tall_dataset(31), True, 8)):
        monkeypatch.setattr("mccf.similarity._USER_BLOCK", users)
        assert _float32_exact(d, kind) == (exact and kind != "adjusted_cosine")
        assert_same_bits(item_similarity_matrix(d, kind).values,
                         whole_matrix_similarity(d, kind))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n_users=st.integers(1, 8),
       n_items=st.integers(1, 6), fill=st.floats(0.0, 1.0),
       halves=st.booleans())
def test_store_is_bitwise_the_whole_matrix_build_on_small_data(
        seed, n_users, n_items, fill, halves):
    """Down to no stored cell at all; half-point ratings are not integers
    and take float64."""
    rng = np.random.default_rng(seed)
    values = rng.integers(2, 11, (n_users, n_items)) / 2.0    # 1.0 .. 5.0
    if not halves:
        values = np.ceil(values)
    dense = np.where(rng.random((n_users, n_items)) < fill, values, NAN)
    d = dataset_from_dense(dense)
    for kind in RATING_KINDS + SET_KINDS:
        assert_same_bits(item_similarity_matrix(d, kind).values,
                         whole_matrix_similarity(d, kind))


def test_exactness_check_takes_float64_for_empty_or_fractional_values():
    empty = dataset_from_dense(np.full((2, 2), NAN))
    half = dataset_from_dense(np.array([[3.5, 4.0], [1.0, NAN]]))
    whole = dataset_from_dense(np.array([[3.0, 4.0], [1.0, NAN]]))
    for kind in RATING_KINDS + SET_KINDS:
        assert not _float32_exact(empty, kind)
        assert _float32_exact(half, kind) == (kind in SET_KINDS)
        assert _float32_exact(whole, kind) == (kind != "adjusted_cosine")


def test_mirror_keeps_the_bits_of_summing_the_triangles(monkeypatch):
    # blocks of 2 rows over 5 items: two full blocks and a ragged one
    monkeypatch.setattr("mccf.similarity._BLOCK", 2)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(5, 5))
    m[0, 1] = m[2, 4] = -0.0
    m[1, 3] = NAN
    m[0, 4] = np.copysign(NAN, -1.0)
    m[3, 4] = 0.0
    got = m.copy()
    _mirror_upper(got)
    assert_same_bits(got, symmetrize(m))
    assert not np.signbit(got[1, 0]) and not np.signbit(got[4, 2])


def _integer_dataset(n_users: int, n_items: int):
    rng = np.random.default_rng(29)
    return dataset_from_dense(np.where(
        rng.random((n_users, n_items)) < 0.3,
        rng.integers(1, 6, (n_users, n_items)).astype(float), NAN))


@pytest.mark.parametrize("kind, layers", [("pearson", 3), ("tanimoto", 1)])
def test_exact_build_holds_few_block_temporaries(kind, layers):
    """The float32 build holds the store, the per-cell layers, one user
    block's float32 layers (mask, ratings, squares) of at most _USER_BLOCK
    x items cells each with their scatter indices, and one row block's
    float32 statistics and product, then float64 tiles of _BLOCK x _BLOCK.
    That is less than a build holding users x items float32 layers beside
    three float64 row blocks."""
    n_users, n_items = 4 * _USER_BLOCK, _BLOCK + 88
    d = _integer_dataset(n_users, n_items)
    assert _float32_exact(d, kind)
    block = layers * 4 * _USER_BLOCK * n_items + 17 * d.n_ratings
    sums = (len(_GRAMS[kind]) + 1) * 4 * _BLOCK * n_items
    bound = (8 * n_items ** 2 + (layers - 1) * 4 * d.n_ratings + sums
             + max(block, 3 * 8 * _BLOCK ** 2))
    peak = traced(lambda: item_similarity_matrix(d, kind))[1]
    assert peak < bound
    assert peak < (8 * n_items ** 2 + layers * 4 * n_users * n_items
                   + 3 * 8 * _BLOCK * n_items)


def test_whole_matrix_build_holds_few_items_squared_temporaries():
    """adjusted_cosine's one float64 block holds the store, the three
    float64 users x items operands and at most two more items x items
    arrays."""
    n_users, n_items = 100, 600
    d = _integer_dataset(n_users, n_items)
    assert not _float32_exact(d, "adjusted_cosine")
    bound = 3 * 8 * n_items ** 2 + 3 * 8 * n_users * n_items
    _, peak, _ = traced(lambda: item_similarity_matrix(d, "adjusted_cosine"))
    assert peak < bound


def test_latent_store_holds_no_second_items_squared_array():
    """The norms divide the store one _BLOCK of rows at a time; the rest of
    the bound is the store's symmetry check, up to four items x items bool
    arrays."""
    n_items = 1000
    d = _integer_dataset(50, n_items)
    rng = np.random.default_rng(3)
    model = FactorModel(rng.normal(size=(50, 4)), np.array([4.0, 3.0, 2.0, 1.0]),
                        rng.normal(size=(n_items, 4)))
    bound = 8 * n_items ** 2 + 4 * n_items ** 2 + 8 * _BLOCK * n_items
    _, peak, _ = traced(lambda: item_similarity_matrix(
        d, "latent_cosine", model=model))
    assert peak < bound
