import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mccf.core import CriteriaTensor, Dataset, RatingScale, _IndexMap
from mccf.linalg import (
    CellTensor,
    FactorModel,
    IMPUTE_STRATEGIES,
    TuckerModel,
    _CellUnfolding,
    cell_factoring_cells,
    dense_hosvd_cells,
    hosvd,
    impute_missing,
    mode_product,
    mode_unfold,
    pca,
    pca_project,
    pca_reconstruct,
    truncated_svd,
    tucker_reconstruct,
)

from oracles import hosvd_reference

NAN = np.nan


def random_orthonormal(rng, m, k):
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return q


def make_low_rank(seed, m, n, sigmas):
    rng = np.random.default_rng(seed)
    u = random_orthonormal(rng, m, len(sigmas))
    v = random_orthonormal(rng, n, len(sigmas))
    return (u * np.asarray(sigmas)) @ v.T


def oracle_singular_values(a):
    """Singular values from a dense symmetric eigensolver (no SVD call)."""
    evals = np.linalg.eigvalsh(a @ a.T) if a.shape[0] <= a.shape[1] \
        else np.linalg.eigvalsh(a.T @ a)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


# the sketched SVD ("ssvd" in the test names) is truncated_svd


def test_ssvd_recovers_exact_low_rank():
    a = make_low_rank(0, 20, 15, [5.0, 3.0, 1.0])
    model = truncated_svd(a, 3, seed=1)
    assert np.allclose(model.sigma, [5.0, 3.0, 1.0], rtol=1e-10)
    assert np.allclose(model.reconstruct(), a, atol=1e-10)


def test_ssvd_factors_orthonormal():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((25, 10))
    model = truncated_svd(a, 6, seed=0)
    assert np.allclose(model.u.T @ model.u, np.eye(6), atol=1e-10)
    assert np.allclose(model.v.T @ model.v, np.eye(6), atol=1e-10)
    assert np.all(np.diff(model.sigma) <= 1e-12)
    assert np.all(model.sigma >= 0)


def test_ssvd_matches_dense_oracle_on_decaying_spectrum():
    sigmas = 10.0 * 0.8 ** np.arange(20)
    for seed in range(5):
        a = make_low_rank(seed, 30, 20, sigmas)
        model = truncated_svd(a, 5, seed=seed)
        oracle = oracle_singular_values(a)[:5]
        assert np.all(np.abs(model.sigma - oracle) / oracle <= 1e-6)


def test_ssvd_rank_validation():
    a = np.ones((4, 3))
    with pytest.raises(ValueError):
        truncated_svd(a, 0)
    with pytest.raises(ValueError):
        truncated_svd(a, 4)
    # factors whose ranks disagree
    for u, sigma, v in ((np.eye(3, 2), np.ones(3), np.eye(3, 3)),
                        (np.eye(3, 2), np.ones(2), np.eye(3, 3))):
        with pytest.raises(ValueError, match="rank"):
            FactorModel(u, sigma, v)


def test_ssvd_zero_matrix():
    model = truncated_svd(np.zeros((6, 4)), 3, seed=0)
    assert np.all(model.sigma == 0.0)
    assert np.allclose(model.v.T @ model.v, np.eye(3), atol=1e-12)


def test_ssvd_seed_determinism():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 8))
    m1 = truncated_svd(a, 4, seed=5)
    m2 = truncated_svd(a, 4, seed=5)
    assert np.array_equal(m1.u, m2.u)
    assert np.array_equal(m1.sigma, m2.sigma)
    assert np.array_equal(m1.v, m2.v)


def test_truncated_svd_full_rank_is_exact():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((7, 5))
    model = truncated_svd(a, 5, seed=0)
    assert np.allclose(model.reconstruct(), a, atol=1e-9)


def test_near_optimal_reconstruction():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 20))
    sv = oracle_singular_values(a)
    optimum = float(np.sqrt((sv[5:] ** 2).sum()))
    model = truncated_svd(a, 5, seed=0)
    err = float(np.linalg.norm(a - model.reconstruct()))
    assert err <= 1.1 * optimum


def test_item_vectors_scaling():
    model = FactorModel(np.eye(3, 2), np.array([2.0, 0.5]),
                        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    vecs = model.item_vectors()
    assert np.allclose(vecs, [[2.0, 0.0], [0.0, 0.5], [2.0, 0.0]])


def test_pca_matches_dense_eigensolver():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    model = pca(x, 6)
    cov = np.cov(x, rowvar=False)
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(model.mean, x.mean(axis=0))
    assert np.allclose(model.eigenvalues, evals, atol=1e-10)
    assert np.allclose(model.components.T @ model.components, np.eye(6),
                       atol=1e-12)
    # each component is an eigenvector of the covariance
    for c, lam in zip(model.components.T, model.eigenvalues):
        assert np.allclose(cov @ c, lam * c, atol=1e-10)


def test_pca_projection_variance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((200, 4)) @ np.diag([4.0, 2.0, 1.0, 0.3])
    model = pca(x, 4)
    scores = pca_project(model, x)
    assert np.allclose(np.var(scores, axis=0, ddof=1), model.eigenvalues,
                       atol=1e-10)


def test_pca_full_rank_roundtrip():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 5))
    model = pca(x, 5)
    assert np.allclose(pca_reconstruct(model, pca_project(model, x)), x,
                       atol=1e-10)


def test_pca_validation():
    x = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(ValueError):
        pca(x, 0)
    with pytest.raises(ValueError):
        pca(x, 4)
    with pytest.raises(ValueError):
        pca(x[:1], 1)
    model = pca(x, 2)
    with pytest.raises(ValueError):
        pca_project(model, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        pca_reconstruct(model, np.zeros((4, 3)))


def test_mode_unfold_layout():
    t = np.arange(24.0).reshape(2, 3, 4)
    m1 = mode_unfold(t, 1)
    assert m1.shape == (2, 12)
    for a in range(2):
        for b in range(3):
            for c in range(4):
                # next mode (cyclically) varies fastest in the columns
                assert m1[a, c * 3 + b] == t[a, b, c]
                assert mode_unfold(t, 2)[b, a * 4 + c] == t[a, b, c]
                assert mode_unfold(t, 3)[c, b * 2 + a] == t[a, b, c]
    with pytest.raises(ValueError, match="mode"):
        mode_unfold(t, 4)


def test_mode_product_einsum_oracle():
    rng = np.random.default_rng(12)
    t = rng.standard_normal((3, 4, 5))
    specs = {1: ("ia,ajk->ijk", 3), 2: ("ja,iak->ijk", 4),
             3: ("ka,ija->ijk", 5)}
    for mode, (pattern, size) in specs.items():
        m = rng.standard_normal((6, size))
        assert np.allclose(mode_product(t, m, mode),
                           np.einsum(pattern, m, t), atol=1e-12)
    with pytest.raises(ValueError):
        mode_product(t, np.zeros((2, 99)), 1)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31))
def test_mode_products_commute(seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((3, 4, 2))
    m1 = rng.standard_normal((2, 3))
    m2 = rng.standard_normal((5, 4))
    ab = mode_product(mode_product(t, m1, 1), m2, 2)
    ba = mode_product(mode_product(t, m2, 2), m1, 1)
    assert np.allclose(ab, ba, atol=1e-12)


def oracle_hosvd_error(t, ranks):
    """Reconstruction error of the classic HOSVD with dense eigensolvers."""
    factors = []
    for mode in (1, 2, 3):
        unfolding = mode_unfold(t, mode)
        evals, vecs = np.linalg.eigh(unfolding @ unfolding.T)
        factors.append(vecs[:, np.argsort(evals)[::-1][:ranks[mode - 1]]])
    core = t
    for mode, u in zip((1, 2, 3), factors):
        core = mode_product(core, u.T, mode)
    recon = core
    for mode, u in zip((1, 2, 3), factors):
        recon = mode_product(recon, u, mode)
    return float(np.linalg.norm(t - recon))


def test_hosvd_full_rank_exact():
    rng = np.random.default_rng(21)
    t = rng.standard_normal((4, 5, 3))
    model = hosvd(t, (4, 5, 3), seed=0)
    assert model.core.shape == (4, 5, 3)
    for u in model.factors:
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
    assert np.linalg.norm(tucker_reconstruct(model) - t) <= \
        1e-8 * np.linalg.norm(t)


def test_hosvd_truncated_tracks_oracle():
    rng = np.random.default_rng(22)
    t = rng.standard_normal((6, 7, 4))
    ranks = (3, 4, 2)
    model = hosvd(t, ranks, seed=5)
    err = float(np.linalg.norm(t - tucker_reconstruct(model)))
    assert err <= oracle_hosvd_error(t, ranks) + 1e-6


def test_hosvd_rank_above_unfolding_columns():
    # mode-1 size (6) exceeds the product of the other mode sizes (4), so
    # the factor needs completed columns; reconstruction stays exact
    rng = np.random.default_rng(23)
    t = rng.standard_normal((6, 2, 2))
    model = hosvd(t, (6, 2, 2), seed=0)
    u1 = model.factors[0]
    assert u1.shape == (6, 6)
    assert np.allclose(u1.T @ u1, np.eye(6), atol=1e-10)
    assert np.allclose(tucker_reconstruct(model), t, atol=1e-9)


def test_hosvd_validation(monkeypatch):
    t = np.zeros((3, 3, 3))
    with pytest.raises(ValueError):
        hosvd(np.zeros((3, 3)), (1, 1, 1))
    with pytest.raises(ValueError):
        hosvd(t, (0, 1, 1))
    with pytest.raises(ValueError):
        hosvd(t, (4, 1, 1))
    with pytest.raises(ValueError, match="no observed cells"):
        CellTensor(_container((2, 2, 2), np.array([], dtype=np.intp),
                              np.array([], dtype=np.intp), np.empty((0, 2))))
    # a dense tensor is admitted at exactly its factoring's cells and
    # rejected at one cell fewer, before any unfolding of it is formed
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET",
                        dense_hosvd_cells(t.shape))
    hosvd(t, (1, 1, 1))
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET",
                        dense_hosvd_cells(t.shape) - 1)

    def no_unfolding(*args, **kwargs):
        raise AssertionError("unfolding formed before the budget check")

    monkeypatch.setattr("mccf.linalg.mode_unfold", no_unfolding)
    with pytest.raises(ValueError, match="budget"):
        hosvd(t, (1, 1, 1))


def test_hosvd_factors_are_truncated_svd_of_each_unfolding():
    # mode 1 (size 6) has more rows than its unfolding has columns (4),
    # so the completion covers only the surplus beyond truncated_svd's u
    rng = np.random.default_rng(26)
    for t, ranks in ((rng.standard_normal((5, 6, 3)), (2, 3, 2)),
                     (rng.standard_normal((6, 2, 2)), (5, 2, 2))):
        model = hosvd(t, ranks, seed=4)
        for mode, (factor, r) in enumerate(zip(model.factors, ranks), start=1):
            unfolding = mode_unfold(t, mode)
            u = truncated_svd(unfolding, min(r, unfolding.shape[1]),
                              seed=4 + mode).u
            assert np.array_equal(factor[:, :u.shape[1]], u)


def test_hosvd_matches_reference_bitwise():
    # random tensors, a mode with r_eff < r (6 > 2 * 2), an all-constant
    # tensor (zero singular values) and a tensor centred as the PCA option
    # centres it
    rng = np.random.default_rng(27)
    centred = rng.integers(1, 6, size=(9, 7, 4)).astype(float)
    centred -= centred.mean(axis=0)
    for t, ranks in ((rng.standard_normal((5, 6, 3)), (2, 3, 2)),
                     (rng.standard_normal((12, 10, 5)), (12, 4, 5)),
                     (rng.standard_normal((6, 2, 2)), (5, 2, 2)),
                     (np.full((4, 5, 3), 3.0), (2, 3, 2)),
                     (centred, (3, 3, 2))):
        want = hosvd_reference(t, ranks, seed=4)
        got = hosvd(t.copy(), ranks, seed=4)
        assert got.core.tobytes() == want.core.tobytes()
        for a, b in zip(got.factors, want.factors):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _observed_cells(rng, dims):
    """Cells of a (users, items, slices) tensor in shuffled order: at least
    half of the (user, item) pairs, each with integer 1-5 ratings."""
    n_users, n_items, slices = dims
    pairs = n_users * n_items
    flat = rng.choice(pairs, int(rng.integers((pairs + 1) // 2, pairs + 1)),
                      replace=False)
    values = rng.integers(1, 6, (len(flat), slices)).astype(float)
    return flat // n_items, flat % n_items, values


def _container(dims, users, items, values):
    """The Dataset (one slice) or CriteriaTensor of these cells on the 1-5
    scale, which sorts them user-major; index x is id str(x)."""
    maps = [_IndexMap([str(x) for x in range(n)]) for n in dims[:2]]
    if dims[2] == 1:
        return Dataset(*maps, users, items, values[:, 0],
                       RatingScale.one_to_five())
    return CriteriaTensor(*maps, users, items, values, RatingScale.one_to_five())


def test_cell_tensor_reads_its_container():
    # the container owns the cells' user-major order and row pointer: the
    # CellTensor holds its arrays, not copies, and a Dataset is one slice
    rng = np.random.default_rng(29)
    for dims in ((6, 5, 1), (6, 5, 3)):
        d = _container(dims, *_observed_cells(rng, dims))
        cells = CellTensor(d)
        assert cells.shape == dims and cells.n_cells == len(d.values)
        assert cells._u_ptr is d._u_ptr
        assert cells._items is d.cell_index()[1]
        empty = np.array([], dtype=np.intp)
        with pytest.raises(ValueError, match="no observed cells"):
            CellTensor(_container(dims, empty, empty, np.empty((0, dims[2]))))


def _filled(dims, users, items, values, center):
    """The dense tensor a CellTensor stands for: each slice imputed by
    impute_missing with item means, then centred on its means over users
    if asked."""
    dense = np.full(dims, NAN)
    dense[users, items] = values
    filled = np.stack([impute_missing(dense[:, :, s], "item_mean")
                       for s in range(dims[2])], axis=2)
    means = filled.mean(axis=0) if center else None
    return (filled - means if center else filled), means


def _assert_close(got, want, rtol=1e-10):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


cell_cases = dict(seed=st.integers(0, 2 ** 32 - 1), center=st.booleans())


@settings(deadline=None, max_examples=60)
@given(**cell_cases)
def test_cell_tensor_products_match_dense_unfoldings(seed, center):
    rng = np.random.default_rng(seed)
    dims = tuple(int(x) for x in rng.integers(1, 9, 3))
    users, items, values = _observed_cells(rng, dims)
    filled, means = _filled(dims, users, items, values, center)
    cells = CellTensor(_container(dims, users, items, values), center)
    for mode in (1, 2):
        a, op = mode_unfold(filled, mode), _CellUnfolding(cells, mode)
        assert op.shape == a.shape
        x = rng.standard_normal((a.shape[1], 3))
        y = rng.standard_normal((a.shape[0], 3))
        _assert_close(op @ x, a @ x)
        _assert_close(op.T @ y, a.T @ y)
    a3 = mode_unfold(filled, 3)
    _assert_close(cells._gram(), a3 @ a3.T)
    if center:
        _assert_close(cells.means, means)
    else:
        assert cells.means is None


def test_cell_unfolding_goes_with_its_last_reference():
    # no reference cycle holds it, so the cells' arrays it reads are freed
    # without waiting for the cyclic collector
    rng = np.random.default_rng(7)
    dims = (5, 4, 2)
    op = _CellUnfolding(
        CellTensor(_container(dims, *_observed_cells(rng, dims))), 1)
    assert (op.T @ np.ones((5, 1))).shape == (4 * 2, 1)
    gone = weakref.ref(op)
    gc.disable()
    try:
        del op
        assert gone() is None
    finally:
        gc.enable()


def _separated(t, ranks) -> bool:
    """Whether each mode's kept singular vectors are determined: distinct
    singular values down to the first one left out, and a clear largest
    coordinate for the sign fix."""
    for mode, r in zip((1, 2, 3), ranks):
        a = mode_unfold(t, mode)
        u, sv, _ = np.linalg.svd(a)
        r_eff = min(r, a.shape[1])
        kept = np.append(sv, 0.0)[:r_eff + 1]
        if np.any(-np.diff(kept) <= 1e-4 * max(sv[0], 1.0)):
            return False
        lead = np.sort(np.abs(u[:, :r_eff]), axis=0)
        if len(lead) > 1 and np.any(lead[-1] - lead[-2] <= 1e-6):
            return False
    return True


@settings(deadline=None, max_examples=60)
@given(**cell_cases)
@example(seed=20037862, center=False)   # a completion that differs by 0.39
def test_cell_tensor_hosvd_matches_reference(seed, center):
    rng = np.random.default_rng(seed)
    dims = tuple(int(x) for x in rng.integers(2, 9, 3))
    ranks = tuple(int(rng.integers(1, d + 1)) for d in dims)
    users, items, values = _observed_cells(rng, dims)
    filled, means = _filled(dims, users, items, values, center)
    assume(_separated(filled, ranks))
    want = hosvd_reference(filled, ranks, seed=3)
    cells = CellTensor(_container(dims, users, items, values), center)
    got = hosvd(cells, ranks, seed=3)
    for mode, a, b in zip((1, 2, 3), got.factors, want.factors):
        # columns past the unfolding's column count are a basis of the
        # complement, which no singular vector determines: it is checked by
        # what the library promises of it, not entry by entry
        r_eff = min(a.shape[1], mode_unfold(filled, mode).shape[1])
        _assert_close(a[:, :r_eff], b[:, :r_eff])
        if r_eff < a.shape[1]:
            extra, ref = a[:, r_eff:], b[:, r_eff:]
            _assert_close(extra.T @ extra, np.eye(extra.shape[1]))
            _assert_close(a[:, :r_eff].T @ extra, np.zeros((r_eff, extra.shape[1])))
            _assert_close(extra @ extra.T, ref @ ref.T)
    _assert_close(got.core, want.core)
    _assert_close(tucker_reconstruct(got)[users, items],
                  tucker_reconstruct(want)[users, items])
    if center:
        _assert_close(cells.means, means)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_cell_tensor_svd_matches_reference(seed):
    # a rating matrix is a one-slice CellTensor: its SVD from the cells is
    # the SVD of the item-mean-filled dense matrix
    rng = np.random.default_rng(seed)
    dims = (*(int(x) for x in rng.integers(2, 9, 2)), 1)
    k = int(rng.integers(1, min(dims[:2]) + 1))
    users, items, values = _observed_cells(rng, dims)
    filled, _ = _filled(dims, users, items, values, False)
    assume(_separated(filled, (k, k, 1)))
    want = truncated_svd(filled[:, :, 0], k, seed=3)
    got = truncated_svd(CellTensor(_container(dims, users, items, values)), k,
                        seed=3)
    for a, b in ((got.u, want.u), (got.sigma, want.sigma), (got.v, want.v)):
        _assert_close(a, b)


def test_cell_tensor_svd_validation(monkeypatch):
    rng = np.random.default_rng(28)
    users, items, values = _observed_cells(rng, (6, 5, 2))
    with pytest.raises(ValueError, match="one-slice"):
        truncated_svd(CellTensor(_container((6, 5, 2), users, items, values)), 2)
    cells = CellTensor(_container((6, 5, 1), users, items, values[:, :1]))
    # admitted at exactly its factoring's cells, rejected at one cell
    # fewer before any product with the matrix is formed
    budget = cell_factoring_cells(cells.shape, cells.n_cells, (2, 2, 1))
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", budget)
    truncated_svd(cells, 2)
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", budget - 1)

    def no_product(*args, **kwargs):
        raise AssertionError("product formed before the budget check")

    monkeypatch.setattr(_CellUnfolding, "__matmul__", no_product)
    with pytest.raises(ValueError, match="budget"):
        truncated_svd(cells, 2)


def test_hosvd_determinism():
    rng = np.random.default_rng(24)
    t = rng.standard_normal((5, 6, 3))
    m1 = hosvd(t, (2, 3, 2), seed=7)
    m2 = hosvd(t, (2, 3, 2), seed=7)
    assert np.array_equal(m1.core, m2.core)
    for a, b in zip(m1.factors, m2.factors):
        assert np.array_equal(a, b)


def test_tucker_reconstruct_einsum_oracle():
    rng = np.random.default_rng(25)
    model = TuckerModel(
        rng.standard_normal((2, 3, 2)),
        (rng.standard_normal((4, 2)), rng.standard_normal((5, 3)),
         rng.standard_normal((3, 2))),
    )
    expect = np.einsum("abc,ia,jb,kc->ijk", model.core, *model.factors)
    assert np.allclose(tucker_reconstruct(model), expect, atol=1e-12)


def test_tucker_mode_weights():
    core = np.zeros((2, 2, 2))
    core[0, 0, 0] = 3.0
    core[1, 1, 1] = 4.0
    model = TuckerModel(core, (np.eye(2), np.eye(2), np.eye(2)))
    assert np.allclose(model.mode_weights(2), [3.0, 4.0])
    assert np.allclose(model.item_vectors(), [[3.0, 0.0], [0.0, 4.0]])


IMPUTE_CASE = np.array([
    [1.0, NAN, 3.0],
    [NAN, 2.0, 5.0],
    [4.0, NAN, NAN],
])


def test_impute_strategies():
    assert IMPUTE_STRATEGIES == ("item_mean",)
    filled = impute_missing(IMPUTE_CASE, "item_mean")
    assert filled[1, 0] == 2.5
    assert filled[0, 1] == 2.0
    assert filled[2, 2] == 4.0
    observed = ~np.isnan(IMPUTE_CASE)
    assert np.array_equal(filled[observed], IMPUTE_CASE[observed])
    assert not np.isnan(filled).any()


def test_impute_empty_column_falls_back():
    a = np.array([[1.0, NAN], [3.0, NAN]])
    assert impute_missing(a, "item_mean")[0, 1] == 2.0


def test_impute_errors():
    # item means are the one fill
    for strategy in ("median", "user_mean", "global_mean", "zero"):
        with pytest.raises(ValueError, match="unknown strategy"):
            impute_missing(IMPUTE_CASE, strategy)
    with pytest.raises(ValueError, match="no observed cells"):
        impute_missing(np.full((2, 2), NAN), "item_mean")
