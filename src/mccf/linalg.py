"""Low-rank matrix and third-order tensor numerics.

Truncated SVD is computed by Gaussian sketching: draw G, form Y = A G,
orthonormalize, project, and eigendecompose the small projected Gram matrix;
it asks only for A X and A.T Y.  The sketch has no tuning knobs: 10
oversampling columns (fewer on small matrices) and two power iterations,
after Halko, Martinsson & Tropp, SIAM Review 53(2), 2011.  The Tucker
decomposition (Kolda & Bader, SIAM Review 51(3), 2009) takes each mode
factor from the mode unfolding with the same sketch, forming only the left
singular vectors, and forms the core by np.tensordot mode products with the
factor transposes; one QR completes a factor the data cannot fill.  A
CellTensor, an item-mean-filled (and optionally centred) tensor known by
the observed cells of a Dataset or CriteriaTensor, is factored from those
cells and its fill and is never formed; its factors agree with the dense
tensor's to rounding.  truncated_svd takes a Dataset's one-slice CellTensor.

Conventions used throughout:
  - matrices are float64 ndarrays; tensors are 3-d ndarrays
  - modes are numbered 1..3
  - every factor column is sign-fixed so its largest-magnitude coordinate
    is non-negative (deterministic output for a fixed seed); right singular
    vectors are flipped in tandem with the left so A = U diag(s) V^T holds
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CriteriaTensor, Dataset, _CELL_BLOCK, _SEED_BOUND, _check_integer,
                   _segment_sums)

# Relative cutoff below which a singular value is treated as exactly zero.
SIGMA_CUTOFF = 1e-12

_UNFOLD_AXES = {1: (0, 2, 1), 2: (1, 0, 2), 3: (2, 1, 0)}


@dataclass(frozen=True)
class FactorModel:
    """Rank-k factors A ~ u @ diag(sigma) @ v.T with orthonormal u, v."""

    u: np.ndarray        # (m, k)
    sigma: np.ndarray    # (k,) non-increasing, non-negative
    v: np.ndarray        # (n, k)

    def __post_init__(self):
        if self.u.shape[1] != self.sigma.shape[0] or self.v.shape[1] != self.sigma.shape[0]:
            raise ValueError("factor shapes disagree on rank")

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def item_vectors(self) -> np.ndarray:
        """Rows of v scaled by the singular values (latent column embedding)."""
        return self.v * self.sigma


@dataclass(frozen=True)
class PcaModel:
    """Column means, principal axes, and their variances."""

    mean: np.ndarray          # (n,)
    components: np.ndarray    # (n, k) orthonormal columns
    eigenvalues: np.ndarray   # (k,) non-increasing, non-negative


@dataclass(frozen=True)
class TuckerModel:
    """Core tensor and per-mode orthonormal factors."""

    core: np.ndarray                 # (r1, r2, r3)
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]   # (I_s, r_s) each

    def mode_weights(self, mode: int) -> np.ndarray:
        """Row norms of the core's mode unfolding (per-factor-column energy)."""
        return np.linalg.norm(mode_unfold(self.core, mode), axis=1)

    def item_vectors(self) -> np.ndarray:
        """Mode-2 factor rows scaled by the core's mode-2 weights."""
        return self.factors[1] * self.mode_weights(2)


def _sign_fix(u: np.ndarray) -> np.ndarray:
    """Flip columns of u in place so the largest-magnitude coordinate of
    each column is non-negative; returns the mask of flipped columns."""
    lead = np.abs(u).argmax(axis=0)
    flip = u[lead, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    return flip


def _complete_orthonormal(v: np.ndarray, have: int) -> None:
    """Fill columns have.. of v with an orthonormal completion in place.

    The columns are have..k of one Householder QR of [v[:, :have], I[:, :k]]:
    orthonormal, orthogonal to v's first have columns, deterministic and
    independent of any seed.
    """
    n, k = v.shape
    if have < k:
        q = np.linalg.qr(np.hstack([v[:, :have], np.eye(n, k)]))[0]
        v[:, have:] = q[:, have:k]


def _eigh_descending(a: np.ndarray,
                     k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The top k (default all) eigenpairs of a symmetric matrix as new
    arrays, eigenvalues non-increasing."""
    evals, vecs = np.linalg.eigh(a)
    order = np.argsort(evals)[::-1][:k]
    return evals[order], vecs[:, order]


def _left_factor(a: np.ndarray, k: int,
                 seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sketch of truncated_svd up to its left factor: (Q X, sigma, A.T Q,
    X) over all sketch columns, with X the eigenvectors of (A.T Q).T A.T Q
    and sigma zero at and below the cutoff.  A needs only a @ x and a.T @ y.

    Each (n, width) intermediate dies within the statement that uses it
    (cell_factoring_cells counts those one statement holds).
    """
    m, n = a.shape
    width = k + min(10, min(m, n) - k)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(a @ rng.standard_normal((n, width)))
    for _ in range(2):
        q, _ = np.linalg.qr(a @ np.linalg.qr(a.T @ q)[0])

    bt = a.T @ q
    evals, x = _eigh_descending(bt.T @ bt)
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    cutoff = SIGMA_CUTOFF * sigma[0] if sigma[0] > 0 else 0.0
    return q @ x, np.where(sigma > cutoff, sigma, 0.0), bt, x


def truncated_svd(a: np.ndarray | CellTensor, k: int, seed: int = 0) -> FactorModel:
    """Sketched truncated SVD of rank k.

    Pipeline: Gaussian sketch of width k + min(10, min(m, n) - k), so that
    full-rank requests stay valid; orthonormal basis Q (Householder QR); two
    power iterations by (A A.T), re-orthonormalizing after each half-product;
    projection A.T Q; eigendecomposition of its Gram matrix; back-transform.

    Right singular vectors for numerically zero singular values cannot be
    recovered from the sketch (the back-transform divides by sigma); those
    columns are filled with a deterministic orthonormal completion.  A
    one-slice CellTensor, the item-mean-filled rating matrix, is sketched
    through its mode-1 unfolding's products, under hosvd's cell budget.
    """
    if not isinstance(a, CellTensor):
        a = np.asarray(a, dtype=np.float64)
    elif a.shape[2] != 1:
        raise ValueError("expected a one-slice CellTensor")
    _check_integer("rank", k, 1, min(a.shape[:2]) + 1)
    _check_integer("seed", seed, 0, _SEED_BOUND)
    if isinstance(a, CellTensor):
        check_cell_budget(cell_factoring_cells(a.shape, a.n_cells, (k, k, 1)))
        a = _CellUnfolding(a, 1)
    m, n = a.shape

    u, sigma, bt, x = _left_factor(a, k, seed)
    v = np.zeros((n, len(sigma)))
    nz = np.flatnonzero(sigma)
    if nz.size:
        v[:, nz] = bt @ (x[:, nz] / sigma[nz])

    u = u[:, :k].copy()
    v = v[:, :k].copy()
    sigma = sigma[:k].copy()
    v[:, _sign_fix(u)] *= -1.0
    _complete_orthonormal(v, int(np.count_nonzero(sigma > 0)))
    return FactorModel(u, sigma, v)


def pca(x: np.ndarray, k: int) -> PcaModel:
    """Principal axes of observations-by-variables data.

    Column means are removed, the covariance (divisor: observations - 1) is
    eigendecomposed, and the top-k eigenpairs are kept, each axis sign-fixed
    on its largest-magnitude coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    obs, n_vars = x.shape
    if obs < 2:
        raise ValueError(f"need at least 2 observations, got {obs}")
    _check_integer("component count", k, 1, n_vars + 1)
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (obs - 1)
    evals, components = _eigh_descending(cov, k)
    eigenvalues = np.clip(evals, 0.0, None)
    _sign_fix(components)
    return PcaModel(mean, components, eigenvalues)


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"data has {x.shape[1]} variables, model has {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components


def pca_reconstruct(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[1] != model.components.shape[1]:
        raise ValueError(
            f"scores have {scores.shape[1]} components, model has "
            f"{model.components.shape[1]}"
        )
    return scores @ model.components.T + model.mean


def mode_unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-s unfolding: rows index mode s, columns the other two modes
    with mode s+1 (cyclically) varying fastest."""
    _check_integer("mode", mode, 1, 4)
    t = np.asarray(t)
    axes = _UNFOLD_AXES[mode]
    return t.transpose(axes).reshape(t.shape[mode - 1], -1)


def mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply a matrix into one tensor mode (one tensordot contraction):
    the result's mode-s unfolding is m @ (t's mode-s unfolding)."""
    _check_integer("mode", mode, 1, 4)
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if m.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns, tensor mode {mode} has size "
            f"{t.shape[mode - 1]}"
        )
    return np.moveaxis(np.tensordot(m, t, axes=(1, mode - 1)), 0, mode - 1)


# Most float64 cells the arrays of one step may hold at its peak, as the
# step's footprint function (a *_cells function) counts them; 2e8 cells
# are 1.6 GB.
DENSE_CELL_BUDGET = 2e8


def check_cell_budget(cells: float) -> None:
    if cells > DENSE_CELL_BUDGET:
        raise ValueError(f"dense arrays need {cells:.0f} cells, above the "
                         f"{DENSE_CELL_BUDGET:.0f}-cell budget")


def dense_hosvd_cells(shape: tuple[int, int, int]) -> int:
    """Cells hosvd of a dense tensor holds, its input included: seven copies
    of it (an unfolding and, as the sketch is as wide as mode 3's unfolding
    is tall, A.T Q, QR's copy and basis, and two LAPACK buffers, untraced)."""
    return 7 * int(np.prod(shape))


def pca_cells(shape: tuple[int, int]) -> float:
    """Cells pca(impute_missing(x), k) holds for a dense (obs, vars) x: x,
    the fill's mask (an eighth) and filled copy, later centred; and five
    vars x vars arrays: the covariance, eigh's vectors, and LAPACK's copy
    and 2 x vars^2 workspace (dsyevd), which tracemalloc does not see."""
    return 2.125 * shape[0] * shape[1] + 5 * shape[1] ** 2


def cell_factoring_cells(shape: tuple[int, int, int], n_cells: int,
                         ranks: tuple[int, int, int]) -> int:
    """Array cells a CellTensor of this shape and cell count holds, with
    hosvd's factoring of it to these ranks at its peak: the cells' values,
    indices and fill, one sketch mode's rows plus four arrays of its
    unfolding's columns at the sketch width, a block's per-cell products
    (a block ends on the first segment bound past _CELL_BLOCK cells) and
    the core's per-user sums."""
    users, items, slices = shape
    width = max(ranks[:2]) + 10
    block = min(n_cells, _CELL_BLOCK + max(users, items))
    return (n_cells * (2 * slices + 4) + 2 * (users + items) * slices
            + max(users + 4 * items * slices, items + 4 * users * slices) * width
            + 2 * block * slices * width + users * ranks[1] * ranks[2])


def _item_means(cells: Dataset | CriteriaTensor):
    """(by_item, i_ptr, means): the stable order grouping a container's
    cells by item, its item row pointer, and the (items, slices) item
    means, the slice's mean for an item without cells."""
    items, values = cells.cell_index()[1], cells._ratings().values
    if not len(values):
        raise ValueError(f"{'tensor' if values.shape[1] > 1 else 'matrix'} "
                         "has no observed cells")
    by_item = np.argsort(items, kind="stable")
    i_ptr = items[by_item].searchsorted(np.arange(cells.n_items + 1))
    count = np.diff(i_ptr)[:, None]
    grouped = values[by_item]
    sums = _segment_sums(i_ptr, lambda lo, hi: grouped[lo:hi], values.shape[1:])
    means = np.full(sums.shape, values.mean(axis=0))
    np.divide(sums, count, out=means, where=count > 0)
    return by_item, i_ptr, means


class CellTensor:
    """The (users, items, slices) tensor of a Dataset (one slice) or a
    CriteriaTensor (k+1), read in place from the container's cells.

    Each slice is filled elsewhere as impute_missing(..., "item_mean")
    fills a matrix: an item's mean over its cells, or the slice's mean
    for an item without cells.  With center, it also has its (item,
    slice) means over users taken out (the PCA option's input; they are
    kept in means).  Either way every slice is a column term plus a part
    D_s that is nonzero on the observed cells only,

        T[:, :, s] = 1 Q[:, s].T + D_s,

    with Q the item means, or 0 when centred: a filled column's mean over
    users is its item mean, so centring leaves D.
    hosvd and truncated_svd factor it through the products of these parts,
    the sparse-plus-low-rank products of Soft-Impute (Mazumder, Hastie &
    Tibshirani, JMLR 11, 2010), so no users x items array is ever formed.
    """

    def __init__(self, cells: Dataset | CriteriaTensor, center: bool = False):
        (users, items), values = cells.cell_index(), cells._ratings().values
        n_users, _, slices = self.shape = (cells.n_users, cells.n_items,
                                           values.shape[1])
        self.n_cells = len(values)
        by_item, self._i_ptr, q = _item_means(cells)
        self._u_ptr, self._items = cells._u_ptr, items
        # the column term (ones, Q): its products take the ones as a
        # matrix, so they round as matrix products, not as row sums
        self._term = (np.ones((n_users, slices)), q)
        self._d = values - self._fill_at_cells()
        self._u_im, self._d_im = users[by_item], self._d[by_item]
        self.means = q if center else None
        if center:
            self._term = (self._term[0], np.zeros_like(q))

    def _fill_at_cells(self) -> np.ndarray:
        # added to zeros, a -0.0 in Q enters the fill as 0.0
        fill = np.zeros((self.n_cells, self.shape[2]))
        fill += self._term[1].take(self._items, axis=0)
        return fill

    def _gram(self) -> np.ndarray:
        """The mode-3 unfolding times its transpose, (k+1) x (k+1): the
        fill's part from the column term, the rest over the cells."""
        fill, d = self._fill_at_cells(), self._d
        cross = fill.T @ d
        gram = d.T @ d + cross + cross.T
        p, q = self._term
        gram += (p.T @ p) * (q.T @ q)
        return gram

    def _factor(self, mode: int, r: int, seed: int) -> np.ndarray:
        if mode < 3:
            return _unfolding_factor(_CellUnfolding(self, mode), r, seed)
        # mode 3 has k+1 rows: the eigenvectors of its exact Gram matrix
        # replace the sketch and its QR of a tensor-sized A.T Q
        r_eff = min(r, self.shape[0] * self.shape[1])
        return _completed(_eigh_descending(self._gram(), r_eff)[1], r)

    def _core(self, factors) -> np.ndarray:
        """The tensor times every factor transpose: the fill's part from
        the column term, D's part summed per user over the cells."""
        u1, u2, u3 = factors
        r2, r3 = u2.shape[1], u3.shape[1]
        e = self._d @ u3
        per_user = _segment_sums(self._u_ptr, lambda lo, hi: (
            u2.take(self._items[lo:hi], axis=0)[:, :, None]
            * e[lo:hi, None, :]).reshape(hi - lo, r2 * r3), (r2 * r3,))
        core = (u1.T @ per_user).reshape(-1, r2, r3)
        p, q = self._term
        core += np.einsum("as,bs,sc->abc", u1.T @ p, u2.T @ q, u3)
        return core


class _CellUnfolding:
    """The mode-1 or mode-2 unfolding of a CellTensor as an operator with
    the sketch's two products, a @ x and a.T @ y: the column term plus one
    gather of x's or y's rows at the cells and one segment sum, the rows'
    side of the cells for a @ x, the columns' side for a.T @ y."""

    def __init__(self, cells: CellTensor, mode: int, transposed: bool = False):
        n_users, n_items, self._slices = cells.shape
        by_user = (cells._u_ptr, cells._items, cells._d)
        by_item = (cells._i_ptr, cells._u_im, cells._d_im)
        self._cells, self._mode, self._transposed = cells, mode, transposed
        if mode == 1:
            rows, other = n_users, n_items
            self._by_row, self._by_col = by_user, by_item
            self._p, self._q = cells._term
        else:
            rows, other = n_items, n_users
            self._by_row, self._by_col = by_item, by_user
            self._q, self._p = cells._term
        self._other = other
        self.shape = (rows, other * self._slices)[::-1 if transposed else 1]

    @property
    def T(self) -> "_CellUnfolding":
        # a new one over the cells: one stored here would form a reference
        # cycle, keeping the cells' arrays until the cyclic collector runs
        return _CellUnfolding(self._cells, self._mode, not self._transposed)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self._transposed:
            return self._rmatmat(x)
        s, width = self._slices, x.shape[1]
        # the columns of mode 1 run slice-major, those of mode 2 other-major
        xo = (x.reshape(s, self._other, width).transpose(1, 0, 2)
              if self._mode == 1 else x.reshape(self._other, s, width))
        out = self._p @ np.einsum("os,osw->sw", self._q, xo)
        ptr, at, d = self._by_row
        flat = np.ascontiguousarray(xo).reshape(self._other, s * width)
        return out + _segment_sums(ptr, lambda lo, hi: np.einsum(
            "cs,csw->cw", d[lo:hi],
            flat.take(at[lo:hi], axis=0).reshape(hi - lo, s, width)), (width,))

    def _rmatmat(self, y: np.ndarray) -> np.ndarray:
        ptr, at, d = self._by_col
        out = _segment_sums(ptr, lambda lo, hi: d[lo:hi, :, None]
                            * y.take(at[lo:hi], axis=0)[:, None, :],
                            (self._slices, y.shape[1]))
        out += self._q[:, :, None] * (self._p.T @ y)
        if self._mode == 1:
            out = out.transpose(1, 0, 2)
        return out.reshape(-1, y.shape[1])


def _completed(u: np.ndarray, r: int) -> np.ndarray:
    """u sign-fixed, with an orthonormal completion up to r columns."""
    _sign_fix(u)
    if u.shape[1] == r:
        return u
    full = np.zeros((u.shape[0], r))
    full[:, :u.shape[1]] = u
    _complete_orthonormal(full, u.shape[1])
    return full


def _unfolding_factor(a, r: int, seed: int) -> np.ndarray:
    """The top-r left singular vectors of an unfolding (or its operator)
    from the sketch.  A factor may have more columns than the unfolding
    has singular vectors (r up to its rows); the surplus is an orthonormal
    completion, harmless to the reconstruction projector."""
    r_eff = min(r, a.shape[1])
    return _completed(_left_factor(a, r_eff, seed)[0][:, :r_eff].copy(), r)


def _check_ranks(ranks, shape=(None,) * 3) -> None:
    """The Tucker rank rule: three integers, each in 1..its mode's size."""
    if len(ranks) != 3:
        raise ValueError(f"ranks must be three integers, got {ranks!r}")
    for mode, (r, n) in enumerate(zip(ranks, shape), 1):
        _check_integer(f"mode {mode} rank", r, 1, None if n is None else n + 1)


def hosvd(t: np.ndarray | CellTensor, ranks: tuple[int, int, int], *,
          seed: int = 0) -> TuckerModel:
    """Tucker decomposition via per-mode truncated SVD.

    Factor s holds the top-r_s left singular vectors of the mode-s
    unfolding that truncated_svd's sketch finds with the Python int seed
    + s (no numpy wrap); the core is the tensor multiplied by every
    factor transpose.  Only the left factors are formed.

    A dense tensor over its dense_hosvd_cells budget is rejected before
    any unfolding of it is formed.

    A CellTensor is factored from its parts: modes 1 and 2 run the same
    sketch over the unfolding's products, with the same seeds; mode 3,
    of k+1 rows, takes the eigenvectors of its exact Gram matrix, which
    the sketch, as wide as the unfolding is tall, also finds; and the
    core sums D's cells per user.  Factors agree with the dense tensor's
    to rounding.  Its budget is cell_factoring_cells.
    """
    cells = isinstance(t, CellTensor)
    if not cells:
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 3:
            raise ValueError("expected a third-order tensor")
        check_cell_budget(dense_hosvd_cells(t.shape))
    _check_ranks(ranks, t.shape)
    _check_integer("seed", seed, 0, _SEED_BOUND)
    if cells:
        check_cell_budget(cell_factoring_cells(t.shape, t.n_cells, ranks))
        factors = tuple(t._factor(mode, ranks[mode - 1], int(seed) + mode)
                        for mode in (1, 2, 3))
        return TuckerModel(t._core(factors), factors)
    factors = tuple(_unfolding_factor(mode_unfold(t, mode), ranks[mode - 1],
                                      int(seed) + mode) for mode in (1, 2, 3))
    core = t
    for mode, u in zip((1, 2, 3), factors):
        core = mode_product(core, u.T, mode)
    return TuckerModel(core, factors)


def tucker_reconstruct(model: TuckerModel) -> np.ndarray:
    out = model.core
    for mode, u in zip((1, 2, 3), model.factors):
        out = mode_product(out, u, mode)
    return out


IMPUTE_STRATEGIES = ("item_mean",)


def impute_missing(a: np.ndarray, strategy: str = "item_mean") -> np.ndarray:
    """Fill the NaN cells of a users-by-items matrix with their item's mean,
    or the global mean for an item without ratings, as a one-slice
    CellTensor is filled.  A matrix without observed cells is rejected."""
    if strategy not in IMPUTE_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    a = np.asarray(a, dtype=np.float64)
    observed = ~np.isnan(a)
    if not observed.any():
        raise ValueError("matrix has no observed cells")
    counts = observed.sum(axis=0)
    sums = np.where(observed, a, 0.0).sum(axis=0)
    means = np.full(counts.shape, a[observed].mean())
    np.divide(sums, counts, out=means, where=counts > 0)
    return np.where(observed, a, means)
