"""Low-rank matrix and third-order tensor numerics.

Truncated SVD is computed by Gaussian sketching: draw G, form Y = A G,
orthonormalize, project, and eigendecompose the small projected Gram matrix.
The sketch has no tuning knobs: 10 oversampling columns (fewer on small
matrices) and two power iterations, after Halko, Martinsson & Tropp, SIAM
Review 53(2), 2011.  The Tucker decomposition (Kolda & Bader, SIAM Review
51(3), 2009) takes each mode factor from the mode unfolding with the same
sketch, forming only the left singular vectors, and forms the core by
projecting the tensor onto the factor transposes.  It releases its input
once the first unfolding holds the values, so a caller that hands over the
only reference bounds the whole factoring at TENSOR_COPIES dense copies of
the tensor.

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

    Candidates are the standard basis vectors, projected against the
    existing columns; deterministic and independent of any seed.
    """
    n, k = v.shape
    col = have
    # generous acceptance threshold first; retry near-spanned candidates
    # only if the first sweep could not fill every column
    for threshold in (0.5, 1e-8):
        for cand in range(n):
            if col == k:
                return
            w = np.zeros(n)
            w[cand] = 1.0
            for _ in range(2):  # twice-is-enough re-orthogonalization
                w -= v[:, :col] @ (v[:, :col].T @ w)
            norm = np.linalg.norm(w)
            if norm > threshold:
                v[:, col] = w / norm
                col += 1
    if col < k:
        raise ValueError("could not complete orthonormal basis")


def _left_factor(a: np.ndarray, k: int,
                 seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sketch of truncated_svd up to its left factor: (Q X, sigma, B, X)
    over all sketch columns, with B = Q.T A, X the eigenvectors of B B.T
    and sigma zero at and below the cutoff.

    Each (n, width) intermediate (the sketch, A.T Q and its basis) dies
    within the statement that uses it, so beside A the routine holds at
    most three (n, width) arrays at once (A.T Q, QR's copy of it and the
    basis) plus LAPACK's two buffers for that QR.
    """
    m, n = a.shape
    width = k + min(10, min(m, n) - k)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(a @ rng.standard_normal((n, width)))
    for _ in range(2):
        q, _ = np.linalg.qr(a @ np.linalg.qr(a.T @ q)[0])

    b = q.T @ a
    evals, x = np.linalg.eigh(b @ b.T)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    x = x[:, order]
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    cutoff = SIGMA_CUTOFF * sigma[0] if sigma[0] > 0 else 0.0
    return q @ x, np.where(sigma > cutoff, sigma, 0.0), b, x


def truncated_svd(a: np.ndarray, k: int, seed: int = 0) -> FactorModel:
    """Sketched truncated SVD of rank k.

    Pipeline: Gaussian sketch of width k + min(10, min(m, n) - k), so that
    full-rank requests stay valid; orthonormal basis Q (Householder QR); two
    power iterations by (A A.T), re-orthonormalizing after each half-product;
    projection B = Q.T A; eigendecomposition of B B.T; back-transformation.

    Right singular vectors for numerically zero singular values cannot be
    recovered from the sketch (the back-transform divides by sigma); those
    columns are filled with a deterministic orthonormal completion.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank {k} out of range 1..{min(m, n)}")

    u, sigma, b, x = _left_factor(a, k, seed)
    v = np.zeros((n, len(sigma)))
    nz = np.flatnonzero(sigma)
    if nz.size:
        v[:, nz] = b.T @ (x[:, nz] / sigma[nz])

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
    if not 1 <= k <= n_vars:
        raise ValueError(f"component count {k} out of range 1..{n_vars}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (obs - 1)
    evals, vecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    components = vecs[:, order].copy()
    eigenvalues = np.clip(evals[order], 0.0, None)
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
    if mode not in _UNFOLD_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    t = np.asarray(t)
    axes = _UNFOLD_AXES[mode]
    return t.transpose(axes).reshape(t.shape[mode - 1], -1)


def mode_refold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of mode_unfold for a tensor of the given dims."""
    if mode not in _UNFOLD_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    axes = _UNFOLD_AXES[mode]
    shuffled = tuple(dims[a] for a in axes)
    # each unfolding permutation is an involution
    return m.reshape(shuffled).transpose(axes)


def mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply a matrix into one tensor mode: result's mode-s unfolding is
    m @ (t's mode-s unfolding)."""
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if m.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns, tensor mode {mode} has size "
            f"{t.shape[mode - 1]}"
        )
    dims = list(t.shape)
    dims[mode - 1] = m.shape[0]
    return mode_refold(m @ mode_unfold(t, mode), mode, tuple(dims))


# Most cells the dense arrays of one step may hold: a plain dataset's
# users x items ratings plus its items x items similarity store, or the
# matrix decompose factors; a tensor counts TENSOR_COPIES times.  2e8
# float64 cells are 1.6 GB.
DENSE_CELL_BUDGET = 2e8

# Dense copies of a (users, items, k+1) tensor that hosvd, and so an MC
# build, holds at its peak: an unfolding plus, where the sketch is as wide
# as the unfolding is tall (always for mode 3 with k+1 <= r3 + 10), A.T Q,
# QR's copy of it and its basis, which tracemalloc sees (4.0 copies for a
# 1,000 x 800 x 5 build), and the two LAPACK buffers of that QR, which it
# does not.
TENSOR_COPIES = 6


def check_cell_budget(cells: int) -> None:
    if cells > DENSE_CELL_BUDGET:
        raise ValueError(f"dense arrays need {cells} cells, above the "
                         f"{DENSE_CELL_BUDGET:.0f}-cell budget")


def check_tensor_budget(cells: int) -> None:
    """Reject a tensor of this many cells whose HOSVD would hold more than
    DENSE_CELL_BUDGET cells at once."""
    check_cell_budget(TENSOR_COPIES * cells)


def hosvd(t: np.ndarray, ranks: tuple[int, int, int], *,
          seed: int = 0) -> TuckerModel:
    """Tucker decomposition via per-mode truncated SVD.

    Factor s holds the top-r_s left singular vectors of the mode-s
    unfolding, those truncated_svd with seed + s returns; the core is the
    tensor multiplied by every factor transpose, mode 1 first, each
    product taken as soon as its factor exists.  Only the left factors
    are formed.  The function drops its reference to t once the mode-1
    unfolding exists, and each unfolding once the next one does, so a
    caller that passes the only reference to t frees it before the first
    sketch.  A tensor whose factoring would hold more than
    DENSE_CELL_BUDGET cells (TENSOR_COPIES per tensor cell) is rejected
    before any of it.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError("expected a third-order tensor")
    check_tensor_budget(t.size)
    for mode in (1, 2, 3):
        if not 1 <= ranks[mode - 1] <= t.shape[mode - 1]:
            raise ValueError(
                f"rank {ranks[mode - 1]} out of range 1..{t.shape[mode - 1]} "
                f"for mode {mode}"
            )
    dims = t.shape
    # from here on the unfoldings hold the tensor's values: each is formed
    # from the one before, C-ordered as the tensor's own unfolding would be
    unfolding = mode_unfold(t, 1)
    del t
    factors = []
    for mode in (1, 2, 3):
        if mode > 1:
            unfolding = np.ascontiguousarray(
                mode_unfold(mode_refold(unfolding, mode - 1, dims), mode))
        r = ranks[mode - 1]
        # a mode's factor may have more columns than the unfolding has
        # singular vectors (r up to I_s); the surplus is an orthonormal
        # completion, harmless to the reconstruction projector
        r_eff = min(r, unfolding.shape[1])
        u = _left_factor(unfolding, r_eff, seed + mode)[0][:, :r_eff].copy()
        _sign_fix(u)
        if r_eff < r:
            full = np.zeros((unfolding.shape[0], r))
            full[:, :r_eff] = u
            _complete_orthonormal(full, r_eff)
            u = full
        factors.append(u)
        # t x1 u1.T reads the unfolding in hand, as mode_product would
        core = (mode_refold(u.T @ unfolding, 1, (r,) + dims[1:]) if mode == 1
                else mode_product(core, u.T, mode))
    return TuckerModel(core, tuple(factors))


def tucker_reconstruct(model: TuckerModel) -> np.ndarray:
    out = model.core
    for mode, u in zip((1, 2, 3), model.factors):
        out = mode_product(out, u, mode)
    return out


IMPUTE_STRATEGIES = ("item_mean", "user_mean", "global_mean", "zero")


def impute_missing(a: np.ndarray, strategy: str = "item_mean") -> np.ndarray:
    """Fill NaN cells of a users-by-items matrix.

    item_mean / user_mean fall back to the global mean for empty columns /
    rows.  A matrix with no observed cell at all has no meaningful fill and
    is rejected.
    """
    if strategy not in IMPUTE_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    a = np.asarray(a, dtype=np.float64)
    observed = ~np.isnan(a)
    if strategy == "zero":
        return np.where(observed, a, 0.0)
    if not observed.any():
        raise ValueError("matrix has no observed cells")
    filled = a.copy()
    global_mean = a[observed].mean()
    if strategy == "global_mean":
        filled[~observed] = global_mean
        return filled
    axis = 0 if strategy == "item_mean" else 1
    counts = observed.sum(axis=axis)
    sums = np.where(observed, a, 0.0).sum(axis=axis)
    means = np.full(counts.shape, global_mean)
    np.divide(sums, counts, out=means, where=counts > 0)
    fill = means[np.newaxis, :] if axis == 0 else means[:, np.newaxis]
    return np.where(observed, a, fill)
