"""Item-item similarity measures and the all-pairs similarity store.

Rating-based measures work on the ratings of the users who rated both
items: pearson (correlation of the co-ratings), adjusted_cosine (cosine of
the co-ratings centered on each user's mean over all items), cosine
(uncentered) and euclidean (1 / (1 + dist / sqrt(c)) over c co-raters, so
that items with many co-raters are not penalized).  Set-based measures only
look at who rated what: tanimoto (rater intersection over union) and
loglikelihood (1 - 1 / (1 + LLR) of the rater co-occurrence counts).
latent_cosine is the cosine of two items' latent factor vectors.

item_similarity_matrix computes every pair at once from dense sufficient
statistics (valid at desk scale, where a dense items x items array fits
comfortably in memory).  A pair is undefined, NaN in the store, with zero
variance or norm or with fewer co-raters than the fixed gate: 2 for
rating-based measures (a variance needs two points), 1 for set-based ones,
none for latent_cosine.  Undefined pairs never enter a neighborhood, since
0 would be a meaningful correlation value.  The tests pin every measure to
a per-pair reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .linalg import FactorModel, TuckerModel

RATING_KINDS = ("pearson", "adjusted_cosine", "cosine", "euclidean")
SET_KINDS = ("tanimoto", "loglikelihood")
SIMILARITY_KINDS = RATING_KINDS + SET_KINDS + ("latent_cosine",)

# Variance / squared-norm below this is treated as exactly zero.  Real
# rating data is unit-spaced, so true nonzero variances are far larger.
_VAR_EPS = 1e-9


@dataclass(frozen=True)
class SimilarityStore:
    """Symmetric item x item similarity matrix; NaN marks undefined pairs.

    The diagonal is always NaN (an item is not its own neighbor).  The
    constructor enforces both, since the neighborhood kernel reads an
    item's similarities from whichever side of the matrix is cheaper.
    """

    kind: str
    values: np.ndarray      # (n_items, n_items), float64
    item_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v, nan = self.values, np.isnan(self.values)
        if (v.shape != (len(self.item_ids),) * 2 or not nan.diagonal().all()
                or ((v != v.T) & ~(nan & nan.T)).any()):
            raise ValueError("similarity values must be a symmetric items x "
                             "items matrix with a NaN diagonal")

    def defined_count(self) -> int:
        n = int(np.count_nonzero(~np.isnan(self.values)))
        return n // 2


def _symmetrize(s: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower so sim(i,j) == sim(j,i)
    bit-for-bit, and blank the diagonal."""
    out = np.triu(s, 1)
    out = out + out.T
    np.fill_diagonal(out, np.nan)
    return out


def item_similarity_matrix(d: Dataset, kind: str, *,
                           model: FactorModel | TuckerModel | None = None
                           ) -> SimilarityStore:
    """All defined pairwise similarities with enough co-raters.

    ``kind="latent_cosine"`` requires a factor model and ignores
    co-rating counts (latent vectors exist for every item).
    """
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}")

    if kind == "latent_cosine":
        if model is None:
            raise ValueError("latent_cosine needs a factor model")
        vectors = model.item_vectors()
        if vectors.shape[0] != d.n_items:
            raise ValueError("model item count does not match dataset")
        norms = np.linalg.norm(vectors, axis=1)
        sims = (vectors @ vectors.T)
        denom = np.outer(norms, norms)
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.clip(sims / denom, -1.0, 1.0)
        sims[norms * norms <= _VAR_EPS, :] = np.nan
        sims[:, norms * norms <= _VAR_EPS] = np.nan
        return SimilarityStore(kind, _symmetrize(sims), d.item_ids)

    r = np.nan_to_num(d.to_dense(), nan=0.0)
    b = d.to_mask().astype(np.float64)
    n_co = b.T @ b                       # co-rater counts
    low = n_co < (2 if kind in RATING_KINDS else 1)

    with np.errstate(invalid="ignore", divide="ignore"):
        if kind in ("pearson", "euclidean", "cosine"):
            sxy = r.T @ r
            sx = r.T @ b                 # sum of item-i ratings over co-raters
            sxx = (r * r).T @ b
            if kind == "pearson":
                cov = sxy - sx * sx.T / n_co
                vx = sxx - sx * sx / n_co
                vy = vx.T
                sims = cov / np.sqrt(vx * vy)
                sims[(vx <= _VAR_EPS) | (vy <= _VAR_EPS)] = np.nan
                sims = np.clip(sims, -1.0, 1.0)
            elif kind == "cosine":
                sims = np.clip(sxy / np.sqrt(sxx * sxx.T), -1.0, 1.0)
                sims[(sxx <= _VAR_EPS) | (sxx.T <= _VAR_EPS)] = np.nan
            else:
                d2 = np.sqrt(np.clip(sxx + sxx.T - 2.0 * sxy, 0.0, None))
                sims = 1.0 / (1.0 + d2 / np.sqrt(n_co))
        elif kind == "adjusted_cosine":
            rc = np.where(b > 0, r - d.user_means()[:, None], 0.0)
            num = rc.T @ rc
            nx = (rc * rc).T @ b
            sims = np.clip(num / np.sqrt(nx * nx.T), -1.0, 1.0)
            sims[(nx <= _VAR_EPS) | (nx.T <= _VAR_EPS)] = np.nan
        elif kind == "tanimoto":
            counts = b.sum(axis=0)
            union = counts[:, None] + counts[None, :] - n_co
            sims = np.where(union > 0, n_co / np.where(union > 0, union, 1.0), 0.0)
        else:  # loglikelihood
            counts = b.sum(axis=0)
            n = float(d.n_users)
            k11 = n_co
            k12 = counts[:, None] - k11
            k21 = counts[None, :] - k11
            k22 = n - (counts[:, None] + counts[None, :] - k11)
            llr = np.zeros_like(k11)
            rows1 = k11 + k12
            cols1 = k11 + k21
            for kk, rr, cc in ((k11, rows1, cols1), (k12, rows1, n - cols1),
                               (k21, n - rows1, cols1), (k22, n - rows1, n - cols1)):
                term = np.zeros_like(kk)
                good = kk > 0
                term[good] = kk[good] * np.log(kk[good] * n / (rr * cc)[good])
                llr += term
            llr = np.clip(2.0 * llr, 0.0, None)
            sims = 1.0 - 1.0 / (1.0 + llr)

    sims[low] = np.nan
    return SimilarityStore(kind, _symmetrize(sims), d.item_ids)
