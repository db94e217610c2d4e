"""Item-item similarity measures and the all-pairs similarity store.

Rating-based measures (pearson, adjusted_cosine, cosine, euclidean) work on
the ratings of users who rated both items; set-based measures (tanimoto,
loglikelihood) only look at who rated what.  An undefined similarity (too
few co-raters, zero variance, zero norm) is None at the single-pair level
and NaN inside a store; undefined pairs never enter a neighborhood, since 0
would be a meaningful correlation value.

The per-pair functions are the reference semantics.  item_similarity_matrix
computes the same numbers for all pairs at once from dense sufficient
statistics (valid at desk scale, where a dense items x items array fits
comfortably in memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset
from .linalg import FactorModel, TuckerModel

RATING_KINDS = ("pearson", "adjusted_cosine", "cosine", "euclidean")
SET_KINDS = ("tanimoto", "loglikelihood")
SIMILARITY_KINDS = RATING_KINDS + SET_KINDS + ("latent_cosine",)

# Variance / squared-norm below this is treated as exactly zero.  Real
# rating data is unit-spaced, so true nonzero variances are far larger.
_VAR_EPS = 1e-9


class CoRatings(NamedTuple):
    """Ratings of two items restricted to users who rated both."""

    users: np.ndarray
    ratings_i: np.ndarray
    ratings_j: np.ndarray


def co_ratings(i: int, j: int, d: Dataset) -> CoRatings:
    ui, vi = d.users_of(i)
    uj, vj = d.users_of(j)
    common, pos_i, pos_j = np.intersect1d(ui, uj, assume_unique=True,
                                          return_indices=True)
    return CoRatings(common, vi[pos_i], vj[pos_j])


def pearson(i: int, j: int, d: Dataset) -> float | None:
    """Sample correlation of co-ratings; None below 2 co-raters or at zero
    variance."""
    co = co_ratings(i, j, d)
    n = len(co.users)
    if n < 2:
        return None
    xc = co.ratings_i - co.ratings_i.mean()
    yc = co.ratings_j - co.ratings_j.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx <= _VAR_EPS or vy <= _VAR_EPS:
        return None
    return float(np.clip((xc @ yc) / math.sqrt(vx * vy), -1.0, 1.0))


def adjusted_cosine(i: int, j: int, d: Dataset) -> float | None:
    """Cosine of co-ratings centered by each user's mean over all items."""
    means = d.user_means()
    co = co_ratings(i, j, d)
    if len(co.users) == 0:
        return None
    xc = co.ratings_i - means[co.users]
    yc = co.ratings_j - means[co.users]
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx <= _VAR_EPS or vy <= _VAR_EPS:
        return None
    return float(np.clip((xc @ yc) / math.sqrt(vx * vy), -1.0, 1.0))


def cosine(i: int, j: int, d: Dataset) -> float | None:
    """Plain cosine over co-ratings (no centering)."""
    co = co_ratings(i, j, d)
    if len(co.users) == 0:
        return None
    vx = float(co.ratings_i @ co.ratings_i)
    vy = float(co.ratings_j @ co.ratings_j)
    if vx <= _VAR_EPS or vy <= _VAR_EPS:
        return None
    return float(np.clip((co.ratings_i @ co.ratings_j) / math.sqrt(vx * vy),
                         -1.0, 1.0))


def euclidean_sim(i: int, j: int, d: Dataset, mode: str = "normalized") -> float | None:
    """1 / (1 + dist / sqrt(c)) over c co-raters; None when c = 0.

    Without the sqrt(c) normalization items with many co-raters would be
    systematically penalized; ``mode="raw"`` switches it off.
    """
    if mode not in ("normalized", "raw"):
        raise ValueError(f"unknown mode {mode!r}")
    co = co_ratings(i, j, d)
    n = len(co.users)
    if n == 0:
        return None
    diff = co.ratings_i - co.ratings_j
    dist = math.sqrt(float(diff @ diff))
    if mode == "normalized":
        dist /= math.sqrt(n)
    return 1.0 / (1.0 + dist)


def tanimoto(i: int, j: int, d: Dataset) -> float:
    """Rater-set intersection over union; rating values are ignored."""
    ui = d.users_of(i)[0]
    uj = d.users_of(j)[0]
    inter = len(np.intersect1d(ui, uj, assume_unique=True))
    union = len(ui) + len(uj) - inter
    return inter / union if union else 0.0


def _llr_from_counts(k11: float, k12: float, k21: float, k22: float) -> float:
    """2 * sum over cells of k * ln(k N / (row col)), with 0 ln 0 = 0."""
    n = k11 + k12 + k21 + k22
    rows = (k11 + k12, k21 + k22)
    cols = (k11 + k21, k12 + k22)
    total = 0.0
    for k, r, c in ((k11, rows[0], cols[0]), (k12, rows[0], cols[1]),
                    (k21, rows[1], cols[0]), (k22, rows[1], cols[1])):
        if k > 0:
            total += k * math.log(k * n / (r * c))
    return max(2.0 * total, 0.0)


def loglikelihood(i: int, j: int, d: Dataset,
                  total_users: int | None = None) -> float:
    """Co-occurrence significance mapped to [0, 1) as 1 - 1/(1 + LLR)."""
    ui = d.users_of(i)[0]
    uj = d.users_of(j)[0]
    if total_users is None:
        total_users = d.n_users
    k11 = len(np.intersect1d(ui, uj, assume_unique=True))
    union = len(ui) + len(uj) - k11
    if total_users < union:
        raise ValueError("total_users smaller than the observed rater union")
    llr = _llr_from_counts(k11, len(ui) - k11, len(uj) - k11,
                           total_users - union)
    return 1.0 - 1.0 / (1.0 + llr)


def latent_cosine(model: FactorModel | TuckerModel, i: int, j: int) -> float | None:
    """Cosine between two items' latent vectors; None on a zero vector."""
    vectors = model.item_vectors()
    return _row_cosine(vectors, i, j)


def _row_cosine(vectors: np.ndarray, i: int, j: int) -> float | None:
    vi, vj = vectors[i], vectors[j]
    ni = float(vi @ vi)
    nj = float(vj @ vj)
    if ni <= _VAR_EPS or nj <= _VAR_EPS:
        return None
    return float(np.clip((vi @ vj) / math.sqrt(ni * nj), -1.0, 1.0))


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

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    def sim(self, i: int, j: int) -> float | None:
        v = self.values[i, j]
        return None if np.isnan(v) else float(v)

    def defined_count(self) -> int:
        n = int(np.count_nonzero(~np.isnan(self.values)))
        return n // 2

    def iter_defined(self):
        """Yield (i, j, value) for every defined pair with i < j."""
        iu, ju = np.nonzero(np.triu(~np.isnan(self.values), 1))
        for i, j in zip(iu, ju):
            yield int(i), int(j), float(self.values[i, j])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item_a,item_b,kind,value\n")
            for i, j, v in self.iter_defined():
                fh.write(f"{self.item_ids[i]},{self.item_ids[j]},{self.kind},{v:.10g}\n")


def default_min_co_ratings(kind: str) -> int:
    """2 for rating-based measures (variance needs two points), 1 for
    set-based and latent."""
    return 2 if kind in RATING_KINDS else 1


def _symmetrize(s: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower so sim(i,j) == sim(j,i)
    bit-for-bit, and blank the diagonal."""
    out = np.triu(s, 1)
    out = out + out.T
    np.fill_diagonal(out, np.nan)
    return out


def item_similarity_matrix(d: Dataset, kind: str,
                           min_co_ratings: int | None = None,
                           *, model: FactorModel | TuckerModel | None = None,
                           euclidean_mode: str = "normalized") -> SimilarityStore:
    """All defined pairwise similarities with enough co-raters.

    ``kind="latent_cosine"`` requires a factor model and ignores
    co-rating counts (latent vectors exist for every item).
    """
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}")
    if min_co_ratings is None:
        min_co_ratings = default_min_co_ratings(kind)

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

    r = np.nan_to_num(d.to_dense(missing=np.nan), nan=0.0)
    b = d.to_mask().astype(np.float64)
    n_co = b.T @ b                       # co-rater counts
    low = n_co < max(min_co_ratings, 1)

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
                low = n_co < max(min_co_ratings, 2)
            elif kind == "cosine":
                sims = np.clip(sxy / np.sqrt(sxx * sxx.T), -1.0, 1.0)
                sims[(sxx <= _VAR_EPS) | (sxx.T <= _VAR_EPS)] = np.nan
            else:
                d2 = np.sqrt(np.clip(sxx + sxx.T - 2.0 * sxy, 0.0, None))
                if euclidean_mode == "normalized":
                    d2 = d2 / np.sqrt(n_co)
                elif euclidean_mode != "raw":
                    raise ValueError(f"unknown mode {euclidean_mode!r}")
                sims = 1.0 / (1.0 + d2)
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
            low = np.zeros_like(low) if min_co_ratings <= 0 else low
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

    sims = np.asarray(sims, dtype=np.float64)
    sims[low] = np.nan
    return SimilarityStore(kind, _symmetrize(sims), d.item_ids)
