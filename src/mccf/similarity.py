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
statistics: Gram products of the users x items ratings and rater mask,
finished elementwise into one items x items float64 store.  Only the
upper triangle is finished, in blocks of _BLOCK item rows against the
columns from the block's first item on, and then mirrored in place.  When
every rating is an integer and n_users * max|rating|^2 < 2**24 (always,
for the set measures), every partial sum of a product is an integer that
float32 holds, so the blocks multiply in float32 and give exactly the
float64 sums.  Other inputs (fractional ratings, adjusted_cosine's
centred ratings, an empty dataset) keep one float64 block of the whole
matrix, since a blocked float64 product can change the last bits.
Either way the store is bitwise the float64 whole-matrix build.  Memory
is the store, up to three float32 users x items operands and a few
_BLOCK x items temporaries: a traced peak of 80 MB for the 23 MB pearson
store of a 943 x 1682 (MovieLens-100K-shaped) dataset.  A dataset whose
users x items plus items x items cells exceed linalg.DENSE_CELL_BUDGET
(2e8, 1.6 GB of float64) is rejected before any dense copy; latent_cosine
forms no users x items array, so only its store counts.

A pair is undefined, NaN in the store, with zero variance or norm or with
fewer co-raters than the fixed gate: 2 for rating-based measures (a
variance needs two points), 1 for set-based ones, none for
latent_cosine.  Undefined pairs never enter a neighborhood, since 0 would
be a meaningful correlation value.  The tests pin every measure to a
per-pair reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .linalg import FactorModel, TuckerModel, check_cell_budget

RATING_KINDS = ("pearson", "adjusted_cosine", "cosine", "euclidean")
SET_KINDS = ("tanimoto", "loglikelihood")
SIMILARITY_KINDS = RATING_KINDS + SET_KINDS + ("latent_cosine",)

# Variance / squared-norm below this is treated as exactly zero.  Real
# rating data is unit-spaced, so true nonzero variances are far larger.
_VAR_EPS = 1e-9

# Item rows per block of the float32 build and of the in-place mirror.
_BLOCK = 256

# float32 holds every integer of magnitude below this exactly.
_FLOAT32_EXACT = 2 ** 24


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


def _mirror_upper(s: np.ndarray) -> None:
    """In place: copy the strict upper triangle onto the lower, so
    sim(i,j) == sim(j,i) bit-for-bit, and blank the diagonal.  Each value
    gets 0.0 added, which turns -0.0 into +0.0 on both sides."""
    n = s.shape[0]
    for a in range(0, n, _BLOCK):
        e = min(a + _BLOCK, n)
        upper = np.triu(s[a:e, a:e], 1)
        s[a:e, a:e] = upper + upper.T
        s[a:e, e:] += 0.0
        s[e:, a:e] = s[a:e, e:].T
    np.fill_diagonal(s, np.nan)


def _float32_exact(d: Dataset, kind: str) -> bool:
    """Whether float32 Gram products of kind's inputs equal float64 ones.

    They do when every partial sum is an integer below 2**24: a sum runs
    over at most n_users products of two stored values (of two mask
    entries for the set kinds).  adjusted_cosine's centred values, any
    value that is not an integer, and an empty dataset take float64.
    """
    v = d.values
    if kind == "adjusted_cosine" or not len(v):
        return False
    top = 1.0
    if kind in RATING_KINDS:
        if not np.all(np.round(v) == v):
            return False
        top = max(top, float(np.abs(v).max()))
    return d.n_users * top * top < _FLOAT32_EXACT


def _pearson(n_co, sxy, sx, sx_t, sxx, sxx_t, **_):
    cov = sxy - sx * sx_t / n_co
    vx = sxx - sx * sx / n_co
    vy = sxx_t - sx_t * sx_t / n_co
    sims = cov / np.sqrt(vx * vy)
    sims[(vx <= _VAR_EPS) | (vy <= _VAR_EPS)] = np.nan
    return np.clip(sims, -1.0, 1.0)


def _cosine(sxy, sxx, sxx_t, **_):
    """cosine; adjusted_cosine on centred x."""
    sims = np.clip(sxy / np.sqrt(sxx * sxx_t), -1.0, 1.0)
    sims[(sxx <= _VAR_EPS) | (sxx_t <= _VAR_EPS)] = np.nan
    return sims


def _euclidean(n_co, sxy, sxx, sxx_t, **_):
    d2 = np.sqrt(np.clip(sxx + sxx_t - 2.0 * sxy, 0.0, None))
    return 1.0 / (1.0 + d2 / np.sqrt(n_co))


def _tanimoto(n_co, count_row, count_col, **_):
    union = count_row + count_col - n_co
    return np.where(union > 0, n_co / np.where(union > 0, union, 1.0), 0.0)


def _loglikelihood(n_co, count_row, count_col, n_users, **_):
    n = float(n_users)
    k11 = n_co
    k12 = count_row - k11
    k21 = count_col - k11
    k22 = n - (count_row + count_col - k11)
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
    return 1.0 - 1.0 / (1.0 + llr)


_FINISH = {"pearson": _pearson, "adjusted_cosine": _cosine,
           "cosine": _cosine, "euclidean": _euclidean,
           "tanimoto": _tanimoto, "loglikelihood": _loglikelihood}


def _finished_block(kind: str, x, xx, b, counts, a: int, e: int):
    """kind's similarities of item rows [a, e) against item columns [a, n),
    NaN below the co-rater gate.

    The float64 Gram statistics are, over the co-raters of a pair (i, j)
    with i the row item: ``n_co`` counts them, ``sxy`` sums x_i x_j,
    ``sx`` sums x_i and ``sxx`` sums x_i^2; ``sx_t`` and ``sxx_t`` sum x_j
    and x_j^2.  A block that covers every item takes those two as
    transposed views of ``sx`` and ``sxx``.
    """
    whole = a == 0 and e == b.shape[1]

    def gram(left, right):
        return (left[:, a:e].T @ right[:, a:]).astype(np.float64, copy=False)

    def with_transposed(left):
        s = gram(left, b)
        return s, (s.T if whole else gram(b, left))

    stats = {"n_co": gram(b, b), "count_row": counts[a:e, None],
             "count_col": counts[None, a:], "n_users": b.shape[0]}
    if kind in RATING_KINDS:
        stats["sxy"] = gram(x, x)
        stats["sxx"], stats["sxx_t"] = with_transposed(xx)
    if kind == "pearson":
        stats["sx"], stats["sx_t"] = with_transposed(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = _FINISH[kind](**stats)
    sims[stats["n_co"] < (2 if kind in RATING_KINDS else 1)] = np.nan
    return sims


def _dense_store(d: Dataset, kind: str) -> np.ndarray:
    """The mirrored items x items values of a rating or set kind.

    Exact inputs run in float32 row blocks of the upper triangle; the
    others in one float64 block of the whole matrix.
    """
    exact = _float32_exact(d, kind)
    dtype = np.float32 if exact else np.float64
    b = d.to_mask(dtype)
    x = xx = None
    if kind in RATING_KINDS:
        x = np.nan_to_num(d.to_dense(dtype), nan=0.0, copy=False)
        if kind == "adjusted_cosine":
            x = np.where(b > 0, x - d.user_means()[:, None], 0.0)
        xx = x * x
    counts = b.sum(axis=0, dtype=np.float64)
    n = d.n_items
    step = _BLOCK if exact else max(n, 1)
    out = np.empty((n, n))
    for a in range(0, n, step):
        e = min(a + step, n)
        out[a:e, a:] = _finished_block(kind, x, xx, b, counts, a, e)
    _mirror_upper(out)
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
    # the store, plus the users x items ratings all but latent_cosine read
    latent = kind == "latent_cosine"
    check_cell_budget((0 if latent else d.n_users * d.n_items) + d.n_items ** 2)

    if latent:
        if model is None:
            raise ValueError("latent_cosine needs a factor model")
        vectors = model.item_vectors()
        if vectors.shape[0] != d.n_items:
            raise ValueError("model item count does not match dataset")
        norms = np.linalg.norm(vectors, axis=1)
        # in place: the store and the norms' outer product are the only
        # items x items arrays
        sims = vectors @ vectors.T
        with np.errstate(invalid="ignore", divide="ignore"):
            sims /= np.outer(norms, norms)
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[norms * norms <= _VAR_EPS, :] = np.nan
        sims[:, norms * norms <= _VAR_EPS] = np.nan
        _mirror_upper(sims)
        return SimilarityStore(kind, sims, d.item_ids)

    return SimilarityStore(kind, _dense_store(d, kind), d.item_ids)
