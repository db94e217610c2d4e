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
matrix, since a blocked float64 product can change the last bits.  The
products keep their dtype and the finishers compute in float64, in place
and into the store, forming each statistic when they first need it and
dropping it after its last use.  Either way the store is bitwise the
float64 whole-matrix build.  store_cells counts the memory each build
holds, and a dataset whose count exceeds linalg.DENSE_CELL_BUDGET (2e8,
1.6 GB of float64) is rejected before any dense copy.

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

from .core import CriteriaTensor, Dataset
from .linalg import FactorModel, TuckerModel, check_cell_budget

RATING_KINDS = ("pearson", "adjusted_cosine", "cosine", "euclidean")
SET_KINDS = ("tanimoto", "loglikelihood")
SIMILARITY_KINDS = RATING_KINDS + SET_KINDS + ("latent_cosine",)

# Variance / squared-norm below this is treated as exactly zero.  Real
# rating data is unit-spaced, so true nonzero variances are far larger.
# A float64 scalar, so a float32 statistic is compared in float64.
_VAR_EPS = np.float64(1e-9)

# Item rows per block of the float32 build and of the in-place mirror.
_BLOCK = 256

# float32 holds every integer of magnitude below this exactly.
_FLOAT32_EXACT = 2 ** 24


@dataclass(frozen=True)
class SimilarityStore:
    """Symmetric item x item similarity matrix; NaN marks undefined pairs.

    The diagonal is always NaN (an item is not its own neighbor).  The
    constructor enforces both and makes values read-only, since the kernel
    reads an item's similarities from whichever side of the matrix is cheaper.
    """

    kind: str
    values: np.ndarray      # (n_items, n_items), float64
    item_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = self.values
        if (v.shape != (len(self.item_ids),) * 2 or not np.isnan(v.diagonal()).all()
                or any(((r != c) & ~(np.isnan(r) & np.isnan(c))).any() for r, c in (
                    (v[a:a + _BLOCK], v[:, a:a + _BLOCK].T)     # a block at a time
                    for a in range(0, len(v), _BLOCK)))):
            raise ValueError("similarity values must be a symmetric items x "
                             "items matrix with a NaN diagonal")
        v.setflags(write=False)

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


def _pearson(sims, n_co, gate, sxy, sx, sxx, **_):
    # beside sims it holds cov, vy and one or two float32 statistics; the
    # co-rater counts shrink to the gate's mask once they have divided
    sx, sx_t = sx()
    vx = np.multiply(sx, sx, out=sims, dtype=np.float64)
    cov = np.multiply(sx, sx_t, dtype=np.float64)
    del sx
    vy = np.multiply(sx_t, sx_t, dtype=np.float64)
    del sx_t
    count = n_co()
    for v in (cov, vx, vy):
        v /= count
    few = count < gate
    del count
    np.subtract(sxy(), cov, out=cov)
    sxx = sxx()
    np.subtract(next(sxx), vx, out=vx)
    np.subtract(next(sxx), vy, out=vy)
    del sxx
    bad = vx <= _VAR_EPS
    bad |= vy <= _VAR_EPS
    vx *= vy
    del vy
    np.sqrt(vx, out=vx)
    np.divide(cov, vx, out=sims)
    sims[bad] = np.nan
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[few] = np.nan


def _cosine(sims, n_co, gate, sxy, sxx, **_):
    """cosine; adjusted_cosine on centred x."""
    sxx, sxx_t = sxx()
    bad = sxx <= _VAR_EPS
    bad |= sxx_t <= _VAR_EPS
    np.multiply(sxx, sxx_t, out=sims, dtype=np.float64)
    del sxx, sxx_t
    np.sqrt(sims, out=sims)
    np.divide(sxy(), sims, out=sims)
    np.clip(sims, -1.0, 1.0, out=sims)
    sims[bad] = np.nan
    sims[n_co() < gate] = np.nan


def _euclidean(sims, n_co, gate, sxy, sxx, **_):
    sxx, sxx_t = sxx()
    np.add(sxx, sxx_t, out=sims, dtype=np.float64)
    del sxx, sxx_t
    t = np.multiply(sxy(), 2.0, dtype=np.float64)
    sims -= t
    np.clip(sims, 0.0, None, out=sims)
    np.sqrt(sims, out=sims)
    count = n_co()
    sims /= np.sqrt(count, out=t, dtype=np.float64)
    sims += 1.0
    np.divide(1.0, sims, out=sims)
    sims[count < gate] = np.nan


def _tanimoto(sims, n_co, gate, count_row, count_col, **_):
    count = n_co()
    union = np.add(count_row, count_col, out=sims)
    union -= count
    empty = ~(union > 0)
    union[empty] = 1.0
    np.divide(count, union, out=sims)
    sims[empty] = 0.0
    sims[count < gate] = np.nan


def _loglikelihood(sims, n_co, gate, count_row, count_col, n_users, **_):
    n = float(n_users)
    k11 = n_co()
    kk = np.empty(sims.shape)
    llr = sims
    llr.fill(0.0)

    def add_cell(rows, cols):
        # the G-statistic term of the rater table's cell held in kk
        good = kk > 0
        ratio = kk[good] * n
        ratio /= (rows * cols)[good]
        term = np.log(ratio)
        del ratio
        term *= kk[good]
        llr[good] += term

    # every count is an integer below 2**53, so any order of the sums
    # gives the same table
    np.copyto(kk, k11)                          # rated both items
    add_cell(count_row, count_col)
    np.subtract(count_row, k11, out=kk)         # only the row item
    add_cell(count_row, n - count_col)
    np.subtract(count_col, k11, out=kk)         # only the column item
    add_cell(n - count_row, count_col)
    np.subtract(n - count_row, kk, out=kk)      # neither
    add_cell(n - count_row, n - count_col)
    del kk
    llr *= 2.0
    np.clip(llr, 0.0, None, out=llr)
    llr += 1.0
    np.divide(1.0, llr, out=llr)
    np.subtract(1.0, llr, out=llr)
    sims[k11 < gate] = np.nan


_FINISH = {"pearson": _pearson, "adjusted_cosine": _cosine,
           "cosine": _cosine, "euclidean": _euclidean,
           "tanimoto": _tanimoto, "loglikelihood": _loglikelihood}

# row blocks a build holds beside the store at its peak: pearson's and
# loglikelihood's statistics, else _mirror_upper's two blocks and mask
_BLOCK_ARRAYS = {"pearson": 3.25, "loglikelihood": 5.25}


def store_cells(d: Dataset, kind: str, exact: bool | None = None) -> float:
    """Float64 cells item_similarity_matrix(d, kind) holds at its peak, a
    float32 or bool cell at half or an eighth: the store, _BLOCK_ARRAYS
    row blocks (2.25 by default) and the users x items operands (three for
    a rating kind; a set kind's mask, counted whole, so the count is never
    under users x items + items x items).  exact defaults to
    _float32_exact(d, kind); False, the larger count, serves unformed values."""
    latent = kind == "latent_cosine"
    exact = latent or _float32_exact(d, kind) if exact is None else exact
    operands = 0 if latent else max(
        1, (3 if kind in RATING_KINDS else 1) * (0.5 if exact else 1))
    rows = min(_BLOCK, d.n_items) if exact else d.n_items
    return (d.n_items ** 2 + operands * d.n_users * d.n_items
            + _BLOCK_ARRAYS.get(kind, 2.25) * rows * d.n_items)


def _finish_block(kind: str, x, xx, b, counts, a: int, e: int,
                  sims: np.ndarray) -> None:
    """Write kind's similarities of item rows [a, e) against item columns
    [a, n) into sims, NaN below the co-rater gate.

    Each Gram statistic is passed as a function that forms it, so a
    finisher holds it only from its first use to its last.  Over the
    co-raters of a pair (i, j) with i the row item: ``n_co()`` counts
    them, ``sxy()`` sums x_i x_j, and ``sx()`` yields the sums of x_i
    and then of x_j, ``sxx()`` those of x_i^2 and x_j^2.  A block that
    covers every item yields the column sums as a transposed view of the
    row sums.  The products keep the operands' dtype: float32 statistics
    hold integers exactly, and the finishers compute in float64
    (``dtype=np.float64`` or a float64 ``out``), so every operation sees
    the operands of a float64 build.
    """
    whole = a == 0 and e == b.shape[1]

    def gram(left, right):
        return left[:, a:e].T @ right[:, a:]

    def sums(v):
        s = gram(v, b)
        yield s
        if whole:
            yield s.T
        else:
            del s
            yield gram(b, v)

    with np.errstate(invalid="ignore", divide="ignore"):
        _FINISH[kind](sims, n_co=lambda: gram(b, b),
                      gate=2 if kind in RATING_KINDS else 1,
                      sxy=lambda: gram(x, x), sx=lambda: sums(x),
                      sxx=lambda: sums(xx), count_row=counts[a:e, None],
                      count_col=counts[None, a:], n_users=b.shape[0])


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
            x -= d.user_means()[:, None]
            x[b == 0] = 0.0
        xx = x * x
    counts = b.sum(axis=0, dtype=np.float64)
    n = d.n_items
    step = _BLOCK if exact else max(n, 1)
    out = np.empty((n, n))
    for a in range(0, n, step):
        e = min(a + step, n)
        _finish_block(kind, x, xx, b, counts, a, e, out[a:e, a:])
    _mirror_upper(out)
    return out


def item_similarity_matrix(d: Dataset | CriteriaTensor, kind: str, *,
                           model: FactorModel | TuckerModel | None = None
                           ) -> SimilarityStore:
    """All defined pairwise similarities with enough co-raters.

    ``kind="latent_cosine"`` requires a factor model and ignores
    co-rating counts (latent vectors exist for every item); it reads only
    d's shape and item ids, so d may be a CriteriaTensor.
    """
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}")
    check_cell_budget(store_cells(d, kind))

    if kind == "latent_cosine":
        if model is None:
            raise ValueError("latent_cosine needs a factor model")
        vectors = model.item_vectors()
        if vectors.shape[0] != d.n_items:
            raise ValueError("model item count does not match dataset")
        norms = np.linalg.norm(vectors, axis=1)
        # in place, dividing one block of rows by its norm products at a
        # time: the store is the only items x items array
        sims = vectors @ vectors.T
        with np.errstate(invalid="ignore", divide="ignore"):
            for a in range(0, len(norms), _BLOCK):
                sims[a:a + _BLOCK] /= np.outer(norms[a:a + _BLOCK], norms)
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[norms * norms <= _VAR_EPS, :] = np.nan
        sims[:, norms * norms <= _VAR_EPS] = np.nan
        _mirror_upper(sims)
        return SimilarityStore(kind, sims, d.item_ids)

    return SimilarityStore(kind, _dense_store(d, kind), d.item_ids)
