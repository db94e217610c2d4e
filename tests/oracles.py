"""Reference semantics the library's vectorized code is tested against.

The per-pair similarity measures compute one item pair at a time from the
ratings of the users who rated both items; item_similarity_matrix must give
the same numbers for all pairs at once.  whole_matrix_similarity and
whole_matrix_predictions are the plain float64 whole-matrix builds that
item_similarity_matrix and predict_matrix must match bit for bit.
loop_predict is the per-pair neighborhood loop the engine's kernel must
match bitwise, over loop_neighbors' kept set, which the kernel's
selection, _select, must match exactly.  hosvd_reference is the Tucker
decomposition as truncated SVDs of whole unfoldings, the core formed after
every factor: the factors and core hosvd must match bit for bit.
cell_unfolding_products and cell_core are a CellTensor's products with
each cell's products formed alone: its unfoldings' products and its core
must match them bit for bit, signed zeros included.  An
undefined similarity is None here and NaN inside a store.  factored_value
is the per-cell value an MC model falls back to.

The per-record ingest (parse_movielens, parse_multicriteria,
split_train_test, index_records and the containers built on it) is the
record-at-a-time code the library's columnar ingest must match: the same
records, ParseError messages, splits, index maps, cells and duplicate
counts.  factorize, ratings_of_records and batch_records are the
record edge one list comprehension at a time: _Ratings.of_records must
give their batches bit for bit, _Ratings.records their records.  top_n is
the lexsort rule the engine's partial selection must match.

reference_report is the benchmark protocol as plain loops over records,
built from these references: run_benchmark with a capped neighbourhood
and run_mc_benchmark must give its report bit for bit.

The small helpers read stores, models and datasets the way the tests need
to, through nothing but their public arrays; duplicate_overall_tensor makes
a Dataset the k = 1 tensor whose criterion repeats the overall.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from mccf.core import (CriteriaRecord, CriteriaTensor, Dataset, ParseError,
                       RatingRecord, _IndexMap, _Ratings)
from mccf.engine import DENOM_EPS, aggregate_overall, build_mc_model
from mccf.evaluation import (EvalReport, RelevanceSpec, _build_store, bias,
                             coverage, mae, precision_recall_f1, rmse)
from mccf.ingest import MOVIELENS_SCALE, SplitSpec, grade_to_number
from mccf.linalg import (TuckerModel, _complete_orthonormal, mode_product,
                         mode_unfold, truncated_svd)
from mccf.similarity import RATING_KINDS, _VAR_EPS


# ---- access helpers --------------------------------------------------------


def users_of(d, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(user indices, ratings) for one item, ascending user index."""
    column = d.to_dense()[:, i]
    users = np.flatnonzero(~np.isnan(column))
    return users, column[users]


def sim(store, i: int, j: int) -> float | None:
    """Similarity of items i and j, or None where the store has NaN."""
    v = store.values[i, j]
    return None if np.isnan(v) else float(v)


def defined_pairs(store) -> list[tuple[int, int, float]]:
    """(i, j, value) for every defined pair with i < j, row-major."""
    iu, ju = np.nonzero(np.triu(~np.isnan(store.values), 1))
    return [(int(i), int(j), float(store.values[i, j])) for i, j in zip(iu, ju)]


def store_for(model, c: int):
    """Similarity store of criterion c in 1..k (one shared latent store,
    or one store per criterion)."""
    stores = model.item_similarities
    return stores[0] if len(stores) == 1 else stores[c - 1]


def stored(x, u: int, i: int):
    """The value of cell (u, i) in a Dataset, or its k + 1 values in a
    CriteriaTensor; None where the cell is not stored."""
    users, items = x.cell_index()
    at = np.flatnonzero((users == u) & (items == i))
    return x.values[at[0]] if len(at) else None


def clamp(scale, value: float) -> float:
    """value moved into the scale's bounds."""
    return min(max(value, scale.min_value), scale.max_value)


def factored_value(model, u: int, i: int, c: int) -> float:
    """The value of cell (u, i) in slice c that an MC model falls back to:
    the rating where the cell is observed, else U1[u] . w[i, c] as one 1-D
    dot product, plus the PCA option's slice mean."""
    cell = stored(model.tensor, u, i)
    if cell is not None:
        return float(cell[c])
    value = float(np.dot(model.tucker.factors[0][u], model.w[i, c]))
    if model.slice_means is not None:
        value += model.slice_means[i, c]
    return value


def duplicate_overall_tensor(d: Dataset) -> CriteriaTensor:
    """Degenerate k=1 tensor whose single criterion repeats the overall.

    The multi-criteria pipeline run on this tensor has exactly the same
    information as the plain single-rating dataset, which makes it a
    consistency probe: predictions should agree with the plain engine.
    """
    cells = d._ratings()
    # indexed anew, as records of the cells in user-major order would be
    return CriteriaTensor.from_records(
        replace(cells, values=cells.values[:, [0, 0]]), 1, d.scale)


# ---- per-pair similarity measures -----------------------------------------


class CoRatings(NamedTuple):
    """Ratings of two items restricted to users who rated both."""

    users: np.ndarray
    ratings_i: np.ndarray
    ratings_j: np.ndarray


def co_ratings(i: int, j: int, d) -> CoRatings:
    ui, vi = users_of(d, i)
    uj, vj = users_of(d, j)
    common, pos_i, pos_j = np.intersect1d(ui, uj, assume_unique=True,
                                          return_indices=True)
    return CoRatings(common, vi[pos_i], vj[pos_j])


def pearson(i: int, j: int, d) -> float | None:
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


def adjusted_cosine(i: int, j: int, d) -> float | None:
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


def cosine(i: int, j: int, d) -> float | None:
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


def euclidean_sim(i: int, j: int, d) -> float | None:
    """1 / (1 + dist / sqrt(c)) over c co-raters; None when c = 0.

    Without the sqrt(c) normalization items with many co-raters would be
    systematically penalized.
    """
    co = co_ratings(i, j, d)
    n = len(co.users)
    if n == 0:
        return None
    diff = co.ratings_i - co.ratings_j
    return 1.0 / (1.0 + math.sqrt(float(diff @ diff)) / math.sqrt(n))


def tanimoto(i: int, j: int, d) -> float:
    """Rater-set intersection over union; rating values are ignored."""
    ui = users_of(d, i)[0]
    uj = users_of(d, j)[0]
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


def loglikelihood(i: int, j: int, d, total_users: int | None = None) -> float:
    """Co-occurrence significance mapped to [0, 1) as 1 - 1/(1 + LLR)."""
    ui = users_of(d, i)[0]
    uj = users_of(d, j)[0]
    if total_users is None:
        total_users = d.n_users
    k11 = len(np.intersect1d(ui, uj, assume_unique=True))
    union = len(ui) + len(uj) - k11
    if total_users < union:
        raise ValueError("total_users smaller than the observed rater union")
    llr = _llr_from_counts(k11, len(ui) - k11, len(uj) - k11,
                           total_users - union)
    return 1.0 - 1.0 / (1.0 + llr)


def latent_cosine(model, i: int, j: int) -> float | None:
    """Cosine between two items' latent vectors; None on a zero vector."""
    return _row_cosine(model.item_vectors(), i, j)


def _row_cosine(vectors: np.ndarray, i: int, j: int) -> float | None:
    vi, vj = vectors[i], vectors[j]
    ni = float(vi @ vi)
    nj = float(vj @ vj)
    if ni <= _VAR_EPS or nj <= _VAR_EPS:
        return None
    return float(np.clip((vi @ vj) / math.sqrt(ni * nj), -1.0, 1.0))


# ---- whole-matrix float64 builds -------------------------------------------


def symmetrize(s: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower so sim(i,j) == sim(j,i)
    bit-for-bit, and blank the diagonal."""
    out = np.triu(s, 1)
    out = out + out.T
    np.fill_diagonal(out, np.nan)
    return out


def whole_matrix_similarity(d, kind: str) -> np.ndarray:
    """Store values of a rating or set kind from float64 Gram products of
    the whole users x items matrix."""
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
    return symmetrize(sims)


def whole_matrix_predictions(d, sims) -> np.ndarray:
    """All (user, item) predictions of an unbounded neighborhood from two
    whole-matrix products, with a fresh array for every step."""
    s = np.where(sims.values > 0, sims.values, 0.0)
    b = d.to_mask().astype(np.float64)
    r = np.nan_to_num(d.to_dense(), nan=0.0)
    num = r @ s
    den = b @ np.abs(s)
    out = np.full_like(num, np.nan)
    good = den >= DENOM_EPS
    out[good] = num[good] / den[good]
    return np.clip(out, d.scale.min_value, d.scale.max_value)


# ---- Tucker decomposition --------------------------------------------------


def hosvd_reference(t: np.ndarray, ranks: tuple[int, int, int],
                    seed: int = 0) -> TuckerModel:
    """Factor s: truncated_svd(mode-s unfolding, r_s, seed + s).u, with an
    orthonormal completion where r_s exceeds the unfolding's columns; the
    core is t multiplied by every factor transpose once all exist."""
    factors = []
    for mode, r in zip((1, 2, 3), ranks):
        unfolding = mode_unfold(t, mode)
        r_eff = min(r, unfolding.shape[1])
        u = truncated_svd(unfolding, r_eff, seed=seed + mode).u
        if r_eff < r:
            full = np.zeros((unfolding.shape[0], r))
            full[:, :r_eff] = u
            _complete_orthonormal(full, r_eff)
            u = full
        factors.append(u)
    core = t
    for mode, u in zip((1, 2, 3), factors):
        core = mode_product(core, u.T, mode)
    return TuckerModel(core, tuple(factors))


# ---- sparse tensor products ------------------------------------------------


def _cell_sums(groups: np.ndarray, n: int, row) -> np.ndarray:
    """(n, ...) sums of the per-cell rows row(c) over the cells of each
    group 0..n-1: the cells in their stable order by group, each group
    summed cells first by one np.add.reduceat, as _segment_sums sums a
    segment within its block; an empty group sums to zero."""
    order = np.argsort(groups, kind="stable")
    rows = np.array([row(c) for c in order.tolist()])
    ptr = groups[order].searchsorted(np.arange(n + 1))
    filled = ptr[1:] > ptr[:-1]
    out = np.zeros((n,) + rows.shape[1:])
    out[filled] = np.add.reduceat(rows, ptr[:-1][filled], axis=0)
    return out


def _dot_from_zero(d: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum over s of d[s] * xs[s], each product formed alone and added in
    s order to a zeroed row, as einsum's "cs,csw->cw" adds them."""
    out = np.zeros(xs.shape[1])
    for a, x in zip(d.tolist(), xs):
        out += a * x
    return out


def _cell_parts(cells):
    """(users, items, D) at a CellTensor's cells, user-major, and its column
    term (ones, Q): T[:, :, s] = 1 Q[:, s].T + D_s."""
    users = np.repeat(np.arange(cells.shape[0]), np.diff(cells._u_ptr))
    return users, cells._items, cells._d, cells._term


def cell_unfolding_products(cells, mode: int, x: np.ndarray,
                            y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A @ x, A.T @ y) for the mode-1 or mode-2 unfolding A of a
    CellTensor: each cell's products formed alone (np.multiply.outer for
    A.T @ y) and summed per row or column by _cell_sums, plus the column
    term, a dense product formed as the library forms it."""
    users, items, d, (ones, q) = _cell_parts(cells)
    n_users, n_items, s = cells.shape
    if mode == 1:
        rows, cols, p = (users, n_users), (items, n_items), ones
        xo = x.reshape(s, n_items, -1).transpose(1, 0, 2)
    else:
        rows, cols, p, q = (items, n_items), (users, n_users), q, ones
        xo = x.reshape(n_users, s, -1)
    ax = p @ np.einsum("os,osw->sw", q, xo) + _cell_sums(
        *rows, lambda c: _dot_from_zero(d[c], xo[cols[0][c]]))
    aty = _cell_sums(*cols, lambda c: np.multiply.outer(d[c], y[rows[0][c]]))
    aty += q[:, :, None] * (p.T @ y)
    if mode == 1:
        aty = aty.transpose(1, 0, 2)
    return ax, aty.reshape(-1, y.shape[1])


def cell_core(cells, factors) -> np.ndarray:
    """A CellTensor times every factor transpose: D's part from each cell's
    products of its U2 row and its row of D U3, formed alone and summed per
    user by _cell_sums, then taken into U1; the column term's part formed
    as the library forms it."""
    users, items, d, (ones, q) = _cell_parts(cells)
    u1, u2, u3 = factors
    e = d @ u3
    per_user = _cell_sums(users, cells.shape[0],
                          lambda c: np.multiply.outer(u2[items[c]], e[c]))
    core = (u1.T @ per_user.reshape(len(per_user), -1)).reshape(
        -1, u2.shape[1], u3.shape[1])
    core += np.einsum("as,bs,sc->abc", u1.T @ ones, u2.T @ q, u3)
    return core


# ---- per-pair neighborhood loop -------------------------------------------


def loop_neighbors(sims, rated, i, k):
    """Reference: the mask over `rated` of item i's kept neighbors, the
    rated items of strictly positive similarity, or with a cap of k the k
    largest of them, the lower item index winning a tie."""
    row = sims.values[i, rated]
    kept = row > 0      # NaN compares False
    if k is not None and kept.sum() > k:
        idx = np.flatnonzero(kept)
        kept = np.zeros_like(kept)
        kept[idx[np.argsort(-row[idx], kind="stable")[:k]]] = True
    return kept


def loop_predict(d, sims, u, i, spec):
    """Reference: (clamped value, support) for one (user, item) index pair,
    or None, over loop_neighbors' kept neighbors.  Every rated item takes
    part, with the weight 0 unless it is kept, so the sums run over the
    whole row in item order, and the support counts the nonzero weights."""
    rated, values = d.items_of(u)
    kept = loop_neighbors(sims, rated, i, spec.max_neighbors)
    if not kept.any():
        return None
    weights = np.where(kept, sims.values[i, rated], 0.0)
    denom = float(weights.sum())
    if denom < DENOM_EPS:
        return None
    value = float(weights @ values) / denom
    return clamp(d.scale, value), int(np.count_nonzero(weights))


def top_n(items: np.ndarray, values: np.ndarray, n: int) -> list[tuple[int, float]]:
    """The n best (item index, value) pairs by one full lexsort: value
    descending, index ascending on ties; NaN values left out."""
    ok = ~np.isnan(values)
    items, values = items[ok], values[ok]
    order = np.lexsort((items, -values))[:n]
    return list(zip(items[order].tolist(), values[order].tolist()))


# ---- per-record ingest -----------------------------------------------------


def iter_lines(source):
    """Yield (1-based line number, stripped line), skipping blank lines."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8-sig")
        lines = text.splitlines()
    else:
        lines = source
    for no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.strip():
            yield no, line


def parse_movielens(source) -> list[RatingRecord]:
    records = []
    for no, line in iter_lines(source):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 TAB-separated fields, got {len(parts)}", no)
        user, item, rating_s, ts_s = (p.strip() for p in parts)
        rating = parse_value(rating_s, MOVIELENS_SCALE, no)
        try:
            timestamp = int(ts_s)
        except ValueError:
            raise ParseError(f"non-integer timestamp {ts_s!r}", no) from None
        records.append(RatingRecord(user, item, rating, timestamp))
    return records


def parse_value(token: str, scale, line_no: int) -> float:
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        if scale.grade_labels is None:
            raise ParseError(f"non-numeric value {token!r}", line_no) from None
        try:
            value = grade_to_number(token, scale)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if not scale.contains(value):
        raise ParseError(f"value {value} outside scale bounds", line_no)
    return value


def parse_multicriteria(source, k: int, scale) -> list[CriteriaRecord]:
    records = []
    for no, line in iter_lines(source):
        if line.lstrip().startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != k + 3:
            raise ParseError(
                f"expected {k + 3} comma-separated fields, got {len(parts)}", no
            )
        user, item = parts[0].strip(), parts[1].strip()
        values = [parse_value(tok, scale, no) for tok in parts[2:]]
        records.append(CriteriaRecord(user, item, tuple(values[:-1]), values[-1]))
    return records


def split_point(seed: int, user_id: str, item_id: str) -> float:
    """Uniform draw in [0, 1) keyed on (seed, user, item)."""
    h = hashlib.blake2b(
        f"{user_id}\x1f{item_id}".encode("utf-8"),
        key=seed.to_bytes(8, "little"),
        digest_size=8,
    )
    return int.from_bytes(h.digest(), "big") / 2.0 ** 64


def split_train_test(records, spec):
    train, test = [], []
    for rec in records:
        if split_point(spec.seed, rec.user_id, rec.item_id) < spec.train_fraction:
            train.append(rec)
        else:
            test.append(rec)
    return train, test


def index_records(records):
    """Dense first-appearance indices and keep-last deduplication in one
    pass: (user_map, item_map, u_idx, i_idx, kept, duplicates), one entry
    of u_idx, i_idx and kept per cell in first-appearance order."""
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    cells: dict[tuple[int, int], object] = {}
    seen = 0
    for seen, rec in enumerate(records, 1):
        # re-assigning a key keeps the position of its first appearance
        cells[users.setdefault(rec.user_id, len(users)),
              items.setdefault(rec.item_id, len(items))] = rec
    index = np.array(list(cells), dtype=np.int64).reshape(-1, 2)
    return (_IndexMap(list(users)), _IndexMap(list(items)), index[:, 0],
            index[:, 1], list(cells.values()), seen - len(cells))


def dataset_from_records(records, scale) -> Dataset:
    umap, imap, u_idx, i_idx, kept, dups = index_records(records)
    vals = np.fromiter((rec.overall for rec in kept), dtype=np.float64,
                       count=len(kept))
    return Dataset(umap, imap, u_idx, i_idx, vals, scale, dups)


def tensor_from_records(records, k: int, scale) -> CriteriaTensor:
    umap, imap, u_idx, i_idx, kept, dups = index_records(records)
    vals = np.array([(rec.overall, *rec.criteria) for rec in kept],
                    dtype=np.float64).reshape(len(kept), k + 1)
    return CriteriaTensor(umap, imap, u_idx, i_idx, vals, scale, dups)


# ---- the record edge -------------------------------------------------------


def factorize(ids) -> tuple[tuple[str, ...], np.ndarray]:
    pos: dict[str, int] = {}
    codes = np.array([pos.setdefault(x, len(pos)) for x in ids], dtype=np.int64)
    return tuple(pos), codes


def ratings_of_records(records, k: int | None = None) -> _Ratings:
    records = list(records)
    for rec in records if k is not None else ():
        # a RatingRecord carries no criteria
        count = len(rec.criteria) if isinstance(rec, CriteriaRecord) else 0
        if count != k:
            raise ValueError(
                f"record for ({rec.user_id}, {rec.item_id}) has "
                f"{count} criteria, expected {k}")
    values = np.array([r.overall for r in records] if k is None else
                      [(r.overall, *r.criteria) for r in records],
                      dtype=np.float64).reshape(len(records), (k or 0) + 1)
    return _Ratings(*factorize([r.user_id for r in records]),
                    *factorize([r.item_id for r in records]), values)


def batch_records(batch: _Ratings) -> list:
    users = [batch.user_ids[u] for u in batch.u.tolist()]
    items = [batch.item_ids[i] for i in batch.i.tolist()]
    if batch.values.shape[1] == 1:
        return list(map(RatingRecord, users, items, batch.values[:, 0].tolist(),
                        batch.timestamps or repeat(None)))
    return [CriteriaRecord(u, i, tuple(v[1:]), v[0])
            for u, i, v in zip(users, items, batch.values.tolist())]


# ---- the benchmark protocol ------------------------------------------------


def reference_report(records, config, k: int | None = None,
                     scale=MOVIELENS_SCALE) -> EvalReport:
    """The report of run_benchmark (a BenchmarkConfig) or, with k
    criteria, of run_mc_benchmark (an McBenchmarkConfig) on records, one
    record and one pair at a time.  The split and the training data are
    the per-record references, every prediction is loop_predict's (an MC
    criterion it cannot reach takes factored_value), every top-N list is
    top_n's over the user's items without a training cell, and the
    metrics are the public functions.  The store and the MC model are the
    library's, pinned by their own tests.  A test rating that repeats its
    (user, item) pair is scored as a pair of its own."""
    train, test = split_train_test(
        records, SplitSpec(config.train_fraction, config.seed))
    spec = config.neighborhood
    if k is None:
        train = dataset_from_records(train, scale)
        sims = _build_store(train, config.sim, config.latent_rank, config.seed)
        ranks = (config.latent_rank,) if config.sim == "latent" else None

        def predict(u, i):
            got = loop_predict(train, sims, u, i, spec)
            return None if got is None else (got[0],)
    else:
        train = tensor_from_records(train, k, scale)
        model = build_mc_model(train, config.ranks, config.engine_config())
        criteria, ranks = model.criteria_data, tuple(config.ranks)

        def predict(u, i):
            crits = []
            for c in range(1, k + 1):
                got = loop_predict(criteria[c - 1], store_for(model, c), u, i,
                                   spec)
                crits.append(clamp(scale, factored_value(model, u, i, c))
                             if got is None else got[0])
            return (aggregate_overall(model.aggregation, crits, scale), *crits)

    threshold = (RelevanceSpec.default_for(scale) if config.relevance_threshold
                 is None else RelevanceSpec(config.relevance_threshold)).threshold
    interesting: dict[str, set[str]] = {}
    for rec in test:
        if rec.overall >= threshold:
            interesting.setdefault(rec.user_id, set()).add(rec.item_id)
    # a known test pair is one of its user's top-N candidates: scored once
    predict = functools.cache(predict)
    mask = train.to_mask()
    recommendations: dict[str, list[str]] = {}
    for uid in dict.fromkeys(rec.user_id for rec in test):
        if train.has_user(uid):
            u = train.user_index(uid)
            items = np.flatnonzero(~mask[u])
            values = np.array([np.nan if (p := predict(u, i)) is None else p[0]
                               for i in items.tolist()])
            recommendations[uid] = [train.item_id(i) for i, _ in
                                    top_n(items, values, config.top_n)]
    pairs = []      # (predictions, truths): the overall, then the criteria
    for rec in test:
        if train.has_user(rec.user_id) and train.has_item(rec.item_id):
            p = predict(train.user_index(rec.user_id),
                        train.item_index(rec.item_id))
            if p is not None:
                pairs.append((p, (rec.overall, *getattr(rec, "criteria", ()))))

    def errors(c):
        got = [(p[c], t[c]) for p, t in pairs]
        return (mae(got), bias(got), rmse(got)) if got else (math.nan,) * 3

    precisions, recalls = [], []    # macro averages over interested users
    for uid, good in interesting.items():
        p, r, _ = precision_recall_f1(recommendations.get(uid, []), good)
        precisions.append(p)
        recalls.append(r)
    precision = float(np.mean(precisions)) if precisions else 0.0
    recall = float(np.mean(recalls)) if recalls else 0.0
    prediction_coverage, catalog_coverage = coverage(
        len(test), len(pairs), train.item_ids,
        set().union(*recommendations.values()))
    mae_v, bias_v, rmse_v = errors(0)
    return EvalReport(
        sim=config.sim, train_fraction=config.train_fraction,
        seed=config.seed, ranks=ranks, mae=mae_v, bias=bias_v,
        rmse=rmse_v, precision=precision, recall=recall,
        f1=0.0 if precision + recall == 0 else
        2.0 * precision * recall / (precision + recall),
        prediction_coverage=prediction_coverage,
        catalog_coverage=catalog_coverage, pair_count=len(pairs),
        no_prediction_count=len(test) - len(pairs),
        criteria_mae=tuple(errors(c)[0] for c in range(1, (k or 0) + 1)))
