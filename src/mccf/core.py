"""Domain types for rating data.

A rating event is either a single overall rating (RatingRecord) or an
overall rating plus k per-criterion ratings (CriteriaRecord).  Datasets and
tensors store these sparsely with dense integer indices assigned to the
external user/item ids in first-appearance order, so every build from the
same record sequence is reproducible without sorting.

All container types are immutable after construction; concurrent readers
are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse, repeat
from numbers import Real
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed input data; carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


# seeds key the split's hash with 8 bytes
_SEED_BOUND = 2 ** 64


def _check_integer(name: str, value, low: int = 1, high: int | None = None) -> None:
    """ValueError unless value is an integer (numpy's too, not a bool)
    with low <= value, and value < high when high is given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value >= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


# Worst-to-best ladder for the 13-level letter scale.  Only the endpoints
# (F=1, A+=13) are fixed by convention; the interior follows the standard
# US grade ladder, the unique 13-rung completion.
LETTER_GRADES_13 = (
    "F", "D-", "D", "D+", "C-", "C", "C+", "B-", "B", "B+", "A-", "A", "A+",
)


@dataclass(frozen=True)
class RatingScale:
    """Bounds and grade labels of a rating domain; a labelled scale has
    one label per whole number from min_value to max_value."""

    min_value: float
    max_value: float
    grade_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        lo, hi, labels = self.min_value, self.max_value, self.grade_labels
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in (lo, hi)) \
                or not -np.inf < lo < hi < np.inf:
            raise ValueError(f"need real finite min_value < max_value, got [{lo}, {hi}]")
        if labels is not None and not (isinstance(labels, tuple) and all(
                isinstance(g, str) for g in labels) and len(labels) == hi - lo + 1):
            raise ValueError(f"need a tuple of one str grade label per whole number "
                             f"of the scale [{lo}, {hi}], got {labels!r}")

    @classmethod
    def one_to_five(cls) -> "RatingScale":
        return cls(1.0, 5.0)

    @classmethod
    def letter_13(cls) -> "RatingScale":
        return cls(1.0, 13.0, LETTER_GRADES_13)

    def contains(self, value: float) -> bool:
        return self.min_value <= value <= self.max_value

    @property
    def span(self) -> float:
        return self.max_value - self.min_value


@dataclass(frozen=True, slots=True)
class RatingRecord:
    """One (user, item, overall) event; timestamp optional."""

    user_id: str
    item_id: str
    overall: float
    timestamp: int | None = None


@dataclass(frozen=True, slots=True)
class CriteriaRecord:
    """One rating event carrying k criterion ratings plus the overall."""

    user_id: str
    item_id: str
    criteria: tuple[float, ...]
    overall: float


class _IndexMap:
    """Bijection external id <-> dense index, first-appearance order."""

    __slots__ = ("ids", "pos")

    def __init__(self, ids: Sequence[str]):
        self.ids = tuple(ids)
        self.pos = {x: i for i, x in enumerate(self.ids)}
        if len(self.pos) != len(self.ids):
            raise ValueError("duplicate external id in index")

    def __len__(self) -> int:
        return len(self.ids)


def _codes(code: dict[str, int], ids) -> np.ndarray:
    """The code of each id; code (id -> code) first gains the ids it lacks,
    numbered on from len(code) in first-appearance order."""
    ids = list(ids)
    code.update(zip(filterfalse(code.__contains__, dict.fromkeys(ids)),
                    count(len(code))))
    return np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))


@dataclass(frozen=True, eq=False)
class _Ratings:
    """A columnar batch of rating events in input order: user and item
    codes into id tuples (equal ids share a code), a C-ordered (n, c+1)
    value array with the overall in column 0, and optional timestamps."""

    user_ids: tuple[str, ...]
    u: np.ndarray
    item_ids: tuple[str, ...]
    i: np.ndarray
    values: np.ndarray
    timestamps: list[int] | None = None

    @classmethod
    def of_records(cls, records, k: int | None = None) -> "_Ratings":
        """The records' columns (a batch as it is); with k, the values are
        [overall, c1..ck] and every record must carry k criteria.  A list
        is read as it is; other input is copied to one."""
        if k is not None:
            _check_integer("k", k)
        if isinstance(records, _Ratings):
            return records
        records = records if isinstance(records, list) else list(records)
        n, column = len(records), lambda name: map(attrgetter(name), records)
        values = np.empty((n, (k or 0) + 1))
        if k is not None:
            # a record without criteria, such as a RatingRecord, counts 0
            crits = map(getattr, records, repeat("criteria"), repeat(()))
            for rec in compress(records, map(k.__ne__, map(len, crits))):
                raise ValueError(
                    f"record for ({rec.user_id}, {rec.item_id}) has "
                    f"{len(getattr(rec, 'criteria', ()))} criteria, expected {k}")
            values[:, 1:] = np.fromiter(chain.from_iterable(column("criteria")),
                                        np.float64, n * k).reshape(n, k)
        values[:, 0] = np.fromiter(column("overall"), np.float64, n)
        users, items = {}, {}
        u, i = _codes(users, column("user_id")), _codes(items, column("item_id"))
        return cls(tuple(users), u, tuple(items), i, values)

    def take(self, rows: np.ndarray) -> "_Ratings":
        """The rows a boolean mask keeps, in order, with their timestamps."""
        stamps = self.timestamps
        return _Ratings(self.user_ids, self.u[rows], self.item_ids, self.i[rows],
                        self.values[rows], None if stamps is None else
                        list(compress(stamps, rows.tolist())))

    def records(self) -> list:
        """One RatingRecord per row of a one-column batch, else one
        CriteriaRecord per row; every value a Python float.  Rows equal bit
        for bit (-0.0 is not 0.0) share one criteria tuple, and a column's
        equal values share one float, so few distinct rows cost little."""
        def shared(objects, codes: np.ndarray) -> np.ndarray:
            return np.fromiter(objects, object, len(objects))[codes]

        rows, columns = None, []
        for column in self.values.view(np.int64).T:
            distinct, inverse = np.unique(column, return_inverse=True)
            columns.append(shared(distinct.view(np.float64).tolist(), inverse))
            # numbered densely, the (row, value) code pairs stay below n
            rows = inverse if rows is None else np.unique(
                rows * len(distinct) + inverse, return_inverse=True)[1]
        ids = shared(self.user_ids, self.u), shared(self.item_ids, self.i)
        if len(columns) == 1:
            return list(map(RatingRecord, *ids, columns[0],
                            self.timestamps or repeat(None)))
        row_of = np.empty(rows.max(initial=-1) + 1, dtype=np.int64)  # one per code
        row_of[rows] = np.arange(len(rows))
        criteria = list(zip(*[c[row_of] for c in columns[1:]]))
        return list(map(CriteriaRecord, *ids, shared(criteria, rows), columns[0]))


def _index(batch: _Ratings):
    """First-appearance id maps and keep-last deduplication: (user_map,
    item_map, u_idx, i_idx, rows, duplicates), one entry of u_idx, i_idx
    and rows (the batch row of its last rating) per cell, user-major."""
    maps, index = [], []
    for codes, ids in ((batch.u, batch.user_ids), (batch.i, batch.item_ids)):
        uniq, first, inverse = np.unique(codes, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        maps.append(_IndexMap([ids[c] for c in uniq[order].tolist()]))
        index.append(np.argsort(order)[inverse])
    (u, i), width = index, len(maps[1])
    # a cell's first row in reverse is its last rating
    cells, first = np.unique((u * width + i)[::-1], return_index=True)
    return (*maps, cells // width, cells % width, len(u) - 1 - first,
            len(u) - len(cells))


def _check_scale(values: np.ndarray, scale: RatingScale) -> None:
    if not np.all((values >= scale.min_value) & (values <= scale.max_value)):
        raise ValueError("rating outside scale bounds")


# Cells per block of a segment sum: a block's per-cell rows (for a
# CellTensor's products, (cells, slices, sketch width)) stay in cache.
_CELL_BLOCK = 2048


def _segment_sums(ptr: np.ndarray, rows, tail: tuple[int, ...]) -> np.ndarray:
    """(len(ptr) - 1, *tail) sums of per-cell rows over the segments
    ptr[j]:ptr[j + 1] of a row pointer such as _Cells._u_ptr; rows(lo, hi)
    gives cells lo..hi's (hi - lo, *tail) rows, and an empty segment sums
    to zero.  The cells go in blocks of about _CELL_BLOCK that end on
    segment bounds, each one np.add.reduceat over its nonempty segments."""
    n = len(ptr) - 1
    out = np.zeros((n,) + tail)
    cuts = np.unique(np.concatenate((
        [0], ptr.searchsorted(np.arange(_CELL_BLOCK, ptr[-1], _CELL_BLOCK),
                              "right") - 1, [n])))
    filled = ptr[1:] > ptr[:-1]
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        lo, hi = int(ptr[a]), int(ptr[b])
        if hi > lo:
            keep = filled[a:b]
            out[a:b][keep] = np.add.reduceat(rows(lo, hi), ptr[a:b][keep] - lo,
                                             axis=0)
    return out


class _Cells:
    """Sparse user x item cells under two id maps; the shared core of
    Dataset and CriteriaTensor.

    Values hold one row per cell, shaped as _VALUES says: (cells,) for a
    Dataset, (cells, width) for a CriteriaTensor.  Cells are kept
    user-major (by user, then item) with a row pointer, so one user's cells
    are a contiguous slice.  Each (user, item) cell occurs at
    most once.  __init__ builds and checks every container, slice views
    included; a view shares its source's read-only index arrays.
    """

    def __init__(self, user_map: _IndexMap, item_map: _IndexMap,
                 u_idx: np.ndarray, i_idx: np.ndarray, values: np.ndarray,
                 scale: RatingScale, duplicates: int = 0):
        values = np.asarray(values, dtype=np.float64)
        ndim, rule = self._VALUES
        if values.ndim != ndim or ndim == 2 and values.shape[1] < 2:
            raise ValueError(f"{rule}, got {values.shape}")
        if u_idx.dtype.kind not in "iu" or i_idx.dtype.kind not in "iu":
            raise ValueError("cell index of a non-integer type")
        if not len(u_idx) == len(i_idx) == len(values):
            raise ValueError("cell index and value arrays differ in length")
        _check_scale(values, scale)
        if len(u_idx) and not (0 <= u_idx.min() and u_idx.max() < len(user_map)
                               and 0 <= i_idx.min()
                               and i_idx.max() < len(item_map)):
            raise ValueError("cell index out of range")
        # in range, the keys order cells user-major; strictly increasing
        # keys are sorted cells without a repeat, so only other input sorts
        keys = u_idx.astype(np.int64) * len(item_map) + i_idx
        if np.any(keys[1:] <= keys[:-1]):
            order = np.lexsort((i_idx, u_idx))
            keys = keys[order]
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("repeated (user, item) cell")
            u_idx, i_idx, values = u_idx[order], i_idx[order], values[order]
        else:   # a read-only array owning its data is another container's own
            u_idx, i_idx = (x.copy() if x.flags.writeable or x.base is not None
                            else x for x in (u_idx, i_idx))
            values = values.copy()
        self._users = user_map
        self._items = item_map
        self.scale = scale
        self.duplicates = duplicates
        self._u_idx, self._i_idx, self._values = u_idx, i_idx, values
        # user u's cells are rows _u_ptr[u] up to _u_ptr[u + 1]
        self._u_ptr = np.searchsorted(u_idx, np.arange(len(user_map) + 1))
        for arr in (self._u_idx, self._i_idx, self._values, self._u_ptr):
            arr.setflags(write=False)

    # ---- index bookkeeping -------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def n_items(self) -> int:
        return len(self._items)

    @property
    def user_ids(self) -> tuple[str, ...]:
        return self._users.ids

    @property
    def item_ids(self) -> tuple[str, ...]:
        return self._items.ids

    def user_index(self, user_id: str) -> int:
        return self._users.pos[user_id]

    def item_index(self, item_id: str) -> int:
        return self._items.pos[item_id]

    def has_user(self, user_id: str) -> bool:
        return user_id in self._users.pos

    def has_item(self, item_id: str) -> bool:
        return item_id in self._items.pos

    def user_id(self, u: int) -> str:
        return self._users.ids[u]

    def item_id(self, i: int) -> str:
        return self._items.ids[i]

    # ---- traversal ---------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The stored values, one row per cell, user-major (read-only)."""
        return self._values

    def cell_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(user indices, item indices) of every cell, user-major
        (read-only)."""
        return self._u_idx, self._i_idx

    def _pairs(self, users, items) -> tuple[np.ndarray, np.ndarray]:
        """(user, item) index pairs as intp arrays; ValueError unless both
        are 1-D integer arrays (or empty) of one length with every index in
        range: no negative index wraps, no array broadcasts."""
        pairs = np.asarray(users), np.asarray(items)
        for name, x, n in zip(("user", "item"), pairs, (self.n_users, self.n_items)):
            if x.ndim != 1 or x.size and (x.dtype.kind not in "iu"
                                          or x.min() < 0 or x.max() >= n):
                raise ValueError(f"{name} indices must be a 1-D integer array in [0, {n})")
        if len(pairs[0]) != len(pairs[1]):
            raise ValueError("user and item indices differ in length")
        return tuple(x.astype(np.intp, copy=False) for x in pairs)

    def _row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(item indices, values) of one user's cells, ascending item index."""
        lo, hi = self._u_ptr[u], self._u_ptr[u + 1]
        return self._i_idx[lo:hi], self._values[lo:hi]

    def _dataset(self, values: np.ndarray) -> "Dataset":
        """A Dataset of these cells holding a copy of values, one per cell
        in user-major order, under the same index maps and arrays."""
        return Dataset(self._users, self._items, self._u_idx, self._i_idx,
                       values, self.scale)

    def _ratings(self) -> _Ratings:
        """The cells as a batch, user-major."""
        values = self._values
        return _Ratings(self.user_ids, self._u_idx, self.item_ids, self._i_idx,
                        values[:, None] if values.ndim == 1 else values)

    def iter_records(self) -> Iterator[RatingRecord | CriteriaRecord]:
        """One record per cell, user-major (see _Ratings.records)."""
        yield from self._ratings().records()

    # ---- dense views -------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """users x items float64 array of the values (users x items x width
        for vector cells); NaN fills every cell not stored."""
        out = np.full((self.n_users, self.n_items) + self._values.shape[1:],
                      np.nan)
        out[self._u_idx, self._i_idx] = self._values
        return out

    def to_mask(self, dtype=bool) -> np.ndarray:
        """user x item matrix of stored cells: True (1) where a cell is
        stored, False (0) elsewhere."""
        return self._user_block(0, self.n_users, 0, (1,), dtype)[0]

    def _user_block(self, lo: int, hi: int, first: int, layers,
                    dtype) -> np.ndarray:
        """Users lo..hi over items first.. as a dense (len(layers), hi - lo,
        n_items - first) block, read from their user-major cells: layer k
        holds layers[k] at each of those cells (a per-cell array in
        user-major order, or one value for every cell), 0 elsewhere."""
        c0, c1 = self._u_ptr[lo], self._u_ptr[hi]
        items = self._i_idx[c0:c1]
        keep = items >= first if first else slice(None)   # a slice copies none
        width = self.n_items - first
        flat = self._u_idx[c0:c1][keep] - lo    # each cell's offset in a layer
        flat *= width
        flat += items[keep]
        flat -= first
        out = np.zeros((len(layers), (hi - lo) * width), dtype)
        for o, layer in zip(out, layers):
            o[flat] = layer if np.ndim(layer) == 0 else layer[c0:c1][keep]
        return out.reshape(len(layers), hi - lo, width)


class Dataset(_Cells):
    """Sparse user x item matrix of overall ratings.

    Values are float64 even for discrete scales because predictions are
    continuous.
    """

    _VALUES = 1, "need one value per cell: cell values (cells,)"

    @classmethod
    def from_records(cls, records: Iterable[RatingRecord],
                     scale: RatingScale) -> "Dataset":
        batch = _Ratings.of_records(records)
        umap, imap, u_idx, i_idx, rows, dups = _index(batch)
        return cls(umap, imap, u_idx, i_idx, batch.values[rows, 0], scale, dups)

    @property
    def n_ratings(self) -> int:
        return len(self._values)

    items_of = _Cells._row      # (item indices, ratings) of one user

    def user_means(self) -> np.ndarray:
        """Per-user mean over all items the user rated; 0 for a user
        without ratings."""
        counts = np.diff(self._u_ptr)
        sums = _segment_sums(self._u_ptr, lambda lo, hi: self._values[lo:hi], ())
        return np.divide(sums, counts, out=np.zeros(self.n_users), where=counts > 0)


@dataclass(frozen=True)
class DatasetStats:
    users: int
    items: int
    ratings: int
    density: float


def dataset_stats(d: Dataset) -> DatasetStats:
    """Counts of distinct users/items/cells and fill density (0 when empty)."""
    cells = d.n_users * d.n_items
    density = d.n_ratings / cells if cells else 0.0
    return DatasetStats(d.n_users, d.n_items, d.n_ratings, density)


class CriteriaTensor(_Cells):
    """Sparse user x item x (k+1) rating tensor.

    Slice 0 holds the overall rating, slices 1..k the criteria.  Every
    stored cell carries all k+1 values; partial cells are rejected at
    construction (the source data gives no semantics for them).
    """

    _VALUES = 2, "need k >= 1: cell values (cells, k + 1)"

    @classmethod
    def from_records(cls, records: Iterable[CriteriaRecord], k: int,
                     scale: RatingScale) -> "CriteriaTensor":
        batch = _Ratings.of_records(records, k)
        umap, imap, u_idx, i_idx, rows, dups = _index(batch)
        return cls(umap, imap, u_idx, i_idx, batch.values[rows], scale, dups)

    @property
    def n_cells(self) -> int:
        return len(self._values)

    @property
    def k(self) -> int:
        return self._values.shape[1] - 1

    cells_of = _Cells._row      # (item indices, (cells x k+1) values)

    def cell_matrix(self) -> np.ndarray:
        """Copy of all cell values, one row per cell: [overall, c1..ck]."""
        return self._values.copy()


def overall_slice(t: CriteriaTensor) -> Dataset:
    """Slice 0 of every cell as a Dataset with identical index maps."""
    return t._dataset(t.values[:, 0])


def criteria_slice(t: CriteriaTensor, c: int) -> Dataset:
    """Slice c (1..k) of every cell; slice 0 is the overall, not a criterion."""
    if not 1 <= c <= t.k:
        raise IndexError(f"criterion index {c} out of range 1..{t.k}")
    return t._dataset(t.values[:, c])
