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
from typing import Iterable, Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed input data; carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


# Worst-to-best ladder for the 13-level letter scale.  Only the endpoints
# (F=1, A+=13) are fixed by convention; the interior follows the standard
# US grade ladder, the unique 13-rung completion.
LETTER_GRADES_13 = (
    "F", "D-", "D", "D+", "C-", "C", "C+", "B-", "B", "B+", "A-", "A", "A+",
)


@dataclass(frozen=True)
class RatingScale:
    """Bounds and grade labels of a rating domain."""

    min_value: float
    max_value: float
    levels: int
    grade_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.min_value < self.max_value:
            raise ValueError(
                f"min_value must be < max_value, got [{self.min_value}, {self.max_value}]"
            )
        if self.levels < 2:
            raise ValueError(f"need at least 2 levels, got {self.levels}")
        if self.grade_labels is not None:
            if len(self.grade_labels) != self.levels:
                raise ValueError(
                    f"{len(self.grade_labels)} grade labels for {self.levels} levels"
                )
            if self.levels != int(self.max_value - self.min_value + 1):
                raise ValueError("labelled scales must have unit-spaced levels")

    @classmethod
    def one_to_five(cls) -> "RatingScale":
        return cls(1.0, 5.0, 5)

    @classmethod
    def letter_13(cls) -> "RatingScale":
        return cls(1.0, 13.0, 13, LETTER_GRADES_13)

    def contains(self, value: float) -> bool:
        return self.min_value <= value <= self.max_value

    def clamp(self, value: float) -> float:
        return min(max(value, self.min_value), self.max_value)

    @property
    def span(self) -> float:
        return self.max_value - self.min_value


@dataclass(frozen=True)
class RatingRecord:
    """One (user, item, overall) event; timestamp optional."""

    user_id: str
    item_id: str
    overall: float
    timestamp: int | None = None


@dataclass(frozen=True)
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


def _index_records(records):
    """Assign dense indices and deduplicate (keep-last) in one pass.

    Returns (user_map, item_map, u_idx, i_idx, kept, duplicates), with one
    entry of u_idx, i_idx and kept per distinct (user, item) cell in the
    order the cell first appeared; kept holds the cell's last record.
    """
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


class _Cells:
    """Sparse user x item cells under two id maps; the shared core of
    Dataset and CriteriaTensor.

    Values hold one row per cell, shaped (cells,) or (cells, width).  Cells
    are kept user-major (by user, then item) with a row pointer, so one
    user's cells are a contiguous slice.  Each (user, item) cell occurs at
    most once.
    """

    def __init__(self, user_map: _IndexMap, item_map: _IndexMap,
                 u_idx: np.ndarray, i_idx: np.ndarray, values: np.ndarray,
                 scale: RatingScale, duplicates: int = 0):
        values = np.asarray(values, dtype=np.float64)
        if not len(u_idx) == len(i_idx) == len(values):
            raise ValueError("cell index and value arrays differ in length")
        if not np.all((values >= scale.min_value) & (values <= scale.max_value)):
            raise ValueError("rating outside scale bounds")
        order = np.lexsort((i_idx, u_idx))
        u_idx, i_idx = u_idx[order], i_idx[order]
        if len(order) and not (0 <= u_idx[0] and u_idx[-1] < len(user_map)
                               and 0 <= i_idx.min()
                               and i_idx.max() < len(item_map)):
            raise ValueError("cell index out of range")
        if np.any((u_idx[1:] == u_idx[:-1]) & (i_idx[1:] == i_idx[:-1])):
            raise ValueError("repeated (user, item) cell")
        self._users = user_map
        self._items = item_map
        self.scale = scale
        self.duplicates = duplicates
        self._u_idx, self._i_idx, self._values = u_idx, i_idx, values[order]
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

    def _row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(item indices, values) of one user's cells, ascending item index."""
        lo, hi = self._u_ptr[u], self._u_ptr[u + 1]
        return self._i_idx[lo:hi], self._values[lo:hi]

    def _lookup(self, u: int, i: int):
        """Values of cell (u, i), or None when it is not stored."""
        items, vals = self._row(u)
        pos = np.searchsorted(items, i)
        if pos < len(items) and items[pos] == i:
            return vals[pos]
        return None

    def _cells(self):
        """(user id, item id, values) of every cell, user-major."""
        users, items = self._users.ids, self._items.ids
        for u, i, v in zip(self._u_idx.tolist(), self._i_idx.tolist(), self._values):
            yield users[u], items[i], v

    # ---- dense views -------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """users x items array of the values (users x items x width for
        vector cells); NaN fills every cell not stored."""
        out = np.full((self.n_users, self.n_items) + self._values.shape[1:],
                      np.nan, dtype=np.float64)
        out[self._u_idx, self._i_idx] = self._values
        return out

    def to_mask(self) -> np.ndarray:
        """Boolean user x item matrix of stored cells."""
        out = np.zeros((self.n_users, self.n_items), dtype=bool)
        out[self._u_idx, self._i_idx] = True
        return out


class Dataset(_Cells):
    """Sparse user x item matrix of overall ratings.

    Values are float64 even for discrete scales because predictions are
    continuous.
    """

    @classmethod
    def from_records(cls, records: Iterable[RatingRecord],
                     scale: RatingScale) -> "Dataset":
        umap, imap, u_idx, i_idx, kept, dups = _index_records(records)
        vals = np.fromiter((rec.overall for rec in kept), dtype=np.float64,
                           count=len(kept))
        return cls(umap, imap, u_idx, i_idx, vals, scale, dups)

    def with_dense_values(self, dense: np.ndarray) -> "Dataset":
        """Same observed cells and index maps, values taken from a dense
        users x items array.  Keeps similarity/prediction indices aligned
        when ratings are swapped for reconstructed ones."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (self.n_users, self.n_items):
            raise ValueError(
                f"expected shape {(self.n_users, self.n_items)}, got {dense.shape}"
            )
        return Dataset(self._users, self._items, self._u_idx, self._i_idx,
                       dense[self._u_idx, self._i_idx], self.scale,
                       self.duplicates)

    @property
    def n_ratings(self) -> int:
        return len(self._values)

    items_of = _Cells._row      # (item indices, ratings) of one user

    def rating(self, u: int, i: int) -> float | None:
        value = self._lookup(u, i)
        return None if value is None else float(value)

    def iter_records(self) -> Iterator[RatingRecord]:
        for uid, iid, value in self._cells():
            yield RatingRecord(uid, iid, float(value))

    def user_means(self) -> np.ndarray:
        """Per-user mean over all items the user rated; 0 for a user
        without ratings."""
        counts = np.diff(self._u_ptr)
        rated = counts > 0
        # a user's ratings are contiguous, so reducing from the rated
        # users' row starts sums exactly each one's own ratings
        sums = np.zeros(self.n_users)
        sums[rated] = np.add.reduceat(self._values, self._u_ptr[:-1][rated])
        means = np.zeros(self.n_users)
        np.divide(sums, counts, out=means, where=rated)
        return means


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

    def __init__(self, user_map: _IndexMap, item_map: _IndexMap, k: int,
                 u_idx: np.ndarray, i_idx: np.ndarray, values: np.ndarray,
                 scale: RatingScale, duplicates: int = 0):
        if k < 1 or np.shape(values)[1:] != (k + 1,):
            raise ValueError(f"need k >= 1 and cell values (cells, {k + 1})")
        super().__init__(user_map, item_map, u_idx, i_idx, values, scale, duplicates)
        self.k = k

    @classmethod
    def from_records(cls, records: Iterable[CriteriaRecord], k: int,
                     scale: RatingScale) -> "CriteriaTensor":
        records = list(records)
        for rec in records:
            if len(rec.criteria) != k:
                raise ValueError(
                    f"record for ({rec.user_id}, {rec.item_id}) has "
                    f"{len(rec.criteria)} criteria, expected {k}"
                )
        umap, imap, u_idx, i_idx, kept, dups = _index_records(records)
        vals = np.array([(rec.overall, *rec.criteria) for rec in kept],
                        dtype=np.float64).reshape(len(kept), k + 1)
        return cls(umap, imap, k, u_idx, i_idx, vals, scale, dups)

    @property
    def n_cells(self) -> int:
        return len(self._values)

    cells_of = _Cells._row      # (item indices, (cells x k+1) values)
    cell = _Cells._lookup

    def iter_records(self) -> Iterator[CriteriaRecord]:
        for uid, iid, values in self._cells():
            yield CriteriaRecord(uid, iid, tuple(values[1:]), float(values[0]))

    def cell_matrix(self) -> np.ndarray:
        """Copy of all cell values, one row per cell: [overall, c1..ck]."""
        return self._values.copy()

    def _slice_dataset(self, s: int) -> Dataset:
        return Dataset(self._users, self._items, self._u_idx, self._i_idx,
                       self._values[:, s], self.scale)


def overall_slice(t: CriteriaTensor) -> Dataset:
    """Slice 0 of every cell as a Dataset with identical index maps."""
    return t._slice_dataset(0)


def criteria_slice(t: CriteriaTensor, c: int) -> Dataset:
    """Slice c (1..k) of every cell; slice 0 is the overall, not a criterion."""
    if not 1 <= c <= t.k:
        raise IndexError(f"criterion index {c} out of range 1..{t.k}")
    return t._slice_dataset(c)
