"""Parsing, grade mapping, density filtering, and train/test splitting.

File formats:
  movielens  TAB-separated ``user item rating timestamp``, no header,
             ratings on the 1-5 scale.
  mc-csv     comma-separated ``user,item,c1,...,ck,overall``; values are
             numbers or grade labels of the scale; lines starting with
             ``#`` are headers/comments.

Both formats are UTF-8, with or without a byte-order mark; LF and CRLF
line endings are accepted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .core import (
    CriteriaRecord,
    ParseError,
    RatingRecord,
    RatingScale,
    _factorize,
    _Ratings,
)

MOVIELENS_SCALE = RatingScale.one_to_five()

RecordT = TypeVar("RecordT", RatingRecord, CriteriaRecord)


@dataclass(frozen=True)
class SplitSpec:
    """Per-rating train/test split: probability and seed."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class DensityFilterSpec:
    """Minimum ratings per user and per item."""

    min_user_ratings: int
    min_item_ratings: int

    def __post_init__(self):
        if self.min_user_ratings < 0 or self.min_item_ratings < 0:
            raise ValueError("thresholds must be >= 0")


def _parse(source, sep: str, data, row, scale: RatingScale, n: int,
           stamped: bool = False) -> _Ratings:
    """The data lines of a path or of lines as a batch: user, item, n values
    on the scale (the overall last) and, if stamped, a timestamp.  Whole
    columns convert at once, numpy taking the tokens float() takes; on any
    failure the per-line row(line number, line) reruns, raising the first
    bad line's ParseError (or taking what only it takes: grade labels)."""
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8-sig").splitlines()
    else:
        lines = [raw.rstrip("\r\n") for raw in source]

    def batch(users, items, *cols) -> _Ratings:
        values = np.array(cols[:n], dtype=np.float64)
        if not np.all((values >= scale.min_value) & (values <= scale.max_value)):
            raise ValueError("value outside the scale")
        values = np.roll(values, 1, axis=0).T.copy()    # the overall first
        stamps = [int(t) for t in cols[n]] if stamped else None
        return _Ratings(*_factorize(map(str.strip, users)),
                        *_factorize(map(str.strip, items)), values, stamps)

    kept = list(filter(data, lines))
    width = 2 + n + stamped
    if not {line.count(sep) for line in kept} - {width - 1}:
        fields = sep.join(kept).split(sep) if kept else []
        try:
            return batch(*[fields[c::width] for c in range(width)])
        except ValueError:
            pass
    return batch(*zip(*[row(no, line) for no, line in enumerate(lines, 1)
                        if data(line)]))


def _movielens_row(no: int, line: str) -> tuple[str, str, float, int]:
    parts = line.split("\t")
    if len(parts) != 4:
        raise ParseError(f"expected 4 TAB-separated fields, got {len(parts)}", no)
    user, item, rating_s, ts_s = (p.strip() for p in parts)
    try:
        rating = float(rating_s)
        timestamp = int(ts_s)
    except ValueError:
        raise ParseError(f"non-numeric rating or timestamp in {line!r}", no) from None
    if not MOVIELENS_SCALE.contains(rating):
        raise ParseError(f"rating {rating} outside [1, 5]", no)
    return user, item, rating, timestamp


def _parse_movielens(source) -> _Ratings:
    return _parse(source, "\t", str.strip, _movielens_row, MOVIELENS_SCALE, 1,
                  stamped=True)


def parse_movielens(source) -> list[RatingRecord]:
    """Parse TAB-separated ``user item rating timestamp`` lines.

    ``source`` is a path or an iterable of lines.  Ratings must lie in 1-5.
    """
    return _parse_movielens(source).records()


def grade_to_number(grade: str, scale: RatingScale) -> float:
    """Map a grade label to its numeric value (worst label -> min_value)."""
    if scale.grade_labels is None:
        raise ValueError("scale has no grade labels")
    try:
        step = scale.grade_labels.index(grade)
    except ValueError:
        raise ValueError(f"unknown grade {grade!r}") from None
    return scale.min_value + step


def _parse_value(token: str, scale: RatingScale, line_no: int) -> float:
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        try:
            value = grade_to_number(token, scale)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if not scale.contains(value):
        raise ParseError(f"value {value} outside scale bounds", line_no)
    return value


def _mc_row(no: int, line: str, k: int, scale: RatingScale) -> tuple:
    parts = line.split(",")
    if len(parts) != k + 3:
        raise ParseError(
            f"expected {k + 3} comma-separated fields, got {len(parts)}", no
        )
    return (parts[0].strip(), parts[1].strip(),
            *[_parse_value(tok, scale, no) for tok in parts[2:]])


def _parse_multicriteria(source, k: int, scale: RatingScale) -> _Ratings:
    return _parse(source, ",",
                  lambda line: line.strip() and not line.lstrip().startswith("#"),
                  lambda no, line: _mc_row(no, line, k, scale), scale, k + 1)


def parse_multicriteria(source, k: int, scale: RatingScale) -> list[CriteriaRecord]:
    """Parse ``user,item,c1,...,ck,overall`` lines (numeric or grade labels)."""
    return _parse_multicriteria(source, k, scale).records()


def _density_mask(b: _Ratings, spec: DensityFilterSpec) -> np.ndarray:
    """Which rows the density filter keeps.

    Removing a user can push an item below its threshold and vice versa, so
    removal alternates user-pass then item-pass until nothing changes.  The
    fixpoint is order-independent; the order is fixed for determinism.
    """
    kept = np.ones(len(b.u), dtype=bool)
    while True:
        users = np.bincount(b.u[kept], minlength=len(b.user_ids))
        after = kept & (users[b.u] >= spec.min_user_ratings)
        items = np.bincount(b.i[after], minlength=len(b.item_ids))
        after &= items[b.i] >= spec.min_item_ratings
        if after.sum() == kept.sum():
            return after
        kept = after


def density_filter(records: Sequence[RecordT],
                   spec: DensityFilterSpec) -> list[RecordT]:
    """Drop users/items with too few ratings, iterated to the fixpoint
    (see _density_mask); the surviving records keep their input order."""
    records = list(records)
    return list(compress(records, _density_mask(_Ratings.of_records(records),
                                                spec).tolist()))


def _train_mask(batch: _Ratings, spec: SplitSpec) -> np.ndarray:
    """Which rows train: each distinct (user, item) pair trains when a
    blake2b hash of its ids keyed on the seed, read as a point in [0, 1),
    lies below the fraction.  Keyed on ids, not file order, and stable
    across platforms and processes, unlike hash()."""
    width = len(batch.item_ids)
    pairs, inverse = np.unique(batch.u * width + batch.i, return_inverse=True)
    keyed = hashlib.blake2b(key=spec.seed.to_bytes(8, "little"), digest_size=8)
    users = [f"{x}\x1f".encode("utf-8") for x in batch.user_ids]    # each id once
    items = [x.encode("utf-8") for x in batch.item_ids]
    digests = []
    for u, i in zip((pairs // width).tolist(), (pairs % width).tolist()):
        h = keyed.copy()
        h.update(users[u])
        h.update(items[i])
        digests.append(h.digest())
    points = np.frombuffer(b"".join(digests), dtype=">u8") / 2.0 ** 64
    return (points < spec.train_fraction)[inverse]


def split_train_test(records: Sequence[RecordT],
                     spec: SplitSpec) -> tuple[list[RecordT], list[RecordT]]:
    """Partition records into (train, test), each record independently,
    both in input order."""
    records = list(records)
    train = _train_mask(_Ratings.of_records(records), spec)
    return (list(compress(records, train.tolist())),
            list(compress(records, (~train).tolist())))


def write_movielens(records: Iterable[RatingRecord], path) -> None:
    """TAB-separated ``user item rating timestamp``; missing timestamps
    write as 0 to keep the 4-field shape."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            ts = rec.timestamp if rec.timestamp is not None else 0
            fh.write(f"{rec.user_id}\t{rec.item_id}\t{rec.overall:g}\t{ts}\n")


def write_multicriteria(records: Iterable[CriteriaRecord], path) -> None:
    """Comma-separated ``user,item,c1..ck,overall`` (numeric values)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            values = [f"{v:g}" for v in (*rec.criteria, rec.overall)]
            fh.write(",".join([rec.user_id, rec.item_id, *values]) + "\n")
