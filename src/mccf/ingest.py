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
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

from .core import (
    CriteriaRecord,
    ParseError,
    RatingRecord,
    RatingScale,
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


def _iter_lines(source) -> Iterable[tuple[int, str]]:
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
    """Parse TAB-separated ``user item rating timestamp`` lines.

    ``source`` is a path or an iterable of lines.  Ratings must lie in 1-5.
    """
    records = []
    for no, line in _iter_lines(source):
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
        records.append(RatingRecord(user, item, rating, timestamp))
    return records


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


def parse_multicriteria(source, k: int, scale: RatingScale) -> list[CriteriaRecord]:
    """Parse ``user,item,c1,...,ck,overall`` lines (numeric or grade labels)."""
    records = []
    for no, line in _iter_lines(source):
        if line.lstrip().startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != k + 3:
            raise ParseError(
                f"expected {k + 3} comma-separated fields, got {len(parts)}", no
            )
        user, item = parts[0].strip(), parts[1].strip()
        values = [_parse_value(tok, scale, no) for tok in parts[2:]]
        records.append(
            CriteriaRecord(user, item, tuple(values[:-1]), values[-1])
        )
    return records


def density_filter(records: Sequence[RecordT],
                   spec: DensityFilterSpec) -> list[RecordT]:
    """Drop users/items with too few ratings, iterated to the fixpoint.

    Removing a user can push an item below its threshold and vice versa, so
    removal alternates user-pass then item-pass until nothing changes.  The
    fixpoint is order-independent; the order is fixed for determinism.
    Input order of the surviving records is preserved.
    """
    kept = list(records)
    while True:
        user_counts: dict[str, int] = {}
        for rec in kept:
            user_counts[rec.user_id] = user_counts.get(rec.user_id, 0) + 1
        after_users = [r for r in kept
                       if user_counts[r.user_id] >= spec.min_user_ratings]

        item_counts: dict[str, int] = {}
        for rec in after_users:
            item_counts[rec.item_id] = item_counts.get(rec.item_id, 0) + 1
        after_items = [r for r in after_users
                       if item_counts[r.item_id] >= spec.min_item_ratings]

        if len(after_items) == len(kept):
            return after_items
        kept = after_items


def _split_point(seed: int, user_id: str, item_id: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed on (seed, user, item).

    Keyed on ids rather than file order so the same pair lands on the same
    side no matter how the input was ordered.  blake2b is stable across
    platforms and Python processes (unlike hash()).
    """
    h = hashlib.blake2b(
        f"{user_id}\x1f{item_id}".encode("utf-8"),
        key=seed.to_bytes(8, "little"),
        digest_size=8,
    )
    return int.from_bytes(h.digest(), "big") / 2.0 ** 64


def split_train_test(records: Sequence[RecordT],
                     spec: SplitSpec) -> tuple[list[RecordT], list[RecordT]]:
    """Partition records into (train, test), each record independently."""
    train: list[RecordT] = []
    test: list[RecordT] = []
    for rec in records:
        if _split_point(spec.seed, rec.user_id, rec.item_id) < spec.train_fraction:
            train.append(rec)
        else:
            test.append(rec)
    return train, test


def _fmt_rating(v: float) -> str:
    return f"{v:g}"


def write_movielens(records: Iterable[RatingRecord], path) -> None:
    """TAB-separated ``user item rating timestamp``; missing timestamps
    write as 0 to keep the 4-field shape."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            ts = rec.timestamp if rec.timestamp is not None else 0
            fh.write(f"{rec.user_id}\t{rec.item_id}\t{_fmt_rating(rec.overall)}\t{ts}\n")


def write_multicriteria(records: Iterable[CriteriaRecord], path) -> None:
    """Comma-separated ``user,item,c1..ck,overall`` (numeric values)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            cells = [rec.user_id, rec.item_id]
            cells += [_fmt_rating(v) for v in rec.criteria]
            cells.append(_fmt_rating(rec.overall))
            fh.write(",".join(cells) + "\n")
