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
from array import array
from dataclasses import dataclass
from itertools import compress, count, filterfalse, islice
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .core import (
    CriteriaRecord,
    ParseError,
    RatingRecord,
    RatingScale,
    _Ratings,
)

MOVIELENS_SCALE = RatingScale.one_to_five()

RecordT = TypeVar("RecordT", RatingRecord, CriteriaRecord)

_CHUNK = 1 << 16    # characters or lines parsed, or pairs hashed, at a time


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


def _pieces(source):
    """The lines of a path, _CHUNK characters read on to the end of their
    line at a time (so a "\\r\\n" stays whole and the pieces split as
    read_text() would), or of an iterable of lines, _CHUNK at a time."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            while piece := fh.read(_CHUNK):
                yield (piece + fh.readline()).splitlines()
    else:
        source = iter(source)
        while piece := list(islice(source, _CHUNK)):
            yield [raw.rstrip("\r\n") for raw in piece]


def _parse(source, sep: str, data, row, scale: RatingScale, n: int,
           stamped: bool = False) -> _Ratings:
    """The data lines of a path or of lines as a batch: user, item, n values
    on the scale (the overall last) and, if stamped, a timestamp.  Each
    piece's columns convert at once, numpy taking the tokens float() takes;
    on any failure the per-line row(line number, line) reruns the piece,
    raising its first bad line's ParseError (or taking what only it takes:
    grade labels).  Holding its output and one piece, a 1M-line
    MovieLens-1M-shaped file peaks at 62.1 MiB traced for 60.6 MiB held
    (367.7 MiB with the whole input's strings)."""
    width = 2 + n + stamped
    codes: tuple[dict[str, int], dict[str, int]] = ({}, {})     # id -> code
    u, i, values = array("q"), array("q"), array("d")    # grown piece by piece
    stamps = [] if stamped else None

    def batch(*cols) -> None:
        rated = np.array(cols[2:2 + n], dtype=np.float64)
        if not np.all((rated >= scale.min_value) & (rated <= scale.max_value)):
            raise ValueError("value outside the scale")
        if stamped:
            stamps.extend([int(t) for t in cols[-1]])
        for column, code, out in zip(cols, codes, (u, i)):
            column = list(map(str.strip, column))
            code.update(zip(filterfalse(code.__contains__, dict.fromkeys(column)),
                            count(len(code))))
            out.frombytes(np.fromiter(map(code.__getitem__, column), np.int64,
                                      len(column)).tobytes())
        values.frombytes(np.roll(rated, 1, axis=0).T.tobytes())  # the overall first

    def columnar(kept: list[str]) -> bool:
        if {line.count(sep) for line in kept} - {width - 1}:
            return False
        fields = sep.join(kept).split(sep) if kept else []
        try:
            batch(*[fields[c::width] for c in range(width)])
        except ValueError:
            return False
        return True

    done = 0
    for lines in _pieces(source):
        if not columnar(list(filter(data, lines))):
            batch(*zip(*[row(no, line) for no, line
                         in enumerate(lines, done + 1) if data(line)]))
        done += len(lines)
    return _Ratings(tuple(codes[0]), np.frombuffer(u, np.int64), tuple(codes[1]),
                    np.frombuffer(i, np.int64),
                    np.frombuffer(values).reshape(-1, n), stamps)


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
    across platforms and processes, unlike hash().  Hashing _CHUNK pairs at
    a time, it peaks at 52.6 MiB at MovieLens-1M shape (114.0 MiB with
    every digest held)."""
    width = len(batch.item_ids)
    pairs, inverse = np.unique(batch.u * width + batch.i, return_inverse=True)
    keyed = hashlib.blake2b(key=spec.seed.to_bytes(8, "little"), digest_size=8)
    users = [f"{x}\x1f".encode("utf-8") for x in batch.user_ids]    # each id once
    items = [x.encode("utf-8") for x in batch.item_ids]
    points = np.empty(len(pairs), dtype=">u8")
    for lo in range(0, len(pairs), _CHUNK):
        digests = []
        piece = np.divmod(pairs[lo:lo + _CHUNK], width)
        for u, i in zip(piece[0].tolist(), piece[1].tolist()):
            h = keyed.copy()
            h.update(users[u])
            h.update(items[i])
            digests.append(h.digest())
        points[lo:lo + len(digests)] = np.frombuffer(b"".join(digests), dtype=">u8")
    return (points / 2.0 ** 64 < spec.train_fraction)[inverse]


def split_train_test(records: Sequence[RecordT],
                     spec: SplitSpec) -> tuple[list[RecordT], list[RecordT]]:
    """Partition records into (train, test), each record independently,
    both in input order."""
    records = list(records)
    train = _train_mask(_Ratings.of_records(records), spec)
    return (list(compress(records, train.tolist())),
            list(compress(records, (~train).tolist())))


def _number(v: float) -> str:
    """v in its shortest round-trip form, without a trailing ".0"."""
    return repr(float(v)).removesuffix(".0")


def write_movielens(records: Iterable[RatingRecord], path) -> None:
    """TAB-separated ``user item rating timestamp``; missing timestamps
    write as 0 to keep the 4-field shape."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            ts = rec.timestamp if rec.timestamp is not None else 0
            fh.write(f"{rec.user_id}\t{rec.item_id}\t{_number(rec.overall)}"
                     f"\t{ts}\n")


def write_multicriteria(records: Iterable[CriteriaRecord], path) -> None:
    """Comma-separated ``user,item,c1..ck,overall`` (numeric values)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            values = [_number(v) for v in (*rec.criteria, rec.overall)]
            fh.write(",".join([rec.user_id, rec.item_id, *values]) + "\n")
