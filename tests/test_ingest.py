import random
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import traced
from mccf import ingest
from mccf.core import (CriteriaRecord, CriteriaTensor, Dataset, ParseError,
                       RatingRecord, RatingScale, _Ratings)
from mccf.evaluation import _split
from mccf.ingest import (
    MOVIELENS_SCALE,
    DensityFilterSpec,
    SplitSpec,
    density_filter,
    grade_to_number,
    parse_movielens,
    parse_multicriteria,
    split_train_test,
    write_movielens,
    write_multicriteria,
    _parse_movielens,
)

LETTER = RatingScale.letter_13()


def test_parse_movielens_lines():
    records = parse_movielens(["196\t242\t3\t881250949", "186\t302\t3\t891717742"])
    assert records[0] == RatingRecord("196", "242", 3.0, 881250949)
    assert len(records) == 2


def test_parse_movielens_file(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t2\t4\t100\r\n\n3\t2\t5\t200\n", encoding="utf-8")
    records = parse_movielens(p)
    assert [r.user_id for r in records] == ["1", "3"]
    assert records[0].overall == 4.0


def test_parse_files_with_byte_order_mark(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("\ufeff1\t2\t4\t100\n3\t2\t5\t200\n", encoding="utf-8")
    assert [r.user_id for r in parse_movielens(p)] == ["1", "3"]
    p = tmp_path / "ratings.csv"
    p.write_text("\ufeffu1,i1,4,5,3,4\n", encoding="utf-8")
    assert parse_multicriteria(p, 3, RatingScale.one_to_five()) == [
        CriteriaRecord("u1", "i1", (4.0, 5.0, 3.0), 4.0)]
    # a header line behind the mark is still a comment
    p.write_text("\ufeff# user,item,c1,c2,c3,overall\nu1,i1,4,5,3,4\n",
                 encoding="utf-8")
    assert len(parse_multicriteria(p, 3, RatingScale.one_to_five())) == 1


def test_parse_movielens_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_movielens(["1\t2\t3"])
    with pytest.raises(ParseError, match="line 2"):
        parse_movielens(["1\t2\t3\t4", "1\t2\tx\t4"])
    with pytest.raises(ParseError, match="outside"):
        parse_movielens(["1\t2\t9\t4"])


def test_grade_mapping():
    assert grade_to_number("F", LETTER) == 1.0
    assert grade_to_number("A+", LETTER) == 13.0
    assert grade_to_number("C", LETTER) == 6.0
    with pytest.raises(ValueError):
        grade_to_number("Z", LETTER)
    with pytest.raises(ValueError):
        grade_to_number("A", RatingScale.one_to_five())


def test_parse_multicriteria_numeric():
    records = parse_multicriteria(
        ["# header", "u1,i1,4,5,3,4", "u2,i1,2,1,3,2"], 3,
        RatingScale.one_to_five())
    assert records[0] == CriteriaRecord("u1", "i1", (4.0, 5.0, 3.0), 4.0)
    assert len(records) == 2


def test_parse_multicriteria_grades():
    records = parse_multicriteria(["s1,c1,A,B+,12,A-"], 3, LETTER)
    assert records[0].criteria == (12.0, 10.0, 12.0)
    assert records[0].overall == 11.0


def test_parse_multicriteria_errors():
    with pytest.raises(ParseError, match="fields"):
        parse_multicriteria(["u,i,1,2"], 3, RatingScale.one_to_five())
    with pytest.raises(ParseError, match="outside"):
        parse_multicriteria(["u,i,1,2,3,7"], 3, RatingScale.one_to_five())
    with pytest.raises(ParseError):
        parse_multicriteria(["u,i,1,2,3,Q"], 3, LETTER)


triples = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 5)),
    min_size=0, max_size=8,
)


def _feasible(chosen, mu, mi):
    uc = Counter(r.user_id for r in chosen)
    ic = Counter(r.item_id for r in chosen)
    return all(c >= mu for c in uc.values()) and all(c >= mi for c in ic.values())


@settings(deadline=None, max_examples=60)
@given(triples, st.integers(0, 3), st.integers(0, 3))
def test_density_filter_is_maximal_core(trip, mu, mi):
    """The filter result must equal the union of all feasible subsets,
    which is the unique maximal subset meeting both thresholds."""
    records = [RatingRecord(f"u{a}", f"i{b}", float(r)) for a, b, r in trip]
    got = density_filter(records, DensityFilterSpec(mu, mi))

    best: set[int] = set()
    idx = range(len(records))
    for size in range(len(records), -1, -1):
        for combo in combinations(idx, size):
            if _feasible([records[c] for c in combo], mu, mi):
                best.update(combo)
        if best:
            break
    expected = [records[c] for c in sorted(best)]
    assert got == expected


def test_density_filter_cascade():
    # dropping the one-rating user starves i2, which then drops too
    records = [
        RatingRecord("a", "i1", 3.0), RatingRecord("a", "i2", 3.0),
        RatingRecord("b", "i1", 4.0), RatingRecord("b", "i2", 4.0),
        RatingRecord("c", "i2", 5.0),
    ]
    kept = density_filter(records, DensityFilterSpec(2, 3))
    assert kept == []
    kept = density_filter(records, DensityFilterSpec(2, 2))
    assert [r.user_id for r in kept] == ["a", "a", "b", "b"]


def test_density_filter_idempotent(desk):
    records = list(desk.iter_records())
    spec = DensityFilterSpec(4, 4)
    once = density_filter(records, spec)
    assert density_filter(once, spec) == once


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.0, 1)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 1)
    with pytest.raises(ValueError):
        SplitSpec(0.5, -1)
    for mu, mi in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            DensityFilterSpec(mu, mi)


@settings(deadline=None, max_examples=60)
@given(triples, st.floats(0.1, 0.9), st.integers(0, 2 ** 32))
def test_split_partitions(trip, fraction, seed):
    records = [RatingRecord(f"u{a}", f"i{b}", float(r)) for a, b, r in trip]
    train, test = split_train_test(records, SplitSpec(fraction, seed))
    assert len(train) + len(test) == len(records)
    ti, si = 0, 0
    for rec in records:      # both sides preserve input order
        if ti < len(train) and train[ti] is rec:
            ti += 1
        else:
            assert test[si] is rec
            si += 1


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(1, 5)), max_size=30),
       st.randoms(use_true_random=False), st.floats(0.1, 0.9))
def test_no_test_pair_is_a_training_cell(trip, rng, fraction):
    """The harnesses read a held-out pair's prediction from the scores of
    the user's items without a training cell; that needs every repeat of a
    (user, item) pair on one side of the split."""
    records = [RatingRecord(f"u{a}", f"i{b}", float(r)) for a, b, r in trip]
    rng.shuffle(records)
    for seed in (0, 7, 2 ** 63):
        train, test = split_train_test(records, SplitSpec(fraction, seed))
        assert not ({(r.user_id, r.item_id) for r in train}
                    & {(r.user_id, r.item_id) for r in test})


def test_split_deterministic_and_order_free():
    records = [RatingRecord(f"u{u}", f"i{i}", float(1 + (u * i) % 5))
               for u in range(20) for i in range(10)]
    spec = SplitSpec(0.7, 42)
    train1, test1 = split_train_test(records, spec)
    train2, _ = split_train_test(records, spec)
    assert train1 == train2

    shuffled = records[:]
    random.Random(0).shuffle(shuffled)
    train3, _ = split_train_test(shuffled, spec)
    assert {(r.user_id, r.item_id) for r in train3} == \
        {(r.user_id, r.item_id) for r in train1}

    train4, _ = split_train_test(records, SplitSpec(0.7, 43))
    assert train4 != train1

    # fraction is honored to within sampling noise
    assert 0.6 < len(train1) / len(records) < 0.8


def test_movielens_roundtrip(tmp_path):
    records = [RatingRecord("u1", "i1", 4.0, 123),
               RatingRecord("u2", "i9", 2.5, None),
               RatingRecord("u3", "i2", 3.3333333333, 7)]
    p = tmp_path / "out.tsv"
    write_movielens(records, p)
    assert p.read_text().splitlines()[0] == "u1\ti1\t4\t123"
    back = parse_movielens(p)
    assert back[0] == records[0]
    assert back[1] == RatingRecord("u2", "i9", 2.5, 0)   # None -> 0
    assert back[2] == records[2]            # every digit survives


def test_multicriteria_roundtrip(tmp_path):
    records = [CriteriaRecord("u1", "i1", (4.0, 3.5, 5.0), 4.25),
               CriteriaRecord("u2", "i2", (1.0, 2.0, 3.0), 2.0),
               CriteriaRecord("u3", "i1", (4.123456789, 1.0, 4 / 3),
                              3.3333333333)]
    p = tmp_path / "out.csv"
    write_multicriteria(records, p)
    assert p.read_text().splitlines()[1] == "u2,i2,1,2,3,2"
    assert parse_multicriteria(p, 3, RatingScale.one_to_five()) == records


def test_parsed_mc_csv_holds_under_100_bytes_a_row():
    """Rows whose values repeat share their criteria tuple and floats, so a
    parse holds about a record and a list slot per row, not also a tuple
    and k + 1 floats (about 264 B a row at k = 4).  The criteria follow the
    overall within one step, as multi-criteria ratings tend to."""
    rng = np.random.default_rng(5)
    n = 5000
    overall = rng.integers(1, 6, n)
    criteria = np.clip(overall[:, None] + rng.integers(-1, 2, (n, 4)), 1, 5)
    lines = [f"u{u},i{i},{c1},{c2},{c3},{c4},{o}" for u, i, (c1, c2, c3, c4), o
             in zip(rng.integers(0, 300, n).tolist(),
                    rng.integers(0, 200, n).tolist(), criteria.tolist(),
                    overall.tolist())]
    records, _, held = traced(
        lambda: parse_multicriteria(lines, 4, MOVIELENS_SCALE))
    assert len(records) == n
    assert held <= 100 * n + 64 * 1024


def test_parse_holds_one_piece_beyond_its_output(tmp_path, monkeypatch):
    """The parse reads its input a piece at a time, so what it holds at its
    peak beyond its output stays the same when the input doubles."""
    monkeypatch.setattr(ingest, "_CHUNK", 1 << 10)      # about 50 lines
    extra = []
    for n in (4000, 8000):
        path = tmp_path / f"{n}.data"
        path.write_text("".join(f"u{k % 97}\ti{k % 89}\t{k % 5 + 1}\t{k}\n"
                                for k in range(n)), encoding="utf-8")
        _, peak, held = traced(lambda: _parse_movielens(path))
        extra.append(peak - held)
    assert extra[1] - extra[0] <= 16 * 1024, extra


# ---- columnar ingest against the per-record oracles -------------------------

# characters that end a line under str.splitlines, plus the separators
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ids = st.builds(
    lambda pad, core, tail: pad + core + tail,
    st.sampled_from(["", " ", "\u2003"]),
    st.one_of(st.sampled_from(["u1", "a\x1fb", "\x1f", "ü", "#x", "0"]),
              st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters=_LINE_BREAKS + "\t,"),
                       min_size=1, max_size=3)),
    st.sampled_from(["", " "]))
ML_RATINGS = ["1", "5", "3.5", " 4", "+2", "0_1", "\u0663", "2e0"]
ML_STAMPS = ["0", "881250949", " 7", "+5", "1_0", "-3", "9" * 25]
ML_BAD = ["u\ti\t3", "u\ti\tx\t5", "u\ti\t7\t5", "u\ti\tnan\t1",
          "u\ti\t3\t1.5", "u\ti\t3\t5\textra", "u\ti\t1__0\t5"]
MC_NUMBERS = ["1", "13", " 7", "+2", "0_5", "\u0663"]
MC_LABELS = ["A+", "F", " B- ", "C"]
MC_BAD = ["u,i,1,2,3", "u,i,1,2,3,14", "u,i,1,2,Q,3", "u,i,nan,1,1,1",
          "u,i,1,2,3,4,5"]
FILLER = ["", "  ", "\t"]
# pieces of 3 characters or lines cut the input next to the byte-order mark,
# inside CRLF text and around a bad line, and bring ids first seen late
CHUNKS = st.sampled_from([3, ingest._CHUNK])


def _document(draw, line, bad_lines, comments):
    """Lines with repeats, blank (and comment) lines, at most one bad line,
    joined with LF or CRLF behind an optional byte-order mark."""
    pool = draw(st.lists(ids, min_size=1, max_size=5))
    lines = [line(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
             for _ in range(draw(st.integers(0, 25)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(FILLER + comments)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(bad_lines)))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    return draw(st.sampled_from(["", "\ufeff"])) + text


@st.composite
def movielens_text(draw):
    return _document(draw, lambda u, i: "\t".join(
        [u, i, draw(st.sampled_from(ML_RATINGS)),
         draw(st.sampled_from(ML_STAMPS))]), ML_BAD, [])


@st.composite
def letter_text(draw):
    # grade labels take the per-line parse, numbers alone the columnar one
    values = MC_NUMBERS + (MC_LABELS if draw(st.booleans()) else [])
    return _document(draw, lambda u, i: ",".join(
        [u, i] + [draw(st.sampled_from(values)) for _ in range(4)]),
        MC_BAD, ["# user,item", " #x"])


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line_no)


def _same_cells(got, want):
    assert (got.user_ids, got.item_ids, got.duplicates) == \
        (want.user_ids, want.item_ids, want.duplicates)
    for a, b in ((got._u_idx, want._u_idx), (got._i_idx, want._i_idx),
                 (got._values, want._values)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _same_split(records, seed, scale):
    spec = SplitSpec(0.6, seed)
    got, want = split_train_test(records, spec), oracles.split_train_test(
        records, spec)
    assert got == want
    assert all(a is b for a, b in zip(got[0] + got[1], want[0] + want[1]))
    if want[0] and want[1]:
        # the harness splits and indexes the batch, whose codes follow the
        # whole input rather than the training side
        train, test = _split(_Ratings.of_records(records), 0.6, seed)
        _same_cells(Dataset.from_records(train, scale),
                    oracles.dataset_from_records(want[0], scale))
        assert [(test.user_ids[u], test.item_ids[i], v) for u, i, v in zip(
            test.u.tolist(), test.i.tolist(), test.values[:, 0].tolist())] \
            == [(r.user_id, r.item_id, r.overall) for r in want[1]]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar")


@settings(deadline=None, max_examples=80)
@given(movielens_text(), st.integers(0, 2 ** 64 - 1), CHUNKS)
def test_columnar_movielens_matches_per_record_oracles(scratch, text, seed, chunk):
    path = scratch / "u.data"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(ingest, "_CHUNK", chunk):
        for source in (path, text.splitlines(keepends=True)):
            got = _outcome(parse_movielens, source)
            assert got == _outcome(oracles.parse_movielens, source)
        if isinstance(got, tuple):
            return
        _same_cells(Dataset.from_records(got, MOVIELENS_SCALE),
                    oracles.dataset_from_records(got, MOVIELENS_SCALE))
        _same_split(got, seed, MOVIELENS_SCALE)


@settings(deadline=None, max_examples=80)
@given(letter_text(), st.integers(0, 2 ** 64 - 1), CHUNKS)
def test_columnar_mc_csv_matches_per_record_oracles(scratch, text, seed, chunk):
    path = scratch / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(ingest, "_CHUNK", chunk):
        for source in (path, text.splitlines(keepends=True)):
            got = _outcome(parse_multicriteria, source, 3, LETTER)
            assert got == _outcome(oracles.parse_multicriteria, source, 3, LETTER)
        if isinstance(got, tuple):
            return
        _same_cells(CriteriaTensor.from_records(got, 3, LETTER),
                    oracles.tensor_from_records(got, 3, LETTER))
        _same_split(got, seed, LETTER)
