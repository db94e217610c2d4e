import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DESK_MATRIX, dataset_from_dense
from mccf.core import (
    CriteriaRecord,
    CriteriaTensor,
    Dataset,
    RatingRecord,
    RatingScale,
    _CELL_BLOCK,
    _IndexMap,
    _Ratings,
    criteria_slice,
    dataset_stats,
    overall_slice,
)
from mccf.similarity import item_similarity_matrix

ONE_TO_FIVE = RatingScale.one_to_five()

RECORDS = [
    RatingRecord("alice", "x", 5.0, 100),
    RatingRecord("bob", "y", 3.0, None),
    RatingRecord("alice", "y", 1.0, 50),
    RatingRecord("carol", "x", 4.0, None),
]


def test_one_to_five():
    s = RatingScale.one_to_five()
    assert (s.min_value, s.max_value) == (1.0, 5.0)
    assert s.span == 4.0
    assert s.grade_labels is None


def test_letter_scale():
    s = RatingScale.letter_13()
    assert (s.min_value, s.max_value) == (1.0, 13.0)
    assert s.grade_labels[0] == "F"
    assert s.grade_labels[-1] == "A+"
    assert len(set(s.grade_labels)) == 13


def test_scale_validation():
    for lo, hi in ((5.0, 1.0), (1.0, np.inf), (-np.inf, 5.0), (np.nan, 5.0)):
        with pytest.raises(ValueError):
            RatingScale(lo, hi)
    # a labelled scale has one label per whole number from min to max
    for hi, labels in ((5.0, ("a", "b")), (2.0, ("a", "b", "c")),
                       (2.5, ("a", "b"))):
        with pytest.raises(ValueError):
            RatingScale(1.0, hi, labels)
    # bounds are real numbers, numpy's too, but not bools; labels are a
    # tuple of strings, so a string is not split into one-letter labels
    for lo, hi in ((True, 5.0), (0.0, True), (np.True_, 5.0), ("1", 5.0),
                   (None, 5.0), (1.0, 5 + 0j), (np.complex128(1), 5.0)):
        with pytest.raises(ValueError, match="need real finite"):
            RatingScale(lo, hi)
    for labels in ("abcde", list("abcde"), (1, 2, 3, 4, 5),
                   ("a", "b", "c", "d", None)):
        with pytest.raises(ValueError, match="grade label"):
            RatingScale(1.0, 5.0, labels)
    for lo, hi in ((np.float32(0.5), 5.0), (1, np.int64(5)), (-2, 2.0)):
        assert RatingScale(lo, hi).span == hi - lo
    assert RatingScale(1.0, 5.0, tuple("abcde")).grade_labels == tuple("abcde")


def test_first_appearance_indexing():
    d = Dataset.from_records(RECORDS, ONE_TO_FIVE)
    assert d.user_ids == ("alice", "bob", "carol")
    assert d.item_ids == ("x", "y")
    assert d.user_index("bob") == 1
    assert d.item_id(1) == "y"
    assert d.has_user("alice") and not d.has_user("dave")
    assert d.has_item("y") and not d.has_item("z")


def test_rating_lookup():
    d = Dataset.from_records(RECORDS, ONE_TO_FIVE)
    assert oracles.stored(d, d.user_index("alice"), d.item_index("x")) == 5.0
    assert oracles.stored(d, d.user_index("bob"), d.item_index("x")) is None
    assert d.n_ratings == 4


def test_duplicates_keep_last():
    d = Dataset.from_records(
        RECORDS + [RatingRecord("alice", "x", 2.0)], ONE_TO_FIVE)
    assert d.duplicates == 1
    assert d.n_ratings == 4
    assert oracles.stored(d, 0, 0) == 2.0


def test_out_of_scale_rejected():
    with pytest.raises(ValueError):
        Dataset.from_records([RatingRecord("u", "i", 6.0)], ONE_TO_FIVE)


def test_traversal_sorted():
    d = Dataset.from_records(RECORDS, ONE_TO_FIVE)
    items, vals = d.items_of(d.user_index("alice"))
    assert items.tolist() == [0, 1]
    assert vals.tolist() == [5.0, 1.0]


def test_dense_and_mask():
    d = Dataset.from_records(RECORDS, ONE_TO_FIVE)
    dense = d.to_dense()
    assert dense.shape == (3, 2)
    assert dense[0, 0] == 5.0 and np.isnan(dense[1, 0])
    assert np.array_equal(d.to_mask(), ~np.isnan(dense))


def test_user_means_oracle():
    d = Dataset.from_records(RECORDS, ONE_TO_FIVE)
    expected = np.nanmean(d.to_dense(), axis=1)
    assert np.allclose(d.user_means(), expected)


def test_user_means_are_one_reduceat_over_the_rated_users():
    # more cells than one segment-sum block, and users without ratings:
    # the blocked sums round as one np.add.reduceat from the rated users'
    # row starts does
    rng = np.random.default_rng(4)
    dense = np.where(rng.random((70, 80)) < 0.6, rng.uniform(1, 5, (70, 80)),
                     np.nan)
    dense[[0, 31, 69]] = np.nan
    d = dataset_from_dense(dense)
    assert d.n_ratings > _CELL_BLOCK
    counts = np.diff(d._u_ptr)
    rated = counts > 0
    want = np.zeros(d.n_users)
    want[rated] = (np.add.reduceat(d.values, d._u_ptr[:-1][rated])
                   / counts[rated])
    assert d.user_means().tobytes() == want.tobytes()


@pytest.mark.parametrize("row", [0, 3, 6])
def test_user_means_with_a_user_without_ratings(row):
    d = dataset_from_dense(np.insert(DESK_MATRIX, row, np.nan, axis=0))
    means = d.user_means()
    for u in range(d.n_users):
        ratings = d.items_of(u)[1]
        assert means[u] == (ratings.sum() / len(ratings) if len(ratings) else 0.0)
    plain = item_similarity_matrix(dataset_from_dense(DESK_MATRIX),
                                   "adjusted_cosine")
    np.testing.assert_allclose(
        item_similarity_matrix(d, "adjusted_cosine").values, plain.values,
        rtol=0, atol=1e-12)


def test_constructors_reject_bad_cells():
    users, items = _IndexMap(["a", "b"]), _IndexMap(["x", "y"])
    # a repeated cell, then each index out of range on either side
    for u_idx, i_idx in (([1, 1], [0, 0]), ([0, 2], [0, 0]), ([-1, 0], [0, 0]),
                         ([0, 1], [0, 2]), ([0, 1], [-1, 0])):
        u_idx, i_idx = np.array(u_idx), np.array(i_idx)
        with pytest.raises(ValueError):
            Dataset(users, items, u_idx, i_idx, np.array([1.0, 2.0]),
                    ONE_TO_FIVE)
        with pytest.raises(ValueError):
            CriteriaTensor(users, items, u_idx, i_idx, np.ones((2, 2)),
                           ONE_TO_FIVE)
    with pytest.raises(ValueError):
        Dataset(users, items, np.array([0, 1]), np.array([0, 1]),
                np.array([1.0]), ONE_TO_FIVE)
    # a Dataset holds one value per cell; a vector per cell is a tensor's
    for values in (np.ones((2, 3)), np.ones((2, 1))):
        with pytest.raises(ValueError, match=r"^need one value per cell: cell "
                           r"values \(cells,\), got \(2, \d\)$"):
            Dataset(users, _IndexMap(["x"]), np.array([0, 1]), np.array([0, 0]),
                    values, ONE_TO_FIVE)
    # index arrays of a type that would not index, or would mask
    for bad in (np.array([0.0, 1.0]), np.array([False, True])):
        for u_idx, i_idx in ((bad, np.array([0, 1])), (np.array([0, 1]), bad)):
            with pytest.raises(ValueError, match="non-integer"):
                Dataset(users, items, u_idx, i_idx, np.array([1.0, 2.0]),
                        ONE_TO_FIVE)
    with pytest.raises(ValueError, match="duplicate"):
        _IndexMap(["a", "b", "a"])


def test_unsorted_cells_are_sorted_or_rejected():
    users, items = _IndexMap(["a", "b", "c"]), _IndexMap(["x", "y"])
    u_idx, i_idx = np.array([2, 0, 1, 0]), np.array([0, 1, 1, 0])
    d = Dataset(users, items, u_idx, i_idx, np.array([1.0, 2.0, 3.0, 4.0]),
                ONE_TO_FIVE)
    assert d.items_of(0)[0].tolist() == [0, 1]
    assert d.values.tolist() == [4.0, 2.0, 3.0, 1.0]
    # the arrays passed in stay the caller's; sorted input is copied too
    sorted_u = np.array([0, 1])
    d = Dataset(users, items, sorted_u, np.array([1, 0]),
                np.array([1.0, 2.0]), ONE_TO_FIVE)
    sorted_u[0] = 2
    assert d.items_of(0)[0].tolist() == [1]
    # so is a read-only view of an array the caller can still write
    sorted_u = np.array([0, 1])
    view = sorted_u[:]
    view.setflags(write=False)
    d = Dataset(users, items, view, np.array([1, 0]), np.array([1.0, 2.0]),
                ONE_TO_FIVE)
    sorted_u[0] = 2
    assert d.cell_index()[0].tolist() == [0, 1]
    # a repeated cell, apart (unsorted) or adjacent (otherwise sorted)
    for u_idx, i_idx in (([0, 1, 0], [1, 0, 1]), ([0, 0, 1], [1, 1, 0])):
        with pytest.raises(ValueError, match="repeated"):
            CriteriaTensor(users, items, np.array(u_idx), np.array(i_idx),
                           np.ones((3, 2)), ONE_TO_FIVE)


def test_view_rejects_bad_values():
    # a view is built by the one constructor, so its values are checked
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    assert np.array_equal(t._dataset(t.values[:, 2]).values, t.values[:, 2])
    with pytest.raises(ValueError):
        t._dataset(t.values[1:, 0])
    with pytest.raises(ValueError):
        t._dataset(np.zeros(t.n_cells))     # outside the scale


def test_stats():
    s = dataset_stats(Dataset.from_records(RECORDS, ONE_TO_FIVE))
    assert (s.users, s.items, s.ratings) == (3, 2, 4)
    assert s.density == pytest.approx(4 / 6)


record_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)),
    min_size=1, max_size=40,
).map(lambda triples: [RatingRecord(f"u{a}", f"i{b}", float(r))
                       for a, b, r in triples])


@given(record_lists)
def test_roundtrip_through_records(records):
    # iter_records is user-major, so index maps may be permuted; the
    # (user, item) -> rating content must survive exactly
    d = Dataset.from_records(records, ONE_TO_FIVE)
    d2 = Dataset.from_records(list(d.iter_records()), ONE_TO_FIVE)
    assert set(d2.user_ids) == set(d.user_ids)
    assert set(d2.item_ids) == set(d.item_ids)
    assert d2.n_ratings == d.n_ratings
    for rec in d.iter_records():
        assert oracles.stored(d2, d2.user_index(rec.user_id),
                              d2.item_index(rec.item_id)) == rec.overall


@given(record_lists)
def test_keep_last_semantics(records):
    d = Dataset.from_records(records, ONE_TO_FIVE)
    last = {}
    for rec in records:
        last[(rec.user_id, rec.item_id)] = rec.overall
    assert d.n_ratings == len(last)
    assert d.duplicates == len(records) - len(last)
    for (uid, iid), val in last.items():
        assert oracles.stored(d, d.user_index(uid), d.item_index(iid)) == val


MC_RECORDS = [
    CriteriaRecord("alice", "x", (4.0, 5.0, 3.0), 4.0),
    CriteriaRecord("bob", "x", (2.0, 1.0, 3.0), 2.0),
    CriteriaRecord("alice", "y", (5.0, 5.0, 4.0), 5.0),
]


def test_tensor_basics():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    assert (t.n_users, t.n_items, t.k, t.n_cells) == (2, 2, 3, 3)
    cell = oracles.stored(t, t.user_index("bob"), t.item_index("x"))
    assert cell.tolist() == [2.0, 2.0, 1.0, 3.0]
    assert oracles.stored(t, t.user_index("bob"), t.item_index("y")) is None
    assert t.user_id(0) == "alice" and t.item_id(1) == "y"


def test_tensor_wrong_arity():
    with pytest.raises(ValueError):
        CriteriaTensor.from_records(MC_RECORDS, 2, ONE_TO_FIVE)
    # an overall rating alone is no multi-criteria cell, and k is a count
    for k in (0, -1, True, 1.0, "2"):
        with pytest.raises(ValueError, match="^k must be an integer >= 1"):
            CriteriaTensor.from_records([CriteriaRecord("a", "x", (), 3.0)], k,
                                        ONE_TO_FIVE)
    # the constructor reads k from the values' width
    users, items = _IndexMap(["a", "b"]), _IndexMap(["x"])
    cells = np.array([0, 1]), np.array([0, 0])
    for width in (2, 3, 5):
        t = CriteriaTensor(users, items, *cells, np.ones((2, width)), ONE_TO_FIVE)
        assert t.k == width - 1
    for values in (np.ones((2, 1)), np.ones(2)):
        with pytest.raises(ValueError, match="k >= 1"):
            CriteriaTensor(users, items, *cells, values, ONE_TO_FIVE)
    # a record without criteria is named, not read for them
    with pytest.raises(ValueError, match=r"^record for \(u, i\) has 0 criteria, "
                       "expected 1$"):
        CriteriaTensor.from_records([RatingRecord("u", "i", 3.0)], 1, ONE_TO_FIVE)


def test_cell_matrix_layout():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    cells = t.cell_matrix()
    assert cells.shape == (3, 4)
    # rows follow (user, item) lexicographic order of internal indices
    assert cells[0].tolist() == [4.0, 4.0, 5.0, 3.0]   # alice, x
    assert cells[1].tolist() == [5.0, 5.0, 5.0, 4.0]   # alice, y
    assert cells[2].tolist() == [2.0, 2.0, 1.0, 3.0]   # bob, x


def test_slices_share_index_maps():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    overall = overall_slice(t)
    c2 = criteria_slice(t, 2)
    assert overall.user_ids == t.user_ids == c2.user_ids
    assert overall.item_ids == t.item_ids == c2.item_ids
    assert oracles.stored(overall, 0, 0) == 4.0
    assert oracles.stored(c2, 0, 0) == 5.0
    dense = t.to_dense()
    assert np.array_equal(overall.to_dense(), dense[:, :, 0], equal_nan=True)
    assert np.array_equal(c2.to_dense(), dense[:, :, 2], equal_nan=True)
    # a view keeps the tensor's read-only index arrays, not its values
    for view in (overall, c2):
        for mine, its in zip(view.cell_index(), t.cell_index()):
            assert np.shares_memory(mine, its)
        assert not np.shares_memory(view.values, t.values)


def test_criteria_slice_range():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    with pytest.raises(IndexError):
        criteria_slice(t, 0)
    with pytest.raises(IndexError):
        criteria_slice(t, 4)


def test_tensor_duplicates_keep_last():
    t = CriteriaTensor.from_records(
        MC_RECORDS + [CriteriaRecord("alice", "x", (1.0, 1.0, 1.0), 1.0)],
        3, ONE_TO_FIVE)
    assert t.duplicates == 1
    assert oracles.stored(t, 0, 0).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_tensor_record_roundtrip():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    t2 = CriteriaTensor.from_records(list(t.iter_records()), 3, ONE_TO_FIVE)
    assert np.array_equal(t.to_dense(), t2.to_dense(), equal_nan=True)
    assert np.array_equal(t.to_mask(), t2.to_mask())


def test_iter_records_rebuilds_the_container_bitwise():
    # u0 rates every item first, in order, so the items first appear as a
    # user-major walk meets them; the rest comes shuffled, with repeats
    rng = np.random.default_rng(19)
    pairs = [(0, i) for i in range(6)] + [
        (int(u), int(i)) for u, i in rng.integers(0, 6, size=(60, 2))]
    rows = rng.integers(4, 21, size=(len(pairs), 4)) / 4.0     # 1, 1.25 .. 5
    plain = [RatingRecord(f"u{u}", f"i{i}", float(r[0])) for (u, i), r in
             zip(pairs, rows)]
    crit = [CriteriaRecord(f"u{u}", f"i{i}", tuple(r[1:].tolist()), float(r[0]))
            for (u, i), r in zip(pairs, rows)]
    for x, rebuild in (
            (Dataset.from_records(plain, ONE_TO_FIVE),
             lambda recs: Dataset.from_records(recs, ONE_TO_FIVE)),
            (CriteriaTensor.from_records(crit, 3, ONE_TO_FIVE),
             lambda recs: CriteriaTensor.from_records(recs, 3, ONE_TO_FIVE))):
        assert x.duplicates > 0
        records = list(x.iter_records())
        for rec in records:
            assert type(rec.overall) is float
            assert all(type(v) is float for v in getattr(rec, "criteria", ()))
        y = rebuild(records)
        assert (y.user_ids, y.item_ids) == (x.user_ids, x.item_ids)
        for a, b in zip((*x.cell_index(), x.values), (*y.cell_index(), y.values)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# ---- the record edge against its oracle -------------------------------------

SIGNED = RatingScale(-2.0, 2.0)             # spans 0, so -0.0 and 0.0 occur
SIGNED_VALUES = st.sampled_from([-0.0, 0.0, 1.5, -2.0, 2, -1, 0])
SIGNED_OVERALLS = st.one_of(SIGNED_VALUES, st.sampled_from(["-0", "0.5", "-1e0"]))


@st.composite
def edge_records(draw):
    """(k, CriteriaRecords) whose value rows come from a small pool, so
    rows repeat; float, int and str values; at most one record with the
    wrong number of criteria, or a RatingRecord with none."""
    k = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(SIGNED_OVERALLS, st.tuples(
        *[SIGNED_VALUES] * k)), min_size=1, max_size=4))
    ids = st.sampled_from(["u1", "u2", "ü", "0"])
    records = [CriteriaRecord(draw(ids), draw(ids), criteria, overall)
               for overall, criteria in draw(st.lists(st.sampled_from(pool),
                                                      max_size=30))]
    if draw(st.booleans()):
        width = draw(st.sampled_from([k - 1, k + 1, None]))
        records.insert(draw(st.integers(0, len(records))),
                       RatingRecord("u9", "i9", 1.0) if width is None else
                       CriteriaRecord("u9", "i9", (0.0,) * width, 1.0))
    return k, records


def _values(records) -> list:
    return [v for r in records for v in (r.overall, *getattr(r, "criteria", ()))]


@settings(deadline=None, max_examples=60)
@given(edge_records())
def test_record_edge_matches_its_oracle(case):
    k, records = case
    for width in (k, None):
        try:
            want = oracles.ratings_of_records(records, width)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _Ratings.of_records(iter(records), width)
            assert str(got.value) == str(exc)
            continue
        got = _Ratings.of_records(iter(records), width)
        assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)
        for a, b in ((got.u, want.u), (got.i, want.i), (got.values, want.values)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        batches = [got] if width is None else \
            [got, CriteriaTensor.from_records(records, k, SIGNED)._ratings()]
        for batch in batches:
            recs, expected = batch.records(), oracles.batch_records(batch)
            assert recs == expected
            assert [math.copysign(1.0, v) for v in _values(recs)] == \
                [math.copysign(1.0, v) for v in _values(expected)]
            assert all(type(v) is float for v in _values(recs))
            # rows equal bit for bit share their value objects
            first = {}
            for rec, row in zip(recs, batch.values):
                same = first.setdefault(row.tobytes(), rec)
                assert rec.overall is same.overall
                assert getattr(rec, "criteria", None) is \
                    getattr(same, "criteria", None)


def test_tensor_out_of_scale_rejected():
    with pytest.raises(ValueError):
        CriteriaTensor.from_records(
            [CriteriaRecord("u", "i", (0.5, 3.0, 3.0), 3.0)], 3, ONE_TO_FIVE)
