import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import DESK_MATRIX, dataset_from_dense
from mccf.core import (
    CriteriaRecord,
    CriteriaTensor,
    Dataset,
    RatingRecord,
    RatingScale,
    _IndexMap,
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
    assert (s.min_value, s.max_value, s.levels) == (1.0, 5.0, 5)
    assert s.span == 4.0
    assert s.grade_labels is None


def test_letter_scale():
    s = RatingScale.letter_13()
    assert s.levels == 13
    assert s.grade_labels[0] == "F"
    assert s.grade_labels[-1] == "A+"
    assert len(set(s.grade_labels)) == 13


def test_scale_validation():
    with pytest.raises(ValueError):
        RatingScale(5.0, 1.0, 5)
    with pytest.raises(ValueError):
        RatingScale(1.0, 5.0, 1)
    with pytest.raises(ValueError):
        RatingScale(1.0, 5.0, 5, ("a", "b"))
    with pytest.raises(ValueError):
        # labels require unit-spaced levels
        RatingScale(1.0, 2.0, 3, ("a", "b", "c"))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_clamp_total(value):
    out = ONE_TO_FIVE.clamp(value)
    assert 1.0 <= out <= 5.0
    if ONE_TO_FIVE.contains(value):
        assert out == value


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
    assert d.rating(d.user_index("alice"), d.item_index("x")) == 5.0
    assert d.rating(d.user_index("bob"), d.item_index("x")) is None
    assert d.n_ratings == 4


def test_duplicates_keep_last():
    d = Dataset.from_records(
        RECORDS + [RatingRecord("alice", "x", 2.0)], ONE_TO_FIVE)
    assert d.duplicates == 1
    assert d.n_ratings == 4
    assert d.rating(0, 0) == 2.0


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
            CriteriaTensor(users, items, 1, u_idx, i_idx, np.ones((2, 2)),
                           ONE_TO_FIVE)
    with pytest.raises(ValueError):
        Dataset(users, items, np.array([0, 1]), np.array([0, 1]),
                np.array([1.0]), ONE_TO_FIVE)


def test_with_dense_values():
    d = Dataset.from_records(RECORDS, ONE_TO_FIVE)
    replaced = d.with_dense_values(np.full((3, 2), 2.5))
    assert replaced.user_ids == d.user_ids
    assert replaced.item_ids == d.item_ids
    assert np.array_equal(replaced.to_mask(), d.to_mask())
    assert replaced.rating(0, 0) == 2.5
    with pytest.raises(ValueError):
        d.with_dense_values(np.zeros((2, 2)))


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
        assert d2.rating(d2.user_index(rec.user_id),
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
        assert d.rating(d.user_index(uid), d.item_index(iid)) == val


MC_RECORDS = [
    CriteriaRecord("alice", "x", (4.0, 5.0, 3.0), 4.0),
    CriteriaRecord("bob", "x", (2.0, 1.0, 3.0), 2.0),
    CriteriaRecord("alice", "y", (5.0, 5.0, 4.0), 5.0),
]


def test_tensor_basics():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    assert (t.n_users, t.n_items, t.k, t.n_cells) == (2, 2, 3, 3)
    cell = t.cell(t.user_index("bob"), t.item_index("x"))
    assert cell.tolist() == [2.0, 2.0, 1.0, 3.0]
    assert t.cell(t.user_index("bob"), t.item_index("y")) is None
    assert t.user_id(0) == "alice" and t.item_id(1) == "y"


def test_tensor_wrong_arity():
    with pytest.raises(ValueError):
        CriteriaTensor.from_records(MC_RECORDS, 2, ONE_TO_FIVE)
    # an overall rating alone is no multi-criteria cell
    with pytest.raises(ValueError, match="k >= 1"):
        CriteriaTensor.from_records([CriteriaRecord("a", "x", (), 3.0)], 0,
                                    ONE_TO_FIVE)


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
    assert overall.rating(0, 0) == 4.0
    assert c2.rating(0, 0) == 5.0
    dense = t.to_dense()
    assert np.array_equal(overall.to_dense(), dense[:, :, 0], equal_nan=True)
    assert np.array_equal(c2.to_dense(), dense[:, :, 2], equal_nan=True)


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
    assert t.cell(0, 0).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_tensor_record_roundtrip():
    t = CriteriaTensor.from_records(MC_RECORDS, 3, ONE_TO_FIVE)
    t2 = CriteriaTensor.from_records(list(t.iter_records()), 3, ONE_TO_FIVE)
    assert np.array_equal(t.to_dense(), t2.to_dense(), equal_nan=True)
    assert np.array_equal(t.to_mask(), t2.to_mask())


def test_tensor_out_of_scale_rejected():
    with pytest.raises(ValueError):
        CriteriaTensor.from_records(
            [CriteriaRecord("u", "i", (0.5, 3.0, 3.0), 3.0)], 3, ONE_TO_FIVE)
