import tracemalloc

import numpy as np
import pytest

from mccf.core import Dataset, RatingScale
from mccf.core import _IndexMap

NAN = np.nan

# Fixed 6-user x 8-item desk dataset; NaN cells are unrated.  Chosen so
# every item has >= 3 raters, several pairs correlate negatively, and no
# column is constant.
DESK_MATRIX = np.array([
    # i0   i1   i2   i3   i4   i5   i6   i7
    [5.0, 3.0, 4.0, 4.0, NAN, 1.0, 2.0, NAN],   # u0
    [3.0, 1.0, 2.0, 3.0, 3.0, NAN, 4.0, NAN],   # u1
    [4.0, 3.0, 4.0, 3.0, 5.0, 2.0, NAN, 3.0],   # u2
    [3.0, 3.0, 1.0, 5.0, 4.0, 3.0, 2.0, NAN],   # u3
    [1.0, 5.0, 5.0, 2.0, 1.0, NAN, 3.0, 2.0],   # u4
    [NAN, 4.0, NAN, 4.0, 2.0, 5.0, NAN, 3.0],   # u5
])


def dataset_from_dense(matrix: np.ndarray,
                       scale: RatingScale | None = None) -> Dataset:
    """Dataset whose internal index u/i equals the dense row/column.

    Built with explicit index maps (not from_records, whose first-appearance
    order would permute indices when the matrix has holes) so tests can
    address cells positionally; rows/columns with no rating stay present.
    """
    if scale is None:
        scale = RatingScale.one_to_five()
    m, n = matrix.shape
    u_idx, i_idx = np.nonzero(~np.isnan(matrix))
    return Dataset(_IndexMap([f"u{u}" for u in range(m)]),
                   _IndexMap([f"i{i}" for i in range(n)]),
                   u_idx.astype(np.int64), i_idx.astype(np.int64),
                   matrix[u_idx, i_idx].astype(np.float64), scale)


def random_dataset(seed: int, n_users: int = 30, n_items: int = 12,
                   fill: float = 0.5) -> Dataset:
    """Sparse random 1-5 dataset where every user and item has a rating."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n_users, n_items)) < fill,
                     rng.integers(1, 6, (n_users, n_items)).astype(float),
                     np.nan)
    for u in range(n_users):                      # no empty rows/columns
        if np.isnan(dense[u]).all():
            dense[u, rng.integers(n_items)] = float(rng.integers(1, 6))
    for i in range(n_items):
        if np.isnan(dense[:, i]).all():
            dense[rng.integers(n_users), i] = float(rng.integers(1, 6))
    return dataset_from_dense(dense)


def traced(fn):
    """(fn(), peak, held): the bytes the call held at its peak and at its
    end, beyond what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - base, held - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def desk() -> Dataset:
    return dataset_from_dense(DESK_MATRIX)
