"""Seeded MovieLens-shaped input generators for the benchmark.

Both generators draw (user, item) pairs independently: users from a Zipf
law over user rank, items from a Zipf law over item rank, with the rank
order shuffled so ids carry no popularity information.  Repeated draws of
one pair stay in the file, as in real logs; the library keeps the last.
Records are written in draw order, never grouped by user or item.

Ratings carry a planted signal, so MAE and F1 move when predictions move:

  plain:  round(3.6 + user_bias + item_quality + taste[u] . load[i]
                + noise), clipped to 1-5
  mc:     criterion c = 3.4 + user_bias + item_quality
                        + taste[u] . load[i, c] + noise, clipped and rounded;
          overall = rounded mean of the criteria plus its own small noise

Uniform ratings would make every predictor equally bad (MAE near 1.25,
F1 near 0.003), which hides a change in prediction quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


USER_EXPONENT = 0.6
ITEM_EXPONENT = 0.8
TASTE_RANK = 3


@dataclass(frozen=True)
class PlainShape:
    users: int
    items: int
    draws: int


@dataclass(frozen=True)
class McShape:
    users: int
    items: int
    criteria: int
    draws: int


ML100K = PlainShape(users=943, items=1682, draws=100_000)
MC = McShape(users=500, items=300, criteria=4, draws=52_000)


def _zipf_draw(rng: np.random.Generator, n: int, exponent: float,
               size: int) -> np.ndarray:
    """Indices 0..n-1 with P(rank r) proportional to r**-exponent; the
    rank -> index map is a seeded permutation."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    ranks = np.minimum(ranks, n - 1)
    return rng.permutation(n)[ranks]


def _stratified_normal(rng: np.random.Generator, sigma: float,
                       shape: tuple[int, ...]) -> np.ndarray:
    """N(0, sigma) quantiles at evenly spaced probabilities, shuffled
    along the first axis independently for every other index.  Every seed
    gets the same spread of planted values and only their assignment to
    ids changes, so signal strength, and with it MAE and F1, does not
    drift from seed to seed."""
    n = shape[0]
    q = np.array([NormalDist(0.0, sigma).inv_cdf((k + 0.5) / n)
                  for k in range(n)])
    cols = [rng.permutation(q) for _ in range(int(np.prod(shape[1:])))]
    return np.column_stack(cols).reshape(shape)


def _draw_pairs(rng: np.random.Generator, shape):
    u = _zipf_draw(rng, shape.users, USER_EXPONENT, shape.draws)
    i = _zipf_draw(rng, shape.items, ITEM_EXPONENT, shape.draws)
    return u, i


def plain_ratings(shape: PlainShape, seed: int):
    """(user index, item index, rating, timestamp) arrays in draw order."""
    rng = np.random.default_rng([seed, 1])
    u, i = _draw_pairs(rng, shape)
    user_bias = _stratified_normal(rng, 0.45, (shape.users,))
    item_quality = _stratified_normal(rng, 0.5, (shape.items,))
    taste = _stratified_normal(rng, 1.0, (shape.users, TASTE_RANK))
    load = _stratified_normal(rng, 0.5, (shape.items, TASTE_RANK))
    noise = rng.normal(0.0, 0.5, shape.draws)
    raw = (3.6 + user_bias[u] + item_quality[i]
           + np.einsum("dr,dr->d", taste[u], load[i]) + noise)
    rating = np.clip(np.rint(raw), 1, 5).astype(np.int64)
    timestamp = 874_724_710 + np.sort(rng.integers(0, 2 * 10 ** 8, shape.draws))
    return u, i, rating, timestamp


def mc_ratings(shape: McShape, seed: int):
    """(user index, item index, (draws, criteria + 1) ratings) in draw
    order; column 0 of the ratings is the overall."""
    rng = np.random.default_rng([seed, 2])
    u, i = _draw_pairs(rng, shape)
    k = shape.criteria
    user_bias = _stratified_normal(rng, 0.4, (shape.users,))
    item_quality = _stratified_normal(rng, 0.5, (shape.items,))
    taste = _stratified_normal(rng, 1.0, (shape.users, TASTE_RANK))
    load = _stratified_normal(rng, 0.35, (shape.items, k, TASTE_RANK))
    raw = (3.4 + user_bias[u, None] + item_quality[i, None]
           + np.einsum("dr,dcr->dc", taste[u], load[i])
           + rng.normal(0.0, 0.5, (shape.draws, k)))
    criteria = np.clip(np.rint(raw), 1, 5)
    overall = np.clip(np.rint(criteria.mean(axis=1)
                              + rng.normal(0.0, 0.3, shape.draws)), 1, 5)
    values = np.column_stack([overall, criteria]).astype(np.int64)
    return u, i, values


def write_plain(path, shape: PlainShape, seed: int) -> None:
    """MovieLens u.data layout: ``user TAB item TAB rating TAB timestamp``."""
    u, i, rating, ts = plain_ratings(shape, seed)
    cells = np.column_stack([u + 1, i + 1, rating, ts]).ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d\t%d\t%d\t%d\n" * shape.draws % tuple(cells))


def write_mc(path, shape: McShape, seed: int) -> None:
    """mc-csv layout: ``user,item,c1,...,ck,overall``."""
    u, i, values = mc_ratings(shape, seed)
    order = list(range(1, shape.criteria + 1)) + [0]
    cells = np.column_stack([u + 1, i + 1, values[:, order]]).ravel().tolist()
    line = "u%d,i%d" + ",%d" * (shape.criteria + 1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line * shape.draws % tuple(cells))


def shape_stats(users: np.ndarray, items: np.ndarray) -> dict:
    """Shape actually produced by one draw: distinct users, items and
    cells, repeated draws, and fill density over the distinct ids."""
    n_users = int(np.unique(users).size)
    n_items = int(np.unique(items).size)
    cells = int(np.unique(users.astype(np.int64) * (1 << 32) + items).size)
    return {
        "users": n_users,
        "items": n_items,
        "draws": int(users.size),
        "distinct_cells": cells,
        "duplicates": int(users.size) - cells,
        "density": cells / (n_users * n_items),
    }
