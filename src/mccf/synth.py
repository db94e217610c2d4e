"""Synthetic multi-criteria rating generators for experiments and tests.

The generated tensor has planted structure: items fall into groups whose
criterion ratings are affine in a per-user taste factor, and the overall
rating is the mean of the criteria.  Same-group items carry identical
rating columns, the multilinear ranks are small and known, and the
criteria -> overall map is exactly linear, so a factorization-based
recommender should recover the noiseless data almost perfectly while a
global-mean predictor cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .core import (CriteriaTensor, RatingScale, _IndexMap, _SEED_BOUND,
                   _check_integer)


@dataclass(frozen=True)
class SyntheticTensorSpec:
    """Shape and noise knobs for the planted-structure generator.

    noise_std is the per-cell Gaussian sigma applied to every slice
    (criteria and overall); 0 keeps the exact planted values.
    """

    n_users: int = 60
    n_items: int = 24
    n_groups: int = 4
    n_criteria: int = 3
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("n_users", self.n_users, 2)
        _check_integer("n_items", self.n_items, 2)
        _check_integer("n_groups", self.n_groups, 1, self.n_items + 1)
        _check_integer("n_criteria", self.n_criteria)
        _check_integer("seed", self.seed, 0, _SEED_BOUND)
        sd = self.noise_std
        if isinstance(sd, bool) or not isinstance(sd, Real) or not 0 <= sd < np.inf:
            raise ValueError(f"noise_std must be a finite number >= 0, got {sd!r}")

    @property
    def ranks(self) -> tuple[int, int, int]:
        """Multilinear ranks sufficient to represent the noiseless tensor."""
        return (2, self.n_groups, min(self.n_criteria + 1, 2 * self.n_groups))


SYNTH_SCALE = RatingScale.one_to_five()


def generate_tensor(spec: SyntheticTensorSpec) -> CriteriaTensor:
    """Fully observed tensor of shape (n_users, n_items, n_criteria + 1).

    Cell (u, i, c) = base[g(i), c] + gain[g(i), c] * taste[u] with taste
    in [0, 1]; overall = mean over criteria.  Noiseless values lie inside
    [1.5, 5.0] by construction; with noise, values are clamped to the
    1-5 scale.
    """
    rng = np.random.default_rng(spec.seed)
    taste = rng.uniform(0.0, 1.0, size=spec.n_users)
    base = rng.uniform(1.5, 3.5, size=(spec.n_groups, spec.n_criteria))
    gain = rng.uniform(0.0, 1.5, size=(spec.n_groups, spec.n_criteria))

    groups = np.arange(spec.n_items) % spec.n_groups
    # crit[u, i, c] affine in taste[u]; identical columns within a group
    crit = base[groups][None, :, :] + taste[:, None, None] * gain[groups][None, :, :]
    overall = crit.mean(axis=2)
    full = np.concatenate([overall[:, :, None], crit], axis=2)

    if spec.noise_std > 0:
        full = full + rng.normal(0.0, spec.noise_std, size=full.shape)
        full = np.clip(full, SYNTH_SCALE.min_value, SYNTH_SCALE.max_value)

    # every (user, item) cell, user-major
    cells = np.divmod(np.arange(spec.n_users * spec.n_items), spec.n_items)
    return CriteriaTensor(_IndexMap([f"u{u + 1}" for u in range(spec.n_users)]),
                          _IndexMap([f"i{i + 1}" for i in range(spec.n_items)]),
                          *cells,
                          full.reshape(-1, spec.n_criteria + 1), SYNTH_SCALE)

