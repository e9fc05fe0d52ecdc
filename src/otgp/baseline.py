"""Kernel-smoothing baseline for distribution regression.

Predicts by a triangular-kernel weighted average of training responses, with
L1 distances between grid densities and a bandwidth selected on a
deterministic sample split. No uncertainty output exists for this method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDistances, SizeMismatch, ValidationError, check_arg, check_array
from .measures import GridDensity, common_grid_size
from .rng import make_rng

N_BANDWIDTH_CANDIDATES = 20

# L1 distances within this of the maximum 2 (disjoint supports) snap to 2, so
# such pairs weigh exactly 0 at bandwidth 2 in whatever order they were summed.
L1_MAX_SNAP = 1e-12


def _stack(grids) -> np.ndarray:
    """Flattened cell masses, one row per density, all on one grid."""
    common_grid_size(grids)
    return np.array([g.weights.ravel() for g in grids])


def _training(grids, y) -> tuple[np.ndarray, np.ndarray]:
    """The rows (_stack) and responses of one or more grids, as many as responses."""
    y = check_array("y", y)
    if not grids or y.shape != (len(grids),):
        raise SizeMismatch("need one or more grids, as many as responses")
    return _stack(grids), y


def _l1_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Snapped L1 distances between the rows of a and the rows of b."""
    from scipy.spatial.distance import cdist

    dist = cdist(a, b, "cityblock")
    dist[dist >= 2.0 - L1_MAX_SNAP] = 2.0
    return dist


def l1_density_distance(a: GridDensity, b: GridDensity) -> float:
    """Total variation style L1 distance between cell masses, in [0, 2]."""
    rows = _stack((a, b))
    return float(_l1_matrix(rows[:1], rows[1:])[0, 0])


@dataclass(frozen=True)
class SmootherModel:
    grids: tuple
    y: np.ndarray
    bandwidth: float
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # _stack(grids)

    def __post_init__(self):
        bandwidth = check_arg("bandwidth", self.bandwidth, "finite and positive")
        rows, y = _training(self.grids, self.y)
        for name, value in (("bandwidth", bandwidth), ("y", y), ("rows", rows)):
            object.__setattr__(self, name, value)


class SmootherPrediction(NamedTuple):
    value: float
    fallback: bool  # True when no neighbor fell inside the bandwidth


def _triangular_average(dists: np.ndarray, y: np.ndarray, h: float):
    """Triangular-kernel average of y per row of dists, and its fallback flag."""
    w = np.maximum(0.0, 1.0 - dists / h)
    total = w.sum(axis=1)
    fallback = total == 0.0
    return np.divide((w * y).sum(axis=1), total, out=np.full(len(total), y.mean()),
                     where=~fallback), fallback


def smoother_predict(model: SmootherModel, query: GridDensity) -> SmootherPrediction:
    """Triangular-kernel weighted average of the training responses; falls
    back to the global mean (flagged) when every weight vanishes."""
    common_grid_size((model.grids[0], query))
    value, fallback = _triangular_average(_l1_matrix(query.weights.reshape(1, -1), model.rows),
                                          model.y, model.bandwidth)
    return SmootherPrediction(float(value[0]), bool(fallback[0]))


def select_bandwidth(grids, y, candidates=None, split_seed: int = 0) -> float:
    """Pick the candidate bandwidth minimizing held-out MSE on a
    deterministic 50/50 split; ties go to the smaller bandwidth."""
    rows, y = _training(list(grids), y)
    n = len(rows)
    if n < 4:
        raise ValidationError("need at least 4 training points to split")
    pairwise = _l1_matrix(rows, rows)
    if candidates is None:  # log-spaced, spanning the positive pairwise distances
        off = pairwise[np.triu_indices(n, 1)]
        if not (off > 0).any():
            raise DegenerateDistances("all pairwise distances are zero")
        candidates = np.geomspace(off[off > 0].min(), off.max(), N_BANDWIDTH_CANDIDATES)
    candidates = check_array("candidates", candidates)
    if candidates.ndim != 1 or not candidates.size:
        raise ValidationError(f"candidates must be a nonempty list, got shape {candidates.shape}")
    check_arg("candidates", candidates.min(), "finite and positive")  # the bandwidth's rule
    candidates = np.sort(candidates)

    # fixed salt keeps the split stream apart from data-generation streams
    perm = make_rng((0x5B17, split_seed)).permutation(n)
    fit_idx, val_idx = perm[: n // 2], perm[n // 2:]
    held_out = pairwise[np.ix_(val_idx, fit_idx)]
    preds = np.array([_triangular_average(held_out, y[fit_idx], h)[0] for h in candidates])
    mse = ((preds - y[val_idx]) ** 2).mean(axis=1)
    return float(candidates[np.argmin(mse)])  # the first minimum: ties keep smaller h


def fit_smoother(grids, y, split_seed: int = 0) -> SmootherModel:
    """Select a bandwidth, then keep the full training set for prediction."""
    h = select_bandwidth(grids, y, split_seed=split_seed)
    return SmootherModel(grids=tuple(grids), y=y, bandwidth=h)
