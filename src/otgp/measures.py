"""Distribution inputs: Gaussian measures, grid densities, empirical samples
and disk-union configurations, with validation and seeded generators.

Grid conventions: a GridDensity lives on a regular G x G grid over [0,1]^2,
weights[i, j] is the mass of the cell with y-index i and x-index j, and the
cell center is ((j + 1/2)/G, (i + 1/2)/G).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySupport, NotPositiveDefinite, NotSymmetric, ValidationError
from .rng import make_rng

SYMMETRY_RTOL = 1e-12
WEIGHT_SUM_TOL = 1e-9


def validate_spd(matrix) -> np.ndarray:
    """Check symmetry and positive definiteness; return the symmetrized matrix.

    Raises NotSymmetric if the relative asymmetry exceeds 1e-12 and
    NotPositiveDefinite if the smallest eigenvalue is <= 0.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix has non-finite entries")
    scale = np.linalg.norm(m)
    if scale == 0.0:
        raise NotPositiveDefinite("zero matrix")
    asym = np.linalg.norm(m - m.T) / scale
    if asym > SYMMETRY_RTOL:
        raise NotSymmetric(f"relative asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL}")
    sym = 0.5 * (m + m.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig <= 0.0:
        raise NotPositiveDefinite(f"minimum eigenvalue {min_eig:.3e} is not positive")
    return sym


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian distribution N(mean, cov) with an SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen(np.atleast_1d(self.mean))
        cov = _frozen(validate_spd(self.cov))
        if mean.ndim != 1 or mean.shape[0] != cov.shape[0]:
            raise ValidationError(
                f"mean of length {mean.shape} does not match cov {cov.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValidationError("mean has non-finite entries")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def same_as(self, other: "GaussianMeasure") -> bool:
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.cov, other.cov)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Probability weights on the regular G x G grid over [0,1]^2."""

    weights: np.ndarray
    grid_size: int = field(init=False)

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights have non-finite entries")
        if np.any(w < 0.0):
            raise ValidationError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "grid_size", w.shape[0])

    def cell_centers(self) -> np.ndarray:
        """(G*G, 2) array of (x, y) cell centers, flat index = iy*G + ix."""
        g = self.grid_size
        ticks = (np.arange(g) + 0.5) / g
        xx, yy = np.meshgrid(ticks, ticks)  # rows index y
        return np.column_stack([xx.ravel(), yy.ravel()])

    def support(self):
        """Indices, locations and weights of cells with positive mass."""
        flat = self.weights.ravel()
        idx = np.flatnonzero(flat > 0.0)
        return idx, self.cell_centers()[idx], flat[idx]

    def same_as(self, other: "GridDensity") -> bool:
        return np.array_equal(self.weights, other.weights)


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """m equally weighted support points in R^p, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen(np.atleast_2d(self.points))
        if pts.shape[0] < 1:
            raise ValidationError("need at least one support point")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points have non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class DiskConfig:
    """Union of equal-radius disks with centers inside the unit square."""

    radius: float
    centers: np.ndarray

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValidationError(f"radius must be positive, got {self.radius}")
        c = _frozen(np.atleast_2d(self.centers))
        if c.shape[1] != 2:
            raise ValidationError(f"centers must be (m, 2), got {c.shape}")
        if np.any(c < 0.0) or np.any(c > 1.0):
            raise ValidationError("centers must lie in [0,1]^2")
        object.__setattr__(self, "centers", c)


def disks_to_grid(cfg: DiskConfig, grid_size: int, subsamples: int = 4) -> GridDensity:
    """Rasterize the uniform distribution on a disk union to a grid density.

    Each cell is probed on a subsamples x subsamples lattice; the cell weight
    is proportional to the number of probe points falling inside the union.
    """
    if grid_size < 2:
        raise ValidationError("grid_size must be >= 2")
    g, s = grid_size, subsamples
    ticks = (np.arange(g * s) + 0.5) / (g * s)
    hit = np.zeros((g * s, g * s), dtype=bool)  # rows index y
    for cx, cy in cfg.centers:
        hit |= ((ticks - cy) ** 2)[:, None] + ((ticks - cx) ** 2)[None, :] <= cfg.radius**2
    # collapse the s x s probe blocks back onto cells
    counts = (hit.reshape(g, s, g, s).sum(axis=(1, 3))).astype(float)
    total = counts.sum()
    if total == 0:
        raise EmptySupport("no probe point lies inside any disk")
    return GridDensity(counts / total)


def rasterize_gaussian(measure: GaussianMeasure, grid_size: int) -> GridDensity:
    """Exact cell masses of a 2-D Gaussian with diagonal covariance on the
    grid, renormalized to the unit square.

    The masses factor into one normal CDF difference per axis, which holds
    only for uncorrelated axes; a non-zero off-diagonal covariance term
    raises ValidationError.
    """
    from scipy.stats import norm

    if measure.dim != 2:
        raise ValidationError("grid rasterization is defined on R^2 only")
    if measure.cov[0, 1] != 0.0:
        raise ValidationError(
            "grid rasterization needs a diagonal covariance; "
            f"got off-diagonal term {measure.cov[0, 1]:.3e}")
    g = grid_size
    edges = np.arange(g + 1) / g
    sx = float(np.sqrt(measure.cov[0, 0]))
    sy = float(np.sqrt(measure.cov[1, 1]))
    px = np.diff(norm.cdf(edges, loc=measure.mean[0], scale=sx))
    py = np.diff(norm.cdf(edges, loc=measure.mean[1], scale=sy))
    w = np.outer(py, px)  # rows index y
    total = w.sum()
    if total <= 0:
        raise EmptySupport("no Gaussian mass falls on the grid")
    return GridDensity(w / total)


def gaussian_cov_stack(n: int, d: int, rng: np.random.Generator,
                       entry_range: tuple[float, float] = (5.0, 15.0)) -> np.ndarray:
    """(n, d, d) stack of covariances A A^T with A entries uniform on
    entry_range."""
    a = rng.uniform(entry_range[0], entry_range[1], size=(n, d, d))
    return a @ np.transpose(a, (0, 2, 1))


def sample_gaussian_population(n: int, d: int, seed,
                               entry_range: tuple[float, float] = (5.0, 15.0)
                               ) -> list[GaussianMeasure]:
    """n zero-mean d-dimensional Gaussians with covariance A A^T,
    A entries uniform on entry_range."""
    if n < 1 or d < 1:
        raise ValidationError("n and d must be >= 1")
    covs = gaussian_cov_stack(n, d, make_rng(seed), entry_range)
    zero = np.zeros(d)
    return [GaussianMeasure(zero, c) for c in covs]


def regression_response(mean: np.ndarray, sigma: float) -> float:
    """Synthetic response (m1 - m2^2) / (1 + sigma) of a 2-D Gaussian input."""
    return float((mean[0] - mean[1] ** 2) / (1.0 + sigma))


def sample_regression_gaussians(n: int, seed) -> list[tuple[GaussianMeasure, float]]:
    """Isotropic 2-D Gaussian inputs with uniform means on [0.2, 0.8]^2,
    sigma uniform on [1e-4, 4e-4], paired with their responses."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = make_rng(seed)
    means = rng.uniform(0.2, 0.8, size=(n, 2))
    sigmas = rng.uniform(1e-4, 4e-4, size=n)
    out = []
    for m, s in zip(means, sigmas):
        measure = GaussianMeasure(m, s**2 * np.eye(2))
        out.append((measure, regression_response(m, s)))
    return out
