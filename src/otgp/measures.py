"""Distribution inputs: Gaussian measures, grid densities, empirical samples
and disk-union configurations, with validation and seeded generators.

Grid conventions: a GridDensity lives on a regular G x G grid over [0,1]^2,
weights[i, j] is the mass of the cell with y-index i and x-index j, and the
cell center is ((j + 1/2)/G, (i + 1/2)/G).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptySupport, GridMismatch, NotPositiveDefinite, NotSymmetric,
                     ValidationError, check_arg, check_array, renumbered)
from .rng import make_rng

SYMMETRY_RTOL = 1e-12
WEIGHT_SUM_TOL = 1e-9

# Disk-probe pairs disks_to_grid tests at once; bounds its
# (disks, width, width) window stack.
PROBE_CHUNK = 1 << 20


def symmetric_part(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||M - M^T|| / ||M|| (Frobenius, 0 for M = 0) and (M + M^T) / 2 of each M of an (n, d, d)
    stack of input numbers; a stack whose squares could underflow is scaled exactly first."""
    e = np.frexp(np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2))))[1][:, None, None]
    m = np.ldexp(stack, -e) if np.abs(e).max() > 400 else stack  # per matrix, by a power of two
    norm_sq = np.einsum("ijk,ijk->i", m, m).clip(1e-300)  # the clip acts only for M = 0
    skew = m - m.swapaxes(1, 2)
    asym = np.sqrt(np.einsum("ijk,ijk->i", skew, skew) / norm_sq)
    sym = np.add(m, m.swapaxes(1, 2), out=skew)  # one n x n array at a time: a Gram is large
    sym *= 0.5
    return asym, sym if m is stack else np.ldexp(sym, e, out=sym)


def validate_spd(matrix) -> np.ndarray:
    """Check symmetry and positive definiteness of a (d, d) matrix or of each
    matrix of an (n, d, d) stack; return the symmetrized matrix or stack.

    Each matrix must hold input numbers and be nonzero; NotSymmetric if its
    relative asymmetry exceeds 1e-12 and NotPositiveDefinite if its smallest
    eigenvalue is <= 0. On a stack the error names the first failing matrix
    and gives that matrix's first failing check; one batched eigvalsh makes
    the per-matrix LAPACK call, so a matrix checks alike alone or stacked.
    """
    try:
        m = check_array("matrix", matrix)
    except ValidationError:  # on a stack, name the first matrix refused alone
        for k in range(len(matrix) if np.asarray(matrix, dtype=object).ndim == 3 else 0):
            with renumbered([k]):
                validate_spd(matrix[k])
        raise
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    stack = m.reshape(-1, *m.shape[-2:])
    asym, sym = symmetric_part(stack)
    min_eig = np.linalg.eigvalsh(sym)[:, 0]
    failed = ~stack.any(axis=(1, 2)) | (asym > SYMMETRY_RTOL) | (min_eig <= 0.0)
    if failed.any():
        k = int(np.argmax(failed))
        item = k if m.ndim == 3 else None
        if not stack[k].any():
            raise NotPositiveDefinite("zero matrix", item)
        if asym[k] > SYMMETRY_RTOL:
            raise NotSymmetric(f"relative asymmetry {asym[k]:.3e} exceeds {SYMMETRY_RTOL}", item)
        raise NotPositiveDefinite(f"minimum eigenvalue {min_eig[k]:.3e} is not positive", item)
    return sym.reshape(m.shape)


def grid_ticks(g: int) -> np.ndarray:
    """The g cell-center coordinates (k + 1/2)/g of [0, 1] cut into g cells."""
    return (np.arange(g) + 0.5) / g


def _frozen(a, what: str) -> np.ndarray:
    a = check_array(what, a).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Gaussian distribution N(mean, cov) with an SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = _frozen(validate_spd(check_array("cov", self.cov)), "cov")  # before the mean
        mean = np.atleast_1d(_frozen(self.mean, "mean"))
        if mean.ndim != 1 or cov.ndim != 2 or mean.shape[0] != cov.shape[0]:
            raise ValidationError(
                f"mean of length {mean.shape} does not match cov {cov.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def same_as(self, other: "GaussianMeasure") -> bool:
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.cov, other.cov)


def gaussian_measures(means, covs) -> list[GaussianMeasure]:
    """GaussianMeasures of an (n, d) stack of means and an (n, d, d) stack of
    covariances, given the checks GaussianMeasure makes on one measure once
    for the whole stacks; each holds read-only row views of them. An error
    names the first failing item."""
    try:
        means, covs = check_array("means", means), check_array("covariances", covs)
    except ValidationError:  # name the first item refused alone
        stacked = [np.asarray(x, dtype=object).ndim for x in (means, covs)] == [2, 3]
        for k in range(min(len(means), len(covs)) if stacked else 0):
            with renumbered([k]):
                GaussianMeasure(means[k], covs[k])
        raise
    if means.ndim != 2 or covs.ndim != 3 or covs.shape[:2] != means.shape:
        raise ValidationError(
            f"means of shape {means.shape} do not match covariances of shape {covs.shape}")
    covs = validate_spd(covs)
    means = means.copy()
    means.flags.writeable = covs.flags.writeable = False
    out = []
    for mean, cov in zip(means, covs):
        measure = object.__new__(GaussianMeasure)  # checked above; skip __post_init__
        object.__setattr__(measure, "mean", mean)
        object.__setattr__(measure, "cov", cov)
        out.append(measure)
    return out


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Probability weights on the regular G x G grid over [0,1]^2."""

    weights: np.ndarray
    grid_size: int = field(init=False)

    def __post_init__(self):
        w = _frozen(self.weights, "weights")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights must be square, got shape {w.shape}")
        if np.any(w < 0.0):
            raise ValidationError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "grid_size", w.shape[0])

    def cell_centers(self) -> np.ndarray:
        """(G*G, 2) array of (x, y) cell centers, flat index = iy*G + ix."""
        ticks = grid_ticks(self.grid_size)
        xx, yy = np.meshgrid(ticks, ticks)  # rows index y
        return np.column_stack([xx.ravel(), yy.ravel()])

    def support(self):
        """Flat indices and weights of the cells with positive mass; their
        locations are cell_centers()[idx]."""
        flat = self.weights.ravel()
        idx = np.flatnonzero(flat > 0.0)
        return idx, flat[idx]

    def same_as(self, other: "GridDensity") -> bool:
        return np.array_equal(self.weights, other.weights)


def common_grid_size(densities) -> int | None:
    """The side of the grid all densities lie on (None for none); GridMismatch
    naming the first one off the first one's grid, with both sides."""
    sizes = [d.grid_size for d in densities]
    for k, g in enumerate(sizes):
        if g != sizes[0]:
            raise GridMismatch(f"grid of size {g} unlike item 0's {sizes[0]}", k)
    return sizes[0] if sizes else None


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """m equally weighted support points in R^p, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(_frozen(self.points, "points"))
        if pts.shape[0] < 1:
            raise ValidationError("need at least one support point")
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
        object.__setattr__(self, "radius", check_arg("radius", self.radius, "finite and positive"))
        c = np.atleast_2d(_frozen(self.centers, "centers"))
        if c.shape[1] != 2:
            raise ValidationError(f"centers must be (m, 2), got {c.shape}")
        if not ((c >= 0.0) & (c <= 1.0)).all():  # NaN fails both
            raise ValidationError("centers must lie in [0,1]^2")
        object.__setattr__(self, "centers", c)


def _normalized(masses: np.ndarray, empty: str) -> GridDensity:
    """GridDensity of nonnegative cell masses; EmptySupport(empty) if all are zero."""
    total = masses.sum()
    if total <= 0:
        raise EmptySupport(empty)
    return GridDensity(masses / total)


def disks_to_grid(cfg: DiskConfig, grid_size: int, subsamples: int = 4) -> GridDensity:
    """Rasterize the uniform distribution on a disk union to a grid density.

    Each cell is probed on a subsamples x subsamples lattice; the cell weight
    is proportional to the number of probe points falling inside the union.
    """
    check_arg("grid_size", grid_size, ">= 2")
    check_arg("subsamples", subsamples, ">= 1")
    g, s, r = grid_size, subsamples, cfg.radius
    n = g * s
    ticks = grid_ticks(n)
    # one window of probes per disk and axis (y, x), all as wide as the
    # widest: only probes within radius of the center (plus one tick) can
    # hit it; the padding past a window's end is at squared distance inf
    c = cfg.centers[:, ::-1]
    lo = np.maximum(np.floor((c - r) * g * s - 0.5) - 1, 0).astype(int)
    hi = np.minimum(np.ceil((c + r) * g * s - 0.5) + 2, n).astype(int)
    idx = lo[:, :, None] + np.arange((hi - lo).max())
    d2 = np.where(idx < hi[:, :, None], (ticks[np.minimum(idx, n - 1)] - c[:, :, None]) ** 2,
                  np.inf)
    hit = np.zeros(n * n, dtype=bool)  # flat probe index y * n + x
    step = max(1, PROBE_CHUNK // idx.shape[2] ** 2)
    for first in range(0, len(c), step):
        (y, x), (dy, dx) = (arr[first:first + step].transpose(1, 0, 2) for arr in (idx, d2))
        hit[(y[:, :, None] * n + x[:, None, :])[dy[:, :, None] + dx[:, None, :] <= r**2]] = True
    # collapse the s x s probe blocks back onto cells
    probes = np.flatnonzero(hit)
    counts = np.bincount(probes // n // s * g + probes % n // s, minlength=g * g)
    return _normalized(counts.reshape(g, g).astype(float), "no probe point lies inside any disk")


def rasterize_gaussian(measure: GaussianMeasure, grid_size: int) -> GridDensity:
    """Exact cell masses of a 2-D Gaussian with diagonal covariance on the
    grid, renormalized to the unit square.

    The masses factor into one normal CDF difference per axis, which holds
    only for uncorrelated axes; a non-zero off-diagonal covariance term
    raises ValidationError.
    """
    from scipy.special import ndtr

    check_arg("grid_size", grid_size, ">= 2")
    if measure.dim != 2:
        raise ValidationError("grid rasterization is defined on R^2 only")
    if measure.cov[0, 1] != 0.0:
        raise ValidationError(
            "grid rasterization needs a diagonal covariance; "
            f"got off-diagonal term {measure.cov[0, 1]:.3e}")
    edges = np.arange(grid_size + 1) / grid_size
    sd = np.sqrt(measure.cov.diagonal())
    px, py = (np.diff(ndtr((edges - measure.mean[k]) / sd[k])) for k in (0, 1))
    w = np.outer(py, px)  # rows index y
    return _normalized(w, "no Gaussian mass falls on the grid")


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
    check_arg("n", n, ">= 1")
    check_arg("d", d, ">= 1")
    covs = gaussian_cov_stack(n, d, make_rng(seed), entry_range)
    return gaussian_measures(np.zeros((n, d)), covs)


def regression_response(mean: np.ndarray, sigma: float) -> float:
    """Synthetic response (m1 - m2^2) / (1 + sigma) of a 2-D Gaussian input."""
    return float((mean[0] - mean[1] ** 2) / (1.0 + sigma))


def sample_regression_gaussians(n: int, seed) -> list[tuple[GaussianMeasure, float]]:
    """Isotropic 2-D Gaussian inputs with uniform means on [0.2, 0.8]^2,
    sigma uniform on [1e-4, 4e-4], paired with their responses."""
    check_arg("n", n, ">= 1")
    rng = make_rng(seed)
    means = rng.uniform(0.2, 0.8, size=(n, 2))
    sigmas = rng.uniform(1e-4, 4e-4, size=n)
    # float_power is the libm pow of the scalar s**2 these draws always used;
    # sigmas**2 squares, which differs in the last bit on about 0.1% of draws
    measures = gaussian_measures(means, np.float_power(sigmas, 2)[:, None, None] * np.eye(2))
    return [(x, regression_response(m, s)) for x, m, s in zip(measures, means, sigmas)]
