"""Distribution kernels via transport-map embeddings.

Each input distribution is represented by the (approximate) inverse transport
map from a shared reference distribution. Both embeddings are explicit
vectors (the linear-OT embedding of Wang et al., IJCV 2013), so the
L2(reference) distance between two maps is the Euclidean distance between two
rows of one feature matrix, and a radial positive definite function of it is
a positive definite kernel on distributions. Also houses the parametric
kernel used for regression, Gram assembly, the PSD spectrum diagnostic, and
the naive exp(-W2^2) kernel used as a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymmetric, ReferenceMismatch, ValidationError
from .measures import GaussianMeasure, GridDensity
from .ot import _psd_sqrt_batch, inverse_grid_map, sqrtm_spd

# Embedding distances below this snap to exactly zero so the nugget indicator
# fires on identical inputs despite round-off.
DISTANCE_SNAP = 1e-12

# Pairs whose Bures cross terms naive_w2_gram diagonalizes at once; bounds
# the (pairs, d, d) stack.
PAIR_CHUNK = 4096


@dataclass(frozen=True)
class KernelParams:
    """Parameters of the regression kernel
    amplitude^2 * exp(-rate * d^exponent) + nugget * 1{d == 0}.

    KernelParams(1, 1, 2, 0) is the unit square-exponential kernel."""

    amplitude: float
    rate: float
    exponent: float
    nugget: float

    def __post_init__(self):
        if self.amplitude < 0 or self.rate < 0 or self.nugget < 0:
            raise ValidationError("amplitude, rate and nugget must be nonnegative")
        if not (0.0 < self.exponent <= 2.0):
            raise ValidationError("exponent must lie in (0, 2]")

    def as_array(self) -> np.ndarray:
        return np.array([self.amplitude, self.rate, self.exponent, self.nugget])

    @classmethod
    def from_array(cls, arr) -> "KernelParams":
        return cls(*(float(x) for x in arr))


# Search boxes for fitted parameters, in as_array order.
DEFAULT_BOUNDS = ((0.05, 10.0), (0.01, 10.0), (0.5, 2.0), (1e-5, 1.0))


def params_in_box(theta: KernelParams, bounds=DEFAULT_BOUNDS) -> bool:
    return all(lo <= v <= hi for v, (lo, hi) in zip(theta.as_array(), bounds))


@dataclass(frozen=True, eq=False)
class Embedding:
    """Inputs embedded against one reference, one row of X (n, p) each.

    The Euclidean distance between two rows is the L2(reference) distance
    between the inputs' inverse transport maps:
      - Gaussian input N(m, S) against N(., Sbar):
        [m, vec((Sbar^1/2 S Sbar^1/2)^1/2 Sbar^-1/2)], p = d + d^2;
      - grid input: sqrt(w) * (location each reference support cell is sent
        to), flattened, with w the normalized reference weights; p is twice
        the reference support size.
    len() is n; indexing returns the selected rows as an Embedding.
    """

    reference: GaussianMeasure | GridDensity
    X: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        width = _row_width(self.reference)
        if x.ndim != 2 or x.shape[1] != width:
            raise ValidationError(
                f"feature matrix of shape {x.shape} does not fit the reference "
                f"(expected {width} columns)")
        if not np.all(np.isfinite(x)):
            raise ValidationError("feature matrix has non-finite entries")
        object.__setattr__(self, "X", x)

    def __len__(self) -> int:
        return len(self.X)

    def __getitem__(self, index) -> "Embedding":
        return Embedding(self.reference, np.atleast_2d(self.X[index]))


def _row_width(reference: GaussianMeasure | GridDensity) -> int:
    if isinstance(reference, GaussianMeasure):
        return reference.dim * (reference.dim + 1)
    return 2 * np.count_nonzero(reference.weights)


def embed_gaussians(measures, reference: GaussianMeasure) -> Embedding:
    """Closed-form inverse transport maps from the reference to each measure,
    from one batched eigendecomposition of the sandwiches Sbar^1/2 S Sbar^1/2."""
    d, n = reference.dim, len(measures)
    if any(m.dim != d for m in measures):
        raise DimensionMismatch(f"measures must have the reference dimension {d}")
    means = np.array([m.mean for m in measures]).reshape(n, d)
    covs = np.array([m.cov for m in measures]).reshape(n, d, d)
    pair = sqrtm_spd(reference.cov)
    maps = _psd_sqrt_batch(pair.sqrt @ covs @ pair.sqrt) @ pair.inv_sqrt
    return Embedding(reference, np.hstack([means, maps.reshape(n, d * d)]))


def embed_grids(densities, reference: GridDensity, lam: float = 20.0,
                max_iter: int = 10000, tol: float = 1e-9) -> Embedding:
    """Sinkhorn-and-round inverse maps from the reference support to each
    density's support."""
    rows = []
    for d in densities:
        a = inverse_grid_map(d, reference, lam=lam, max_iter=max_iter, tol=tol)
        rows.append((np.sqrt(a.source_weights)[:, None] * a.mapped_locations()).ravel())
    return Embedding(reference, np.array(rows).reshape(len(rows), _row_width(reference)))


def _snap(dist: np.ndarray) -> np.ndarray:
    dist[dist < DISTANCE_SNAP] = 0.0
    return dist


def pairwise_distances(features: Embedding) -> np.ndarray:
    """Symmetric matrix of snapped embedding distances."""
    from scipy.spatial.distance import pdist, squareform

    return _snap(squareform(pdist(features.X)))


def cross_distances(a: Embedding, b: Embedding) -> np.ndarray:
    """(len(a), len(b)) matrix of snapped embedding distances; both must
    embed against the same reference."""
    from scipy.spatial.distance import cdist

    ra, rb = a.reference, b.reference
    if ra is not rb and (type(ra) is not type(rb) or not ra.same_as(rb)):
        raise ReferenceMismatch("embeddings use different references")
    return _snap(cdist(a.X, b.X))


def _radial(dist: np.ndarray, theta: KernelParams) -> np.ndarray:
    """amplitude^2 * exp(-rate * dist^exponent) in one new array: an n x n
    kernel costs one n x n allocation, not one per operation."""
    k = dist**theta.exponent
    k *= -theta.rate
    np.exp(k, out=k)
    k *= theta.amplitude**2
    return k


def gram_from_distances(dist: np.ndarray, theta: KernelParams) -> np.ndarray:
    """Gram matrix from a snapped distance matrix. The nugget is applied on
    the diagonal only: off-diagonal zero distances (duplicated inputs) carry
    the plain radial value."""
    k = _radial(dist, theta)
    k.flat[::len(k) + 1] += theta.nugget
    return k


def gram_matrix(features: Embedding, theta: KernelParams) -> np.ndarray:
    return gram_from_distances(pairwise_distances(features), theta)


def cross_kernel(a: Embedding, b: Embedding, theta: KernelParams) -> np.ndarray:
    """Regression kernel between the rows of a and of b; the nugget fires
    exactly where the snapped embedding distance is zero."""
    dist = cross_distances(a, b)
    k = _radial(dist, theta)
    k[dist == 0.0] += theta.nugget
    return k


@dataclass(frozen=True)
class PsdReport:
    """Spectrum of a symmetric matrix with a count of clearly negative
    eigenvalues."""

    eigenvalues: np.ndarray  # ascending
    negatives: int
    threshold: float

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_abs_eigenvalue(self) -> float:
        return float(np.abs(self.eigenvalues).max())


def psd_diagnostic(matrix, tol: float = 1e-8) -> PsdReport:
    """Sorted spectrum and the number of eigenvalues below -tol * |lambda|max."""
    m = np.asarray(matrix, dtype=float)
    scale = np.linalg.norm(m)
    if scale > 0 and np.linalg.norm(m - m.T) / scale > 1e-12:
        raise NotSymmetric("matrix is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    threshold = tol * float(np.abs(eig).max()) if eig.size else 0.0
    return PsdReport(eigenvalues=eig, negatives=int((eig < -threshold).sum()),
                     threshold=threshold)


def naive_w2_gram(measures) -> np.ndarray:
    """exp(-W2^2) Gram: the direct Wasserstein kernel that fails to be
    positive definite beyond one dimension; kept as the diagnostic negative
    control.

    Entry for entry the same closed form as ot.gaussian_w2: each covariance
    is square-rooted once, and each pair takes the root of the argument that
    comes second in gaussian_w2's canonical order. The Bures cross terms come
    from one batched eigvalsh per PAIR_CHUNK pairs.
    """
    n = len(measures)
    if len({m.dim for m in measures}) > 1:
        raise DimensionMismatch("measures differ in dimension")
    out = np.ones((n, n))
    if n < 2:
        return out
    means = np.array([m.mean for m in measures])
    covs = np.array([m.cov for m in measures])
    roots = np.array([sqrtm_spd(c).sqrt for c in covs])
    traces = np.trace(covs, axis1=1, axis2=2)
    keys = [(m.mean.tobytes(), m.cov.tobytes()) for m in measures]
    rank = np.empty(n, dtype=int)
    rank[sorted(range(n), key=keys.__getitem__)] = np.arange(n)
    i, j = np.triu_indices(n, 1)
    first = rank[i] < rank[j]
    a, b = np.where(first, i, j), np.where(first, j, i)
    sq = np.empty(len(i))
    for s in range(0, len(i), PAIR_CHUNK):
        pa, pb = a[s:s + PAIR_CHUNK], b[s:s + PAIR_CHUNK]
        cross = np.linalg.eigvalsh(roots[pb] @ covs[pa] @ roots[pb])
        bures = traces[pa] + traces[pb] - 2.0 * np.sqrt(np.clip(cross, 0.0, None)).sum(axis=1)
        mean_sq = ((means[pa] - means[pb]) ** 2).sum(axis=1)
        same = (means[pa] == means[pb]).all(axis=1) & (covs[pa] == covs[pb]).all(axis=(1, 2))
        sq[s:s + PAIR_CHUNK] = np.where(same, 0.0, mean_sq + np.maximum(bures, 0.0))
    out[i, j] = out[j, i] = np.exp(-sq)
    return out
