"""Distribution kernels via transport-map embeddings.

Each input distribution is represented by the (approximate) inverse transport
map from a shared reference distribution. Both embeddings are explicit
vectors (the linear-OT embedding of Wang et al., IJCV 2013), so the
L2(reference) distance between two maps is the Euclidean distance between two
rows of one feature matrix, and a radial positive definite function of it is
a positive definite kernel on distributions. embed is the pipeline's one
entry point to them: a barycenter of the training inputs, then every input
embedded against it. Also houses the parametric
kernel used for regression, Gram assembly, the PSD spectrum diagnostic, and
the naive exp(-W2^2) kernel used as a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter import gaussian_barycenter_measure, grid_barycenter
from .errors import (DimensionMismatch, NotSymmetric, ReferenceMismatch, ValidationError,
                     check_arg, check_array)
from .measures import SYMMETRY_RTOL, GaussianMeasure, GridDensity, symmetric_part
from .ot import MAP_TOL, _bures_sq, _grid_sinkhorn, _sandwich_roots, _spd_roots, inverse_grid_map

# Embedding distances below this snap to exactly zero so the nugget indicator
# fires on identical inputs despite round-off.
DISTANCE_SNAP = 1e-12

# Rows of at most this many columns (Gaussian embeddings up to d = 3) get
# their distances from numpy, which spares kernel-matrix, fit and predict the
# scipy.spatial import; wider rows (grid embeddings) keep pdist/cdist, several
# times faster there. Both paths give the same bits.
NUMPY_COLUMNS = 12

# Rows of the first argument per block on the numpy distance path; bounds its
# one (ROW_BLOCK, m) buffer.
ROW_BLOCK = 64

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
        # kept as check_arg's floats; the amplitude and the nugget grow with the responses
        for name, rule in (("amplitude", "a finite float >= 0"), ("rate", "finite and >= 0"),
                           ("exponent", "finite"), ("nugget", "a finite float >= 0")):
            object.__setattr__(self, name, check_arg(name, getattr(self, name), rule))
        if not 0.0 < self.exponent <= 2.0:
            raise ValidationError("exponent must lie in (0, 2]")
        # the Gram diagonal; a float product overflows to inf, a power raises
        check_arg("amplitude^2 + nugget", self.amplitude * self.amplitude + self.nugget,
                  "a finite float >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.amplitude, self.rate, self.exponent, self.nugget])


@dataclass(frozen=True, eq=False)
class Embedding:
    """Inputs embedded against one reference, one row of X (n, p) each.

    The Euclidean distance between two rows is the L2(reference) distance
    between the inputs' inverse transport maps:
      - Gaussian input N(m, S) against N(., Sbar):
        [m, vec((Sbar^1/2 S Sbar^1/2)^1/2 Sbar^-1/2)], p = d + d^2;
      - grid input: sqrt(w) * T, flattened, with w the normalized reference
        weights and T the barycentric projection of the entropic plan from
        the reference (one fixed element of L2(reference) per input, so
        radial kernels stay positive definite); p is twice the reference
        support size.
    len() is n; indexing returns the selected rows as an Embedding. lam is
    the entropic penalty of the grid maps, finite and positive, and None for
    Gaussians.
    """

    reference: GaussianMeasure | GridDensity
    X: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        x = check_array("X", self.X)
        width = _row_width(self.reference)
        if x.ndim != 2 or x.shape[1] != width:
            raise ValidationError(
                f"feature matrix of shape {x.shape} does not fit the reference "
                f"(expected {width} columns)")
        if isinstance(self.reference, GaussianMeasure):
            if self.lam is not None:
                raise ValidationError(f"lam must be None for a Gaussian reference, got {self.lam!r}")
        else:  # kept as check_arg's float
            object.__setattr__(self, "lam", check_arg("lam", self.lam, "finite and positive"))
        object.__setattr__(self, "X", x)

    def __len__(self) -> int:
        return len(self.X)

    def __getitem__(self, index) -> "Embedding":
        return Embedding(self.reference, np.atleast_2d(self.X[index]), self.lam)


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
    roots, inv_root = _sandwich_roots(reference.cov, covs)
    return Embedding(reference, np.hstack([means, (roots @ inv_root).reshape(n, d * d)]))


def embed_grids(densities, reference: GridDensity, lam: float = 20.0,
                max_iter: int = 10000, tol: float = MAP_TOL, starts=None) -> Embedding:
    """Rows sqrt(w) * T, with T the inverse_grid_map of each density from
    one batched Sinkhorn solve (ot._grid_sinkhorn) from starts, and w the
    normalized reference weights on its support."""
    densities, w = list(densities), reference.support()[1]
    scale = np.sqrt(w / w.sum())[:, None]
    solves = _grid_sinkhorn(reference, densities, lam, max_iter, tol, starts)
    rows = [(scale * inverse_grid_map(mu, reference, scalings=scalings)).ravel()
            for mu, scalings in zip(densities, solves)]
    return Embedding(reference, np.array(rows).reshape(len(rows), _row_width(reference)), lam)


def embed(inputs, n_train: int | None = None, reference=None, lam: float = 20.0,
          warm: bool = True) -> Embedding:
    """Every input embedded against reference or, when it is None, against
    the Wasserstein barycenter of the first n_train inputs (all of them when
    n_train is None): closed-form maps for Gaussian inputs, entropic maps at
    penalty lam for grid inputs. With warm, the grid maps start from the
    input scalings of the barycenter computed here; cold solves give a
    training input the same row as any later input."""
    inputs = list(inputs)
    if not inputs:
        raise ValidationError("need at least one input")
    if n_train is not None and check_arg("n_train", n_train, ">= 1") > len(inputs):
        raise ValidationError(f"n_train must lie in 1..{len(inputs)}, got {n_train}")
    kinds = {type(x) for x in [*inputs, reference] if x is not None}
    if kinds == {GaussianMeasure}:
        if reference is None:
            reference, _ = gaussian_barycenter_measure(inputs[:n_train])
        return embed_gaussians(inputs, reference)
    if kinds == {GridDensity}:
        starts = None
        if reference is None:
            bar = grid_barycenter(inputs[:n_train], lam=lam)
            reference, starts = bar.result, bar.input_scalings if warm else None
        return embed_grids(inputs, reference, lam=lam, starts=starts)
    raise ValidationError("inputs and reference must be all Gaussian or all grids")


def _snap(dist: np.ndarray) -> np.ndarray:
    dist[dist < DISTANCE_SNAP] = 0.0
    return dist


def _distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Snapped Euclidean distances between the rows of a and of b, or of a
    with itself when b is None (a symmetric matrix with a zero diagonal).

    Narrow rows add the squared differences one column at a time, in column
    order, as pdist and cdist do, so both paths agree bit for bit; numpy's
    own reductions (sum, norm, einsum) sum pairwise from 8 columns on and
    differ in the last bit.
    """
    if a.shape[1] > NUMPY_COLUMNS:
        from scipy.spatial.distance import cdist, pdist, squareform

        return _snap(squareform(pdist(a)) if b is None else cdist(a, b))
    b = a if b is None else b
    out = np.zeros((len(a), len(b)))
    buf = np.empty((min(ROW_BLOCK, len(a)), len(b)))
    for start in range(0, len(a), ROW_BLOCK):
        rows, block = a[start:start + ROW_BLOCK], out[start:start + ROW_BLOCK]
        diff = buf[:len(rows)]
        for k in range(a.shape[1]):
            np.subtract(rows[:, k, None], b[:, k], out=diff)
            diff *= diff
            block += diff
    return _snap(np.sqrt(out, out=out))


def pairwise_distances(features: Embedding) -> np.ndarray:
    """Symmetric matrix of snapped embedding distances."""
    return _distances(features.X)


def cross_distances(a: Embedding, b: Embedding) -> np.ndarray:
    """(len(a), len(b)) matrix of snapped embedding distances; both must
    embed against the same reference at the same penalty."""
    ra, rb = a.reference, b.reference
    if a.lam != b.lam or ra is not rb and (type(ra) is not type(rb) or not ra.same_as(rb)):
        raise ReferenceMismatch("embeddings use different references or penalties")
    return _distances(a.X, b.X)


def _radial_of_power(power: np.ndarray, theta: KernelParams, out=None) -> np.ndarray:
    """amplitude^2 * exp(-rate * power), power = dist^exponent, into out, or
    over power itself when out is None: an n x n kernel costs at most one
    n x n allocation, not one per operation. A unit amplitude multiplies by
    nothing."""
    k = np.multiply(power, -theta.rate, out=power if out is None else out)
    np.exp(k, out=k)
    if theta.amplitude != 1.0:
        k *= theta.amplitude**2
    return k


def gram_from_distances(dist: np.ndarray, theta: KernelParams) -> np.ndarray:
    """Gram matrix from a snapped distance matrix, as gram_parts builds it."""
    gram = _radial_of_power(dist**theta.exponent, theta)
    gram.flat[::len(gram) + 1] += theta.nugget
    return gram


def fit_invariants(dist: np.ndarray) -> np.ndarray:
    """log(dist), 0 where dist = 0: the theta-free part of gram_log_gradient."""
    return np.log(dist, out=np.zeros_like(dist), where=dist > 0.0)


def gram_parts(dist: np.ndarray, theta: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix from a snapped distance matrix, and dist^exponent, which
    gram_log_gradient reads. The nugget is applied on the diagonal only:
    off-diagonal zero distances (duplicated inputs) carry the plain radial
    value."""
    power = dist**theta.exponent
    gram = _radial_of_power(power, theta, out=np.empty_like(power))
    gram.ravel("K")[::len(gram) + 1] += theta.nugget
    return gram, power


def gram_log_gradient(w: np.ndarray, gram: np.ndarray, power: np.ndarray,
                      log_dist: np.ndarray, theta: KernelParams) -> np.ndarray:
    """1/2 tr(W dR/dlog theta) for a symmetric W and theta = (rate, exponent,
    nugget), without forming dR/dlog theta: with M = W o R o d^p, it is
    -r/2 sum(M), -r p/2 sum(M log d) and g/2 tr W. d^p is 0 where d = 0, so
    the nugget on R's diagonal drops out of M."""
    m = w * gram
    m *= power
    total = np.add.reduce(m, axis=None)  # as m.sum(), without its wrappers
    m *= log_dist
    return np.array([-0.5 * theta.rate * total,
                     -0.5 * theta.rate * theta.exponent * np.add.reduce(m, axis=None),
                     0.5 * theta.nugget * w.trace()])


def gram_matrix(features: Embedding, theta: KernelParams) -> np.ndarray:
    return gram_from_distances(pairwise_distances(features), theta)


def cross_kernel(a: Embedding, b: Embedding, theta: KernelParams) -> np.ndarray:
    """Regression kernel between the rows of a and of b; the nugget fires
    exactly where the snapped embedding distance is zero."""
    dist = cross_distances(a, b)
    k = _radial_of_power(dist**theta.exponent, theta)
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
    """Sorted spectrum of a nonempty square matrix and the number of eigenvalues
    below -tol * |lambda|max; tol must be finite and >= 0."""
    check_arg("tol", tol, "finite and >= 0")
    m = check_array("matrix", matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {m.shape}")
    [asym], [sym] = symmetric_part(m[None])
    if asym > SYMMETRY_RTOL:
        raise NotSymmetric("matrix is not symmetric")
    eig = np.linalg.eigvalsh(sym)
    threshold = tol * float(np.abs(eig).max())
    return PsdReport(eigenvalues=eig, negatives=int((eig < -threshold).sum()),
                     threshold=threshold)


def naive_w2_gram(measures) -> np.ndarray:
    """exp(-W2^2) Gram: the direct Wasserstein kernel that fails to be
    positive definite beyond one dimension; kept as the diagnostic negative
    control.

    Entry for entry the same closed form as ot.gaussian_w2: each covariance
    is square-rooted once, and each pair takes the root of the argument that
    comes second in gaussian_w2's canonical order. The roots come from one
    batched eigh (ot._spd_roots) of the validated covariances, and the squared
    Bures distances from ot._bures_sq, PAIR_CHUNK pairs at a time.
    """
    n = len(measures)
    if len({m.dim for m in measures}) > 1:
        raise DimensionMismatch("measures differ in dimension")
    out = np.ones((n, n))
    if n < 2:
        return out
    means = np.array([m.mean for m in measures])
    covs = np.array([m.cov for m in measures])
    roots, _ = _spd_roots(covs)
    keys = [(m.mean.tobytes(), m.cov.tobytes()) for m in measures]
    rank = np.empty(n, dtype=int)
    rank[sorted(range(n), key=keys.__getitem__)] = np.arange(n)
    i, j = np.triu_indices(n, 1)
    first = rank[i] < rank[j]
    a, b = np.where(first, i, j), np.where(first, j, i)
    sq = np.empty(len(i))
    for s in range(0, len(i), PAIR_CHUNK):
        pa, pb = a[s:s + PAIR_CHUNK], b[s:s + PAIR_CHUNK]
        mean_sq = ((means[pa] - means[pb]) ** 2).sum(axis=1)
        same = (means[pa] == means[pb]).all(axis=1) & (covs[pa] == covs[pb]).all(axis=(1, 2))
        sq[s:s + PAIR_CHUNK] = np.where(same, 0.0,
                                        mean_sq + _bures_sq(covs[pa], covs[pb], roots[pb]))
    out[i, j] = out[j, i] = np.exp(-sq)
    return out
