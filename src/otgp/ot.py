"""Optimal transport primitives.

Gaussian closed forms (W2 distance, transport maps, map distances in
L2 of a reference measure), exact assignment OT for empirical samples, and
entropic (Sinkhorn) OT for grid densities: a separable Gibbs kernel applied
axis by axis on the full grid, log-domain updates when the scalings leave
the floating-point range, and deterministic argmax rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DimensionMismatch,
    EmptyRow,
    NoConvergence,
    NumericalUnderflow,
    SizeMismatch,
    ValidationError,
)
from .measures import EmpiricalSample, GaussianMeasure, GridDensity, validate_spd

# Eigenvalue floor (relative to the largest eigenvalue) absorbing round-off
# when square-rooting nominally SPD matrices.
EIG_FLOOR_RTOL = 1e-12

# Squared diameter of [0,1]^2; grid transport costs are divided by this so
# the entropic penalty lambda is scale-free.
GRID_DIAMETER_SQ = 2.0

# Largest marginal error a coupling may carry.
MARGINAL_TOL = 1e-6

# A grid Sinkhorn scaling outside [SCALING_MIN, SCALING_MAX], or not finite,
# hands the iteration over to log-domain updates.
SCALING_MIN = 1e-250
SCALING_MAX = 1e250

# Source rows of a grid plan evaluated at once when it is rounded to a map;
# bounds the rounding's memory for large supports.
ROUND_CHUNK_ROWS = 128


@dataclass(frozen=True)
class SpdSqrtPair:
    """Matrix square root and inverse square root of an SPD matrix."""

    sqrt: np.ndarray
    inv_sqrt: np.ndarray


@dataclass(frozen=True)
class LinearMap:
    """Linear map x -> matrix @ x."""

    matrix: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("map matrix has non-finite entries")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.matrix.T


@dataclass(frozen=True)
class CouplingPlan:
    """Nonnegative coupling with prescribed marginals."""

    plan: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.plan, dtype=float)
        _check_marginals(p.sum(axis=1), p.sum(axis=0),
                         self.source_weights, self.target_weights)


def _check_marginals(row_sums, col_sums, source_weights, target_weights) -> None:
    err = max(np.abs(row_sums - source_weights).max(),
              np.abs(col_sums - target_weights).max())
    if err > MARGINAL_TOL:
        raise ValidationError(f"plan marginals off by {err:.3e} (> {MARGINAL_TOL:g})")


@dataclass(frozen=True)
class TransportAssignment:
    """Deterministic map from source cells/points onto target cells/points.

    target_index[i] is the target assigned to source i; source_weights sum
    to 1 over the retained source support.
    """

    target_index: np.ndarray
    source_weights: np.ndarray
    source_locations: np.ndarray
    target_locations: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.target_index)
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= len(self.target_locations):
            raise ValidationError("target_index out of range")
        w = np.asarray(self.source_weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("source weights must be nonnegative and sum to 1")

    def mapped_locations(self) -> np.ndarray:
        """Location each source point is sent to."""
        return self.target_locations[self.target_index]


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a symmetric PSD matrix, clipping round-off negatives."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)


def _psd_sqrt_batch(ms: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(ms)
    w = np.clip(w, 0.0, None)
    r = v @ (np.sqrt(w)[..., None] * np.swapaxes(v, -1, -2))
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def sqrtm_spd(s) -> SpdSqrtPair:
    """Symmetric square root and inverse square root via eigendecomposition.

    Eigenvalues are floored at 1e-12 times the largest to absorb round-off.
    """
    sym = validate_spd(s)
    w, v = np.linalg.eigh(sym)
    w = np.maximum(w, EIG_FLOOR_RTOL * w[-1])
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    return SpdSqrtPair(0.5 * (root + root.T), 0.5 * (inv_root + inv_root.T))


def _bures_sq(cov_a: np.ndarray, cov_b: np.ndarray) -> float:
    """tr(Sa) + tr(Sb) - 2 tr((Sb^1/2 Sa Sb^1/2)^1/2), clipped at 0."""
    bh = sqrtm_spd(cov_b).sqrt
    cross = np.linalg.eigvalsh(bh @ cov_a @ bh)
    cross_tr = np.sqrt(np.clip(cross, 0.0, None)).sum()
    val = float(np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross_tr)
    return max(val, 0.0)


def gaussian_w2(a: GaussianMeasure, b: GaussianMeasure) -> float:
    """Wasserstein-2 distance between Gaussian measures.

    W2^2 = |mean_a - mean_b|^2 + Bures^2(cov_a, cov_b). Arguments are
    evaluated in a canonical order so the result is exactly symmetric.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    if a.same_as(b):
        return 0.0
    if (a.mean.tobytes(), a.cov.tobytes()) > (b.mean.tobytes(), b.cov.tobytes()):
        a, b = b, a
    mean_sq = float(((a.mean - b.mean) ** 2).sum())
    return float(np.sqrt(mean_sq + _bures_sq(a.cov, b.cov)))


def gaussian_transport_map(from_cov, to_cov) -> tuple[LinearMap, LinearMap]:
    """Optimal transport map between centered Gaussians, and its inverse.

    The forward map T = S^-1/2 (S^1/2 Q S^1/2)^1/2 S^-1/2 pushes N(0, S)
    to N(0, Q), i.e. T S T = Q; the inverse is the same closed form with the
    roles swapped.
    """
    def closed_form(s, q):
        pair = sqrtm_spd(s)
        inner = _psd_sqrt(pair.sqrt @ q @ pair.sqrt)
        t = pair.inv_sqrt @ inner @ pair.inv_sqrt
        return LinearMap(0.5 * (t + t.T))

    from_cov = validate_spd(from_cov)
    to_cov = validate_spd(to_cov)
    if from_cov.shape != to_cov.shape:
        raise DimensionMismatch("covariance dimensions differ")
    return closed_form(from_cov, to_cov), closed_form(to_cov, from_cov)


def map_l2_distance_gaussian(cov_i, cov_j, cov_bar) -> float:
    """Squared L2(reference) distance between the two inverse transport maps
    sending N(0, cov_bar) to N(0, cov_i) and N(0, cov_j).

    Equals tr(D Sbar^-1 D) with D the difference of the sandwich roots
    (Sbar^1/2 S Sbar^1/2)^1/2, which is the variance of the difference of the
    two linear maps under the reference measure.
    """
    cov_i = validate_spd(cov_i)
    cov_j = validate_spd(cov_j)
    cov_bar = validate_spd(cov_bar)
    if not (cov_i.shape == cov_j.shape == cov_bar.shape):
        raise DimensionMismatch("covariance dimensions differ")
    pair = sqrtm_spd(cov_bar)
    delta = _psd_sqrt(pair.sqrt @ cov_i @ pair.sqrt) - _psd_sqrt(pair.sqrt @ cov_j @ pair.sqrt)
    a = pair.inv_sqrt @ delta
    return float((a * a).sum())


def assignment_ot(src: EmpiricalSample, dst: EmpiricalSample
                  ) -> tuple[TransportAssignment, float]:
    """Exact OT between equally weighted samples of the same size.

    Solves the assignment problem with squared Euclidean cost; returns the
    matching and W2 = sqrt(mean matched squared distance).
    """
    if src.size != dst.size:
        raise SizeMismatch(f"sample sizes {src.size} and {dst.size} differ")
    if src.points.shape[1] != dst.points.shape[1]:
        raise DimensionMismatch("point dimensions differ")
    diff = src.points[:, None, :] - dst.points[None, :, :]
    cost = (diff**2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(src.size, dtype=int)
    perm[rows] = cols
    w2 = float(np.sqrt(cost[rows, cols].mean()))
    assignment = TransportAssignment(
        target_index=perm,
        source_weights=np.full(src.size, 1.0 / src.size),
        source_locations=src.points,
        target_locations=dst.points,
    )
    return assignment, w2


def _scaling(marginal: np.ndarray, kernel_product: np.ndarray) -> np.ndarray:
    """marginal / kernel_product, or NumericalUnderflow when a kernel row
    has underflowed so far that the quotient is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaling = marginal / kernel_product
    if not np.all(np.isfinite(scaling)):
        raise NumericalUnderflow(
            "kernel row underflowed; lambda too large for the cost scale")
    return scaling


def sinkhorn_core(wa: np.ndarray, wb: np.ndarray, cost: np.ndarray,
                  lam: float, max_iter: int, tol: float) -> np.ndarray:
    """Entropic scaling iterations for strictly positive marginals.

    Runs plain scaling on K = exp(-lam * cost), absorbing the scalings into
    log-domain potentials whenever an entry threatens to underflow.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    logk = -lam * cost
    k = np.exp(logk)
    f = np.zeros(len(wa))
    g = np.zeros(len(wb))
    u = np.ones(len(wa))
    v = np.ones(len(wb))
    for _ in range(max_iter):
        u = _scaling(wa, k @ v)
        v = _scaling(wb, k.T @ u)
        small = min(u.min(), v.min())
        big = max(u.max(), v.max())
        if small > 0 and (small < 1e-250 or big > 1e250):
            # absorb scalings into the potentials and rebuild the kernel
            with np.errstate(divide="ignore"):
                f = f + np.log(u)
                g = g + np.log(v)
            if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                raise NumericalUnderflow(
                    "scaling vector collapsed; lambda too large for the cost scale")
            k = np.exp(logk + f[:, None] + g[None, :])
            u = np.ones(len(wa))
            v = np.ones(len(wb))
        # columns are exact after the v-update; the row marginal is the
        # stale one and measures convergence
        row_err = np.abs(u * (k @ v) - wa).max()
        if row_err <= tol:
            plan = (u[:, None] * k) * v[None, :]
            return plan
    raise NoConvergence(f"marginal error above {tol} after {max_iter} iterations")


def _axis_log_kernel(rows: int, cols: int, lam: float) -> np.ndarray:
    """Log of the 1-D Gibbs factor between the cell-center ticks of a
    rows-cell axis and a cols-cell axis, -lam d^2 / GRID_DIAMETER_SQ.

    The grid kernel exp(-lam |x - y|^2 / GRID_DIAMETER_SQ) is the product of
    the factor on the x axis and the factor on the y axis.
    """
    s = (np.arange(rows) + 0.5) / rows
    t = (np.arange(cols) + 0.5) / cols
    return -lam * (s[:, None] - t[None, :]) ** 2 / GRID_DIAMETER_SQ


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis, overwriting x; -inf where a whole slice
    is -inf."""
    m = x.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    x -= m
    np.exp(x, out=x)
    return np.log(x.sum(axis=axis)) + m.squeeze(axis)


def _log_apply(logk: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(k @ exp(x) @ k.T) for the axis log kernel logk, one logsumexp
    per axis, on the rows and columns holding a cell of the mask out; zero
    elsewhere.

    -inf entries of x stand for zero scalings; grid rows and columns with
    no finite entry of x are skipped, so small supports cost little.
    """
    xi, xj = np.isfinite(x).any(axis=1), np.isfinite(x).any(axis=0)
    oi, oj = out.any(axis=1), out.any(axis=0)
    t = _logsumexp(x[np.ix_(xi, xj)][:, None, :] + logk[np.ix_(oj, xj)][None, :, :], axis=2)
    result = np.zeros(out.shape)
    result[np.ix_(oi, oj)] = _logsumexp(logk[np.ix_(oi, xi)][:, :, None] + t[None, :, :], axis=1)
    return result


def _in_range(scaling: np.ndarray) -> bool:
    # False for NaN as well
    return bool(scaling.min() >= SCALING_MIN and scaling.max() <= SCALING_MAX)


@dataclass(frozen=True)
class _GridScalings:
    """Entropic plan between two grid densities, held as scalings on the
    full grids.

    The plan entry between source cell (iy, ix) and target cell (jy, jx) is
    u[iy, ix] * k[ix, jx] * k[iy, jy] * v[jy, jx], with k the axis Gibbs
    factor; cells without mass have zero scalings. In the log domain u, v
    and k hold logarithms (-inf for no mass) and the factors add.
    """

    u: np.ndarray
    v: np.ndarray
    k: np.ndarray
    log_domain: bool
    row_sums: np.ndarray  # source marginal of the plan, cell by cell

    def blocks(self, src: np.ndarray, tgt: np.ndarray):
        """Plan entries (their logarithms in the log domain) between the flat
        source cells src and the flat target cells tgt, yielded
        ROUND_CHUNK_ROWS source rows at a time."""
        jy, jx = np.divmod(tgt, self.v.shape[1])
        kx, ky = self.k[:, jx], self.k[:, jy]
        u, v = self.u.ravel(), self.v.ravel()[tgt]
        for start in range(0, len(src), ROUND_CHUNK_ROWS):
            rows = src[start:start + ROUND_CHUNK_ROWS]
            iy, ix = np.divmod(rows, self.u.shape[1])
            block = kx[ix]
            if self.log_domain:
                block += ky[iy]
                block += u[rows][:, None]
                block += v
            else:
                block *= ky[iy]
                block *= u[rows][:, None]
                block *= v
            yield block


def _grid_sinkhorn(a: GridDensity, b: GridDensity, lam: float, max_iter: int,
                   tol: float) -> _GridScalings:
    """Sinkhorn scaling from a to b with the separable Gibbs kernel applied
    as k @ V @ k.T on the full grids.

    Stops when the row-marginal error is <= tol. A scaling leaving
    [SCALING_MIN, SCALING_MAX] hands the remaining iterations to log-domain
    updates.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    wa, wb = a.weights, b.weights
    sa, sb = wa > 0, wb > 0
    logk = _axis_log_kernel(a.grid_size, b.grid_size, lam)
    k = np.exp(logk)
    v = sb.astype(float)
    # a zero or overflowing kernel product shows up as an out-of-range
    # scaling below, so its floating-point warnings carry no information
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kv = k @ v @ k.T
        for it in range(max_iter):
            u = np.divide(wa, kv, out=np.zeros_like(wa), where=sa)
            v_next = np.divide(wb, k.T @ u @ k, out=np.zeros_like(wb), where=sb)
            if not (_in_range(u[sa]) and _in_range(v_next[sb])):
                return _log_sinkhorn(wa, wb, logk, np.log(v), max_iter - it, tol)
            v = v_next
            kv = k @ v @ k.T
            row_sums = u * kv
            if np.abs(row_sums - wa).max() <= tol:
                _check_marginals(row_sums, v * (k.T @ u @ k), wa, wb)
                return _GridScalings(u, v, k, False, row_sums)
    raise NoConvergence(f"marginal error above {tol} after {max_iter} iterations")


def _log_sinkhorn(wa: np.ndarray, wb: np.ndarray, logk: np.ndarray,
                  g: np.ndarray, max_iter: int, tol: float) -> _GridScalings:
    """Log-domain Sinkhorn updates from the target potential g (Schmitzer,
    SISC 2019); finite for any lambda while the potentials stay finite."""
    sa, sb = wa > 0, wb > 0
    # log(0) is the potential of an empty cell; an overflowing row sum only
    # fails the convergence test
    with np.errstate(divide="ignore", over="ignore"):
        log_a, log_b = np.log(wa), np.log(wb)
        lg = _log_apply(logk, g, sa)
        for _ in range(max_iter):
            f = log_a - lg
            g = log_b - _log_apply(logk.T, f, sb)
            if not (np.all(np.isfinite(f[sa])) and np.all(np.isfinite(g[sb]))):
                raise NumericalUnderflow("log-domain Sinkhorn potentials are not finite")
            lg = _log_apply(logk, g, sa)
            row_sums = np.exp(f + lg)
            if np.abs(row_sums - wa).max() <= tol:
                _check_marginals(row_sums, np.exp(g + _log_apply(logk.T, f, sb)), wa, wb)
                return _GridScalings(f, g, logk, True, row_sums)
    raise NoConvergence(f"marginal error above {tol} after {max_iter} iterations")


def sinkhorn_plan(a: GridDensity, b: GridDensity, lam: float = 20.0,
                  max_iter: int = 10000, tol: float = 1e-9) -> CouplingPlan:
    """Entropic OT plan between the positive-weight cells of two grid
    densities, with squared-distance cost normalized by the grid diameter."""
    src, _, wa = a.support()
    tgt, _, wb = b.support()
    scalings = _grid_sinkhorn(a, b, lam, max_iter, tol)
    plan = np.vstack(list(scalings.blocks(src, tgt)))
    if scalings.log_domain:
        plan = np.exp(plan)
    return CouplingPlan(plan=plan, source_weights=wa, target_weights=wb)


def round_plan_to_map(plan: CouplingPlan,
                      source_locations: np.ndarray | None = None,
                      target_locations: np.ndarray | None = None
                      ) -> TransportAssignment:
    """Deterministic rounding: each source goes to its argmax target in the
    plan; ties break to the lowest target index."""
    p = plan.plan
    if np.any(p.sum(axis=1) <= 0.0):
        raise EmptyRow("a retained source row carries no mass")
    idx = p.argmax(axis=1)
    m, k = p.shape
    if source_locations is None:
        source_locations = np.zeros((m, 0))
    if target_locations is None:
        target_locations = np.zeros((k, 0))
    weights = plan.source_weights / plan.source_weights.sum()
    return TransportAssignment(
        target_index=idx,
        source_weights=weights,
        source_locations=np.asarray(source_locations, dtype=float),
        target_locations=np.asarray(target_locations, dtype=float),
    )


def inverse_grid_map(mu: GridDensity, bar: GridDensity, lam: float = 20.0,
                     max_iter: int = 10000, tol: float = 1e-9) -> TransportAssignment:
    """Approximate inverse transport map, built directly in the
    barycenter-to-measure direction: Sinkhorn plan from bar to mu, rounded
    to an assignment on the barycenter support.

    Each barycenter cell goes to its argmax input cell in the plan, ties to
    the lowest index; the plan is evaluated ROUND_CHUNK_ROWS rows at a time.
    """
    src, loc_bar, wa = bar.support()
    tgt, loc_mu, _ = mu.support()
    scalings = _grid_sinkhorn(bar, mu, lam, max_iter, tol)
    if np.any(scalings.row_sums.ravel()[src] <= 0.0):
        raise EmptyRow("a retained source row carries no mass")
    idx = np.concatenate([block.argmax(axis=1) for block in scalings.blocks(src, tgt)])
    return TransportAssignment(
        target_index=idx,
        source_weights=wa / wa.sum(),
        source_locations=loc_bar,
        target_locations=loc_mu,
    )
