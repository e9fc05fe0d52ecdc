"""Optimal transport primitives.

Gaussian closed forms (W2 distance, transport maps, map distances in
L2 of a reference measure), exact assignment OT for empirical samples, and
entropic (Sinkhorn) OT for grid densities: one separable Gibbs kernel, built
by _axis_log_kernel and applied by _apply (_log_apply in the log domain) to
a (G, inputs, G) stack, serves the grid barycenter's Bregman loop, the
batched inverse-map solve with per-input log-domain updates, and the plan's
barycentric projection (each source cell sent to the plan-weighted mean of
the target cell centers).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyRow,
    NoConvergence,
    NumericalUnderflow,
    OtgpError,
    SizeMismatch,
    ValidationError,
    check_arg,
    check_array,
)
from .measures import EmpiricalSample, GaussianMeasure, GridDensity, grid_ticks, validate_spd

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

# Inputs the grid Sinkhorn iterates together as one (G, BATCH, G) stack.
BATCH = 8

# Row-marginal error at which a grid map solve stops. The barycentric
# projection is continuous in the scalings: on the disks experiment's
# datasets 1e-8 keeps the embedding rows within 3.4e-7 of a tol-1e-12 solve
# and GP Q2 within 1e-6 of a 1e-9 solve, for 31% fewer kernel
# applications; 1e-7 moves the rows and Q2 six to nine times as far.
MAP_TOL = 1e-8

# Over-relaxation of the scaling-domain Sinkhorn updates (_relax): each
# scaling s moves to r (r / s)^(OMEGA - 1) instead of the plain update r
# (Thibault, Chizat, Dossal & Papadakis, arXiv 1711.01851). OMEGA - 1 is a
# power of 1/2, taken by square roots. On the disks experiment's datasets
# 5/4 cuts the barycenter's iterations and the cold maps' by about two
# fifths; warm starts are already near the fixed point and stay plain.
OMEGA = 1.25


@dataclass(frozen=True)
class CouplingPlan:
    """Nonnegative coupling with prescribed marginals."""

    plan: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray

    def __post_init__(self):
        p = check_array("plan", self.plan)
        _check_marginals(p.sum(axis=1), p.sum(axis=0), self.source_weights, self.target_weights)


def _check_marginals(row_sums, col_sums, source_weights, target_weights) -> None:
    err = max(np.abs(row_sums - check_array("source_weights", source_weights)).max(),
              np.abs(col_sums - check_array("target_weights", target_weights)).max())
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
        w = check_array("source_weights", self.source_weights)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("source weights must be nonnegative and sum to 1")


def _psd_sqrt_batch(ms: np.ndarray) -> np.ndarray:
    """Square roots of symmetric PSD matrices along the last two axes,
    clipping round-off negative eigenvalues."""
    w, v = np.linalg.eigh(ms)
    w = np.clip(w, 0.0, None)
    r = v @ (np.sqrt(w)[..., None] * np.swapaxes(v, -1, -2))
    return 0.5 * (r + np.swapaxes(r, -1, -2))


def _spd_roots(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, inv_roots): symmetric square roots of an (n, d, d) stack of
    validated SPD matrices and their inverses, by one batched eigh.

    Eigenvalues are floored at 1e-12 times each matrix's largest to absorb
    round-off.
    """
    w, v = np.linalg.eigh(stack)
    w = np.sqrt(np.maximum(w, EIG_FLOOR_RTOL * w[:, -1:]))[:, None, :]
    vt = np.swapaxes(v, 1, 2)
    root, inv_root = (v * w) @ vt, (v / w) @ vt
    return 0.5 * (root + np.swapaxes(root, 1, 2)), 0.5 * (inv_root + np.swapaxes(inv_root, 1, 2))


def sqrtm_spd(s) -> tuple[np.ndarray, np.ndarray]:
    """(root, inv_root): symmetric square root and its inverse (_spd_roots)."""
    sym = validate_spd(s)
    if sym.ndim != 2:
        raise ValidationError(f"expected one matrix, got a stack of shape {sym.shape}")
    root, inv_root = _spd_roots(sym[None])
    return root[0], inv_root[0]


def _sandwich_roots(reference, covs) -> tuple[np.ndarray, np.ndarray]:
    """(roots, inv_root): (Sbar^1/2 S Sbar^1/2)^1/2 for the covariance S or
    each of a stack, with Sbar the reference, and Sbar^-1/2."""
    root, inv_root = sqrtm_spd(reference)
    return _psd_sqrt_batch(root @ covs @ root), inv_root


def _bures_sq(covs_a: np.ndarray, covs_b: np.ndarray, roots_b: np.ndarray) -> np.ndarray:
    """Squared Bures distance tr(Sa) + tr(Sb) - 2 tr((Rb Sa Rb)^1/2), floored
    at 0, per pair of (n, d, d) stacks, with Rb = Sb^1/2 from roots_b."""
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(roots_b @ covs_a @ roots_b), 0.0, None))
    return np.maximum(np.trace(covs_a, axis1=1, axis2=2) + np.trace(covs_b, axis1=1, axis2=2)
                      - 2.0 * cross.sum(axis=1), 0.0)


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
    bures = _bures_sq(a.cov[None], b.cov[None], sqrtm_spd(b.cov)[0][None])[0]
    return float(np.sqrt(((a.mean - b.mean) ** 2).sum() + bures))


def gaussian_transport_map(from_cov, to_cov) -> tuple[np.ndarray, np.ndarray]:
    """Optimal transport map between centered Gaussians and its inverse, as
    matrices (forward, inverse).
    The forward map T = S^-1/2 (S^1/2 Q S^1/2)^1/2 S^-1/2 pushes N(0, S)
    to N(0, Q), i.e. T S T = Q; the inverse is the same closed form with the
    roles swapped.
    """
    def closed_form(s, q):
        roots, inv_root = _sandwich_roots(s, q)
        t = inv_root @ roots @ inv_root
        t = 0.5 * (t + t.T)
        if not np.all(np.isfinite(t)):
            raise ValidationError("map matrix has non-finite entries")
        return t

    from_cov, to_cov = validate_spd(from_cov), validate_spd(to_cov)
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
    cov_i, cov_j, cov_bar = map(validate_spd, (cov_i, cov_j, cov_bar))
    if not (cov_i.shape == cov_j.shape == cov_bar.shape):
        raise DimensionMismatch("covariance dimensions differ")
    roots, inv_root = _sandwich_roots(cov_bar, np.stack([cov_i, cov_j]))
    a = inv_root @ (roots[0] - roots[1])
    return float((a * a).sum())


def assignment_ot(src: EmpiricalSample, dst: EmpiricalSample
                  ) -> tuple[TransportAssignment, float]:
    """Exact OT between equally weighted samples of the same size.

    Solves the assignment problem with squared Euclidean cost; returns the
    matching and W2 = sqrt(mean matched squared distance).
    """
    from scipy.optimize import linear_sum_assignment

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


def _axis_log_kernel(rows: int, cols: int, lam: float) -> np.ndarray:
    """Log of the 1-D Gibbs factor between the cell-center ticks of a
    rows-cell axis and a cols-cell axis, -lam d^2 / GRID_DIAMETER_SQ, 0 < lam < inf.

    The grid kernel exp(-lam |x - y|^2 / GRID_DIAMETER_SQ) is the product of
    the factor on the x axis and the factor on the y axis.
    """
    check_arg("lam", lam, "finite and positive")
    s, t = grid_ticks(rows), grid_ticks(cols)
    return -lam * (s[:, None] - t[None, :]) ** 2 / GRID_DIAMETER_SQ


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis, overwriting x; -inf on empty or all -inf slices."""
    m = x.max(axis=axis, keepdims=True, initial=-np.inf)
    m[~np.isfinite(m)] = 0.0
    x -= m
    np.exp(x, out=x)
    with np.errstate(divide="ignore"):
        return np.log(x.sum(axis=axis)) + m.squeeze(axis)


def _log_apply(logk: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(k @ exp(x) @ k.T) for the axis log kernel logk, one logsumexp
    per axis, on the rows and columns holding a cell of the mask out; zero
    elsewhere.

    -inf entries of x stand for zero scalings (all -inf gives -inf); rows
    and columns with no finite entry are skipped: small supports cost little.
    """
    xi, xj = np.isfinite(x).any(axis=1), np.isfinite(x).any(axis=0)
    oi, oj = out.any(axis=1), out.any(axis=0)
    t = _logsumexp(x[np.ix_(xi, xj)][:, None, :] + logk[np.ix_(oj, xj)][None, :, :], axis=2)
    result = np.zeros(out.shape)
    result[np.ix_(oi, oj)] = _logsumexp(logk[np.ix_(oi, xi)][:, :, None] + t[None, :, :], axis=1)
    return result


def _apply(k: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """k @ V @ k.T for each slice V = stack[:, i, :] of a (rows, inputs, columns) stack, as
    two flat GEMMs without transposed copies: the one grid kernel operator."""
    rows, n, cols = stack.shape
    return ((k @ stack.reshape(rows, n * cols)).reshape(-1, cols) @ k.T).reshape(len(k), n, -1)


def _relax(scaling: np.ndarray, update: np.ndarray) -> None:
    """Over-relaxed Sinkhorn step in place: update <- update (update /
    scaling)^(OMEGA - 1), from the previous scaling, which it overwrites,
    and the plain update. A cell where both are zero stays zero; a cell
    whose ratio is not finite, such as a previous scaling of zero, keeps
    the plain update."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.divide(update, scaling, out=scaling)
    for _ in range(-int(np.log2(OMEGA - 1))):
        np.sqrt(ratio, out=ratio)
    if not ratio.max(initial=0.0) < np.inf:  # NaN from 0/0 or inf: the plain update
        ratio[~(ratio < np.inf)] = 1.0
    update *= ratio


def _in_range(scaling: np.ndarray, off_support: np.ndarray | None) -> np.ndarray:
    # per input of a (rows, inputs, columns) stack, False for NaN as well;
    # off_support is +inf off the support and 0 on it, None for a full
    # support. Reducing the rows first keeps both passes contiguous.
    on_support = scaling if off_support is None else scaling + off_support
    if on_support.min() >= SCALING_MIN and scaling.max() <= SCALING_MAX:  # the common case
        return np.ones(scaling.shape[1], dtype=bool)
    return (on_support.min(axis=0).min(axis=1) >= SCALING_MIN) & (
        scaling.max(axis=0).max(axis=1) <= SCALING_MAX)


@dataclass(frozen=True)
class _GridScalings:
    """Entropic plan between two grid densities, held as scalings on the
    full grids.

    The plan entry between source cell (iy, ix) and target cell (jy, jx) is
    k[ix, jx] * v[jy, jx] * k[iy, jy] * u[iy, ix], with k the axis Gibbs
    factor; cells without mass have zero scalings. In the log domain u, v
    and k hold logarithms (-inf for no mass) and the factors add. In the
    scaling domain kv is k v k.T, the plan's row sums over u, as the solve
    computed it last; None in the log domain.
    """

    u: np.ndarray
    v: np.ndarray
    k: np.ndarray
    log_domain: bool
    kv: np.ndarray | None

    def plan(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Dense plan between the flat source cells src and the flat target
        cells tgt."""
        (iy, ix), (jy, jx) = np.divmod(src, len(self.u)), np.divmod(tgt, len(self.v))
        kx, v, ky, u = (self.k[np.ix_(ix, jx)], self.v.ravel()[tgt], self.k[np.ix_(iy, jy)],
                        self.u.ravel()[src][:, None])
        return np.exp(kx + v + ky + u) if self.log_domain else kx * v * ky * u

    def barycentric(self, src: np.ndarray) -> np.ndarray:
        """(x, y) mean of the target cell centers under the plan row of each
        flat source cell in src; EmptyRow where that row is zero. u cancels:
        with t the target ticks, x is (k (v t[None, :]) k.T) / (k v k.T) and
        y the same with t[:, None] (logsumexps in the log domain), whose
        denominator the scaling domain reads from kv."""
        t = grid_ticks(len(self.v))
        if self.log_domain:
            on = np.zeros(self.u.shape, dtype=bool)
            on.flat[src] = True
            den, num_x, num_y = (_log_apply(self.k, x, on).ravel()[src] for x in (
                self.v, self.v + np.log(t), self.v + np.log(t)[:, None]))
            if np.any(den == -np.inf):  # a zero plan row has log mass -inf
                raise EmptyRow("a retained source row carries no mass")
            return np.exp(np.column_stack([num_x, num_y]) - den[:, None])
        products = _apply(self.k, np.stack([self.v * t, t[:, None] * self.v], axis=1))
        iy, ix = np.divmod(src, len(self.u))
        (num_x, num_y), den = products[iy, :, ix].T, self.kv[iy, ix]
        if np.any(den <= 0.0):
            raise EmptyRow("a retained source row carries no mass")
        return np.column_stack([num_x, num_y]) / den[:, None]


def _sinkhorn_batch(a: GridDensity, bs: list[GridDensity], lam: float, max_iter: int,
                    tol: float, starts: np.ndarray | None) -> list:
    """Sinkhorn scaling from a to each density of bs (one grid size) as one
    (G, len(bs), G) stack. A warm batch starts from starts, the (G, len(bs), G)
    stack of target-side scalings that _grid_sinkhorn screened, in place of ones
    on the supports, and updates plainly; a cold batch (starts None) takes
    over-relaxed updates (_relax) from the third iteration. Each input stops by
    its own rule, marginal errors <= tol (the row error, and in a cold batch the
    column error, which only a plain update makes exact) then _check_marginals,
    or continues alone with log-domain updates once its scalings leave
    [SCALING_MIN, SCALING_MAX]. Returns each input's _GridScalings or the error
    it failed with."""
    relax = starts is None
    wa, wb = a.weights[:, None, :], np.stack([b.weights for b in bs], axis=1)
    # +inf off the supports: dividing a marginal by the kernel product plus
    # this keeps a scaling 0 off its support, also where the product is 0.
    # A source support covering the grid needs no such pass (None).
    off_a = None if (wa > 0).all() else np.where(wa > 0, 0.0, np.inf)
    off_b = np.where(wb > 0, 0.0, np.inf)
    logk = _axis_log_kernel(a.grid_size, bs[0].grid_size, lam)
    k = np.exp(logk)
    v = (wb > 0).astype(float) if relax else np.where(wb > 0, starts, 0.0)
    # flat indices of the target support cells, about one cell in ten of a
    # disk union: a cold batch relaxes the target side there alone
    on_b = np.flatnonzero(wb > 0)
    live = np.arange(len(bs))  # live[i] is the input at stack position i
    results = [NoConvergence(f"marginal error above {tol} after {max_iter} iterations")] * len(bs)
    # a zero or overflowing kernel product shows up as an out-of-range
    # scaling below, so its floating-point warnings carry no information
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kv = _apply(k, v)
        for it in range(max_iter):
            u_next = wa / (kv if off_a is None else kv + off_a)
            if relax and it > 1:  # from the third iteration
                _relax(u, u_next)
            u = u_next
            ktu = _apply(k.T, u)
            v_next = wb / (ktu + off_b)
            if relax and it > 1:  # from the third iteration, on the support cells alone
                relaxed = np.take(v_next, on_b)
                _relax(np.take(v, on_b), relaxed)
                np.put(v_next, on_b, relaxed)
            in_range = _in_range(u, off_a) & _in_range(v_next, off_b)
            kv = _apply(k, v_next)
            err = u * kv
            err -= wa
            done = np.abs(err, out=err).max(axis=0).max(axis=1) <= tol
            if relax and done.any():  # the columns, where the rows pass
                rows_pass = np.flatnonzero(done)
                err = v_next[:, rows_pass] * ktu[:, rows_pass]
                err -= wb[:, rows_pass]
                done[rows_pass] = np.abs(err, out=err).max(axis=0).max(axis=1) <= tol
            stop = ~in_range | done
            if stop.any():
                for j in np.flatnonzero(stop):
                    try:
                        if in_range[j]:
                            uj, vj, kvj = u[:, j].copy(), v_next[:, j].copy(), kv[:, j].copy()
                            _check_marginals(uj * kvj, vj * ktu[:, j], a.weights, wb[:, j])
                            results[live[j]] = _GridScalings(uj, vj, k, False, kvj)
                        else:
                            results[live[j]] = _log_sinkhorn(a.weights, wb[:, j], logk,
                                                             np.log(v[:, j]), max_iter - it, tol)
                    except OtgpError as error:
                        results[live[j]] = error
                go = ~stop
                if not go.any():
                    break
                # np.compress keeps the stacks C-contiguous, as x[:, go] does not
                live = live[go]
                wb, off_b, u, v_next, kv = (np.compress(go, x, axis=1)
                                            for x in (wb, off_b, u, v_next, kv))
                on_b = np.flatnonzero(wb > 0)
            v = v_next
    return results


def _grid_sinkhorn(a: GridDensity, bs, lam: float, max_iter: int, tol: float, starts=None):
    """Sinkhorn scalings from a to each density of bs, yielded in order;
    raises the error of the first density that fails.

    starts holds a warm start (a target-side scaling) or None for each of the
    first densities, such as a grid barycenter's input_scalings for its
    inputs; the rest start cold, as does a start outside [SCALING_MIN,
    SCALING_MAX] on its density's support. The densities share a and the
    kernel, so runs of up to BATCH consecutive densities on one grid size,
    all warm or all cold, iterate together (iterative Bregman projections
    stack their inputs the same way, Benamou et al., SISC 2015; _sinkhorn_batch).
    """
    check_arg("tol", tol, "finite and >= 0")
    check_arg("max_iter", max_iter, ">= 1")
    bs = list(bs)
    starts = [] if starts is None else [None if s is None else np.asarray(s, float)
                                        for s in starts]
    if len(starts) > len(bs) or any(
            s is not None and s.shape != b.weights.shape for b, s in zip(bs, starts)):
        raise ValidationError("warm starts do not line up with the densities")
    starts = [s if s is not None and SCALING_MIN <= (on := s[b.weights > 0]).min()
              and on.max() <= SCALING_MAX else None for b, s in zip(bs, starts)]
    starts += [None] * (len(bs) - len(starts))
    for _, run in itertools.groupby(zip(bs, starts),
                                    key=lambda pair: (pair[0].grid_size, pair[1] is None)):
        run, run_starts = zip(*run)
        for first in range(0, len(run), BATCH):
            stack = None if run_starts[0] is None else np.stack(
                run_starts[first:first + BATCH], axis=1)
            for result in _sinkhorn_batch(a, run[first:first + BATCH], lam, max_iter, tol, stack):
                if isinstance(result, OtgpError):
                    raise result
                yield result


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
                return _GridScalings(f, g, logk, True, None)
    raise NoConvergence(f"marginal error above {tol} after {max_iter} iterations")


def sinkhorn_plan(a: GridDensity, b: GridDensity, lam: float = 20.0,
                  max_iter: int = 10000, tol: float = MAP_TOL) -> CouplingPlan:
    """Entropic OT plan between the positive-weight cells of two grid
    densities, with squared-distance cost normalized by the grid diameter."""
    (src, wa), (tgt, wb) = a.support(), b.support()
    scalings = next(_grid_sinkhorn(a, [b], lam, max_iter, tol))
    return CouplingPlan(plan=scalings.plan(src, tgt), source_weights=wa, target_weights=wb)


def inverse_grid_map(mu: GridDensity, bar: GridDensity, lam: float = 20.0,
                     max_iter: int = 10000, tol: float = MAP_TOL, *,
                     scalings: _GridScalings | None = None) -> np.ndarray:
    """Approximate inverse transport map, built directly in the
    barycenter-to-measure direction: the (m, 2) locations the m barycenter
    support cells are sent to by the barycentric projection of the
    Sinkhorn plan from bar to mu, the plan-weighted mean of mu's cell
    centers. kernels.embed_grids passes the plan's scalings from its batched
    solve; without them they are computed here.
    """
    if scalings is None:
        scalings = next(_grid_sinkhorn(bar, [mu], lam, max_iter, tol))
    return scalings.barycentric(bar.support()[0])
