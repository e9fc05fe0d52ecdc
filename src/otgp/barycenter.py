"""Wasserstein barycenters.

Exact fixed-point iteration for Gaussian families and an iterative entropic
(Bregman projection) barycenter on a fixed grid support for grid densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NoConvergence, ValidationError
from .measures import GaussianMeasure, GridDensity, validate_spd
from .ot import _axis_log_kernel, _psd_sqrt_batch, sqrtm_spd


@dataclass(frozen=True)
class BarycenterReport:
    result: object  # GaussianMeasure covariance (ndarray) or GridDensity
    iterations: int
    residual: float


def _check_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must be a nonnegative simplex vector")
    return w


def gaussian_barycenter(covs, weights=None, tol: float = 1e-9,
                        max_iter: int = 1000) -> BarycenterReport:
    """Covariance of the Wasserstein barycenter of centered Gaussians.

    Iterates S <- S^-1/2 (sum_i w_i (S^1/2 S_i S^1/2)^1/2)^2 S^-1/2 and stops
    when the fixed-point residual
    ||S - sum_i w_i (S^1/2 S_i S^1/2)^1/2||_F / ||S||_F drops below tol.
    """
    stack = np.stack([validate_spd(c) for c in covs])
    w = _check_weights(weights, len(stack))
    s = np.einsum("i,ijk->jk", w, stack)  # Euclidean mean: SPD, cheap start
    for it in range(1, max_iter + 1):
        pair = sqrtm_spd(s)
        roots = _psd_sqrt_batch(pair.sqrt @ stack @ pair.sqrt)
        mixture = np.einsum("i,ijk->jk", w, roots)
        residual = float(np.linalg.norm(s - mixture) / np.linalg.norm(s))
        if residual <= tol:
            return BarycenterReport(result=s, iterations=it, residual=residual)
        s = pair.inv_sqrt @ mixture @ mixture @ pair.inv_sqrt
        s = 0.5 * (s + s.T)
    raise NoConvergence(
        f"barycenter residual above {tol} after {max_iter} iterations")


def gaussian_barycenter_measure(measures, weights=None, tol: float = 1e-9,
                                max_iter: int = 1000) -> tuple[GaussianMeasure, BarycenterReport]:
    """Barycenter of Gaussian measures: weighted mean of means, fixed-point
    covariance."""
    w = _check_weights(weights, len(measures))
    report = gaussian_barycenter([m.cov for m in measures], weights=w,
                                 tol=tol, max_iter=max_iter)
    mean = np.einsum("i,ij->j", w, np.stack([m.mean for m in measures]))
    return GaussianMeasure(mean, report.result), report


def grid_barycenter(densities, lam: float = 20.0, tol: float = 1e-6,
                    max_iter: int = 300) -> BarycenterReport:
    """Entropic barycenter of grid densities on their common grid support.

    Iterative Bregman projections with a separable Gibbs kernel; stops when
    successive iterates differ by less than tol in total variation. Identical
    inputs short-circuit to the input itself (the exact barycenter), avoiding
    the entropic blur.
    """
    densities = list(densities)
    if not densities:
        raise ValidationError("need at least one density")
    g = densities[0].grid_size
    if any(d.grid_size != g for d in densities):
        raise GridMismatch("densities live on different grids")
    if all(d.same_as(densities[0]) for d in densities[1:]):
        return BarycenterReport(result=densities[0], iterations=0, residual=0.0)

    k = np.exp(_axis_log_kernel(g, g, lam))
    p = np.stack([d.weights for d in densities])  # (n, G, G)
    n = len(densities)
    v = np.ones_like(p)
    b_prev = np.full((g, g), 1.0 / g**2)
    for it in range(1, max_iter + 1):
        kv = k @ v @ k
        u = np.where(p > 0, p / kv, 0.0)
        ktu = k @ u @ k
        log_b = np.log(ktu).mean(axis=0)  # uniform weights
        b = np.exp(log_b - log_b.max())
        b /= b.sum()
        v = b[None, :, :] / ktu
        tv = 0.5 * float(np.abs(b - b_prev).sum())
        if tv <= tol:
            return BarycenterReport(result=GridDensity(b), iterations=it, residual=tv)
        b_prev = b
    raise NoConvergence(
        f"barycenter TV change above {tol} after {max_iter} iterations; "
        f"n={n} densities on a {g}x{g} grid")
