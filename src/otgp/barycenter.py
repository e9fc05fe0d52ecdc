"""Wasserstein barycenters.

Exact fixed-point iteration for Gaussian families and an iterative entropic
(Bregman projection) barycenter on a fixed grid support for grid densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NumericalUnderflow, ValidationError, check_arg
from .measures import GaussianMeasure, GridDensity, common_grid_size, validate_spd
from .ot import _apply, _axis_log_kernel, _relax, _sandwich_roots


@dataclass(frozen=True)
class BarycenterReport:
    """input_scalings, of an iterated grid barycenter, holds its final input-side Bregman
    scalings as an (n, G, G) view of the (G, n, G) solver stack: the warm starts of its
    inputs' maps (kernels.embed)."""
    result: object  # GaussianMeasure covariance (ndarray) or GridDensity
    iterations: int
    residual: float
    input_scalings: np.ndarray | None = None


def _uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise ValidationError("need at least one input")
    return np.full(n, 1.0 / n)


def gaussian_barycenter(covs, tol: float = 1e-9, max_iter: int = 1000) -> BarycenterReport:
    """Covariance of the Wasserstein barycenter of centered Gaussians, with
    uniform weights w_i = 1/n.

    Iterates S <- S^-1/2 (sum_i w_i (S^1/2 S_i S^1/2)^1/2)^2 S^-1/2 and stops
    when the fixed-point residual
    ||S - sum_i w_i (S^1/2 S_i S^1/2)^1/2||_F / ||S||_F drops below tol.
    """
    check_arg("tol", tol, "finite and >= 0")
    check_arg("max_iter", max_iter, ">= 1")
    stack = validate_spd(covs)
    if stack.ndim != 3:
        raise ValidationError(f"expected an (n, d, d) covariance stack, got shape {stack.shape}")
    w = _uniform_weights(len(stack))
    s = np.einsum("i,ijk->jk", w, stack)  # Euclidean mean: SPD, cheap start
    for it in range(1, max_iter + 1):
        roots, inv_root = _sandwich_roots(s, stack)
        mixture = np.einsum("i,ijk->jk", w, roots)
        residual = float(np.linalg.norm(s - mixture) / np.linalg.norm(s))
        if residual <= tol:
            return BarycenterReport(result=s, iterations=it, residual=residual)
        s = inv_root @ mixture @ mixture @ inv_root
        s = 0.5 * (s + s.T)
    raise NoConvergence(
        f"barycenter residual above {tol} after {max_iter} iterations")


def gaussian_barycenter_measure(measures, tol: float = 1e-9,
                                max_iter: int = 1000) -> tuple[GaussianMeasure, BarycenterReport]:
    """Barycenter of Gaussian measures: mean of means, fixed-point
    covariance."""
    w = _uniform_weights(len(measures))
    report = gaussian_barycenter([m.cov for m in measures], tol=tol, max_iter=max_iter)
    mean = np.einsum("i,ij->j", w, np.stack([m.mean for m in measures]))
    return GaussianMeasure(mean, report.result), report


def grid_barycenter(densities, lam: float = 20.0, tol: float = 1e-6,
                    max_iter: int = 300) -> BarycenterReport:
    """Entropic barycenter of grid densities on their common grid support.

    Iterative Bregman projections (Benamou et al., SISC 2015) on the (G, n, G) input
    stack through ot._apply, both scalings over-relaxed (ot._relax) from the third
    iteration, until successive iterates differ by less than tol in total variation.
    Identical inputs short-circuit to the input itself (the exact barycenter),
    avoiding the entropic blur. A Bregman product that is zero or not finite on a support
    cell (lam too large for the grid) raises NumericalUnderflow.
    """
    check_arg("tol", tol, "finite and >= 0")
    check_arg("max_iter", max_iter, ">= 1")
    densities = list(densities)
    if not densities:
        raise ValidationError("need at least one density")
    g = common_grid_size(densities)
    k = np.exp(_axis_log_kernel(g, g, lam))  # symmetric, so one kernel for both sides
    if all(d.same_as(densities[0]) for d in densities[1:]):
        return BarycenterReport(result=densities[0], iterations=0, residual=0.0)

    p = np.stack([d.weights for d in densities], axis=1)  # (G, n, G)
    # u is 0 off the inputs' supports, about nine cells in ten of a disk
    # union: it is computed on the support cells (flat indices) alone and
    # written into a stack that stays 0 elsewhere
    support = np.flatnonzero(p)
    p_on, u = np.take(p, support), np.zeros_like(p)
    v = np.ones_like(p)
    b_prev = np.full((g, g), 1.0 / g**2)
    # an overflowing scaling shows up as a non-finite product one iteration
    # later, so its warning carries no information
    with np.errstate(over="ignore"):
        for it in range(1, max_iter + 1):
            u_next = p_on / _checked_product(np.take(_apply(k, v), support), it, lam)
            if it > 2:  # from the third iteration
                _relax(u_on, u_next)
            u_on = u_next
            np.put(u, support, u_on)
            ktu = _checked_product(_apply(k, u), it, lam)
            log_b = np.log(ktu).mean(axis=1)  # uniform weights
            b = np.exp(log_b - log_b.max())
            b /= b.sum()
            v_next = b[:, None, :] / ktu
            if it > 2:  # from the third iteration
                _relax(v, v_next)
            v = v_next
            tv = 0.5 * float(np.abs(b - b_prev).sum())
            if tv <= tol:
                return BarycenterReport(result=GridDensity(b), iterations=it, residual=tv,
                                        input_scalings=np.moveaxis(u, 1, 0))
            b_prev = b
    raise NoConvergence(
        f"barycenter TV change above {tol} after {max_iter} iterations; "
        f"n={p.shape[1]} densities on a {g}x{g} grid")


def _checked_product(x: np.ndarray, it: int, lam: float) -> np.ndarray:
    if not 0.0 < x.min() <= x.max() < np.inf:
        raise NumericalUnderflow(f"Bregman product zero or not finite on a support cell at "
                                 f"iteration {it}; lam={lam:g} is too large for the grid")
    return x
