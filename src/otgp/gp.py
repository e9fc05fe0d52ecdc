"""Gaussian process regression on embedded features.

Zero-mean GP with the parametric transport kernel; hyperparameters fitted by
maximum likelihood or leave-one-out cross validation inside box constraints,
with posterior mean/variance prediction and the RMSE/Q2/CIC metrics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.stats import qmc

from .errors import CholeskyFailure, SizeMismatch, ZeroVarianceTruths
from .kernels import (
    DEFAULT_BOUNDS,
    Embedding,
    KernelParams,
    cross_kernel,
    gram_from_distances,
    pairwise_distances,
)

# 90% two-sided interval half-width in standard deviations
CI90_FACTOR = 1.645

# Relative jitter ladder for Cholesky repair, scaled by tr(R)/n.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass
class GpModel:
    features: Embedding  # training inputs
    y: np.ndarray
    theta: KernelParams
    distances: np.ndarray
    chol: np.ndarray  # lower triangular
    alpha: np.ndarray  # R^{-1} y
    degenerate: bool = False
    jitter: float = 0.0
    clipped: bool = False


@dataclass(frozen=True)
class PredictionResult:
    """Posterior means, variances and 90% intervals, one entry per test row."""

    mean: np.ndarray
    variance: np.ndarray
    ci90: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MetricsResult:
    rmse: float
    q2: float
    cic: float | None


def chol_with_jitter(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating a diagonal jitter on failure."""
    scale = float(np.trace(r)) / len(r)
    for level in JITTER_LADDER:
        try:
            l = cholesky(r + level * scale * np.eye(len(r)), lower=True)
            return l, level * scale
        except np.linalg.LinAlgError:
            continue
    raise CholeskyFailure(
        f"matrix not factorizable after jitter up to {JITTER_LADDER[-1]:g}*tr(R)/n")


def log_likelihood(dist: np.ndarray, y: np.ndarray, theta: KernelParams) -> float:
    """Zero-mean Gaussian log likelihood of y under the kernel at theta."""
    r = gram_from_distances(dist, theta)
    l, _ = chol_with_jitter(r)
    alpha = cho_solve((l, True), y)
    n = len(y)
    return float(-0.5 * y @ alpha - np.log(np.diag(l)).sum() - 0.5 * n * math.log(2 * math.pi))


def _log_box(bounds) -> np.ndarray:
    return np.log(np.asarray(bounds, dtype=float))


def _exp_into_box(log_x, bounds) -> np.ndarray:
    # exp(log(bound)) can overshoot the box by one ulp; clip it back
    b = np.asarray(bounds, dtype=float)
    return np.clip(np.exp(log_x), b[:, 0], b[:, 1])


def _multistart_points(log_box: np.ndarray, n_starts: int) -> np.ndarray:
    # deterministic Sobol lattice over the (log) box
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unscrambled Sobol balance warning
        unit = qmc.Sobol(d=len(log_box), scramble=False).random(n_starts)
    return log_box[:, 0] + unit * (log_box[:, 1] - log_box[:, 0])


def _minimize_in_box(objective, log_box: np.ndarray, n_starts: int = 8):
    from scipy.optimize import minimize

    best = None
    for x0 in _multistart_points(log_box, n_starts):
        res = minimize(objective, x0, method="Nelder-Mead",
                       bounds=list(map(tuple, log_box)),
                       options=dict(xatol=1e-8, fatol=1e-12, maxiter=4000,
                                    maxfev=4000))
        if best is None or res.fun < best.fun:
            best = res
    return best


def _build_model(features, y, dist, theta, degenerate=False, clipped=False) -> GpModel:
    r = gram_from_distances(dist, theta)
    l, jitter = chol_with_jitter(r)
    alpha = cho_solve((l, True), y)
    return GpModel(features=features, y=np.asarray(y, dtype=float),
                   theta=theta, distances=dist, chol=l, alpha=alpha,
                   degenerate=degenerate, jitter=jitter, clipped=clipped)


def _degenerate_model(features, y, dist, bounds) -> GpModel:
    warnings.warn("constant responses: returning lower-bound amplitude", stacklevel=3)
    theta = KernelParams(amplitude=bounds[0][0], rate=bounds[1][0],
                         exponent=1.0, nugget=bounds[3][0])
    return _build_model(features, y, dist, theta, degenerate=True)


def gp_fit_mle(features, y, bounds=DEFAULT_BOUNDS, n_starts: int = 8) -> GpModel:
    """Fit kernel parameters by maximizing the log likelihood.

    Derivative-free Nelder-Mead in log-transformed box coordinates from a
    deterministic Sobol lattice of starting points.
    """
    y = np.asarray(y, dtype=float)
    if len(features) != len(y) or len(y) < 2:
        raise SizeMismatch("need matching features and responses, n >= 2")
    dist = pairwise_distances(features)
    if float(np.var(y)) == 0.0:
        return _degenerate_model(features, y, dist, bounds)

    def objective(log_theta):
        theta = KernelParams.from_array(_exp_into_box(log_theta, bounds))
        try:
            return -log_likelihood(dist, y, theta)
        except CholeskyFailure:
            return 1e15

    best = _minimize_in_box(objective, _log_box(bounds), n_starts)
    theta = KernelParams.from_array(_exp_into_box(best.x, bounds))
    return _build_model(features, y, dist, theta)


def loo_residuals(dist: np.ndarray, y: np.ndarray, theta: KernelParams
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out residuals and predictive variances from one
    factorization: e_i = alpha_i / (R^-1)_ii, var_i = 1 / (R^-1)_ii."""
    r = gram_from_distances(dist, theta)
    l, _ = chol_with_jitter(r)
    rinv = cho_solve((l, True), np.eye(len(y)))
    diag = np.diag(rinv)
    alpha = rinv @ y
    return alpha / diag, 1.0 / diag


def _clip_to_box(value: float, box: tuple[float, float]) -> tuple[float, bool]:
    clipped = min(max(value, box[0]), box[1])
    return clipped, clipped != value


def gp_fit_cv(features, y, bounds=DEFAULT_BOUNDS, n_starts: int = 8,
              ratio_box: tuple[float, float] = (1e-6, 20.0)) -> GpModel:
    """Fit by leave-one-out cross validation.

    The LOO squared error is invariant to the total variance, so only
    (rate, exponent, nugget/amplitude^2 ratio) are searched; the total
    variance is then set so the mean standardized LOO residual equals 1.
    """
    y = np.asarray(y, dtype=float)
    if len(features) != len(y) or len(y) < 2:
        raise SizeMismatch("need matching features and responses, n >= 2")
    dist = pairwise_distances(features)
    if float(np.var(y)) == 0.0:
        return _degenerate_model(features, y, dist, bounds)

    cv_bounds = (bounds[1], bounds[2], ratio_box)

    def unit_theta(log_x):
        rate, exponent, ratio = _exp_into_box(log_x, cv_bounds)
        return KernelParams(amplitude=1.0, rate=rate, exponent=exponent,
                            nugget=ratio)

    def objective(log_x):
        try:
            errs, _ = loo_residuals(dist, y, unit_theta(log_x))
        except CholeskyFailure:
            return 1e15
        return float((errs**2).sum())

    best = _minimize_in_box(objective, _log_box(cv_bounds), n_starts)
    rate, exponent, ratio = _exp_into_box(best.x, cv_bounds)
    errs, unit_vars = loo_residuals(dist, y, unit_theta(best.x))
    # calibrate total variance: mean(e_i^2 / (amp^2 * var0_i)) = 1
    amp_sq = float((errs**2 / unit_vars).mean())
    amplitude, c1 = _clip_to_box(math.sqrt(amp_sq), bounds[0])
    nugget, c2 = _clip_to_box(ratio * amplitude**2, bounds[3])
    theta = KernelParams(amplitude=amplitude, rate=float(rate),
                         exponent=float(exponent), nugget=nugget)
    return _build_model(features, y, dist, theta, clipped=c1 or c2)


def posterior_mean_variance(chol: np.ndarray, alpha: np.ndarray,
                            r_vec: np.ndarray, k_self: float) -> tuple[float, float]:
    """Posterior mean r^T R^-1 y and variance k - r^T R^-1 r from the
    training factorization."""
    mean = float(r_vec @ alpha)
    w = cho_solve((chol, True), r_vec)
    return mean, float(k_self - r_vec @ w)


def gp_predict(model: GpModel, features: Embedding) -> PredictionResult:
    """Posterior prediction at every row of features, with 90% intervals:
    one cross-kernel, one product with alpha and one triangular solve."""
    r = cross_kernel(features, model.features, model.theta)
    mean = r @ model.alpha
    w = solve_triangular(model.chol, r.T, lower=True)
    k_self = model.theta.amplitude**2 + model.theta.nugget
    variance = np.maximum(k_self - (w * w).sum(axis=0), 0.0)
    half = CI90_FACTOR * np.sqrt(variance)
    return PredictionResult(mean=mean, variance=variance, ci90=(mean - half, mean + half))


def metrics(predictions, truths, variances=None) -> MetricsResult:
    """RMSE, Q2 = 1 - RMSE^2/var(truths), and the 90% interval coverage
    (None when no variances are supplied, e.g. for the smoothing baseline)."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape:
        raise SizeMismatch("predictions and truths differ in length")
    rmse = float(np.sqrt(((p - t) ** 2).mean()))
    var = float(np.var(t))
    if var == 0.0:
        raise ZeroVarianceTruths("truths have zero variance; Q2 undefined")
    q2 = 1.0 - rmse**2 / var
    cic = None
    if variances is not None:
        v = np.asarray(variances, dtype=float)
        if v.shape != t.shape:
            raise SizeMismatch("variances and truths differ in length")
        cic = float((np.abs(t - p) <= CI90_FACTOR * np.sqrt(v)).mean())
    return MetricsResult(rmse=rmse, q2=q2, cic=cic)
