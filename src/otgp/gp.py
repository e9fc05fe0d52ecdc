"""Gaussian process regression on embedded features.

Zero-mean GP with the parametric transport kernel; hyperparameters fitted by
maximum likelihood or leave-one-out cross validation inside box constraints,
with posterior mean/variance prediction and the RMSE/Q2/CIC metrics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CholeskyFailure, SizeMismatch, ValidationError, ZeroVarianceTruths,
                     check_arg, check_array)
from .kernels import (
    CV_RATIO_BOX,
    DEFAULT_BOUNDS,
    Embedding,
    KernelParams,
    cross_kernel,
    fit_invariants,
    gram_from_distances,
    gram_log_gradient,
    gram_parts,
    pairwise_distances,
)

# 90% two-sided interval half-width in standard deviations
CI90_FACTOR = 1.645

# Relative jitter ladder for Cholesky repair, scaled by tr(R)/n.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

# R >= nugget I on DEFAULT_BOUNDS bounds alpha = R^-1 y by |y| / nugget; each gradient entry
# sums n^2 terms alpha_i alpha_j times factors below this (a^2 d^p |log d| exp(-r d^p) <= 3.5e4).
MLE_KERNEL_FACTOR = 1e5

# _minimize_in_box screens one start per row of SOBOL_STARTS at SCREEN and
# polishes the best at POLISH.
SCREEN = {"L-BFGS-B": dict(ftol=1e-7, gtol=1e-4, maxiter=1000),
          "Nelder-Mead": dict(xatol=1e-3, fatol=1e-7, maxiter=4000, maxfev=4000)}
POLISH = {"L-BFGS-B": dict(ftol=1e-13, gtol=1e-9, maxiter=1000),
          "Nelder-Mead": dict(xatol=1e-8, fatol=1e-12, maxiter=4000, maxfev=4000)}

# The first 8 points of the unscrambled Sobol' sequence in [0, 1)^4,
# scipy.stats.qmc.Sobol(4, scramble=False).random(8); a search over k
# coordinates starts from the first k columns, the k-dimensional sequence.
SOBOL_STARTS = np.array([[0, 0, 0, 0], [4, 4, 4, 4], [6, 2, 2, 2], [2, 6, 6, 6],
                         [3, 3, 5, 7], [7, 7, 1, 3], [5, 1, 7, 5], [1, 5, 3, 1]]) / 8.0


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
    """Lower Cholesky factor of r by potrf into a new array, leaving r as it is;
    escalates a diagonal jitter on failure. A non-finite r: CholeskyFailure."""
    from scipy.linalg import lapack

    l, jitter = r, 0.0
    for level in JITTER_LADDER:
        if level:  # refill the failed factor from r, jitter on the diagonal
            jitter = level * (float(np.trace(r)) / len(r))
            l[...] = r
            l[np.diag_indices(len(r))] += jitter
        l, info = lapack.dpotrf(l, lower=1, overwrite_a=level > 0)
        if info == 0 and np.isfinite(l.diagonal()).all():
            return l, jitter
    raise CholeskyFailure("matrix not finite, or not factorizable after jitter up to "
                          f"{JITTER_LADDER[-1]:g}*tr(R)/n")


def log_likelihood(dist: np.ndarray, y: np.ndarray, theta: KernelParams,
                   log_dist: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Zero-mean Gaussian log likelihood of y under the kernel at theta, and
    its gradient with respect to log(amplitude, rate, exponent, nugget),
    1/2 tr((alpha alpha^T - R^-1) dR/dlog theta) (Rasmussen & Williams,
    GPML 2006, 5.4.1), from one Cholesky factor: alpha from potrs, R^-1 from
    potri. log_dist is fit_invariants(dist), computed here when omitted."""
    from scipy.linalg import lapack

    log_dist = fit_invariants(dist) if log_dist is None else log_dist
    r, power = gram_parts(dist, theta)
    l, _ = chol_with_jitter(r)
    alpha = lapack.dpotrs(l, y, lower=1)[0]
    n = len(y)
    value = float(-0.5 * y @ alpha - np.log(np.diag(l)).sum() - 0.5 * n * math.log(2 * math.pi))
    rinv = lapack.dpotri(l, lower=1, overwrite_c=1)[0]  # lower triangle only
    w = np.outer(alpha, alpha) - rinv
    w -= rinv.T
    w.flat[::n + 1] += rinv.diagonal()
    return value, gram_log_gradient(w, r, power, log_dist, theta)


def _exp_into_box(log_x, box: np.ndarray) -> np.ndarray:
    # box rows are [low, high]; exp(log(bound)) can overshoot by one ulp
    return np.minimum(np.maximum(np.exp(log_x), box[:, 0]), box[:, 1])


class _OutOfEvaluations(Exception):
    pass


class _Simplex(NamedTuple):
    """A final Nelder-Mead simplex, vertices sorted by value, best first."""

    x: np.ndarray
    fun: float  # NaN if any vertex's value is, as SciPy's np.min gives it
    simplex: np.ndarray
    values: np.ndarray
    nfev: int


def _nelder_mead(objective, start, box: np.ndarray, xatol: float, fatol: float,
                 maxiter: int, maxfev: int) -> _Simplex:
    """SciPy's minimize(method="Nelder-Mead", bounds=box) step for step, on
    Python floats. start is a point, around which the default simplex is
    built, or an (n + 1, n) simplex. Every vertex and trial point is clamped
    into the box; vertices above it are first reflected into it. The vertices
    are ordered by np.argsort, as SciPy orders them: NaN values go last, and
    ties keep the order numpy's sort gives them."""
    lo, hi = box[:, 0].tolist(), box[:, 1].tolist()

    def clip(x):  # np.clip's comparisons, signed zeros included
        return [min(h, max(l, v)) for v, l, h in zip(x, lo, hi)]

    def trial(a, b):  # a xbar + b worst, clamped
        return clip([a * c + b * w for c, w in zip(xbar, worst)])

    start = np.asarray(start, dtype=float)
    if start.ndim == 1:  # (1 + 0.05) x_k, or 0.00025 where x_k is 0
        x0 = clip(start.tolist())
        sim = [x0] + [x0[:k] + [(1 + 0.05) * v if v != 0 else 0.00025] + x0[k + 1:]
                      for k, v in enumerate(x0)]
    else:
        sim = start.tolist()
    sim = [clip([2 * h - v if v > h else v for v, h in zip(x, hi)]) for x in sim]
    n = len(sim) - 1
    values = [math.inf] * (n + 1)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return float(objective(np.array(x)))

    def ordered():
        order = np.argsort(values).tolist()
        return [sim[i] for i in order], [values[i] for i in order]

    try:
        for k in range(n + 1):
            values[k] = f(sim[k])
    except _OutOfEvaluations:
        pass
    sim, values = ordered()
    sim, values = ordered()  # SciPy sorts twice here; numpy's sort may swap ties
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        best, worst = sim[0], sim[-1]
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                and all(abs(values[0] - v) <= fatol for v in values[1:])):
            break
        xbar = best
        for x in sim[1:-1]:  # summed in order, as np.add.reduce sums the rows
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / n for s in xbar]
        try:
            xr = trial(2, -1)
            fxr = f(xr)
            if fxr < values[0]:  # expand
                xe = trial(3, -2)
                fxe = f(xe)
                sim[-1], values[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < values[-2]:  # reflect
                sim[-1], values[-1] = xr, fxr
            else:  # contract outside or inside, else shrink towards the best
                outside = fxr < values[-1]
                xc = trial(1.5, -0.5) if outside else trial(0.5, 0.5)
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < values[-1]):
                    sim[-1], values[-1] = xc, fxc
                else:  # a vertex moves before its evaluation, so a budget that
                    # runs out here leaves it moved with its old value
                    for j in range(1, n + 1):
                        sim[j] = clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])])
                        values[j] = f(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        sim, values = ordered()
    return _Simplex(np.array(sim[0]), float(np.min(values)), np.array(sim), np.array(values), nfev)


def _minimize_in_box(objective, log_box: np.ndarray, gradient: bool = False):
    """Bounded local search from every Sobol start to the loose SCREEN
    tolerances, then from the best screened result on to the tight POLISH
    ones (Rinnooy Kan & Timmer, Math. Programming 1987): SciPy's L-BFGS-B
    restarted from its point when the objective returns (value, gradient),
    the in-package copy of SciPy's Nelder-Mead (_nelder_mead, equal to it bit
    for bit) continued from its final simplex when it returns the value
    alone, so that only the gradient fit loads scipy.optimize. About half the
    evaluations of a tight search from every start, and the same best value
    within 4.1e-10 relative on gaussian-regression datasets. The result has
    the best point .x and its value .fun."""
    if gradient:
        from scipy.optimize import minimize

        def search(start, **options):
            return minimize(objective, start, method="L-BFGS-B", jac=True,
                            bounds=list(map(tuple, log_box)), options=options)
    else:
        def search(start, **options):
            return _nelder_mead(objective, start, log_box, **options)

    method = "L-BFGS-B" if gradient else "Nelder-Mead"
    starts = log_box[:, 0] + SOBOL_STARTS[:, :len(log_box)] * (log_box[:, 1] - log_box[:, 0])
    best = min((search(x0, **SCREEN[method]) for x0 in starts),
               key=lambda res: res.fun)  # the first of equal values
    return search(best.x if gradient else best.simplex, **POLISH[method])


def build_model(features, y, dist, theta, degenerate=False) -> GpModel:
    """GP model at fixed kernel parameters: one factorization of the
    training Gram (with jitter when needed) and alpha = R^-1 y."""
    from scipy.linalg import lapack

    y = check_array("y", y)
    r = gram_from_distances(dist, theta)
    l, jitter = chol_with_jitter(r)
    alpha = lapack.dpotrs(l, y, lower=1)[0]
    return GpModel(features=features, y=y, theta=theta, distances=dist, chol=l, alpha=alpha,
                   degenerate=degenerate, jitter=jitter)


def _fit_data(features, y) -> tuple[np.ndarray, np.ndarray]:
    """The responses as floats, their squares finite, and the training distances of a fitter."""
    y = check_array("y", y)
    if len(features) != len(y) or len(y) < 2:
        raise SizeMismatch("need matching features and responses, n >= 2")
    peak = float(np.abs(y).max())
    check_arg("largest squared response", peak * peak, "finite", shown=f"{peak:g}^2")
    return y, pairwise_distances(features)


def _degenerate_model(features, y, dist) -> GpModel:
    warnings.warn("constant responses: returning lower-bound amplitude", stacklevel=3)
    theta = KernelParams(amplitude=DEFAULT_BOUNDS[0][0], rate=DEFAULT_BOUNDS[1][0],
                         exponent=1.0, nugget=DEFAULT_BOUNDS[3][0])
    return build_model(features, y, dist, theta, degenerate=True)


def gp_fit_mle(features, y) -> GpModel:
    """Fit kernel parameters by maximizing the log likelihood.

    L-BFGS-B with the analytic gradient of log_likelihood, in log-transformed
    DEFAULT_BOUNDS coordinates, from the deterministic SOBOL_STARTS, each
    screened and the best polished (_minimize_in_box). A start
    whose Gram cannot be factorized sees a large value with a zero gradient,
    and the search goes on from the other starts. Responses for which the
    gradient could overflow in the box (MLE_KERNEL_FACTOR) are refused first.
    """
    y, dist = _fit_data(features, y)
    if float(np.var(y)) == 0.0:
        return _degenerate_model(features, y, dist)
    limit = math.sqrt(np.finfo(float).max / MLE_KERNEL_FACTOR) * DEFAULT_BOUNDS[3][0] / len(y)
    if math.hypot(*y) > limit:  # hypot scales, so the norm cannot overflow
        raise ValidationError(f"responses of norm {math.hypot(*y):g} are beyond the MLE "
                              f"fit's limit {limit:.4g} for {len(y)} inputs")
    log_dist = fit_invariants(dist)
    box = np.asarray(DEFAULT_BOUNDS, dtype=float)

    def objective(log_theta):
        theta = KernelParams.from_array(_exp_into_box(log_theta, box))
        try:
            value, grad = log_likelihood(dist, y, theta, log_dist)
        except CholeskyFailure:
            return 1e15, np.zeros(len(log_theta))
        return -value, -grad

    best = _minimize_in_box(objective, np.log(box), gradient=True)
    theta = KernelParams.from_array(_exp_into_box(best.x, box))
    return build_model(features, y, dist, theta)


def loo_residuals(dist: np.ndarray, y: np.ndarray, theta: KernelParams
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out residuals and predictive variances from one
    factorization: e_i = alpha_i / (R^-1)_ii, var_i = 1 / (R^-1)_ii
    (Dubrule, Math. Geology 1983), with R^-1 from potri and alpha = R^-1 y."""
    from scipy.linalg import blas, lapack

    r = gram_from_distances(dist, theta)
    l, _ = chol_with_jitter(r)
    rinv = lapack.dpotri(l, lower=1, overwrite_c=1)[0]
    diag = rinv.diagonal()
    alpha = blas.dsymv(1.0, rinv, y, lower=1)
    return alpha / diag, 1.0 / diag


def gp_fit_cv(features, y) -> GpModel:
    """Fit by leave-one-out cross validation.

    The LOO squared error is invariant to the total variance (Dubrule, Math.
    Geology 1983; GPML 5.4.2), so only (rate, exponent, nugget/amplitude^2
    ratio) are searched, in DEFAULT_BOUNDS and CV_RATIO_BOX, by Nelder-Mead
    from screened Sobol starts (_minimize_in_box). The model is the point the
    search scored: the amplitude makes the mean standardized LOO residual 1,
    and the nugget is the ratio times amplitude^2, neither bounded further.
    """
    y, dist = _fit_data(features, y)
    if float(np.var(y)) == 0.0:
        return _degenerate_model(features, y, dist)

    cv_box = np.array((DEFAULT_BOUNDS[1], DEFAULT_BOUNDS[2], CV_RATIO_BOX), dtype=float)

    def unit_theta(log_x):  # amplitude 1, nugget = the searched ratio
        return KernelParams(1.0, *_exp_into_box(log_x, cv_box).tolist())

    def objective(log_x):
        try:
            errs, _ = loo_residuals(dist, y, unit_theta(log_x))
        except CholeskyFailure:
            return 1e15
        return float((errs**2).sum())

    best = _minimize_in_box(objective, np.log(cv_box))
    rate, exponent, ratio = _exp_into_box(best.x, cv_box).tolist()
    errs, unit_vars = loo_residuals(dist, y, unit_theta(best.x))
    # calibrate total variance: mean(e_i^2 / (amp^2 * var0_i)) = 1
    amplitude = math.sqrt(float((errs**2 / unit_vars).mean()))
    theta = KernelParams(amplitude=amplitude, rate=rate, exponent=exponent,
                         nugget=ratio * amplitude**2)
    return build_model(features, y, dist, theta)


def gp_predict(model: GpModel, features: Embedding) -> PredictionResult:
    """Posterior prediction at every row of features, with 90% intervals:
    one cross-kernel, one product with alpha and one triangular solve."""
    from scipy.linalg import solve_triangular

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
    p, t = check_array("predictions", predictions), check_array("truths", truths)
    if p.shape != t.shape:
        raise SizeMismatch("predictions and truths differ in length")
    rmse = float(np.sqrt(((p - t) ** 2).mean()))
    var = float(np.var(t))
    if var == 0.0:
        raise ZeroVarianceTruths("truths have zero variance; Q2 undefined")
    q2 = 1.0 - rmse**2 / var
    cic = None
    if variances is not None:
        v = check_array("variances", variances)
        if v.shape != t.shape:
            raise SizeMismatch("variances and truths differ in length")
        cic = float((np.abs(t - p) <= CI90_FACTOR * np.sqrt(v)).mean())
    return MetricsResult(rmse=rmse, q2=q2, cic=cic)
