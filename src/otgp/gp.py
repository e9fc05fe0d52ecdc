"""Gaussian process regression on embedded features.

Zero-mean GP with the parametric transport kernel; hyperparameters fitted by
maximum likelihood or leave-one-out cross validation in one box of (rate,
exponent, nugget/amplitude^2), the amplitude in closed form, with posterior
mean/variance prediction and the RMSE/Q2/CIC metrics.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (CholeskyFailure, NumericalUnderflow, SizeMismatch, ZeroVarianceTruths,
                     check_arg, check_array)
from .kernels import (
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

# _minimize_in_box screens one start per row of SOBOL_STARTS at SCREEN and
# polishes the best at POLISH. The screen only ranks the starts: at ftol 1e-5
# and gtol 1e-3 grid-path dataset 7's MLE fit ended 2.6e-9 lower in log
# likelihood.
SCREEN = dict(ftol=1e-7, gtol=1e-4, maxiter=1000)
POLISH = dict(ftol=1e-13, gtol=1e-9, maxiter=1000)

# The first 8 points of the unscrambled Sobol' sequence in [0, 1)^3,
# scipy.stats.qmc.Sobol(3, scramble=False).random(8).
SOBOL_STARTS = np.array([[0, 0, 0], [4, 4, 4], [6, 2, 2], [2, 6, 6],
                         [3, 3, 5], [7, 7, 1], [5, 1, 7], [1, 5, 3]]) / 8.0

# The one search box of both fits, rows [low, high]: the rate, the exponent and
# the nugget/amplitude^2 ratio tau. Each fit sets the amplitude in closed form
# at the best point, and the nugget to tau amplitude^2.
FIT_BOX = np.array([[0.01, 10.0], [0.5, 2.0], [1e-6, 20.0]])
FIT_VARIABLES = ("rate", "exponent", "tau")


@functools.cache
def _linalg():
    """scipy.linalg, imported by the first call and not per call: importing
    otgp loads no scipy."""
    import scipy.linalg

    return scipy.linalg


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
    scored: int = 0  # the distinct points the fit's search scored
    on_bound: tuple[str, ...] = ()  # the FIT_VARIABLES the fit ended on a bound of


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
    dpotrf = _linalg().lapack.dpotrf
    l, jitter = r, 0.0
    for level in JITTER_LADDER:
        if level:  # refill the failed factor from r, jitter on the diagonal
            jitter = level * (float(np.trace(r)) / len(r))
            l[...] = r
            l[np.diag_indices(len(r))] += jitter
        l, info = dpotrf(l, lower=1, overwrite_a=level > 0)
        if info == 0 and np.isfinite(l.diagonal()).all():
            return l, jitter
    raise CholeskyFailure("matrix not finite, or not factorizable after jitter up to "
                          f"{JITTER_LADDER[-1]:g}*tr(R)/n")


def log_likelihood(dist: np.ndarray, y: np.ndarray, theta: KernelParams,
                   log_dist: np.ndarray | None = None) -> tuple[float, np.ndarray, float]:
    """Zero-mean Gaussian log likelihood of y maximized over the amplitude, at
    theta's rate, exponent and ratio nugget/amplitude^2, its gradient in
    log(rate, exponent, nugget), neither of which sees theta's amplitude, and
    s^2. With R the Gram at theta, alpha = R^-1 y and s^2 = y^T alpha / n
    (the best Gram is s^2 R): -n/2 (log(2 pi s^2) + 1) - log|L| and 1/2
    tr((alpha alpha^T / s^2 - R^-1) dR/dlog theta) (GPML 2006, 5.4; Lippert
    et al., Nature Methods 2011), from one Cholesky factor L, alpha from
    potrs and R^-1 from potri.
    log_dist is fit_invariants(dist), computed here when omitted. Responses
    so small that y^T alpha / n underflows to 0: NumericalUnderflow."""
    lapack = _linalg().lapack
    log_dist = fit_invariants(dist) if log_dist is None else log_dist
    r, power = gram_parts(dist, theta)
    l, _ = chol_with_jitter(r)
    alpha = lapack.dpotrs(l, y, lower=1)[0]
    n = len(y)
    s2 = float(y @ alpha) / n
    if s2 == 0.0:
        raise NumericalUnderflow("y^T R^-1 y / n underflows to 0: responses too small to fit")
    value = -0.5 * n * (math.log(2 * math.pi * s2) + 1.0) - float(np.log(l.diagonal()).sum())
    rinv = lapack.dpotri(l, lower=1, overwrite_c=1)[0]  # lower triangle, upper 0
    w = (alpha / s2)[:, None] * alpha
    w -= rinv
    w -= rinv.T
    w.ravel("K")[::n + 1] += rinv.diagonal()
    return value, gram_log_gradient(w, r, power, log_dist, theta), s2


class _Point(NamedTuple):  # a final quasi-Newton point and its value
    x: np.ndarray
    fun: float


def _dot(a, b) -> float:
    """a^T b for two sequences of three floats, added to 0.0 left to right as
    sum() adds them."""
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _model_step(x: list, g: list, b: list, lo: list, hi: list) -> list:
    """The point L-BFGS-B steps to from x in the box [lo, hi] on the model
    g^T p + p^T b p / 2 of a step p, b positive definite (three variables,
    Python floats): the generalized Cauchy point, the model's first minimum
    along the projected gradient path, each variable held at its bound from
    the t at which x - t g reaches it; then the model's Newton step in the
    variables that point leaves free, truncated to the box. The products
    with b are written out, each added as _dot adds."""
    edge = [(v - h) / gi if gi < 0 else (v - l) / gi if gi > 0 else math.inf
            for v, gi, l, h in zip(x, g, lo, hi)]
    z, d, t = x[:], [-gi if e > 0 else 0.0 for gi, e in zip(g, edge)], 0.0
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    (x0, x1, x2), (g0, g1, g2) = x, g
    for stop in sorted(set(edge) - {0.0, math.inf}) + [math.inf]:
        (d0, d1, d2), (z0, z1, z2) = d, z
        bd0 = 0.0 + b00 * d0 + b01 * d1 + b02 * d2
        bd1 = 0.0 + b10 * d0 + b11 * d1 + b12 * d2
        bd2 = 0.0 + b20 * d0 + b21 * d1 + b22 * d2
        slope = ((0.0 + g0 * d0 + g1 * d1 + g2 * d2)
                 + (0.0 + bd0 * (z0 - x0) + bd1 * (z1 - x1) + bd2 * (z2 - x2)))
        curve = 0.0 + d0 * bd0 + d1 * bd1 + d2 * bd2
        if slope >= 0 or not curve > 0 or -slope < curve * (stop - t):
            z = [a - slope / curve * c for a, c in zip(z, d)] if slope < 0 < curve else z
            break
        z = [(h if gi < 0 else l) if e == stop else a + (stop - t) * c
             for a, c, e, gi, l, h in zip(z, d, edge, g, lo, hi)]
        d, t = [0.0 if e == stop else c for c, e in zip(d, edge)], stop
    dz0, dz1, dz2 = z[0] - x0, z[1] - x1, z[2] - x2
    r = (g0 + (0.0 + b00 * dz0 + b01 * dz1 + b02 * dz2),
         g1 + (0.0 + b10 * dz0 + b11 * dz1 + b12 * dz2),
         g2 + (0.0 + b20 * dz0 + b21 * dz1 + b22 * dz2))
    free = [i for i, (l, v, h) in enumerate(zip(lo, z, hi)) if l < v < h]
    a = [[b[i][j] for j in free] + [-r[i]] for i in free]
    for k, pivot in enumerate(a):  # Gauss-Jordan elimination
        if not pivot[k] > 0:  # b not positive definite in round-off: no step
            return z
        for row in a:
            if row is not pivot:
                q = row[k] / pivot[k]
                row[:] = [u - q * v for u, v in zip(row, pivot)]
    step = [(i, row[-1] / row[k]) for k, (i, row) in enumerate(zip(free, a))]
    step = [(i, s, hi[i] if s > 0 else lo[i]) for i, s in step if s]
    scale = min([1.0] + [(bound - z[i]) / s for i, s, bound in step])
    for i, s, bound in step:  # a variable the truncation stops lands on its bound
        z[i] = bound if (bound - z[i]) / s <= scale else z[i] + scale * s
    return z


def _quasi_newton(objective, start, box: np.ndarray, ftol: float, gtol: float,
                  maxiter: int) -> _Point:
    """Bounded quasi-Newton search of objective(x) -> (value, gradient), on
    Python floats: L-BFGS-B's step (Byrd, Lu, Nocedal & Zhu, SISC 1995;
    _model_step) on a dense BFGS model B, which starts as I, is set to
    (y^T y / s^T y) I at the first pair with s^T y > 0 and updated only by
    such pairs. Each iteration line-searches from the model's step (at most
    unit length at the first iteration): it extrapolates x4 up to the box
    while the slope is steeper than 0.9 of the first, and accepts a value
    1e-3 of the slope's prediction lower with a slope at most 0.9 of the
    first in size, else backs off by quadratic interpolation. A failed line
    search restarts from B = I, or ends the search at B = I. Stops on
    L-BFGS-B's tests: a relative fall of the value at most ftol, or a
    projected gradient at most gtol; and when a step fails the decrease test
    and the line search backs off to one whose predicted fall -t g^T d is
    below the ftol test's ftol max(|f|, 1). Along a direction on which the
    objective is convex, no step that short falls by more than it predicts,
    so the ftol test would end the search after it; at the POLISH tolerances
    such a fall is also within the objective's round-off."""
    lo, hi = box[:, 0].tolist(), box[:, 1].tolist()
    eye = [[float(i == j) for j in range(len(lo))] for i in range(len(lo))]

    def evaluate(x):
        value, grad = objective(np.array(x))
        return x, float(value), grad.tolist()

    x, f, g = evaluate([min(h, max(l, v)) for v, l, h in
                        zip(np.asarray(start, dtype=float).tolist(), lo, hi)])
    b = None  # the model's Hessian, I until the first pair
    for iteration in range(maxiter):
        if max([abs(min(max(gi, v - h), v - l)) for gi, v, l, h in zip(g, x, lo, hi)]) <= gtol:
            break
        d = [a - c for a, c in zip(_model_step(x, g, b or eye, lo, hi), x)]
        gd, t = _dot(g, d), 1 / max(1.0, math.hypot(*d)) if iteration == 0 else 1.0
        tmax = min([((h if c > 0 else l) - v) / c for v, c, l, h in zip(x, d, lo, hi) if c],
                   default=0.0)
        new = last = roundoff = None
        for _ in range(20 if gd < 0 else 0):
            xt, ft, gt = evaluate([min(h, max(l, v + t * c)) for v, c, l, h in zip(x, d, lo, hi)])
            slope, decrease = _dot(gt, d), ft <= f + 1e-3 * t * gd
            accept = decrease and slope <= -0.9 * gd
            if decrease and slope < 0.9 * gd and t < tmax:
                last, t = (xt, ft, gt), min(4 * t, tmax)
            elif accept or last:  # else keep the last extrapolated step
                new = (xt, ft, gt) if accept else last
                break
            else:  # the quadratic through f, its slope and the value, or the two slopes
                t *= min(0.5, max(0.1, gd / (gd - slope) if decrease
                                  else -gd * t / (2 * (ft - f - gd * t))))
                roundoff = not decrease and -t * gd < ftol * max(abs(f), 1.0)
                if roundoff:  # a fall the ftol test would end the search on
                    break
        if new is None:
            if b is None or roundoff:
                break
            b = None
            continue
        s, y = [u - v for u, v in zip(new[0], x)], [u - v for u, v in zip(new[2], g)]
        sy, f_old, (x, f, g) = _dot(s, y), f, new
        if sy > 0:
            b = b or [[_dot(y, y) / sy * v for v in row] for row in eye]
            bs = [_dot(row, s) for row in b]
            sbs = _dot(s, bs)
            b = [[v - p * q / sbs + u * w / sy for v, q, w in zip(row, bs, y)]
                 for row, p, u in zip(b, bs, y)]
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            break
    return _Point(np.array(x), f)


def _minimize_in_box(objective, log_box: np.ndarray) -> _Point:
    """_quasi_newton from every Sobol start to the loose SCREEN tolerances,
    then from the best screened point on to the tight POLISH ones (Rinnooy
    Kan & Timmer, Math. Programming 1987). The result has the best point .x
    and its value .fun."""
    starts = log_box[:, 0] + SOBOL_STARTS * (log_box[:, 1] - log_box[:, 0])
    best = min((_quasi_newton(objective, x0, log_box, **SCREEN) for x0 in starts),
               key=lambda res: res.fun)  # the first of equal values
    return _quasi_newton(objective, best.x, log_box, **POLISH)


def build_model(features, y, dist, theta, degenerate=False) -> GpModel:
    """GP model at fixed kernel parameters: one factorization of the
    training Gram (with jitter when needed) and alpha = R^-1 y."""
    y = check_array("y", y)
    r = gram_from_distances(dist, theta)
    l, jitter = chol_with_jitter(r)
    alpha = _linalg().lapack.dpotrs(l, y, lower=1)[0]
    return GpModel(features=features, y=y, theta=theta, distances=dist, chol=l, alpha=alpha,
                   degenerate=degenerate, jitter=jitter)


def _fit_data(features, y) -> tuple[np.ndarray, np.ndarray]:
    """The responses as floats and the training distances of a fitter."""
    y = check_array("y", y)
    if len(features) != len(y) or len(y) < 2:
        raise SizeMismatch("need matching features and responses, n >= 2")
    return y, pairwise_distances(features)


def _unit_kernel(rate: float, exponent: float, tau: float) -> KernelParams:
    """KernelParams(1.0, rate, exponent, tau) unchecked, for _fit's float
    points of FIT_BOX, which pass every check."""
    theta = object.__new__(KernelParams)
    theta.__dict__.update(amplitude=1.0, rate=rate, exponent=exponent, nugget=tau)
    return theta


def _fit(features, y, score) -> GpModel:
    """The fit both fitters run: the degenerate model for constant responses,
    else a search of the log of FIT_BOX (_minimize_in_box) for the
    unit-amplitude kernel minimizing score(dist, y, kernel, log_dist), which
    returns (value, gradient, the fit's amplitude^2 at that kernel). Each
    distinct point of the box, keyed by its floats, is scored once per fit; a
    point the search visits again gets the recorded value and gradient, which
    the search only reads. A Gram that cannot be factorized scores 1e15, with
    a zero gradient. The model is the point the search scored: the
    amplitude^2 recorded there and nugget = tau amplitude^2, neither bounded
    further; it records how many points were scored and the FIT_VARIABLES
    that ended on a bound."""
    y, dist = _fit_data(features, y)
    if y.max() == y.min():
        warnings.warn("constant responses: returning the degenerate model", stacklevel=3)
        theta = KernelParams(amplitude=0.05, rate=0.01, exponent=1.0, nugget=1e-5)
        return build_model(features, y, dist, theta, degenerate=True)
    log_dist = fit_invariants(dist)
    low, high = FIT_BOX.T.tolist()
    scored = {}  # the point's floats: the score there, None where the Gram failed

    def point(log_x):  # exp(log(bound)) can overshoot a bound by one ulp
        return tuple([min(h, max(l, v)) for v, l, h in zip(np.exp(log_x).tolist(), low, high)])

    def searched(log_x):
        x = point(log_x)
        if x not in scored:
            try:  # amplitude 1, nugget = the searched ratio tau
                scored[x] = score(dist, y, _unit_kernel(*x), log_dist)
            except CholeskyFailure:
                scored[x] = None
        entry = scored[x]
        return (1e15, np.zeros(len(x))) if entry is None else entry[:2]

    log_box = np.log(FIT_BOX)
    found = _minimize_in_box(searched, log_box).x.tolist()
    best = point(found)
    unit = KernelParams(1.0, *best)
    # a best point whose Gram failed is scored again here, and raises
    *_, amplitude_sq = scored.get(best) or score(dist, y, unit, log_dist)
    amplitude = math.sqrt(amplitude_sq)
    theta = replace(unit, amplitude=amplitude, nugget=unit.nugget * amplitude**2)
    # the search clips to the log box, so a point on a bound holds it exactly
    on_bound = tuple(name for name, v, bounds in zip(FIT_VARIABLES, found, log_box.tolist())
                     if v in bounds)
    return replace(build_model(features, y, dist, theta), scored=len(scored), on_bound=on_bound)


def _negative_log_likelihood(dist, y, theta, log_dist):
    """gp_fit_mle's score: minus log_likelihood and its gradient, and s^2."""
    value, grad, s2 = log_likelihood(dist, y, theta, log_dist)
    return -value, -grad, s2


def gp_fit_mle(features, y) -> GpModel:
    """Fit kernel parameters by maximizing the log likelihood.

    The bounded quasi-Newton search (_fit, _quasi_newton) on log_likelihood,
    the likelihood maximized over the amplitude, and its analytic gradient;
    amplitude^2 is that maximizer, log_likelihood's s^2 at the best point.
    """
    return _fit(features, y, _negative_log_likelihood)


def loo_residuals(dist: np.ndarray, y: np.ndarray, theta: KernelParams,
                  log_dist: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Leave-one-out residuals e and predictive variances from one
    factorization, with c the diagonal of R^-1 from potri and alpha = R^-1 y:
    e_i = alpha_i / c_i and var_i = 1 / c_i (Dubrule, Math. Geology 1983);
    then log sum e^2 and its gradient in log(rate, exponent, nugget),
    tr(W dR/dlog theta) / sum e^2 with W = 2 R^-1 diag(e^2 / c) R^-1 -
    (alpha u^T + u alpha^T) and u = R^-1 (e / c) (Sundararajan & Keerthi,
    Neural Computation 2001; GPML 2006, 5.4.2). Both are computed from e /
    max|e| and alpha / max|e|, so nothing in them underflows. log_dist is
    fit_invariants(dist), computed here when omitted. Residuals that are all
    0: NumericalUnderflow."""
    blas, lapack = _linalg().blas, _linalg().lapack
    log_dist = fit_invariants(dist) if log_dist is None else log_dist
    r, power = gram_parts(dist, theta)
    l, _ = chol_with_jitter(r)
    rinv = lapack.dpotri(l, lower=1, overwrite_c=1)[0]  # lower triangle, upper 0
    diag = rinv.diagonal()
    alpha = blas.dsymv(1.0, rinv, y, lower=1)
    errs = alpha / diag
    scale = float(np.abs(errs).max())
    if scale == 0.0:
        raise NumericalUnderflow("leave-one-out residuals underflow to 0: "
                                 "responses too small to fit")
    e, alpha = errs / scale, alpha / scale
    total = float(e @ e)
    u = blas.dsymv(1.0, rinv, e / diag, lower=1)
    # R^-1 whole, from potri's Fortran-ordered triangle: adding its transpose
    # to its upper 0 doubles the diagonal, which halving restores exactly
    rinv += rinv.T.copy(order="F")
    rinv.ravel("K")[::len(y) + 1] *= 0.5
    b = rinv * (np.abs(e) / np.sqrt(diag))  # B B^T = R^-1 diag(e^2 / c) R^-1
    w = b @ b.T
    w *= 2.0
    au = alpha[:, None] * u
    w -= au
    w -= au.T
    grad = gram_log_gradient(w, r, power, log_dist, theta) * (2.0 / total)
    return errs, 1.0 / diag, math.log(total) + 2.0 * math.log(scale), grad


def _log_squared_error(dist, y, theta, log_dist):
    """gp_fit_cv's score: log sum e^2 and its gradient from loo_residuals,
    and the amplitude^2 that makes mean(e_i^2 / (amplitude^2 var_i)) 1."""
    errs, unit_vars, value, grad = loo_residuals(dist, y, theta, log_dist)
    return value, grad, float((errs**2 / unit_vars).sum()) / len(errs)


def gp_fit_cv(features, y) -> GpModel:
    """Fit by leave-one-out cross validation.

    The LOO squared error is invariant to the total variance (Dubrule, Math.
    Geology 1983; GPML 5.4.2), so the bounded quasi-Newton search (_fit,
    _quasi_newton) minimizes its log at unit amplitude, with loo_residuals'
    analytic gradient; the amplitude makes the mean standardized LOO
    residual 1.
    """
    return _fit(features, y, _log_squared_error)


def gp_predict(model: GpModel, features: Embedding) -> PredictionResult:
    """Posterior prediction at every row of features, with 90% intervals:
    one cross-kernel, one product with alpha and one triangular solve."""
    r = cross_kernel(features, model.features, model.theta)
    mean = r @ model.alpha
    w = _linalg().solve_triangular(model.chol, r.T, lower=True)
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
    if not t.size:
        raise SizeMismatch("need at least one prediction and truth")
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
        check_arg("variances", v.min(), "finite and >= 0")
        cic = float((np.abs(t - p) <= CI90_FACTOR * np.sqrt(v)).mean())
    return MetricsResult(rmse=rmse, q2=q2, cic=cic)
