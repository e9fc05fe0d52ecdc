"""Gaussian process regression on embedded features.

Zero-mean GP with the parametric transport kernel; hyperparameters fitted by
maximum likelihood or leave-one-out cross validation in one box of (rate,
exponent, nugget/amplitude^2), the amplitude in closed form, with posterior
mean/variance prediction and the RMSE/Q2/CIC metrics.
"""

from __future__ import annotations

import functools
import math
import operator
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
# polishes the best at POLISH. The screen only ranks the starts: with the
# Nelder-Mead screen at xatol 1e-2 instead of 1e-3, no CV fit of 138
# gaussian-regression and grid-path datasets ended more than 6.2e-10 relative
# higher in LOO error; at 3e-2 dataset 3001 ended 8.9% higher.
SCREEN = {"quasi-Newton": dict(ftol=1e-7, gtol=1e-4, maxiter=1000),
          "Nelder-Mead": dict(xatol=1e-2, fatol=1e-7, maxiter=4000, maxfev=4000)}
POLISH = {"quasi-Newton": dict(ftol=1e-13, gtol=1e-9, maxiter=1000),
          "Nelder-Mead": dict(xatol=1e-8, fatol=1e-12, maxiter=4000, maxfev=4000)}

# The first 8 points of the unscrambled Sobol' sequence in [0, 1)^3,
# scipy.stats.qmc.Sobol(3, scramble=False).random(8).
SOBOL_STARTS = np.array([[0, 0, 0], [4, 4, 4], [6, 2, 2], [2, 6, 6],
                         [3, 3, 5], [7, 7, 1], [5, 1, 7], [1, 5, 3]]) / 8.0

# The one search box of both fits, rows [low, high]: the rate, the exponent and
# the nugget/amplitude^2 ratio tau. Each fit sets the amplitude in closed form
# at the best point, and the nugget to tau amplitude^2.
FIT_BOX = np.array([[0.01, 10.0], [0.5, 2.0], [1e-6, 20.0]])


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
                   log_dist: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Zero-mean Gaussian log likelihood of y maximized over the amplitude, at
    theta's rate, exponent and ratio nugget/amplitude^2, and its gradient in
    log(rate, exponent, nugget); neither sees theta's amplitude. With R the
    Gram at theta, alpha = R^-1 y and s^2 = y^T alpha / n (the best Gram is
    s^2 R): -n/2 (log(2 pi s^2) + 1) - log|L| and 1/2 tr((alpha alpha^T / s^2
    - R^-1) dR/dlog theta) (GPML 2006, 5.4; Lippert et al., Nature Methods
    2011), from one Cholesky factor L, alpha from potrs and R^-1 from potri.
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
    rinv = lapack.dpotri(l, lower=1, overwrite_c=1)[0]  # lower triangle only
    w = np.outer(alpha / s2, alpha) - rinv
    w -= rinv.T
    w.flat[::n + 1] += rinv.diagonal()
    return value, gram_log_gradient(w, r, power, log_dist, theta)


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


class _Point(NamedTuple):  # a final quasi-Newton point and its value
    x: np.ndarray
    fun: float


def _dot(a, b) -> float:
    return sum(map(operator.mul, a, b))


def _model_step(x: list, g: list, b: list, lo: list, hi: list) -> list:
    """The point L-BFGS-B steps to from x in the box [lo, hi] on the model
    g^T p + p^T b p / 2 of a step p, b positive definite (Python floats): the
    generalized Cauchy point, the model's first minimum along the projected
    gradient path, each variable held at its bound from the t at which x -
    t g reaches it; then the model's Newton step in the variables that point
    leaves free, truncated to the box."""
    edge = [(v - h) / gi if gi < 0 else (v - l) / gi if gi > 0 else math.inf
            for v, gi, l, h in zip(x, g, lo, hi)]
    z, d, t = x[:], [-gi if e > 0 else 0.0 for gi, e in zip(g, edge)], 0.0
    for stop in sorted(set(edge) - {0.0, math.inf}) + [math.inf]:
        bd = [_dot(row, d) for row in b]
        slope, curve = _dot(g, d) + _dot(bd, map(operator.sub, z, x)), _dot(d, bd)
        if slope >= 0 or not curve > 0 or -slope < curve * (stop - t):
            z = [a - slope / curve * c for a, c in zip(z, d)] if slope < 0 < curve else z
            break
        z = [(h if gi < 0 else l) if e == stop else a + (stop - t) * c
             for a, c, e, gi, l, h in zip(z, d, edge, g, lo, hi)]
        d, t = [0.0 if e == stop else c for c, e in zip(d, edge)], stop
    free = [i for i, (l, v, h) in enumerate(zip(lo, z, hi)) if l < v < h]
    r = [gi + _dot(row, map(operator.sub, z, x)) for gi, row in zip(g, b)]
    a = [[b[i][j] for j in free] + [-r[i]] for i in free]
    for k, pivot in enumerate(a):  # Gauss-Jordan elimination
        if not pivot[k] > 0:  # b not positive definite in round-off: no step
            return z
        for row in a:
            if row is not pivot:
                row[:] = [u - row[k] / pivot[k] * v for u, v in zip(row, pivot)]
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
    projected gradient at most gtol."""
    lo, hi = box[:, 0].tolist(), box[:, 1].tolist()
    eye = [[float(i == j) for j in range(len(lo))] for i in range(len(lo))]

    def clip(x):
        return [min(h, max(l, v)) for v, l, h in zip(x, lo, hi)]

    def evaluate(x):
        value, grad = objective(np.array(x))
        return x, float(value), grad.tolist()

    x, f, g = evaluate(clip(np.asarray(start, dtype=float).tolist()))
    b = None  # the model's Hessian, I until the first pair
    for iteration in range(maxiter):
        if max(abs(min(max(gi, v - h), v - l)) for gi, v, l, h in zip(g, x, lo, hi)) <= gtol:
            break
        d = [a - c for a, c in zip(_model_step(x, g, b or eye, lo, hi), x)]
        gd, t = _dot(g, d), 1 / max(1.0, math.hypot(*d)) if iteration == 0 else 1.0
        tmax = min([((h if c > 0 else l) - v) / c for v, c, l, h in zip(x, d, lo, hi) if c],
                   default=0.0)
        new = last = None
        for _ in range(20 if gd < 0 else 0):
            xt, ft, gt = evaluate(clip(v + t * c for v, c in zip(x, d)))
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
        if new is None:
            if b is None:
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


def _minimize_in_box(objective, log_box: np.ndarray, gradient: bool = False):
    """Bounded local search from every Sobol start to the loose SCREEN
    tolerances, then from the best screened result on to the tight POLISH
    ones (Rinnooy Kan & Timmer, Math. Programming 1987): _quasi_newton,
    restarted from its point, when the objective returns (value, gradient),
    else _nelder_mead (SciPy's Nelder-Mead bit for bit), continued from its
    final simplex. The screen only ranks the starts, so its Nelder-Mead stops
    at xatol 1e-2. With _fit's per-fit memo, a gaussian-regression dataset
    takes about 700 LOO and 130 likelihood evaluations, against 1,310 and
    340 for a tight search from every start, and reaches the same best value
    within 2.5e-10 relative (LOO error) and 4.4e-12 (likelihood) on its
    datasets 1000-1009, 2000-2009 and 3000-3009 and on grid-path datasets
    1-8. The result has the best point .x and its value .fun."""
    search, method = ((_quasi_newton, "quasi-Newton") if gradient
                      else (_nelder_mead, "Nelder-Mead"))
    starts = log_box[:, 0] + SOBOL_STARTS * (log_box[:, 1] - log_box[:, 0])
    best = min((search(objective, x0, log_box, **SCREEN[method]) for x0 in starts),
               key=lambda res: res.fun)  # the first of equal values
    return search(objective, best.x if gradient else best.simplex, log_box, **POLISH[method])


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


def _fit(features, y, objective, amplitude_sq, gradient=False) -> GpModel:
    """The fit both fitters run: the degenerate model for constant responses,
    else a search of the log of FIT_BOX (_minimize_in_box) for the
    unit-amplitude kernel minimizing objective(dist, y), a function of the
    kernel that returns (value, detail), the detail being the gradient when
    gradient is set. Each distinct point of the box is scored once per fit;
    a point the search visits again gets the recorded value, and a gradient
    as a copy. A Gram that cannot be factorized scores 1e15, with a zero
    gradient. The model is the point the search scored: amplitude^2 =
    amplitude_sq(dist, y, best kernel, its detail) and nugget = tau
    amplitude^2, neither bounded further."""
    y, dist = _fit_data(features, y)
    if y.max() == y.min():
        warnings.warn("constant responses: returning the degenerate model", stacklevel=3)
        theta = KernelParams(amplitude=0.05, rate=0.01, exponent=1.0, nugget=1e-5)
        return build_model(features, y, dist, theta, degenerate=True)
    score = objective(dist, y)
    low, high = FIT_BOX.T
    scored = {}  # point.tobytes(): the score there, None where the Gram failed

    def point(log_x):  # exp(log(bound)) can overshoot a bound by one ulp
        return np.minimum(np.maximum(np.exp(log_x), low), high)

    def searched(log_x):
        x = point(log_x)
        key = x.tobytes()
        if key not in scored:
            try:  # amplitude 1, nugget = the searched ratio tau
                scored[key] = score(_unit_kernel(*x.tolist()))
            except CholeskyFailure:
                scored[key] = None
        if scored[key] is None:
            return (1e15, np.zeros(len(log_x))) if gradient else 1e15
        value, detail = scored[key]
        return (value, detail.copy()) if gradient else value

    best = point(_minimize_in_box(searched, np.log(FIT_BOX), gradient).x)
    unit = KernelParams(1.0, *best.tolist())
    _, detail = scored.get(best.tobytes()) or score(unit)  # a failed best raises here
    amplitude = math.sqrt(amplitude_sq(dist, y, unit, detail))
    theta = replace(unit, amplitude=amplitude, nugget=unit.nugget * amplitude**2)
    return build_model(features, y, dist, theta)


def gp_fit_mle(features, y) -> GpModel:
    """Fit kernel parameters by maximizing the log likelihood.

    The bounded quasi-Newton search (_fit, _quasi_newton) on log_likelihood,
    the likelihood maximized over the amplitude, and its analytic gradient;
    amplitude^2 is that maximizer.
    """
    def objective(dist, y):
        log_dist = fit_invariants(dist)

        def negative(theta):
            value, grad = log_likelihood(dist, y, theta, log_dist)
            return -value, -grad
        return negative

    def amplitude_sq(dist, y, theta, _):  # y^T alpha / n, as log_likelihood's s^2
        return float(y @ build_model(features, y, dist, theta).alpha) / len(y)

    return _fit(features, y, objective, amplitude_sq, gradient=True)


def loo_residuals(dist: np.ndarray, y: np.ndarray, theta: KernelParams
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out residuals and predictive variances from one
    factorization: e_i = alpha_i / (R^-1)_ii, var_i = 1 / (R^-1)_ii
    (Dubrule, Math. Geology 1983), with R^-1 from potri and alpha = R^-1 y."""
    linalg = _linalg()
    r = gram_from_distances(dist, theta)
    l, _ = chol_with_jitter(r)
    rinv = linalg.lapack.dpotri(l, lower=1, overwrite_c=1)[0]
    diag = rinv.diagonal()
    alpha = linalg.blas.dsymv(1.0, rinv, y, lower=1)
    return alpha / diag, 1.0 / diag


def gp_fit_cv(features, y) -> GpModel:
    """Fit by leave-one-out cross validation.

    The LOO squared error is invariant to the total variance (Dubrule, Math.
    Geology 1983; GPML 5.4.2), so Nelder-Mead searches it at unit amplitude
    (_fit); the amplitude makes the mean standardized LOO residual 1.
    """
    def objective(dist, y):
        def squared_error(theta):
            errs, unit_vars = loo_residuals(dist, y, theta)
            return float((errs**2).sum()), (errs, unit_vars)
        return squared_error

    def amplitude_sq(dist, y, theta, loo):  # mean(e_i^2 / (amp^2 * var0_i)) = 1
        errs, unit_vars = loo
        return float((errs**2 / unit_vars).mean())

    return _fit(features, y, objective, amplitude_sq)


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
