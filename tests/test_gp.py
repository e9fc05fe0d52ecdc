import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from otgp import gp, kernels
from otgp.barycenter import gaussian_barycenter_measure, grid_barycenter
from otgp.errors import (
    MAGNITUDE,
    MAGNITUDE_RULE,
    CholeskyFailure,
    NumericalUnderflow,
    ReferenceMismatch,
    SizeMismatch,
    ValidationError,
    ZeroVarianceTruths,
)
from otgp.experiments import disk_response
from otgp.gp import (
    FIT_BOX,
    GpModel,
    build_model,
    chol_with_jitter,
    gp_fit_cv,
    gp_fit_mle,
    gp_predict,
    log_likelihood,
    loo_residuals,
    metrics,
)
from otgp.kernels import (
    DISTANCE_SNAP,
    KernelParams,
    embed,
    embed_gaussians,
    embed_grids,
    fit_invariants,
    gram_from_distances,
    gram_log_gradient,
    gram_parts,
    pairwise_distances,
)
from otgp.measures import (DiskConfig, GaussianMeasure, disks_to_grid, gaussian_cov_stack,
                           gaussian_measures, rasterize_gaussian, sample_regression_gaussians)

BOUND = re.escape(MAGNITUDE_RULE)  # the input rule's words, as a pattern
REFERENCE = GaussianMeasure([0.0, 0.0], 0.01 * np.eye(2))


def make_measures(rng, n, spread=1.0):
    return [GaussianMeasure(rng.uniform(0, spread, size=2),
                            rng.uniform(0.005, 0.02) * np.eye(2)) for _ in range(n)]


def make_features(rng, n, spread=1.0):
    return embed_gaussians(make_measures(rng, n, spread), REFERENCE)


def smooth_targets(features):
    means = features.X[:, :2]  # a Gaussian row starts with the mean
    return means[:, 0] - means[:, 1] ** 2


def posterior_mean_variance(chol, alpha, r_vec, k_self):
    """Per-point oracle: posterior mean r^T R^-1 y and variance
    k - r^T R^-1 r from the training factorization."""
    mean = float(r_vec @ alpha)
    w = cho_solve((chol, True), r_vec)
    return mean, float(k_self - r_vec @ w)


def finite_difference_gradient(dist, y, theta, h=1e-5, backward=()):
    """Central differences of log_likelihood in log(rate, exponent, nugget) at
    theta's amplitude; second-order backward differences for the components
    listed in backward (a parameter on a hard limit such as exponent 2)."""
    log_theta = np.log(theta.as_array()[1:])
    grad = np.zeros(3)
    for k in range(3):
        def f(step):
            x = log_theta.copy()
            x[k] += step
            return log_likelihood(dist, y, KernelParams(theta.amplitude, *np.exp(x)))[0]
        if k in backward:
            grad[k] = (3 * f(0.0) - 4 * f(-h) + f(-2 * h)) / (2 * h)
        else:
            grad[k] = (f(h) - f(-h)) / (2 * h)
    return grad


# The full-length multistart the screened search must match: a tight local
# search from every point of the fitters' unscrambled Sobol lattice, written
# against scipy alone so that the reference does not run the code under test.
FULL_LENGTH_OPTIONS = {
    "L-BFGS-B": dict(ftol=1e-13, gtol=1e-9, maxiter=1000),
    "Nelder-Mead": dict(xatol=1e-8, fatol=1e-12, maxiter=4000, maxfev=4000),
}


def full_length_minimum(objective, log_box, gradient=False, n_starts=8):
    from scipy.optimize import minimize
    from scipy.stats import qmc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unscrambled Sobol balance warning
        unit = qmc.Sobol(d=len(log_box), scramble=False).random(n_starts)
    method = "L-BFGS-B" if gradient else "Nelder-Mead"
    return min(minimize(objective, x0, method=method, jac=gradient,
                        bounds=list(map(tuple, log_box)),
                        options=FULL_LENGTH_OPTIONS[method]).fun
               for x0 in log_box[:, 0] + unit * (log_box[:, 1] - log_box[:, 0]))


def unit_theta(x) -> KernelParams:
    """The unit-amplitude kernel at a point (rate, exponent, ratio) of FIT_BOX."""
    return KernelParams(1.0, *x)


def fit_box_coordinates(theta: KernelParams) -> list[float]:
    """A fitted kernel's point of FIT_BOX: rate, exponent and nugget/amplitude^2."""
    return [theta.rate, theta.exponent, theta.nugget / theta.amplitude**2]


def assert_in_fit_box(theta: KernelParams):
    # the ratio is a quotient of the model's fields, so it may round off the box
    for v, (lo, hi) in zip(fit_box_coordinates(theta), FIT_BOX):
        assert lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12)


def full_log_likelihood(dist, y, theta) -> float:
    """The Gaussian log likelihood of y at theta, amplitude included, from a
    SciPy Cholesky factor."""
    l = cholesky(gram_from_distances(dist, theta), lower=True)
    return float(-0.5 * y @ cho_solve((l, True), y) - np.log(np.diag(l)).sum()
                 - 0.5 * len(y) * math.log(2 * math.pi))


def nelder_mead_log_likelihood(dist, y):
    """Reference for the gradient fit: the best log likelihood that
    derivative-free Nelder-Mead finds from the fitter's Sobol starts in the
    same log box."""
    def objective(log_x):
        try:
            return -log_likelihood(dist, y, unit_theta(np.clip(np.exp(log_x), *FIT_BOX.T)))[0]
        except CholeskyFailure:
            return 1e15

    return -full_length_minimum(objective, np.log(FIT_BOX))


def regression_training_set(seed):
    pairs = sample_regression_gaussians(100, seed)[:50]
    measures = [m for m, _ in pairs]
    reference, _ = gaussian_barycenter_measure(measures)
    return embed_gaussians(measures, reference), np.array([y for _, y in pairs])


def grid_path_training_set(seed):
    """The training half of grid-path regression dataset seed: its 50 Gaussians
    rasterized on a 50 x 50 grid and embedded by entropic maps."""
    pairs = sample_regression_gaussians(100, seed)[:50]
    grids = [rasterize_gaussian(m, 50) for m, _ in pairs]
    return embed(grids, lam=20.0), np.array([y for _, y in pairs])


def small_disks_set(seed, n=12, grid_size=20):
    rng = np.random.default_rng(seed)
    grids = [disks_to_grid(DiskConfig(0.1, rng.uniform(0, 1, size=(4, 2))), grid_size)
             for _ in range(n)]
    reference = grid_barycenter(grids, lam=20.0).result
    return embed_grids(grids, reference), np.array([disk_response(g) for g in grids])


class TestPosterior:
    def test_hand_two_by_two(self):
        # R = [[2,1],[1,2]], r = (1,0), y = (1,-1):
        # mean = r^T R^-1 y = (2*1 + (-1)(-1))/3 = 1
        r_mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        chol = cholesky(r_mat, lower=True)
        y = np.array([1.0, -1.0])
        alpha = cho_solve((chol, True), y)
        mean, var = posterior_mean_variance(chol, alpha, np.array([1.0, 0.0]), 2.0)
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(2.0 - 2.0 / 3.0)

    def test_jitter_ladder_repairs(self):
        # singular matrix: plain Cholesky fails, jitter succeeds
        r = np.ones((3, 3))
        chol, jitter = chol_with_jitter(r)
        assert jitter > 0
        np.testing.assert_allclose(chol @ chol.T, r, atol=1e-5)


class TestCholeskyWithJitter:
    def test_level_zero_matches_scipy_bitwise(self):
        feats, _ = regression_training_set(1000)
        r = gram_from_distances(pairwise_distances(feats), KernelParams(0.2, 1.3, 1.7, 1e-3))
        before = r.copy()
        chol, jitter = chol_with_jitter(r)
        assert jitter == 0.0
        np.testing.assert_array_equal(chol, cholesky(r, lower=True))
        np.testing.assert_array_equal(r, before)

    @staticmethod
    def assert_ladder_matches_the_identity_formula(r, forced):
        # reference: the ladder as r + level * tr(r)/n * I through scipy
        n = len(r)
        scale = np.trace(r) / n
        for level in gp.JITTER_LADDER:
            try:
                expected = cholesky(r + level * scale * np.eye(n), lower=True)
                break
            except np.linalg.LinAlgError:
                continue
        before = r.copy()
        chol, jitter = chol_with_jitter(r)
        assert level == forced
        assert jitter == level * scale > 0
        np.testing.assert_array_equal(chol, expected)
        np.testing.assert_array_equal(r, before)

    def test_ladder_matches_the_identity_formula(self):
        self.assert_ladder_matches_the_identity_formula(np.ones((3, 3)), 1e-10)

    def test_ladder_scales_by_the_mean_diagonal(self):
        # eigenvalues -5e-9 and about 20, tr(r)/n near 5: the jitter at level
        # 1e-10 (5e-10) is too small, the one at level 1e-8 (5e-8) repairs
        self.assert_ladder_matches_the_identity_formula(
            5.0 * np.ones((4, 4)) - 5e-9 * np.eye(4), 1e-8)

    @pytest.mark.parametrize("where, value", [
        ((2, 1), np.nan), ((1, 1), np.nan), ((2, 1), np.inf), ((1, 1), np.inf)])
    def test_non_finite_gram_is_typed(self, where, value):
        r = gram_from_distances(pairwise_distances(make_features(np.random.default_rng(18), 6)),
                                KernelParams(1.0, 1.0, 2.0, 0.01))
        r[where] = r[where[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CholeskyFailure):
                chol_with_jitter(r)


class TestFitMle:
    def test_grid_search_oracle(self):
        rng = np.random.default_rng(0)
        feats = make_features(rng, 20)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        dist = pairwise_distances(feats)
        fitted_ll = log_likelihood(dist, y, model.theta)[0]

        # refine from the best cell of a 3^3 grid and compare
        from scipy.optimize import minimize

        log_box = np.log(FIT_BOX)

        def theta_at(log_x):
            return unit_theta(np.clip(np.exp(log_x), FIT_BOX[:, 0], FIT_BOX[:, 1]))

        axes = [np.linspace(lo, hi, 3) for lo, hi in log_box]
        best_cell = max(itertools.product(*axes),
                        key=lambda x: log_likelihood(dist, y, theta_at(x))[0])
        res = minimize(
            lambda x: -log_likelihood(dist, y, theta_at(x))[0],
            np.array(best_cell), method="Nelder-Mead",
            bounds=list(map(tuple, log_box)),
            options=dict(xatol=1e-8, fatol=1e-12, maxiter=4000, maxfev=4000))
        assert fitted_ll >= -res.fun - 1e-6

    def test_feasible_and_beats_box_corners(self):
        rng = np.random.default_rng(1)
        feats = make_features(rng, 15)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        assert_in_fit_box(model.theta)
        dist = pairwise_distances(feats)
        fitted_ll = log_likelihood(dist, y, model.theta)[0]
        for corner in itertools.product(*FIT_BOX):
            assert fitted_ll >= log_likelihood(dist, y, unit_theta(corner))[0] - 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        feats = make_features(rng, 12)
        y = smooth_targets(feats)
        model_a = gp_fit_mle(feats, y)
        perm = rng.permutation(len(y))
        model_b = gp_fit_mle(feats[perm], y[perm])
        np.testing.assert_allclose(model_a.theta.as_array(),
                                   model_b.theta.as_array(), rtol=1e-5)

    @pytest.mark.parametrize("n,value", [(6, 2.5), (3, 0.1), (50, 0.7)])
    def test_degenerate_constant_targets(self, n, value):
        # 0.1 and 0.7 repeated have a mean that rounds, so their np.var is
        # 1.9e-34 and 4.9e-32 although every response is the same
        feats = make_features(np.random.default_rng(3), n)
        for fit in (gp_fit_mle, gp_fit_cv):
            with pytest.warns(UserWarning,
                              match="^constant responses: returning the degenerate model$"):
                model = fit(feats, np.full(n, value))
            assert model.degenerate
            assert model.theta == KernelParams(0.05, 0.01, 1.0, 1e-5)

    def test_model_invariants(self):
        rng = np.random.default_rng(4)
        feats = make_features(rng, 10)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        r = gram_from_distances(model.distances, model.theta) + model.jitter * np.eye(10)
        rel = np.linalg.norm(model.chol @ model.chol.T - r) / np.linalg.norm(r)
        assert rel < 1e-8
        assert np.linalg.norm(r @ model.alpha - y) / np.linalg.norm(y) < 1e-8

    @pytest.mark.parametrize("training_set", [
        lambda: regression_training_set(1000),
        lambda: small_disks_set(0),
    ], ids=["gaussian-regression-1000", "disks"])
    def test_matches_nelder_mead_reference(self, training_set):
        feats, y = training_set()
        model = gp_fit_mle(feats, y)
        dist = pairwise_distances(feats)
        fitted_ll = log_likelihood(dist, y, model.theta)[0]
        assert fitted_ll >= nelder_mead_log_likelihood(dist, y) - 1e-6

    @pytest.mark.parametrize("fit,target,fails", [
        (gp_fit_mle, "log_likelihood", lambda theta: theta.nugget > 0.01),
        (gp_fit_cv, "loo_residuals", lambda theta: theta.rate > 1.0),
    ], ids=["mle", "cv"])
    def test_cholesky_failure_at_some_starts(self, monkeypatch, fit, target, fails):
        # an objective that cannot be factorized wherever the ratio (the
        # likelihood) or the rate (the LOO residuals) is too large: the
        # starts there give up, the others still find a model inside the
        # box searched
        rng = np.random.default_rng(15)
        feats = make_features(rng, 12)
        y = smooth_targets(feats)
        calls, original = {"failed": 0}, getattr(gp, target)

        def failing(dist, y, theta, *rest):
            if fails(theta):
                calls["failed"] += 1
                raise CholeskyFailure("forced")
            return original(dist, y, theta, *rest)

        monkeypatch.setattr(gp, target, failing)
        model = fit(feats, y)
        assert calls["failed"] > 0
        assert np.all(np.isfinite(model.theta.as_array())) and np.all(np.isfinite(model.alpha))
        assert_in_fit_box(model.theta)
        assert not fails(unit_theta(fit_box_coordinates(model.theta)))


class TestLogLikelihoodGradient:
    @staticmethod
    def setup_data(duplicate=False):
        rng = np.random.default_rng(16)
        measures = make_measures(rng, 15)
        if duplicate:
            measures.append(GaussianMeasure(measures[3].mean, measures[3].cov))
        feats = embed_gaussians(measures, REFERENCE)
        return pairwise_distances(feats), smooth_targets(feats)

    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("theta, backward", [
        (KernelParams(1.2, 0.7, 1.3, 0.01), ()),
        (unit_theta(FIT_BOX[:, 0]), ()),
        (unit_theta(FIT_BOX[:, 1]), (1,)),  # exponent at 2
    ], ids=["interior", "lower-bounds", "upper-bounds"])
    def test_matches_finite_differences(self, theta, backward, duplicate):
        dist, y = self.setup_data(duplicate)
        if duplicate:
            assert dist[3, 15] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, grad = log_likelihood(dist, y, theta)
            expected = finite_difference_gradient(dist, y, theta, backward=backward)
        # atol: at the box's floor the ratio's derivative is about 1e-3, and
        # the differences carry round-off near 5e-9
        np.testing.assert_allclose(grad, expected, rtol=1e-6, atol=1e-8)
        # the value is the full likelihood at the maximizing amplitude^2,
        # y^T R^-1 y / n times theta's, and at no other
        r = gram_from_distances(dist, theta)
        s2 = y @ cho_solve((cholesky(r, lower=True), True), y) / len(y)
        scaled = KernelParams(theta.amplitude * math.sqrt(s2), theta.rate, theta.exponent,
                              theta.nugget * s2)
        assert value == pytest.approx(full_log_likelihood(dist, y, scaled), rel=1e-9)
        for factor in (0.9, 1.1):
            off = KernelParams(scaled.amplitude * factor, theta.rate, theta.exponent,
                               scaled.nugget * factor**2)
            assert full_log_likelihood(dist, y, off) < value

    def test_value_and_gradient_do_not_see_the_amplitude(self):
        # the same ratio nugget/amplitude^2 at another amplitude: the same
        # profile, and the same gradient in log(rate, exponent, nugget)
        dist, y = self.setup_data(duplicate=True)
        unit = log_likelihood(dist, y, KernelParams(1.0, 0.7, 1.3, 0.01))
        scaled = log_likelihood(dist, y, KernelParams(3.0, 0.7, 1.3, 0.09))
        assert scaled[0] == pytest.approx(unit[0], rel=1e-12)
        np.testing.assert_allclose(scaled[1], unit[1], rtol=1e-9)

    @staticmethod
    def stacked_derivatives(dist, theta):
        """Reference: the (3, n, n) stack of dR/dlog(rate, exponent, nugget),
        with K0 the Gram without the nugget, and the Gram beside it."""
        power = dist**theta.exponent
        k0 = kernels._radial_of_power(power.copy(), theta)
        d_rate = -theta.rate * power * k0
        log_d = np.log(dist, out=np.zeros_like(dist), where=dist > 0.0)
        stack = np.stack([d_rate, theta.exponent * log_d * d_rate,
                          theta.nugget * np.eye(len(dist))])
        k0.flat[::len(k0) + 1] += theta.nugget
        return k0, stack

    def test_gram_and_derivatives_at_zero_distance(self):
        dist, _ = self.setup_data(duplicate=True)
        theta = KernelParams(1.2, 0.7, 1.3, 0.01)
        gram, power = gram_parts(dist, theta)
        expected_gram, stack = self.stacked_derivatives(dist, theta)
        np.testing.assert_array_equal(gram, expected_gram)
        zero = dist == 0.0
        assert np.all(power[zero] == 0.0)
        assert np.all(stack[0][zero] == 0.0) and np.all(stack[1][zero] == 0.0)
        # rate and exponent terms vanish where d = 0, duplicated pair included;
        # the nugget term is g I
        log_d = fit_invariants(dist)
        grad = gram_log_gradient(zero.astype(float), gram, power, log_d, theta)
        assert grad[0] == 0.0 and grad[1] == 0.0
        grad = gram_log_gradient(np.eye(len(dist)), gram, power, log_d, theta)
        assert grad[2] == 0.5 * theta.nugget * len(dist)

    def test_fit_invariants_change_no_bit(self):
        # the pieces the gradient reads rebuild the stack bit for bit: the
        # Gram stands in for K0, since d^p is 0 on the diagonal
        dist, _ = self.setup_data(duplicate=True)
        theta = KernelParams(1.2, 0.7, 1.3, 0.01)
        expected_gram, expected = self.stacked_derivatives(dist, theta)
        gram, power = gram_parts(dist, theta)
        d_rate = -theta.rate * power * gram
        rebuilt = np.stack([d_rate, theta.exponent * fit_invariants(dist) * d_rate,
                            theta.nugget * np.eye(len(dist))])
        np.testing.assert_array_equal(gram, expected_gram)
        np.testing.assert_array_equal(rebuilt, expected)

    @pytest.mark.parametrize("kind", ["random", "likelihood"])
    def test_gradient_matches_stacked_contraction(self, kind):
        # 1/2 tr(W dR/dlog theta) against the stacked tensordot, to a few ulps
        # of the sum of absolute terms
        dist, y = self.setup_data(duplicate=True)
        theta = KernelParams(1.2, 0.7, 1.3, 0.01)
        gram, power = gram_parts(dist, theta)
        if kind == "random":
            w = np.random.default_rng(17).normal(size=dist.shape)
            w = w + w.T
        else:
            l = cholesky(gram, lower=True)
            alpha = cho_solve((l, True), y)
            w = (np.outer(alpha, alpha) / (y @ alpha / len(y))
                 - cho_solve((l, True), np.eye(len(y))))
        _, stack = self.stacked_derivatives(dist, theta)
        grad = gram_log_gradient(w, gram, power, fit_invariants(dist), theta)
        terms = 0.5 * stack * w
        np.testing.assert_array_less(np.abs(grad - terms.sum(axis=(1, 2))),
                                     64 * np.finfo(float).eps * np.abs(terms).sum(axis=(1, 2))
                                     + np.finfo(float).tiny)


class TestFitCv:
    def test_loo_identities_match_refits(self):
        rng = np.random.default_rng(5)
        feats = make_features(rng, 8)
        y = smooth_targets(feats)
        theta = KernelParams(1.0, 2.0, 1.0, 0.01)
        dist = pairwise_distances(feats)
        errs, variances = loo_residuals(dist, y, theta)
        for i in range(8):
            keep = [j for j in range(8) if j != i]
            sub = gram_from_distances(dist[np.ix_(keep, keep)], theta)
            r_vec = gram_from_distances(dist, theta)[i, keep]
            chol = cholesky(sub, lower=True)
            alpha = cho_solve((chol, True), y[keep])
            mean, var = posterior_mean_variance(chol, alpha, r_vec,
                                                theta.amplitude**2 + theta.nugget)
            assert errs[i] == pytest.approx(y[i] - mean, abs=1e-8)
            assert variances[i] == pytest.approx(var, abs=1e-8)

    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("exponent", [1.0, 2.0])
    def test_loo_matches_explicit_inverse(self, exponent, duplicate):
        # reference: R^-1 from a solve against the identity
        feats, y = regression_training_set(1000)
        if duplicate:
            feats = feats[list(range(len(y))) + [7]]
            y = np.append(y, y[7])
        dist = pairwise_distances(feats)
        theta = KernelParams(1.0, 1.0, exponent, 1e-6)
        errs, variances = loo_residuals(dist, y, theta)
        chol, _ = chol_with_jitter(gram_from_distances(dist, theta))
        rinv = cho_solve((chol, True), np.eye(len(y)))
        expected = (rinv @ y) / np.diag(rinv)
        assert np.abs(errs - expected).max() <= 1e-9 * np.abs(expected).max()
        np.testing.assert_allclose(variances, 1.0 / np.diag(rinv), rtol=1e-9)

    def test_standardized_residuals_calibrated(self):
        rng = np.random.default_rng(6)
        feats = make_features(rng, 16)
        y = smooth_targets(feats)
        model = gp_fit_cv(feats, y)
        errs, variances = loo_residuals(model.distances, y, model.theta)
        assert float((errs**2 / variances).mean()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("fit", [gp_fit_mle, gp_fit_cv], ids=["mle", "cv"])
    def test_returns_the_model_its_search_scored(self, monkeypatch, fit):
        # the model keeps the amplitude of the fit's closed form and the
        # nugget at the searched ratio, unbounded: the MLE's full likelihood
        # is the search's optimum, and the CV fit's LOO error is, with its
        # standardized residuals calibrated
        searches = []

        def recorded(objective, log_box, gradient=False):
            searches.append(search(objective, log_box, gradient))
            return searches[-1]

        search = gp._minimize_in_box
        monkeypatch.setattr(gp, "_minimize_in_box", recorded)
        feats, y = regression_training_set(1000)
        model = fit(feats, y)
        [best] = searches
        if fit is gp_fit_mle:
            assert full_log_likelihood(model.distances, y, model.theta) == pytest.approx(
                -best.fun, rel=1e-9)
        else:
            errs, variances = loo_residuals(model.distances, y, model.theta)
            assert float((errs**2 / variances).mean()) == pytest.approx(1.0, abs=1e-9)
            assert float((errs**2).sum()) == pytest.approx(best.fun, rel=1e-9)
        assert_in_fit_box(model.theta)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        feats = make_features(rng, 10)
        y = smooth_targets(feats)
        model_a = gp_fit_cv(feats, y)
        perm = rng.permutation(len(y))
        model_b = gp_fit_cv(feats[perm], y[perm])
        np.testing.assert_allclose(model_a.theta.as_array(),
                                   model_b.theta.as_array(), rtol=1e-5)


# The known truth for the fitters: the GP is zero-mean, so responses drawn as
# y = L z, with L the Cholesky factor of the Gram at TRUE_THETA and z standard
# normal, are a sample of the model at TRUE_THETA, whose rate, exponent and
# nugget/amplitude^2 ratio lie inside FIT_BOX. A working search ends at least
# as well as TRUE_THETA scores: the MLE's likelihood, maximized over the
# amplitude at both, and the CV fit's LOO error.
TRUE_THETA = KernelParams(1.0, 1.0, 1.0, 1e-4)
TRUTH_DRAWS = 5


def known_truth_inputs(kind: str, n: int, rng) -> list[GaussianMeasure]:
    """Point-like 2-D Gaussians on the unit square, or 4-D zero-mean Gaussians
    of gaussian_cov_stack scaled to unit mean eigenvalue, as run_consistency
    scales its population."""
    if kind == "points":
        return gaussian_measures(rng.uniform(size=(n, 2)), np.stack([1e-8 * np.eye(2)] * n))
    covs = gaussian_cov_stack(n, 4, rng)
    covs *= 4 / np.trace(covs, axis1=1, axis2=2).mean()
    return gaussian_measures(np.zeros((n, 4)), covs)


class TestKnownTruth:
    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize("kind", ["points", "gaussians"])
    def test_fits_reach_the_objective_of_the_true_theta(self, kind, n):
        for draw in range(TRUTH_DRAWS):
            rng = np.random.default_rng((n, draw, kind == "points"))
            features = embed(known_truth_inputs(kind, n, rng))
            dist = pairwise_distances(features)
            y = np.linalg.cholesky(gram_from_distances(dist, TRUE_THETA)) @ rng.standard_normal(n)
            mle, cv = gp_fit_mle(features, y), gp_fit_cv(features, y)
            assert (log_likelihood(dist, y, mle.theta)[0]
                    >= log_likelihood(dist, y, TRUE_THETA)[0] - 1e-6), draw
            loo_true, loo_fit = ((loo_residuals(dist, y, theta)[0] ** 2).sum()
                                 for theta in (TRUE_THETA, cv.theta))
            assert loo_fit <= loo_true * (1 + 1e-6), draw


def unit_peak_regression_set():
    """12 regression Gaussians (seed 3) and their responses scaled to a largest |y| of 1."""
    pairs = sample_regression_gaussians(12, 3)
    y = np.array([y for _, y in pairs])
    return embed_gaussians([m for m, _ in pairs], REFERENCE), y / np.abs(y).max()


class TestFitRefusals:
    @pytest.mark.parametrize("fit", [gp_fit_mle, gp_fit_cv], ids=["mle", "cv"])
    @pytest.mark.parametrize("edit,message", [
        (lambda x, y: (x, y[:-1]), "need matching features and responses, n >= 2"),
        (lambda x, y: (x[:1], y[:1]), "need matching features and responses, n >= 2"),
        (lambda x, y: (x, 1e155 * y), f"y must be {BOUND}, got "),
        (lambda x, y: (x, np.nextafter(MAGNITUDE, math.inf) * y), f"y must be {BOUND}, got "),
    ], ids=["mismatched", "one-input", "y-1e155", "y-beyond-the-bound"])
    def test_refuses_data_it_cannot_model(self, fit, edit, message):
        # refused before any search, and without an overflow warning
        x, y = edit(*unit_peak_regression_set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{message}"):
                fit(x, y)

    def test_responses_at_the_bound_keep_every_mle_objective_in_the_box_finite(self):
        # the squared-response check and the MLE's response-norm limit (about
        # 3.5e145 at n = 12) gave way to the input bound
        x, y = unit_peak_regression_set()
        y = MAGNITUDE * y
        dist = pairwise_distances(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for corner in itertools.product(*FIT_BOX):
                value, grad = log_likelihood(dist, y, unit_theta(corner))
                assert np.isfinite([value, *grad]).all()
            model = gp_fit_mle(x, y)
        assert np.isfinite(model.theta.as_array()).all() and np.isfinite(model.alpha).all()

    @pytest.mark.parametrize("fit", [gp_fit_mle, gp_fit_cv], ids=["mle", "cv"])
    def test_fit_scales_to_responses_at_the_bound(self, fit):
        # neither search depends on the responses' scale, so 2^256 y refits
        # with the amplitude scaled by 2^256 and the nugget by 2^512, both
        # beyond the input bound, which they do not take
        x, y = unit_peak_regression_set()
        unit, large = fit(x, y), fit(x, MAGNITUDE * y)
        np.testing.assert_allclose(large.theta.as_array(),
                                   unit.theta.as_array() * [MAGNITUDE, 1, 1, MAGNITUDE**2],
                                   rtol=1e-5)
        np.testing.assert_allclose(gp_predict(large, x).mean, MAGNITUDE * y, rtol=1e-9)

    @pytest.mark.parametrize("fit,scale,error", [
        (gp_fit_mle, 1e-160, CholeskyFailure),
        (gp_fit_mle, 1e-200, NumericalUnderflow),
        (gp_fit_mle, 1e-300, NumericalUnderflow),
        (gp_fit_cv, 1e-160, CholeskyFailure),
        (gp_fit_cv, 1e-200, CholeskyFailure),
        (gp_fit_cv, 1e-300, CholeskyFailure),
    ], ids=["mle-1e-160", "mle-1e-200", "mle-1e-300", "cv-1e-160", "cv-1e-200", "cv-1e-300"])
    def test_responses_too_small_to_fit_are_a_numerical_error(self, fit, scale, error):
        # the responses vary, so no fit returns the degenerate model. From
        # 1e-200 on y^T R^-1 y / n underflows to 0 in the likelihood; in the CV
        # fit the amplitude^2 underflows, and with it the nugget, so the
        # model's Gram cannot be factorized, as the MLE's cannot at 1e-160
        x, y = unit_peak_regression_set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                fit(x, scale * y)

    def test_an_input_beyond_the_bound_is_refused_before_any_fit(self):
        # a mean of 1e200 made a distance whose square overflowed to inf: the
        # MLE gradient multiplied 0 by inf and the Gram at rate 0 was not finite
        rng = np.random.default_rng(31)
        means, covs = rng.uniform(size=(6, 2)), np.stack([0.01 * np.eye(2)] * 6)
        y = rng.normal(size=6)
        means[4] = 1e200, 0.0
        with pytest.raises(ValidationError, match=f"^item 4: mean must be {BOUND}, got 1e\\+200$"):
            gaussian_measures(means, covs)
        means[4] = MAGNITUDE, 0.0
        features = embed(gaussian_measures(means, covs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.gram_matrix(features, KernelParams(1, 0, 2, 0)).tolist() == [[1.0] * 6] * 6
            model = gp_fit_mle(features, y)
        assert np.isfinite(model.theta.as_array()).all() and np.isfinite(model.alpha).all()


def scipy_nelder_mead(objective, start, log_box, **options):
    """The oracle: SciPy's bounded Nelder-Mead from a point or a simplex."""
    from scipy.optimize import minimize

    start = np.asarray(start, dtype=float)
    if start.ndim == 2:
        options, start = {**options, "initial_simplex": start}, start[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a start outside the box, clipped into it
        return minimize(objective, start, method="Nelder-Mead",
                        bounds=list(map(tuple, log_box)), options=options)


def assert_nelder_mead_equals_scipy(objective, start, log_box, **options):
    """The same final simplex, sorted values and evaluation count, bit for bit."""
    ours = gp._nelder_mead(objective, start, log_box, **options)
    reference = scipy_nelder_mead(objective, start, log_box, **options)
    simplex, values = reference.final_simplex
    assert ours.simplex.tobytes() == simplex.tobytes()
    assert ours.values.tobytes() == values.tobytes()
    assert ours.nfev == reference.nfev
    assert np.array(ours.fun).tobytes() == np.array(reference.fun).tobytes()
    assert ours.x.tobytes() == reference.x.tobytes()
    return ours


# a box that holds 0 on its first two axes, so a start can have a zero coordinate
ORACLE_BOX = np.array([[-2.0, 3.0], [-1.0, 1.0], [0.5, 4.0]])
ORACLE_CENTER = np.array([0.7, -0.3, 1.9])


def bowl(x):
    return float((((x - ORACLE_CENTER) * [1.0, 3.0, 0.5]) ** 2).sum())


def failing_above(x):  # 1e15, as the fitters return on a Cholesky failure
    return 1e15 if x[0] > 1.2 else bowl(x)


def nan_above(x):
    return math.nan if x[1] > 0.2 else bowl(x)


def coarse(x):  # many tied values
    return round(bowl(x), 1)


def default_simplex(start):  # inside ORACLE_BOX, so neither reflected nor clipped
    return [start] + [np.where(np.arange(3) == k, 1.05 * start, start) for k in range(3)]


class TestNelderMead:
    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_cv_search_equals_scipy_bitwise(self, seed, monkeypatch):
        # every screened start and the polish from the best final simplex,
        # on the objective gp_fit_cv hands to the search
        searches = []
        minimize_in_box = gp._minimize_in_box

        def recording(objective, log_box, gradient=False):
            searches.append((objective, log_box))
            return minimize_in_box(objective, log_box, gradient)

        monkeypatch.setattr(gp, "_minimize_in_box", recording)
        gp_fit_cv(*regression_training_set(seed))
        [(objective, log_box)] = searches
        lo, hi = log_box.T
        screened = [assert_nelder_mead_equals_scipy(objective, x0, log_box,
                                                    **gp.SCREEN["Nelder-Mead"])
                    for x0 in lo + gp.SOBOL_STARTS * (hi - lo)]
        best = min(screened, key=lambda res: res.fun)
        assert_nelder_mead_equals_scipy(objective, best.simplex, log_box,
                                        **gp.POLISH["Nelder-Mead"])

    @pytest.mark.parametrize("objective", [bowl, failing_above, nan_above, coarse])
    @pytest.mark.parametrize("start", [
        [0.3, -0.6, 1.0],
        [0.3, 0.0, 1.0],  # a zero coordinate: that vertex steps to 0.00025
        [2.99, 0.98, 3.97],  # 1.05 x_k leaves the box and is reflected into it
        [5.0, -3.0, 0.1],  # outside the box: clipped first
    ])
    @pytest.mark.parametrize("budget", [
        {}, {"maxfev": 5}, {"maxfev": 7}, {"maxfev": 12},
        {"maxiter": 5}, {"maxiter": 7}, {"maxiter": 12},
    ])
    def test_equals_scipy_bitwise(self, objective, start, budget):
        options = {**gp.SCREEN["Nelder-Mead"], **budget}
        screened = assert_nelder_mead_equals_scipy(objective, start, ORACLE_BOX, **options)
        if not budget:
            assert_nelder_mead_equals_scipy(objective, screened.simplex, ORACLE_BOX,
                                            **gp.POLISH["Nelder-Mead"])

    @pytest.mark.parametrize("tied", [(2.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0),
                                      (2.0, 2.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    def test_tied_start_values_keep_numpys_order(self, tied):
        # numpy's default sort need not be stable (its AVX-512 argsort swaps
        # some of these ties), and the vertex it puts first is the one every
        # later step pivots on
        start = np.array([0.3, -0.6, 1.0])
        at_start = {v.tobytes(): value for v, value in zip(default_simplex(start), tied)}
        assert_nelder_mead_equals_scipy(lambda x: at_start.get(x.tobytes(), bowl(x)), start,
                                        ORACLE_BOX, **gp.SCREEN["Nelder-Mead"])

    @pytest.mark.parametrize("maxfev", [5, 6, 7, 8, 9])
    def test_budget_running_out_inside_a_shrink(self, maxfev):
        # every trial point fails, so the first iteration reflects (evaluation
        # 5), contracts (6) and shrinks the three other vertices (7-9); a
        # vertex moves before its evaluation, so a budget of 6-8 leaves one
        # moved vertex with its old value
        start = np.array([0.3, -0.6, 1.0])
        res = assert_nelder_mead_equals_scipy(
            lambda x: 0.0 if np.array_equal(x, start) else 1e15, start, ORACLE_BOX,
            xatol=1e-8, fatol=1e-12, maxiter=4000, maxfev=maxfev)
        unmoved = sum(any(np.array_equal(v, u) for u in default_simplex(start))
                      for v in res.simplex)
        assert unmoved == {5: 4, 6: 3, 7: 2, 8: 1, 9: 1}[maxfev]
        assert res.simplex[0].tobytes() == start.tobytes()


# Referee objectives for the fit's quasi-Newton search, each returning
# (value, gradient) in a box; SciPy's L-BFGS-B from the same start to the
# same tolerances is the referee.
QUADRATIC_HESSIAN = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.0]])
QN_BOX = np.array([[-1.0, 1.0], [-1.5, 2.0], [-1.0, 1.0]])


def coupled_quadratic(x):  # its minimum in QN_BOX holds x0 and x1 at a bound
    r = x - [2.0, -3.0, 0.2]
    return float(0.5 * r @ QUADRATIC_HESSIAN @ r), QUADRATIC_HESSIAN @ r


def rosenbrock(x):  # in ROSENBROCK_BOX its minimum holds x2 at 0.8
    from scipy.optimize import rosen, rosen_der

    return float(rosen(x)), rosen_der(x)


ROSENBROCK_BOX = np.array([[-1.5, 1.5], [-1.5, 1.5], [-1.5, 0.8]])


def failing_wall(x):  # (1e15, 0) past the wall, as _fit scores a Cholesky failure
    if x[0] > 0.6:
        return 1e15, np.zeros(3)
    r = (x - [0.5, 0.4, 0.0]) * [4.0, 1.0, 2.0]
    return float(1.0 + r @ r), 2 * r * [4.0, 1.0, 2.0]


def ridge(x):
    # along x0: value 0 and slope -1 at 0, a minimum -4/27 at 1/3, a ridge
    # 1e-6 below 0 with a zero slope at 1, then a descent to about -0.048 at
    # the box's edge; a unit step from 0 lands on the ridge, which only the
    # sufficient-decrease test refuses
    u, delta = x[0], 1e-6
    value = -u + (2 - 3 * delta) * u**2 + (2 * delta - 1) * u**3 + x[1] ** 2 + x[2] ** 2
    slope = -1 + 2 * (2 - 3 * delta) * u + 3 * (2 * delta - 1) * u**2
    return float(value), np.array([slope, 2 * x[1], 2 * x[2]])


RIDGE_BOX = np.array([[-0.5, 1.2], [-1.0, 1.0], [-1.0, 1.0]])


def tilted_plane(x):  # its gradient points out of the box at the upper corner
    return float(-x.sum()), -np.ones(3)


def saddle(x):  # zero gradient at the origin
    return float(x[0] ** 2 - x[1] ** 2 + x[2] ** 2), np.array([2 * x[0], -2 * x[1], 2 * x[2]])


class TestQuasiNewton:
    @pytest.mark.parametrize("seed", range(40))
    def test_model_step_stays_in_the_box_and_lowers_the_model(self, seed):
        # random positive definite models, coupled up to a condition number
        # of about 1e4, from points with some variables on a bound
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        b = q @ np.diag(10.0 ** rng.uniform(-2, 2, 3)) @ q.T
        box = np.sort(rng.uniform(-2, 2, (3, 2)), axis=1)
        x = np.where(rng.random(3) < 0.3, box[np.arange(3), rng.integers(0, 2, 3)],
                     rng.uniform(box[:, 0], box[:, 1]))
        g = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=3)
        lo, hi = box.T.tolist()

        def model(z):
            p = np.asarray(z) - x
            return g @ p + 0.5 * p @ b @ p

        z = gp._model_step(x.tolist(), g.tolist(), b.tolist(), lo, hi)
        assert all(l <= v <= h for l, v, h in zip(lo, z, hi))
        assert model(z) <= 1e-12 * abs(g).max() * (box[:, 1] - box[:, 0]).max()
        # the Newton step only lowers the Cauchy point, the first minimum of
        # the model along the projected-gradient path, here sampled finely
        path = [model(np.clip(x - t * g, *box.T)) for t in np.geomspace(1e-6, 1e6, 2000)]
        first = next((v for v, w in zip(path, path[1:]) if w > v), path[-1])
        assert model(z) <= first + 1e-9 * max(1.0, abs(first))
        # an identity model is separable: its step is the projected gradient step
        z = gp._model_step(x.tolist(), g.tolist(), np.eye(3).tolist(), lo, hi)
        np.testing.assert_allclose(z, np.clip(x - g, *box.T), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("objective,box,start", [
        (coupled_quadratic, QN_BOX, [0.0, 0.0, 0.0]),
        (coupled_quadratic, QN_BOX, [-1.0, 2.0, 1.0]),
        (rosenbrock, ROSENBROCK_BOX, [-1.2, 1.0, -0.5]),
        (rosenbrock, ROSENBROCK_BOX, [0.0, 0.0, 0.0]),
        (failing_wall, QN_BOX, [-0.3, 0.4, 0.05]),
        (ridge, RIDGE_BOX, [0.0, 0.0, 0.0]),
        (tilted_plane, QN_BOX, [1.0, 2.0, 1.0]),
        (saddle, QN_BOX, [0.0, 0.0, 0.0]),
    ], ids=["quadratic-inside", "quadratic-corner", "rosenbrock-far", "rosenbrock-origin",
            "failing-wall", "ridge", "corner-gradient-out", "zero-gradient"])
    @pytest.mark.parametrize("tolerances", ["SCREEN", "POLISH"])
    def test_reaches_the_scipy_minimum_inside_the_box(self, objective, box, start, tolerances):
        from scipy.optimize import minimize

        options = getattr(gp, tolerances)["quasi-Newton"]
        evaluated = []

        def recorded(x):
            evaluated.append(x.copy())
            return objective(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ours = gp._quasi_newton(recorded, start, box, **options)
        reference = minimize(objective, start, method="L-BFGS-B", jac=True,
                             bounds=list(map(tuple, box)), options=options)
        assert ours.fun <= reference.fun + 1e-9 * abs(reference.fun)
        assert ours.fun == objective(ours.x)[0]
        assert all(((box[:, 0] <= x) & (x <= box[:, 1])).all() for x in evaluated)
        if objective is failing_wall:  # the search has stepped past the wall
            assert any(x[0] > 0.6 for x in evaluated)
        if objective in (tilted_plane, saddle):  # a stationary start: one evaluation
            assert len(evaluated) == 1 and ours.x.tolist() == start


class TestScreenedSearch:
    @pytest.mark.parametrize("training_set", [
        lambda: regression_training_set(1000),
        lambda: regression_training_set(1003),
        lambda: regression_training_set(2000),
        lambda: grid_path_training_set(2),
    ], ids=["gaussian-regression-1000", "gaussian-regression-1003", "gaussian-regression-2000",
            "grid-path-2"])
    def test_matches_the_full_length_multistart(self, training_set, monkeypatch):
        # screening every start loosely and polishing the best one reaches
        # the best optimum of a tight search from every start, on the
        # objectives both fitters hand to the search
        feats, y = training_set()
        minimize_in_box = gp._minimize_in_box
        searched = []

        def recording(objective, log_box, gradient=False):
            res = minimize_in_box(objective, log_box, gradient)
            searched.append((res.fun, full_length_minimum(objective, log_box, gradient)))
            return res

        monkeypatch.setattr(gp, "_minimize_in_box", recording)
        gp_fit_mle(feats, y)
        gp_fit_cv(feats, y)
        assert len(searched) == 2
        for screened, reference in searched:
            assert screened <= reference + 1e-9 * abs(reference)

    @pytest.mark.parametrize("fit,target", [(gp_fit_mle, "log_likelihood"),
                                            (gp_fit_cv, "loo_residuals")], ids=["mle", "cv"])
    def test_no_point_is_scored_twice(self, monkeypatch, fit, target):
        # the quasi-Newton polish restarts from a point the screen scored,
        # the line search may return to a point, and Nelder-Mead may
        # step back onto a vertex; the fit scores each point once, the
        # amplitude's closed form included
        original, received = getattr(gp, target), []

        def recorded(dist, y, theta, *rest):
            received.append((theta.rate, theta.exponent, theta.nugget))
            return original(dist, y, theta, *rest)

        monkeypatch.setattr(gp, target, recorded)
        fit(*regression_training_set(1000))
        assert len(received) > 100
        assert len(set(received)) == len(received)


    @pytest.mark.parametrize("fit,target", [(gp_fit_mle, "log_likelihood"),
                                            (gp_fit_cv, "loo_residuals")], ids=["mle", "cv"])
    def test_every_scored_kernel_is_the_checked_unit_kernel(self, monkeypatch, fit, target):
        # _fit builds the kernels it scores without KernelParams' checks;
        # each must be the kernel the checks build, float for float
        original, received = getattr(gp, target), []

        def recorded(dist, y, theta, *rest):
            received.append(theta)
            return original(dist, y, theta, *rest)

        monkeypatch.setattr(gp, target, recorded)
        fit(*regression_training_set(1000))
        assert len(received) > 100
        for theta in received:
            checked = KernelParams(1.0, theta.rate, theta.exponent, theta.nugget)
            assert theta == checked and type(theta) is KernelParams
            assert ({k: (type(v), v) for k, v in vars(theta).items()}
                    == {k: (type(v), v) for k, v in vars(checked).items()})
            assert_in_fit_box(theta)


class TestSobolStarts:
    def test_equals_scipy_unscrambled_sobol_bitwise(self):
        # scipy is the oracle here only; the fitters read the table in-package
        from scipy.stats import qmc

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unscrambled Sobol balance warning
            three = qmc.Sobol(d=len(FIT_BOX), scramble=False).random(8)
        assert gp.SOBOL_STARTS.dtype == three.dtype and gp.SOBOL_STARTS.shape == three.shape
        assert gp.SOBOL_STARTS.tobytes() == three.tobytes()


class TestPredict:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(8)
        feats = make_features(rng, 10)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        pred = gp_predict(model, feats[[0, 4, 9]])
        for k, i in enumerate((0, 4, 9)):
            assert pred.mean[k] == pytest.approx(y[i], rel=1e-6, abs=1e-8)
            assert pred.variance[k] == pytest.approx(0.0, abs=1e-8)

    def test_far_feature_reverts_to_prior(self):
        rng = np.random.default_rng(9)
        reference = GaussianMeasure([0.0, 0.0], np.eye(2))
        near = [GaussianMeasure(rng.uniform(0, 1, 2), np.eye(2)) for _ in range(5)]
        far = GaussianMeasure([1e6, 1e6], np.eye(2))
        feats = embed_gaussians(near + [far], reference)
        theta = KernelParams(1.5, 1.0, 1.0, 0.01)
        dist = pairwise_distances(feats[:5])
        r = gram_from_distances(dist, theta)
        chol = cholesky(r, lower=True)
        y = rng.normal(size=5)
        model = GpModel(features=feats[:5], y=y, theta=theta, distances=dist,
                        chol=chol, alpha=cho_solve((chol, True), y))
        pred = gp_predict(model, feats[5])
        assert pred.mean[0] == 0.0
        assert pred.variance[0] == pytest.approx(theta.amplitude**2 + theta.nugget)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(10)
        feats = make_features(rng, 12)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        prior = model.theta.amplitude**2 + model.theta.nugget
        test_feats = embed_gaussians(make_measures(rng, 20), model.features.reference)
        assert np.all(gp_predict(model, test_feats).variance <= prior + 1e-10)

    def test_adding_points_never_increases_variance(self):
        rng = np.random.default_rng(11)
        feats = make_features(rng, 11)
        y = smooth_targets(feats)
        theta = KernelParams(1.0, 1.5, 1.2, 1e-4)
        query = feats[10]
        prev = np.inf
        for n in range(3, 11):
            dist = pairwise_distances(feats[:n])
            r = gram_from_distances(dist, theta)
            chol = cholesky(r, lower=True)
            model = GpModel(features=feats[:n], y=y[:n], theta=theta,
                            distances=dist, chol=chol,
                            alpha=cho_solve((chol, True), y[:n]))
            var = gp_predict(model, query).variance[0]
            assert var <= prev + 1e-8
            prev = var

    def test_ci_brackets_mean(self):
        rng = np.random.default_rng(12)
        feats = make_features(rng, 8)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        query = embed_gaussians([GaussianMeasure([0.5, 0.5], 0.01 * np.eye(2))],
                                model.features.reference)
        pred = gp_predict(model, query)
        lo, hi = pred.ci90
        assert lo[0] <= pred.mean[0] <= hi[0]
        width = hi[0] - lo[0]
        assert width == pytest.approx(2 * 1.645 * math.sqrt(pred.variance[0]))

    def test_batch_matches_pointwise_posterior(self):
        # training set with a duplicated input (nugget on the diagonal only);
        # test set holding a copy of a training input (the nugget fires)
        rng = np.random.default_rng(13)
        train = make_measures(rng, 9)
        train.append(GaussianMeasure(train[2].mean, train[2].cov))
        test = make_measures(rng, 6) + [GaussianMeasure(train[5].mean, train[5].cov)]
        feats = embed_gaussians(train, REFERENCE)
        queries = embed_gaussians(test, REFERENCE)
        theta = KernelParams(1.3, 2.0, 1.5, 0.05)
        model = build_model(feats, rng.normal(size=10), pairwise_distances(feats), theta)
        assert model.distances[2, 9] == 0.0
        pred = gp_predict(model, queries)
        k_self = theta.amplitude**2 + theta.nugget
        for t in range(len(test)):
            d = np.linalg.norm(feats.X - queries.X[t], axis=1)
            d[d < DISTANCE_SNAP] = 0.0
            r_vec = theta.amplitude**2 * np.exp(-theta.rate * d**theta.exponent)
            r_vec += theta.nugget * (d == 0.0)
            mean, var = posterior_mean_variance(model.chol, model.alpha, r_vec, k_self)
            assert pred.mean[t] == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert pred.variance[t] == pytest.approx(max(var, 0.0), rel=1e-12, abs=1e-12)
        coincide = np.linalg.norm(queries.X[:, None] - feats.X[None], axis=2) == 0.0
        assert np.argwhere(coincide).tolist() == [[6, 5]]

    def test_reference_mismatch(self):
        rng = np.random.default_rng(14)
        feats = make_features(rng, 6)
        model = build_model(feats, smooth_targets(feats), pairwise_distances(feats),
                            KernelParams(1.0, 1.0, 1.0, 0.01))
        other = embed_gaussians(make_measures(rng, 2), GaussianMeasure([0.0, 0.0], np.eye(2)))
        with pytest.raises(ReferenceMismatch):
            gp_predict(model, other)


class TestMetrics:
    def test_perfect_predictions(self):
        m = metrics([1.0, 2.0], [1.0, 2.0], [0.5, 0.5])
        assert m.rmse == 0.0
        assert m.q2 == 1.0
        assert m.cic == 1.0

    def test_mean_prediction_gives_zero_q2(self):
        truths = np.array([0.3, 1.2, -0.5, 0.8])
        preds = np.full(4, truths.mean())
        m = metrics(preds, truths)
        assert m.q2 == pytest.approx(0.0, abs=1e-12)
        assert m.cic is None

    def test_hand_case(self):
        m = metrics([1.0, 1.0], [0.0, 2.0], [1.0, 1.0])
        assert m.rmse == pytest.approx(1.0)
        assert m.q2 == pytest.approx(0.0)
        assert m.cic == 1.0  # residuals of 1 within 1.645 * 1

    def test_zero_variance_truths(self):
        with pytest.raises(ZeroVarianceTruths):
            metrics([1.0, 1.0], [2.0, 2.0])

    @pytest.mark.parametrize("args,message", [
        (([], []), "need at least one prediction and truth"),
        (([], [], []), "need at least one prediction and truth"),
        (([1.0, 2.0], [1.0, 3.0], [0.5, -1.0]), "variances must be finite and >= 0, got -1.0"),
        (([1.0, 2.0], [1.0, 3.0], [-0.0, -1e-300]),
         "variances must be finite and >= 0, got -1e-300"),
    ], ids=["empty", "empty-with-variances", "negative-variance", "tiny-negative-variance"])
    def test_refuses_what_it_cannot_score(self, args, message):
        # an empty set gave NaN after numpy's "Mean of empty slice" warning,
        # and a negative variance a sqrt warning and an uncovered point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                metrics(*args)

    def test_zero_variance_covers_an_exact_prediction_only(self):
        m = metrics([1.0, 2.0], [1.0, 3.0], [0.0, -0.0])
        assert m.cic == 0.5

    @pytest.mark.parametrize("args,message", [
        (([1.0], [1.0, 2.0]), "predictions and truths differ in length"),
        (([1.0, 2.0], [1.0, 2.0], [0.5]), "variances and truths differ in length"),
    ], ids=["predictions", "variances"])
    def test_length_mismatch(self, args, message):
        with pytest.raises(SizeMismatch, match=f"^{message}$"):
            metrics(*args)
