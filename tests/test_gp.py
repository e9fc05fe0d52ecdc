import itertools
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from otgp.errors import SizeMismatch, ZeroVarianceTruths
from otgp.gp import (
    GpModel,
    chol_with_jitter,
    gp_fit_cv,
    gp_fit_mle,
    gp_predict,
    log_likelihood,
    loo_residuals,
    metrics,
    posterior_mean_variance,
)
from otgp.errors import ReferenceMismatch
from otgp.kernels import (
    DEFAULT_BOUNDS,
    DISTANCE_SNAP,
    KernelParams,
    embed_gaussians,
    gram_from_distances,
    pairwise_distances,
)
from otgp.measures import GaussianMeasure

REFERENCE = GaussianMeasure([0.0, 0.0], 0.01 * np.eye(2))


def make_measures(rng, n, spread=1.0):
    return [GaussianMeasure(rng.uniform(0, spread, size=2),
                            rng.uniform(0.005, 0.02) * np.eye(2)) for _ in range(n)]


def make_features(rng, n, spread=1.0):
    return embed_gaussians(make_measures(rng, n, spread), REFERENCE)


def smooth_targets(features):
    means = features.X[:, :2]  # a Gaussian row starts with the mean
    return means[:, 0] - means[:, 1] ** 2


def fixed_model(features, y, theta):
    dist = pairwise_distances(features)
    chol, _ = chol_with_jitter(gram_from_distances(dist, theta))
    return GpModel(features=features, y=y, theta=theta, distances=dist, chol=chol,
                   alpha=cho_solve((chol, True), y))


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


class TestFitMle:
    def test_grid_search_oracle(self):
        rng = np.random.default_rng(0)
        feats = make_features(rng, 20)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        dist = pairwise_distances(feats)
        fitted_ll = log_likelihood(dist, y, model.theta)

        # refine from the best cell of a 3^4 grid and compare
        from scipy.optimize import minimize

        box = np.asarray(DEFAULT_BOUNDS)
        log_box = np.log(box)

        def theta_at(log_x):
            return KernelParams.from_array(np.clip(np.exp(log_x), box[:, 0], box[:, 1]))

        axes = [np.linspace(lo, hi, 3) for lo, hi in log_box]
        best_cell = max(itertools.product(*axes),
                        key=lambda x: log_likelihood(dist, y, theta_at(x)))
        res = minimize(
            lambda x: -log_likelihood(dist, y, theta_at(x)),
            np.array(best_cell), method="Nelder-Mead",
            bounds=list(map(tuple, log_box)),
            options=dict(xatol=1e-8, fatol=1e-12, maxiter=4000, maxfev=4000))
        assert fitted_ll >= -res.fun - 1e-6

    def test_feasible_and_beats_box_corners(self):
        rng = np.random.default_rng(1)
        feats = make_features(rng, 15)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        arr = model.theta.as_array()
        for v, (lo, hi) in zip(arr, DEFAULT_BOUNDS):
            assert lo - 1e-12 <= v <= hi + 1e-12
        dist = pairwise_distances(feats)
        fitted_ll = log_likelihood(dist, y, model.theta)
        for corner in itertools.product(*DEFAULT_BOUNDS):
            assert fitted_ll >= log_likelihood(dist, y, KernelParams(*corner)) - 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        feats = make_features(rng, 12)
        y = smooth_targets(feats)
        model_a = gp_fit_mle(feats, y)
        perm = rng.permutation(len(y))
        model_b = gp_fit_mle(feats[perm], y[perm])
        np.testing.assert_allclose(model_a.theta.as_array(),
                                   model_b.theta.as_array(), rtol=1e-5)

    def test_degenerate_constant_targets(self):
        rng = np.random.default_rng(3)
        feats = make_features(rng, 6)
        with pytest.warns(UserWarning):
            model = gp_fit_mle(feats, np.full(6, 2.5))
        assert model.degenerate
        assert model.theta.amplitude == DEFAULT_BOUNDS[0][0]

    def test_model_invariants(self):
        rng = np.random.default_rng(4)
        feats = make_features(rng, 10)
        y = smooth_targets(feats)
        model = gp_fit_mle(feats, y)
        r = gram_from_distances(model.distances, model.theta) + model.jitter * np.eye(10)
        rel = np.linalg.norm(model.chol @ model.chol.T - r) / np.linalg.norm(r)
        assert rel < 1e-8
        assert np.linalg.norm(r @ model.alpha - y) / np.linalg.norm(y) < 1e-8


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

    def test_standardized_residuals_calibrated(self):
        rng = np.random.default_rng(6)
        feats = make_features(rng, 16)
        y = smooth_targets(feats)
        model = gp_fit_cv(feats, y)
        if not model.clipped:
            errs, variances = loo_residuals(model.distances, y, model.theta)
            assert float((errs**2 / variances).mean()) == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        feats = make_features(rng, 10)
        y = smooth_targets(feats)
        model_a = gp_fit_cv(feats, y)
        perm = rng.permutation(len(y))
        model_b = gp_fit_cv(feats[perm], y[perm])
        np.testing.assert_allclose(model_a.theta.as_array(),
                                   model_b.theta.as_array(), rtol=1e-5)


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
        model = fixed_model(feats, rng.normal(size=10), theta)
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
        model = fixed_model(feats, smooth_targets(feats), KernelParams(1.0, 1.0, 1.0, 0.01))
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

    def test_length_mismatch(self):
        with pytest.raises(SizeMismatch):
            metrics([1.0], [1.0, 2.0])
