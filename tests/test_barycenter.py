import warnings

import numpy as np
import pytest
from scipy.stats import ortho_group

from otgp.barycenter import gaussian_barycenter, gaussian_barycenter_measure, grid_barycenter
from otgp.errors import GridMismatch, NoConvergence, NumericalUnderflow, ValidationError
from otgp.measures import (
    DiskConfig,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    rasterize_gaussian,
    sample_regression_gaussians,
)
from otgp.rng import make_rng
from otgp.ot import _axis_log_kernel, gaussian_w2


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.2 * np.eye(d))


class TestGaussianBarycenter:
    def test_fixed_point_of_equal_inputs(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        rep = gaussian_barycenter([s, s, s])
        np.testing.assert_allclose(rep.result, s, atol=1e-12)
        assert rep.iterations == 1

    def test_one_dimensional_pair(self):
        # sigma_bar is the mean of the sigmas: (1 + 3)/2 = 2
        rep = gaussian_barycenter([np.array([[1.0]]), np.array([[9.0]])])
        assert rep.result[0, 0] == pytest.approx(4.0, abs=1e-8)

    def test_commuting_diagonal(self):
        rep = gaussian_barycenter([np.diag([1.0, 4.0]), np.diag([9.0, 16.0])])
        np.testing.assert_allclose(rep.result, np.diag([4.0, 9.0]), atol=1e-8)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(0)
        covs = [random_spd(rng, 3) for _ in range(5)]
        rep = gaussian_barycenter(covs, tol=1e-9)
        assert rep.residual <= 1e-9
        assert np.linalg.eigvalsh(rep.result)[0] > 0

    def test_stack_error_names_the_item(self):
        s = np.diag([1.0, 2.0])
        with pytest.raises(ValidationError, match=r"^item 2: minimum eigenvalue"):
            gaussian_barycenter([s, s, -s, s])

    def test_empty_family_is_validation_error(self):
        with pytest.raises(ValidationError, match="at least one"):
            gaussian_barycenter_measure([])

    def test_one_matrix_is_not_a_stack(self):
        with pytest.raises(ValidationError, match="stack"):
            gaussian_barycenter(np.eye(2))

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValidationError, match=f"^max_iter must be an integer, got {max_iter}$"):
            gaussian_barycenter([np.eye(2), 2 * np.eye(2)], max_iter=max_iter)

    def test_numpy_integer_max_iter_is_a_count(self):
        covs = [np.eye(2), 4 * np.eye(2)]
        assert (gaussian_barycenter(covs, max_iter=np.int64(50)).result.tobytes()
                == gaussian_barycenter(covs, max_iter=50).result.tobytes())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        covs = [random_spd(rng, 3) for _ in range(6)]
        a = gaussian_barycenter(covs).result
        b = gaussian_barycenter(covs[::-1]).result
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(2)
        covs = [random_spd(rng, 3) for _ in range(4)]
        u = ortho_group.rvs(3, random_state=rng)
        base = gaussian_barycenter(covs).result
        rotated = gaussian_barycenter([u @ c @ u.T for c in covs]).result
        np.testing.assert_allclose(rotated, u @ base @ u.T, atol=1e-8)

    def test_minimizes_mean_squared_w2(self):
        rng = np.random.default_rng(3)
        covs = [random_spd(rng, 2) for _ in range(4)]
        rep = gaussian_barycenter(covs)
        zero = np.zeros(2)
        inputs = [GaussianMeasure(zero, c) for c in covs]
        bary = GaussianMeasure(zero, rep.result)
        objective = np.mean([gaussian_w2(bary, m) ** 2 for m in inputs])
        for _ in range(100):
            cand = GaussianMeasure(zero, random_spd(rng, 2))
            cand_obj = np.mean([gaussian_w2(cand, m) ** 2 for m in inputs])
            assert objective <= cand_obj + 1e-6

    def test_no_convergence(self):
        rng = np.random.default_rng(4)
        covs = [random_spd(rng, 3) for _ in range(4)]
        with pytest.raises(NoConvergence):
            gaussian_barycenter(covs, tol=1e-15, max_iter=2)

    def test_measure_wrapper_averages_means(self):
        ms = [GaussianMeasure([0.0, 2.0], np.eye(2)),
              GaussianMeasure([4.0, 0.0], np.eye(2))]
        measure, rep = gaussian_barycenter_measure(ms)
        np.testing.assert_allclose(measure.mean, [2.0, 1.0])
        np.testing.assert_allclose(measure.cov, np.eye(2), atol=1e-9)
        assert rep.residual <= 1e-9


def strip_density(g, col_masses):
    w = np.zeros((g, g))
    for ix, m in col_masses.items():
        w[0, ix] = m
    return GridDensity(w)


class TestGridBarycenter:
    def test_single_input_returned_exactly(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 1.0, size=(6, 6))
        d = GridDensity(w / w.sum())
        rep = grid_barycenter([d])
        assert rep.result is d
        assert rep.residual == 0.0

    def test_identical_inputs_returned_exactly(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.1, 1.0, size=(6, 6))
        d = GridDensity(w / w.sum())
        rep = grid_barycenter([d, GridDensity(d.weights.copy())])
        np.testing.assert_array_equal(rep.result.weights, d.weights)
        assert rep.input_scalings is None

    def test_point_mass_pair_concentrates_at_midpoint(self):
        a = strip_density(9, {1: 1.0})
        b = strip_density(9, {5: 1.0})
        rep = grid_barycenter([a, b], lam=20.0)
        iy, ix = np.unravel_index(rep.result.weights.argmax(), (9, 9))
        assert (iy, ix) == (0, 3)

    def test_valid_density_output(self):
        rng = np.random.default_rng(7)
        ds = []
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, size=(8, 8))
            w[w < 0.4] = 0.0
            ds.append(GridDensity(w / w.sum()))
        rep = grid_barycenter(ds, lam=20.0)
        assert abs(rep.result.weights.sum() - 1.0) < 1e-9
        assert rep.residual <= 1e-6

    def test_permutation_invariance_within_tol(self):
        rng = np.random.default_rng(8)
        ds = []
        for _ in range(3):
            w = rng.uniform(0.1, 1.0, size=(7, 7))
            ds.append(GridDensity(w / w.sum()))
        a = grid_barycenter(ds, tol=1e-8).result.weights
        b = grid_barycenter(ds[::-1], tol=1e-8).result.weights
        assert np.abs(a - b).sum() < 1e-6

    def test_grid_mismatch(self):
        a = GridDensity(np.full((4, 4), 1 / 16))
        b = GridDensity(np.full((5, 5), 1 / 25))
        with pytest.raises(GridMismatch, match="^item 2: grid of size 5 unlike item 0's 4$"):
            grid_barycenter([a, a, b, a])

    def test_empty_input_list(self):
        with pytest.raises(ValidationError):
            grid_barycenter([])

    def test_input_scalings_reproduce_the_barycenter_plans(self):
        # u_i is the input-side scaling of the final Bregman plan
        # diag(u_i) K diag(v_i) with v_i = b / (K u_i): its row sums are the
        # input up to the iteration's tolerance, its column sums the result
        rng = np.random.default_rng(9)
        ds = []
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, size=(8, 8))
            w[w < 0.4] = 0.0
            ds.append(GridDensity(w / w.sum()))
        rep = grid_barycenter(ds, lam=20.0, tol=1e-10)
        u = rep.input_scalings
        assert u.shape == (3, 8, 8)
        ticks = (np.arange(8) + 0.5) / 8
        k = np.exp(-20.0 * (ticks[:, None] - ticks[None, :]) ** 2 / 2.0)
        b = rep.result.weights
        for ui, d in zip(u, ds):
            assert np.all(ui[d.weights == 0] == 0) and np.all(ui[d.weights > 0] > 0)
            vi = b / (k @ ui @ k)
            assert np.abs(vi * (k @ ui @ k) - b).max() < 1e-15
            assert np.abs(ui * (k @ vi @ k) - d.weights).max() < 1e-6


def first_disk_inputs(n, g):
    """The first n inputs of the disks experiment's dataset 1000 at grid
    side g."""
    rng = make_rng((1000, 0))
    configs = [DiskConfig(0.05, rng.uniform(0, 1, size=(10, 2))) for _ in range(60)]
    return [disks_to_grid(c, g) for c in configs[:n]]


class TestGridBarycenterLargeLambda:
    @pytest.mark.parametrize("lam", [5000.0, 20000.0])
    def test_underflow_raises_at_the_first_iteration_without_warnings(self, lam):
        # the axis kernel underflows between far cells, so K^T u is zero on
        # barycenter cells at the first iteration
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalUnderflow, match="at iteration 1;"):
                grid_barycenter(first_disk_inputs(8, 30), lam=lam)

    @pytest.mark.parametrize("lam", [800.0, 2000.0])
    def test_slow_convergence_still_raises_no_convergence(self, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NoConvergence):
                grid_barycenter(first_disk_inputs(8, 30), lam=lam)


def reference_relax(previous, update, it):
    """The over-relaxed update update (update / previous)^(1/4), omega = 5/4,
    from the third iteration; the plain update where previous is zero."""
    if it < 3:
        return update
    positive = previous > 0
    return np.where(positive, update * (update / np.where(positive, previous, 1.0)) ** 0.25,
                    update)


def reference_bregman(densities, lam=20.0, tol=1e-6, max_iter=300):
    """(iterations, weights, input scalings) of the over-relaxed Bregman loop
    on an (n, G, G) stack with its own k @ v @ k products, as it ran before
    grid_barycenter moved onto ot._apply and the (G, n, G) stack layout."""
    g = densities[0].grid_size
    k = np.exp(_axis_log_kernel(g, g, lam))
    p = np.stack([d.weights for d in densities])
    on = p > 0
    u, v = np.zeros_like(p), np.ones_like(p)
    b_prev = np.full((g, g), 1.0 / g**2)
    for it in range(1, max_iter + 1):
        kv = np.where(on, k @ v @ k, 1.0)
        u = reference_relax(u, p / kv, it)
        ktu = k @ u @ k
        log_b = np.log(ktu).mean(axis=0)
        b = np.exp(log_b - log_b.max())
        b /= b.sum()
        v = reference_relax(v, b[None, :, :] / ktu, it)
        if 0.5 * float(np.abs(b - b_prev).sum()) <= tol:
            return it, b, u
        b_prev = b
    raise AssertionError("reference loop did not converge")


def first_regression_inputs(n, seed=13, g=50):
    """The first n inputs of the grid-path regression dataset of seed."""
    return [rasterize_gaussian(m, g) for m, _ in sample_regression_gaussians(100, seed)[:n]]


class TestGridBarycenterOverRelaxation:
    """Both Bregman scalings take the over-relaxed update from the third
    iteration."""

    def test_disks_barycenter_converges_in_half_the_plain_iterations(self):
        # the plain loop takes 20 iterations on these inputs
        assert grid_barycenter(first_disk_inputs(40, 50), lam=20.0).iterations <= 12

    @pytest.mark.parametrize("seed", [26, 35])
    def test_grid_path_barycenter_runs_without_warnings(self, seed):
        # inputs of one to four cells: most cells of each input-side scaling
        # are 0 before and after an update
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = grid_barycenter(first_regression_inputs(50, seed), lam=20.0)
        assert np.all(np.isfinite(rep.input_scalings))


class TestGridBarycenterLayout:
    """The Bregman loop on the map solve's (G, n, G) stack reproduces the
    (n, G, G) loop it replaced, up to the round-off of another GEMM order."""

    @pytest.mark.parametrize("inputs", [
        pytest.param(lambda: first_disk_inputs(40, 50), id="disks-1000"),
        pytest.param(lambda: first_regression_inputs(50), id="regression-seed13"),
    ])
    def test_matches_the_stacked_reference(self, inputs):
        grids = inputs()
        rep = grid_barycenter(grids, lam=20.0)
        iterations, weights, scalings = reference_bregman(grids)
        assert rep.iterations == iterations
        assert np.abs(rep.result.weights - weights).max() <= 1e-15
        assert rep.input_scalings.shape == scalings.shape
        assert np.all(np.abs(rep.input_scalings - scalings) <= 1e-12 * np.abs(scalings))
