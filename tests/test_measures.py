import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgp.errors import EmptySupport, NotPositiveDefinite, NotSymmetric, ValidationError
from otgp.measures import (
    DiskConfig,
    EmpiricalSample,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    rasterize_gaussian,
    sample_gaussian_population,
    sample_regression_gaussians,
    validate_spd,
)


class TestValidateSpd:
    def test_identity_passes_through(self):
        np.testing.assert_array_equal(validate_spd(np.eye(3)), np.eye(3))

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            validate_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_spd_accepted(self):
        # eigenvalues 3 and 1
        out = validate_spd([[2.0, 1.0], [1.0, 2.0]])
        assert out[0, 1] == 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            validate_spd([[1.0, 0.5], [0.0, 1.0]])

    def test_tiny_asymmetry_symmetrized(self):
        m = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        out = validate_spd(m)
        np.testing.assert_allclose(out, out.T)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            validate_spd(np.ones((2, 3)))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_gram_constructions_accepted(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        out = validate_spd(a @ a.T + 0.1 * np.eye(d))
        assert np.linalg.eigvalsh(out)[0] > 0


class TestTypes:
    def test_gaussian_requires_matching_mean(self):
        with pytest.raises(ValidationError):
            GaussianMeasure([0.0, 0.0, 0.0], np.eye(2))

    def test_gaussian_validates_cov(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_grid_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            GridDensity(np.full((4, 4), 0.9 / 16))

    def test_grid_weights_nonnegative(self):
        w = np.full((4, 4), 1.0 / 16)
        w[0, 0] = -w[0, 0]
        w[1, 1] += 2.0 / 16
        with pytest.raises(ValidationError):
            GridDensity(w)

    def test_grid_cell_centers(self):
        g = GridDensity(np.full((2, 2), 0.25))
        np.testing.assert_allclose(
            g.cell_centers(),
            [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])

    def test_empirical_needs_finite_rows(self):
        with pytest.raises(ValidationError):
            EmpiricalSample([[0.0, np.inf]])

    def test_disk_config_bounds(self):
        with pytest.raises(ValidationError):
            DiskConfig(0.1, [[1.5, 0.5]])
        with pytest.raises(ValidationError):
            DiskConfig(-0.1, [[0.5, 0.5]])


class TestDisksToGrid:
    def test_full_coverage_is_uniform(self):
        cfg = DiskConfig(radius=2.0, centers=[[0.5, 0.5]])
        grid = disks_to_grid(cfg, 5)
        np.testing.assert_allclose(grid.weights, np.full((5, 5), 1.0 / 25))

    def test_xy_swap_symmetry(self):
        cfg = DiskConfig(radius=0.15, centers=[[0.3, 0.7], [0.7, 0.3], [0.5, 0.5]])
        swapped = DiskConfig(radius=0.15, centers=cfg.centers[:, ::-1])
        a = disks_to_grid(cfg, 12).weights
        b = disks_to_grid(swapped, 12).weights
        np.testing.assert_array_equal(a, b.T)

    def test_single_disk_containment(self):
        # geometric containment oracle: any cell with positive weight must
        # intersect the disk, and any cell fully inside must be positive
        r, g = 0.1, 10
        cfg = DiskConfig(radius=r, centers=[[0.5, 0.5]])
        grid = disks_to_grid(cfg, g)
        assert abs(grid.weights.sum() - 1.0) < 1e-12
        for iy in range(g):
            for ix in range(g):
                lo = np.array([ix / g, iy / g])
                hi = lo + 1.0 / g
                nearest = np.clip([0.5, 0.5], lo, hi)
                min_d = np.hypot(*(nearest - 0.5))
                corners = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
                max_d = max(np.hypot(x - 0.5, y - 0.5) for x, y in corners)
                if grid.weights[iy, ix] > 0:
                    assert min_d <= r
                if max_d <= r:
                    assert grid.weights[iy, ix] > 0

    def test_center_permutation_invariance(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 1, size=(6, 2))
        a = disks_to_grid(DiskConfig(0.08, centers), 20)
        b = disks_to_grid(DiskConfig(0.08, centers[::-1]), 20)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_matches_broadcast_formula(self):
        # reference: the (probes x centers x 2) broadcast the rasterizer
        # replaced; the per-disk outer sum must give the same bits
        def broadcast(cfg, g, s=4):
            ticks = (np.arange(g * s) + 0.5) / (g * s)
            xx, yy = np.meshgrid(ticks, ticks)
            probes = np.column_stack([xx.ravel(), yy.ravel()])
            d2 = ((probes[:, None, :] - cfg.centers[None, :, :]) ** 2).sum(axis=2)
            hit = (d2 <= cfg.radius**2).any(axis=1)
            counts = hit.reshape(g, s, g, s).sum(axis=(1, 3)).astype(float)
            return counts / counts.sum()

        rng = np.random.default_rng(21)
        cases = [(DiskConfig(rng.uniform(0.02, 0.2), rng.uniform(0, 1, (int(n), 2))), g)
                 for n, g in zip(rng.integers(1, 12, 20), rng.integers(2, 40, 20))]
        cases += [
            # overlapping: repeated and nearly coincident centers
            (DiskConfig(0.1, [[0.5, 0.5], [0.5, 0.5], [0.52, 0.49]]), 25),
            (DiskConfig(0.3, [[0.4, 0.4], [0.6, 0.6]]), 16),
            # edge-touching: centers on the sides and corners of the square
            (DiskConfig(0.05, [[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]]), 30),
            (DiskConfig(0.2, [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), 10),
            # probes exactly on the circle: dyadic ticks, centers and radii
            # (offsets 0-4 and 6-8-10 in units of the probe spacing)
            (DiskConfig(0.25, [[5 / 16, 7 / 16]]), 2),
            (DiskConfig(0.3125, [[17 / 32, 15 / 32]]), 4),
        ]
        for cfg, g in cases:
            assert np.array_equal(disks_to_grid(cfg, g).weights, broadcast(cfg, g))

    def test_empty_support(self):
        # disk so small that every probe point misses it
        with pytest.raises(EmptySupport):
            disks_to_grid(DiskConfig(radius=1e-9, centers=[[0.5004, 0.5004]]), 2)


class TestGenerators:
    def test_population_deterministic(self):
        a = sample_gaussian_population(4, 3, seed=42)
        b = sample_gaussian_population(4, 3, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.cov, y.cov)

    def test_population_entry_range(self):
        # cov = A A^T with entries of A uniform in [5, 15]: diagonal entries
        # bounded by d * [25, 225]
        [m] = sample_gaussian_population(1, 2, seed=0)
        assert np.array_equal(m.mean, np.zeros(2))
        diag = np.diag(m.cov)
        assert np.all(diag >= 2 * 25.0) and np.all(diag <= 2 * 225.0)

    def test_population_spd(self):
        for m in sample_gaussian_population(10, 4, seed=7):
            assert np.linalg.eigvalsh(m.cov)[0] > 0

    def test_regression_response_values(self):
        # (m1 - m2^2) / (1 + sigma) at sigma = 0
        from otgp.measures import regression_response

        assert regression_response(np.array([0.5, 0.5]), 0.0) == pytest.approx(0.25)
        assert regression_response(np.array([0.2, 0.2]), 0.0) == pytest.approx(0.16)

    def test_regression_ranges(self):
        pairs = sample_regression_gaussians(200, seed=5)
        means = np.array([m.mean for m, _ in pairs])
        assert np.all(means >= 0.2) and np.all(means <= 0.8)
        sigmas = np.array([np.sqrt(m.cov[0, 0]) for m, _ in pairs])
        assert np.all(sigmas >= 1e-4) and np.all(sigmas <= 4e-4)
        for m, y in pairs[:10]:
            s = np.sqrt(m.cov[0, 0])
            assert y == pytest.approx((m.mean[0] - m.mean[1] ** 2) / (1 + s))

    def test_regression_deterministic(self):
        a = sample_regression_gaussians(5, seed=9)
        b = sample_regression_gaussians(5, seed=9)
        assert [y for _, y in a] == [y for _, y in b]

    def test_draws_uncorrelated_across_indices(self):
        pairs = sample_regression_gaussians(1000, seed=11)
        m1 = np.array([m.mean[0] for m, _ in pairs])
        corr = np.corrcoef(m1[:-1], m1[1:])[0, 1]
        assert abs(corr) < 0.1


class TestRasterize:
    def test_mass_concentrates_at_mean(self):
        m = GaussianMeasure([0.55, 0.55], 1e-8 * np.eye(2))
        grid = rasterize_gaussian(m, 10)
        assert grid.weights[5, 5] == pytest.approx(1.0)

    def test_wide_gaussian_spreads(self):
        m = GaussianMeasure([0.5, 0.5], 0.04 * np.eye(2))
        grid = rasterize_gaussian(m, 10)
        assert grid.weights.max() < 0.5
        assert abs(grid.weights.sum() - 1.0) < 1e-12

    def test_diagonal_covariance_is_accepted(self):
        m = GaussianMeasure([0.4, 0.6], np.diag([0.01, 0.0025]))
        grid = rasterize_gaussian(m, 20)
        assert abs(grid.weights.sum() - 1.0) < 1e-12

    def test_correlated_covariance_is_rejected(self):
        # correlation 0.9 cannot factor into per-axis cell masses
        s = 0.01
        m = GaussianMeasure([0.5, 0.5], s * np.array([[1.0, 0.9], [0.9, 1.0]]))
        with pytest.raises(ValidationError):
            rasterize_gaussian(m, 20)
