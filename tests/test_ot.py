import itertools
import warnings

import numpy as np
import pytest

from otgp.errors import (
    DimensionMismatch,
    EmptyRow,
    NoConvergence,
    NotPositiveDefinite,
    NumericalUnderflow,
    SizeMismatch,
)
from otgp.barycenter import grid_barycenter
from otgp.measures import (
    DiskConfig,
    EmpiricalSample,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    rasterize_gaussian,
    sample_regression_gaussians,
)
from otgp.ot import (
    CouplingPlan,
    _axis_log_kernel,
    _grid_sinkhorn,
    _log_sinkhorn,
    assignment_ot,
    gaussian_transport_map,
    gaussian_w2,
    inverse_grid_map,
    map_l2_distance_gaussian,
    round_plan_to_map,
    sinkhorn_core,
    sinkhorn_plan,
    sqrtm_spd,
)


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.2 * np.eye(d))


class TestSqrtm:
    def test_identity(self):
        pair = sqrtm_spd(np.eye(3))
        np.testing.assert_allclose(pair.sqrt, np.eye(3))
        np.testing.assert_allclose(pair.inv_sqrt, np.eye(3))

    def test_diagonal(self):
        pair = sqrtm_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(pair.sqrt, np.diag([2.0, 3.0]))

    def test_two_by_two(self):
        # eigenvalues 3 and 1: sqrt has entries (sqrt3 +- 1)/2
        pair = sqrtm_spd([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            pair.sqrt, [[1.3660254, 0.3660254], [0.3660254, 1.3660254]], atol=1e-7)
        np.testing.assert_allclose(pair.sqrt @ pair.sqrt,
                                   [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_reconstruction_invariants(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            s = random_spd(rng, d)
            pair = sqrtm_spd(s)
            rel = np.linalg.norm(pair.sqrt @ pair.sqrt - s) / np.linalg.norm(s)
            assert rel < 1e-10
            assert np.linalg.norm(pair.sqrt @ pair.inv_sqrt - np.eye(d)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sqrtm_spd([[1.0, 2.0], [2.0, 1.0]])


class TestGaussianW2:
    def test_zero_on_equal(self):
        m = GaussianMeasure([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert gaussian_w2(m, m) == 0.0

    def test_one_dimensional_sigmas(self):
        a = GaussianMeasure([0.0], [[4.0]])
        b = GaussianMeasure([0.0], [[1.0]])
        assert gaussian_w2(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pure_translation(self):
        cov = [[1.5, 0.2], [0.2, 1.0]]
        a = GaussianMeasure([0.0, 0.0], cov)
        b = GaussianMeasure([3.0, 4.0], cov)
        assert gaussian_w2(a, b) == pytest.approx(5.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_w2(GaussianMeasure([0.0], [[1.0]]),
                        GaussianMeasure([0.0, 0.0], np.eye(2)))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            ms = [GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
                  for _ in range(3)]
            dab = gaussian_w2(ms[0], ms[1])
            dba = gaussian_w2(ms[1], ms[0])
            dbc = gaussian_w2(ms[1], ms[2])
            dac = gaussian_w2(ms[0], ms[2])
            assert dab >= 0
            assert dab == dba  # canonical evaluation order makes this exact
            assert dac <= dab + dbc + 1e-9
            assert gaussian_w2(ms[0], ms[0]) <= 1e-9


class TestTransportMap:
    def test_identity_when_equal(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        fwd, inv = gaussian_transport_map(s, s)
        np.testing.assert_allclose(fwd.matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv.matrix, np.eye(2), atol=1e-12)

    def test_scalar_ratio(self):
        fwd, inv = gaussian_transport_map([[4.0]], [[9.0]])
        assert fwd.matrix[0, 0] == pytest.approx(1.5)
        assert inv.matrix[0, 0] == pytest.approx(2.0 / 3.0)

    def test_commuting_diagonal(self):
        fwd, _ = gaussian_transport_map(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
        np.testing.assert_allclose(fwd.matrix, np.diag([0.5, 2.0]), atol=1e-12)

    def test_push_forward_property(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            s, sbar = random_spd(rng, d), random_spd(rng, d)
            fwd, inv = gaussian_transport_map(s, sbar)
            t = fwd.matrix
            rel = np.linalg.norm(t @ s @ t - sbar) / np.linalg.norm(sbar)
            assert rel < 1e-8
            np.testing.assert_allclose(fwd.matrix @ inv.matrix, np.eye(d), atol=1e-8)
            # the map matrix is SPD
            assert np.linalg.eigvalsh(t)[0] > 0

    def test_displacement_norm_matches_w2(self):
        # ||id - T||^2 under the source equals the squared centered W2
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            s, sbar = random_spd(rng, d), random_spd(rng, d)
            sh = sqrtm_spd(s).sqrt
            cross = np.linalg.eigvalsh(sh @ sbar @ sh)
            lhs = np.trace(s) + np.trace(sbar) - 2 * np.sqrt(np.clip(cross, 0, None)).sum()
            a = GaussianMeasure(np.zeros(d), s)
            b = GaussianMeasure(np.zeros(d), sbar)
            assert lhs == pytest.approx(gaussian_w2(a, b) ** 2, abs=1e-8)


class TestMapL2Distance:
    def test_zero_on_equal(self):
        s = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert map_l2_distance_gaussian(s, s, np.eye(2)) == 0.0

    def test_scalar_closed_form(self):
        # (sigma_i - sigma_j)^2 for any reference variance
        val = map_l2_distance_gaussian([[4.0]], [[9.0]], [[25.0]])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        si, sj, sb = (random_spd(rng, 3) for _ in range(3))
        assert map_l2_distance_gaussian(si, sj, sb) == map_l2_distance_gaussian(sj, si, sb)

    def test_monte_carlo_oracle(self):
        # the distance is E||Ti^-1 X - Tj^-1 X||^2 for X ~ N(0, Sbar)
        rng = np.random.default_rng(4)
        for trial in range(6):
            d = 2 if trial % 2 == 0 else 3
            si, sj, sbar = (random_spd(rng, d) for _ in range(3))
            _, inv_i = gaussian_transport_map(si, sbar)
            _, inv_j = gaussian_transport_map(sj, sbar)
            x = rng.multivariate_normal(np.zeros(d), sbar, size=1_000_000)
            diff = x @ (inv_i.matrix - inv_j.matrix).T
            mc = (diff**2).sum(axis=1).mean()
            val = map_l2_distance_gaussian(si, sj, sbar)
            assert val == pytest.approx(mc, rel=0.01)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(5)
        from scipy.stats import ortho_group

        for d in (2, 3, 4):
            si, sj, sb = (random_spd(rng, d) for _ in range(3))
            u = ortho_group.rvs(d, random_state=rng)
            base = map_l2_distance_gaussian(si, sj, sb)
            rotated = map_l2_distance_gaussian(u @ si @ u.T, u @ sj @ u.T, u @ sb @ u.T)
            assert rotated == pytest.approx(base, abs=1e-8 * max(base, 1.0))


class TestAssignment:
    def test_single_point(self):
        a, w2 = assignment_ot(EmpiricalSample([[0.0, 0.0]]), EmpiricalSample([[3.0, 4.0]]))
        assert a.target_index.tolist() == [0]
        assert w2 == pytest.approx(5.0)

    def test_one_dimensional_monotone(self):
        src = EmpiricalSample([[0.0], [1.0], [2.0], [3.0]])
        dst = EmpiricalSample([[0.5], [1.5], [2.5], [3.5]])
        a, _ = assignment_ot(src, dst)
        assert a.target_index.tolist() == [0, 1, 2, 3]

    def test_brute_force_m3(self):
        rng = np.random.default_rng(6)
        pts_a = rng.normal(size=(3, 2))
        pts_b = rng.normal(size=(3, 2))
        _, w2 = assignment_ot(EmpiricalSample(pts_a), EmpiricalSample(pts_b))
        best = min(
            ((pts_a - pts_b[list(p)]) ** 2).sum()
            for p in itertools.permutations(range(3)))
        assert w2 == pytest.approx(np.sqrt(best / 3))

    def test_brute_force_and_symmetry_up_to_m6(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 6):
            pts_a = rng.normal(size=(m, 2))
            pts_b = rng.normal(size=(m, 2))
            _, fwd = assignment_ot(EmpiricalSample(pts_a), EmpiricalSample(pts_b))
            _, bwd = assignment_ot(EmpiricalSample(pts_b), EmpiricalSample(pts_a))
            assert abs(fwd**2 * m - bwd**2 * m) < 1e-10
            best = min(
                ((pts_a - pts_b[list(p)]) ** 2).sum()
                for p in itertools.permutations(range(m)))
            assert fwd == pytest.approx(np.sqrt(best / m))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            assignment_ot(EmpiricalSample([[0.0]]), EmpiricalSample([[0.0], [1.0]]))


def two_cell_density(g, cells, masses):
    w = np.zeros((g, g))
    for (iy, ix), m in zip(cells, masses):
        w[iy, ix] = m
    return GridDensity(w)


class TestSinkhorn:
    def test_single_identical_cell(self):
        d = two_cell_density(3, [(1, 1)], [1.0])
        plan = sinkhorn_plan(d, d, lam=20.0)
        np.testing.assert_allclose(plan.plan, [[1.0]])

    def test_two_cell_analytic_fixed_point(self):
        # symmetric case: diagonal entries are (1/2) / (1 + exp(-lam*c))
        lam = 20.0
        d = two_cell_density(6, [(0, 0), (0, 4)], [0.5, 0.5])
        plan = sinkhorn_plan(d, d, lam=lam, tol=1e-12)
        _, locs, _ = d.support()
        c = ((locs[0] - locs[1]) ** 2).sum() / 2.0
        expected = 0.5 / (1.0 + np.exp(-lam * c))
        assert plan.plan[0, 0] == pytest.approx(expected, rel=1e-9)
        assert plan.plan[1, 1] == pytest.approx(expected, rel=1e-9)

    def test_random_marginals_match(self):
        rng = np.random.default_rng(8)
        wa = rng.uniform(0.2, 1.0, size=(6, 6))
        wb = rng.uniform(0.2, 1.0, size=(6, 6))
        a = GridDensity(wa / wa.sum())
        b = GridDensity(wb / wb.sum())
        plan = sinkhorn_plan(a, b, lam=20.0, tol=1e-10)
        assert np.abs(plan.plan.sum(axis=1) - plan.source_weights).max() < 1e-8
        assert np.abs(plan.plan.sum(axis=0) - plan.target_weights).max() < 1e-8

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(9)
        wa = rng.uniform(0.2, 1.0, size=(5, 5))
        wb = rng.uniform(0.2, 1.0, size=(5, 5))
        a = GridDensity(wa / wa.sum())
        b = GridDensity(wb / wb.sum())
        ab = sinkhorn_plan(a, b, lam=20.0, tol=1e-12).plan
        ba = sinkhorn_plan(b, a, lam=20.0, tol=1e-12).plan
        assert np.abs(ab - ba.T).max() < 1e-8

    def test_no_convergence(self):
        rng = np.random.default_rng(10)
        wa = rng.uniform(0.2, 1.0, size=(5, 5))
        wb = rng.uniform(0.2, 1.0, size=(5, 5))
        with pytest.raises(NoConvergence):
            sinkhorn_plan(GridDensity(wa / wa.sum()), GridDensity(wb / wb.sum()),
                          lam=20.0, max_iter=1, tol=1e-14)

    def test_core_handles_extreme_lambda(self):
        # forces the absorption path; potentials stay finite
        wa = np.array([0.5, 0.5])
        wb = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn_core(wa, wb, cost, lam=800.0, max_iter=5000, tol=1e-10)
        np.testing.assert_allclose(plan.sum(axis=0), wb, atol=1e-9)

    @pytest.mark.parametrize("lam", [2300.0, 20000.0])
    def test_core_underflow_raises_without_warnings(self, lam):
        # two disjoint 5-cell supports: at lambda 20000 every kernel entry
        # underflows to zero, at 2300 a scaling overflows
        wa = np.zeros((5, 5))
        wa[:, 0] = 0.2
        wb = np.zeros((5, 5))
        wb[:, -1] = 0.2
        _, loc_a, pa = GridDensity(wa).support()
        _, loc_b, pb = GridDensity(wb).support()
        cost = ((loc_a[:, None] - loc_b[None]) ** 2).sum(axis=2) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalUnderflow):
                sinkhorn_core(pa, pb, cost, lam=lam, max_iter=1000, tol=1e-9)


class TestRounding:
    def test_diagonal_plan_identity(self):
        plan = CouplingPlan(np.diag([0.3, 0.3, 0.4]),
                            np.array([0.3, 0.3, 0.4]), np.array([0.3, 0.3, 0.4]))
        a = round_plan_to_map(plan)
        assert a.target_index.tolist() == [0, 1, 2]

    def test_argmax_row(self):
        plan = CouplingPlan(np.array([[0.1, 0.7, 0.2]]), np.array([1.0]),
                            np.array([0.1, 0.7, 0.2]))
        assert round_plan_to_map(plan).target_index.tolist() == [1]

    def test_tie_breaks_low_index(self):
        plan = CouplingPlan(np.array([[0.5, 0.5]]), np.array([1.0]),
                            np.array([0.5, 0.5]))
        assert round_plan_to_map(plan).target_index.tolist() == [0]

    def test_empty_row(self):
        plan = CouplingPlan.__new__(CouplingPlan)
        object.__setattr__(plan, "plan", np.array([[0.0, 0.0], [0.5, 0.5]]))
        object.__setattr__(plan, "source_weights", np.array([0.0, 1.0]))
        object.__setattr__(plan, "target_weights", np.array([0.5, 0.5]))
        with pytest.raises(EmptyRow):
            round_plan_to_map(plan)


class TestInverseGridMap:
    def test_identity_on_same_density(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.0, size=(4, 4))
        d = GridDensity(w / w.sum())
        a = inverse_grid_map(d, d, lam=40.0)
        assert a.target_index.tolist() == list(range(16))

    def test_single_target_cell(self):
        bar = GridDensity(np.full((3, 3), 1.0 / 9))
        mu = two_cell_density(3, [(1, 1)], [1.0])
        a = inverse_grid_map(mu, bar, lam=20.0)
        assert set(a.target_index.tolist()) == {0}
        np.testing.assert_allclose(a.mapped_locations(),
                                   np.repeat([[0.5, 0.5]], 9, axis=0))

    def test_two_cell_shift_monotone(self):
        # 1-D strip: unregularized OT is monotone; enumerate the 2x2
        # transport polytope to confirm, then match the rounded map
        bar = two_cell_density(8, [(0, 1), (0, 2)], [0.5, 0.5])
        mu = two_cell_density(8, [(0, 3), (0, 4)], [0.5, 0.5])
        _, bar_locs, _ = bar.support()
        _, mu_locs, _ = mu.support()
        best, best_cost = None, np.inf
        for t in np.linspace(0.0, 0.5, 51):
            plan = np.array([[t, 0.5 - t], [0.5 - t, t]])
            cost = sum(plan[i, j] * ((bar_locs[i] - mu_locs[j]) ** 2).sum()
                       for i in range(2) for j in range(2))
            if cost < best_cost:
                best, best_cost = plan, cost
        assert best[0, 0] > best[0, 1]  # monotone: first to first
        a = inverse_grid_map(mu, bar, lam=20.0)
        assert a.target_index.tolist() == [0, 1]


class TestSeparableSinkhorn:
    """The grid solver applies the Gibbs kernel axis by axis on the full
    grids and continues with log-domain updates when its scalings leave the
    floating-point range."""

    def test_matches_dense_core(self):
        # reference: sinkhorn_core on the dense support-to-support cost;
        # the densities have empty cells, an empty row and column, and in
        # one case differ in size. The log-domain updates, started from
        # unit scalings, must reach the same plan.
        rng = np.random.default_rng(12)
        for ga, gb in ((5, 5), (6, 4)):
            wa = rng.uniform(0, 1, (ga, ga)) * (rng.uniform(size=(ga, ga)) < 0.6)
            wb = rng.uniform(0, 1, (gb, gb)) * (rng.uniform(size=(gb, gb)) < 0.6)
            wb[1, :] = wb[:, 2] = 0.0
            a, b = GridDensity(wa / wa.sum()), GridDensity(wb / wb.sum())
            src, loc_a, pa = a.support()
            tgt, loc_b, pb = b.support()
            cost = ((loc_a[:, None, :] - loc_b[None, :, :]) ** 2).sum(axis=2) / 2.0
            dense = sinkhorn_core(pa, pb, cost, lam=20.0, max_iter=10000, tol=1e-12)
            plan = sinkhorn_plan(a, b, lam=20.0, tol=1e-12).plan
            np.testing.assert_allclose(plan, dense, rtol=0, atol=1e-12)
            a_map = inverse_grid_map(b, a, lam=20.0, tol=1e-12)
            np.testing.assert_array_equal(a_map.target_index, dense.argmax(axis=1))

            logk = _axis_log_kernel(ga, gb, 20.0)
            start = np.where(b.weights > 0, 0.0, -np.inf)
            logged = _log_sinkhorn(a.weights, b.weights, logk, start, 10000, 1e-12)
            assert logged.log_domain
            log_plan = np.exp(np.vstack(list(logged.blocks(src, tgt))))
            np.testing.assert_allclose(log_plan, dense, rtol=0, atol=1e-12)

    # parent-commit assignment of the inverse map below at lambda=800, one
    # row per barycenter grid row; lambda=2000 differs only in CHANGED_AT_2000
    EXPECTED_800 = np.array([
        21, 21, 21, 21, 21, 3, 3, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2,
        21, 21, 21, 21, 21, 3, 3, 3, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 7,
        21, 21, 21, 21, 21, 22, 3, 3, 4, 4, 4, 4, 1, 1, 1, 6, 6, 6, 7, 7,
        21, 21, 21, 21, 21, 22, 22, 8, 8, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7,
        21, 21, 21, 21, 21, 22, 22, 22, 8, 8, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7,
        21, 21, 21, 21, 21, 22, 22, 22, 23, 8, 9, 9, 9, 10, 10, 10, 11, 11, 12, 12,
        25, 21, 21, 21, 21, 22, 22, 22, 23, 23, 9, 9, 9, 10, 10, 10, 11, 11, 12, 12,
        25, 25, 26, 26, 26, 26, 22, 22, 23, 23, 23, 14, 14, 15, 15, 15, 11, 11, 12, 12,
        25, 25, 26, 26, 26, 26, 27, 27, 28, 28, 28, 14, 14, 15, 15, 15, 16, 16, 16, 12,
        25, 25, 26, 26, 26, 26, 27, 27, 28, 28, 28, 29, 14, 15, 15, 15, 16, 16, 16, 17,
        25, 25, 26, 26, 26, 26, 27, 27, 28, 28, 28, 29, 36, 36, 36, 37, 37, 37, 38, 38,
        30, 30, 31, 31, 31, 31, 32, 32, 33, 33, 34, 34, 43, 44, 44, 45, 45, 46, 46, 46,
        30, 30, 31, 31, 31, 31, 32, 32, 33, 33, 34, 43, 43, 44, 44, 45, 45, 46, 46, 46,
        30, 30, 31, 31, 31, 31, 32, 32, 33, 33, 34, 43, 43, 44, 44, 45, 45, 46, 46, 46,
        30, 30, 31, 31, 31, 31, 32, 32, 41, 41, 42, 47, 48, 48, 49, 49, 49, 50, 50, 50,
        30, 30, 39, 39, 39, 40, 40, 40, 41, 41, 47, 47, 48, 48, 49, 49, 49, 50, 50, 50,
        30, 39, 39, 39, 39, 40, 40, 40, 41, 41, 47, 47, 48, 48, 53, 53, 53, 50, 50, 50,
        39, 39, 39, 39, 39, 40, 40, 40, 41, 47, 47, 52, 52, 52, 53, 53, 53, 54, 54, 54,
        39, 39, 39, 39, 39, 40, 40, 40, 41, 51, 51, 52, 52, 52, 53, 53, 53, 54, 54, 54,
        39, 39, 39, 39, 39, 40, 40, 40, 51, 51, 51, 52, 52, 52, 53, 53, 53, 54, 54, 54,
    ]).reshape(20, 20)
    CHANGED_AT_2000 = {(7, 10): 24, (8, 19): 17, (19, 14): 56, (19, 15): 56, (19, 16): 56}

    def test_large_lambda_assignment_is_pinned(self):
        rng = np.random.default_rng(4)
        grids = [disks_to_grid(DiskConfig(0.1, rng.uniform(0.1, 0.9, (3, 2))), 20)
                 for _ in range(6)]
        bar = grid_barycenter(grids, lam=20.0).result
        expected_2000 = self.EXPECTED_800.copy()
        for cell, target in self.CHANGED_AT_2000.items():
            expected_2000[cell] = target
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for lam, expected in ((800.0, self.EXPECTED_800), (2000.0, expected_2000)):
                a = inverse_grid_map(grids[0], bar, lam=lam)
                np.testing.assert_array_equal(a.target_index, expected.ravel())
            # lambda=2000 runs through the log-domain updates
            assert _grid_sinkhorn(bar, grids[0], 2000.0, 10000, 1e-9).log_domain

    def test_subnormal_cell_mass_embeds(self):
        # input 75 of regression dataset seed 13 rasterizes to a cell mass of
        # 5.7e-322 at G=50; its scalings collapse and the dense solver
        # failed with NumericalUnderflow
        pairs = sample_regression_gaussians(100, 13)
        grids = [rasterize_gaussian(m, 50) for m, _ in pairs]
        bar = grid_barycenter(grids[:50], lam=20.0).result
        mu = grids[75]
        assert 0.0 < mu.support()[2].min() < 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = inverse_grid_map(mu, bar, lam=20.0)
            plan = sinkhorn_plan(bar, mu, lam=20.0)
        assert np.all(np.isfinite(plan.plan))
        np.testing.assert_array_equal(a.target_index, plan.plan.argmax(axis=1))
        # the map pushes the barycenter onto the input: its mean lands within
        # one cell of the Gaussian's mean
        mapped_mean = a.source_weights @ a.mapped_locations()
        assert np.abs(mapped_mean - pairs[75][0].mean).max() < 1.0 / 50
