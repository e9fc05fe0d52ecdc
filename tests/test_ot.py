import itertools
import re
import warnings

import numpy as np
import pytest

from otgp import ot
from otgp.errors import (
    MAGNITUDE_RULE,
    DimensionMismatch,
    EmptyRow,
    NoConvergence,
    NotPositiveDefinite,
    NumericalUnderflow,
    OtgpError,
    SizeMismatch,
    ValidationError,
)
from otgp.barycenter import grid_barycenter
from otgp.kernels import embed_grids
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
    MAP_TOL,
    CouplingPlan,
    TransportAssignment,
    _axis_log_kernel,
    _grid_sinkhorn,
    _GridScalings,
    _log_apply,
    _log_sinkhorn,
    _relax,
    assignment_ot,
    gaussian_transport_map,
    gaussian_w2,
    inverse_grid_map,
    map_l2_distance_gaussian,
    sinkhorn_plan,
    sqrtm_spd,
)


@pytest.fixture(scope="module")
def seed13_bregman():
    """Regression dataset seed 13 rasterized at G=50, and the report of the
    entropic barycenter of its first 50 inputs."""
    pairs = sample_regression_gaussians(100, 13)
    grids = [rasterize_gaussian(m, 50) for m, _ in pairs]
    return pairs, grids, grid_barycenter(grids[:50], lam=20.0)


@pytest.fixture(scope="module")
def seed13_regression(seed13_bregman):
    """As seed13_bregman, with the barycenter itself."""
    pairs, grids, report = seed13_bregman
    return pairs, grids, report.result


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.2 * np.eye(d))


class TestSqrtm:
    def test_identity(self):
        root, inv_root = sqrtm_spd(np.eye(3))
        np.testing.assert_allclose(root, np.eye(3))
        np.testing.assert_allclose(inv_root, np.eye(3))

    def test_diagonal(self):
        root, _ = sqrtm_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]))

    def test_two_by_two(self):
        # eigenvalues 3 and 1: sqrt has entries (sqrt3 +- 1)/2
        root, _ = sqrtm_spd([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            root, [[1.3660254, 0.3660254], [0.3660254, 1.3660254]], atol=1e-7)
        np.testing.assert_allclose(root @ root,
                                   [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_reconstruction_invariants(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            s = random_spd(rng, d)
            root, inv_root = sqrtm_spd(s)
            rel = np.linalg.norm(root @ root - s) / np.linalg.norm(s)
            assert rel < 1e-10
            assert np.linalg.norm(root @ inv_root - np.eye(d)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sqrtm_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_a_stack(self):
        # validate_spd accepts (n, d, d) stacks; the root is of one matrix
        with pytest.raises(ValidationError, match="one matrix"):
            sqrtm_spd(np.stack([np.eye(2), np.eye(2)]))


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
        np.testing.assert_allclose(fwd, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv, np.eye(2), atol=1e-12)

    def test_scalar_ratio(self):
        fwd, inv = gaussian_transport_map([[4.0]], [[9.0]])
        assert fwd[0, 0] == pytest.approx(1.5)
        assert inv[0, 0] == pytest.approx(2.0 / 3.0)

    def test_commuting_diagonal(self):
        fwd, _ = gaussian_transport_map(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
        np.testing.assert_allclose(fwd, np.diag([0.5, 2.0]), atol=1e-12)

    def test_push_forward_property(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            s, sbar = random_spd(rng, d), random_spd(rng, d)
            t, inv = gaussian_transport_map(s, sbar)
            rel = np.linalg.norm(t @ s @ t - sbar) / np.linalg.norm(sbar)
            assert rel < 1e-8
            np.testing.assert_allclose(t @ inv, np.eye(d), atol=1e-8)
            # the map matrix is SPD
            assert np.linalg.eigvalsh(t)[0] > 0

    @pytest.mark.parametrize("scales", itertools.product([1e-300, 1.0, 2.0**256], repeat=4))
    def test_maps_at_the_bound_are_finite(self, scales):
        # no check on the map is needed: the input bound keeps it finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maps = gaussian_transport_map(np.diag(scales[:2]), np.diag(scales[2:]))
        assert np.isfinite(maps).all()

    def test_displacement_norm_matches_w2(self):
        # ||id - T||^2 under the source equals the squared centered W2
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            s, sbar = random_spd(rng, d), random_spd(rng, d)
            sh = sqrtm_spd(s)[0]
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
            diff = x @ (inv_i - inv_j).T
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


# Dense reference oracles: Sinkhorn scaling on an explicit (support x
# support) cost matrix for the separable grid solver, the argmax of an
# explicit plan, and (dense_projection) the barycentric projection of one.


def _scaling(marginal: np.ndarray, kernel_product: np.ndarray) -> np.ndarray:
    """marginal / kernel_product, or NumericalUnderflow when a kernel row
    has underflowed so far that the quotient is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaling = marginal / kernel_product
    if not np.all(np.isfinite(scaling)):
        raise NumericalUnderflow(
            "kernel row underflowed; lambda too large for the cost scale")
    return scaling


def sinkhorn_core(wa: np.ndarray, wb: np.ndarray, cost: np.ndarray,
                  lam: float, max_iter: int, tol: float) -> np.ndarray:
    """Entropic scaling iterations for strictly positive marginals.

    Runs plain scaling on K = exp(-lam * cost), absorbing the scalings into
    log-domain potentials whenever an entry threatens to underflow.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    logk = -lam * cost
    k = np.exp(logk)
    f = np.zeros(len(wa))
    g = np.zeros(len(wb))
    u = np.ones(len(wa))
    v = np.ones(len(wb))
    for _ in range(max_iter):
        u = _scaling(wa, k @ v)
        v = _scaling(wb, k.T @ u)
        small = min(u.min(), v.min())
        big = max(u.max(), v.max())
        if small > 0 and (small < 1e-250 or big > 1e250):
            # absorb scalings into the potentials and rebuild the kernel
            with np.errstate(divide="ignore"):
                f = f + np.log(u)
                g = g + np.log(v)
            if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                raise NumericalUnderflow(
                    "scaling vector collapsed; lambda too large for the cost scale")
            k = np.exp(logk + f[:, None] + g[None, :])
            u = np.ones(len(wa))
            v = np.ones(len(wb))
        # columns are exact after the v-update; the row marginal is the
        # stale one and measures convergence
        row_err = np.abs(u * (k @ v) - wa).max()
        if row_err <= tol:
            plan = (u[:, None] * k) * v[None, :]
            return plan
    raise NoConvergence(f"marginal error above {tol} after {max_iter} iterations")


def round_plan_to_map(plan: CouplingPlan,
                      source_locations: np.ndarray | None = None,
                      target_locations: np.ndarray | None = None
                      ) -> TransportAssignment:
    """Deterministic rounding: each source goes to its argmax target in the
    plan; ties break to the lowest target index."""
    p = plan.plan
    if np.any(p.sum(axis=1) <= 0.0):
        raise EmptyRow("a retained source row carries no mass")
    idx = p.argmax(axis=1)
    m, k = p.shape
    if source_locations is None:
        source_locations = np.zeros((m, 0))
    if target_locations is None:
        target_locations = np.zeros((k, 0))
    weights = plan.source_weights / plan.source_weights.sum()
    return TransportAssignment(
        target_index=idx,
        source_weights=weights,
        source_locations=np.asarray(source_locations, dtype=float),
        target_locations=np.asarray(target_locations, dtype=float),
    )


def dense_projection(scalings, a: GridDensity, b: GridDensity) -> np.ndarray:
    """Barycentric projection P @ loc_b / P.sum(1) of the dense plan P
    between the supports of a and b built from the same scalings."""
    (src, _), (tgt, _) = a.support(), b.support()
    p = scalings.plan(src, tgt)
    return p @ b.cell_centers()[tgt] / p.sum(axis=1)[:, None]


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
        locs = d.cell_centers()[d.support()[0]]
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
        a, b = GridDensity(wa), GridDensity(wb)
        (ia, pa), (ib, pb) = a.support(), b.support()
        loc_a, loc_b = a.cell_centers()[ia], b.cell_centers()[ib]
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
        # the plan of a density onto itself is diagonally dominant, so every
        # cell's projection stays nearest its own cell center
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.0, size=(4, 4))
        d = GridDensity(w / w.sum())
        mapped = inverse_grid_map(d, d, lam=40.0)
        locs = d.cell_centers()[d.support()[0]]
        nearest = ((mapped[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        assert nearest.tolist() == list(range(16))

    def test_single_target_cell(self):
        bar = GridDensity(np.full((3, 3), 1.0 / 9))
        mu = two_cell_density(3, [(1, 1)], [1.0])
        mapped = inverse_grid_map(mu, bar, lam=20.0)
        np.testing.assert_allclose(mapped, np.repeat([[0.5, 0.5]], 9, axis=0), rtol=1e-15)

    def test_two_cell_shift_monotone(self):
        # 1-D strip: unregularized OT is monotone; enumerate the 2x2
        # transport polytope to confirm, then check that the projected map
        # keeps the order and stays between the input's cells
        bar = two_cell_density(8, [(0, 1), (0, 2)], [0.5, 0.5])
        mu = two_cell_density(8, [(0, 3), (0, 4)], [0.5, 0.5])
        bar_locs = bar.cell_centers()[bar.support()[0]]
        mu_locs = mu.cell_centers()[mu.support()[0]]
        best, best_cost = None, np.inf
        for t in np.linspace(0.0, 0.5, 51):
            plan = np.array([[t, 0.5 - t], [0.5 - t, t]])
            cost = sum(plan[i, j] * ((bar_locs[i] - mu_locs[j]) ** 2).sum()
                       for i in range(2) for j in range(2))
            if cost < best_cost:
                best, best_cost = plan, cost
        assert best[0, 0] > best[0, 1]  # monotone: first to first
        mapped = inverse_grid_map(mu, bar, lam=20.0)
        assert mu_locs[0, 0] < mapped[0, 0] < mapped[1, 0] < mu_locs[1, 0]
        np.testing.assert_array_equal(mapped[:, 1], mu_locs[:, 1])


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
            (src, pa), (tgt, pb) = a.support(), b.support()
            loc_a, loc_b = a.cell_centers()[src], b.cell_centers()[tgt]
            cost = ((loc_a[:, None, :] - loc_b[None, :, :]) ** 2).sum(axis=2) / 2.0
            dense = sinkhorn_core(pa, pb, cost, lam=20.0, max_iter=10000, tol=1e-12)
            plan = sinkhorn_plan(a, b, lam=20.0, tol=1e-12).plan
            np.testing.assert_allclose(plan, dense, rtol=0, atol=1e-12)
            np.testing.assert_allclose(inverse_grid_map(b, a, lam=20.0, tol=1e-12),
                                       dense @ loc_b / dense.sum(axis=1)[:, None], rtol=1e-10)

            logk = _axis_log_kernel(ga, gb, 20.0)
            start = np.where(b.weights > 0, 0.0, -np.inf)
            logged = _log_sinkhorn(a.weights, b.weights, logk, start, 10000, 1e-12)
            assert logged.log_domain
            log_plan = logged.plan(src, tgt)
            np.testing.assert_allclose(log_plan, dense, rtol=0, atol=1e-12)

    def test_large_lambda_assignment_is_pinned(self):
        # the map of grids[0] at lambda 800 and 2000 is pinned to the dense
        # projection of the same scalings
        rng = np.random.default_rng(4)
        grids = [disks_to_grid(DiskConfig(0.1, rng.uniform(0.1, 0.9, (3, 2))), 20)
                 for _ in range(6)]
        bar = grid_barycenter(grids, lam=20.0).result
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for lam, log_domain in ((800.0, False), (2000.0, True)):
                # lambda=2000 runs through the log-domain updates
                scalings = next(_grid_sinkhorn(bar, [grids[0]], lam, 10000, MAP_TOL))
                assert scalings.log_domain == log_domain
                np.testing.assert_allclose(inverse_grid_map(grids[0], bar, lam=lam),
                                           dense_projection(scalings, bar, grids[0]), rtol=1e-12)

    def test_subnormal_cell_mass_embeds(self, seed13_regression):
        # input 75 of regression dataset seed 13 rasterizes to a cell mass of
        # 5.7e-322 at G=50; its scalings collapse and the dense solver
        # failed with NumericalUnderflow
        pairs, grids, bar = seed13_regression
        mu = grids[75]
        assert 0.0 < mu.support()[1].min() < 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scalings = next(_grid_sinkhorn(bar, [mu], 20.0, 10000, MAP_TOL))
            mapped = inverse_grid_map(mu, bar, lam=20.0)
            plan = sinkhorn_plan(bar, mu, lam=20.0)
        assert scalings.log_domain
        assert np.all(np.isfinite(plan.plan))
        np.testing.assert_allclose(mapped, dense_projection(scalings, bar, mu), rtol=1e-12)
        # the map pushes the barycenter onto the input: its mean lands within
        # one cell of the Gaussian's mean
        _, w = bar.support()
        mapped_mean = w / w.sum() @ mapped
        assert np.abs(mapped_mean - pairs[75][0].mean).max() < 1.0 / 50

    @staticmethod
    def mixed_inputs(seed13_regression):
        # 12 inputs in three batches: scaling-domain inputs, the log-domain
        # input 75 and its duplicate, and one input on a coarser grid that
        # splits the run of G=50 inputs
        pairs, grids, _ = seed13_regression
        coarse = rasterize_gaussian(pairs[60][0], 40)
        return grids[50:55] + [grids[75], coarse, grids[75]] + grids[55:59]

    def test_batch_matches_per_input_maps(self, seed13_regression):
        _, _, bar = seed13_regression
        inputs = self.mixed_inputs(seed13_regression)
        assert next(_grid_sinkhorn(bar, [inputs[5]], 20.0, 10000, MAP_TOL)).log_domain
        assert not next(_grid_sinkhorn(bar, [inputs[0]], 20.0, 10000, MAP_TOL)).log_domain
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batched = embed_grids(inputs, bar, lam=20.0)
            maps = [inverse_grid_map(mu, bar, lam=20.0) for mu in inputs]
        _, w = bar.support()
        rows = np.array([(np.sqrt(w / w.sum())[:, None] * mapped).ravel() for mapped in maps])
        np.testing.assert_allclose(batched.X, rows, rtol=0, atol=1e-15)
        np.testing.assert_allclose(batched.X[5], batched.X[7], rtol=0, atol=1e-15)

    def test_batch_gives_each_input_its_solo_scalings(self, seed13_regression):
        # inputs that leave a batch at different iterations must not disturb
        # the others: case one alternates warm and cold starts (a cold input
        # needs more than 8 iterations, a warm one fewer), so each input is a
        # run of its own; case two is a warm batch of 8 and a cold one of 4;
        # case three holds a log-domain hand-over and a grid-size split
        grids, report = small_disks()
        starts = [start if i % 2 else None for i, start in enumerate(report.input_scalings)]
        starts += [None] * 4
        for mu, start in zip(grids[:2], starts[:2]):
            if start is None:
                with pytest.raises(NoConvergence):
                    next(_grid_sinkhorn(report.result, [mu], 20.0, 8, MAP_TOL, [start]))
            else:
                next(_grid_sinkhorn(report.result, [mu], 20.0, 8, MAP_TOL, [start]))
        _, _, bar = seed13_regression
        inputs = self.mixed_inputs(seed13_regression)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bar, inputs, starts in ((report.result, grids, starts),
                                        (report.result, grids, [*report.input_scalings,
                                                                *[None] * 4]),
                                        (bar, inputs, [None] * len(inputs))):
                batched = list(_grid_sinkhorn(bar, inputs, 20.0, 10000, MAP_TOL, starts))
                for mu, start, scalings in zip(inputs, starts, batched):
                    solo = next(_grid_sinkhorn(bar, [mu], 20.0, 10000, MAP_TOL, [start]))
                    assert scalings.log_domain == solo.log_domain
                    np.testing.assert_allclose(scalings.u, solo.u, rtol=1e-13, atol=0)
                    np.testing.assert_allclose(scalings.v, solo.v, rtol=1e-13, atol=0)
        assert any(s.log_domain for s in batched) and not all(s.log_domain for s in batched)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_batch_raises_the_first_per_input_error(self, seed13_regression, max_iter):
        # these inputs converge in 1-3 iterations: at max_iter=2 the first
        # two converge and the third fails first
        _, _, bar = seed13_regression
        inputs = self.mixed_inputs(seed13_regression)
        with pytest.raises(OtgpError) as per_input:
            for mu in inputs:
                inverse_grid_map(mu, bar, lam=20.0, max_iter=max_iter)
        assert per_input.type is NoConvergence
        with pytest.raises(OtgpError) as batched:
            embed_grids(inputs, bar, lam=20.0, max_iter=max_iter)
        assert batched.type is per_input.type
        assert str(batched.value) == str(per_input.value)


    def test_batch_raises_the_first_inputs_error_not_the_earliest(self):
        # at lambda=2000 and 200 iterations grids[1] runs out of iterations
        # in the scaling domain, while grids[2] and grids[0] move to the log
        # domain and fail there: grids[2] first, grids[0] last. The batch
        # must raise grids[1]'s error, as the maps one by one do.
        rng = np.random.default_rng(4)
        grids = [disks_to_grid(DiskConfig(0.1, rng.uniform(0.1, 0.9, (3, 2))), 20)
                 for _ in range(6)]
        bar = grid_barycenter(grids, lam=20.0).result
        inputs = [grids[1], grids[2], grids[0]]
        messages = []
        for mu in inputs:
            with pytest.raises(NoConvergence) as single:
                inverse_grid_map(mu, bar, lam=2000.0, max_iter=200)
            messages.append(str(single.value))
        assert len(set(messages)) == 3
        with pytest.raises(NoConvergence) as batched:
            embed_grids(inputs, bar, lam=2000.0, max_iter=200)
        assert str(batched.value) == messages[0]

def small_disks():
    """12 disk-union inputs at G=20 and the report of the entropic barycenter
    of the first 8."""
    rng = np.random.default_rng(8)
    grids = [disks_to_grid(DiskConfig(0.1, rng.uniform(0.1, 0.9, (3, 2))), 20)
             for _ in range(12)]
    return grids, grid_barycenter(grids[:8], lam=20.0)


class TestWarmStart:
    """The inverse maps of a barycenter's inputs start from the final
    input-side scalings of its Bregman iteration."""

    def test_warm_and_cold_rows_agree(self, seed13_bregman):
        # the projection is continuous in the scalings, so warm and cold
        # solves, stopped at MAP_TOL from different iterates, give rows up
        # to about 4e-7 apart on disk unions at G=50; both must lie near the
        # rows of a tol-1e-12 solve. Case one: 12 inputs in two batches, where input 75
        # (not a barycenter input) gets a constant start and still hands over
        # to the log domain. Case two: the disk unions of small_disks.
        _, grids, report = seed13_bregman
        inputs = grids[:5] + [grids[75]] + grids[5:11]
        starts = list(report.input_scalings[:11])
        starts = starts[:5] + [0.5 * (grids[75].weights > 0)] + starts[5:]
        assert next(_grid_sinkhorn(report.result, [grids[75]], 20.0, 10000, MAP_TOL,
                                   starts[5:6])).log_domain
        disks, disks_report = small_disks()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for inputs, bar, starts in ((inputs, report.result, starts),
                                        (disks, disks_report.result,
                                         disks_report.input_scalings)):
                tight = embed_grids(inputs, bar, lam=20.0, tol=1e-12).X
                for rows in (embed_grids(inputs, bar, lam=20.0).X,
                             embed_grids(inputs, bar, lam=20.0, starts=starts).X):
                    assert np.abs(rows - tight).max() <= 1e-5

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, 1e-300, 1e300])
    def test_unusable_start_falls_back_to_a_cold_start(self, value):
        grids, report = small_disks()
        bar, on = report.result, grids[0].weights > 0
        start = report.input_scalings[0].copy()
        start[np.unravel_index(np.flatnonzero(on)[3], on.shape)] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cold = next(_grid_sinkhorn(bar, grids[:1], 20.0, 10000, MAP_TOL))
            fallback = next(_grid_sinkhorn(bar, grids[:1], 20.0, 10000, MAP_TOL, [start]))
            rows = embed_grids(grids, bar, lam=20.0, starts=[start, *report.input_scalings[1:]]).X
        np.testing.assert_array_equal(fallback.u, cold.u)
        np.testing.assert_array_equal(fallback.v, cold.v)
        # the batch solves input 0 cold and keeps the others' warm starts
        np.testing.assert_allclose(rows[0], embed_grids(grids, bar, lam=20.0).X[0],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            rows[1:], embed_grids(grids, bar, lam=20.0, starts=report.input_scalings).X[1:],
            rtol=0, atol=1e-15)

    def test_start_is_read_on_the_support_only(self):
        grids, report = small_disks()
        bar, on = report.result, grids[0].weights > 0
        start = report.input_scalings[0].copy()
        start[~on] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            clean = next(_grid_sinkhorn(bar, grids[:1], 20.0, 10000, MAP_TOL,
                                        report.input_scalings[:1]))
            masked = next(_grid_sinkhorn(bar, grids[:1], 20.0, 10000, MAP_TOL, [start]))
            cold = next(_grid_sinkhorn(bar, grids[:1], 20.0, 10000, MAP_TOL))
        np.testing.assert_array_equal(masked.v, clean.v)
        assert not np.array_equal(masked.v, cold.v)

    def test_misaligned_starts_raise(self):
        # starts may cover only the first densities, not more than all of
        # them, and each must have its density's shape
        grids, report = small_disks()
        too_many = [*report.input_scalings, *[None] * 5]
        wrong_shape = [report.input_scalings[0][:-1], *report.input_scalings[1:]]
        for starts in (too_many, wrong_shape):
            with pytest.raises(ValidationError):
                embed_grids(grids, report.result, lam=20.0, starts=starts)
        np.testing.assert_array_equal(embed_grids(grids, report.result, lam=20.0, starts=[]).X,
                                      embed_grids(grids, report.result, lam=20.0).X)

    @pytest.mark.parametrize("kinds,batches", [
        ("wwwwwwww", [(8, True), (4, False)]),
        ("wwwwwwwwwwww", [(8, True), (4, True)]),
        ("", [(8, False), (4, False)]),
        ("wwwxwwww", [(3, True), (1, False), (4, True), (4, False)]),
        ("wcwcwcwcwcwc", [(1, kind == "w") for kind in "wcwcwcwcwcwc"]),
    ], ids=["barycenter-inputs", "all-warm", "all-cold", "unusable-start", "alternating"])
    def test_batches_are_all_warm_or_all_cold(self, monkeypatch, kinds, batches):
        # one kind per input, for a prefix of the 12 inputs: w a warm start
        # (the barycenter's scaling, or ones on the support past its 8
        # inputs), c None, x a start that fails the screen; runs of each
        # kind are cut into stacks of at most BATCH
        grids, report = small_disks()
        scalings = [*report.input_scalings, *[(g.weights > 0) * 1.0 for g in grids[8:]]]
        starts = [None if kind == "c" else np.full_like(start, np.nan) if kind == "x"
                  else start for kind, start in zip(kinds, scalings)]
        seen, solve = [], ot._sinkhorn_batch

        def recording(a, bs, lam, max_iter, tol, stack):
            seen.append((len(bs), stack is not None))
            assert stack is None or stack.shape == (20, len(bs), 20)
            return solve(a, bs, lam, max_iter, tol, stack)

        monkeypatch.setattr(ot, "_sinkhorn_batch", recording)
        embed_grids(grids, report.result, lam=20.0, starts=starts)
        assert seen == batches

    def test_warm_training_batch_needs_fewer_iterations(self):
        # at MAP_TOL the cold solve of these 8 inputs needs 12 iterations, the
        # warm one 3
        grids, report = small_disks()
        with pytest.raises(NoConvergence):
            embed_grids(grids[:8], report.result, lam=20.0, max_iter=8)
        warm = embed_grids(grids[:8], report.result, lam=20.0, max_iter=8,
                           starts=report.input_scalings)
        tight = embed_grids(grids[:8], report.result, lam=20.0, tol=1e-12)
        assert np.abs(warm.X - tight.X).max() <= 1e-5


def reference_row_and_column_passes(bar: GridDensity, mu: GridDensity, tol: float, n: int):
    """(iteration, rows within tol, columns within tol) for the first n
    iterations of one cold map solve, over-relaxed as the batched solve
    relaxes it: omega = 5/4 from the third iteration, plain where the
    previous scaling is zero."""
    a, b = bar.weights, mu.weights
    k = np.exp(_axis_log_kernel(bar.grid_size, mu.grid_size, 20.0))
    u, v, passes = None, (b > 0).astype(float), []
    for it in range(1, n + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = a / (k @ v @ k.T)
            u = r if it < 3 else np.where(u > 0, r * (r / np.where(u > 0, u, 1)) ** 0.25, r)
            ktu = k.T @ u @ k
            r = np.where(b > 0, b / ktu, 0.0)
            v = r if it < 3 else np.where(v > 0, r * (r / np.where(v > 0, v, 1)) ** 0.25, r)
        passes.append((it, np.abs(u * (k @ v @ k.T) - a).max() <= tol,
                       np.abs(v * ktu - b).max() <= tol))
    return passes


class TestOverRelaxation:
    """Cold map solves take the over-relaxed update (ot._relax) from the
    third iteration, warm ones the plain update."""

    def test_relax_keeps_zeros_and_falls_back_to_the_plain_update(self):
        # cells: relaxed; zero before and after; zero before (the plain
        # update); relaxed downwards; a ratio that overflows (the plain update)
        scaling = np.array([1.0, 0.0, 0.0, 4.0, 1e-300])
        update = np.array([16.0, 0.0, 3.0, 1.0, 1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _relax(scaling, update)
        np.testing.assert_array_equal(update, [32.0, 0.0, 3.0, np.sqrt(0.5), 1e10])

    def test_relaxed_map_stops_only_when_both_marginals_pass(self):
        # a relaxed target-side update leaves the column marginal inexact:
        # at iteration 11 this input's rows are within MAP_TOL and its
        # columns are not, so the solve goes on to iteration 12
        grids, report = small_disks()
        bar, mu = report.result, grids[0]
        passes = reference_row_and_column_passes(bar, mu, MAP_TOL, 12)
        assert passes[10:] == [(11, True, False), (12, True, True)]
        assert not any(rows and cols for _, rows, cols in passes[:10])
        with pytest.raises(NoConvergence):
            next(_grid_sinkhorn(bar, [mu], 20.0, 11, MAP_TOL))
        scalings = next(_grid_sinkhorn(bar, [mu], 20.0, 12, MAP_TOL))
        k = scalings.k
        assert np.abs(scalings.v * (k.T @ scalings.u @ k) - mu.weights).max() <= MAP_TOL
        assert np.abs(scalings.u * scalings.kv - bar.weights).max() <= MAP_TOL

    def test_cold_maps_of_a_grid_path_dataset_run_without_warnings(self):
        # regression seed 2 at G=50: inputs of one to four cells, so most
        # cells of each scaling are 0 before and after an update
        grids = [rasterize_gaussian(m, 50) for m, _ in sample_regression_gaussians(100, 2)]
        bar = grid_barycenter(grids[:50], lam=20.0).result
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = embed_grids(grids, bar, lam=20.0).X
        assert np.all(np.isfinite(rows))


class TestSeparableRounding:
    """_GridScalings.barycentric, the separable reduction of a plan to one
    location per barycenter cell, against P @ loc / P.sum(1), with P the
    dense plan built from the same scalings, in the scaling and the log
    domain. The tests keep the names they had when a plan was reduced to
    its argmax cell; the dense reference is now the plan's projection."""

    @pytest.mark.parametrize("ga, gb", [(5, 5), (6, 4), (7, 9)])
    def test_matches_dense_argmax_on_random_grids(self, ga, gb):
        # empty rows and columns on both grids, equal and unequal sizes
        rng = np.random.default_rng(ga * 10 + gb)
        wa = rng.uniform(0, 1, (ga, ga)) * (rng.uniform(size=(ga, ga)) < 0.7)
        wb = rng.uniform(0, 1, (gb, gb)) * (rng.uniform(size=(gb, gb)) < 0.6)
        wa[0, :] = wa[:, -1] = 0.0
        wb[1, :] = wb[:, 2] = 0.0
        a, b = GridDensity(wa / wa.sum()), GridDensity(wb / wb.sum())
        src = a.support()[0]
        scaled = next(_grid_sinkhorn(a, [b], 20.0, 10000, 1e-12))
        logged = _log_sinkhorn(a.weights, b.weights, _axis_log_kernel(ga, gb, 20.0),
                               np.where(b.weights > 0, 0.0, -np.inf), 10000, 1e-12)
        assert not scaled.log_domain and logged.log_domain
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for scalings in (scaled, logged):
                np.testing.assert_allclose(scalings.barycentric(src),
                                           dense_projection(scalings, a, b), rtol=1e-12)
            mapped = inverse_grid_map(b, a, lam=20.0, tol=1e-12)
        np.testing.assert_allclose(mapped, dense_projection(scaled, a, b), rtol=1e-12)

    def test_centroid_is_preserved(self):
        # sum_x w(x) T(x) = sum_y b(y) y once the marginals hold; the row
        # marginal error (<= tol per cell) bounds the gap, so solve tightly
        grids, report = small_disks()
        bar = report.result
        _, w = bar.support()
        for mu in grids:
            mapped = inverse_grid_map(mu, bar, lam=20.0, tol=1e-12)
            idx, b = mu.support()
            loc = mu.cell_centers()[idx]
            np.testing.assert_allclose(w / w.sum() @ mapped, b @ loc, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("log_domain", [False, True], ids=["scaling", "log"])
    def test_source_row_without_mass_raises(self, log_domain):
        # the plan row of source cell (0, 0) is zero: the only target cell
        # with mass lies beyond the kernel's range, whose factor underflows
        g = 3
        u, v = np.full((g, g), 0.5), np.zeros((g, g))
        v[2, 2] = 0.5
        k = np.exp(_axis_log_kernel(g, g, 1e5))
        assert k[0, 2] == 0.0
        with np.errstate(divide="ignore"):
            scalings = (_GridScalings(np.log(u), np.log(v), np.log(k), True, None) if log_domain
                        else _GridScalings(u, v, k, False, k @ v @ k.T))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EmptyRow):
                scalings.barycentric(np.arange(g * g))


class TestPenaltyValidation:
    """lam is validated once, where the axis kernel is built, so every grid
    entry point refuses a penalty that is not finite and positive."""

    @pytest.mark.parametrize("lam,rule", [(0.0, "finite and positive"),
                                          (-1.0, "finite and positive"),
                                          (np.nan, MAGNITUDE_RULE), (np.inf, MAGNITUDE_RULE),
                                          (1e300, MAGNITUDE_RULE)])
    @pytest.mark.parametrize("call", [
        lambda grids, lam: grid_barycenter(grids, lam=lam),
        lambda grids, lam: embed_grids(grids, grids[0], lam=lam),
        lambda grids, lam: sinkhorn_plan(grids[0], grids[1], lam=lam),
    ], ids=["grid_barycenter", "embed_grids", "sinkhorn_plan"])
    def test_bad_penalty_is_a_validation_error(self, call, lam, rule):
        rng = np.random.default_rng(8)
        grids = [disks_to_grid(DiskConfig(0.1, rng.uniform(0.1, 0.9, (3, 2))), 20)
                 for _ in range(6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=f"^lam must be {re.escape(rule)}, got "):
                call(grids, lam)


class TestStoppingValidation:
    """tol and max_iter are validated once, before the first Sinkhorn batch,
    so every map solver refuses them with the grid barycenter's messages
    instead of iterating to NoConvergence."""

    @pytest.mark.parametrize("stop,message", [
        ({"tol": np.nan}, f"tol must be {MAGNITUDE_RULE}, got nan"),
        ({"tol": -1.0}, "tol must be finite and >= 0, got -1.0"),
        ({"tol": np.inf}, f"tol must be {MAGNITUDE_RULE}, got inf"),
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": 300.0}, "max_iter must be an integer, got 300.0"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
    ], ids=["tol-nan", "tol-negative", "tol-inf", "max_iter-zero", "max_iter-fractional",
            "max_iter-float", "max_iter-bool"])
    @pytest.mark.parametrize("call", [
        lambda a, b, stop: grid_barycenter([a, b], **stop),
        lambda a, b, stop: sinkhorn_plan(a, b, **stop),
        lambda a, b, stop: inverse_grid_map(a, b, **stop),
        lambda a, b, stop: embed_grids([a, b], b, **stop),
    ], ids=["grid_barycenter", "sinkhorn_plan", "inverse_grid_map", "embed_grids"])
    def test_bad_stopping_rule_is_a_validation_error(self, call, stop, message):
        rng = np.random.default_rng(2)
        a, b = (GridDensity(w / w.sum()) for w in rng.uniform(0.1, 1.0, size=(2, 6, 6)))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(a, b, stop)


class TestLogApply:
    def test_input_without_finite_entry_gives_minus_inf_on_the_mask(self):
        g = 4
        mask = np.zeros((g, g), dtype=bool)
        mask[1, 2] = mask[3, 0] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = _log_apply(_axis_log_kernel(g, g, 20.0), np.full((g, g), -np.inf), mask)
        assert np.all(out[mask] == -np.inf)

    def test_matches_the_scaling_domain_product(self):
        rng = np.random.default_rng(3)
        g = 5
        x = rng.uniform(0.1, 1.0, size=(g, g))
        x[rng.uniform(size=(g, g)) < 0.3] = 0.0
        logk = _axis_log_kernel(g, g, 20.0)
        k = np.exp(logk)
        with np.errstate(divide="ignore"):
            out = _log_apply(logk, np.log(x), np.ones((g, g), dtype=bool))
        np.testing.assert_allclose(np.exp(out), k @ x @ k.T, rtol=1e-13)
