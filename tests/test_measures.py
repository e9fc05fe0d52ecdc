import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgp import measures
from otgp.errors import (
    MAGNITUDE_RULE,
    EmptySupport,
    GridMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    ValidationError,
)
from otgp.measures import (
    DiskConfig,
    EmpiricalSample,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    gaussian_measures,
    rasterize_gaussian,
    sample_gaussian_population,
    sample_regression_gaussians,
    validate_spd,
)
from otgp.rng import make_rng

BOUND = re.escape(MAGNITUDE_RULE)  # the input rule's words, as a pattern
BIG = 2.0**256  # the largest magnitude the input rule keeps

DISK = DiskConfig(0.1, [[0.5, 0.5]])
GAUSSIAN = GaussianMeasure([0.5, 0.5], 0.01 * np.eye(2))


def matrix_of_kind(kind: str, d: int, rng) -> np.ndarray:
    """A d x d matrix that passes validate_spd ("spd", "tiny_asym") or fails
    one of its checks."""
    a = rng.normal(size=(d, d))
    spd = a @ a.T + 0.1 * np.eye(d)
    if kind == "spd":
        return spd
    if kind == "tiny_asym":
        return spd + 1e-15 * np.triu(np.ones((d, d)), 1)
    if kind == "indefinite":
        return spd - (np.linalg.eigvalsh(spd)[-1] + 1.0) * np.eye(d)
    if kind == "asym":
        return spd + (np.triu(np.ones((d, d)), 1) if d > 1 else 0.0)
    if kind == "zero":
        return np.zeros((d, d))
    bad = spd.copy()
    bad[rng.integers(d), rng.integers(d)] = np.nan if kind == "nan" else -np.inf
    return bad


def outcome(matrix):
    """validate_spd's exception class on one matrix, or its result."""
    try:
        return validate_spd(matrix)
    except ValidationError as exc:
        return type(exc)


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

    @pytest.mark.parametrize("shape", [(4, 2, 3), (3,), (0, 0), (2, 0, 0), (1, 2, 2, 2)])
    def test_neither_square_matrix_nor_stack_rejected(self, shape):
        with pytest.raises(ValidationError, match="expected a square matrix"):
            validate_spd(np.ones(shape))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_gram_constructions_accepted(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        out = validate_spd(a @ a.T + 0.1 * np.eye(d))
        assert np.linalg.eigvalsh(out)[0] > 0

    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.sampled_from(["spd", "spd", "tiny_asym", "indefinite", "asym",
                                     "zero", "nan", "inf"]), min_size=1, max_size=8),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_stack_checks_each_matrix_as_alone(self, d, kinds, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([matrix_of_kind(k, d, rng) for k in kinds])
        alone = [outcome(m) for m in stack]
        failing = [k for k, o in enumerate(alone) if isinstance(o, type)]
        if not failing:
            out = validate_spd(stack)
            assert out.view(np.uint64).tolist() == np.stack(alone).view(np.uint64).tolist()
            return
        with pytest.raises(ValidationError) as info:
            validate_spd(stack)
        assert type(info.value) is alone[failing[0]]
        assert info.value.item == failing[0]
        assert str(info.value).startswith(f"item {failing[0]}: ")

    def test_stack_error_names_the_first_failing_item(self):
        stack = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(NotPositiveDefinite, match=r"^item 1: minimum eigenvalue"):
            validate_spd(stack)

    def test_single_matrix_error_names_no_item(self):
        with pytest.raises(NotSymmetric) as info:
            validate_spd([[1.0, 0.5], [0.0, 1.0]])
        assert info.value.item is None
        assert str(info.value).startswith("relative asymmetry")

    def test_ragged_matrix_is_validation_error(self):
        with pytest.raises(ValidationError, match="not a numeric array"):
            validate_spd([[1.0, 0.0], [0.0]])

    @pytest.mark.parametrize("matrix,error", [
        ([[BIG, BIG / 10], [BIG / 10, BIG]], None),
        ([[-BIG, 0.0], [0.0, 1.0]], NotPositiveDefinite),
        ([[1.0, BIG], [0.0, 1.0]], NotSymmetric),
    ])
    def test_entries_at_the_bound(self, matrix, error):
        if error is None:
            np.testing.assert_array_equal(validate_spd(matrix), matrix)
        else:
            with pytest.raises(error):
                validate_spd(matrix)

    @pytest.mark.parametrize("matrix", [
        [[1e308, 1e307], [1e307, 1e308]],
        [[-1e308, 0.0], [0.0, 1.0]],  # M + M^T overflowed to -inf
        [[1.0, 1e308], [0.0, 1.0]],  # inf / inf asymmetry passed the check
    ])
    def test_entries_beyond_the_bound_are_refused(self, matrix):
        with pytest.raises(ValidationError, match=f"^matrix must be {BOUND}, got -?1e\\+308$"):
            validate_spd(matrix)
        with pytest.raises(ValidationError, match=f"^item 1: matrix must be {BOUND}, got "):
            validate_spd([np.eye(2), matrix])

    @pytest.mark.parametrize("exponents", [(-100, 100), (-150, 150)], ids=["plain", "scaled"])
    def test_symmetric_part_keeps_the_bits_of_the_unscaled_formulas(self, exponents):
        # beyond 2^400 in magnitude (about 1e120) one matrix scales the stack
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(200, 3, 3)) * 10.0 ** rng.uniform(*exponents, size=(200, 1, 1))
        asym, sym = measures.symmetric_part(stack)
        skew = stack - stack.swapaxes(1, 2)
        plain = np.sqrt(np.einsum("ijk,ijk->i", skew, skew)
                        / np.einsum("ijk,ijk->i", stack, stack))
        assert asym.tobytes() == plain.tobytes()
        assert sym.tobytes() == (0.5 * (stack + stack.swapaxes(1, 2))).tobytes()


class TestGaussianMeasures:
    def test_matches_one_at_a_time_construction(self):
        rng = np.random.default_rng(4)
        means = rng.normal(size=(6, 3))
        covs = np.stack([matrix_of_kind("tiny_asym", 3, rng) for _ in range(6)])
        for a, (mean, cov) in zip(gaussian_measures(means, covs), zip(means, covs)):
            b = GaussianMeasure(mean, cov)
            assert a.mean.tobytes() == b.mean.tobytes() and a.cov.tobytes() == b.cov.tobytes()
            assert not a.mean.flags.writeable and not a.cov.flags.writeable
            assert a.dim == 3

    def test_copies_the_means(self):
        means = np.zeros((2, 2))
        [a, _] = gaussian_measures(means, np.stack([np.eye(2), np.eye(2)]))
        means[0, 0] = 5.0
        assert a.mean[0] == 0.0

    def test_error_names_the_first_failing_item(self):
        covs = np.stack([np.eye(2), np.eye(2), -np.eye(2), np.eye(2)])
        means = np.zeros((4, 2))
        with pytest.raises(NotPositiveDefinite, match=r"^item 2: "):
            gaussian_measures(means, covs)
        means[1, 0] = np.nan
        with pytest.raises(ValidationError, match=f"^item 1: mean must be {BOUND}, got nan$"):
            gaussian_measures(means, covs)
        with pytest.raises(ValidationError, match=f"^mean must be {BOUND}, got nan$"):
            GaussianMeasure(means[1], covs[1])  # one measure: the same words, no item
        covs[1] = -np.eye(2)  # an item's covariance is checked before its mean
        with pytest.raises(NotPositiveDefinite, match=r"^item 1: "):
            gaussian_measures(means, covs)

    @pytest.mark.parametrize("means,covs", [
        (np.zeros((2, 3)), np.stack([np.eye(2)] * 2)),
        (np.zeros((3, 2)), np.stack([np.eye(2)] * 2)),
        (np.zeros((2, 2)), np.eye(2)),
        (np.zeros(2), np.eye(2)),
    ])
    def test_shapes_must_match(self, means, covs):
        with pytest.raises(ValidationError, match="do not match"):
            gaussian_measures(means, covs)


class TestTypes:
    def test_gaussian_requires_matching_mean(self):
        with pytest.raises(ValidationError):
            GaussianMeasure([0.0, 0.0, 0.0], np.eye(2))

    def test_gaussian_validates_cov(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_gaussian_refuses_a_covariance_stack(self):
        with pytest.raises(ValidationError):
            GaussianMeasure([0.0, 0.0], np.stack([np.eye(2), np.eye(2)]))

    def test_ragged_mean_is_validation_error(self):
        with pytest.raises(ValidationError, match="mean is not a numeric array"):
            GaussianMeasure([[0.0], [0.0, 1.0]], np.eye(2))

    @pytest.mark.parametrize("build,message", [
        (lambda: GaussianMeasure([10**400, 0.0], np.eye(2)), "mean"),
        (lambda: gaussian_measures([[10**400, 0.0]], [np.eye(2)]), "item 0: mean"),
        (lambda: GridDensity([[10**400, 0], [0, 0]]), "weights"),
    ], ids=["GaussianMeasure", "gaussian_measures", "GridDensity"])
    def test_integer_beyond_the_float_range_is_validation_error(self, build, message):
        with pytest.raises(ValidationError) as caught:
            build()
        assert str(caught.value) == f"{message} must be {MAGNITUDE_RULE}, got {10**400}"

    @pytest.mark.parametrize("weights,message", [
        (np.full((4, 4), 0.9 / 16), "weights sum to 0.9, not 1"),
        (np.array([[-0.25, 0.5], [0.5, 0.25]]), "weights must be nonnegative"),
        (np.full((2, 3), 1.0 / 6), r"weights must be square, got shape \(2, 3\)"),
        (np.full(4, 0.25), r"weights must be square, got shape \(4,\)"),
        (np.array([[0.5, np.nan], [0.25, 0.25]]), f"weights must be {BOUND}, got nan"),
        (np.array([[np.inf, 0.0], [0.0, 0.0]]), f"weights must be {BOUND}, got inf"),
    ], ids=["sum", "negative", "not-square", "flat", "nan", "inf"])
    def test_grid_weights_refused(self, weights, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            GridDensity(weights)

    def test_grid_cell_centers(self):
        g = GridDensity(np.full((2, 2), 0.25))
        np.testing.assert_allclose(
            g.cell_centers(),
            [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])

    def test_grid_support_is_the_positive_cells(self):
        rng = np.random.default_rng(6)
        for g in (1, 3, 7, 50):
            w = rng.uniform(size=(g, g)) * (rng.uniform(size=(g, g)) < 0.3)
            w[0, -1] += 1.0  # one off-diagonal cell always holds mass
            d = GridDensity(w / w.sum())
            idx, weights = d.support()
            assert np.array_equal(idx, np.flatnonzero(d.weights.ravel() > 0.0))
            assert np.array_equal(weights, d.weights.ravel()[idx])

    def test_common_grid_size_names_the_first_density_off_the_first_grid(self):
        a, b = (GridDensity(np.full((g, g), 1.0 / g**2)) for g in (3, 5))
        assert measures.common_grid_size([a, a]) == 3
        for stack, message in (([a, b, a, b], "item 1: grid of size 5 unlike item 0's 3"),
                               ([b, b, a], "item 2: grid of size 3 unlike item 0's 5")):
            with pytest.raises(GridMismatch, match=f"^{message}$"):
                measures.common_grid_size(stack)

    def test_empirical_needs_finite_rows(self):
        with pytest.raises(ValidationError):
            EmpiricalSample([[0.0, np.inf]])

    def test_disk_config_bounds(self):
        with pytest.raises(ValidationError):
            DiskConfig(0.1, [[1.5, 0.5]])
        for radius in (-0.1, 0):
            with pytest.raises(ValidationError,
                               match=f"^radius must be finite and positive, got {radius}$"):
                DiskConfig(radius, [[0.5, 0.5]])
        for radius in (np.nan, np.inf, 1e308):
            with pytest.raises(ValidationError) as caught:
                DiskConfig(radius, [[0.5, 0.5]])
            assert str(caught.value) == f"radius must be {MAGNITUDE_RULE}, got {radius}"
        for center in ([np.nan, 0.5], [0.5, np.nan]):  # the input rule comes first
            with pytest.raises(ValidationError, match=f"^centers must be {BOUND}, got nan$"):
                DiskConfig(0.1, [[0.3, 0.5], center])
        with pytest.raises(ValidationError, match=r"^centers must lie in \[0,1\]\^2$"):
            DiskConfig(0.1, [[0.3, 0.5], [0.5, BIG]])
        for centers, shape in (([[0.5, 0.5, 0.5]], "(1, 3)"), ([0.5], "(1, 1)")):
            message = re.escape(f"centers must be (m, 2), got {shape}")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                DiskConfig(0.1, centers)


class TestDisksToGrid:
    def test_full_coverage_is_uniform(self):
        cfg = DiskConfig(radius=2.0, centers=[[0.5, 0.5]])
        grid = disks_to_grid(cfg, 5)
        np.testing.assert_allclose(grid.weights, np.full((5, 5), 1.0 / 25))

    def test_radius_at_the_bound_is_uniform(self):
        # a radius of 1e308, whose square overflowed, is beyond the bound
        grid = disks_to_grid(DiskConfig(radius=BIG, centers=[[0.2, 0.9]]), 7)
        np.testing.assert_array_equal(grid.weights, np.full((7, 7), 1.0 / 49))

    # both rasterizers keep one grid-size rule, with one wording and no
    # RuntimeWarning on the way
    @pytest.mark.parametrize("rasterize,args,message", [
        (disks_to_grid, (DISK, 10.5, 4), "grid_size must be an integer, got 10.5"),
        (disks_to_grid, (DISK, 12, 2.0), "subsamples must be an integer, got 2.0"),
        (disks_to_grid, (DISK, 12, 0), "subsamples must be >= 1, got 0"),
        (disks_to_grid, (DISK, 12, True), "subsamples must be an integer, got True"),
        *[(rasterize, (measure, grid_size), message)
          for rasterize, measure in ((disks_to_grid, DISK), (rasterize_gaussian, GAUSSIAN))
          for grid_size, message in ((0, "grid_size must be >= 2, got 0"),
                                     (-3, "grid_size must be >= 2, got -3"),
                                     (1, "grid_size must be >= 2, got 1"),
                                     (2.5, "grid_size must be an integer, got 2.5"))],
        (rasterize_gaussian, (GaussianMeasure(np.zeros(3), np.eye(3)), 12),
         r"grid rasterization is defined on R\^2 only"),
    ], ids=["fractional-grid-size", "float-subsamples", "zero-subsamples",
            "bool-subsamples",
            *[f"{kind}-grid-size-{g}" for kind in ("disks", "gaussian") for g in (0, -3, 1, 2.5)],
            "gaussian-3d"])
    def test_refuses_bad_sizes(self, rasterize, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{message}$"):
                rasterize(*args)

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

    def test_matches_per_disk_loop(self):
        # reference: the per-disk window loop the rasterizer replaced, same
        # window bounds and distance arithmetic; bits and errors must agree
        def per_disk(cfg, g, s=4):
            r = cfg.radius
            ticks = (np.arange(g * s) + 0.5) / (g * s)
            hit = np.zeros((g * s, g * s), dtype=bool)
            for cx, cy in cfg.centers:
                y, x = (slice(int(max(np.floor((c - r) * g * s - 0.5) - 1, 0)),
                              int(min(np.ceil((c + r) * g * s - 0.5) + 2, g * s)))
                        for c in (cy, cx))
                d2 = ((ticks[y] - cy) ** 2)[:, None] + ((ticks[x] - cx) ** 2)[None, :]
                hit[y, x] |= d2 <= r**2
            counts = hit.reshape(g, s, g, s).sum(axis=(1, 3)).astype(float)
            return counts / counts.sum() if counts.sum() else None

        rng = np.random.default_rng(5)
        cases = [(DiskConfig(float(10 ** rng.uniform(-3, np.log10(0.6))),
                             rng.uniform(0, 1, (int(rng.integers(1, 15)), 2))),
                  int(rng.integers(2, 60)), int(rng.integers(1, 6))) for _ in range(200)]
        cases += [
            # border and corner centers
            (DiskConfig(0.07, [[0.0, 0.3], [1.0, 0.6], [0.4, 0.0], [0.0, 1.0]]), 50, 4),
            # radius 0.5 (one window spans the square) and beyond it
            (DiskConfig(0.5, [[0.5, 0.5], [0.1, 0.9]]), 50, 4),
            (DiskConfig(0.5, [[1.0, 1.0]]), 7, 3),
            (DiskConfig(2.0, [[0.2, 0.7]]), 5, 4),
            # tiny radii: a few probes, or none
            (DiskConfig(1e-3, [[0.3, 0.3], [0.70125, 0.5]]), 200, 4),
            (DiskConfig(1e-9, [[0.5004, 0.5004]]), 2, 4),
            # overlaps: repeated and nearly coincident centers
            (DiskConfig(0.1, [[0.5, 0.5], [0.5, 0.5], [0.52, 0.49], [0.5, 0.5]]), 25, 4),
            (DiskConfig(0.05, rng.uniform(0.4, 0.6, (40, 2))), 50, 4),
        ]
        for cfg, g, s in cases:
            expected = per_disk(cfg, g, s)
            if expected is None:
                with pytest.raises(EmptySupport):
                    disks_to_grid(cfg, g, s)
            else:
                assert np.array_equal(disks_to_grid(cfg, g, s).weights, expected)

    def test_chunked_windows_match_one_stack(self, monkeypatch):
        # PROBE_CHUNK bounds the windows tested at once; any chunking gives
        # the same bits
        rng = np.random.default_rng(6)
        cfg = DiskConfig(0.08, rng.uniform(0, 1, (25, 2)))
        whole = disks_to_grid(cfg, 30).weights
        for chunk in (1, 3000):
            monkeypatch.setattr(measures, "PROBE_CHUNK", chunk)
            assert np.array_equal(disks_to_grid(cfg, 30).weights, whole)

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

    @pytest.mark.parametrize("sample,message", [
        (lambda: sample_gaussian_population(0, 2, seed=0), "n must be >= 1, got 0"),
        (lambda: sample_gaussian_population(3, 0, seed=0), "d must be >= 1, got 0"),
        (lambda: sample_regression_gaussians(0, seed=0), "n must be >= 1, got 0"),
        (lambda: sample_gaussian_population(2.5, 2, seed=0), "n must be an integer, got 2.5"),
        (lambda: sample_gaussian_population(3, 2.0, seed=0), "d must be an integer, got 2.0"),
        (lambda: sample_gaussian_population(True, 2, seed=0), "n must be an integer, got True"),
        (lambda: sample_regression_gaussians(2.5, seed=0), "n must be an integer, got 2.5"),
        (lambda: sample_regression_gaussians(False, seed=0), "n must be an integer, got False"),
    ], ids=["population-n", "population-d", "regression-n", "population-n-fractional",
            "population-d-float", "population-n-bool", "regression-n-fractional",
            "regression-n-bool"])
    def test_generators_refuse_empty_counts(self, sample, message):
        # a count must also be an integer: 2.5, 2.0 and booleans are refused
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample()

    def test_generators_take_numpy_integer_counts(self):
        [a], [b] = (sample_gaussian_population(n, d, seed=4)
                    for n, d in ((1, 3), (np.int64(1), np.int32(3))))
        assert a.cov.tobytes() == b.cov.tobytes()
        assert (sample_regression_gaussians(np.int64(5), seed=4)[4][1]
                == sample_regression_gaussians(5, seed=4)[4][1])

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

    def test_population_matches_one_at_a_time_construction(self):
        from otgp.measures import gaussian_cov_stack

        covs = gaussian_cov_stack(5, 3, make_rng(8))
        for m, c in zip(sample_gaussian_population(5, 3, seed=8), covs):
            assert m.cov.tobytes() == GaussianMeasure(np.zeros(3), c).cov.tobytes()

    def test_regression_covariances_are_the_scalar_square(self):
        # the draws the sampler has always made: s**2 * I per scalar sigma
        # (an array square differs in the last bit on about 0.1% of them)
        rng = make_rng(13)
        means = rng.uniform(0.2, 0.8, size=(5000, 2))
        sigmas = rng.uniform(1e-4, 4e-4, size=5000)
        pairs = sample_regression_gaussians(5000, seed=13)
        assert np.stack([m.cov for m, _ in pairs]).tobytes() == \
            np.stack([s**2 * np.eye(2) for s in sigmas]).tobytes()
        assert np.stack([m.mean for m, _ in pairs]).tobytes() == means.tobytes()

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

    def test_matches_the_norm_cdf_formula(self):
        # reference: cell masses from scipy.stats.norm.cdf, bit for bit;
        # means run past the grid edges so mass is cut off there
        from scipy.stats import norm

        rng = np.random.default_rng(19)
        g = 25
        edges = np.arange(g + 1) / g
        for _ in range(200):
            mean = rng.uniform(-0.2, 1.2, size=2)
            var = 10.0 ** rng.uniform(-5, 0, size=2)
            m = GaussianMeasure(mean, np.diag(var))
            sx, sy = np.sqrt(var)
            px = np.diff(norm.cdf(edges, loc=mean[0], scale=sx))
            py = np.diff(norm.cdf(edges, loc=mean[1], scale=sy))
            w = np.outer(py, px)
            if w.sum() <= 0:
                continue
            np.testing.assert_array_equal(rasterize_gaussian(m, g).weights, w / w.sum())

    @pytest.mark.parametrize("variance", [0.01, 1e-300])
    def test_mean_far_off_the_grid_leaves_no_mass(self, variance):
        # a mean at the bound stays finite sd away; 1e308 once overflowed to -inf
        with pytest.raises(EmptySupport, match="no Gaussian mass falls on the grid"):
            rasterize_gaussian(GaussianMeasure([BIG, 0.5], variance * np.eye(2)), 8)

    def test_correlated_covariance_is_rejected(self):
        # correlation 0.9 cannot factor into per-axis cell masses
        s = 0.01
        m = GaussianMeasure([0.5, 0.5], s * np.array([[1.0, 0.9], [0.9, 1.0]]))
        with pytest.raises(ValidationError):
            rasterize_gaussian(m, 20)
