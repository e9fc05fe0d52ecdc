import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.stats import ortho_group

import otgp.kernels
from otgp.barycenter import gaussian_barycenter, gaussian_barycenter_measure, grid_barycenter
from otgp.errors import DimensionMismatch, NotSymmetric, ReferenceMismatch, ValidationError
from otgp.kernels import (
    NUMPY_COLUMNS,
    ROW_BLOCK,
    Embedding,
    KernelParams,
    cross_distances,
    cross_kernel,
    embed,
    embed_gaussians,
    embed_grids,
    gram_from_distances,
    gram_matrix,
    naive_w2_gram,
    pairwise_distances,
    psd_diagnostic,
)
from otgp.measures import (
    DiskConfig,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    gaussian_measures,
    rasterize_gaussian,
    sample_gaussian_population,
)
from otgp.ot import gaussian_w2, inverse_grid_map, map_l2_distance_gaussian


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.2 * np.eye(d))


def gaussian_features(rng, n, d, reference_cov=None, means=False):
    ref_cov = reference_cov if reference_cov is not None else random_spd(rng, d)
    reference = GaussianMeasure(np.zeros(d), ref_cov)
    ms = [GaussianMeasure(rng.normal(size=d) if means else np.zeros(d),
                          random_spd(rng, d)) for _ in range(n)]
    return embed_gaussians(ms, reference), reference


def distance(f, g):
    """Embedding distance between two one-row embeddings."""
    return float(cross_distances(f, g)[0, 0])


def radial(theta, t):
    """Radial part of the regression kernel at distance t: an off-diagonal
    Gram entry, which carries no nugget."""
    return float(gram_from_distances(np.array([[0.0, t], [t, 0.0]]), theta)[0, 1])


def random_density(rng, g, lo=0.2):
    w = rng.uniform(lo, 1.0, size=(g, g))
    return GridDensity(w / w.sum())


class TestRadialEval:
    def test_square_exponential(self):
        se = KernelParams(1.0, 1.0, 2.0, 0.0)
        assert gram_from_distances(np.zeros((1, 1)), se)[0, 0] == pytest.approx(1.0)
        assert radial(se, 1.0) == pytest.approx(math.exp(-1.0))

    def test_power_exponential(self):
        # variance 4, length scale 2, exponent 1: 4 exp(-t / 2)
        pe = KernelParams(2.0, 0.5, 1.0, 0.0)
        assert radial(pe, 2.0) == pytest.approx(4.0 * math.exp(-1.0))

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonincreasing_and_bounded(self, t1, t2):
        lo, hi = sorted((t1, t2))
        for theta in (KernelParams(math.sqrt(1.5), 1 / 0.7**2, 2.0, 0.0),
                      KernelParams(math.sqrt(1.5), 0.7**-1.3, 1.3, 0.0),
                      KernelParams(math.sqrt(1.5), 0.9, 1.0, 0.0)):
            v_lo, v_hi = radial(theta, lo), radial(theta, hi)
            assert v_lo >= v_hi - 1e-12
            assert 0.0 <= v_hi <= theta.amplitude**2 + 1e-12


class TestKernelParams:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            KernelParams(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            KernelParams(1.0, 1.0, 2.5, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_rejects_non_finite(self, field, value):
        values = [1.0, 1.0, 2.0, 0.0]
        values[field] = value
        with pytest.raises(ValidationError, match="must be finite"):
            KernelParams(*values)

    @pytest.mark.parametrize("values,message", [
        ((-1.0, 1.0, 2.0, 0.0), "amplitude must be finite and >= 0, got -1.0"),
        ((1.0, -0.5, 2.0, 0.0), "rate must be finite and >= 0, got -0.5"),
        ((1.0, 1.0, 2.0, -0.001), "nugget must be finite and >= 0, got -0.001"),
        ((1.0, 1.0, math.nan, 0.0), "exponent must be finite, got nan"),
        ((1.0, 1.0, 0.0, 0.0), "exponent must lie in (0, 2]"),
        ((10**400, 1.0, 2.0, 0.0), f"amplitude must be finite and >= 0, got {10**400}"),
        ((1e200, 1.0, 2.0, 0.0), "amplitude^2 + nugget must be finite, got inf"),
        ((1e154, 1.0, 2.0, 1.7e308), "amplitude^2 + nugget must be finite, got inf"),
    ], ids=["amplitude", "rate", "nugget", "exponent-nan", "exponent-zero", "amplitude-huge",
            "amplitude-squared-overflows", "diagonal-overflows"])
    def test_names_the_failing_field(self, values, message):
        with pytest.raises(ValidationError) as info:
            KernelParams(*values)
        assert str(info.value) == message

    def test_roundtrip(self):
        p = KernelParams(2.0, 0.5, 1.0, 0.1)
        assert KernelParams.from_array(p.as_array()) == p


class TestEmbedding:
    def test_len_and_row_indexing(self):
        rng = np.random.default_rng(20)
        feats, reference = gaussian_features(rng, 5, 2)
        assert len(feats) == 5 and feats.X.shape == (5, 6)
        assert len(feats[3]) == 1
        np.testing.assert_array_equal(feats[3].X, feats.X[3:4])
        np.testing.assert_array_equal(feats[1:4].X, feats.X[1:4])
        np.testing.assert_array_equal(feats[[4, 0]].X, feats.X[[4, 0]])
        assert feats[2:].reference is reference

    def test_width_must_fit_the_reference(self):
        with pytest.raises(ValidationError):
            Embedding(GaussianMeasure([0.0, 0.0], np.eye(2)), np.zeros((3, 5)))
        with pytest.raises(ValidationError):
            Embedding(GridDensity(np.full((2, 2), 0.25)), np.zeros(8))
        with pytest.raises(ValidationError):
            Embedding(GaussianMeasure([0.0], [[1.0]]), [[0.0, np.nan]])

    @pytest.mark.parametrize("lam,pattern", [
        (None, "^lam None is not a number$"),
        (-1.0, "^lam must be finite and positive, got -1.0$"),
        (float("nan"), "^lam must be finite and positive, got nan$"),
        (float("inf"), "^lam must be finite and positive, got inf$"),
    ])
    def test_grid_rows_need_their_penalty(self, lam, pattern):
        # save_model writes a grid model's lam and load_model reads it back
        # through this rule, so a model that can be built can be reloaded
        with pytest.raises(ValidationError, match=pattern):
            Embedding(GridDensity(np.full((2, 2), 0.25)), np.zeros((1, 8)), lam)

    def test_penalty_is_kept_as_a_float_and_only_for_grids(self):
        grid = Embedding(GridDensity(np.full((2, 2), 0.25)), np.zeros((3, 8)), np.int64(20))
        assert type(grid.lam) is float and grid[1:].lam == 20.0
        with pytest.raises(ValidationError, match="^lam must be None for a Gaussian reference"):
            Embedding(GaussianMeasure([0.0], [[1.0]]), np.zeros((1, 2)), 20.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            embed_gaussians([GaussianMeasure([0.0], [[1.0]])],
                            GaussianMeasure([0.0, 0.0], np.eye(2)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_gaussian_distances_match_map_distance(self, d):
        rng = np.random.default_rng(21 + d)
        reference = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
        ms = [GaussianMeasure(rng.normal(size=d), random_spd(rng, d)) for _ in range(12)]
        dist = pairwise_distances(embed_gaussians(ms, reference))
        for i in range(12):
            for j in range(12):
                if i == j:
                    continue
                expected = math.sqrt(
                    map_l2_distance_gaussian(ms[i].cov, ms[j].cov, reference.cov)
                    + float(((ms[i].mean - ms[j].mean) ** 2).sum()))
                assert dist[i, j] == pytest.approx(expected, rel=1e-12)

    def test_grid_distances_match_weighted_cell_formula(self):
        rng = np.random.default_rng(24)
        ds = [random_density(rng, 6, lo=0.0) for _ in range(5)]
        reference = grid_barycenter(ds, lam=20.0).result
        dist = pairwise_distances(embed_grids(ds, reference, lam=20.0))
        maps = [inverse_grid_map(d, reference, lam=20.0) for d in ds]
        _, w = reference.support()
        w = w / w.sum()
        for i in range(5):
            for j in range(5):
                diff = maps[i] - maps[j]
                expected = math.sqrt(float((w * (diff**2).sum(axis=1)).sum()))
                assert dist[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def embed_inputs(kind, n, seed):
    """n inputs of one kind: 2-D Gaussians or densities on a 6x6 grid."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return [GaussianMeasure(rng.normal(size=2), random_spd(rng, 2)) for _ in range(n)]
    return [random_density(rng, 6, lo=0.0) for _ in range(n)]


class TestEmbed:
    # The sequences embed replaces, written out: the reference results.
    def test_gaussian_inputs_equal_barycenter_then_embed_gaussians(self):
        ms = embed_inputs("gaussian", 9, 30)
        reference, _ = gaussian_barycenter_measure(ms[:6])
        expected = embed_gaussians(ms, reference)
        got = embed(ms, 6)
        np.testing.assert_array_equal(got.X, expected.X)
        np.testing.assert_array_equal(got.reference.mean, reference.mean)
        np.testing.assert_array_equal(got.reference.cov, reference.cov)
        assert got.lam is None

    def test_grid_inputs_equal_barycenter_then_warm_embed_grids(self):
        ds = embed_inputs("grid", 7, 31)
        bar = grid_barycenter(ds[:5], lam=15.0)
        expected = embed_grids(ds, bar.result, lam=15.0, starts=bar.input_scalings)
        got = embed(ds, 5, lam=15.0)
        np.testing.assert_array_equal(got.X, expected.X)
        np.testing.assert_array_equal(got.reference.weights, bar.result.weights)
        assert got.lam == 15.0

    def test_cold_grid_maps_equal_embed_grids_without_starts(self):
        ds = embed_inputs("grid", 6, 32)
        reference = grid_barycenter(ds, lam=20.0).result
        got = embed(ds, warm=False)
        np.testing.assert_array_equal(got.X, embed_grids(ds, reference, lam=20.0).X)

    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_only_the_training_prefix_feeds_the_barycenter(self, kind):
        inputs = embed_inputs(kind, 8, 33)
        other = inputs[:4] + embed_inputs(kind, 4, 34)
        a, b = embed(inputs, 4), embed(other, 4)
        np.testing.assert_array_equal(a.X[:4], b.X[:4])
        assert a.reference.same_as(b.reference)
        assert not a.reference.same_as(embed(inputs).reference)

    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_a_given_reference_computes_no_barycenter(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("barycenter computed")

        inputs = embed_inputs(kind, 5, 35)
        reference = embed_inputs(kind, 1, 36)[0]
        monkeypatch.setattr(otgp.kernels, "gaussian_barycenter_measure", refuse)
        monkeypatch.setattr(otgp.kernels, "grid_barycenter", refuse)
        got = embed(inputs, 2, reference=reference, lam=25.0)
        expected = (embed_gaussians(inputs, reference) if kind == "gaussian"
                    else embed_grids(inputs, reference, lam=25.0))
        np.testing.assert_array_equal(got.X, expected.X)
        assert got.reference is reference

    @pytest.mark.parametrize("inputs,reference", [
        (embed_inputs("gaussian", 2, 37) + embed_inputs("grid", 1, 38), None),
        (embed_inputs("gaussian", 2, 37), embed_inputs("grid", 1, 38)[0]),
        (embed_inputs("grid", 2, 38), embed_inputs("gaussian", 1, 37)[0]),
    ], ids=["mixed inputs", "grid reference", "gaussian reference"])
    def test_mixed_kinds_are_validation_errors(self, inputs, reference):
        with pytest.raises(ValidationError, match="all Gaussian or all grids"):
            embed(inputs, reference=reference)

    @pytest.mark.parametrize("n_train,message", [
        (0, "n_train must be >= 1, got 0"), (-1, "n_train must be >= 1, got -1"),
        (4, "n_train must lie in 1..3, got 4"),
    ])
    def test_training_prefix_must_lie_in_the_inputs(self, n_train, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            embed(embed_inputs("gaussian", 3, 39), n_train)

    @pytest.mark.parametrize("reference", [None, GaussianMeasure([0.0, 0.0], np.eye(2))])
    def test_no_inputs_is_a_validation_error(self, reference):
        with pytest.raises(ValidationError, match="need at least one input"):
            embed([], reference=reference)


class TestEmbeddingDistance:
    def test_zero_on_same_feature(self):
        rng = np.random.default_rng(0)
        feats, _ = gaussian_features(rng, 2, 2)
        assert distance(feats[0], feats[0]) == 0.0
        assert pairwise_distances(feats[[0, 0]])[0, 1] == 0.0

    def test_one_dimensional_sigma_difference(self):
        reference = GaussianMeasure([0.0], [[4.0]])
        ms = [GaussianMeasure([0.0], [[4.0]]), GaussianMeasure([0.0], [[9.0]])]
        f = embed_gaussians(ms, reference)
        assert distance(f[0], f[1]) == pytest.approx(1.0, abs=1e-10)

    def test_mean_translation_term(self):
        # equal covariances: distance reduces to the mean separation
        reference = GaussianMeasure([0.0, 0.0], np.eye(2))
        ms = [GaussianMeasure([0.0, 0.0], np.eye(2)),
              GaussianMeasure([3.0, 4.0], np.eye(2))]
        f = embed_gaussians(ms, reference)
        assert distance(f[0], f[1]) == pytest.approx(5.0, abs=1e-10)

    def test_grid_single_cell_displacement(self):
        # one source cell of weight 1/2 displaced by (1, 0)
        maps = [np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])]
        ref = GridDensity(np.array([[0.5, 0.5], [0.0, 0.0]]))
        f = Embedding(ref, np.array([(np.sqrt(0.5) * t).ravel() for t in maps]), lam=20.0)
        assert distance(f[0], f[1]) == pytest.approx(math.sqrt(0.5))

    def test_reference_mismatch(self):
        rng = np.random.default_rng(1)
        f1, _ = gaussian_features(rng, 1, 2)
        f2, _ = gaussian_features(rng, 1, 2)
        with pytest.raises(ReferenceMismatch):
            distance(f1[0], f2[0])

    def test_reference_mismatch_across_kinds(self):
        rng = np.random.default_rng(25)
        ds = [random_density(rng, 2) for _ in range(2)]
        point = np.array([[1.0, 0.0], [0.0, 0.0]])
        grid = embed_grids(ds, GridDensity(point), lam=20.0)
        gauss = embed_gaussians([GaussianMeasure([0.5], [[1.0]])],
                                GaussianMeasure([0.0], [[1.0]]))
        assert gauss.X.shape[1] == grid.X.shape[1] == 2
        with pytest.raises(ReferenceMismatch):
            cross_distances(gauss, grid)
        # an equal but distinct reference object is the same reference
        same = embed_grids(ds, GridDensity(point.copy()), lam=20.0)
        np.testing.assert_array_equal(cross_distances(grid, same).diagonal(), 0.0)

    def test_triangle_inequality_gaussian_path(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            feats, _ = gaussian_features(rng, 3, 3, means=True)
            dist = pairwise_distances(feats)
            assert dist[0, 2] <= dist[0, 1] + dist[1, 2] + 1e-9

    def test_triangle_inequality_grid_path(self):
        rng = np.random.default_rng(3)
        ref = random_density(rng, 5)
        ds = [random_density(rng, 5) for _ in range(3)]
        dist = pairwise_distances(embed_grids(ds, ref, lam=20.0))
        assert dist[0, 2] <= dist[0, 1] + dist[1, 2] + 1e-9


# Bound on the lam = 400 error of TestGridEmbeddingReferee; seeds 0-4 read
# 0.0047-0.0124, and seeds 0-59 at most 0.0183.
REFEREE_BOUND = 0.02


class TestGridEmbeddingReferee:
    """The grid embedding of rasterized Gaussians against the closed form.
    With sigma of 1.5 to 4 cells at G = 50, the entropic maps approach the
    exact ones as lam grows, and the grid distances the closed-form ones.
    Distances cannot see a map error common to every input, such as its x
    and y swapped, so the maps' means are checked as well: the plan's
    target marginal makes the mean of a map under the reference the mean
    of its input, the first columns of the closed-form row."""

    @pytest.mark.parametrize("seed", range(5))
    def test_distances_approach_the_closed_form_as_lam_grows(self, seed):
        rng = np.random.default_rng(seed)
        means = rng.uniform(0.4, 0.6, size=(12, 2))
        sigmas = rng.uniform(0.03, 0.08, size=(12, 2))
        measures = gaussian_measures(means, sigmas[:, :, None] ** 2 * np.eye(2))
        closed = embed(measures)
        closed_dist = pairwise_distances(closed)
        grids = [rasterize_gaussian(m, 50) for m in measures]
        errors = []
        for lam in (20.0, 100.0, 400.0):
            grid = embed(grids, lam=lam)
            # the largest error over the pairs relative to the largest
            # distance: a per-pair relative error peaks on the closest pairs
            errors.append(np.abs(pairwise_distances(grid) - closed_dist).max() / closed_dist.max())
            _, w = grid.reference.support()
            map_means = np.einsum("s,isk->ik", np.sqrt(w / w.sum()), grid.X.reshape(12, -1, 2))
            np.testing.assert_allclose(map_means, closed.X[:, :2], rtol=0, atol=1e-6)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < REFEREE_BOUND


# Bound on the relative error of TestEntropicMapReferee; its maps and rows read
# at most 9.9e-4, 2.8e-3 and 2.8e-3 at lam = 20, 100 and 400.
ENTROPIC_REFEREE_BOUND = 5e-3


class TestEntropicMapReferee:
    """The grid maps at the penalty they are solved with, against the closed
    form. The grid kernel exp(-lam |x - y|^2 / 2) is entropic OT with
    epsilon = 2 / lam, whose plan between Gaussians is Gaussian and whose
    barycentric projection is affine (Janati, Muzellec, Peyre & Cuturi,
    NeurIPS 2020). With diagonal covariances it acts per axis: from the
    reference N(m_r, a) to the input N(m, b), with s^2 = 1 / lam,
    T(x) = m + (c / a)(x - m_r), c = (sqrt(s^4 + 4ab) - s^2) / 2.
    The error is the L2(reference) norm of the difference over that of the
    unregularized map's linear part, sqrt(b / a)(x - m_r); at lam = 20 the
    entropic map keeps only 15-22% of that slope, which the referee sees."""

    @pytest.mark.parametrize("lam", [20.0, 100.0, 400.0])
    def test_maps_and_rows_match_the_entropic_closed_form(self, lam):
        ref_mean, ref_var = np.array([0.5, 0.5]), 0.1**2
        reference = rasterize_gaussian(GaussianMeasure(ref_mean, ref_var * np.eye(2)), 50)
        rng = np.random.default_rng(0)
        means = rng.uniform(0.4, 0.6, size=(6, 2))
        variances = rng.uniform(0.06, 0.12, size=(6, 2)) ** 2
        grids = [rasterize_gaussian(GaussianMeasure(m, np.diag(v)), 50)
                 for m, v in zip(means, variances)]
        idx, w = reference.support()
        x, w = reference.cell_centers()[idx], w / w.sum()
        rows = embed_grids(grids, reference, lam=lam).X
        s2 = 1.0 / lam
        for grid, m, b, row in zip(grids, means, variances, rows):
            c = (np.sqrt(s2 * s2 + 4.0 * ref_var * b) - s2) / 2.0
            closed = m + (c / ref_var) * (x - ref_mean)
            scale = np.sqrt(w @ (b / ref_var * (x - ref_mean) ** 2).sum(axis=1))
            error = np.sqrt(w @ ((inverse_grid_map(grid, reference, lam) - closed) ** 2).sum(axis=1))
            assert error / scale < ENTROPIC_REFEREE_BOUND
            # the row is the map weighted by sqrt(w), cell by cell, x before y
            closed_row = (np.sqrt(w)[:, None] * closed).ravel()
            assert np.linalg.norm(row - closed_row) / scale < ENTROPIC_REFEREE_BOUND


def bits(matrix):
    return np.ascontiguousarray(matrix).view(np.uint64)


class TestDistanceRoutine:
    """Narrow rows take the numpy path, wide rows pdist/cdist; both give
    scipy's bits, and duplicated rows sit at exactly zero."""

    @given(width=st.integers(1, NUMPY_COLUMNS + 1), n=st.integers(1, ROW_BLOCK + 20),
           m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_scipy(self, width, n, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 4, size=width)
        dup = rng.integers(n, size=n // 3)
        a[dup] = a[0]
        b = np.vstack([a[rng.integers(n, size=m // 2)], rng.normal(size=(m - m // 2, width))])
        pair, cross = otgp.kernels._distances(a), otgp.kernels._distances(a, b)
        assert np.array_equal(bits(pair), bits(otgp.kernels._snap(squareform(pdist(a)))))
        assert np.array_equal(bits(cross), bits(otgp.kernels._snap(cdist(a, b))))
        assert (pair[dup, 0] == 0.0).all() and (pair[0, dup] == 0.0).all()
        assert np.array_equal(bits(pair), bits(pair.T))
        assert (np.diagonal(pair) == 0.0).all()

    def test_disk_rows_through_both_paths(self, monkeypatch):
        rng = np.random.default_rng(4)
        grids = [disks_to_grid(DiskConfig(0.08, rng.uniform(0, 1, size=(6, 2))), 16)
                 for _ in range(9)]
        feats = embed(grids, 6)
        assert feats.X.shape[1] > NUMPY_COLUMNS
        train, test = feats[:6], feats[6:]
        wide = pairwise_distances(train), cross_distances(train, test)
        assert np.array_equal(bits(wide[0]), bits(otgp.kernels._snap(squareform(pdist(train.X)))))
        assert np.array_equal(bits(wide[1]), bits(otgp.kernels._snap(cdist(train.X, test.X))))
        monkeypatch.setattr(otgp.kernels, "NUMPY_COLUMNS", feats.X.shape[1])
        narrow = pairwise_distances(train), cross_distances(train, test)
        assert all(np.array_equal(bits(w), bits(v)) for w, v in zip(wide, narrow))

    def test_distance_whose_square_overflows_is_inf(self):
        # as pdist has it, with no overflow warning on the numpy path
        x = np.zeros((3, 6))
        x[1, 0], x[2, 0] = 1e200, -1e100
        dist = pairwise_distances(Embedding(GaussianMeasure([0.0, 0.0], np.eye(2)), x))
        assert dist.tolist() == [[0.0, math.inf, 1e100], [math.inf, 0.0, math.inf],
                                 [1e100, math.inf, 0.0]]
        assert np.array_equal(dist, squareform(pdist(x)))


class TestKernelEval:
    def test_coincident_value(self):
        rng = np.random.default_rng(4)
        feats, _ = gaussian_features(rng, 1, 2)
        theta = KernelParams(2.0, 1.0, 1.0, 0.25)
        assert cross_kernel(feats[0], feats[0], theta)[0, 0] == pytest.approx(4.25)

    def test_unit_distance(self):
        reference = GaussianMeasure([0.0], [[1.0]])
        ms = [GaussianMeasure([0.0], [[1.0]]), GaussianMeasure([1.0], [[1.0]])]
        f = embed_gaussians(ms, reference)
        theta = KernelParams(1.0, 1.0, 2.0, 0.0)
        assert cross_kernel(f[0], f[1], theta)[0, 0] == pytest.approx(math.exp(-1.0))

    def test_general_values(self):
        reference = GaussianMeasure([0.0], [[1.0]])
        ms = [GaussianMeasure([0.0], [[1.0]]), GaussianMeasure([4.0], [[1.0]])]
        f = embed_gaussians(ms, reference)
        theta = KernelParams(2.0, 0.5, 1.0, 0.1)
        assert cross_kernel(f[0], f[1], theta)[0, 0] == pytest.approx(4.0 * math.exp(-2.0))


class TestGram:
    def test_single_feature(self):
        rng = np.random.default_rng(5)
        feats, _ = gaussian_features(rng, 1, 2)
        theta = KernelParams(1.5, 1.0, 1.0, 0.25)
        g = gram_matrix(feats, theta)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.5**2 + 0.25)

    def test_duplicated_feature_nugget_on_diagonal_only(self):
        rng = np.random.default_rng(6)
        feats, _ = gaussian_features(rng, 1, 2)
        theta = KernelParams(1.0, 1.0, 1.0, 0.25)
        g = gram_matrix(feats[[0, 0]], theta)
        a = theta.amplitude**2 + theta.nugget
        np.testing.assert_allclose(g, [[a, a - 0.25], [a - 0.25, a]])
    def test_thirty_random_features_psd(self):
        rng = np.random.default_rng(7)
        feats, _ = gaussian_features(rng, 30, 2)
        theta = KernelParams(1.0, 1.0, 1.0, 1e-5)
        report = psd_diagnostic(gram_matrix(feats, theta), tol=1e-8)
        assert report.negatives == 0

    def test_psd_across_theta_box(self):
        rng = np.random.default_rng(8)
        feats, _ = gaussian_features(rng, 15, 3, means=True)
        dist = pairwise_distances(feats)
        for amp in (0.05, 1.0, 10.0):
            for rate in (0.01, 1.0, 10.0):
                for expo in (0.5, 1.0, 2.0):
                    theta = KernelParams(amp, rate, expo, 1e-5)
                    rep = psd_diagnostic(gram_from_distances(dist, theta), tol=1e-8)
                    assert rep.negatives == 0

    def test_gram_orthogonal_invariance(self):
        rng = np.random.default_rng(9)
        d = 3
        ref_cov = random_spd(rng, d)
        covs = [random_spd(rng, d) for _ in range(6)]
        u = ortho_group.rvs(d, random_state=rng)
        theta = KernelParams(1.0, 1.0, 1.0, 1e-4)
        zero = np.zeros(d)
        base = gram_matrix(embed_gaussians(
            [GaussianMeasure(zero, c) for c in covs],
            GaussianMeasure(zero, ref_cov)), theta)
        rot = gram_matrix(embed_gaussians(
            [GaussianMeasure(zero, u @ c @ u.T) for c in covs],
            GaussianMeasure(zero, u @ ref_cov @ u.T)), theta)
        np.testing.assert_allclose(rot, base, atol=1e-8)


class TestPsdDiagnostic:
    def test_identity_no_negatives(self):
        rep = psd_diagnostic(np.eye(5))
        assert rep.negatives == 0
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_two_by_two(self):
        rep = psd_diagnostic(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(rep.eigenvalues, [-1.0, 3.0])
        assert rep.negatives == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            psd_diagnostic(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones((0, 0)), np.ones((0, 1)),
                                        np.ones(3), np.ones((2, 2, 2))], ids=repr)
    def test_rejects_a_matrix_that_is_not_square_or_is_empty(self, matrix):
        # a 2x3 matrix failed to broadcast, an empty one had no min_eigenvalue
        with pytest.raises(ValidationError, match=r"^expected a nonempty square matrix, got "
                           rf"shape {re.escape(str(matrix.shape))}$"):
            psd_diagnostic(matrix)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, entry):
        # NaN ended in LinAlgError, inf in a NaN asymmetry
        with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
            psd_diagnostic([[1.0, 0.0], [0.0, entry]])

    def test_entries_too_large_to_square(self):
        # M + M^T overflowed to -inf, and the asymmetry to inf / inf
        rep = psd_diagnostic([[1e308, 0.0], [0.0, -1e308]])
        assert rep.eigenvalues.tolist() == [-1e308, 1e308] and rep.negatives == 1
        with pytest.raises(NotSymmetric):
            psd_diagnostic([[1.0, 1e308], [0.0, 1.0]])

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_a_tolerance_out_of_range(self, tol):
        with pytest.raises(ValidationError, match=f"tol must be finite and >= 0, got {tol}"):
            psd_diagnostic(np.eye(3), tol=tol)

    def test_naive_gram_indefinite_in_2d(self):
        measures = sample_gaussian_population(100, 2, seed=(1, 0),
                                              entry_range=(0.1, 0.7))
        rep = psd_diagnostic(naive_w2_gram(measures), tol=1e-6)
        assert rep.negatives >= 1


class TestNaiveKernel:
    def test_equal_inputs(self):
        m = GaussianMeasure([0.3, 0.4], np.eye(2))
        twin = GaussianMeasure([0.3, 0.4], np.eye(2))
        np.testing.assert_array_equal(naive_w2_gram([m, m, twin]), np.ones((3, 3)))

    def test_unit_distance(self):
        a = GaussianMeasure([0.0], [[1.0]])
        b = GaussianMeasure([1.0], [[1.0]])
        assert naive_w2_gram([a, b])[0, 1] == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_gaussian_w2_on_every_pair(self, d):
        rng = np.random.default_rng(30 + d)
        ms = [GaussianMeasure(rng.normal(size=d), random_spd(rng, d)) for _ in range(15)]
        ms += [ms[4], GaussianMeasure(ms[7].mean, ms[7].cov)]  # duplicates
        gram = naive_w2_gram(ms)
        expected = np.array([[math.exp(-gaussian_w2(a, b) ** 2) for b in ms] for a in ms])
        np.testing.assert_allclose(gram, expected, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(gram, gram.T)
        assert gram[4, 15] == gram[7, 16] == 1.0

    def test_pairs_span_several_chunks(self, monkeypatch):
        import otgp.kernels

        ms = sample_gaussian_population(12, 2, seed=(3, 0), entry_range=(0.1, 0.7))
        whole = naive_w2_gram(ms)
        monkeypatch.setattr(otgp.kernels, "PAIR_CHUNK", 7)
        np.testing.assert_array_equal(naive_w2_gram(ms), whole)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            naive_w2_gram([GaussianMeasure([0.0], [[1.0]]),
                           GaussianMeasure([0.0, 0.0], np.eye(2))])

    def test_embedding_gram_psd_on_same_inputs(self):
        measures = sample_gaussian_population(40, 2, seed=(2, 0),
                                              entry_range=(0.1, 0.7))
        bar = gaussian_barycenter([m.cov for m in measures]).result
        reference = GaussianMeasure(np.zeros(2), bar)
        feats = embed_gaussians(measures, reference)
        gram = gram_from_distances(pairwise_distances(feats), KernelParams(1.0, 1.0, 2.0, 0.0))
        rep = psd_diagnostic(gram, tol=1e-8)
        assert rep.negatives == 0
