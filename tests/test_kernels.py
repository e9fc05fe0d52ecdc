import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from otgp.barycenter import gaussian_barycenter, grid_barycenter
from otgp.errors import DimensionMismatch, NotSymmetric, ReferenceMismatch, ValidationError
from otgp.kernels import (
    DEFAULT_BOUNDS,
    Embedding,
    KernelParams,
    cross_distances,
    cross_kernel,
    embed_gaussians,
    embed_grids,
    gram_from_distances,
    gram_matrix,
    naive_w2_gram,
    pairwise_distances,
    params_in_box,
    psd_diagnostic,
)
from otgp.measures import GaussianMeasure, GridDensity, sample_gaussian_population
from otgp.ot import TransportAssignment, gaussian_w2, inverse_grid_map, map_l2_distance_gaussian


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

    def test_box_predicate(self):
        assert params_in_box(KernelParams(1.0, 1.0, 1.0, 0.01))
        assert not params_in_box(KernelParams(1.0, 1.0, 1.0, 0.0))
        assert params_in_box(KernelParams(*(b[0] for b in DEFAULT_BOUNDS)))

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
        for i in range(5):
            for j in range(5):
                diff = maps[i].mapped_locations() - maps[j].mapped_locations()
                w = maps[i].source_weights
                expected = math.sqrt(float((w * (diff**2).sum(axis=1)).sum()))
                assert dist[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


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
        locs = np.array([[0.0, 0.0], [1.0, 0.0]])
        a1 = TransportAssignment(np.array([0, 0]), np.array([0.5, 0.5]),
                                 locs, locs)
        a2 = TransportAssignment(np.array([1, 0]), np.array([0.5, 0.5]),
                                 locs, locs)
        ref = GridDensity(np.array([[0.5, 0.5], [0.0, 0.0]]))
        rows = [(np.sqrt(a.source_weights)[:, None] * a.mapped_locations()).ravel()
                for a in (a1, a2)]
        f = Embedding(ref, np.array(rows))
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
