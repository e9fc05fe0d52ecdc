import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgp import baseline
from otgp.baseline import (
    SmootherModel,
    fit_smoother,
    l1_density_distance,
    select_bandwidth,
    smoother_predict,
)
from otgp.errors import (MAGNITUDE_RULE, DegenerateDistances, GridMismatch, SizeMismatch,
                         ValidationError)
from otgp.measures import GridDensity, rasterize_gaussian, sample_regression_gaussians


def cell_mass(g, cells):
    w = np.zeros((g, g))
    for (iy, ix), m in cells.items():
        w[iy, ix] = m
    return GridDensity(w)


def random_density(rng, g):
    w = rng.uniform(0.0, 1.0, size=(g, g))
    return GridDensity(w / w.sum())


class TestL1Distance:
    def test_zero_on_equal(self):
        d = cell_mass(4, {(0, 0): 0.5, (3, 3): 0.5})
        assert l1_density_distance(d, d) == 0.0

    def test_disjoint_masses(self):
        a = cell_mass(4, {(0, 0): 1.0})
        b = cell_mass(4, {(3, 3): 1.0})
        assert l1_density_distance(a, b) == pytest.approx(2.0)

    def test_half_overlap(self):
        a = cell_mass(4, {(0, 0): 1.0})
        b = cell_mass(4, {(0, 0): 0.5, (0, 1): 0.5})
        assert l1_density_distance(a, b) == pytest.approx(1.0)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch, match="^item 1: grid of size 5 unlike item 0's 4$"):
            l1_density_distance(cell_mass(4, {(0, 0): 1.0}), cell_mass(5, {(0, 0): 1.0}))

    def test_disjoint_supports_are_exactly_two_apart(self):
        # masses that do not sum to exactly 1 + 1 in floating point still
        # land on the maximum, the largest default bandwidth
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=(6, 6))
            a, b = w * (np.arange(6) < 3), w * (np.arange(6) >= 3)
            a, b = GridDensity(a / a.sum()), GridDensity(b / b.sum())
            assert l1_density_distance(a, b) == 2.0
            model = SmootherModel(grids=(a,), y=np.array([1.0]), bandwidth=2.0)
            assert smoother_predict(model, b).fallback

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_metric_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(rng, 4) for _ in range(3))
        dab = l1_density_distance(a, b)
        assert 0.0 <= dab <= 2.0
        assert dab == l1_density_distance(b, a)
        assert l1_density_distance(a, c) <= dab + l1_density_distance(b, c) + 1e-12


class TestSmootherPredict:
    def test_single_neighbor(self):
        a = cell_mass(4, {(0, 0): 1.0})
        model = SmootherModel(grids=(a,), y=np.array([3.0]), bandwidth=1.0)
        query = cell_mass(4, {(0, 0): 0.8, (0, 1): 0.2})  # D = 0.4 < 1
        pred = smoother_predict(model, query)
        assert pred.value == pytest.approx(3.0)
        assert not pred.fallback

    def test_equidistant_average(self):
        a = cell_mass(4, {(0, 0): 1.0})
        b = cell_mass(4, {(3, 3): 1.0})
        model = SmootherModel(grids=(a, b), y=np.array([1.0, 5.0]), bandwidth=3.0)
        query = cell_mass(4, {(1, 1): 1.0})  # distance 2 to both
        pred = smoother_predict(model, query)
        assert pred.value == pytest.approx(3.0)

    def test_triangular_cutoff(self):
        # D/h = (0.5, 1.5): only the first neighbor carries weight
        a = cell_mass(4, {(0, 0): 1.0})
        b = cell_mass(4, {(3, 3): 1.0})
        query = cell_mass(4, {(0, 0): 0.75, (0, 1): 0.25})  # D = 0.5 to a, 2 to b
        model = SmootherModel(grids=(a, b), y=np.array([2.0, 10.0]), bandwidth=1.0)
        assert smoother_predict(model, query).value == pytest.approx(2.0)

    def test_fallback_to_global_mean(self):
        a = cell_mass(4, {(0, 0): 1.0})
        b = cell_mass(4, {(0, 1): 1.0})
        model = SmootherModel(grids=(a, b), y=np.array([2.0, 4.0]), bandwidth=0.5)
        query = cell_mass(4, {(3, 3): 1.0})
        pred = smoother_predict(model, query)
        assert pred.fallback
        assert pred.value == pytest.approx(3.0)

    def test_prediction_is_convex_combination(self):
        rng = np.random.default_rng(0)
        grids = tuple(random_density(rng, 5) for _ in range(6))
        y = rng.normal(size=6)
        model = SmootherModel(grids=grids, y=y, bandwidth=1.0)
        for _ in range(10):
            q = random_density(rng, 5)
            pred = smoother_predict(model, q)
            if not pred.fallback:
                dists = np.array([l1_density_distance(q, g) for g in grids])
                inside = y[dists < model.bandwidth]
                assert inside.min() - 1e-12 <= pred.value <= inside.max() + 1e-12

    def test_grid_mismatch(self):
        model = SmootherModel(grids=(cell_mass(4, {(0, 0): 1.0}),), y=np.array([1.0]),
                              bandwidth=1.0)
        with pytest.raises(GridMismatch, match="^item 1: grid of size 5 unlike item 0's 4$"):
            smoother_predict(model, cell_mass(5, {(0, 0): 1.0}))
        with pytest.raises(GridMismatch, match="^item 1: grid of size 5 unlike item 0's 4$"):
            SmootherModel(grids=(cell_mass(4, {(0, 0): 1.0}), cell_mass(5, {(0, 0): 1.0})),
                          y=np.array([1.0, 2.0]), bandwidth=1.0)

    @pytest.mark.parametrize("bandwidth,n_grids,n_y,error,message", [
        (0.0, 2, 2, ValidationError, "bandwidth must be finite and positive, got 0.0"),
        (-1.0, 2, 2, ValidationError, "bandwidth must be finite and positive, got -1.0"),
        (np.nan, 2, 2, ValidationError, f"bandwidth must be {MAGNITUDE_RULE}, got nan"),
        (1.0, 2, 3, SizeMismatch, "need one or more grids, as many as responses"),
        (1.0, 5, 2, SizeMismatch, "need one or more grids, as many as responses"),
        (1.0, 0, 0, SizeMismatch, "need one or more grids, as many as responses"),
    ], ids=["zero-bandwidth", "negative-bandwidth", "nan-bandwidth", "more-responses",
            "fewer-responses", "no-grids"])
    def test_refuses_bad_models(self, bandwidth, n_grids, n_y, error, message):
        grids = tuple(cell_mass(4, {divmod(k, 4): 1.0}) for k in range(n_grids))
        y = np.arange(n_y, dtype=float)
        with pytest.raises(error) as caught:
            SmootherModel(grids=grids, y=y, bandwidth=bandwidth)
        assert str(caught.value) == message
        if error is SizeMismatch:  # the fitters keep the model's rule: five grids and two
            for fit in (select_bandwidth, fit_smoother):  # responses ended in IndexError
                with pytest.raises(SizeMismatch, match=f"^{message}$"):
                    fit(grids, y)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        grids = [random_density(rng, 5) for _ in range(6)]
        y = rng.normal(size=6)
        q = random_density(rng, 5)
        a = smoother_predict(SmootherModel(tuple(grids), y, 1.5), q)
        perm = rng.permutation(6)
        b = smoother_predict(
            SmootherModel(tuple(grids[i] for i in perm), y[perm], 1.5), q)
        assert a.value == pytest.approx(b.value)


class TestSelectBandwidth:
    def test_two_cluster_oracle(self):
        # two tight clusters with distinct responses: the small candidate
        # (reaching only same-cluster neighbors) wins over the large one
        grids, y = [], []
        for k, base in enumerate([(0, 0), (4, 4)]):
            for eps in (0.0, 0.02, 0.04, 0.06):
                w = np.zeros((5, 5))
                w[base] = 1.0 - eps
                w[2, 2] = eps
                grids.append(GridDensity(w))
                y.append(float(k))
        y = np.asarray(y)
        n = len(grids)
        pairwise = np.array([[l1_density_distance(a, b) for b in grids] for a in grids])
        off = pairwise[np.triu_indices(n, 1)]
        h_small = float(off[off > 0].min() * 1.5)
        h_large = float(off.max() * 10)
        chosen = select_bandwidth(grids, y, candidates=[h_small, h_large])
        assert chosen == h_small

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        grids = [random_density(rng, 5) for _ in range(8)]
        y = rng.normal(size=8)
        a = select_bandwidth(grids, y, split_seed=7)
        b = select_bandwidth(grids, y, split_seed=7)
        assert a == b

    def test_single_candidate(self):
        rng = np.random.default_rng(3)
        grids = [random_density(rng, 5) for _ in range(4)]
        y = rng.normal(size=4)
        assert select_bandwidth(grids, y, candidates=[0.7]) == 0.7

    @pytest.mark.parametrize("candidates,message", [
        ([0.5, 0.0], "candidates must be finite and positive, got 0.0"),
        ([-1.0, 0.5, -2.0], "candidates must be finite and positive, got -2.0"),
        ([0.5, np.nan], f"candidates must be {MAGNITUDE_RULE}, got nan"),
        ([], "candidates must be a nonempty list, got shape (0,)"),
        ([[0.5], [1.0]], "candidates must be a nonempty list, got shape (2, 1)"),
        (0.5, "candidates must be a nonempty list, got shape ()"),
    ], ids=["zero", "negative", "nan", "empty", "two-dimensional", "scalar"])
    def test_refuses_bad_candidates(self, candidates, message):
        # each candidate takes the bandwidth's rule: 0 divided by zero with a
        # RuntimeWarning, -1 was returned as the bandwidth, and an empty or
        # 2-D list escaped as numpy's ValueError
        rng = np.random.default_rng(3)
        grids = [random_density(rng, 5) for _ in range(4)]
        with pytest.raises(ValidationError) as caught:
            select_bandwidth(grids, rng.normal(size=4), candidates=candidates)
        assert str(caught.value) == message

    def test_degenerate_distances(self):
        d = cell_mass(4, {(0, 0): 1.0})
        grids = [GridDensity(d.weights.copy()) for _ in range(4)]
        with pytest.raises(DegenerateDistances):
            select_bandwidth(grids, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_grid_mismatch(self):
        rng = np.random.default_rng(6)
        grids = [random_density(rng, 4) for _ in range(3)] + [random_density(rng, 5)]
        with pytest.raises(GridMismatch, match="^item 3: grid of size 5 unlike item 0's 4$"):
            select_bandwidth(grids, rng.normal(size=4))

    def test_needs_four_points(self):
        rng = np.random.default_rng(4)
        grids = [random_density(rng, 4) for _ in range(3)]
        with pytest.raises(ValidationError):
            select_bandwidth(grids, np.zeros(3))

    def test_fit_smoother_keeps_all_training_data(self):
        rng = np.random.default_rng(5)
        grids = [random_density(rng, 5) for _ in range(8)]
        y = rng.normal(size=8)
        model = fit_smoother(grids, y)
        assert len(model.grids) == 8
        assert model.bandwidth > 0


def _reversed_pair_sums(a, b):
    # one pair at a time, each summed from its last cell to its first
    dist = np.array([[float(np.abs(x - z)[::-1].sum()) for z in b] for x in a])
    dist[dist >= 2.0 - baseline.L1_MAX_SNAP] = 2.0
    return dist


@pytest.mark.parametrize("seed", range(1000, 1010))
def test_answers_do_not_depend_on_summation_order(seed, monkeypatch):
    # on these regression datasets most pairs have disjoint supports, at the
    # largest distance and bandwidth 2; the snap makes their weight exactly 0
    # whichever order the L1 terms are summed in
    pairs = sample_regression_gaussians(100, seed)
    grids = [rasterize_gaussian(m, 50) for m, _ in pairs]
    y = np.array([v for _, v in pairs])

    def smooth():
        model = fit_smoother(grids[:50], y[:50], split_seed=seed)
        return model.bandwidth, [smoother_predict(model, g) for g in grids[50:]]

    h, preds = smooth()
    monkeypatch.setattr(baseline, "_l1_matrix", _reversed_pair_sums)
    h_loop, preds_loop = smooth()
    assert h == pytest.approx(h_loop, rel=1e-12)
    assert [p.fallback for p in preds] == [p.fallback for p in preds_loop]
    np.testing.assert_allclose([p.value for p in preds], [p.value for p in preds_loop],
                               rtol=0.0, atol=1e-12)
