import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

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
from otgp.experiments import disk_response
from otgp.measures import (DiskConfig, GridDensity, disks_to_grid, rasterize_gaussian,
                           sample_regression_gaussians)
from otgp.rng import make_rng


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


def _reversed_pair_sums(a, b, cells=None):
    # one pair at a time, each summed from its last cell to its first, over
    # whole rows: cells only leaves out terms that are |0 - 0|
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


def full_row_l1(a, b):
    """Snapped L1 distances summed by cdist over whole rows."""
    dist = cdist(a, b, "cityblock")
    dist[dist >= 2.0 - baseline.L1_MAX_SNAP] = 2.0
    return dist


def smooth_with_checked_distances(monkeypatch, train, y, queries, split_seed=0):
    """Fit and predict with every _l1_matrix call checked bit for bit against
    full_row_l1; the cells of each call."""
    used, l1_matrix = [], baseline._l1_matrix

    def checked(a, b, cells=None):
        dist = l1_matrix(a, b, cells)
        assert dist.tobytes() == full_row_l1(a, b).tobytes()
        used.append(cells)
        return dist

    monkeypatch.setattr(baseline, "_l1_matrix", checked)
    model = fit_smoother(train, y, split_seed=split_seed)
    for query in queries:
        smoother_predict(model, query)
    return used


class TestOccupiedCells:
    # cdist adds a pair's |a - b| terms in column order, so summing only the
    # cells either side occupies leaves out +0 terms and keeps every bit

    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_regression_rows_sum_their_cells_to_the_same_bits(self, seed, monkeypatch):
        pairs = sample_regression_gaussians(100, seed)
        grids = [rasterize_gaussian(m, 50) for m, _ in pairs]
        y = np.array([v for _, v in pairs])
        used = smooth_with_checked_distances(monkeypatch, grids[:50], y[:50], grids[50:], seed)
        # the training rows cover a few hundred of 2500 cells
        assert len(used) == 51 and all(cells is not None for cells in used)
        assert np.count_nonzero(used[0]) < 500

    def test_disks_rows_keep_whole_rows(self, monkeypatch):
        # disk unions together cover nearly every cell: the whole rows are
        # summed, and the gathered sum would give the same bits
        rng = make_rng((1000, 0))
        grids = [disks_to_grid(DiskConfig(0.05, rng.uniform(0, 1, size=(10, 2))), 50)
                 for _ in range(60)]
        y = np.array([disk_response(g) for g in grids])
        rows = np.array([g.weights.ravel() for g in grids])
        a, b = rows[40:], rows[:40]
        gathered = baseline._l1_matrix(a, b, (a != 0).any(0) | (b != 0).any(0))
        assert gathered.tobytes() == full_row_l1(a, b).tobytes()
        used = smooth_with_checked_distances(monkeypatch, grids[:40], y[:40], grids[40:], 1000)
        assert len(used) == 21 and all(cells is None for cells in used)

    def test_a_query_outside_the_training_cells(self, monkeypatch):
        pairs = sample_regression_gaussians(20, 1000)
        grids = [rasterize_gaussian(m, 50) for m, _ in pairs]
        y = np.array([v for _, v in pairs])
        cells = SmootherModel(tuple(grids[:12]), y[:12], bandwidth=1.0).cells
        inside, outside = np.flatnonzero(cells)[3], np.flatnonzero(~cells)[7]
        weights = np.zeros(2500)
        weights[[inside, outside]] = 0.3, 0.7
        query = GridDensity(weights.reshape(50, 50))
        used = smooth_with_checked_distances(monkeypatch, grids[:12], y[:12],
                                             [query, *grids[12:]])
        assert used[1][outside] and not cells[outside]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows_with_a_tenth_of_cells_occupied(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(size=(30, 2500)) * (rng.random((30, 2500)) < 0.1)
        rows /= rows.sum(axis=1, keepdims=True)
        a, b = rows[:10], rows[10:]
        for cells in ((a != 0).any(0) | (b != 0).any(0), baseline._occupied(np.vstack([a, b]))):
            if cells is not None:
                assert baseline._l1_matrix(a, b, cells).tobytes() == full_row_l1(a, b).tobytes()
        assert baseline._occupied(rows) is None  # 30 such rows cover most cells
        few = rows[:4]  # 4 rows cover about a third
        assert baseline._l1_matrix(few, few, baseline._occupied(few)).tobytes() == \
            full_row_l1(few, few).tobytes()
