import json

import numpy as np
import pytest

from otgp import dataio
from otgp.errors import ValidationError
from otgp.gp import gp_fit_mle, gp_predict
from otgp.kernels import embed_gaussians, embed_grids
from otgp.measures import DiskConfig, GaussianMeasure, GridDensity
from otgp.ot import inverse_grid_map


def random_density(rng, g):
    w = rng.uniform(0.1, 1.0, size=(g, g))
    return GridDensity(w / w.sum())


class TestRoundTrips:
    def test_gaussian_set(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        ms = [GaussianMeasure(rng.normal(size=3), a @ a.T + np.eye(3))
              for _ in range(4)]
        path = tmp_path / "set.json"
        dataio.save_gaussian_set(path, ms)
        back = dataio.load_gaussian_set(path)
        for m, b in zip(ms, back):
            np.testing.assert_array_equal(m.mean, b.mean)
            np.testing.assert_array_equal(m.cov, b.cov)

    def test_grid_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        d = random_density(rng, 6)
        path = tmp_path / "grid.csv"
        dataio.save_grid_csv(path, d)
        back = dataio.load_grid_csv(path)
        np.testing.assert_array_equal(back.weights, d.weights)

    def test_grid_dir_sorted(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = [random_density(rng, 4) for _ in range(3)]
        for i, d in enumerate(ds):
            dataio.save_grid_csv(tmp_path / f"g{i}.csv", d)
        back = dataio.load_grid_dir(tmp_path)
        assert len(back) == 3
        np.testing.assert_array_equal(back[1].weights, ds[1].weights)

    def test_disk_config(self, tmp_path):
        cfg = DiskConfig(0.05, [[0.2, 0.3], [0.6, 0.7]])
        path = tmp_path / "disks.json"
        dataio.save_disk_config(path, cfg)
        back = dataio.load_disk_config(path)
        assert back.radius == cfg.radius
        np.testing.assert_array_equal(back.centers, cfg.centers)

    def test_dataset_mixed_kinds(self, tmp_path):
        rng = np.random.default_rng(3)
        inputs = [
            GaussianMeasure([0.4, 0.5], 0.01 * np.eye(2)),
            random_density(rng, 4),
            DiskConfig(0.1, [[0.5, 0.5]]),
        ]
        path = tmp_path / "data.json"
        dataio.save_dataset(path, inputs, [1.0, 2.0, 3.0])
        back_inputs, ys = dataio.load_dataset(path)
        assert ys == [1.0, 2.0, 3.0]
        assert isinstance(back_inputs[0], GaussianMeasure)
        assert isinstance(back_inputs[1], GridDensity)
        assert isinstance(back_inputs[2], DiskConfig)

    def test_dataset_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"input": {"kind": "mystery"}, "y": 1.0}]))
        with pytest.raises(ValidationError):
            dataio.load_dataset(path)

    def test_assignment_json_keys(self, tmp_path):
        rng = np.random.default_rng(4)
        bar = random_density(rng, 4)
        mu = random_density(rng, 4)
        a = inverse_grid_map(mu, bar, lam=20.0)
        payload = dataio.assignment_to_json(a)
        assert set(payload) >= {"targets", "weights"}
        back = dataio.assignment_from_json(payload)
        np.testing.assert_array_equal(back.target_index, a.target_index)
        np.testing.assert_allclose(back.source_weights, a.source_weights)

    def test_predictions_csv_header(self, tmp_path):
        from otgp.gp import PredictionResult

        path = tmp_path / "preds.csv"
        dataio.save_predictions_csv(
            path, PredictionResult(np.array([1.0]), np.array([0.25]),
                                   (np.array([0.1]), np.array([1.9]))))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mean,variance,lo,hi"
        assert lines[1].startswith("1,0.25,")
        back = dataio.load_predictions_csv(path)
        np.testing.assert_allclose(back, [[1.0, 0.25, 0.1, 1.9]])

    def test_eigenvalues_csv_roundtrip(self, tmp_path):
        path = tmp_path / "eig.csv"
        vals = np.array([-0.5, 0.25, 3.75])
        dataio.save_eigenvalues_csv(path, vals)
        np.testing.assert_array_equal(dataio.load_eigenvalues_csv(path), vals)


class TestModelRoundTrip:
    def test_gaussian_model(self, tmp_path):
        rng = np.random.default_rng(5)
        reference = GaussianMeasure([0.0, 0.0], 0.01 * np.eye(2))
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2))
              for _ in range(8)]
        feats = embed_gaussians(ms, reference)
        y = np.array([m.mean[0] for m in ms])
        model = gp_fit_mle(feats, y)
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        back = dataio.load_model(path)
        query = embed_gaussians([GaussianMeasure([0.4, 0.6], 0.01 * np.eye(2))],
                                back.features.reference)
        a = gp_predict(model, query)
        b = gp_predict(back, query)
        assert a.mean[0] == pytest.approx(b.mean[0], abs=1e-12)
        assert a.variance[0] == pytest.approx(b.variance[0], abs=1e-12)

    def test_grid_model(self, tmp_path):
        rng = np.random.default_rng(6)
        densities = [random_density(rng, 5) for _ in range(6)]
        from otgp.barycenter import grid_barycenter

        bar = grid_barycenter(densities, lam=20.0).result
        feats = embed_grids(densities, bar, lam=20.0)
        y = rng.normal(size=6)
        model = gp_fit_mle(feats, y)
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        back = dataio.load_model(path)
        pred_a = gp_predict(model, feats[2])
        pred_b = gp_predict(back, back.features[2])
        assert pred_a.mean[0] == pytest.approx(pred_b.mean[0], abs=1e-12)

    def test_version_2_stores_x_and_reference(self, tmp_path):
        rng = np.random.default_rng(7)
        reference = GaussianMeasure([0.1, 0.2], 0.01 * np.eye(2))
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2)) for _ in range(5)]
        model = gp_fit_mle(embed_gaussians(ms, reference), rng.normal(size=5))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["reference"] == {"mean": [0.1, 0.2], "cov": reference.cov.tolist()}
        back = dataio.load_model(path)
        np.testing.assert_array_equal(back.features.X, model.features.X)
        np.testing.assert_array_equal(back.distances, model.distances)

    def test_file_without_version_is_refused(self, tmp_path):
        rng = np.random.default_rng(8)
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2)) for _ in range(4)]
        model = gp_fit_mle(embed_gaussians(ms, ms[0]), rng.normal(size=4))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        payload = json.loads(path.read_text())
        del payload["version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            dataio.load_model(path)
