import json

import numpy as np

from otgp import dataio
from otgp.cli import main
from otgp.measures import GaussianMeasure, GridDensity


def write_gaussian_set(path, n=6, seed=0, scale=0.02):
    rng = np.random.default_rng(seed)
    ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), scale * np.eye(2) * rng.uniform(0.5, 1.5))
          for _ in range(n)]
    dataio.save_gaussian_set(path, ms)
    return ms


def write_grid_dir(path, n=3, g=6, seed=1):
    path.mkdir()
    rng = np.random.default_rng(seed)
    ds = []
    for i in range(n):
        w = rng.uniform(0.1, 1.0, size=(g, g))
        d = GridDensity(w / w.sum())
        dataio.save_grid_csv(path / f"d{i}.csv", d)
        ds.append(d)
    return ds


class TestBarycenterCommand:
    def test_gaussian_inputs(self, tmp_path, capsys):
        src = tmp_path / "set.json"
        write_gaussian_set(src)
        out = tmp_path / "out"
        assert main(["barycenter", "--input", str(src), "--out", str(out)]) == 0
        [bary] = dataio.load_gaussian_set(out / "barycenter.json")
        report = json.loads((out / "report.json").read_text())
        assert report["residual"] <= 1e-9
        assert bary.dim == 2

    def test_grid_inputs(self, tmp_path):
        src = tmp_path / "grids"
        write_grid_dir(src)
        out = tmp_path / "out"
        assert main(["barycenter", "--input", str(src), "--out", str(out)]) == 0
        bary = dataio.load_grid_csv(out / "barycenter.csv")
        assert abs(bary.weights.sum() - 1.0) < 1e-9
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] >= 1

    def test_numerical_failure_exit_code(self, tmp_path):
        src = tmp_path / "grids"
        write_grid_dir(src)
        out = tmp_path / "out"
        code = main(["barycenter", "--input", str(src), "--out", str(out),
                     "--tol", "1e-15", "--max-iter", "1"])
        assert code == 3

    def test_validation_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "items": [
            {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}]}))
        out = tmp_path / "out"
        code = main(["barycenter", "--input", str(bad), "--out", str(out)])
        assert code == 2


class TestKernelMatrixCommand:
    def test_gaussian_gram(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src, n=5)
        out = tmp_path / "gram.csv"
        assert main(["kernel-matrix", "--input", str(src),
                     "--theta", "1,1,1,0.001", "--out", str(out)]) == 0
        gram = np.loadtxt(out, delimiter=",")
        assert gram.shape == (5, 5)
        np.testing.assert_allclose(gram, gram.T)
        np.testing.assert_allclose(np.diag(gram), 1.001)

    def test_reference_file(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src, n=4)
        ref = tmp_path / "ref.json"
        dataio.save_gaussian_set(ref, [GaussianMeasure([0.5, 0.5], 0.02 * np.eye(2))])
        out = tmp_path / "gram.csv"
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--reference", str(ref), "--out", str(out)]) == 0

    def test_bad_theta_is_validation_error(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src)
        code = main(["kernel-matrix", "--input", str(src),
                     "--theta", "1,1", "--out", str(tmp_path / "g.csv")])
        assert code == 2


class TestDiagnosePsdCommand:
    def test_naive_w2_reports_negatives(self, tmp_path):
        from otgp.measures import sample_gaussian_population

        src = tmp_path / "set.json"
        dataio.save_gaussian_set(
            src, sample_gaussian_population(60, 2, seed=(1, 0), entry_range=(0.1, 0.7)))
        out = tmp_path / "diag"
        assert main(["diagnose-psd", "--naive-w2", str(src), "--out", str(out),
                     "--tol", "1e-6"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["negatives"] >= 1
        lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
        assert lines[0] == "eigenvalue"
        assert len(lines) == 61

    def test_gram_csv_input(self, tmp_path):
        gram = tmp_path / "gram.csv"
        np.savetxt(gram, np.eye(4), delimiter=",")
        out = tmp_path / "diag"
        assert main(["diagnose-psd", "--gram", str(gram), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["negatives"] == 0


class TestFitPredictCommands:
    def test_gaussian_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2))
              for _ in range(12)]
        ys = [float(m.mean[0] - m.mean[1] ** 2) for m in ms]
        data = tmp_path / "data.json"
        dataio.save_dataset(data, ms, ys)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--method", "mle",
                     "--out", str(model_path)]) == 0

        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(preds)]) == 0
        rows = np.loadtxt(preds, delimiter=",", skiprows=1)
        assert rows.shape == (12, 4)
        # training-point predictions reproduce the responses
        np.testing.assert_allclose(rows[:, 0], ys, atol=1e-6)

    def test_predict_refuses_model_without_version(self, tmp_path):
        rng = np.random.default_rng(5)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2))
              for _ in range(6)]
        data = tmp_path / "data.json"
        dataio.save_dataset(data, ms, [float(m.mean[0]) for m in ms])
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        del payload["version"]
        model_path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "preds.csv")]) == 2

    def test_cv_method(self, tmp_path):
        rng = np.random.default_rng(3)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2))
              for _ in range(10)]
        ys = [float(m.mean[0]) for m in ms]
        data = tmp_path / "data.json"
        dataio.save_dataset(data, ms, ys)
        assert main(["fit", "--data", str(data), "--method", "cv",
                     "--out", str(tmp_path / "m.json")]) == 0


class TestCorrelatedGaussianOnGrid:
    def test_fit_and_predict_exit_2(self, tmp_path):
        # Gaussians mixed with disk inputs are rasterized; a correlated
        # covariance cannot be, so fit and predict report a validation error
        from otgp.measures import DiskConfig

        rng = np.random.default_rng(4)
        inputs = [GaussianMeasure(rng.uniform(0.3, 0.7, 2), 0.01 * np.eye(2))
                  for _ in range(5)]
        inputs += [DiskConfig(0.1, rng.uniform(0.2, 0.8, (2, 2))) for _ in range(5)]
        ys = list(rng.normal(size=len(inputs)))
        data = tmp_path / "data.json"
        dataio.save_dataset(data, inputs, ys)
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--grid-size", "12",
                     "--out", str(model)]) == 0

        correlated = GaussianMeasure([0.5, 0.5], 0.01 * np.array([[1.0, 0.9], [0.9, 1.0]]))
        bad = tmp_path / "bad.json"
        dataio.save_dataset(bad, inputs + [correlated], ys + [0.0])
        assert main(["fit", "--data", str(bad), "--grid-size", "12",
                     "--out", str(tmp_path / "m2.json")]) == 2
        assert main(["predict", "--model", str(model), "--data", str(bad),
                     "--out", str(tmp_path / "p.csv")]) == 2


class TestExperimentCommand:
    def test_psd_small(self, tmp_path):
        out = tmp_path / "exp"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_points": 40, "n_seeds": 2}))
        assert main(["experiment", "psd", "--seed", "1", "--out", str(out),
                     "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_naive_indefinite"] is True
        assert report["all_embed_psd"] is True
        assert (out / "naive_spectrum_seed1.csv").exists()

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["experiment", "psd", "--seed", "1",
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2
