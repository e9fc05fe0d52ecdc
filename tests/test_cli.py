import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otgp
from otgp import dataio
from otgp.barycenter import gaussian_barycenter_measure
from otgp.cli import build_parser, main
from otgp.errors import MAGNITUDE, MAGNITUDE_RULE
from otgp.kernels import KernelParams, embed_gaussians, gram_matrix
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

    @pytest.mark.parametrize("argv", [["kernel-matrix", "--input", "x.json"],
                                      ["fit", "--data", "d.json", "--out", "m", "--method", "ml"],
                                      ["experiment", "psd", "--seed", "one", "--out", "o"],
                                      ["no-such-command"]])
    def test_bad_flags_exit_2_from_the_one_parser(self, tmp_path, capsys, argv):
        # the parser is built once per process; each parse starts clean
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert build_parser() is build_parser()
        src = tmp_path / "grids"
        write_grid_dir(src)
        assert main(["barycenter", "--input", str(src), "--out", str(tmp_path / "o")]) == 0

    def test_validation_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "items": [
            {"mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}]}))
        out = tmp_path / "out"
        code = main(["barycenter", "--input", str(bad), "--out", str(out)])
        assert code == 2

    def test_empty_gaussian_set_is_validation_error(self, tmp_path):
        src = tmp_path / "set.json"
        src.write_text(json.dumps({"dim": 2, "items": []}))
        assert main(["barycenter", "--input", str(src), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("option,message", [
        ("--tol=-1", "tol must be finite and >= 0, got -1.0"),
        ("--tol=nan", f"tol must be {MAGNITUDE_RULE}, got nan"),
        ("--tol=inf", f"tol must be {MAGNITUDE_RULE}, got inf"),
        ("--max-iter=0", "max_iter must be >= 1, got 0"),
    ])
    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_bad_solver_option_is_validation_error(self, tmp_path, capsys, kind, option,
                                                   message):
        # refused before the first iteration, not reported as a failure to converge
        src = tmp_path / "in"
        (write_gaussian_set if kind == "gaussian" else write_grid_dir)(src)
        out = tmp_path / "out"
        assert main(["barycenter", "--input", str(src), "--out", str(out), option]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_gaussian_set_is_read_once(self, tmp_path, monkeypatch):
        src = tmp_path / "set.json"
        write_gaussian_set(src, n=5)
        reads, read_file = [], dataio.read_file

        def counted(*args, **kwargs):
            reads.append(args)
            return read_file(*args, **kwargs)

        monkeypatch.setattr(dataio, "read_file", counted)
        assert main(["kernel-matrix", "--input", str(src),
                     "--theta", "1,1,1,0.001", "--out", str(tmp_path / "gram.csv")]) == 0
        assert reads == [(src,)]

    def test_gram_file_is_what_savetxt_writes(self, tmp_path):
        src = tmp_path / "set.json"
        ms = write_gaussian_set(src, n=9)
        out = tmp_path / "gram.csv"
        assert main(["kernel-matrix", "--input", str(src),
                     "--theta", "1.3,0.7,1.5,0.001", "--out", str(out)]) == 0
        bary, _ = gaussian_barycenter_measure(ms)
        gram = gram_matrix(embed_gaussians(ms, bary), KernelParams(1.3, 0.7, 1.5, 0.001))
        buf = io.BytesIO()
        np.savetxt(buf, gram, fmt="%.17g", delimiter=",")
        assert out.read_bytes() == buf.getvalue()

    def test_reference_file(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src, n=4)
        ref = tmp_path / "ref.json"
        dataio.save_gaussian_set(ref, [GaussianMeasure([0.5, 0.5], 0.02 * np.eye(2))])
        out = tmp_path / "gram.csv"
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--reference", str(ref), "--out", str(out)]) == 0

    def test_reference_of_another_kind_is_validation_error(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src, n=4)
        ref = tmp_path / "ref.csv"
        dataio.save_grid_csv(ref, GridDensity(np.full((6, 6), 1.0 / 36)))
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--reference", str(ref), "--out", str(tmp_path / "gram.csv")]) == 2

    @pytest.mark.parametrize("which", ["input", "reference"])
    def test_unusable_input_or_reference_is_validation_error(self, tmp_path, capsys, which):
        # a JSON object without "items" is no input file; a reference file
        # holding two measures is no reference
        src, ref = tmp_path / "set.json", tmp_path / "ref.json"
        write_gaussian_set(src, n=4)
        write_gaussian_set(ref, n=2)
        if which == "input":
            src.write_text(json.dumps({"measures": []}))
        code = main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--reference", str(ref), "--out", str(tmp_path / "gram.csv")])
        assert code == 2
        assert capsys.readouterr().err == {
            "input": f"validation error: unrecognized input file {src}\n",
            "reference": "validation error: reference file must hold exactly one measure\n",
        }[which]

    def test_bad_theta_is_validation_error(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src)
        code = main(["kernel-matrix", "--input", str(src),
                     "--theta", "1,1", "--out", str(tmp_path / "g.csv")])
        assert code == 2

    def test_non_numeric_theta_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "set.json"
        write_gaussian_set(src)
        code = main(["kernel-matrix", "--input", str(src),
                     "--theta", "a,1,1,0", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "'a,1,1,0'" in capsys.readouterr().err

    @pytest.mark.parametrize("theta,message", [
        ("nan,1,2,0", "amplitude must be a finite float >= 0, got nan"),
        ("1,inf,2,0", f"rate must be {MAGNITUDE_RULE}, got inf"),
        ("inf,1,2,0", "amplitude must be a finite float >= 0, got inf"),
        ("1,1,-inf,0", f"exponent must be {MAGNITUDE_RULE}, got -inf"),
        ("1,1,2,nan", "nugget must be a finite float >= 0, got nan"),
        ("1e200,1,2,0", "amplitude^2 + nugget must be a finite float >= 0, got inf"),
        ("1e154,1,2,1.7e308", "amplitude^2 + nugget must be a finite float >= 0, got inf"),
        ("1,1e308,2,0", f"rate must be {MAGNITUDE_RULE}, got 1e+308"),
    ])
    def test_non_finite_theta_is_validation_error(self, tmp_path, capsys, theta, message):
        # a rate of 1e308 once overflowed in rate * distance^exponent
        src, out = tmp_path / "set.json", tmp_path / "g.csv"
        write_gaussian_set(src)
        code = main(["kernel-matrix", "--input", str(src), "--theta", theta, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("variance,code", [(1e308, 2), (MAGNITUDE, 0)])
    def test_covariance_beyond_the_bound_is_validation_error(self, tmp_path, capsys, variance,
                                                            code):
        # diag(1e308, 0.01) overflowed in ot._sandwich_roots, or was refused as
        # "matrix has non-finite entries", a barycenter iterate's words
        src, out = tmp_path / "set.json", tmp_path / "g.csv"
        write_gaussian_set(src, n=4)
        payload = json.loads(src.read_text())
        payload["items"][2]["cov"] = [[variance, 0.0], [0.0, 0.01]]
        src.write_text(json.dumps(payload))
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,2,0",
                     "--out", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err == (
                f"validation error: item 2: cov must be {MAGNITUDE_RULE}, got 1e+308\n")
        else:
            assert np.isfinite(np.loadtxt(out, delimiter=",")).all()

    def test_mixed_dimension_set_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "set.json"
        items = [{"mean": [0.5, 0.5], "cov": (0.02 * np.eye(2)).tolist()}] * 3
        items.append({"mean": [0.5, 0.5, 0.5], "cov": (0.02 * np.eye(3)).tolist()})
        src.write_text(json.dumps({"items": items}))
        code = main(["kernel-matrix", "--input", str(src),
                     "--theta", "1,1,1,0.001", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error: item 3: ")

    def test_bad_penalty_on_grid_inputs_is_validation_error(self, tmp_path):
        src = tmp_path / "grids"
        write_grid_dir(src)
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--lam", "0", "--out", str(tmp_path / "k.csv")]) == 2

    def disk_list_error(self, tmp_path, capsys, rows) -> str:
        src = tmp_path / "d.json"
        src.write_text(json.dumps(rows))
        code = main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--out", str(tmp_path / "g.csv")])
        assert code == 2
        return capsys.readouterr().err

    def test_disk_row_without_radius_is_validation_error(self, tmp_path, capsys):
        err = self.disk_list_error(tmp_path, capsys, [{"centers": [[0.5, 0.5]]}])
        assert err == "validation error: item 0: missing 'radius'\n"

    def test_disk_row_not_an_object_is_validation_error(self, tmp_path, capsys):
        ok = {"radius": 0.1, "centers": [[0.5, 0.5]]}
        err = self.disk_list_error(tmp_path, capsys, [ok, [1, 2]])
        assert err == "validation error: item 1: missing 'radius'\n"

    def test_non_numeric_disk_radius_is_validation_error(self, tmp_path, capsys):
        err = self.disk_list_error(tmp_path, capsys, [{"radius": "x", "centers": [[0.5, 0.5]]}])
        assert err == "validation error: item 0: radius 'x' is not a number\n"

    def test_nan_disk_center_is_validation_error(self, tmp_path, capsys):
        # otgp kernel-matrix --input d.json, Python's json reading the NaN literal
        err = self.disk_list_error(tmp_path, capsys, [{"radius": 0.1, "centers": [[math.nan, 0.5]]},
                                                      {"radius": 0.1, "centers": [[0.3, 0.5]]}])
        assert err == f"validation error: item 0: centers must be {MAGNITUDE_RULE}, got nan\n"


class TestEmptyInputs:
    NO_INPUT = "validation error: need at least one input\n"

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_kernel_matrix(self, tmp_path, capsys, with_reference):
        src = tmp_path / "set.json"
        src.write_text(json.dumps({"items": []}))
        ref = tmp_path / "ref.json"
        dataio.save_gaussian_set(ref, [GaussianMeasure([0.5, 0.5], 0.02 * np.eye(2))])
        out = tmp_path / "gram.csv"
        reference = ["--reference", str(ref)] if with_reference else []
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     *reference, "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.NO_INPUT
        assert not out.exists()

    def test_grid_directory_without_csv_files(self, tmp_path, capsys):
        grids = tmp_path / "grids"
        grids.mkdir()
        (grids / "notes.txt").write_text("no grids here")
        assert main(["kernel-matrix", "--input", str(grids), "--theta", "1,1,1,0.001",
                     "--out", str(tmp_path / "gram.csv")]) == 2
        assert capsys.readouterr().err == f"validation error: no CSV grid files under {grids}\n"

    def test_fit(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text("[]")
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == self.NO_INPUT

    def test_predict(self, tmp_path, capsys):
        ms = write_gaussian_set(tmp_path / "set.json", n=6)
        data = tmp_path / "data.json"
        dataio.save_dataset(data, ms, [float(m.mean[0]) for m in ms])
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(empty),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.NO_INPUT
        assert not out.exists()


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

    @pytest.mark.parametrize("tol,rule", [("nan", MAGNITUDE_RULE), ("inf", MAGNITUDE_RULE),
                                          ("-inf", MAGNITUDE_RULE), ("-1", "finite and >= 0")])
    def test_tolerance_out_of_range_is_validation_error(self, tmp_path, capsys, tol, rule):
        # NaN used to count no negatives and -1 to count positive eigenvalues
        src = tmp_path / "set.json"
        write_gaussian_set(src, n=20)
        out = tmp_path / "diag"
        assert main(["diagnose-psd", "--naive-w2", str(src), "--out", str(out),
                     f"--tol={tol}"]) == 2
        assert f"tol must be {rule}, got {float(tol)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,text,shape", [
        ("--gram", "1,2,3\n4,5,6\n", "(2, 3)"),
        ("--gram", "", "(0, 1)"),
        ("--naive-w2", '{"dim": 2, "items": []}', "(0, 0)"),
    ], ids=["gram-2x3", "gram-empty", "naive-w2-empty"])
    @pytest.mark.filterwarnings("ignore:loadtxt")  # numpy's warning on the empty file
    def test_matrix_not_square_or_empty_is_validation_error(self, tmp_path, capsys, flag,
                                                             text, shape):
        # these ended in a ValueError or an IndexError traceback
        src = tmp_path / ("in.json" if flag == "--naive-w2" else "in.csv")
        src.write_text(text)
        out = tmp_path / "diag"
        assert main(["diagnose-psd", flag, str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("validation error: expected a nonempty square "
                                           f"matrix, got shape {shape}\n")
        assert not out.exists()

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

    def test_gaussian_without_cov_is_validation_error(self, tmp_path, capsys):
        rows = [{"input": {"kind": "gaussian", "mean": [0.5, 0.5],
                           "cov": (0.0004 * np.eye(2)).tolist()}, "y": 1.0} for _ in range(4)]
        del rows[2]["input"]["cov"]
        data = tmp_path / "data.json"
        data.write_text(json.dumps(rows))
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == "validation error: item 2: missing 'cov'\n"

    def test_nan_disk_center_is_validation_error(self, tmp_path, capsys):
        # otgp fit --data d.json on a disk dataset, Python's json reading NaN
        rows = [{"input": {"kind": "disks", "radius": 0.1, "centers": [[0.2 + 0.1 * i, 0.5]]},
                 "y": float(i)} for i in range(6)]
        rows[3]["input"]["centers"][0][1] = math.nan
        data, model = tmp_path / "d.json", tmp_path / "m.json"
        data.write_text(json.dumps(rows))
        assert main(["fit", "--data", str(data), "--grid-size", "12", "--out", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: item 3: centers must be {MAGNITUDE_RULE}, got nan\n")
        assert not model.exists()

    @pytest.mark.parametrize("method", ["mle", "cv"])
    @pytest.mark.parametrize("scale", [1e155, 1e170])
    def test_responses_too_large_to_model_are_validation_error(self, tmp_path, capsys,
                                                              method, scale):
        rng = np.random.default_rng(3)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2)) for _ in range(8)]
        data, model = tmp_path / "data.json", tmp_path / "m.json"
        dataio.save_dataset(data, ms, [scale * m.mean[0] for m in ms])
        assert main(["fit", "--data", str(data), "--method", method, "--out", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: item 0: y must be {MAGNITUDE_RULE}, got {scale * ms[0].mean[0]}\n")
        assert not model.exists()

    @pytest.mark.parametrize("method", ["mle", "cv"])
    @pytest.mark.parametrize("scale", [1e-200, 1e-300])
    def test_responses_too_small_to_fit_are_a_numerical_failure(self, tmp_path, capsys,
                                                               method, scale):
        # varying responses, so not the degenerate model of constant ones
        rng = np.random.default_rng(3)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2)) for _ in range(8)]
        data, model = tmp_path / "data.json", tmp_path / "m.json"
        dataio.save_dataset(data, ms, [scale * (m.mean[0] - 0.5) for m in ms])
        assert main(["fit", "--data", str(data), "--method", method, "--out", str(model)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not model.exists()

    @pytest.mark.parametrize("method", ["mle", "cv"])
    def test_fit_of_responses_at_the_bound(self, tmp_path, method):
        # the MLE refused responses of norm beyond about 3.5e145 at n = 12; both
        # fits now take any responses within +-2^256, and a model, whose
        # amplitude and nugget grow with them, is read back by predict
        rng = np.random.default_rng(3)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2)) for _ in range(8)]
        x = np.array([m.mean[0] - 0.5 for m in ms])
        preds = []
        for scale in (1.0, MAGNITUDE):
            data, model, out = (tmp_path / f"{name}-{scale:g}" for name in ("d", "m", "p"))
            dataio.save_dataset(data, ms, scale * x / np.abs(x).max())
            assert main(["fit", "--data", str(data), "--method", method, "--out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--data", str(data),
                         "--out", str(out)]) == 0
            preds.append(np.loadtxt(out, delimiter=",", skiprows=1))
        assert np.isfinite(preds[1]).all()
        # neither search sees the scale: both search the ratio nugget/amplitude^2
        np.testing.assert_allclose(preds[1][:, 0], MAGNITUDE * preds[0][:, 0], rtol=1e-6)

    @pytest.mark.parametrize("kinds", [("grid",), ("grid", "disks", "gaussian")],
                             ids=["grid", "mixed"])
    def test_grid_rows_fit_and_predict(self, tmp_path, kinds):
        # "kind": "grid" rows join the embedding as they are; the other rows
        # are rasterized onto the --grid-size grid, which the grid rows must share
        from otgp.measures import DiskConfig

        rng = np.random.default_rng(8)

        def row(kind):
            if kind == "grid":
                w = rng.uniform(0.1, 1.0, (12, 12))
                return GridDensity(w / w.sum())
            if kind == "disks":
                return DiskConfig(0.1, rng.uniform(0.2, 0.8, (2, 2)))
            return GaussianMeasure(rng.uniform(0.3, 0.7, 2), 0.01 * np.eye(2))

        inputs = [row(kinds[i % len(kinds)]) for i in range(9)]
        ys = list(rng.normal(size=len(inputs)))
        data, model = tmp_path / "data.json", tmp_path / "model.json"
        dataio.save_dataset(data, inputs, ys)
        assert main(["fit", "--data", str(data), "--grid-size", "12",
                     "--out", str(model)]) == 0
        assert json.loads(model.read_text())["kind"] == "grid"
        order = rng.permutation(len(inputs))
        shuffled, preds = tmp_path / "shuffled.json", tmp_path / "preds.csv"
        dataio.save_dataset(shuffled, [inputs[i] for i in order], [ys[i] for i in order])
        assert main(["predict", "--model", str(model), "--data", str(shuffled),
                     "--out", str(preds)]) == 0
        rows = np.loadtxt(preds, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 0], np.array(ys)[order], atol=1e-9)
        if len(kinds) > 1:  # rasterized rows on another grid than the grid rows
            assert main(["fit", "--data", str(data), "--grid-size", "10",
                         "--out", str(tmp_path / "m10.json")]) == 2

    @pytest.mark.parametrize("order,message", [
        (("grid", "disks", "gaussian"), "item 1: grid of size 10 unlike item 0's 12"),
        (("disks", "gaussian", "grid"), "item 2: grid of size 12 unlike item 0's 10"),
    ], ids=["grid-first", "grid-last"])
    def test_grid_row_off_the_grid_size_is_named(self, tmp_path, capsys, order, message):
        # the error names the first row off the first row's grid, and both sides
        from otgp.measures import DiskConfig

        rows = {"grid": GridDensity(np.full((12, 12), 1 / 144)),
                "disks": DiskConfig(0.1, [[0.3, 0.4], [0.6, 0.5]]),
                "gaussian": GaussianMeasure([0.5, 0.4], 0.01 * np.eye(2))}
        data, model = tmp_path / "data.json", tmp_path / "model.json"
        dataio.save_dataset(data, [rows[kind] for kind in order], [0.0, 1.0, 2.0])
        assert main(["fit", "--data", str(data), "--grid-size", "10", "--out", str(model)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not model.exists()

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

    def test_predict_embeds_at_the_fitted_penalty(self, tmp_path):
        # a grid model predicts its own training inputs only when they are
        # embedded at the penalty it was fitted at, which the model file keeps
        from otgp.measures import DiskConfig

        rng = np.random.default_rng(6)
        disks = [DiskConfig(0.1, rng.uniform(0.2, 0.8, (3, 2))) for _ in range(12)]
        ys = [float(c.centers[:, 0].mean()) for c in disks]
        data = tmp_path / "data.json"
        dataio.save_dataset(data, disks, ys)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--grid-size", "20", "--lam", "60",
                     "--out", str(model_path)]) == 0
        assert json.loads(model_path.read_text())["lam"] == 60.0
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(preds)]) == 0
        rows = np.loadtxt(preds, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 0], ys, atol=1e-9)

    def test_predict_in_another_order_reproduces_the_training_responses(self, tmp_path):
        # fit and predict both embed grid inputs from cold Sinkhorn starts, so
        # a training input gets the same row in any batch order and the
        # nugget fires on it
        from otgp.measures import DiskConfig

        rng = np.random.default_rng(7)
        disks = [DiskConfig(0.1, rng.uniform(0.2, 0.8, (3, 2))) for _ in range(12)]
        ys = [float(c.centers[:, 0].mean() - c.centers[:, 1].std()) for c in disks]
        data = tmp_path / "data.json"
        dataio.save_dataset(data, disks, ys)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--grid-size", "20",
                     "--out", str(model_path)]) == 0
        order = rng.permutation(12)
        shuffled = tmp_path / "shuffled.json"
        dataio.save_dataset(shuffled, [disks[i] for i in order], [ys[i] for i in order])
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(shuffled),
                     "--out", str(preds)]) == 0
        rows = np.loadtxt(preds, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 0], np.array(ys)[order], atol=1e-9)

    def test_predict_refuses_a_version_3_model(self, tmp_path):
        rng = np.random.default_rng(5)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2))
              for _ in range(6)]
        data = tmp_path / "data.json"
        dataio.save_dataset(data, ms, [float(m.mean[0]) for m in ms])
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        model_path.write_text(json.dumps({**payload, "version": 3}))
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

    def test_cv_fit_keeps_the_searched_ratio(self, tmp_path, capsys):
        # the model file keeps the calibrated nugget at the ratio the search
        # scored, inside the fit box
        from otgp.gp import FIT_BOX

        rng = np.random.default_rng(3)
        ms = [GaussianMeasure(rng.uniform(0.2, 0.8, 2), 0.0004 * np.eye(2))
              for _ in range(10)]
        data, model = tmp_path / "data.json", tmp_path / "cv.json"
        dataio.save_dataset(data, ms, [float(m.mean[0]) for m in ms])
        assert main(["fit", "--data", str(data), "--method", "cv", "--out", str(model)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fitted theta:") and out.count("\n") == 1
        theta = json.loads(model.read_text())["theta"]
        assert FIT_BOX[2, 0] <= theta["nugget"] / theta["amplitude"] ** 2 <= FIT_BOX[2, 1]


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

    @pytest.mark.parametrize("grid_size", ["0", "1", "-3"])
    def test_grid_size_below_two_is_validation_error(self, tmp_path, capsys, grid_size):
        # both rasterizers refuse it alike, whichever row comes first
        from otgp.measures import DiskConfig

        rng = np.random.default_rng(4)
        inputs = [GaussianMeasure(rng.uniform(0.3, 0.7, 2), 0.01 * np.eye(2)),
                  DiskConfig(0.1, rng.uniform(0.2, 0.8, (2, 2)))] * 2
        data, model = tmp_path / "data.json", tmp_path / "model.json"
        for rows in (inputs, inputs[::-1]):
            dataio.save_dataset(data, rows, [0.0, 1.0, 2.0, 3.0])
            assert main(["fit", "--data", str(data), "--grid-size", grid_size,
                         "--out", str(model)]) == 2
            assert capsys.readouterr().err == ("validation error: grid_size must be >= 2, "
                                               f"got {grid_size}\n")
        assert not model.exists()


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

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["experiment", "psd", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "validation error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["experiment", "psd", "--seed", "1",
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2

    def test_grid_size_below_two_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_size": 1, "n_seeds": 1}))
        code = main(["experiment", "gaussian-regression", "--seed", "1",
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == "validation error: grid_size must be >= 2, got 1\n"

    @pytest.mark.parametrize("keys", [{"seed": "x"}, {"seed": 2.5}, {"seed": 7}, {"out_dir": 5}])
    def test_seed_or_out_dir_in_a_config_is_validation_error(self, tmp_path, capsys, keys):
        # both come from --seed and --out; a config value neither crashes nor
        # silently replaces them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_seeds": 1, **keys}))
        code = main(["experiment", "psd", "--seed", "1",
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error: config keys")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ['["n_seeds"]', "5", "null", "[]", '"x"'])
    def test_config_that_is_no_json_object_is_validation_error(self, tmp_path, capsys, text):
        # a list or scalar neither crashes nor runs the experiment on defaults
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["experiment", "psd", "--seed", "1",
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error: config must be a JSON object")
        assert not (tmp_path / "x").exists()


class TestUnreadableFiles:
    """A missing, unreadable or malformed input, config or CSV file is a
    validation error (exit 2), not a traceback."""

    @staticmethod
    def write(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_missing_config(self, tmp_path, capsys):
        code = main(["experiment", "psd", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_directory_as_config(self, tmp_path):
        assert main(["experiment", "psd", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--config", str(tmp_path)]) == 2

    def test_truncated_config(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "cfg.json", '{"n_seeds": 1')
        code = main(["experiment", "psd", "--seed", "1", "--out", str(tmp_path / "x"),
                     "--config", cfg])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_binary_input(self, tmp_path):
        src = tmp_path / "set.json"
        src.write_bytes(b"\xff\xfe\x00\x81")
        assert main(["barycenter", "--input", str(src), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_gram_csv(self, tmp_path, capsys):
        gram = self.write(tmp_path, "gram.csv", "1,0\n0,oops\n")
        assert main(["diagnose-psd", "--gram", gram, "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_malformed_grid_csv(self, tmp_path):
        grids = tmp_path / "grids"
        write_grid_dir(grids)
        (grids / "d1.csv").write_text("0.5,0.5\n0.5\n")
        assert main(["barycenter", "--input", str(grids), "--out", str(tmp_path / "o")]) == 2

    def test_missing_model_and_reference(self, tmp_path):
        src = tmp_path / "set.json"
        write_gaussian_set(src)
        assert main(["predict", "--model", str(tmp_path / "missing.json"), "--data", str(src),
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert main(["kernel-matrix", "--input", str(src), "--theta", "1,1,1,0.001",
                     "--reference", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "k.csv")]) == 2


def test_import_defers_heavy_scipy_modules(tmp_path):
    # every scipy import in the package sits inside the function that uses
    # it, so starting the CLI loads no scipy module, and diagnose-psd, which
    # needs only numpy, loads none in either mode. A fresh interpreter, so
    # that the test session's own imports cannot hide one.
    gaussians, gram = tmp_path / "set.json", tmp_path / "gram.csv"
    write_gaussian_set(gaussians)
    np.savetxt(gram, np.eye(4), delimiter=",")
    program = (
        "import sys; sys.path.insert(0, sys.argv[1]); import otgp.cli; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print(loaded()); "
        "assert otgp.cli.main(['diagnose-psd', '--naive-w2', sys.argv[2], '--out', sys.argv[4]]) == 0; "
        "assert otgp.cli.main(['diagnose-psd', '--gram', sys.argv[3], '--out', sys.argv[5]]) == 0; "
        "print(loaded())")
    src = str(Path(otgp.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", program, src, str(gaussians), str(gram),
                           str(tmp_path / "naive"), str(tmp_path / "gram")],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
