import json
from pathlib import Path

import numpy as np
import pytest

from otgp.experiments import (
    RUNNERS,
    ConsistencyConfig,
    DisksConfig,
    PsdConfig,
    RegressionConfig,
    build_config,
    disk_response,
    run_consistency,
    run_disks,
    run_gaussian_regression,
    run_psd_diagnostic,
)


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(int), data[:, 1]


def read_table_csv(path) -> dict:
    rows = Path(path).read_text().strip().splitlines()
    out = {}
    for line in rows[1:]:
        method, rmse, q2, cic = line.split(",")
        out[method] = {"rmse": float(rmse), "q2": float(q2),
                       "cic": None if cic == "NA" else float(cic)}
    return out


class TestConsistency:
    def test_subsample_equal_to_population_recovers_reference(self):
        # n = population: the without-replacement subsample is a permutation
        # of the population, so the empirical barycenter is the reference
        cfg = ConsistencyConfig(seed=3, population=40, n_grid=(10, 40),
                                replicates=2, n_seeds=1)
        report = run_consistency(cfg)
        err_full = report["per_seed"]["3"]["mean_error"]["40"]
        assert err_full < 1e-6

    def test_error_decreases_and_config_echoed(self):
        cfg = ConsistencyConfig(seed=1, population=300, n_grid=(10, 40, 160),
                                replicates=4, n_seeds=2)
        report = run_consistency(cfg)
        pooled = [report["pooled_mean_error"][str(n)] for n in cfg.n_grid]
        assert pooled[0] > pooled[-1]
        assert report["config"]["population"] == 300
        gaps = report["per_seed"]["1"]["mean_prediction_gap"]
        assert gaps["10"] > gaps["160"]

    def test_deterministic(self):
        cfg = ConsistencyConfig(seed=5, population=60, n_grid=(10, 30),
                                replicates=2, n_seeds=1)
        a = run_consistency(cfg)
        b = run_consistency(cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_emitted_series_roundtrip(self, tmp_path):
        cfg = ConsistencyConfig(seed=1, population=50, n_grid=(10, 25),
                                replicates=2, n_seeds=1,
                                out_dir=str(tmp_path / "c"))
        report = run_consistency(cfg)
        ns, errs = read_series_csv(tmp_path / "c" / "errors.csv")
        assert ns.tolist() == [10, 25]
        np.testing.assert_allclose(
            errs, [report["pooled_mean_error"]["10"],
                   report["pooled_mean_error"]["25"]])


class TestRegression:
    def test_single_seed_bands(self):
        report = run_gaussian_regression(RegressionConfig(seed=2, n_seeds=1))
        gp = report["summary"]["gp_mle"]
        sm = report["summary"]["smoothing"]
        assert gp["rmse"] < sm["rmse"]
        assert gp["q2"] > 0.6
        assert 0.0 <= gp["cic"] <= 1.0

    def test_grid_path_variant(self):
        cfg = RegressionConfig(seed=1, n_total=24, n_train=12, grid_size=20,
                               n_seeds=1, grid_path=True)
        report = run_gaussian_regression(cfg)
        assert "gp_mle" in report["summary"]
        assert report["config"]["grid_path"] is True

    def test_deterministic_and_table_roundtrip(self, tmp_path):
        cfg = RegressionConfig(seed=3, n_total=20, n_train=10, grid_size=20,
                               n_seeds=1, out_dir=str(tmp_path / "r"))
        a = run_gaussian_regression(cfg)
        b = run_gaussian_regression(cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        table = read_table_csv(tmp_path / "r" / "table.csv")
        assert table["Kernel Smoothing"]["cic"] is None
        assert table["Gaussian Process"]["rmse"] == pytest.approx(
            a["summary"]["gp_mle"]["rmse"], abs=1e-4)

    def test_meta_reports_each_fit_jitter(self, tmp_path):
        # the Cholesky jitter of each fit goes to meta.json; report.json
        # stays as it was
        out = tmp_path / "r"
        report = run_gaussian_regression(RegressionConfig(seed=1, n_seeds=1, out_dir=str(out)))
        meta = json.loads((out / "meta.json").read_text())
        assert meta["fits"] == {"1": {"gp_mle": {"jitter": 0.0}, "gp_cv": {"jitter": 0.0}}}
        assert "jitter" not in (out / "report.json").read_text()
        assert json.loads((out / "report.json").read_text()) == report

    def test_constant_responses_recovered(self):
        # pipeline sanity at the component level: constant targets give
        # near-zero RMSE for both methods
        from otgp.baseline import SmootherModel, smoother_predict
        from otgp.gp import gp_fit_mle, gp_predict
        from otgp.kernels import embed_gaussians
        from otgp.measures import rasterize_gaussian, sample_regression_gaussians
        from otgp.barycenter import gaussian_barycenter_measure

        pairs = sample_regression_gaussians(16, seed=4)
        measures = [m for m, _ in pairs]
        const = 0.25
        y = np.full(8, const)
        reference, _ = gaussian_barycenter_measure(measures[:8])
        feats = embed_gaussians(measures, reference)
        with pytest.warns(UserWarning):
            model = gp_fit_mle(feats[:8], y)
        preds = gp_predict(model, feats[8:]).mean
        assert np.sqrt(np.mean((preds - const) ** 2)) < 0.05 * const

        grids = [rasterize_gaussian(m, 30) for m in measures]
        smodel = SmootherModel(grids=tuple(grids[:8]), y=y, bandwidth=2.5)
        svals = [smoother_predict(smodel, g).value for g in grids[8:]]
        assert np.sqrt(np.mean((np.array(svals) - const) ** 2)) < 1e-12


class TestPsd:
    def test_dichotomy_small(self):
        report = run_psd_diagnostic(PsdConfig(seed=1, n_points=50, n_seeds=2))
        assert report["all_naive_indefinite"]
        assert report["all_embed_psd"]
        assert report["all_naive_1d_psd"]

    def test_deterministic(self, tmp_path):
        # the report, and the spectra written beside it, in two directories
        runs = [PsdConfig(seed=2, n_points=30, n_seeds=1, out_dir=str(tmp_path / d))
                for d in ("a", "b")]
        a, b = (run_psd_diagnostic(cfg) for cfg in runs)
        del a["config"]["out_dir"], b["config"]["out_dir"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        for name in ("naive_spectrum_seed2.csv", "embed_spectrum_seed2.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Tiny configs that still run every stage of each experiment.
TINY = {
    "consistency": {"population": 30, "n_grid": [10, 30], "grid_points": 5,
                    "replicates": 2, "n_seeds": 2},
    "gaussian-regression": {"n_total": 12, "n_train": 8, "grid_size": 12, "n_seeds": 2},
    "psd": {"n_points": 20, "n_seeds": 2},
    "disks": {"n_train": 6, "n_test": 4, "grid_size": 12, "n_seeds": 2},
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_write_report_is_every_experiments_report(name, tmp_path):
    # each driver returns what report.json holds, the file depends on the
    # config and seed alone, and meta.json holds the wall clock and, for the
    # experiments that fit a GP, the fits
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        report = RUNNERS[name](build_config(name, seed=3, out_dir=out, overrides=TINY[name]))
        text = (out / "report.json").read_text()
        assert report == json.loads(text)
        assert report["seeds"] == [3, 4] and list(report["per_seed"]) == ["3", "4"]
        assert report["experiment"] == name and report["config"]["out_dir"] == str(out)
        texts.append(text.replace(json.dumps(str(out)), '"OUT"'))
        meta = json.loads((out / "meta.json").read_text())
        fits = {"gaussian-regression": {"gp_mle", "gp_cv"}, "disks": {"gp"}}.get(name)
        assert set(meta) == {"wall_clock_seconds"} | ({"fits"} if fits else set())
        if fits:
            assert list(meta["fits"]) == ["3", "4"]
            assert all(set(row) == fits for row in meta["fits"].values())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_headline_is_the_report_less_write_reports_own_keys(name, tmp_path, capsys):
    from otgp.cli import main

    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(TINY[name]))
    assert main(["experiment", name, "--seed", "3", "--out", str(out), "--config", str(cfg)]) == 0
    headline, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    report = json.loads((out / "report.json").read_text())
    for key in ("experiment", "config", "seeds", "per_seed"):
        del report[key]
    assert headline == report


class TestDisks:
    def test_small_pipeline(self, tmp_path):
        cfg = DisksConfig(seed=1, n_train=14, n_test=6, grid_size=20,
                          n_seeds=1, out_dir=str(tmp_path / "disks"))
        report = run_disks(cfg)
        row = report["per_seed"]["1"]
        assert row["gp"]["q2"] > 0.0
        assert row["gp"]["rmse"] < row["smoothing"]["rmse"]
        # the smoothing row of gaussian-regression, fallbacks to the training mean included
        assert set(row["smoothing"]) == {"rmse", "q2", "cic", "bandwidth", "fallbacks"}
        assert (tmp_path / "disks" / "report.json").exists()
        meta = json.loads((tmp_path / "disks" / "meta.json").read_text())
        assert set(meta["fits"]) == {"1"} and set(meta["fits"]["1"]) == {"gp"}
        assert set(meta["fits"]["1"]["gp"]) == {"jitter"}

    def test_byte_identical_reports(self, tmp_path):
        out = tmp_path / "disks"
        cfg = DisksConfig(seed=2, n_train=10, n_test=4, grid_size=16,
                          n_seeds=1, out_dir=str(out))
        outs = []
        for _ in range(2):
            run_disks(cfg)
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_identical_train_and_test_config_interpolates(self):
        # a test input identical to a training input predicts its response
        from otgp.gp import gp_fit_mle, gp_predict
        from otgp.kernels import embed_grids
        from otgp.barycenter import grid_barycenter
        from otgp.measures import DiskConfig, disks_to_grid

        rng = np.random.default_rng(7)
        cfgs = [DiskConfig(0.08, rng.uniform(0, 1, (5, 2))) for _ in range(8)]
        grids = [disks_to_grid(c, 16) for c in cfgs]
        dup = disks_to_grid(cfgs[0], 16)
        y = np.array([disk_response(g) for g in grids])
        bar = grid_barycenter(grids, lam=20.0).result
        feats = embed_grids(grids + [dup], bar, lam=20.0)
        model = gp_fit_mle(feats[:8], y)
        pred = gp_predict(model, feats[8])
        assert pred.mean[0] == pytest.approx(y[0], abs=1e-6)


class TestRandomStreams:
    def test_make_rng_draws_the_philox_streams_of_the_drivers(self):
        # the drivers seed Philox from a SeedSequence of an int tuple or of a
        # spawned child; make_rng must reproduce those streams bit for bit
        from otgp.rng import make_rng

        def philox(seed_parts):
            if not isinstance(seed_parts, np.random.SeedSequence):
                seed_parts = np.random.SeedSequence(seed_parts)
            return np.random.Generator(np.random.Philox(seed_parts))

        seeds = [(7, 0), (7, 2, 3), 11]
        seeds += np.random.SeedSequence(7).spawn(3)
        for seed in seeds:
            a, b = make_rng(seed), philox(seed)
            np.testing.assert_array_equal(a.uniform(size=64), b.uniform(size=64))
            np.testing.assert_array_equal(a.choice(500, size=20, replace=False),
                                          b.choice(500, size=20, replace=False))
            np.testing.assert_array_equal(a.standard_normal(16), b.standard_normal(16))


class TestBuildConfig:
    def test_defaults_and_overrides(self):
        cfg = build_config("consistency", seed=9, overrides={"population": 500})
        assert isinstance(cfg, ConsistencyConfig)
        assert cfg.population == 500
        assert cfg.seed == 9

    def test_tuple_coercion(self):
        cfg = build_config("consistency", seed=1, overrides={"n_grid": [10, 20]})
        assert cfg.n_grid == (10, 20)
        assert ConsistencyConfig(seed=1, n_grid=[20, 80]).n_grid == (20, 80)

    @pytest.mark.parametrize("make,pattern", [
        (lambda: PsdConfig(seed=1, n_seeds=0), "^n_seeds must be >= 1, got 0$"),
        (lambda: RegressionConfig(seed=1, n_train=100), "^n_train must be below n_total"),
        (lambda: DisksConfig(seed=1, n_seeds=0), "^n_seeds must be >= 1, got 0$"),
        (lambda: ConsistencyConfig(seed=1, n_grid=(20, 5000)),
         "^n_grid must not exceed population"),
        (lambda: PsdConfig(seed=-1), "^seed must be >= 0, got -1$"),
        (lambda: RegressionConfig(seed=1, n_seeds=True), "^n_seeds must be an integer, got True$"),
    ], ids=["psd-no-seeds", "regression-no-test-set", "disks-no-seeds",
            "consistency-n-above-population", "negative-seed", "bool-count"])
    def test_a_config_built_in_python_keeps_the_file_rules(self, make, pattern):
        # each ran, or reported a summary over no seeds, before the rules moved
        # from build_config into the config types
        from otgp.errors import ValidationError

        with pytest.raises(ValidationError, match=pattern):
            make()

    def test_size_validation(self):
        from otgp.errors import ValidationError

        with pytest.raises(ValidationError):
            build_config("psd", seed=1, overrides={"n_points": 0})
        with pytest.raises(ValidationError):
            build_config("disks", seed=1, overrides={"radius": -0.1})
        with pytest.raises(ValidationError):
            build_config("consistency", seed=1, overrides={"n_grid": [0, 10]})

    @pytest.mark.parametrize("name,overrides,pattern", [
        ("disks", {"grid_size": 12.5}, "grid_size must be an integer, got 12.5"),
        ("gaussian-regression", {"grid_size": 12.0}, "grid_size must be an integer"),
        ("disks", {"n_train": True}, "n_train must be an integer, got True"),
        ("consistency", {"n_grid": [20, 80.5]}, r"n_grid must be an integer, got \(20, 80.5\)"),
        ("consistency", {"n_grid": []}, "n_grid must be a list like"),
        ("consistency", {"n_grid": 20}, "n_grid must be a list like"),
        ("psd", {"entry_range": [0.1]}, "entry_range must be a list like"),
        ("psd", {"entry_range": [0.1, "x"]}, "entry_range 'x' is not a number"),
        ("disks", {"lam": False}, "lam False is not a number"),
        ("disks", {"radius": float("inf")}, r"^radius must be finite and within ±2\^256, got inf$"),
        ("gaussian-regression", {"grid_path": "false"},
         "grid_path must be true or false, got 'false'"),
        ("consistency", {"normalize_population": 0},
         r"^unknown config keys \['normalize_population'\]$"),
        ("gaussian-regression", {"n_train": 100}, "n_train must be below n_total, got 100 >= 100"),
        ("gaussian-regression", {"n_total": 20, "n_train": 30}, "n_train must be below n_total"),
        ("consistency", {"population": 300}, "n_grid must not exceed population"),
        ("consistency", {"population": 40, "n_grid": [10, 40], "grid_points": 40},
         "grid_points must be below population, got 40 >= 40"),
        ("consistency", {"n_grid": [20, 0]}, r"^n_grid must be >= 1, got \(20, 0\)$"),
        ("disks", {"lam": 0}, "^lam must be finite and positive, got 0$"),
        ("psd", ["n_seeds"], r"^config must be a JSON object, got \['n_seeds'\]$"),
        ("psd", [], r"^config must be a JSON object, got \[\]$"),
        ("psd", 5, "^config must be a JSON object, got 5$"),
        ("psd", None, "^config must be a JSON object, got None$"),
        ("psd", "x", "^config must be a JSON object, got 'x'$"),
        ("psd", {"seed": "x"}, r"^config keys \['seed'\] come from the command line"),
        ("psd", {"seed": 2.5}, r"^config keys \['seed'\] come from the command line"),
        ("psd", {"seed": 7}, r"^config keys \['seed'\] come from the command line"),
        ("disks", {"out_dir": 5}, r"^config keys \['out_dir'\] come from the command line"),
        ("disks", {"out_dir": "x", "seed": 2}, r"^config keys \['out_dir', 'seed'\] come"),
    ])
    def test_config_that_would_misbehave_is_refused(self, name, overrides, pattern):
        from otgp.errors import ValidationError

        with pytest.raises(ValidationError, match=pattern):
            build_config(name, seed=1, overrides=overrides)

    def test_numbers_of_either_type_fill_float_fields(self):
        cfg = build_config("disks", seed=1, overrides={"lam": 20, "radius": 0.1})
        assert (cfg.lam, cfg.radius) == (20, 0.1)
        cfg = build_config("consistency", seed=1, overrides={
            "population": 40, "n_grid": [10, 40], "grid_points": 39})
        assert cfg.n_grid == (10, 40)
