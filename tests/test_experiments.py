import json

import numpy as np
import pytest

from otgp.experiments import (
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
        from otgp.experiments import read_series_csv

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
        from otgp.experiments import read_table_csv

        cfg = RegressionConfig(seed=3, n_total=20, n_train=10, grid_size=20,
                               n_seeds=1, out_dir=str(tmp_path / "r"))
        a = run_gaussian_regression(cfg)
        b = run_gaussian_regression(cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        table = read_table_csv(tmp_path / "r" / "table.csv")
        assert table["Kernel Smoothing"]["cic"] is None
        assert table["Gaussian Process"]["rmse"] == pytest.approx(
            a["summary"]["gp_mle"]["rmse"], abs=1e-4)

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

    def test_deterministic(self):
        cfg = PsdConfig(seed=2, n_points=30, n_seeds=1)
        a = run_psd_diagnostic(cfg)
        b = run_psd_diagnostic(cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestDisks:
    def test_small_pipeline(self, tmp_path):
        cfg = DisksConfig(seed=1, n_train=14, n_test=6, grid_size=20,
                          n_seeds=1, out_dir=str(tmp_path / "disks"))
        report = run_disks(cfg)
        row = report["per_seed"]["1"]
        assert row["gp"]["q2"] > 0.0
        assert row["gp"]["rmse"] < row["smoothing"]["rmse"]
        assert (tmp_path / "disks" / "report.json").exists()

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

    def test_size_validation(self):
        from otgp.errors import ValidationError

        with pytest.raises(ValidationError):
            build_config("psd", seed=1, overrides={"n_points": 0})
        with pytest.raises(ValidationError):
            build_config("disks", seed=1, overrides={"radius": -0.1})
        with pytest.raises(ValidationError):
            build_config("consistency", seed=1, overrides={"n_grid": [0, 10]})
