"""Acceptance suite: every exit criterion at its stated tolerance, one
printed PASS/FAIL line per clause."""

import itertools
import time

import numpy as np
from scipy.stats import ortho_group

from otgp.barycenter import gaussian_barycenter
from otgp.experiments import (
    ConsistencyConfig,
    DisksConfig,
    PsdConfig,
    RegressionConfig,
    run_consistency,
    run_disks,
    run_gaussian_regression,
    run_psd_diagnostic,
)
from otgp.gp import gp_fit_mle, gp_predict
from otgp.kernels import KernelParams, embed_gaussians, gram_matrix, pairwise_distances
from otgp.measures import EmpiricalSample, GaussianMeasure, GridDensity
from otgp.ot import (
    assignment_ot,
    gaussian_transport_map,
    gaussian_w2,
    map_l2_distance_gaussian,
    sinkhorn_plan,
)


def check(label: str, condition: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if condition else 'FAIL'} {detail}")
    return condition


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.2 * np.eye(d))


class TestCriterion1PsdDichotomy:
    def test_psd_dichotomy(self):
        t0 = time.time()
        report = run_psd_diagnostic(PsdConfig(seed=1, n_points=100, n_seeds=5))
        elapsed = time.time() - t0
        ok = True
        ok &= check("1a naive exp(-W2^2) indefinite on every 2-D seed",
                    report["all_naive_indefinite"],
                    str([report["per_seed"][s]["naive_negatives"] for s in
                         map(str, report["seeds"])]))
        ok &= check("1b embedding Gram PSD on every seed",
                    report["all_embed_psd"])
        ok &= check("1c naive kernel PSD in 1-D",
                    report["all_naive_1d_psd"])
        ok &= check("1d runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f}s")
        assert ok


class TestCriterion2ConsistencyTrend:
    def test_consistency_trend(self):
        # Expected first-to-last mean error ratio for n: 20 -> 320 drawn
        # without replacement from 2000 is sqrt(16) * sqrt(1 - 320/2000)^-1
        # ~ 4.4 plus a small-n bias boost; measured ~4.5-4.9 across seeds,
        # so the >= 5x clause sits above the statistic this configuration
        # can deliver on average. Asserted as stated regardless.
        t0 = time.time()
        report = run_consistency(ConsistencyConfig(seed=1))
        elapsed = time.time() - t0
        ratio = report["error_ratio_first_to_last"]
        slope = report["loglog_slope"]
        ok = True
        ok &= check("2a error falls >= 5x from n=20 to n=320", ratio >= 5.0,
                    f"ratio={ratio:.2f}")
        ok &= check("2b log-log slope in [-0.9, -0.2]",
                    -0.9 <= slope <= -0.2, f"slope={slope:.3f}")
        ok &= check("2c runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f}s")
        assert ok


class TestCriterion3RegressionBenchmark:
    def test_regression_benchmark(self):
        t0 = time.time()
        report = run_gaussian_regression(RegressionConfig(seed=1, n_seeds=5))
        elapsed = time.time() - t0
        s = report["summary"]
        ok = True
        ok &= check("3a GP(MLE) mean RMSE < smoothing mean RMSE",
                    s["gp_mle"]["rmse"] < s["smoothing"]["rmse"],
                    f"gp={s['gp_mle']['rmse']:.4f} smooth={s['smoothing']['rmse']:.4f}")
        ok &= check("3b GP mean Q2 >= 0.6", s["gp_mle"]["q2"] >= 0.6,
                    f"q2={s['gp_mle']['q2']:.3f} (cv: {s['gp_cv']['q2']:.3f})")
        ok &= check("3c CIC in [0.75, 1.0]",
                    0.75 <= s["gp_mle"]["cic"] <= 1.0,
                    f"cic={s['gp_mle']['cic']:.3f} (cv: {s['gp_cv']['cic']:.3f})")
        ok &= check("3d runtime < 10 min", elapsed < 600.0, f"{elapsed:.1f}s")
        assert ok


class TestCriterion4ClosedFormOracles:
    def test_map_distance_monte_carlo(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(20):
            d = 2 if trial % 2 == 0 else 3
            si, sj, sbar = (random_spd(rng, d) for _ in range(3))
            _, inv_i = gaussian_transport_map(si, sbar)
            _, inv_j = gaussian_transport_map(sj, sbar)
            x = rng.standard_normal((1_000_000, d)) @ np.linalg.cholesky(sbar).T
            diff = x @ (inv_i - inv_j).T
            mc = float((diff**2).sum(axis=1).mean())
            val = map_l2_distance_gaussian(si, sj, sbar)
            worst = max(worst, abs(val - mc) / mc)
        assert check("4a map distance matches Monte-Carlo within 1%",
                     worst < 0.01, f"worst rel err {worst:.4f}")

    def test_one_dimensional_embedding_distance(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(50):
            si, sj, sb = rng.uniform(0.5, 3.0, size=3)
            ref = GaussianMeasure([0.0], [[sb**2]])
            f = embed_gaussians(
                [GaussianMeasure([0.0], [[si**2]]), GaussianMeasure([0.0], [[sj**2]])],
                ref)
            worst = max(worst, abs(pairwise_distances(f)[0, 1] - abs(si - sj)))
        assert check("4b 1-D embedding distance equals |sigma_i - sigma_j|",
                     worst < 1e-10, f"worst abs err {worst:.2e}")

    def test_barycenter_residual_and_commuting_forms(self):
        rng = np.random.default_rng(44)
        covs = [random_spd(rng, 3) for _ in range(6)]
        rep = gaussian_barycenter(covs, tol=1e-9)
        ok = check("4c barycenter fixed-point residual <= 1e-9",
                   rep.residual <= 1e-9, f"residual={rep.residual:.2e}")

        # commuting diagonal families reduce componentwise to 1-D barycenters
        worst = 0.0
        for _ in range(10):
            diags = rng.uniform(0.5, 4.0, size=(5, 3))
            got = gaussian_barycenter([np.diag(row) for row in diags]).result
            expected = np.diag(np.sqrt(diags).mean(axis=0) ** 2)
            worst = max(worst, float(np.abs(got - expected).max()))
        ok &= check("4d commuting families match 1-D closed forms",
                    worst < 1e-8, f"worst abs err {worst:.2e}")
        assert ok


class TestCriterion5PropertySuites:
    def test_property_suites(self):
        t0 = time.time()
        rng = np.random.default_rng(45)

        worst_slack = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            ms = [GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
                  for _ in range(3)]
            dab, dbc = gaussian_w2(ms[0], ms[1]), gaussian_w2(ms[1], ms[2])
            dac = gaussian_w2(ms[0], ms[2])
            assert dab >= 0 and dab == gaussian_w2(ms[1], ms[0])
            worst_slack = max(worst_slack, dac - (dab + dbc))
        ok = check("5a W2 metric axioms on 1000 triples",
                   worst_slack <= 1e-9, f"worst triangle slack {worst_slack:.2e}")

        worst = 0.0
        for d in (2, 3):
            si, sj, sb = (random_spd(rng, d) for _ in range(3))
            u = ortho_group.rvs(d, random_state=rng)
            base = map_l2_distance_gaussian(si, sj, sb)
            rot = map_l2_distance_gaussian(u @ si @ u.T, u @ sj @ u.T, u @ sb @ u.T)
            worst = max(worst, abs(base - rot))
            zero = np.zeros(d)
            theta = KernelParams(1.0, 1.0, 1.0, 1e-4)
            g_base = gram_matrix(embed_gaussians(
                [GaussianMeasure(zero, si), GaussianMeasure(zero, sj)],
                GaussianMeasure(zero, sb)), theta)
            g_rot = gram_matrix(embed_gaussians(
                [GaussianMeasure(zero, u @ si @ u.T), GaussianMeasure(zero, u @ sj @ u.T)],
                GaussianMeasure(zero, u @ sb @ u.T)), theta)
            worst = max(worst, float(np.abs(g_base - g_rot).max()))
        ok &= check("5b orthogonal invariance of distances and Grams",
                    worst <= 1e-8, f"worst abs err {worst:.2e}")

        worst = 0.0
        for seed in range(3):
            r2 = np.random.default_rng(seed)
            wa = r2.uniform(0.1, 1.0, size=(6, 6))
            wb = r2.uniform(0.1, 1.0, size=(6, 6))
            plan = sinkhorn_plan(GridDensity(wa / wa.sum()), GridDensity(wb / wb.sum()),
                                 lam=20.0, tol=1e-9)
            worst = max(worst,
                        float(np.abs(plan.plan.sum(axis=1) - plan.source_weights).max()),
                        float(np.abs(plan.plan.sum(axis=0) - plan.target_weights).max()))
        ok &= check("5c Sinkhorn marginal residuals <= 1e-8", worst <= 1e-8,
                    f"worst residual {worst:.2e}")

        worst = 0.0
        for m in (2, 3, 4, 5, 6):
            pts_a, pts_b = rng.normal(size=(m, 2)), rng.normal(size=(m, 2))
            _, w2 = assignment_ot(EmpiricalSample(pts_a), EmpiricalSample(pts_b))
            best = min(((pts_a - pts_b[list(p)]) ** 2).sum()
                       for p in itertools.permutations(range(m)))
            worst = max(worst, abs(w2**2 * m - best))
        ok &= check("5d assignment OT equals brute force for m <= 6",
                    worst <= 1e-10, f"worst cost gap {worst:.2e}")

        reference = GaussianMeasure([0.0, 0.0], 0.01 * np.eye(2))
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2))
              for _ in range(10)]
        feats = embed_gaussians(ms, reference)
        y = np.array([m.mean[0] - m.mean[1] ** 2 for m in ms])
        model = gp_fit_mle(feats, y)
        interp_err = float(np.abs(gp_predict(model, feats).mean - y).max())
        ok &= check("5e GP interpolates training data", interp_err < 1e-6,
                    f"worst abs err {interp_err:.2e}")

        from otgp.kernels import gram_from_distances
        from scipy.linalg import cho_solve, cholesky
        from otgp.gp import GpModel

        theta = KernelParams(1.0, 1.5, 1.0, 1e-4)
        query = embed_gaussians([GaussianMeasure([0.5, 0.5], 0.01 * np.eye(2))],
                                reference)
        prev = np.inf
        monotone = True
        for n in range(3, 10):
            dist = pairwise_distances(feats[:n])
            r = gram_from_distances(dist, theta)
            chol = cholesky(r, lower=True)
            sub = GpModel(features=feats[:n], y=y[:n], theta=theta, distances=dist,
                          chol=chol, alpha=cho_solve((chol, True), y[:n]))
            var = gp_predict(sub, query).variance[0]
            monotone &= var <= prev + 1e-8
            prev = var
        ok &= check("5f posterior variance monotone in training size", monotone)

        elapsed = time.time() - t0
        ok &= check("5g property suites run < 2 min", elapsed < 120.0,
                    f"{elapsed:.1f}s")
        assert ok


class TestCriterion6DisksPipeline:
    def test_disks_pipeline(self):
        # responses are a synthetic surrogate, not proprietary solver
        # outputs; no published benchmark values are asserted here
        report = run_disks(DisksConfig(seed=1, n_seeds=3))
        s = report["summary"]
        ok = True
        ok &= check("6a GP Q2 > 0 on the synthetic response",
                    s["gp_mean_q2"] > 0.0, f"q2={s['gp_mean_q2']:.3f}")
        ok &= check("6b GP RMSE < smoothing RMSE over 3 seeds",
                    s["gp_mean_rmse"] < s["smoothing_mean_rmse"],
                    f"gp={s['gp_mean_rmse']:.4f} smooth={s['smoothing_mean_rmse']:.4f}")
        assert ok

    def test_disks_deterministic(self, tmp_path):
        out = tmp_path / "disks"
        cfg = DisksConfig(seed=3, n_train=10, n_test=4, grid_size=16,
                          n_seeds=1, out_dir=str(out))
        run_disks(cfg)
        first = (out / "report.json").read_bytes()
        run_disks(cfg)
        assert check("6c same seed gives byte-identical report",
                     first == (out / "report.json").read_bytes())
