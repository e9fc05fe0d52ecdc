"""Experiment drivers: kernel consistency under empirical barycenters, the
Gaussian regression benchmark, the PSD dichotomy diagnostic, and the
disk-union pipeline on a synthetic response.

Every run is bit-reproducible from (config, seed): all substreams derive from
the base seed, and reports embed the fully resolved config.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .barycenter import gaussian_barycenter, gaussian_barycenter_measure, grid_barycenter
from .baseline import fit_smoother, smoother_predict
from .errors import ValidationError
from .gp import chol_with_jitter, gp_fit_cv, gp_fit_mle, gp_predict, metrics, posterior_mean_variance
from .kernels import (
    KernelParams,
    embed_gaussians,
    embed_grids,
    gram_from_distances,
    naive_w2_gram,
    pairwise_distances,
    psd_diagnostic,
)
from .measures import (
    DiskConfig,
    GaussianMeasure,
    disks_to_grid,
    gaussian_cov_stack,
    rasterize_gaussian,
    sample_gaussian_population,
    sample_regression_gaussians,
)
from .rng import make_rng

# The unit square-exponential kernel exp(-d^2).
UNIT_SE = KernelParams(1.0, 1.0, 2.0, 0.0)


def _seed_list(base: int, count: int) -> list[int]:
    return [base + i for i in range(count)]


def write_report(out_dir, report: dict, wall_clock: float) -> Path:
    """Deterministic report.json plus a meta.json sidecar for timing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    (out / "meta.json").write_text(json.dumps({"wall_clock_seconds": wall_clock}))
    return out / "report.json"


# ---------------------------------------------------------------------------
# consistency of the empirical kernel (Gaussian populations)

@dataclass
class ConsistencyConfig:
    seed: int
    d: int = 4
    n_grid: tuple[int, ...] = (20, 80, 160, 320)
    population: int = 2000
    grid_points: int = 10
    replicates: int = 16
    n_seeds: int = 3
    normalize_population: bool = True
    out_dir: str | None = None


def _se_gram_from_covs(covs: np.ndarray, bar_cov: np.ndarray) -> np.ndarray:
    """Square-exponential (unit parameters) Gram over zero-mean Gaussians
    embedded against the given barycenter covariance."""
    zero = np.zeros(covs.shape[-1])
    reference = GaussianMeasure(zero, bar_cov)
    feats = embed_gaussians([GaussianMeasure(zero, c) for c in covs], reference)
    return gram_from_distances(pairwise_distances(feats), UNIT_SE)


def run_consistency(cfg: ConsistencyConfig) -> dict:
    """Empirical-vs-population kernel error over growing subsample sizes.

    For each seed: draw a population, take its barycenter as the population
    reference, and for each n average the Gram error over replicate
    subsamples (drawn without replacement, so n = population recovers the
    reference exactly). Also tracks the gap between GP predictions under the
    empirical and population kernels.
    """
    t0 = time.time()
    seeds = _seed_list(cfg.seed, cfg.n_seeds)
    per_seed = {}
    for seed in seeds:
        pop_rng, grid_rng, y_rng = (make_rng(c) for c in np.random.SeedSequence(seed).spawn(3))
        pop = gaussian_cov_stack(cfg.population, cfg.d, pop_rng)
        if cfg.normalize_population:
            # unit mean eigenvalue, else unit-scale kernel parameters see
            # only saturated distances
            pop *= cfg.d / np.trace(pop, axis1=1, axis2=2).mean()
        bar_true = gaussian_barycenter(pop).result
        grid_idx = grid_rng.choice(cfg.population, size=cfg.grid_points, replace=False)
        test_idx = grid_rng.choice(
            np.setdiff1d(np.arange(cfg.population), grid_idx), size=1)[0]
        m_true = _se_gram_from_covs(pop[grid_idx], bar_true)
        y = y_rng.standard_normal(cfg.grid_points)
        mean_true = _gp_mean_at(pop, grid_idx, test_idx, bar_true, y)

        errors = {}
        pred_gaps = {}
        for ni, n in enumerate(cfg.n_grid):
            errs, gaps = [], []
            for r in range(cfg.replicates):
                child = make_rng((seed, ni, r))
                idx = child.choice(cfg.population, size=n, replace=False)
                bar_n = gaussian_barycenter(pop[idx]).result
                m_n = _se_gram_from_covs(pop[grid_idx], bar_n)
                errs.append(float(np.linalg.norm(m_n - m_true)))
                gaps.append(abs(_gp_mean_at(pop, grid_idx, test_idx, bar_n, y) - mean_true))
            errors[n] = errs
            pred_gaps[n] = gaps
        per_seed[seed] = {
            "errors": {str(n): errors[n] for n in cfg.n_grid},
            "mean_error": {str(n): float(np.mean(errors[n])) for n in cfg.n_grid},
            "mean_prediction_gap": {str(n): float(np.mean(pred_gaps[n])) for n in cfg.n_grid},
        }

    pooled = [
        float(np.mean([e for s in seeds for e in per_seed[s]["errors"][str(n)]]))
        for n in cfg.n_grid
    ]
    slope = float(np.polyfit(np.log(cfg.n_grid), np.log(pooled), 1)[0])
    pooled_sq = [
        float(np.mean([e**2 for s in seeds for e in per_seed[s]["errors"][str(n)]]))
        for n in cfg.n_grid
    ]
    report = {
        "experiment": "consistency",
        "config": asdict(cfg),
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "pooled_mean_error": dict(zip(map(str, cfg.n_grid), pooled)),
        "error_ratio_first_to_last": pooled[0] / pooled[-1],
        "squared_error_ratio_first_to_last": pooled_sq[0] / pooled_sq[-1],
        "loglog_slope": slope,
    }
    if cfg.out_dir:
        write_report(cfg.out_dir, report, time.time() - t0)
        _write_series_csv(Path(cfg.out_dir) / "errors.csv", cfg.n_grid, pooled)
    return report


def _gp_mean_at(pop, grid_idx, test_idx, bar_cov, y) -> float:
    zero = np.zeros(pop.shape[-1])
    reference = GaussianMeasure(zero, bar_cov)
    feats = embed_gaussians(
        [GaussianMeasure(zero, pop[i]) for i in list(grid_idx) + [test_idx]], reference)
    gram = gram_from_distances(pairwise_distances(feats), UNIT_SE)
    r_mat, r_vec = gram[:-1, :-1], gram[-1, :-1]
    chol, _ = chol_with_jitter(r_mat)
    from scipy.linalg import cho_solve

    alpha = cho_solve((chol, True), y)
    mean, _ = posterior_mean_variance(chol, alpha, r_vec, 1.0)
    return mean


def _write_series_csv(path, ns, values) -> None:
    rows = ["n,error"] + [f"{n},{v:.17g}" for n, v in zip(ns, values)]
    Path(path).write_text("\n".join(rows) + "\n")


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


# ---------------------------------------------------------------------------
# Gaussian regression benchmark

@dataclass
class RegressionConfig:
    seed: int
    n_total: int = 100
    n_train: int = 50
    grid_size: int = 50
    n_seeds: int = 5
    lam: float = 20.0
    grid_path: bool = False  # embed via the grid pipeline instead of closed forms
    out_dir: str | None = None


def _fit_predict_gp(train_feats, y_train, test_feats, fitter):
    model = fitter(train_feats, y_train)
    pred = gp_predict(model, test_feats)
    return model, pred.mean, pred.variance


def run_gaussian_regression(cfg: RegressionConfig) -> dict:
    """Head-to-head of GP (MLE and CV fits) against kernel smoothing on the
    synthetic Gaussian-input response, averaged over seeds."""
    t0 = time.time()
    seeds = _seed_list(cfg.seed, cfg.n_seeds)
    per_seed = {}
    for seed in seeds:
        pairs = sample_regression_gaussians(cfg.n_total, seed)
        measures = [m for m, _ in pairs]
        responses = np.array([y for _, y in pairs])
        tr = slice(0, cfg.n_train)
        te = slice(cfg.n_train, cfg.n_total)
        y_train, y_test = responses[tr], responses[te]
        grids = [rasterize_gaussian(m, cfg.grid_size) for m in measures]

        if cfg.grid_path:
            reference = grid_barycenter(grids[tr], lam=cfg.lam).result
            feats = embed_grids(grids, reference, lam=cfg.lam)
        else:
            reference, _ = gaussian_barycenter_measure(measures[tr])
            feats = embed_gaussians(measures, reference)
        train_feats, test_feats = feats[tr], feats[te]

        row = {}
        for label, fitter in (("gp_mle", gp_fit_mle), ("gp_cv", gp_fit_cv)):
            model, means, variances = _fit_predict_gp(train_feats, y_train, test_feats, fitter)
            m = metrics(means, y_test, variances)
            row[label] = {"rmse": m.rmse, "q2": m.q2, "cic": m.cic,
                          "theta": list(model.theta.as_array())}

        smoother = fit_smoother(grids[tr], y_train, split_seed=seed)
        sm_preds = [smoother_predict(smoother, g) for g in grids[te]]
        m = metrics([p.value for p in sm_preds], y_test)
        row["smoothing"] = {"rmse": m.rmse, "q2": m.q2, "cic": None,
                            "bandwidth": smoother.bandwidth,
                            "fallbacks": sum(p.fallback for p in sm_preds)}
        per_seed[seed] = row

    def agg(method, key):
        return float(np.mean([per_seed[s][method][key] for s in seeds]))

    summary = {
        "smoothing": {"rmse": agg("smoothing", "rmse"), "q2": agg("smoothing", "q2"),
                      "cic": "NA"},
        "gp_mle": {k: agg("gp_mle", k) for k in ("rmse", "q2", "cic")},
        "gp_cv": {k: agg("gp_cv", k) for k in ("rmse", "q2", "cic")},
    }
    report = {
        "experiment": "gaussian-regression",
        "config": asdict(cfg),
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "summary": summary,
    }
    if cfg.out_dir:
        write_report(cfg.out_dir, report, time.time() - t0)
        _write_table_csv(Path(cfg.out_dir) / "table.csv", summary)
    return report


def _write_table_csv(path, summary: dict) -> None:
    label = {"smoothing": "Kernel Smoothing", "gp_mle": "Gaussian Process",
             "gp_cv": "Gaussian Process CV"}
    rows = ["method,rmse,q2,cic"]
    for key in ("smoothing", "gp_mle", "gp_cv"):
        s = summary[key]
        cic = s["cic"] if s["cic"] != "NA" else "NA"
        rows.append(f"{label[key]},{s['rmse']:.4f},{s['q2']:.4f},"
                    + (f"{cic:.4f}" if isinstance(cic, float) else cic))
    Path(path).write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# PSD dichotomy diagnostic

@dataclass
class PsdConfig:
    seed: int
    n_points: int = 100
    n_seeds: int = 5
    entry_range: tuple[float, float] = (0.1, 0.7)
    naive_tol: float = 1e-6
    embed_tol: float = 1e-8
    out_dir: str | None = None


def run_psd_diagnostic(cfg: PsdConfig) -> dict:
    """Spectra of the naive exp(-W2^2) Gram (indefinite in 2-D, valid in 1-D)
    against the embedding-kernel Gram on the same inputs."""
    t0 = time.time()
    seeds = _seed_list(cfg.seed, cfg.n_seeds)
    per_seed = {}
    spectra = {}
    for seed in seeds:
        measures = sample_gaussian_population(cfg.n_points, 2, (seed, 0),
                                              entry_range=cfg.entry_range)
        naive = psd_diagnostic(naive_w2_gram(measures), tol=cfg.naive_tol)

        bar = gaussian_barycenter([m.cov for m in measures]).result
        embed = psd_diagnostic(
            _se_gram_from_covs(np.stack([m.cov for m in measures]), bar),
            tol=cfg.embed_tol)

        oned = sample_gaussian_population(cfg.n_points, 1, (seed, 1),
                                          entry_range=cfg.entry_range)
        naive_1d = psd_diagnostic(naive_w2_gram(oned), tol=cfg.embed_tol)

        per_seed[seed] = {
            "naive_negatives": naive.negatives,
            "naive_min_eig": naive.min_eigenvalue,
            "naive_max_abs_eig": naive.max_abs_eigenvalue,
            "embed_negatives": embed.negatives,
            "embed_min_eig": embed.min_eigenvalue,
            "embed_max_abs_eig": embed.max_abs_eigenvalue,
            "naive_1d_negatives": naive_1d.negatives,
        }
        spectra[seed] = {"naive": naive.eigenvalues, "embed": embed.eigenvalues}

    report = {
        "experiment": "psd",
        "config": asdict(cfg),
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "all_naive_indefinite": all(per_seed[s]["naive_negatives"] >= 1 for s in seeds),
        "all_embed_psd": all(per_seed[s]["embed_negatives"] == 0 for s in seeds),
        "all_naive_1d_psd": all(per_seed[s]["naive_1d_negatives"] == 0 for s in seeds),
    }
    if cfg.out_dir:
        write_report(cfg.out_dir, report, time.time() - t0)
        from .dataio import save_eigenvalues_csv

        for seed in seeds:
            save_eigenvalues_csv(Path(cfg.out_dir) / f"naive_spectrum_seed{seed}.csv",
                                 spectra[seed]["naive"])
            save_eigenvalues_csv(Path(cfg.out_dir) / f"embed_spectrum_seed{seed}.csv",
                                 spectra[seed]["embed"])
    return report


# ---------------------------------------------------------------------------
# disk-union pipeline (synthetic response)

@dataclass
class DisksConfig:
    seed: int
    n_disks: int = 10
    radius: float = 0.05
    grid_size: int = 50
    n_train: int = 40
    n_test: int = 20
    lam: float = 20.0
    n_seeds: int = 3
    out_dir: str | None = None


def disk_response(grid) -> float:
    """Synthetic stand-in response: centroid-x minus squared centroid-y of
    the rasterized union."""
    centers = grid.cell_centers()
    w = grid.weights.ravel()
    cx = float(w @ centers[:, 0])
    cy = float(w @ centers[:, 1])
    return cx - cy**2


def run_disks(cfg: DisksConfig) -> dict:
    """Full grid pipeline on disk-union inputs: rasterize, entropic
    barycenter, inverse maps, GP fit, and the smoothing baseline."""
    t0 = time.time()
    seeds = _seed_list(cfg.seed, cfg.n_seeds)
    per_seed = {}
    for seed in seeds:
        rng = make_rng((seed, 0))
        n_all = cfg.n_train + cfg.n_test
        configs = [DiskConfig(cfg.radius, rng.uniform(0, 1, size=(cfg.n_disks, 2)))
                   for _ in range(n_all)]
        grids = [disks_to_grid(c, cfg.grid_size) for c in configs]
        responses = np.array([disk_response(g) for g in grids])
        tr, te = slice(0, cfg.n_train), slice(cfg.n_train, n_all)

        reference = grid_barycenter(grids[tr], lam=cfg.lam).result
        feats = embed_grids(grids, reference, lam=cfg.lam)
        model, means, variances = _fit_predict_gp(feats[tr], responses[tr],
                                                  feats[te], gp_fit_mle)
        m_gp = metrics(means, responses[te], variances)

        smoother = fit_smoother(grids[tr], responses[tr], split_seed=seed)
        sm = [smoother_predict(smoother, g) for g in grids[te]]
        m_sm = metrics([p.value for p in sm], responses[te])

        per_seed[seed] = {
            "gp": {"rmse": m_gp.rmse, "q2": m_gp.q2, "cic": m_gp.cic,
                   "theta": list(model.theta.as_array())},
            "smoothing": {"rmse": m_sm.rmse, "q2": m_sm.q2,
                          "bandwidth": smoother.bandwidth},
            "barycenter_support_cells": int((reference.weights > 0).sum()),
        }

    summary = {
        "gp_mean_rmse": float(np.mean([per_seed[s]["gp"]["rmse"] for s in seeds])),
        "gp_mean_q2": float(np.mean([per_seed[s]["gp"]["q2"] for s in seeds])),
        "smoothing_mean_rmse": float(np.mean([per_seed[s]["smoothing"]["rmse"] for s in seeds])),
        "smoothing_mean_q2": float(np.mean([per_seed[s]["smoothing"]["q2"] for s in seeds])),
    }
    report = {
        "experiment": "disks",
        "config": asdict(cfg),
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "summary": summary,
        "note": "responses are a synthetic surrogate; no proprietary solver data",
    }
    if cfg.out_dir:
        write_report(cfg.out_dir, report, time.time() - t0)
    return report


CONFIG_TYPES = {
    "consistency": ConsistencyConfig,
    "gaussian-regression": RegressionConfig,
    "psd": PsdConfig,
    "disks": DisksConfig,
}

RUNNERS = {
    "consistency": run_consistency,
    "gaussian-regression": run_gaussian_regression,
    "psd": run_psd_diagnostic,
    "disks": run_disks,
}


def build_config(name: str, seed: int, out_dir=None, overrides: dict | None = None):
    """Resolve an experiment config from defaults, a seed, and overrides."""
    if name not in CONFIG_TYPES:
        raise ValidationError(f"unknown experiment {name!r}")
    cls = CONFIG_TYPES[name]
    cfg = cls(seed=seed, out_dir=str(out_dir) if out_dir else None)
    if overrides:
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(overrides) - fields
        if unknown:
            raise ValidationError(f"unknown config keys {sorted(unknown)}")
        coerced = {}
        for key, val in overrides.items():
            if isinstance(val, list):
                val = tuple(val)
            coerced[key] = val
        cfg = dataclasses.replace(cfg, **coerced)
    _validate_sizes(cfg)
    return cfg


def _validate_sizes(cfg) -> None:
    """Counts and dimensions must be >= 1; rates and radii positive."""
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if f.name in ("seed", "out_dir", "grid_path", "normalize_population"):
            continue
        if isinstance(val, bool) or val is None:
            continue
        if isinstance(val, int) and val < 1:
            raise ValidationError(f"{f.name} must be >= 1, got {val}")
        if isinstance(val, float) and val <= 0:
            raise ValidationError(f"{f.name} must be positive, got {val}")
        if (isinstance(val, tuple) and all(isinstance(v, int) for v in val)
                and any(v < 1 for v in val)):
            raise ValidationError(f"{f.name} entries must be >= 1, got {val}")
