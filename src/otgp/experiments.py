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

from .barycenter import gaussian_barycenter
from .baseline import fit_smoother, smoother_predict
from .dataio import save_eigenvalues_csv, save_errors_csv
from .errors import ValidationError, check_arg
from .gp import build_model, gp_fit_cv, gp_fit_mle, gp_predict, metrics
from .kernels import (
    KernelParams,
    embed,
    gram_from_distances,
    gram_matrix,
    naive_w2_gram,
    pairwise_distances,
    psd_diagnostic,
)
from .measures import (
    DiskConfig,
    GaussianMeasure,
    disks_to_grid,
    gaussian_cov_stack,
    gaussian_measures,
    rasterize_gaussian,
    sample_gaussian_population,
    sample_regression_gaussians,
)
from .rng import make_rng

# The unit square-exponential kernel exp(-d^2).
UNIT_SE = KernelParams(1.0, 1.0, 2.0, 0.0)


class _Config:
    """Base of the experiment configs, which check themselves when built: seed
    is an integer >= 0 and every other field but out_dir holds the type of its
    default. Flags are booleans, counts and dimensions integers >= 1, rates and
    radii finite positive numbers, tuples nonempty (of the default's length
    unless open-ended; a list is taken as a tuple) and checked entry by entry.
    A config type adds the rules its sizes must keep together."""

    def __post_init__(self):
        check_arg("seed", self.seed, ">= 0")
        for f in (f for f in dataclasses.fields(self) if f.name not in ("seed", "out_dir")):
            val, default = getattr(self, f.name), f.default
            if isinstance(default, bool):
                if not isinstance(val, bool):
                    raise ValidationError(f"{f.name} must be true or false, got {val!r}")
                continue
            many = isinstance(default, tuple)
            if many and isinstance(val, list):
                setattr(self, f.name, val := tuple(val))
            if many and not (isinstance(val, tuple) and val
                             and ("..." in f.type or len(val) == len(default))):
                raise ValidationError(f"{f.name} must be a list like {list(default)}, got {val!r}")
            count = type(default[0] if many else default) is int
            for v in val if many else (val,):
                check_arg(f.name, v, ">= 1" if count else "finite and positive", shown=repr(val))


def write_report(name: str, cfg, per_seed: dict, t0: float, fits: dict | None = None,
                 **fields) -> dict:
    """The report of experiment name: its resolved config, its seeds, the row
    of each seed and then fields, as report.json holds it. When cfg.out_dir
    is set, writes report.json (deterministic) and a meta.json sidecar for the
    wall clock since t0 and, when given, the fits: {"jitter": the Cholesky
    jitter, "scored": the points its search scored, "on_bound": the
    FIT_VARIABLES it ended on a bound of} of each model by seed and fit
    label."""
    text = json.dumps({"experiment": name, "config": asdict(cfg), "seeds": list(per_seed),
                       "per_seed": {str(s): row for s, row in per_seed.items()}, **fields},
                      sort_keys=True, indent=2)
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text)
        meta = {"wall_clock_seconds": time.time() - t0, **({} if fits is None else {"fits": fits})}
        (out / "meta.json").write_text(json.dumps(meta))
    return json.loads(text)


# ---------------------------------------------------------------------------
# consistency of the empirical kernel (Gaussian populations)

@dataclass
class ConsistencyConfig(_Config):
    seed: int
    d: int = 4
    n_grid: tuple[int, ...] = (20, 80, 160, 320)
    population: int = 2000
    grid_points: int = 10
    replicates: int = 16
    n_seeds: int = 3
    out_dir: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if max(self.n_grid) > self.population:
            raise ValidationError(f"n_grid must not exceed population, got {self.n_grid} "
                                  f"with population {self.population}")
        if self.grid_points >= self.population:
            raise ValidationError(f"grid_points must be below population, got "
                                  f"{self.grid_points} >= {self.population}")


def _gram_and_gp_mean(covs: np.ndarray, bar_cov: np.ndarray, y) -> tuple[np.ndarray, float]:
    """Zero-mean Gaussians embedded against N(0, bar_cov): the unit
    square-exponential Gram of all but the last, and the mean at the last of
    the GP through y on the others."""
    reference = GaussianMeasure(np.zeros(covs.shape[-1]), bar_cov)
    feats = embed(gaussian_measures(np.zeros(covs.shape[:2]), covs), reference=reference)
    grid = feats[:-1]
    dist = pairwise_distances(grid)
    model = build_model(grid, y, dist, UNIT_SE)
    return gram_from_distances(dist, UNIT_SE), float(gp_predict(model, feats[-1]).mean[0])


def run_consistency(cfg: ConsistencyConfig) -> dict:
    """Empirical-vs-population kernel error over growing subsample sizes.

    For each seed: draw a population, take its barycenter as the population
    reference, and for each n average the Gram error over replicate
    subsamples (drawn without replacement, so n = population recovers the
    reference exactly). Also tracks the gap between GP predictions under the
    empirical and population kernels.
    """
    t0 = time.time()
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    per_seed = {}
    for seed in seeds:
        pop_rng, grid_rng, y_rng = (make_rng(c) for c in np.random.SeedSequence(seed).spawn(3))
        pop = gaussian_cov_stack(cfg.population, cfg.d, pop_rng)
        # unit mean eigenvalue, else unit-scale kernel parameters see only
        # saturated distances
        pop *= cfg.d / np.trace(pop, axis1=1, axis2=2).mean()
        bar_true = gaussian_barycenter(pop).result
        grid_idx = grid_rng.choice(cfg.population, size=cfg.grid_points, replace=False)
        test_idx = grid_rng.choice(
            np.setdiff1d(np.arange(cfg.population), grid_idx), size=1)[0]
        covs = pop[np.append(grid_idx, test_idx)]
        y = y_rng.standard_normal(cfg.grid_points)
        m_true, mean_true = _gram_and_gp_mean(covs, bar_true, y)

        errors = {}
        pred_gaps = {}
        for ni, n in enumerate(cfg.n_grid):
            errs, gaps = [], []
            for r in range(cfg.replicates):
                child = make_rng((seed, ni, r))
                idx = child.choice(cfg.population, size=n, replace=False)
                m_n, mean_n = _gram_and_gp_mean(covs, gaussian_barycenter(pop[idx]).result, y)
                errs.append(float(np.linalg.norm(m_n - m_true)))
                gaps.append(abs(mean_n - mean_true))
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
    report = write_report(
        "consistency", cfg, per_seed, t0,
        pooled_mean_error=dict(zip(map(str, cfg.n_grid), pooled)),
        error_ratio_first_to_last=pooled[0] / pooled[-1],
        squared_error_ratio_first_to_last=pooled_sq[0] / pooled_sq[-1],
        loglog_slope=slope)
    if cfg.out_dir:
        save_errors_csv(Path(cfg.out_dir) / "errors.csv", cfg.n_grid, pooled)
    return report


# ---------------------------------------------------------------------------
# Gaussian regression benchmark

@dataclass
class RegressionConfig(_Config):
    seed: int
    n_total: int = 100
    n_train: int = 50
    grid_size: int = 50
    n_seeds: int = 5
    lam: float = 20.0
    grid_path: bool = False  # embed via the grid pipeline instead of closed forms
    out_dir: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.n_train >= self.n_total:
            raise ValidationError(f"n_train must be below n_total, got "
                                  f"{self.n_train} >= {self.n_total}")


def _score_split(feats, grids, y, n_train: int, fitters, split_seed) -> tuple[dict, dict]:
    """Each (label, fitter) of fitters fitted on the first n_train rows of feats
    and y and scored on the rest, then the smoothing baseline on grids alike:
    the row {label: {rmse, q2, cic, theta}, "smoothing": {rmse, q2, cic: None,
    bandwidth, fallbacks}} and the fit record {label: {"jitter", "scored", "on_bound"}}."""
    tr, te = slice(0, n_train), slice(n_train, len(y))
    row, fits = {}, {}
    for label, fitter in fitters:
        model = fitter(feats[tr], y[tr])
        pred = gp_predict(model, feats[te])
        m = metrics(pred.mean, y[te], pred.variance)
        row[label] = {"rmse": m.rmse, "q2": m.q2, "cic": m.cic,
                      "theta": list(model.theta.as_array())}
        fits[label] = {"jitter": model.jitter, "scored": model.scored,
                       "on_bound": list(model.on_bound)}
    smoother = fit_smoother(grids[tr], y[tr], split_seed=split_seed)
    preds = [smoother_predict(smoother, g) for g in grids[te]]
    m = metrics([p.value for p in preds], y[te])
    row["smoothing"] = {"rmse": m.rmse, "q2": m.q2, "cic": None, "bandwidth": smoother.bandwidth,
                        "fallbacks": sum(p.fallback for p in preds)}
    return row, fits


def _seed_mean(per_seed: dict, method: str, key: str) -> float:
    """The mean over the seeds of per_seed[seed][method][key]."""
    return float(np.mean([row[method][key] for row in per_seed.values()]))


def run_gaussian_regression(cfg: RegressionConfig) -> dict:
    """Head-to-head of GP (MLE and CV fits) against kernel smoothing on the
    synthetic Gaussian-input response, averaged over seeds."""
    t0 = time.time()
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    per_seed, fits = {}, {}
    for seed in seeds:
        pairs = sample_regression_gaussians(cfg.n_total, seed)
        measures = [m for m, _ in pairs]
        grids = [rasterize_gaussian(m, cfg.grid_size) for m in measures]
        feats = embed(grids if cfg.grid_path else measures, cfg.n_train, lam=cfg.lam)
        per_seed[seed], fits[str(seed)] = _score_split(
            feats, grids, np.array([y for _, y in pairs]), cfg.n_train,
            (("gp_mle", gp_fit_mle), ("gp_cv", gp_fit_cv)), seed)

    summary = {
        "smoothing": {"rmse": _seed_mean(per_seed, "smoothing", "rmse"),
                      "q2": _seed_mean(per_seed, "smoothing", "q2"), "cic": "NA"},
        **{label: {k: _seed_mean(per_seed, label, k) for k in ("rmse", "q2", "cic")}
           for label in ("gp_mle", "gp_cv")},
    }
    report = write_report("gaussian-regression", cfg, per_seed, t0, fits, summary=summary)
    if cfg.out_dir:
        _write_table_csv(Path(cfg.out_dir) / "table.csv", summary)
    return report


def _write_table_csv(path, summary: dict) -> None:
    label = {"smoothing": "Kernel Smoothing", "gp_mle": "Gaussian Process",
             "gp_cv": "Gaussian Process CV"}
    rows = ["method,rmse,q2,cic"]
    for key in ("smoothing", "gp_mle", "gp_cv"):
        s = summary[key]
        rows.append(f"{label[key]},{s['rmse']:.4f},{s['q2']:.4f},"
                    + (f"{s['cic']:.4f}" if isinstance(s["cic"], float) else s["cic"]))
    Path(path).write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# PSD dichotomy diagnostic

@dataclass
class PsdConfig(_Config):
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
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    per_seed, spectra = {}, {}
    for seed in seeds:
        measures = sample_gaussian_population(cfg.n_points, 2, (seed, 0),
                                              entry_range=cfg.entry_range)
        naive = psd_diagnostic(naive_w2_gram(measures), tol=cfg.naive_tol)
        embedded = psd_diagnostic(gram_matrix(embed(measures), UNIT_SE), tol=cfg.embed_tol)

        oned = sample_gaussian_population(cfg.n_points, 1, (seed, 1),
                                          entry_range=cfg.entry_range)
        naive_1d = psd_diagnostic(naive_w2_gram(oned), tol=cfg.embed_tol)

        per_seed[seed] = {
            "naive_negatives": naive.negatives,
            "naive_min_eig": naive.min_eigenvalue,
            "naive_max_abs_eig": naive.max_abs_eigenvalue,
            "embed_negatives": embedded.negatives,
            "embed_min_eig": embedded.min_eigenvalue,
            "embed_max_abs_eig": embedded.max_abs_eigenvalue,
            "naive_1d_negatives": naive_1d.negatives,
        }
        spectra[seed] = {"naive": naive.eigenvalues, "embed": embedded.eigenvalues}

    report = write_report(
        "psd", cfg, per_seed, t0,
        all_naive_indefinite=all(per_seed[s]["naive_negatives"] >= 1 for s in seeds),
        all_embed_psd=all(per_seed[s]["embed_negatives"] == 0 for s in seeds),
        all_naive_1d_psd=all(per_seed[s]["naive_1d_negatives"] == 0 for s in seeds))
    if cfg.out_dir:
        for seed, spectrum in spectra.items():
            for label, eigenvalues in spectrum.items():
                save_eigenvalues_csv(Path(cfg.out_dir) / f"{label}_spectrum_seed{seed}.csv",
                                     eigenvalues)
    return report


# ---------------------------------------------------------------------------
# disk-union pipeline (synthetic response)

@dataclass
class DisksConfig(_Config):
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
    cx, cy = (float(grid.weights.ravel() @ axis) for axis in grid.cell_centers().T)
    return cx - cy**2


def run_disks(cfg: DisksConfig) -> dict:
    """Full grid pipeline on disk-union inputs: rasterize, entropic
    barycenter, inverse maps, GP fit, and the smoothing baseline."""
    t0 = time.time()
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    per_seed, fits = {}, {}
    for seed in seeds:
        rng = make_rng((seed, 0))
        n_all = cfg.n_train + cfg.n_test
        configs = [DiskConfig(cfg.radius, rng.uniform(0, 1, size=(cfg.n_disks, 2)))
                   for _ in range(n_all)]
        grids = [disks_to_grid(c, cfg.grid_size) for c in configs]
        feats = embed(grids, cfg.n_train, lam=cfg.lam)
        per_seed[seed], fits[str(seed)] = _score_split(
            feats, grids, np.array([disk_response(g) for g in grids]), cfg.n_train,
            (("gp", gp_fit_mle),), seed)
        per_seed[seed]["barycenter_support_cells"] = int((feats.reference.weights > 0).sum())

    summary = {f"{method}_mean_{key}": _seed_mean(per_seed, method, key)
               for method in ("gp", "smoothing") for key in ("rmse", "q2")}
    return write_report("disks", cfg, per_seed, t0, fits, summary=summary,
                        note="responses are a synthetic surrogate; no proprietary solver data")


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


def build_config(name: str, seed: int, overrides: dict, out_dir=None):
    """Resolve an experiment config from defaults, a seed, and overrides, the
    JSON object of a config file ({} for none)."""
    if name not in CONFIG_TYPES:
        raise ValidationError(f"unknown experiment {name!r}")
    if not isinstance(overrides, dict):
        raise ValidationError(f"config must be a JSON object, got {overrides!r}")
    cls = CONFIG_TYPES[name]
    unknown = set(overrides) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown config keys {sorted(unknown)}")
    fixed = sorted({"seed", "out_dir"} & set(overrides))
    if fixed:
        raise ValidationError(f"config keys {fixed} come from the command line, not a config file")
    return cls(seed=seed, out_dir=str(out_dir) if out_dir else None, **overrides)
