"""Workloads: inputs made from the workload seed, the CLI operations of one
pass, and the correctness checks on their outputs.

Each workload owns a fixed number of datasets derived from the seed; passes
cycle through them. ``gp_rmse`` is averaged over the first pass on every
dataset, so it is deterministic for a seed while timing can repeat datasets.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output failed its correctness check."""


@dataclass
class Op:
    """One in-process ``otgp`` CLI invocation and the check on its output.

    ``check`` runs after the timed call and returns the GP test RMSEs the
    output carries (possibly none); it raises ``CheckFailed``.
    """

    argv: list[str]
    inputs: int
    check: Callable[[], list[float]] = lambda: []
    digests: tuple[Path, ...] = ()


@dataclass
class Dataset:
    seed: int
    ops: list[Op]
    properties: dict = field(default_factory=dict)


def dataset_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    return float(value)


def _report(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable report {path}: {exc}") from exc


class PredictionProbe:
    """Observes results inside ``otgp.experiments``, where the experiment
    drivers keep predictions and rasterized inputs to themselves.

    Wraps the experiments module's own references to ``gp_predict`` (every
    prediction must be finite with variance >= 0) and to the rasterizers
    (support cell counts of each input, an input property). Installed in
    every run; the cost is a few microseconds per call.
    """

    RASTERIZERS = ("disks_to_grid", "rasterize_gaussian")

    def __init__(self):
        self.checked = 0
        self.bad: list[str] = []
        self.support_cells: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        import otgp.experiments as ex

        namespace = vars(ex)
        if callable(namespace.get("gp_predict")):
            self._swap(namespace, "gp_predict", self._checked(namespace["gp_predict"]))
        for name in self.RASTERIZERS:
            if callable(namespace.get(name)):
                self._swap(namespace, name, self._counted(namespace[name]))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._undo):
            namespace[attr] = original
        self._undo.clear()

    def _swap(self, namespace, attr, new) -> None:
        self._undo.append((namespace, attr, namespace[attr]))
        namespace[attr] = new

    def _checked(self, fn):
        def gp_predict(*args, **kwargs):
            result = fn(*args, **kwargs)
            for item in result if isinstance(result, (list, tuple)) else [result]:
                mean = np.asarray(getattr(item, "mean", np.nan), dtype=float)
                var = np.asarray(getattr(item, "variance", np.nan), dtype=float)
                self.checked += mean.size
                if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
                        and np.all(var >= 0)):
                    self.bad.append(f"prediction mean={mean} variance={var}")
            return result
        return gp_predict

    def _counted(self, fn):
        def rasterize(*args, **kwargs):
            grid = fn(*args, **kwargs)
            self.support_cells.append(int(np.count_nonzero(grid.weights)))
            return grid
        return rasterize


def support_properties(cells: list[int]) -> dict:
    if not cells:
        return {"mean_support_cells": None, "share_support_le_4": None}
    arr = np.asarray(cells)
    return {"mean_support_cells": float(arr.mean()),
            "share_support_le_4": float((arr <= 4).mean())}


class Workload:
    name = ""
    datasets = 1

    def setup(self, work: Path, seed: int, tiny: bool, probe: PredictionProbe
              ) -> list[Dataset]:
        raise NotImplementedError


class ExperimentWorkload(Workload):
    """One ``otgp experiment <name>`` dataset per pass (``n_seeds`` = 1)."""

    experiment = ""
    tiny_overrides: dict = {}
    grid_size = 50
    inputs_per_pass = 0
    tiny_inputs = 0
    rmse_keys: tuple = ()

    def setup(self, work, seed, tiny, probe):
        config = work / f"{self.name}.json"
        overrides = {"n_seeds": 1, **(self.tiny_overrides if tiny else {})}
        config.write_text(json.dumps(overrides))
        n_inputs = self.tiny_inputs if tiny else self.inputs_per_pass
        out = []
        for index in range(self.datasets):
            ds = dataset_seed(seed, index)
            out_dir = work / f"{self.name}-{index}"
            op = Op(["experiment", self.experiment, "--seed", str(ds),
                     "--out", str(out_dir), "--config", str(config)],
                    inputs=n_inputs, digests=(out_dir / "report.json",))
            op.check = self._checker(out_dir, ds, probe)
            out.append(Dataset(ds, [op], {"n": n_inputs,
                                          "G": overrides.get("grid_size", self.grid_size)}))
        return out

    def _checker(self, out_dir: Path, ds: int, probe: PredictionProbe):
        def check() -> list[float]:
            report = _report(out_dir / "report.json")
            if probe.bad:
                raise CheckFailed("; ".join(probe.bad[:3]))
            row = report["per_seed"][str(ds)]
            return [_finite(_dig(row, key), f"{self.experiment} {key}")
                    for key in self.rmse_keys]
        return check


def _dig(row: dict, dotted: str):
    for part in dotted.split("."):
        row = row[part]
    return row


class DisksGrid(ExperimentWorkload):
    name = "disks-grid"
    experiment = "disks"
    datasets = 4
    inputs_per_pass = 60
    tiny_inputs = 10
    tiny_overrides = {"n_train": 6, "n_test": 4, "grid_size": 12}
    rmse_keys = ("gp.rmse",)


class GaussianRegression(ExperimentWorkload):
    name = "gaussian-regression"
    experiment = "gaussian-regression"
    datasets = 10
    inputs_per_pass = 100
    tiny_inputs = 12
    tiny_overrides = {"n_total": 12, "n_train": 8, "grid_size": 12}
    rmse_keys = ("gp_mle.rmse", "gp_cv.rmse")


PSD_ENTRY_RANGE = (0.1, 0.7)  # the psd experiment's population
KERNEL_THETA = "1,1,2,0"  # the unit square-exponential kernel of the psd experiment
NAIVE_TOL = 1e-6


class KernelCli(Workload):
    name = "kernel-cli"
    datasets = 3
    sizes = {"population": 800, "naive": 200, "train": 50, "predict": 2000}
    tiny_sizes = {"population": 40, "naive": 100, "train": 12, "predict": 30}

    def setup(self, work, seed, tiny, probe):
        from otgp import dataio
        from otgp.measures import sample_gaussian_population, sample_regression_gaussians

        sizes = self.tiny_sizes if tiny else self.sizes
        out = []
        for index in range(self.datasets):
            ds = dataset_seed(seed, index)
            d = work / f"{self.name}-{index}"
            d.mkdir(parents=True, exist_ok=True)
            n_pop = max(sizes["population"], sizes["naive"])
            population = sample_gaussian_population(n_pop, 2, (ds, 0),
                                                    entry_range=PSD_ENTRY_RANGE)
            dataio.save_gaussian_set(d / "population.json", population[:sizes["population"]])
            dataio.save_gaussian_set(d / "naive.json", population[:sizes["naive"]])
            pairs = sample_regression_gaussians(sizes["train"] + sizes["predict"], (ds, 1))
            train, test = pairs[:sizes["train"]], pairs[sizes["train"]:]
            dataio.save_dataset(d / "train.json", [m for m, _ in train], [y for _, y in train])
            dataio.save_dataset(d / "predict.json", [m for m, _ in test], [y for _, y in test])
            truths = np.array([y for _, y in test])
            ops = [
                Op(["kernel-matrix", "--input", str(d / "population.json"),
                    "--theta", KERNEL_THETA, "--out", str(d / "gram.csv")],
                   inputs=sizes["population"], digests=(d / "gram.csv",)),
                Op(["diagnose-psd", "--gram", str(d / "gram.csv"), "--out", str(d / "gram-psd")],
                   inputs=sizes["population"],
                   check=_negatives_check(d / "gram-psd" / "report.json", want_negative=False),
                   digests=(d / "gram-psd" / "report.json",)),
                Op(["diagnose-psd", "--naive-w2", str(d / "naive.json"),
                    "--out", str(d / "naive-psd"), "--tol", str(NAIVE_TOL)],
                   inputs=sizes["naive"],
                   check=_negatives_check(d / "naive-psd" / "report.json", want_negative=True),
                   digests=(d / "naive-psd" / "report.json",)),
                Op(["fit", "--data", str(d / "train.json"), "--method", "cv",
                    "--out", str(d / "model.json")],
                   inputs=sizes["train"], digests=(d / "model.json",)),
                Op(["predict", "--model", str(d / "model.json"), "--data", str(d / "predict.json"),
                    "--out", str(d / "predictions.csv")],
                   inputs=sizes["predict"],
                   check=_predictions_check(d / "predictions.csv", truths),
                   digests=(d / "predictions.csv",)),
            ]
            out.append(Dataset(ds, ops, {"n": dict(sizes), "G": None,
                                         **support_properties([])}))
        return out


def _negatives_check(path: Path, want_negative: bool):
    def check() -> list[float]:
        negatives = _report(path).get("negatives")
        if not isinstance(negatives, int):
            raise CheckFailed(f"{path} has no negative-eigenvalue count")
        if want_negative and negatives < 1:
            raise CheckFailed("naive exp(-W2^2) Gram shows no negative eigenvalue")
        if not want_negative and negatives:
            raise CheckFailed(f"embedding Gram has {negatives} negative eigenvalue(s)")
        return []
    return check


def _predictions_check(path: Path, truths: np.ndarray):
    def check() -> list[float]:
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"unreadable predictions {path}: {exc}") from exc
        if table.shape != (len(truths), 4):
            raise CheckFailed(f"predictions have shape {table.shape}, "
                              f"expected {(len(truths), 4)}")
        mean, var, lo, hi = table.T
        if not np.all(np.isfinite(table)):
            raise CheckFailed("non-finite prediction")
        if np.any(var < 0) or np.any(lo > hi):
            raise CheckFailed("negative predictive variance or inverted interval")
        return [float(np.sqrt(np.mean((mean - truths) ** 2)))]
    return check


WORKLOADS = {w.name: w for w in (DisksGrid(), GaussianRegression(), KernelCli())}
