"""File formats: Gaussian-set JSON, grid-density CSV, disk-config JSON,
regression dataset JSON, transport-assignment JSON, fitted-model JSON and
prediction CSV."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .kernels import Embedding, KernelParams, pairwise_distances
from .measures import DiskConfig, GaussianMeasure, GridDensity, disks_to_grid, rasterize_gaussian
from .ot import TransportAssignment

# Model JSON schema: version 2 stores the training feature matrix X and the
# reference; files without a version predate it and are refused.
MODEL_VERSION = 2


def save_gaussian_set(path, measures) -> None:
    items = [{"mean": m.mean.tolist(), "cov": m.cov.tolist()} for m in measures]
    payload = {"dim": measures[0].dim if measures else 0, "items": items}
    Path(path).write_text(json.dumps(payload))


def load_gaussian_set(path) -> list[GaussianMeasure]:
    payload = json.loads(Path(path).read_text())
    dim = payload.get("dim")
    out = [GaussianMeasure(item["mean"], item["cov"]) for item in payload["items"]]
    if dim is not None and any(m.dim != dim for m in out):
        raise ValidationError("item dimension disagrees with the declared dim")
    return out


def save_grid_csv(path, density: GridDensity) -> None:
    np.savetxt(path, density.weights, delimiter=",", fmt="%.17g")


def load_grid_csv(path) -> GridDensity:
    return GridDensity(np.loadtxt(path, delimiter=",", ndmin=2))


def load_grid_dir(path) -> list[GridDensity]:
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise ValidationError(f"no CSV grid files under {path}")
    return [load_grid_csv(f) for f in files]


def save_disk_config(path, cfg: DiskConfig) -> None:
    Path(path).write_text(json.dumps(
        {"radius": cfg.radius, "centers": cfg.centers.tolist()}))


def load_disk_config(path) -> DiskConfig:
    payload = json.loads(Path(path).read_text())
    return DiskConfig(radius=payload["radius"], centers=payload["centers"])


def input_to_json(obj) -> dict:
    if isinstance(obj, GaussianMeasure):
        return {"kind": "gaussian", "mean": obj.mean.tolist(), "cov": obj.cov.tolist()}
    if isinstance(obj, GridDensity):
        return {"kind": "grid", "weights": obj.weights.tolist()}
    if isinstance(obj, DiskConfig):
        return {"kind": "disks", "radius": obj.radius, "centers": obj.centers.tolist()}
    raise ValidationError(f"unsupported input type {type(obj).__name__}")


def input_from_json(payload: dict):
    kind = payload.get("kind")
    if kind == "gaussian":
        return GaussianMeasure(payload["mean"], payload["cov"])
    if kind == "grid":
        return GridDensity(np.asarray(payload["weights"], dtype=float))
    if kind == "disks":
        return DiskConfig(radius=payload["radius"], centers=payload["centers"])
    raise ValidationError(f"unknown input kind {kind!r}")


def save_dataset(path, inputs, responses) -> None:
    rows = [{"input": input_to_json(x), "y": float(y)}
            for x, y in zip(inputs, responses)]
    Path(path).write_text(json.dumps(rows))


def load_dataset(path, require_y: bool = True) -> tuple[list, list]:
    rows = json.loads(Path(path).read_text())
    inputs = [input_from_json(r["input"]) for r in rows]
    if require_y:
        responses = [float(r["y"]) for r in rows]
    else:
        responses = [None if r.get("y") is None else float(r["y"]) for r in rows]
    return inputs, responses


def dataset_to_grids(inputs, grid_size: int) -> list[GridDensity]:
    """Common grid representation of heterogeneous dataset inputs."""
    out = []
    for x in inputs:
        if isinstance(x, GridDensity):
            out.append(x)
        elif isinstance(x, GaussianMeasure):
            out.append(rasterize_gaussian(x, grid_size))
        elif isinstance(x, DiskConfig):
            out.append(disks_to_grid(x, grid_size))
        else:
            raise ValidationError(f"unsupported input type {type(x).__name__}")
    return out


def assignment_to_json(a: TransportAssignment) -> dict:
    return {
        "targets": a.target_index.tolist(),
        "weights": a.source_weights.tolist(),
        "source_locations": a.source_locations.tolist(),
        "target_locations": a.target_locations.tolist(),
    }


def assignment_from_json(payload: dict) -> TransportAssignment:
    return TransportAssignment(
        target_index=np.asarray(payload["targets"], dtype=int),
        source_weights=np.asarray(payload["weights"], dtype=float),
        source_locations=np.asarray(payload["source_locations"], dtype=float),
        target_locations=np.asarray(payload["target_locations"], dtype=float),
    )


def save_model(path, model) -> None:
    """Fitted GP to JSON: theta, responses, reference and the training
    feature matrix X."""
    ref = model.features.reference
    payload = {
        "version": MODEL_VERSION,
        "theta": {
            "amplitude": model.theta.amplitude,
            "rate": model.theta.rate,
            "exponent": model.theta.exponent,
            "nugget": model.theta.nugget,
        },
        "y": model.y.tolist(),
        "degenerate": model.degenerate,
        "X": model.features.X.tolist(),
    }
    if isinstance(ref, GaussianMeasure):
        payload["kind"] = "gaussian"
        payload["reference"] = {"mean": ref.mean.tolist(), "cov": ref.cov.tolist()}
    else:
        payload["kind"] = "grid"
        payload["reference"] = {"weights": ref.weights.tolist()}
    Path(path).write_text(json.dumps(payload))


def load_model(path):
    from .gp import _build_model  # deferred to avoid an import cycle

    payload = json.loads(Path(path).read_text())
    if payload.get("version") != MODEL_VERSION:
        raise ValidationError(f"model file {path} is not version {MODEL_VERSION}; "
                              "refit the model")
    theta = KernelParams(**payload["theta"])
    y = np.asarray(payload["y"], dtype=float)
    if payload["kind"] == "gaussian":
        ref = GaussianMeasure(payload["reference"]["mean"], payload["reference"]["cov"])
    else:
        ref = GridDensity(np.asarray(payload["reference"]["weights"], dtype=float))
    features = Embedding(ref, payload["X"])
    if len(features) != len(y):
        raise ValidationError("model X and y differ in length")
    return _build_model(features, y, pairwise_distances(features), theta,
                        degenerate=payload.get("degenerate", False))


def save_predictions_csv(path, result) -> None:
    rows = ["mean,variance,lo,hi"]
    for mean, var, lo, hi in zip(result.mean, result.variance, *result.ci90):
        rows.append(f"{mean:.17g},{var:.17g},{lo:.17g},{hi:.17g}")
    Path(path).write_text("\n".join(rows) + "\n")


def load_predictions_csv(path) -> np.ndarray:
    """(n, 4) array of mean, variance, lo, hi."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def save_eigenvalues_csv(path, eigenvalues) -> None:
    rows = ["eigenvalue"] + [f"{v:.17g}" for v in np.asarray(eigenvalues)]
    Path(path).write_text("\n".join(rows) + "\n")


def load_eigenvalues_csv(path) -> np.ndarray:
    return np.loadtxt(path, skiprows=1, ndmin=1)
