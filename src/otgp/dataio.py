"""File formats: Gaussian-set JSON, grid-density CSV, regression dataset
JSON, fitted-model JSON, prediction CSV and eigenvalue CSV."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .kernels import Embedding, KernelParams, pairwise_distances
from .measures import DiskConfig, GaussianMeasure, GridDensity, disks_to_grid, rasterize_gaussian

# Model JSON schema: version 4 stores the training feature matrix X (grid
# rows: barycentric projections, argmax cells in version 3), the reference
# and, for grid models, the penalty lam; other versions are refused.
MODEL_VERSION = 4


def read_file(path, csv: bool = False):
    """Parsed JSON or, with csv, comma-separated float matrix of a file;
    ValidationError if it cannot be read or parsed."""
    try:
        if csv:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON, CSV or text
        raise ValidationError(f"cannot read {path}: {exc}") from None


def save_gaussian_set(path, measures) -> None:
    items = [{"mean": m.mean.tolist(), "cov": m.cov.tolist()} for m in measures]
    payload = {"dim": measures[0].dim if measures else 0, "items": items}
    Path(path).write_text(json.dumps(payload))


def load_gaussian_set(path) -> list[GaussianMeasure]:
    payload = read_file(path)
    dim = payload.get("dim")
    out = [GaussianMeasure(item["mean"], item["cov"]) for item in payload["items"]]
    if dim is not None and any(m.dim != dim for m in out):
        raise ValidationError("item dimension disagrees with the declared dim")
    return out


def save_grid_csv(path, density: GridDensity) -> None:
    np.savetxt(path, density.weights, delimiter=",", fmt="%.17g")


def load_grid_csv(path) -> GridDensity:
    return GridDensity(read_file(path, csv=True))


def load_grid_dir(path) -> list[GridDensity]:
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise ValidationError(f"no CSV grid files under {path}")
    return [load_grid_csv(f) for f in files]


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
    rows = read_file(path)
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


def save_model(path, model) -> None:
    """Fitted GP to JSON: theta, responses, reference, the training
    feature matrix X and, for grid models, its penalty lam."""
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
        payload["lam"] = model.features.lam
    Path(path).write_text(json.dumps(payload))


def load_model(path):
    from .gp import build_model  # deferred to avoid an import cycle

    payload = read_file(path)
    if payload.get("version") != MODEL_VERSION:
        raise ValidationError(f"model file {path} is not version {MODEL_VERSION}; "
                              "refit the model")
    theta = KernelParams(**payload["theta"])
    y = np.asarray(payload["y"], dtype=float)
    if payload["kind"] == "gaussian":
        ref = GaussianMeasure(payload["reference"]["mean"], payload["reference"]["cov"])
    else:
        ref = GridDensity(np.asarray(payload["reference"]["weights"], dtype=float))
    features = Embedding(ref, payload["X"], payload.get("lam"))
    if len(features) != len(y):
        raise ValidationError("model X and y differ in length")
    return build_model(features, y, pairwise_distances(features), theta,
                        degenerate=payload.get("degenerate", False))


def save_predictions_csv(path, result) -> None:
    rows = ["mean,variance,lo,hi"]
    for mean, var, lo, hi in zip(result.mean, result.variance, *result.ci90):
        rows.append(f"{mean:.17g},{var:.17g},{lo:.17g},{hi:.17g}")
    Path(path).write_text("\n".join(rows) + "\n")


def save_eigenvalues_csv(path, eigenvalues) -> None:
    rows = ["eigenvalue"] + [f"{v:.17g}" for v in np.asarray(eigenvalues)]
    Path(path).write_text("\n".join(rows) + "\n")

