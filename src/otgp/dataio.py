"""File formats: Gaussian-set JSON, grid-density CSV, regression dataset
JSON, fitted-model JSON, Gram-matrix CSV, prediction CSV and eigenvalue CSV."""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import NotSymmetric, ValidationError, check_arg, check_array, renumbered
from .gp import _fit_data, build_model
from .kernels import Embedding, KernelParams
from .measures import (
    DiskConfig,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    gaussian_measures,
    rasterize_gaussian,
)

# Model JSON schema: version 6 stores the training feature matrix X (grid
# rows: barycentric projections of over-relaxed maps solved to ot.MAP_TOL;
# version 5 may hold plain solves, version 4 solved them to 1e-9, version 3
# held argmax cells), the reference and, for grid models, the penalty lam;
# other versions are refused.
MODEL_VERSION = 6


def read_file(path, csv: bool = False):
    """Parsed JSON or, with csv, comma-separated float matrix of a file;
    ValidationError if it cannot be read or parsed."""
    try:
        if csv:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON, CSV or text
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _field(record, key: str, item: int | None = None):
    """record[key]; ValidationError naming the item if record is not an
    object holding key."""
    if not isinstance(record, dict) or key not in record:
        raise ValidationError(f"missing {key!r}", item)
    return record[key]


def _stack(values, key: str) -> np.ndarray:
    """Float array of the items' values under key; on a refusal of a list, the first
    item refused alone, or the first one shaped unlike item 0, is named."""
    try:
        return check_array(key, values)
    except ValidationError:
        if not isinstance(values, list):
            raise
        shapes = [check_array(key, v, k).shape for k, v in enumerate(values)]
        k = next((k for k, shape in enumerate(shapes) if shape != shapes[0]), 0)
        raise ValidationError(f"{key} of shape {shapes[k]} unlike item 0's {shapes[0]}",
                              k) from None


def _gaussians(records) -> list[GaussianMeasure]:
    """Measures of {"mean", "cov"} records, validated as one stack."""
    if not isinstance(records, list):
        raise ValidationError("expected a list of items")
    if not records:
        return []
    means, covs = ([_field(r, key, k) for k, r in enumerate(records)] for key in ("mean", "cov"))
    try:
        return gaussian_measures(means, covs)
    except ValidationError as exc:
        if exc.item is None:  # a ragged stack: name its first item shaped unlike item 0
            for values, key in ((means, "mean"), (covs, "cov")):
                _stack(values, key)
        raise


def save_gaussian_set(path, measures) -> None:
    items = [{"mean": m.mean.tolist(), "cov": m.cov.tolist()} for m in measures]
    payload = {"dim": measures[0].dim if measures else 0, "items": items}
    Path(path).write_text(json.dumps(payload))


def gaussian_set_from_json(payload) -> list[GaussianMeasure]:
    """Measures of a parsed Gaussian-set JSON, validated as one stack; an error names the item."""
    out = _gaussians(_field(payload, "items"))
    dim = payload.get("dim")
    if dim is not None and out and check_arg("dim", dim, ">= 1") != out[0].dim:
        raise ValidationError(f"items have dimension {out[0].dim}, the declared dim is {dim}")
    return out


def load_gaussian_set(path) -> list[GaussianMeasure]:
    return gaussian_set_from_json(read_file(path))


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
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "gaussian":
        return GaussianMeasure(_field(payload, "mean"), _field(payload, "cov"))
    if kind == "grid":
        return GridDensity(_field(payload, "weights"))
    if kind == "disks":
        return _disk(payload)
    raise ValidationError(f"unknown input kind {kind!r}")


def _disk(record) -> DiskConfig:
    return DiskConfig(radius=_field(record, "radius"), centers=_field(record, "centers"))


def disk_configs(rows: list) -> list[DiskConfig]:
    """Disk unions of a JSON list of {"radius", "centers"} rows; an error
    names the failing row."""
    configs = []
    for k, row in enumerate(rows):
        with renumbered([k]):
            configs.append(_disk(row))
    return configs


def save_dataset(path, inputs, responses) -> None:
    rows = [{"input": input_to_json(x), "y": float(y)}
            for x, y in zip(inputs, responses)]
    Path(path).write_text(json.dumps(rows))


def load_dataset(path, require_y: bool = True) -> tuple[list, list]:
    """Inputs and responses of a dataset JSON; the Gaussian inputs are
    validated as one stack. An error names the failing row."""
    rows = read_file(path)
    if not isinstance(rows, list):
        raise ValidationError("expected a list of rows")
    payloads = [_field(r, "input", i) for i, r in enumerate(rows)]
    inputs = [None] * len(rows)
    gaussian = [i for i, p in enumerate(payloads)
                if isinstance(p, dict) and p.get("kind") == "gaussian"]
    with renumbered(gaussian):
        for i, measure in zip(gaussian, _gaussians([payloads[i] for i in gaussian])):
            inputs[i] = measure
    for i, p in enumerate(payloads):
        if inputs[i] is None:
            with renumbered([i]):
                inputs[i] = input_from_json(p)
    responses = [None if not require_y and r.get("y") is None
                 else check_arg("y", _field(r, "y", i), "finite", i) for i, r in enumerate(rows)]
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
    feature matrix X and, for grid models, its penalty lam. The reference is
    input_to_json's record, its kind stored as the model's."""
    reference = input_to_json(model.features.reference)
    payload = {
        "version": MODEL_VERSION,
        "theta": asdict(model.theta),
        "y": model.y.tolist(),
        "degenerate": model.degenerate,
        "X": model.features.X.tolist(),
        "kind": reference.pop("kind"),
        "reference": reference,
    }
    if payload["kind"] == "grid":
        payload["lam"] = model.features.lam
    Path(path).write_text(json.dumps(payload))


def load_model(path):
    payload = read_file(path)
    if not isinstance(payload, dict) or payload.get("version") != MODEL_VERSION:
        raise ValidationError(f"model file {path} is not version {MODEL_VERSION}; "
                              "refit the model")
    theta = _field(payload, "theta")
    theta = KernelParams(*(_field(theta, f.name) for f in fields(KernelParams)))
    y = _stack(_field(payload, "y"), "y")
    if y.ndim != 1:
        raise ValidationError(f"y must be a list of numbers, got shape {y.shape}")
    degenerate = _field(payload, "degenerate")
    if not isinstance(degenerate, bool):
        raise ValidationError(f"degenerate {degenerate!r} is not a boolean")
    kind, ref = _field(payload, "kind"), _field(payload, "reference")
    if kind not in ("gaussian", "grid"):
        raise ValidationError(f"unknown model kind {kind!r}")
    ref = input_from_json(dict(ref, kind=kind) if isinstance(ref, dict) else {"kind": kind})
    lam = _field(payload, "lam") if kind == "grid" else None
    features = Embedding(ref, _field(payload, "X"), lam)
    if len(features) != len(y):
        raise ValidationError("model X and y differ in length")
    return build_model(features, *_fit_data(features, y), theta, degenerate=degenerate)


def save_gram_csv(path, matrix) -> None:
    """An exactly symmetric matrix as text, byte for byte what
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",") writes.

    Each upper-triangle entry is formatted once. Row i's text left of the
    diagonal is the cache the rows above it filled, freed once written, so
    at most about n^2/4 formatted entries are held. NotSymmetric unless the
    matrix equals its transpose bit for bit (a bit-level asymmetry could
    format differently, as with -0.0 and 0.0).
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
        raise NotSymmetric("matrix is not exactly symmetric")
    n = len(a)
    fmt = "%.17g," * n
    left = [bytearray() for _ in range(n)]
    with open(path, "wb") as fh:
        for i in range(n):
            upper = (fmt[6 * i:] % tuple(a[i, i:].tolist())).encode()
            line, left[i] = left[i], None
            line += upper
            line[-1:] = b"\n"
            fh.write(line)
            for cache, token in zip(left[i + 1:], upper.split(b",")[1:-1]):
                cache += token
                cache += b","


def save_predictions_csv(path, result) -> None:
    table = np.column_stack([result.mean, result.variance, *result.ci90])
    body = ("%.17g,%.17g,%.17g,%.17g\n" * len(table)) % tuple(table.ravel().tolist())
    Path(path).write_text("mean,variance,lo,hi\n" + body)


def save_eigenvalues_csv(path, eigenvalues) -> None:
    values = np.asarray(eigenvalues).ravel().tolist()
    Path(path).write_text("eigenvalue\n" + ("%.17g\n" * len(values)) % tuple(values))

