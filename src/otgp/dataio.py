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
    _write_csv(path, density.weights)


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
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",") writes. An entry left
    to CPython is formatted once per symmetric pair, and at most about n^2/4
    such tokens, of 25 bytes each, are held at once. NotSymmetric unless the
    matrix equals its transpose bit for bit (a bit-level asymmetry could
    format differently, as with -0.0 and 0.0).
    """
    a = np.ascontiguousarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
        raise NotSymmetric("matrix is not exactly symmetric")
    _write_csv(path, a, symmetric=True)


def save_predictions_csv(path, result) -> None:
    table = np.column_stack([result.mean, result.variance, *result.ci90])
    _write_csv(path, table, "mean,variance,lo,hi\n")


def save_eigenvalues_csv(path, eigenvalues) -> None:
    _write_csv(path, np.asarray(eigenvalues, dtype=float).reshape(-1, 1), "eigenvalue\n")


def save_errors_csv(path, sizes, errors) -> None:
    """The consistency study's mean error at each training size n."""
    _write_csv(path, np.column_stack([sizes, errors]), "n,error\n")


# The one number format of the CSV files: '%.17g', which reads back to the same
# double. Where CPython's %g writes fixed notation, 1e-4 <= |x| < 1e16, numpy
# computes the digits: with e = floor(log10|x|), 10^k for k = 16 - e <= 22 is an
# exact double, Dekker's error-free product gives x 10^k exactly as hi + lo,
# and hi, an even integer at or above 2^53, plus np.rint(lo) is the 17-digit
# integer rounded half to even, as CPython rounds. An integer outside
# [10^16, 10^17) means e was misjudged or the digits carried onto 10^17; it is
# computed again with e moved by one. CPython formats every other entry: 0, -0,
# subnormals, tiny or huge values, inf and NaN.
CSV_BLOCK = 1 << 15  # entries laid out per numpy pass
_TEN = np.cumprod(np.full(23, 10.0)) / 10.0  # 10^0 .. 10^22, each exact
_QUADS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                               indexing="ij"), -1).view("<u4").ravel()  # "0000" .. "9999"
# trailing zeros of 0 .. 9999: the count of 10, 100 and 1000 that divide it, 4 for 0
_TRAILING = np.bincount(np.r_[0:10000:10, 0:10000:100, 0:10000:1000, 0], minlength=10000)
_ROW = 40  # widest laid-out text: sign, 16 digits, point, 20 digits, separator
_TOKEN = np.dtype("V25")  # a CPython '%.17g', at most 24 bytes, and its padding
_KEEP = ((np.arange(_ROW) >= np.arange(_ROW + 1)[:, None, None])
         & (np.arange(_ROW) <= np.arange(_ROW + 1)[None, :, None])
         ).reshape(-1, _ROW)  # row s (_ROW + 1) + e marks the columns s to e


def _veltkamp(a):
    """a split into a 26-bit high part and the rest."""
    t = 134217729.0 * a  # 2^27 + 1
    high = t - (t - a)
    return high, a - high


_TEN_SPLIT = _veltkamp(_TEN)


def _scaled(x, k):
    """x 10^k rounded half to even, as int64 (Dekker's product; x 10^k < 2^63)."""
    hi = x * _TEN[k]
    (xh, xl), ph, pl = _veltkamp(x), _TEN_SPLIT[0][k], _TEN_SPLIT[1][k]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl  # x 10^k - hi, exactly
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digits(x):
    """N in [10^16, 10^17), x's 17 significant digits rounded half to even,
    and x's decimal exponent e, for each x in [1e-4, 1e16)."""
    k = 16 - np.floor(np.log10(x)).astype(np.intp)
    n = _scaled(x, k)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    k[off] += np.where(n[off] < 10**16, 1, -1)
    n[off] = _scaled(x[off], k[off])
    return n, 16 - k


def _text(n):
    """Rows of 24 bytes, flat: one of padding, then '0000000' and the 17
    digits of each N, then two of padding; and N's trailing zeros."""
    q = n // 10**8
    r = (n - q * 10**8).astype(np.uint32)  # uint32 divides faster than int64
    q = q.astype(np.uint32)
    quads = np.zeros((len(n) + 3, 6), np.intp)
    quads[1:-2, 1] = top = q // 10**8
    q -= top.astype(np.uint32) * np.uint32(10**8)
    quads[1:-2, 2] = h = q // 10000
    quads[1:-2, 3] = q - h * 10000  # % divides slower
    quads[1:-2, 4] = h = r // 10000
    quads[1:-2, 5] = r - h * 10000
    zeros = _TRAILING.take(quads[1:-2, 5])
    more = np.flatnonzero(zeros == 4)
    for k in (4, 3, 2):
        zeros[more] += _TRAILING.take(quads[more + 1, k])
        more = more[quads[more + 1, k] == 0]
    return _QUADS.take(quads).view(np.uint8).ravel(), zeros


def _cpython(values: list):
    """CPython's '%.17g' of each value, space-padded to _TOKEN bytes."""
    return np.frombuffer(b"%-25.17g" * len(values) % tuple(values), _TOKEN)


def _spans(buf, width: int, stride: int = 1, offset: int = 0):
    """View of a uint8 array's byte strings buf[offset + i stride:][:width]
    as one array of width-byte items, copied by numpy as a whole: a column
    range of each row of a table, or each window of a text."""
    count = (buf.size - offset - width) // stride + 1
    return np.ndarray((count,), np.dtype((np.void, width)), buf, offset, (stride,))


def _layout(v, seps, outside, tokens):
    """The text of each entry of v followed by its separator, as bytes:
    CPython's token (the entry of tokens) where outside, numpy's fixed
    notation elsewhere. Each text is laid out in a row, numpy's with the point
    in one column, a token from column 0, and one mask keeps the columns from
    each text's first byte to its separator."""
    fast, slow = np.flatnonzero(~outside), np.flatnonzero(outside)
    x = v[fast]
    neg = x < 0
    n, e = _digits(np.abs(x))
    text, zeros = _text(n)
    a = e + 8  # column of a text row holding the first digit after the point
    p = np.maximum(e, 0) + 1  # digits before the point
    frac = np.maximum(24 - a - zeros, 0)  # digits after the point, trailing zeros cut
    token = tokens[slow].view(np.uint8).reshape(-1, _TOKEN.itemsize)
    length = (token != ord(" ")).sum(1)
    width_p, width_f = int((p + neg).max(initial=1)), int(frac.max(initial=1))
    width = max(width_p + width_f + 2, int(length.max(initial=0)) + 1)
    rows = np.empty((len(v), width), np.uint8)
    token = token[:, :width - 1]
    rows[slow, :token.shape[1]] = token
    at = 24 * np.arange(1, len(fast) + 1) + a
    _spans(rows, width_p, width)[fast] = _spans(text, width_p)[at - width_p]
    rows[fast, width_p] = ord(".")
    _spans(rows, width_f, width, width_p + 1)[fast] = _spans(text, width_f)[at]
    start, end = np.zeros(len(v), np.intp), np.empty(len(v), np.intp)
    start[fast] = width_p - p - neg
    rows[fast[neg], start[fast[neg]]] = ord("-")
    end[fast] = np.where(frac > 0, width_p + 1 + frac, width_p)
    end[slow] = length
    rows[np.arange(len(v)), end] = seps
    return rows[_KEEP[:, :width].take(start * (_ROW + 1) + end, axis=0)]


def _write_csv(path, table, header: str = "", symmetric: bool = False) -> None:
    """The header, then each row of a 2-D float table as a line of '%.17g'
    text joined by commas: byte for byte np.savetxt(fmt="%.17g",
    delimiter=","), laid out CSV_BLOCK entries (whole rows) at a time. CPython
    formats each entry outside numpy's range once, or, when the table equals
    its transpose bit for bit (symmetric), once per pair: in the block that
    holds the upper entry, whose token the lower entry's block then copies.
    The tokens held for later blocks are those of the rows written so far in
    the columns of the rows not yet written, at most n^2/4 for an n x n table."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, CSV_BLOCK // max(cols, 1))
    seps = np.tile(np.append(np.full(max(cols - 1, 0), ord(",")), ord("\n")).astype(np.uint8),
                   step)
    later = {}  # symmetric: a block's first row -> (first row, tokens) of each earlier block
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for r0 in range(0, rows if cols else 0, step):
            block = table[r0:r0 + step]
            outside = ~((block >= 1e-4) & (block < 1e16) | (block <= -1e-4) & (block > -1e16))
            tokens = np.empty(block.shape, _TOKEN)
            upper = np.triu(outside, r0) if symmetric else outside
            tokens[upper] = _cpython(block[upper].tolist())
            if symmetric:
                r1 = r0 + len(block)
                square, lower = tokens[:, r0:r1], np.tril(outside[:, r0:r1], -1)
                square[lower] = square.T[lower]
                for b0, held in later.pop(r0, ()):  # left of the square, from earlier blocks
                    tokens[:, b0:b0 + step][outside[:, b0:b0 + step]] = held
                for c0 in range(r1, rows, step):  # right of it, held for later blocks
                    later.setdefault(c0, []).append(
                        (r0, tokens[:, c0:c0 + step].T[outside[:, c0:c0 + step].T]))
            fh.write(_layout(block.ravel(), seps[:block.size], outside.ravel(),
                             tokens.ravel()).tobytes())
