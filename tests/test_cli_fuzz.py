"""A typed-error referee for the files the CLI reads.

Each case changes one value of a valid file and runs the command that reads
it through cli.main, in process. A value is replaced by null, true, "1",
+-1e308, 10**400, NaN, [] or a ragged list, a key is deleted, or a list is
made one shorter or one longer. Whatever the file then holds, the command
must exit 0, 2 or 3 with no exception escaping, and an exit of 0 must write
finite outputs. Under pytest a RuntimeWarning raised in otgp is an error
(pyproject.toml), so it escapes too.

The cases are drawn by seeded generators: each path pattern of a JSON file
(list indices folded to *) meets each mutation that applies to it, at one
path drawn for the pair; the Gram CSV takes each odd token at a drawn cell,
and the row and table edits.
"""

import json
import math
import random
import shutil
import traceback
from pathlib import Path

import numpy as np
import pytest

from otgp import dataio
from otgp.cli import main
from otgp.measures import DiskConfig, GaussianMeasure, GridDensity

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")  # constant responses, empty CSV

SEED = 30
G = 12  # grid side of the grid rows and of the grid model
REPLACEMENTS = [None, True, "1", 1e308, -1e308, 10**400, math.nan, [], [[0.5], [0.5, 0.5]]]
CSV_TOKENS = ["", "true", "1x", "1e308", "-1e308", "1e400", "nan"]


def nodes(value, path=()):
    """(path, value) of every node below the root, depth first."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def edits(path, value) -> list:
    """The mutations of the node at path: each replacement, the deletion of a
    key, and one entry fewer or more in a nonempty list."""
    out = [("replace", v) for v in REPLACEMENTS]
    if isinstance(path[-1], str):
        out.append(("delete", None))
    if isinstance(value, list) and value:
        out += [("shorten", None), ("lengthen", None)]
    return out


def mutated(payload, path, edit):
    """A copy of payload with edit made at path."""
    out = json.loads(json.dumps(payload))
    *parents, key = path
    parent = out
    for k in parents:
        parent = parent[k]
    kind, value = edit
    if kind == "replace":
        parent[key] = value
    elif kind == "delete":
        del parent[key]
    elif kind == "shorten":
        parent[key].pop()
    else:
        parent[key].append(parent[key][-1])
    return out


def json_cases(payload, rng):
    """(description, mutated payload) for each path pattern and each of its
    edits, at a path of that pattern drawn from those the edit applies to."""
    by_pattern = {}
    for path, value in nodes(payload):
        pattern = tuple("*" if isinstance(key, int) else key for key in path)
        for edit in edits(path, value):
            by_pattern.setdefault((pattern, repr(edit)), []).append((path, edit))
    for key in sorted(by_pattern):
        path, edit = rng.choice(by_pattern[key])
        yield f"{'/'.join(map(str, path))}: {edit[0]} {edit[1]!r}", mutated(payload, path, edit)


def csv_cases(rows, rng):
    """(description, mutated rows) of a CSV table held as rows of cell texts."""
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    for token in CSV_TOKENS:
        i, j = rng.choice(cells)
        yield f"cell {i},{j}: {token!r}", [[token if (a, b) == (i, j) else cell
                                            for b, cell in enumerate(row)]
                                           for a, row in enumerate(rows)]
    i = rng.randrange(len(rows))
    yield f"row {i}: shorten", [row[:-1] if a == i else row for a, row in enumerate(rows)]
    yield f"row {i}: lengthen", [row + row[-1:] if a == i else row for a, row in enumerate(rows)]
    yield "last row dropped", rows[:-1]
    yield "last row repeated", rows + rows[-1:]
    yield "no rows", []


def finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(map(finite_json, value.values()))
    if isinstance(value, list):
        return all(map(finite_json, value))
    return not isinstance(value, float) or math.isfinite(value)


def finite_csv(path, skiprows=0) -> bool:
    return bool(np.isfinite(np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)).all())


def referee(cases, write, argv, out: Path, outputs_finite) -> None:
    """Run argv on every case, out removed before each, and fail naming each
    case that breaks the contract; print the count of each exit."""
    broken, exits = [], {}
    for description, case in cases:
        write(case)
        if out.is_dir():
            shutil.rmtree(out)
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except Exception as exc:  # an escape is what the referee reports
            code, frame = type(exc).__name__, traceback.extract_tb(exc.__traceback__)[-1]
            broken.append(f"{description}: {code} at {Path(frame.filename).name}:"
                          f"{frame.lineno}: {exc}")
        else:
            if code not in (0, 2, 3):
                broken.append(f"{description}: exit {code}")
            elif code == 0 and not outputs_finite():
                broken.append(f"{description}: exit 0 with non-finite output")
        exits[code] = exits.get(code, 0) + 1
    print(f"{sum(exits.values())} cases, exits {exits}")
    assert not broken, "\n".join(broken)


def gaussians(rng, n):
    return [GaussianMeasure(rng.uniform(0.3, 0.7, 2), np.diag(rng.uniform(0.004, 0.02, 2)))
            for _ in range(n)]


def grid(rng):
    w = rng.uniform(0.1, 1.0, (G, G))
    return GridDensity(w / w.sum())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid files the cases mutate, and a one-row query per model."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(SEED)
    dataio.save_gaussian_set(root / "set.json", gaussians(rng, 4))
    mixed = [*gaussians(rng, 2), grid(rng), grid(rng),
             DiskConfig(0.15, [[0.3, 0.4], [0.6, 0.6]]), DiskConfig(0.2, [[0.5, 0.5]])]
    dataio.save_dataset(root / "mixed.json", mixed, rng.normal(size=len(mixed)))
    for kind, inputs in (("gaussian", gaussians(rng, 5)), ("grid", [grid(rng) for _ in range(4)])):
        dataio.save_dataset(root / f"{kind}-data.json", inputs, rng.normal(size=len(inputs)))
        dataio.save_dataset(root / f"{kind}-query.json", inputs[:1], [0.0])
        assert main(["fit", "--data", str(root / f"{kind}-data.json"), "--grid-size", str(G),
                     "--out", str(root / f"{kind}-model.json")]) == 0
    assert main(["kernel-matrix", "--input", str(root / "set.json"), "--theta", "1,1,2,0.01",
                 "--out", str(root / "gram.csv")]) == 0
    return root


def run_json(files, name, argv, out, outputs_finite):
    """The referee on the JSON cases of files/name.json, which argv reads as MUTATED."""
    payload, target = json.loads((files / f"{name}.json").read_text()), files / "mutated.json"
    referee(json_cases(payload, random.Random(f"{SEED}-{name}")),
            lambda case: target.write_text(json.dumps(case)),
            [str(target) if arg == "MUTATED" else arg for arg in argv], out, outputs_finite)


def test_gaussian_set(files):
    out = files / "out.csv"
    run_json(files, "set", ["kernel-matrix", "--input", "MUTATED", "--theta", "1,1,2,0.01",
                            "--out", str(out)], out, lambda: finite_csv(out))


def test_mixed_dataset(files):
    out = files / "out.json"
    run_json(files, "mixed", ["fit", "--data", "MUTATED", "--grid-size", str(G), "--out",
                              str(out)], out, lambda: finite_json(json.loads(out.read_text())))


@pytest.mark.parametrize("kind", ["gaussian", "grid"])
def test_model(files, kind):
    out = files / "out.csv"
    run_json(files, f"{kind}-model", ["predict", "--model", "MUTATED", "--data",
                                      str(files / f"{kind}-query.json"), "--out", str(out)],
             out, lambda: finite_csv(out, skiprows=1))


def test_gram_csv(files):
    rows = [line.split(",") for line in (files / "gram.csv").read_text().splitlines()]
    target, out = files / "mutated.csv", files / "out"

    def outputs_finite():
        report = json.loads((out / "report.json").read_text())
        return finite_json(report) and finite_csv(out / "eigenvalues.csv", skiprows=1)

    referee(csv_cases(rows, random.Random(f"{SEED}-gram")),
            lambda rows: target.write_text("".join(",".join(row) + "\n" for row in rows)),
            ["diagnose-psd", "--gram", str(target), "--out", str(out)], out, outputs_finite)
