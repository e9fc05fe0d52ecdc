import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from otgp import dataio
from otgp.cli import main
from otgp.errors import (MAGNITUDE, MAGNITUDE_RULE, NotPositiveDefinite, NotSymmetric,
                         ReferenceMismatch, ValidationError)
from otgp.gp import gp_fit_mle, gp_predict
from otgp.kernels import embed_gaussians, embed_grids
from otgp.measures import DiskConfig, GaussianMeasure, GridDensity

BOUND = re.escape(MAGNITUDE_RULE)  # the input rule's words, as a pattern


def save_disk_config(path, cfg: DiskConfig) -> None:
    Path(path).write_text(json.dumps({"radius": cfg.radius, "centers": cfg.centers.tolist()}))


def load_disk_config(path) -> DiskConfig:
    payload = json.loads(Path(path).read_text())
    return DiskConfig(radius=payload["radius"], centers=payload["centers"])


def load_predictions_csv(path) -> np.ndarray:
    """(n, 4) array of mean, variance, lo, hi."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_eigenvalues_csv(path) -> np.ndarray:
    return np.loadtxt(path, skiprows=1, ndmin=1)


def random_density(rng, g):
    w = rng.uniform(0.1, 1.0, size=(g, g))
    return GridDensity(w / w.sum())


class TestRoundTrips:
    def test_gaussian_set(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        ms = [GaussianMeasure(rng.normal(size=3), a @ a.T + np.eye(3))
              for _ in range(4)]
        path = tmp_path / "set.json"
        dataio.save_gaussian_set(path, ms)
        back = dataio.load_gaussian_set(path)
        for m, b in zip(ms, back):
            np.testing.assert_array_equal(m.mean, b.mean)
            np.testing.assert_array_equal(m.cov, b.cov)

    def test_grid_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        d = random_density(rng, 6)
        path = tmp_path / "grid.csv"
        dataio.save_grid_csv(path, d)
        back = dataio.load_grid_csv(path)
        np.testing.assert_array_equal(back.weights, d.weights)

    def test_grid_dir_sorted(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = [random_density(rng, 4) for _ in range(3)]
        for i, d in enumerate(ds):
            dataio.save_grid_csv(tmp_path / f"g{i}.csv", d)
        back = dataio.load_grid_dir(tmp_path)
        assert len(back) == 3
        np.testing.assert_array_equal(back[1].weights, ds[1].weights)

    def test_disk_config(self, tmp_path):
        cfg = DiskConfig(0.05, [[0.2, 0.3], [0.6, 0.7]])
        path = tmp_path / "disks.json"
        save_disk_config(path, cfg)
        back = load_disk_config(path)
        assert back.radius == cfg.radius
        np.testing.assert_array_equal(back.centers, cfg.centers)

    def test_radius_at_the_bound_dataset(self, tmp_path):
        # DiskConfig takes a radius up to the bound (one disk covering the
        # square), so the file save_dataset writes of it loads; an infinite or
        # NaN radius is refused, by the input rule, as the API refuses it
        path = tmp_path / "data.json"
        dataio.save_dataset(path, [DiskConfig(MAGNITUDE, [[0.5, 0.5]])], [1.0])
        (back,), ys = dataio.load_dataset(path)
        assert back.radius == MAGNITUDE and ys == [1.0]
        text = path.read_text()
        for word, value in (("Infinity", math.inf), ("NaN", math.nan)):
            path.write_text(text.replace(repr(MAGNITUDE), word))
            with pytest.raises(ValidationError) as caught:
                dataio.load_dataset(path)
            assert str(caught.value) == f"item 0: radius must be {MAGNITUDE_RULE}, got {value}"

    def test_dataset_mixed_kinds(self, tmp_path):
        rng = np.random.default_rng(3)
        inputs = [
            GaussianMeasure([0.4, 0.5], 0.01 * np.eye(2)),
            random_density(rng, 4),
            DiskConfig(0.1, [[0.5, 0.5]]),
        ]
        path = tmp_path / "data.json"
        dataio.save_dataset(path, inputs, [1.0, 2.0, 3.0])
        back_inputs, ys = dataio.load_dataset(path)
        assert ys == [1.0, 2.0, 3.0]
        assert isinstance(back_inputs[0], GaussianMeasure)
        assert isinstance(back_inputs[1], GridDensity)
        assert isinstance(back_inputs[2], DiskConfig)

    def test_dataset_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"input": {"kind": "mystery"}, "y": 1.0}]))
        with pytest.raises(ValidationError):
            dataio.load_dataset(path)

    def test_predictions_csv_header(self, tmp_path):
        from otgp.gp import PredictionResult

        path = tmp_path / "preds.csv"
        dataio.save_predictions_csv(
            path, PredictionResult(np.array([1.0]), np.array([0.25]),
                                   (np.array([0.1]), np.array([1.9]))))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mean,variance,lo,hi"
        assert lines[1].startswith("1,0.25,")
        back = load_predictions_csv(path)
        np.testing.assert_allclose(back, [[1.0, 0.25, 0.1, 1.9]])

    def test_eigenvalues_csv_roundtrip(self, tmp_path):
        path = tmp_path / "eig.csv"
        vals = np.array([-0.5, 0.25, 3.75])
        dataio.save_eigenvalues_csv(path, vals)
        np.testing.assert_array_equal(load_eigenvalues_csv(path), vals)


def savetxt_bytes(matrix) -> bytes:
    buf = io.BytesIO()
    np.savetxt(buf, matrix, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def symmetric_with_specials(n: int, seed: int) -> np.ndarray:
    """Symmetric matrix of mixed-sign values of many magnitudes, with 0, 1,
    negatives, 1e-300 and the smallest subnormal 5e-324 placed symmetrically."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-20, 20, size=(n, n))
    a = np.triu(a) + np.triu(a, 1).T
    specials = [0.0, 1.0, -1.0, -2.5e-7, 1e-300, 5e-324, -5e-324, 0.1]
    for value, (i, j) in zip(specials, rng.integers(n, size=(len(specials), 2))):
        a[i, j] = a[j, i] = value
    return a


class TestGramCsv:
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_bytes_equal_savetxt(self, tmp_path, n):
        a = symmetric_with_specials(n, seed=n)
        path = tmp_path / "gram.csv"
        dataio.save_gram_csv(path, a)
        assert path.read_bytes() == savetxt_bytes(a)
        back = dataio.read_file(path, csv=True)
        assert back.tobytes() == a.tobytes()

    def test_every_special_value(self, tmp_path):
        values = np.array([0.0, 1.0, -1.0, -3.0, 1e-300, 5e-324, -5e-324, 1e300])
        a = np.add.outer(values, values)  # exactly symmetric
        a[np.diag_indices(len(values))] = values
        path = tmp_path / "gram.csv"
        dataio.save_gram_csv(path, a)
        assert path.read_bytes() == savetxt_bytes(a)
        assert dataio.read_file(path, csv=True).tobytes() == a.tobytes()

    def test_asymmetric_matrix_is_refused(self, tmp_path):
        a = symmetric_with_specials(5, seed=1)
        a[3, 1] = np.nextafter(a[3, 1], np.inf)
        with pytest.raises(NotSymmetric):
            dataio.save_gram_csv(tmp_path / "gram.csv", a)

    def test_signed_zero_asymmetry_is_refused(self, tmp_path):
        # -0.0 == 0.0, but they format as "-0" and "0"
        a = np.eye(3)
        a[0, 2] = -0.0
        with pytest.raises(NotSymmetric):
            dataio.save_gram_csv(tmp_path / "gram.csv", a)

    def test_non_square_matrix_is_refused(self, tmp_path):
        with pytest.raises(ValidationError):
            dataio.save_gram_csv(tmp_path / "gram.csv", np.ones((2, 3)))


class TestTableCsv:
    """The table writers format the whole table at once; the bytes are
    those of the per-row f-string formatting they replaced."""

    VALUES = np.array([0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 0.1, 12345.678, 1e300, -7e-9])

    def test_predictions_bytes(self, tmp_path):
        from otgp.gp import PredictionResult

        rng = np.random.default_rng(3)
        cols = [rng.permutation(self.VALUES) for _ in range(4)]
        path = tmp_path / "preds.csv"
        dataio.save_predictions_csv(path, PredictionResult(cols[0], cols[1], (cols[2], cols[3])))
        rows = ["mean,variance,lo,hi"] + [f"{m:.17g},{v:.17g},{lo:.17g},{hi:.17g}"
                                          for m, v, lo, hi in zip(*cols)]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_empty_predictions(self, tmp_path):
        from otgp.gp import PredictionResult

        path = tmp_path / "preds.csv"
        empty = np.empty(0)
        dataio.save_predictions_csv(path, PredictionResult(empty, empty, (empty, empty)))
        assert path.read_bytes() == b"mean,variance,lo,hi\n"

    def test_eigenvalues_bytes(self, tmp_path):
        path = tmp_path / "eig.csv"
        dataio.save_eigenvalues_csv(path, self.VALUES)
        rows = ["eigenvalue"] + [f"{v:.17g}" for v in self.VALUES]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def cpython_rows(values: np.ndarray, cols: int) -> bytes:
    """CPython's '%.17g' of each value, cols to a comma-joined line."""
    line = "%.17g," * (cols - 1) + "%.17g\n"
    return (line * (len(values) // cols) % tuple(values.tolist())).encode()


class TestCsvWriterReferee:
    """The one CSV writer against CPython's '%.17g', byte for byte: numpy's
    digits on the fixed-notation range, CPython's everywhere else."""

    @staticmethod
    def check(tmp_path, values, cols=16):
        values = np.asarray(values, dtype=float)
        values = np.append(values, np.ones(-len(values) % cols))  # whole rows
        path = tmp_path / "table.csv"
        dataio._write_csv(path, values.reshape(-1, cols))
        assert path.read_bytes() == cpython_rows(values, cols)

    def test_exact_ties_round_half_to_even(self, tmp_path):
        odd = np.arange(2**17 + 1, 10 * 2**17, 2)
        self.check(tmp_path, np.concatenate([odd / 2.0**17, odd / 2.0**18]))

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # just below a power of ten, floor(log10) is one too high; the digits
        # of such a value could carry onto 10^17
        near = [powers := 10.0 ** np.arange(-325, 309)]
        for direction in (0.0, np.inf):
            x = powers
            for _ in range(64):
                near.append(x := np.nextafter(x, direction))
        values = np.concatenate(near)
        self.check(tmp_path, np.concatenate([values, -values]))

    def test_a_misjudged_exponent_is_corrected_either_way(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-4, 16, 20000) * rng.choice([-1.0, 1.0], 20000)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + rng.choice([-0.7, 0.7], len(x)))
        self.check(tmp_path, values)

    def test_integers(self, tmp_path):
        rng = np.random.default_rng(1)
        self.check(tmp_path, np.concatenate([np.arange(1.0, 50001.0),
                                             rng.integers(1, 10**16, 50000).astype(float)]))

    def test_random_values(self, tmp_path):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2**64, 100000, dtype=np.uint64).view(float)
        spread = 10.0 ** rng.uniform(-5, 17, 100000) * rng.choice([-1.0, 1.0], 100000)
        self.check(tmp_path, np.concatenate([bits, spread]))

    def test_special_values(self, tmp_path):
        edges = [1e-4, 1e16, np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0)]
        self.check(tmp_path, [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                              2.2250738585072014e-308, np.inf, -np.inf, np.nan,
                              *edges, *-np.array(edges)], cols=3)

    @pytest.mark.parametrize("cols, rows", [(9, 4), (3, 5), (1, 7)])
    def test_one_row_and_last_partial_blocks(self, tmp_path, monkeypatch, cols, rows):
        # 8 entries a block: one row of 9, two rows of 3 with one left over,
        # eight rows of 1 (no block full)
        monkeypatch.setattr(dataio, "CSV_BLOCK", 8)
        rng = np.random.default_rng(cols)
        values = rng.choice([0.5, -3.25, 1e-7, 0.0, 123456.789, 1e300], cols * rows)
        self.check(tmp_path, values * rng.uniform(0.5, 2.0, cols * rows), cols)

    def test_steep_kernel_gram_equals_savetxt(self, tmp_path, monkeypatch):
        # mostly entries outside the fixed-notation range, each pair formatted
        # once; blocks of 9 rows, the last of 3, so that later blocks copy
        # the tokens of the upper entries that earlier ones formatted
        from otgp.kernels import KernelParams, embed, gram_matrix
        from otgp.measures import sample_gaussian_population

        monkeypatch.setattr(dataio, "CSV_BLOCK", 9 * 120)
        population = sample_gaussian_population(120, 2, (3, 0), entry_range=(0.1, 0.7))
        gram = gram_matrix(embed(population, warm=False), KernelParams(1.0, 300.0, 2.0, 0.0))
        assert np.mean(np.abs(gram) < 1e-4) > 0.5
        path = tmp_path / "gram.csv"
        dataio.save_gram_csv(path, gram)
        assert path.read_bytes() == savetxt_bytes(gram)

    def test_gram_of_cpython_entries_holds_a_quarter_of_their_tokens(self, tmp_path,
                                                                      monkeypatch):
        # every entry outside numpy's range: the tokens held for later blocks
        # peak at n^2/4 of 25 bytes, plus one block's working arrays
        import tracemalloc

        n = 400
        monkeypatch.setattr(dataio, "CSV_BLOCK", 10 * n)
        upper = np.triu(np.random.default_rng(4).uniform(1e-6, 1e-5, (n, n)))
        gram = upper + np.triu(upper, 1).T
        tracemalloc.start()
        try:
            dataio.save_gram_csv(tmp_path / "gram.csv", gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * n * n / 4 + 250 * dataio.CSV_BLOCK
        assert (tmp_path / "gram.csv").read_bytes() == savetxt_bytes(gram)


def write_json(tmp_path, payload, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


GOOD = {"mean": [0.5, 0.5], "cov": [[0.01, 0.0], [0.0, 0.01]]}


class TestMalformedJson:
    """Well-formed JSON of the wrong shape is a ValidationError naming the
    item, not a KeyError or a numpy ValueError."""

    @pytest.mark.parametrize("payload,pattern", [
        ({"dim": 2}, "missing 'items'"),
        ([GOOD], "missing 'items'"),
        ({"items": {"mean": [0.0]}}, "expected a list"),
        ({"items": [GOOD, {"cov": GOOD["cov"]}]}, r"^item 1: missing 'mean'"),
        ({"items": [GOOD, GOOD, {"mean": [0.5, 0.5]}]}, r"^item 2: missing 'cov'"),
        ({"items": [GOOD, GOOD, {"mean": [0.5, 0.5, 0.5], "cov": np.eye(3).tolist()}]},
         r"^item 2: mean of shape \(3,\) unlike item 0's \(2,\)"),
        ({"items": [GOOD, {"mean": [0.5, 0.5], "cov": np.eye(3).tolist()}]},
         r"^item 1: cov of shape \(3, 3\) unlike"),
        ({"items": [GOOD, {"mean": [0.5, 0.5], "cov": [[1.0, 0.0], [0.0]]}]},
         r"^item 1: cov is not a numeric array"),
        ({"items": [GOOD, {"mean": ["a", 0.5], "cov": GOOD["cov"]}]},
         r"^item 1: mean 'a' is not a number$"),
        ({"items": [GOOD, {"mean": [0.5, 0.5], "cov": [[1.0, 0.0], [0.0, -1.0]]}]},
         r"^item 1: minimum eigenvalue"),
        ({"dim": 3, "items": [GOOD]}, "declared dim is 3"),
    ])
    def test_gaussian_set(self, tmp_path, payload, pattern):
        with pytest.raises(ValidationError, match=pattern):
            dataio.load_gaussian_set(write_json(tmp_path, payload))

    def test_empty_gaussian_set(self, tmp_path):
        assert dataio.load_gaussian_set(write_json(tmp_path, {"dim": 2, "items": []})) == []

    @pytest.mark.parametrize("rows,pattern", [
        ({"input": {}}, "expected a list of rows"),
        ([{"y": 1.0}], r"^item 0: missing 'input'"),
        ([{"input": {"kind": "gaussian", **GOOD}, "y": 1.0},
          {"input": {"kind": "gaussian", **GOOD}}],
         r"^item 1: missing 'y'"),
        ([{"input": {"kind": "gaussian", **GOOD}, "y": "high"}], r"^item 0: y 'high' is not"),
        ([{"input": {"kind": "gaussian", **GOOD}, "y": 1.0},
          {"input": {"kind": "gaussian", "mean": [0.5, 0.5]}, "y": 1.0}],
         r"^item 1: missing 'cov'"),
        # rows 0 and 1 are grids: the failing Gaussian is named by its row
        ([{"input": {"kind": "grid", "weights": [[1.0]]}, "y": 1.0},
          {"input": {"kind": "grid", "weights": [[1.0]]}, "y": 1.0},
          {"input": {"kind": "gaussian", **GOOD}, "y": 1.0},
          {"input": {"kind": "gaussian", "mean": [0.5, 0.5], "cov": np.eye(3).tolist()},
           "y": 1.0}],
         r"^item 3: cov of shape"),
        ([{"input": {"kind": "grid", "weights": [[1.0]]}, "y": 1.0},
          {"input": {"kind": "gaussian", "mean": [0.5, 0.5], "cov": [[1.0, 2.0], [2.0, 1.0]]},
           "y": 1.0}],
         r"^item 1: minimum eigenvalue"),
        ([{"input": {"kind": "gaussian", **GOOD}, "y": 1.0},
          {"input": {"kind": "grid", "weights": [[0.5, 0.5], [0.5]]}, "y": 1.0}],
         r"^item 1: weights is not a numeric array"),
        ([{"input": {"kind": "gaussian", **GOOD}, "y": 1.0},
          {"input": {"kind": "grid"}, "y": 1.0}],
         r"^item 1: missing 'weights'"),
    ])
    def test_dataset(self, tmp_path, rows, pattern):
        with pytest.raises(ValidationError, match=pattern):
            dataio.load_dataset(write_json(tmp_path, rows))

    def test_dataset_names_the_first_failing_gaussian(self, tmp_path):
        rows = [{"input": {"kind": "gaussian", **GOOD}, "y": 1.0} for _ in range(4)]
        rows[2]["input"]["cov"] = [[1.0, 0.0], [0.0, -1.0]]
        with pytest.raises(NotPositiveDefinite, match=r"^item 2: "):
            dataio.load_dataset(write_json(tmp_path, rows))
        # an item's numbers and its covariance are checked item by item, in order,
        # as gaussian_measures checks them, not every mean before any covariance
        rows[3]["input"]["mean"] = [math.nan, 0.5]
        with pytest.raises(NotPositiveDefinite, match=r"^item 2: "):
            dataio.load_dataset(write_json(tmp_path, rows))
        rows[1]["input"]["mean"] = [0.5, 1e300]
        with pytest.raises(ValidationError, match=f"^item 1: mean must be {BOUND}, got 1e"):
            dataio.load_dataset(write_json(tmp_path, rows))

    def test_dataset_without_responses(self, tmp_path):
        rows = [{"input": {"kind": "gaussian", **GOOD}}, {"input": {"kind": "gaussian", **GOOD},
                                                          "y": 2.0}]
        inputs, ys = dataio.load_dataset(write_json(tmp_path, rows), require_y=False)
        assert ys == [None, 2.0] and len(inputs) == 2

    @pytest.mark.parametrize("payload,pattern", [
        ({"kind": "gaussian", "mean": [0.5, 0.5]}, "missing 'cov'"),
        ({"kind": "gaussian", "cov": GOOD["cov"]}, "missing 'mean'"),
        ({"kind": "gaussian", "mean": [0.5, 0.5], "cov": [[1.0, 0.0], [0.0]]},
         "not a numeric array"),
        ({"kind": "grid", "weights": [[0.5, 0.5], [0.5]]}, "weights is not a numeric array"),
        ({"kind": "disks", "radius": 0.1}, "missing 'centers'"),
        (["gaussian"], "unknown input kind"),
        ({"kind": "disks", "radius": "x", "centers": [[0.5, 0.5]]}, "radius 'x' is not a number"),
    ])
    def test_input_from_json(self, payload, pattern):
        with pytest.raises(ValidationError, match=pattern):
            dataio.input_from_json(payload)

    @pytest.fixture
    def model_payload(self, tmp_path):
        rng = np.random.default_rng(8)
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2)) for _ in range(4)]
        model = gp_fit_mle(embed_gaussians(ms, ms[0]), rng.normal(size=4))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("edit,pattern", [
        (lambda p: p.pop("theta"), "missing 'theta'"),
        (lambda p: p["theta"].pop("rate"), "missing 'rate'"),
        (lambda p: p["theta"].update(rate="fast"), "rate 'fast' is not a number"),
        (lambda p: p.pop("y"), "missing 'y'"),
        (lambda p: p.update(y=[1.0, [2.0]]), r"^item 1: y of shape \(1,\) unlike item 0's \(\)$"),
        (lambda p: p.pop("kind"), "missing 'kind'"),
        (lambda p: p["reference"].pop("cov"), "missing 'cov'"),
        (lambda p: p.update(X=[[0.0] * 6, [0.0]]), "X is not a numeric array"),
        (lambda p: p.update(kind="foo"), "unknown model kind 'foo'"),
        (lambda p: p["theta"].update(rate=math.inf), f"^rate must be {BOUND}, got inf$"),
        (lambda p: p.update(y=p["y"][:-1]), "model X and y differ in length"),
        # the input rule: alpha = R^-1 y overflowed and the predictions were not finite
        (lambda p: p["y"].__setitem__(0, 1e308), f"^item 0: y must be {BOUND}, got 1e\\+308$"),
    ])
    def test_model(self, tmp_path, model_payload, edit, pattern):
        edit(model_payload)
        with pytest.raises(ValidationError, match=pattern):
            dataio.load_model(write_json(tmp_path, model_payload))

    @pytest.fixture
    def grid_model_payload(self, tmp_path):
        rng = np.random.default_rng(10)
        densities = [random_density(rng, 4) for _ in range(5)]
        model = gp_fit_mle(embed_grids(densities, densities[0], lam=20.0), rng.normal(size=5))
        path = tmp_path / "grid-model.json"
        dataio.save_model(path, model)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("edit,pattern", [
        (lambda p: p.pop("lam"), "missing 'lam'"),
        (lambda p: p.update(lam="x"), "lam 'x' is not a number"),
        (lambda p: p.update(lam=None), "lam None is not a number"),
        (lambda p: p.update(lam=0.0), "lam must be finite and positive, got 0.0"),
        (lambda p: p.update(lam=-20.0), "lam must be finite and positive, got -20.0"),
        (lambda p: p.update(lam=float("inf")), f"^lam must be {BOUND}, got inf$"),
        (lambda p: p.update(lam=float("nan")), f"^lam must be {BOUND}, got nan$"),
    ])
    def test_grid_model_penalty(self, tmp_path, grid_model_payload, edit, pattern):
        assert dataio.load_model(write_json(tmp_path, grid_model_payload)).features.lam == 20.0
        edit(grid_model_payload)
        with pytest.raises(ValidationError, match=pattern):
            dataio.load_model(write_json(tmp_path, grid_model_payload))


    @pytest.mark.parametrize("value", [True, "0.25", None])
    def test_grid_model_reference_weights(self, tmp_path, grid_model_payload, value):
        grid_model_payload["reference"]["weights"][1][2] = value
        with pytest.raises(ValidationError, match=f"^weights {value!r} is not a number"):
            dataio.load_model(write_json(tmp_path, grid_model_payload))


class TestModelRoundTrip:
    def test_gaussian_model(self, tmp_path):
        rng = np.random.default_rng(5)
        reference = GaussianMeasure([0.0, 0.0], 0.01 * np.eye(2))
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2))
              for _ in range(8)]
        feats = embed_gaussians(ms, reference)
        y = np.array([m.mean[0] for m in ms])
        model = gp_fit_mle(feats, y)
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        back = dataio.load_model(path)
        query = embed_gaussians([GaussianMeasure([0.4, 0.6], 0.01 * np.eye(2))],
                                back.features.reference)
        a = gp_predict(model, query)
        b = gp_predict(back, query)
        assert a.mean[0] == pytest.approx(b.mean[0], abs=1e-12)
        assert a.variance[0] == pytest.approx(b.variance[0], abs=1e-12)

    def test_grid_model(self, tmp_path):
        rng = np.random.default_rng(6)
        densities = [random_density(rng, 5) for _ in range(6)]
        from otgp.barycenter import grid_barycenter

        bar = grid_barycenter(densities, lam=20.0).result
        feats = embed_grids(densities, bar, lam=20.0)
        y = rng.normal(size=6)
        model = gp_fit_mle(feats, y)
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        back = dataio.load_model(path)
        pred_a = gp_predict(model, feats[2])
        pred_b = gp_predict(back, back.features[2])
        assert pred_a.mean[0] == pytest.approx(pred_b.mean[0], abs=1e-12)

    def test_grid_model_keeps_its_penalty(self, tmp_path):
        rng = np.random.default_rng(9)
        densities = [random_density(rng, 5) for _ in range(6)]
        from otgp.barycenter import grid_barycenter

        bar = grid_barycenter(densities, lam=60.0).result
        model = gp_fit_mle(embed_grids(densities, bar, lam=60.0), rng.normal(size=6))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        assert json.loads(path.read_text())["lam"] == 60.0
        back = dataio.load_model(path)
        assert back.features.lam == 60.0
        with pytest.raises(ReferenceMismatch):
            gp_predict(back, embed_grids(densities[:1], bar, lam=20.0))

    def test_version_6_stores_x_and_reference(self, tmp_path):
        rng = np.random.default_rng(7)
        reference = GaussianMeasure([0.1, 0.2], 0.01 * np.eye(2))
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2)) for _ in range(5)]
        model = gp_fit_mle(embed_gaussians(ms, reference), rng.normal(size=5))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        payload = json.loads(path.read_text())
        assert payload["version"] == 6
        assert payload["reference"] == {"mean": [0.1, 0.2], "cov": reference.cov.tolist()}
        assert "lam" not in payload
        back = dataio.load_model(path)
        np.testing.assert_array_equal(back.features.X, model.features.X)
        np.testing.assert_array_equal(back.distances, model.distances)

    def test_version_3_file_is_refused(self, tmp_path):
        # version 3 grid rows held argmax cells, not the barycentric
        # projection; version 5 ones may come from plain cold solves, where
        # predict over-relaxes them
        rng = np.random.default_rng(10)
        densities = [random_density(rng, 4) for _ in range(4)]
        model = gp_fit_mle(embed_grids(densities, densities[0], lam=20.0), rng.normal(size=4))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        payload = json.loads(path.read_text())
        for version in (3, 5):
            path.write_text(json.dumps({**payload, "version": version}))
            with pytest.raises(ValidationError, match="refit the model"):
                dataio.load_model(path)

    def test_version_4_file_is_refused(self, tmp_path):
        # version 4 grid rows were solved to a row-marginal error of 1e-9, not
        # MAP_TOL, and version 5 ones may be plain, not over-relaxed, solves:
        # a training input would not re-embed to its own row
        rng = np.random.default_rng(11)
        densities = [random_density(rng, 4) for _ in range(4)]
        model = gp_fit_mle(embed_grids(densities, densities[0], lam=20.0), rng.normal(size=4))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        payload = json.loads(path.read_text())
        for version in (4, 5):
            path.write_text(json.dumps({**payload, "version": version}))
            with pytest.raises(ValidationError, match="refit the model"):
                dataio.load_model(path)

    def test_file_without_version_is_refused(self, tmp_path):
        rng = np.random.default_rng(8)
        ms = [GaussianMeasure(rng.uniform(0, 1, 2), 0.01 * np.eye(2)) for _ in range(4)]
        model = gp_fit_mle(embed_gaussians(ms, ms[0]), rng.normal(size=4))
        path = tmp_path / "model.json"
        dataio.save_model(path, model)
        payload = json.loads(path.read_text())
        del payload["version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            dataio.load_model(path)


class TestScalarsThatAreNotFiniteNumbers:
    """Python's json reads NaN and Infinity, and a boolean or a numeric
    string is not a number: each is exit 2 with an error naming the key and,
    for a list entry, its row; no output file is written."""

    @pytest.fixture
    def data(self):
        return [{"input": {"kind": "gaussian", "mean": [0.2 + 0.1 * i, 0.6 - 0.05 * i],
                           "cov": (0.0004 * np.eye(2)).tolist()}, "y": math.sin(i)}
                for i in range(6)]

    def run(self, argv, out, capsys) -> str:
        assert main(argv) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mle", "cv"])
    @pytest.mark.parametrize("value,message", [
        (math.inf, f"y must be {MAGNITUDE_RULE}, got inf"),
        (-math.inf, f"y must be {MAGNITUDE_RULE}, got -inf"),
        (math.nan, f"y must be {MAGNITUDE_RULE}, got nan"),
        (10**400, f"y must be {MAGNITUDE_RULE}, got {10**400}"),
        (True, "y True is not a number"),
        ("0.5", "y '0.5' is not a number"),
    ], ids=["inf", "-inf", "nan", "huge-int", "true", "string"])
    def test_dataset_response(self, tmp_path, capsys, data, method, value, message):
        data[3]["y"] = value
        out = tmp_path / "model.json"
        err = self.run(["fit", "--data", str(write_json(tmp_path, data)), "--method", method,
                        "--out", str(out)], out, capsys)
        assert err == f"validation error: item 3: {message}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p["y"].__setitem__(0, math.nan), f"item 0: y must be {MAGNITUDE_RULE}, got nan"),
        (lambda p: p["y"].__setitem__(4, math.inf), f"item 4: y must be {MAGNITUDE_RULE}, got inf"),
        (lambda p: p["theta"].update(nugget="0.001"), "nugget '0.001' is not a number"),
        (lambda p: p["theta"].update(amplitude=math.inf),
         "amplitude must be a finite float >= 0, got inf"),
        (lambda p: p["theta"].update(amplitude=1e308),
         "amplitude^2 + nugget must be a finite float >= 0, got inf"),
        (lambda p: p["theta"].update(exponent=True), "exponent True is not a number"),
        (lambda p: p.update(degenerate="no"), "degenerate 'no' is not a boolean"),
        (lambda p: p.pop("degenerate"), "missing 'degenerate'"),
        (lambda p: p.update(y=[[v] for v in p["y"]]),
         "y must be a list of numbers, got shape (6, 1)"),
        (lambda p: p["y"].__setitem__(2, True), "item 2: y True is not a number"),
        (lambda p: p["X"][1].__setitem__(0, "0.5"), "X '0.5' is not a number"),
        (lambda p: p["reference"]["mean"].__setitem__(0, None), "mean None is not a number"),
        (lambda p: p["reference"]["cov"][0].__setitem__(1, False), "cov False is not a number"),
    ])
    def test_model(self, tmp_path, capsys, data, edit, message):
        train, model = write_json(tmp_path, data, "train.json"), tmp_path / "model.json"
        assert main(["fit", "--data", str(train), "--method", "cv", "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        edit(payload)
        out = tmp_path / "predictions.csv"
        err = self.run(["predict", "--model", str(write_json(tmp_path, payload)),
                        "--data", str(train), "--out", str(out)], out, capsys)
        assert err == f"validation error: {message}\n"


class TestArraysOfNonNumbers:
    """numpy reads a boolean, a numeric string or null inside an array as a
    number, and upcasts a boolean among numbers: every array a JSON file
    holds takes ints and floats only, and anything else is exit 2 with an
    error naming the key, the value and the item; no output file is written."""

    def run(self, argv, out, capsys) -> str:
        assert main(argv) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("item,message", [
        ({"mean": [1.5, True], "cov": GOOD["cov"]}, "mean True is not a number"),
        ({"mean": ["0.5", 0.5], "cov": GOOD["cov"]}, "mean '0.5' is not a number"),
        ({"mean": [0.5, None], "cov": GOOD["cov"]}, "mean None is not a number"),
        ({"mean": [0.5, 0.5], "cov": [[0.01, 0], [0, "0.01"]]}, "cov '0.01' is not a number"),
        ({"mean": [0.5, 0.5], "cov": [[0.01, False], [False, 0.01]]},
         "cov False is not a number"),
    ], ids=["mixed", "mean-string", "mean-null", "cov-string", "cov-false"])
    def test_gaussian_set(self, tmp_path, capsys, item, message):
        src = write_json(tmp_path, {"dim": 2, "items": [GOOD, GOOD, item]})
        out = tmp_path / "gram.csv"
        err = self.run(["kernel-matrix", "--input", str(src), "--theta", "1,1,2,0",
                        "--out", str(out)], out, capsys)
        assert err == f"validation error: item 2: {message}\n"

    @pytest.mark.parametrize("bad,message", [
        ({"kind": "gaussian", "mean": [1.5, True], "cov": GOOD["cov"]},
         "mean True is not a number"),
        ({"kind": "grid", "weights": [[0.25, 0.25], [0.25, "0.25"]]},
         "weights '0.25' is not a number"),
        ({"kind": "grid", "weights": [[0.25, 0.25], [False, 0.5]]},
         "weights False is not a number"),
        ({"kind": "disks", "radius": 0.1, "centers": [[0.5, 0.5], [0.2, True]]},
         "centers True is not a number"),
    ], ids=["gaussian-mean", "grid-string", "grid-false", "disk-centers"])
    def test_dataset_row(self, tmp_path, capsys, bad, message):
        good = {"gaussian": {"kind": "gaussian", **GOOD},
                "grid": {"kind": "grid", "weights": [[0.25, 0.25], [0.25, 0.25]]},
                "disks": {"kind": "disks", "radius": 0.1, "centers": [[0.5, 0.5]]}}[bad["kind"]]
        rows = [{"input": good, "y": 0.0}, {"input": good, "y": 1.0}, {"input": bad, "y": 2.0}]
        out = tmp_path / "model.json"
        err = self.run(["fit", "--data", str(write_json(tmp_path, rows)), "--out", str(out)],
                       out, capsys)
        assert err == f"validation error: item 2: {message}\n"

    def test_disk_list_centers(self, tmp_path, capsys):
        rows = [{"radius": 0.1, "centers": [[0.5, 0.5]]}, {"radius": 0.1, "centers": [["0.5", 1]]}]
        out = tmp_path / "bary"
        err = self.run(["barycenter", "--input", str(write_json(tmp_path, rows)),
                        "--out", str(out)], out, capsys)
        assert err == "validation error: item 1: centers '0.5' is not a number\n"
