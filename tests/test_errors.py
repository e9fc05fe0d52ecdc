"""errors.check_arg is the one owner of the scalar rules: what a number is,
which numbers a rule keeps, and how a refusal is worded. Every scalar the
API takes goes through it, so a value that is not a real number is a
ValidationError wherever it enters. errors.check_array applies the same rule
to each leaf of an array, and the API and the file readers both use it."""

import json
from fractions import Fraction

import numpy as np
import pytest

from otgp import dataio
from otgp.barycenter import gaussian_barycenter, grid_barycenter
from otgp.baseline import SmootherModel, select_bandwidth
from otgp.cli import main
from otgp.errors import RULES, ValidationError, check_arg, check_array
from otgp.gp import build_model, gp_fit_cv, metrics
from otgp.kernels import Embedding, KernelParams, embed, embed_gaussians, psd_diagnostic
from otgp.measures import (DiskConfig, EmpiricalSample, GaussianMeasure, GridDensity,
                           gaussian_measures, validate_spd)
from otgp.ot import CouplingPlan, TransportAssignment

COUNT_RULES = [rule for rule, (_, count) in RULES.items() if count]
NUMBER_RULES = [rule for rule, (_, count) in RULES.items() if not count]
NOT_NUMBERS = [True, False, np.True_, "1", "x", None, [1.0], (1.0,), {"x": 1},
               np.array(1.0), 1j]


@pytest.mark.parametrize("rule", NUMBER_RULES)
@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
def test_a_value_that_is_not_a_real_number_is_refused(rule, value):
    with pytest.raises(ValidationError) as caught:
        check_arg("x", value, rule)
    assert str(caught.value) == f"x {value!r} is not a number"


@pytest.mark.parametrize("rule", COUNT_RULES)
@pytest.mark.parametrize("value", [*NOT_NUMBERS, 2.0, 2.5, np.float64(3.0), Fraction(5, 1)],
                         ids=repr)
def test_a_count_that_is_not_an_integer_is_refused(rule, value):
    with pytest.raises(ValidationError) as caught:
        check_arg("n", value, rule)
    shown = value if isinstance(value, (float, Fraction)) else repr(value)
    assert str(caught.value) == f"n must be an integer, got {shown}"


@pytest.mark.parametrize("value", [3, 3.0, np.float32(3.0), np.float64(3.0), np.int64(3),
                                   np.uint8(3), Fraction(3, 1)], ids=repr)
def test_every_real_number_is_a_number(value):
    # exact floats and ints take the fast path, the other types the ABCs
    number = check_arg("x", value, "finite")
    assert type(number) is float and number == 3.0


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
def test_every_integer_is_a_count(value):
    assert check_arg("n", value, ">= 2") == 3.0


@pytest.mark.parametrize("rule,value,ok", [
    ("a number", float("nan"), True), ("a number", -float("inf"), True),
    ("positive", float("inf"), True), ("positive", float("nan"), False),
    ("positive", 0.0, False), ("finite and positive", float("inf"), False),
    (">= 2", 1, False), (">= 2", 2, True), (">= 1", 10**400, True),
    ("finite", 10**400, False),
])
def test_the_rules_keep_their_ranges(rule, value, ok):
    if ok:
        check_arg("x", value, rule)
    else:
        with pytest.raises(ValidationError, match=f"^x must be {rule}, got "):
            check_arg("x", value, rule)


def grids(*sizes):
    return [GridDensity(np.full((g, g), 1.0 / g**2)) for g in sizes]


GAUSSIANS = [GaussianMeasure([0.1 * k, 0.2], (1 + k) * 0.01 * np.eye(2)) for k in range(3)]
CENTERS = [[0.5, 0.5]]


# inputs that were accepted silently, accepted and crashing later, or
# refused with a TypeError before check_arg decided what a number is
@pytest.mark.parametrize("call,message", [
    (lambda: KernelParams(True, 1, 2, 0), "amplitude True is not a number"),
    (lambda: grid_barycenter(grids(4, 4), lam=True), "lam True is not a number"),
    (lambda: gaussian_barycenter([np.eye(2), 2 * np.eye(2)], tol=True),
     "tol True is not a number"),
    (lambda: DiskConfig(True, CENTERS), "radius True is not a number"),
    (lambda: SmootherModel(tuple(grids(4)), np.ones(1), bandwidth=True),
     "bandwidth True is not a number"),
    (lambda: embed(GAUSSIANS, n_train=True), "n_train must be an integer, got True"),
    (lambda: KernelParams("1", "1", "2", "0"), "amplitude '1' is not a number"),
    (lambda: grid_barycenter(grids(4, 4), lam="20"), "lam '20' is not a number"),
    (lambda: grid_barycenter(grids(4, 4), tol="1e-6"), "tol '1e-6' is not a number"),
    (lambda: embed(grids(4, 4), lam=None), "lam None is not a number"),
    (lambda: psd_diagnostic(np.eye(2), tol="0.1"), "tol '0.1' is not a number"),
    (lambda: DiskConfig("x", CENTERS), "radius 'x' is not a number"),
    (lambda: DiskConfig(None, CENTERS), "radius None is not a number"),
    (lambda: SmootherModel(tuple(grids(4)), np.ones(1), bandwidth="x"),
     "bandwidth 'x' is not a number"),
    (lambda: embed(GAUSSIANS, n_train=2.5), "n_train must be an integer, got 2.5"),
    (lambda: embed(GAUSSIANS, n_train="3"), "n_train must be an integer, got '3'"),
], ids=["amplitude-bool", "grid-lam-bool", "gaussian-tol-bool", "radius-bool",
        "bandwidth-bool", "n_train-bool", "amplitude-strings", "grid-lam-string",
        "grid-tol-string", "embed-lam-none", "psd-tol-string", "radius-string",
        "radius-none", "bandwidth-string", "n_train-float", "n_train-string"])
def test_api_scalars_that_are_not_numbers_are_validation_errors(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


def test_kernel_params_keep_the_floats_check_arg_returns():
    theta = KernelParams(np.float32(1.5), 2, np.int64(1), Fraction(1, 4))
    assert (theta.amplitude, theta.rate, theta.exponent, theta.nugget) == (1.5, 2.0, 1.0, 0.25)
    assert all(type(getattr(theta, name)) is float
               for name in ("amplitude", "rate", "exponent", "nugget"))


@pytest.mark.parametrize("dim,message", [
    ("2", "dim must be an integer, got '2'"),
    (2.0, "dim must be an integer, got 2.0"),
    (True, "dim must be an integer, got True"),
    (3, "items have dimension 2, the declared dim is 3"),
])
def test_gaussian_set_dim_is_a_count(tmp_path, capsys, dim, message):
    path = tmp_path / "set.json"
    dataio.save_gaussian_set(path, GAUSSIANS)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(dict(payload, dim=dim)))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        dataio.load_gaussian_set(path)
    assert main(["kernel-matrix", "--input", str(path), "--theta", "1,1,2,0",
                 "--out", str(tmp_path / "gram.csv")]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("value", [np.arange(3), np.arange(3.0), np.ones(2, np.float32),
                                   np.ones((2, 2), np.uint8)], ids=repr)
def test_a_numeric_ndarray_passes_straight_through(value):
    array = check_array("x", value)
    assert array.dtype == float and np.array_equal(array, value)
    assert (array is value) == (value.dtype == float)  # no copy of a float array


@pytest.mark.parametrize("value,message", [
    ([[1.0, 2.0], [3.0]], "x is not a numeric array"),
    ([[1.0], [[2.0]]], "x is not a numeric array"),
    ([10**400, 0.0], "x is not a numeric array"),
    ([1.0, None], "x None is not a number"),
    ([[1.0, True]], "x True is not a number"),
    (np.array([1.0, 2.0], dtype=object), None),
    ([np.float64(1.0), np.int32(2), Fraction(1, 2)], None),
    ([], None),
], ids=repr)
def test_check_array_reads_each_leaf(value, message):
    if message is None:
        assert check_array("x", value).dtype == float
    else:
        with pytest.raises(ValidationError) as caught:
            check_array("x", value, 3)
        assert str(caught.value) == f"item 3: {message}"


FEATURES = embed_gaussians(GAUSSIANS, GAUSSIANS[0])
RESPONSES = np.array([0.1, 0.4, 0.2])


# arrays the constructors and fitters accepted while the file readers refused
# them (numeric strings, booleans), or refused without check_arg's words
@pytest.mark.parametrize("call,message", [
    (lambda: GaussianMeasure(["0.5", "0.5"], np.eye(2)), "mean '0.5' is not a number"),
    (lambda: GaussianMeasure([None, 0.5], np.eye(2)), "mean None is not a number"),
    (lambda: GaussianMeasure([1j, 0.5], np.eye(2)), "mean 1j is not a number"),
    (lambda: GaussianMeasure([0.5, 0.5], [[1, "0"], [0, 1]]), "cov '0' is not a number"),
    (lambda: gaussian_measures([[0.5, True]], [np.eye(2)]), "means True is not a number"),
    (lambda: validate_spd([[1.0, None], [None, 1.0]]), "matrix None is not a number"),
    (lambda: GridDensity([[True, False], [False, False]]), "weights True is not a number"),
    (lambda: GridDensity(np.array([[True, False], [False, False]])),
     "weights True is not a number"),
    (lambda: DiskConfig(0.1, [["0.3", "0.4"]]), "centers '0.3' is not a number"),
    (lambda: EmpiricalSample([["1", "2"]]), "points '1' is not a number"),
    (lambda: gp_fit_cv(FEATURES, [str(y) for y in RESPONSES]), "y '0.1' is not a number"),
    (lambda: build_model(FEATURES, [0.1, None, 0.2], np.zeros((3, 3)), KernelParams(1, 1, 2, 1)),
     "y None is not a number"),
    (lambda: metrics(["1", "2"], ["1", "3"]), "predictions '1' is not a number"),
    (lambda: metrics([1.0, 2.0], [1.0, 3.0], [True, True]), "variances True is not a number"),
    (lambda: KernelParams.from_array(["1", "1", "2", "0"]), "theta '1' is not a number"),
    (lambda: Embedding(GAUSSIANS[0], [["x"] * 6]), "X 'x' is not a number"),
    (lambda: psd_diagnostic([["a", "b"], ["c", "d"]]), "matrix 'a' is not a number"),
    (lambda: select_bandwidth(grids(4, 4, 4, 4), ["1", "2", "3", "4"]),
     "y '1' is not a number"),
    (lambda: select_bandwidth(grids(4, 4, 4, 4), np.arange(4.0), candidates=[0.5, "1"]),
     "candidates '1' is not a number"),
    (lambda: SmootherModel(tuple(grids(4)), [None], bandwidth=1.0), "y None is not a number"),
    (lambda: CouplingPlan([[0.5, "0"], [0, 0.5]], [0.5, 0.5], [0.5, 0.5]),
     "plan '0' is not a number"),
    (lambda: TransportAssignment(np.arange(2), [True, False], np.eye(2), np.eye(2)),
     "source_weights True is not a number"),
], ids=["mean-strings", "mean-none", "mean-complex", "cov-string", "means-bool",
        "spd-none", "weights-bool", "weights-bool-ndarray", "centers-strings", "points-strings",
        "cv-y-strings", "model-y-none", "metrics-strings", "metrics-variances-bool",
        "from-array-strings", "embedding-string", "psd-strings", "bandwidth-y-strings",
        "bandwidth-candidate-string", "smoother-y-none", "plan-string", "assignment-bool"])
def test_api_arrays_that_are_not_numbers_are_validation_errors(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message
