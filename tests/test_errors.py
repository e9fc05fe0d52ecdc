"""errors.check_arg is the one owner of the scalar rules: what a number is,
which numbers a rule keeps, and how a refusal is worded. Every scalar the
API takes goes through it, so a value that is not a real number is a
ValidationError wherever it enters."""

import json
from fractions import Fraction

import numpy as np
import pytest

from otgp import dataio
from otgp.barycenter import gaussian_barycenter, grid_barycenter
from otgp.baseline import SmootherModel
from otgp.cli import main
from otgp.errors import RULES, ValidationError, check_arg
from otgp.kernels import KernelParams, embed, psd_diagnostic
from otgp.measures import DiskConfig, GaussianMeasure, GridDensity

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
