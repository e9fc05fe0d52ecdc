"""Import footprint: scipy loads inside the functions that use it, the fits
never load scipy.stats or scipy.optimize, only wide-row distances and the
smoothing baseline load scipy.spatial, and only the assignment solver
scipy.optimize. Source scans: the embedders, the report files,
each Gaussian closed form, each argument rule, the grid geometry and the fit
search have one owner, and every imported name is used."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import otgp

PACKAGE = Path(otgp.__file__).resolve().parent


def module_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported: everything
    outside function bodies, including if/try blocks and class bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        pending.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    offenders = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name in module_level_imports(ast.parse(path.read_text()))
                 if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_scan_sees_nested_module_level_imports():
    source = ("import numpy\ntry:\n    from scipy import linalg\nexcept ImportError:\n    pass\n"
              "class A:\n    import scipy.stats\ndef f():\n    import scipy.optimize\n")
    assert sorted(module_level_imports(ast.parse(source))) == ["numpy", "scipy", "scipy.stats"]


def test_fits_do_not_load_scipy_stats():
    # a fresh interpreter, so that the test session's own imports cannot hide one
    program = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from otgp.gp import gp_fit_cv, gp_fit_mle; "
        "from otgp.kernels import embed_gaussians; from otgp.measures import GaussianMeasure; "
        "rng = np.random.default_rng(0); "
        "ms = [GaussianMeasure(rng.uniform(size=2), rng.uniform(0.005, 0.02) * np.eye(2)) "
        "for _ in range(12)]; x = embed_gaussians(ms, GaussianMeasure([0, 0], 0.01 * np.eye(2))); "
        "y = np.array([np.sin(4 * m.mean[0]) + m.mean[1] for m in ms]); "
        "gp_fit_cv(x, y); gp_fit_mle(x, y); "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    done = subprocess.run([sys.executable, "-c", program, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_fits_and_gaussian_commands_do_not_load_scipy_optimize(tmp_path):
    # both fits search in-package (Nelder-Mead for the CV fit, a bounded
    # quasi-Newton search for the MLE), so gp_fit_cv, the CLI's
    # kernel-matrix, diagnose-psd --gram and fit --method cv on Gaussian
    # inputs, and then gp_fit_mle, which the last line checks, load no
    # scipy.optimize
    from otgp import dataio
    from otgp.measures import sample_regression_gaussians

    pairs = sample_regression_gaussians(20, 3)
    measures, y = [m for m, _ in pairs], [y for _, y in pairs]
    dataio.save_gaussian_set(tmp_path / "set.json", measures)
    dataio.save_dataset(tmp_path / "train.json", measures, y)
    program = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from otgp import dataio; from otgp.cli import main; "
        "from otgp.gp import gp_fit_cv, gp_fit_mle; "
        "from otgp.kernels import embed_gaussians; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']); "
        "ms, y = dataio.load_dataset(sys.argv[2] + '/train.json'); "
        "x = embed_gaussians(ms, ms[0]); "
        "gp_fit_cv(x, np.array(y)); print(loaded()); "
        "d = sys.argv[2]; "
        "assert main(['kernel-matrix', '--input', d + '/set.json', '--theta', '1,1,2,0', "
        "'--out', d + '/gram.csv']) == 0; "
        "assert main(['diagnose-psd', '--gram', d + '/gram.csv', '--out', d + '/psd']) == 0; "
        "assert main(['fit', '--data', d + '/train.json', '--method', 'cv', "
        "'--out', d + '/model.json']) == 0; "
        "print(loaded()); "
        "gp_fit_mle(x, np.array(y)); print(loaded())")
    done = subprocess.run([sys.executable, "-c", program, str(PACKAGE.parent), str(tmp_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.strip().splitlines()
    assert (lines[0], lines[-2], lines[-1]) == ("[]", "[]", "[]")


def scipy_imports(tree: ast.Module, subpackage: str):
    """Name of the innermost function around each import that can load
    scipy.<subpackage>; "<module>" for one outside any function."""
    pending = [(node, "<module>") for node in tree.body]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        if any(name.split(".")[:2] == ["scipy", subpackage] for name in names):
            yield owner
        pending.extend((child, owner) for child in ast.iter_child_nodes(node))


# the distance routine's wide-row branch and the smoothing baseline's L1
# distances; the Gaussian path must not load scipy.spatial again
SPATIAL_ALLOWED = {("kernels.py", "_distances"), ("baseline.py", None)}


def test_only_the_distance_routine_and_the_baseline_import_scipy_spatial():
    offenders = [f"{path.name}: {owner}" for path in sorted(PACKAGE.glob("*.py"))
                 for owner in scipy_imports(ast.parse(path.read_text()), "spatial")
                 if not {(path.name, owner), (path.name, None)} & SPATIAL_ALLOWED]
    assert offenders == []


def test_spatial_scan_sees_every_form_of_import():
    source = ("import scipy.spatial\nfrom scipy import spatial, linalg\n"
              "def f():\n    from scipy.spatial.distance import cdist\n"
              "class A:\n    def g(self):\n        import scipy.spatial.distance as d\n"
              "def h():\n    from scipy import linalg\n    import scipy.sparse\n")
    assert sorted(scipy_imports(ast.parse(source), "spatial")) == ["<module>", "<module>", "f", "g"]


# the exact assignment solver; both fits search in-package, so no pipeline
# command loads scipy.optimize
def test_only_the_assignment_solver_imports_scipy_optimize():
    owners = [f"{path.name}: {owner}" for path in sorted(PACKAGE.glob("*.py"))
              for owner in scipy_imports(ast.parse(path.read_text()), "optimize")]
    assert owners == ["ot.py: assignment_ot"]


def test_optimize_scan_sees_every_form_of_import():
    source = ("import scipy.optimize\nfrom scipy import optimize, linalg\n"
              "def f():\n    from scipy.optimize import minimize\n"
              "class A:\n    def g(self):\n        import scipy.optimize._lbfgsb as l\n"
              "def h():\n    from scipy import linalg\n    import scipy.spatial\n")
    assert sorted(scipy_imports(ast.parse(source), "optimize")) == ["<module>", "<module>", "f", "g"]


@pytest.fixture(scope="module")
def gaussian_files(tmp_path_factory):
    """A Gaussian set, a dataset of the same inputs and a model fitted to it
    by cross-validation."""
    from otgp import dataio
    from otgp.cli import main
    from otgp.measures import sample_regression_gaussians

    out = tmp_path_factory.mktemp("gaussian-files")
    pairs = sample_regression_gaussians(20, 3)
    measures, y = [m for m, _ in pairs], [y for _, y in pairs]
    dataio.save_gaussian_set(out / "set.json", measures)
    dataio.save_dataset(out / "train.json", measures, y)
    assert main(["fit", "--data", str(out / "train.json"), "--method", "cv",
                 "--out", str(out / "model.json")]) == 0
    return out


@pytest.mark.parametrize("argv,expected", [
    ("kernel-matrix --input {d}/set.json --theta 1,1,2,0.001 --out {d}/gram.csv", []),
    ("fit --data {d}/train.json --method cv --out {d}/refit.json", ["linalg"]),
    ("fit --data {d}/train.json --method mle --out {d}/refit.json", ["linalg"]),
    ("predict --model {d}/model.json --data {d}/train.json --out {d}/p.csv", ["linalg"]),
], ids=["kernel-matrix", "fit-cv", "fit-mle", "predict"])
def test_scipy_subpackages_each_gaussian_command_loads(gaussian_files, argv, expected):
    # public scipy subpackages loaded by one command in a fresh interpreter
    program = (
        "import sys; sys.path.insert(0, sys.argv[1]); from otgp.cli import main; "
        "assert main(sys.argv[2:]) == 0; "
        "subs = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}; "
        "print(sorted(s for s in subs if not s.startswith('_') and s != 'version'))")
    done = subprocess.run([sys.executable, "-c", program, str(PACKAGE.parent),
                           *argv.format(d=gaussian_files).split()],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip().splitlines()[-1] == str(expected)


EMBEDDERS = {"embed_grids", "embed_gaussians"}


def name_uses(tree: ast.Module, names, allowed: str | None = None):
    """Names of the functions that refer to one of names, by name or
    attribute, outside the top-level function `allowed`; "<module>" for a
    use outside any function."""
    pending = [(node, "<module>") for node in tree.body
               if not (isinstance(node, ast.FunctionDef) and node.name == allowed)]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            yield owner
        pending.extend((child, owner) for child in ast.iter_child_nodes(node))


def test_only_kernels_embed_calls_the_embedders():
    # the pipeline's barycenter-then-embed sequence lives in kernels.embed alone
    offenders = [f"{path.name}: {owner}" for path in sorted(PACKAGE.glob("*.py"))
                 for owner in name_uses(ast.parse(path.read_text()), EMBEDDERS,
                                        "embed" if path.name == "kernels.py" else None)]
    assert offenders == []


def test_embedder_scan_sees_every_kind_of_use():
    source = ("from .kernels import embed_grids\nimport otgp.kernels as k\n"
              "def embed(x):\n    return embed_grids(x)\n"
              "def f(x):\n    return k.embed_gaussians(x)\n"
              "class A:\n    def g(self):\n        run = embed_grids\n        return run\n"
              "h = lambda x: embed_gaussians(x)\nTABLE = {'e': embed_grids}\n")
    assert sorted(name_uses(ast.parse(source), EMBEDDERS, "embed")) == [
        "<lambda>", "<module>", "f", "g"]
    assert sorted(name_uses(ast.parse(source), EMBEDDERS)) == [
        "<lambda>", "<module>", "embed", "f", "g"]


# The functions that may refer to each name: the sandwich root
# (Sbar^1/2 S Sbar^1/2)^1/2 is formed only in ot._sandwich_roots, and of the
# eigenvalue-only decompositions the Bures term has one, beside the SPD and
# spectrum checks.
FORMULA_OWNERS = {
    "_psd_sqrt_batch": {("ot.py", "_sandwich_roots")},
    "eigvalsh": {("measures.py", "validate_spd"), ("kernels.py", "psd_diagnostic"),
                 ("ot.py", "_bures_sq")},
}


def test_each_gaussian_closed_form_is_written_once():
    offenders = [f"{path.name}: {owner} uses {name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name, owners in FORMULA_OWNERS.items()
                 for owner in name_uses(ast.parse(path.read_text()), {name})
                 if (path.name, owner) not in owners]
    assert offenders == []


# The over-relaxed Sinkhorn update is written once: only ot._relax reads
# OMEGA (defined at ot.py's module level), and only the two scaling-domain
# loops, the grid barycenter and the batched map solve, call _relax; the
# log-domain updates stay plain.
RELAX_OWNERS = {
    "OMEGA": {("ot.py", "<module>"), ("ot.py", "_relax")},
    "_relax": {("ot.py", "_sinkhorn_batch"), ("barycenter.py", "grid_barycenter")},
}


def owner_offenders(sources: dict, table: dict) -> list[str]:
    """Uses of a name of table outside its (file name, owner) pairs, in
    {file name: source}."""
    return [f"{name}: {owner} uses {word}" for name, source in sources.items()
            for word, owners in table.items()
            for owner in name_uses(ast.parse(source), {word}) if (name, owner) not in owners]


def package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_the_relaxed_update_is_written_once():
    assert owner_offenders(package_sources(), RELAX_OWNERS) == []


def test_relax_scan_sees_every_kind_of_use():
    planted = {
        "ot.py": ("OMEGA = 1.25\ndef _relax(s, r):\n    return r * (r / s) ** (OMEGA - 1)\n"
                  "def _sinkhorn_batch(s, r):\n    return _relax(s, r)\n"
                  "def _log_sinkhorn(f, g):\n    return f + OMEGA * g\n"),
        "barycenter.py": ("from .ot import _relax\nfrom . import ot\n"
                          "def grid_barycenter(u, r):\n    _relax(u, r)\n"
                          "def other(u, r):\n    step = ot._relax\n    return step(u, r)\n"
                          "h = lambda u: u ** ot.OMEGA\n"),
    }
    assert sorted(owner_offenders(planted, RELAX_OWNERS)) == [
        "barycenter.py: <lambda> uses OMEGA", "barycenter.py: other uses _relax",
        "ot.py: _log_sinkhorn uses OMEGA"]


# One entry to the batched map solve: only _grid_sinkhorn screens the warm
# starts and cuts the densities into BATCH stacks for _sinkhorn_batch; only
# sinkhorn_plan, inverse_grid_map and kernels.embed_grids call it; and only
# kernels.embed reads a grid barycenter's input_scalings, the maps' starts
# (the field itself is declared in barycenter.py).
BATCH_OWNERS = {
    "_sinkhorn_batch": {("ot.py", "_grid_sinkhorn")},
    "BATCH": {("ot.py", "<module>"), ("ot.py", "_grid_sinkhorn")},
    "_grid_sinkhorn": {("ot.py", "sinkhorn_plan"), ("ot.py", "inverse_grid_map"),
                       ("kernels.py", "embed_grids")},
    "input_scalings": {("kernels.py", "embed"), ("barycenter.py", "<module>")},
}


def test_the_batched_map_solve_has_one_entry():
    assert owner_offenders(package_sources(), BATCH_OWNERS) == []


def test_batch_scan_sees_every_kind_of_use():
    planted = {
        "ot.py": ("BATCH = 8\ndef _sinkhorn_batch(bs):\n    return bs\n"
                  "def _grid_sinkhorn(bs):\n    return _sinkhorn_batch(bs[:BATCH])\n"
                  "def sinkhorn_plan(a):\n    return next(_grid_sinkhorn([a]))\n"
                  "def inverse_grid_maps(bs):\n    return [_sinkhorn_batch(b) for b in bs]\n"),
        "kernels.py": ("from .ot import _grid_sinkhorn\nfrom . import ot\n"
                       "def embed_grids(ds):\n    return list(_grid_sinkhorn(ds))\n"
                       "def embed(ds, bar):\n    return embed_grids(ds, bar.input_scalings)\n"
                       "def other(ds):\n    solve = ot._grid_sinkhorn\n"
                       "    return solve(ds[:ot.BATCH])\n"),
        "barycenter.py": ("class BarycenterReport:\n    input_scalings: object = None\n"
                          "    def starts(self, n):\n"
                          "        return list(self.input_scalings[:n])\n"),
    }
    assert sorted(owner_offenders(planted, BATCH_OWNERS)) == [
        "barycenter.py: starts uses input_scalings", "kernels.py: other uses BATCH",
        "kernels.py: other uses _grid_sinkhorn", "ot.py: inverse_grid_maps uses _sinkhorn_batch"]


# Both GP fits run one search in one box: only gp._fit refers to
# _minimize_in_box, and only gp.py reads FIT_BOX.
def fit_search_sites(sources: dict) -> tuple[list[str], list[str]]:
    """Each reference to _minimize_in_box, as "file: owner", and the files
    that read FIT_BOX, in {file name: source}."""
    searches = [f"{name}: {owner}" for name, source in sources.items()
                for owner in name_uses(ast.parse(source), {"_minimize_in_box"})]
    readers = [name for name, source in sources.items()
               if any(name_uses(ast.parse(source), {"FIT_BOX"}))]
    return sorted(searches), sorted(readers)


def test_both_fits_run_one_search_in_one_box():
    assert fit_search_sites(package_sources()) == (["gp.py: _fit"], ["gp.py"])


def test_fit_search_scan_sees_every_kind_of_use():
    planted = {
        "gp.py": ("FIT_BOX = np.array([[0.01, 10.0]])\n"
                  "def _minimize_in_box(f, box):\n    return f(box)\n"
                  "def _fit(f):\n    return _minimize_in_box(f, np.log(FIT_BOX))\n"
                  "def gp_fit_mle(f):\n    return _minimize_in_box(f, FIT_BOX)\n"),
        "experiments.py": ("from . import gp\n"
                           "def refit(f):\n    search = gp._minimize_in_box\n"
                           "    return search(f, gp.FIT_BOX)\n"),
        "cli.py": "from . import gp\nLOW = gp.FIT_BOX[:, 0]\n",
        "kernels.py": "BOX = ((0.01, 10.0),)\ndef fit_box(x):\n    return x\n",
    }
    assert fit_search_sites(planted) == (
        ["experiments.py: refit", "gp.py: _fit", "gp.py: gp_fit_mle"],
        ["cli.py", "experiments.py", "gp.py"])


# The grid geometry has one owner, measures: the cell-center formula
# (arange(g) + 0.5) / g is written only in grid_ticks. The grid-size rule (an
# integer >= 2) is the ">= 2" rule of errors.check_arg, which both rasterizers
# call, so no module compares a grid_size with 2 or words the rule itself.
GRID_OWNERS = {"cell-center formula": ("measures.py", "grid_ticks"), "grid-size rule": None}


def docstring_ids(tree: ast.Module) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}


def grid_geometry_sites(tree: ast.Module):
    """(kind, owner) of each cell-center formula, an arange(...) plus 0.5, and
    of each grid-size rule, a grid_size compared with 2 or a string other than
    a docstring that says "grid_size must"; owner as in name_uses."""
    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)

    docstrings = docstring_ids(tree)
    pending = [(node, "<module>") for node in tree.body]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            sides = (node.left, node.right)
            if (any(isinstance(s, ast.Call) and named(s.func, "arange") for s in sides)
                    and any(isinstance(s, ast.Constant) and s.value == 0.5 for s in sides)):
                yield "cell-center formula", owner
        if isinstance(node, ast.Compare) and named(node.left, "grid_size") and any(
                isinstance(c, ast.Constant) and c.value == 2 for c in node.comparators):
            yield "grid-size rule", owner
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "grid_size must" in node.value and id(node) not in docstrings):
            yield "grid-size rule", owner
        pending.extend((child, owner) for child in ast.iter_child_nodes(node))


def grid_geometry_offenders(sources: dict) -> list[str]:
    return [f"{name}: {owner} writes the {kind}" for name, source in sources.items()
            for kind, owner in grid_geometry_sites(ast.parse(source))
            if (name, owner) != GRID_OWNERS[kind]]


def test_the_grid_geometry_has_one_owner():
    assert grid_geometry_offenders(package_sources()) == []


def test_grid_geometry_scan_sees_every_kind_of_use():
    planted = {
        "measures.py": ('"""Cells of grid_size must be >= 2 a side."""\nimport numpy as np\n'
                        "def grid_ticks(g):\n    return (np.arange(g) + 0.5) / g\n"
                        "def _check_grid_size(grid_size):\n    if grid_size < 2:\n"
                        "        raise ValueError('grid_size must be >= 2')\n"
                        "def rasterize(grid_size):\n    check_arg('grid_size', grid_size, '>= 2')\n"
                        "    return grid_ticks(grid_size)\n"),
        "ot.py": ("from numpy import arange\n"
                  "def kernel(rows):\n    return (arange(rows) + 0.5) / rows\n"
                  "class S:\n    def barycentric(self, g):\n"
                  "        return (0.5 + np.arange(g)) / g\n"
                  "edges = lambda g: np.arange(g + 1) / g\n"),
        "experiments.py": ("def check(cfg):\n    if cfg.grid_size <= 2:\n"
                           "        raise ValueError(f'grid_size must be an integer, got {cfg}')\n"
                           "    return cfg.grid_size != 3\n"),
    }
    assert sorted(grid_geometry_offenders(planted)) == [
        "experiments.py: check writes the grid-size rule",
        "experiments.py: check writes the grid-size rule",
        "measures.py: _check_grid_size writes the grid-size rule",
        "measures.py: _check_grid_size writes the grid-size rule",
        "ot.py: barycentric writes the cell-center formula",
        "ot.py: kernel writes the cell-center formula"]


# the range rules (the input bound's among them), the number rule and the integer
# rule of counts
RULE_WORDS = (" must be finite", " must be a finite float", " must be positive",
              " must be >= 0", " must be >= 1", " must be >= 2", " must be a number",
              " is not a number", " must be an integer", " is not a numeric array")


def rule_texts(tree: ast.Module) -> list[int]:
    """Lines of the strings, f-string parts included, that spell out an
    argument rule of errors.RULES or the array rule; docstrings are skipped."""
    docstrings = docstring_ids(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings and any(w in node.value for w in RULE_WORDS))


def test_only_errors_spells_out_the_argument_rules():
    # every site states its rule through errors.check_arg, which words the message
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "errors.py" for line in rule_texts(ast.parse(path.read_text()))]
    assert offenders == []


def test_single_place_scans_see_every_kind_of_use():
    source = ('"""Docs may say that n must be >= 1."""\n'
              "from .ot import _psd_sqrt_batch\n"
              "def _sandwich_roots(m):\n    return _psd_sqrt_batch(m)\n"
              "def f(m):\n    \"\"\"tol must be finite.\"\"\"\n"
              "    return np.linalg.eigvalsh(m), ot._psd_sqrt_batch(m)\n"
              "class A:\n    def g(self, m, n):\n        if n < 1:\n"
              "            raise ValueError(f'{n} must be >= 1')\n"
              "        return eigvalsh(m)\n"
              "h = lambda tol: 'tol must be finite and >= 0'\n"
              "def k(x, lam):\n    if not isinstance(x, (int, float)):\n"
              "        raise ValueError(f'x {x!r} is not a number')\n"
              "    if not lam > 0:\n        raise ValueError('lam must be positive')\n"
              "    raise ValueError(f'{x} must be an integer' if x < 2 else 'x must be >= 2')\n"
              "GRID = 'grid_size must be a number'\n"
              "def m(key):\n    raise ValueError(f'{key} is not a numeric array')\n")
    tree = ast.parse(source)
    assert sorted(name_uses(tree, {"_psd_sqrt_batch"})) == ["_sandwich_roots", "f"]
    assert sorted(name_uses(tree, {"eigvalsh"})) == ["f", "g"]
    assert rule_texts(tree) == [11, 13, 16, 18, 19, 19, 20, 22]


# The input bound has one owner, errors.MAGNITUDE: no other module spells 2**256
# or its value, or compares with the end of the float range, np.finfo(...).max.
# The modules that take the input numbers hold no overflow guard,
# np.errstate(over=...): the bound keeps their products finite. The Sinkhorn
# solvers in ot.py and barycenter.py keep theirs, which guard computed scalings.
OVERFLOW_GUARDS_ALLOWED = {"ot.py", "barycenter.py"}


def bound_sites(tree: ast.Module):
    """(kind, line) of each 2**256 or float equal to it ("bound"), each
    finfo(...).max ("float max") and each errstate(..., over=...) ("overflow guard")."""
    def called(node, name):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Name) and func.id == name
                or isinstance(func, ast.Attribute) and func.attr == name)

    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant) and node.left.value == 2
                and isinstance(node.right, ast.Constant) and node.right.value == 256
                or isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value == 2.0**256):
            yield "bound", node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "max" and called(node.value, "finfo"):
            yield "float max", node.lineno
        if called(node, "errstate") and any(k.arg == "over" for k in node.keywords):
            yield "overflow guard", node.lineno


def bound_offenders(sources: dict) -> list[str]:
    return [f"{name}:{line} {kind}" for name, source in sources.items() if name != "errors.py"
            for kind, line in bound_sites(ast.parse(source))
            if not (kind == "overflow guard" and name in OVERFLOW_GUARDS_ALLOWED)]


def test_only_errors_spells_out_the_input_bound():
    assert bound_offenders(package_sources()) == []


def test_bound_scan_sees_every_spelling():
    planted = {
        "errors.py": "MAGNITUDE = 2.0**256\nTOP = np.finfo(float).max\n",
        "gp.py": ("import numpy as np\nLIMIT = np.finfo(float).max / 1e5\n"
                  "def fit(y):\n    if abs(y).max() > 2**256:\n        raise ValueError\n"
                  "    with np.errstate(over='ignore', invalid='ignore'):\n"
                  "        return y * 1.157920892373162e+77\n"),
        "ot.py": ("def solve(x):\n    with np.errstate(over='ignore'):\n        return x\n"
                  "BIG = 2 ** 256\n"),
        "measures.py": "from numpy import errstate, finfo\ntop = finfo('d').max\n"
                       "guard = errstate(divide='ignore')\n",
    }
    assert sorted(bound_offenders(planted)) == [
        "gp.py:2 float max", "gp.py:4 bound", "gp.py:6 overflow guard", "gp.py:7 bound",
        "measures.py:2 float max", "ot.py:4 bound"]


REPORT_FILES = ("report.json", "meta.json")


def report_file_names(tree: ast.Module, allowed: str | None = None):
    """Names of the functions holding a string that names report.json or
    meta.json, outside the top-level function `allowed`; "<module>" for one
    outside any function."""
    pending = [(node, "<module>") for node in tree.body
               if not (isinstance(node, ast.FunctionDef) and node.name == allowed)]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(name in node.value for name in REPORT_FILES)):
            yield owner
        pending.extend((child, owner) for child in ast.iter_child_nodes(node))


def test_only_write_report_names_the_experiment_report_files():
    # the four experiment drivers hand their rows to write_report, the one
    # owner of the report.json and meta.json format
    source = (PACKAGE / "experiments.py").read_text()
    assert list(report_file_names(ast.parse(source), "write_report")) == []


def test_report_file_scan_sees_every_kind_of_use():
    source = ("def write_report(out):\n    (out / 'report.json').write_text('')\n"
              "def run_a(out):\n    (out / 'meta.json').write_text('')\n"
              "class A:\n    def g(self, out):\n        return f'{out}/report.json'\n"
              "h = lambda out: out / 'meta.json'\nNAME = 'report.json'\n")
    assert sorted(report_file_names(ast.parse(source), "write_report")) == [
        "<lambda>", "<module>", "g", "run_a"]
    assert sorted(report_file_names(ast.parse(source))) == [
        "<lambda>", "<module>", "g", "run_a", "write_report"]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement anywhere in the module that no
    expression reads; `import a.b` binds, and is read through, `a`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name != "annotations"]


def test_every_import_is_used():
    # __init__.py imports to re-export, so it is left out
    offenders = [f"{path.name}:{entry}" for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "__init__.py"
                 for entry in unused_imports(ast.parse(path.read_text()))]
    assert offenders == []


def test_unused_import_scan_sees_every_kind_of_import():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "import scipy.linalg\nfrom .errors import A, B\n"
              "def f(x):\n    from scipy.optimize import minimize\n    return np.exp(x), B\n"
              "class C:\n    import json\n    value: math.inf\n")
    assert unused_imports(ast.parse(source)) == ["4: scipy", "5: A", "7: minimize", "10: json"]
