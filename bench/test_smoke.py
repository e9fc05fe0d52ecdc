"""Tiny-size smoke test of the benchmark. It checks that every workload runs
end to end and prints a well-formed result, that the tracer restores what it
wraps, and that the benchmark refuses to run without the program. Nothing
here asserts a timing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--tiny"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = result_of(bench("--workload", "disks-grid", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--tiny"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["ot.inverse_grid_map.calls"] == 10
    assert values["measures.disks_to_grid.calls"] == 10
    assert values["barycenter.grid_barycenter.iterations"] >= 1
    assert values["gp.log_likelihood.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "disks-grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_restores_every_wrapped_name_and_splits_self_time():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import otgp.cli  # noqa: F401  (loads every otgp module)
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
        sys.path.remove(str(ROOT / "src"))
    modules = {n: m for n, m in sys.modules.items() if n == "otgp" or n.startswith("otgp.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    runners = dict(sys.modules["otgp.experiments"].RUNNERS)

    tracer = Tracer()
    tracer.install()
    assert sys.modules["otgp.experiments"].pairwise_distances is not \
        before["otgp.kernels"]["pairwise_distances"]
    assert sys.modules["otgp.experiments"].RUNNERS["disks"] is not runners["disks"]
    tracer.uninstall()
    for name, module in modules.items():
        for attr, value in before[name].items():
            assert vars(module)[attr] is value, f"{name}.{attr} not restored"
    assert sys.modules["otgp.experiments"].RUNNERS == runners

    with tracer.span("outer.a"):
        time.sleep(0.01)
        with tracer.span("inner.b"):
            time.sleep(0.01)
    outer = next(s for s in tracer.spans if tracer.names[s[0]] == "outer.a")
    assert tracer.self_s["outer.a"] + tracer.self_s["inner.b"] == \
        pytest.approx(outer[2] - outer[1], rel=1e-9)
    inner = next(s for s in tracer.spans if tracer.names[s[0]] == "inner.b")
    assert tracer.spans[inner[3]] is outer
