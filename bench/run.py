"""otgp benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload disks-grid --seed 1 --seconds 25 --trace 0

Every pass drives the public entry point ``otgp.cli.main`` in this process on
inputs made from ``--seed``. With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are measured with no tracing, and times are given at the
reference machine speed (see speed.py); with ``--trace 1`` each pass is run
once plain and once with every traced function wrapped, and the per-layer
metrics (per traced pass) plus the tracing overhead are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every operation succeeded and passed its correctness check. A full
record (environment, input properties, per-pass times, output digests) goes
to ``.bench_out/``. The program is imported from ``src/`` of the checkout
that holds this file, and from nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS/OpenMP thread, within the cap of one per CPU: on a 2-CPU VM two
# OpenBLAS threads made one and the same kernel-cli pass take 5.8 to 11.2 s,
# one thread 5.4 to 5.7 s.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# End-to-end values printed and recorded but not in BENCHMARK.json: gp_rmse
# varies across seeds with the data, by more than a bound may allow (0.25).
UNGATED = (("gp_rmse", "1"), ("wall_pass_s", "s"), ("wall_inputs_per_s", "1/s"),
           ("slowdown", "ratio"))
IMPORT_PROGRAM = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                  "t = time.perf_counter(); import otgp.cli; "
                  "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test; numbers are meaningless")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import otgp from this checkout's src/, refusing any other copy."""
    if not (SRC / "otgp" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'otgp'}")
    sys.path.insert(0, str(SRC))
    import otgp
    import otgp.cli

    if Path(otgp.__file__).resolve().parent != (SRC / "otgp").resolve():
        raise SystemExit(f"benchmark: imported otgp from {otgp.__file__}, not {SRC}")
    return otgp


def environment(otgp) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "otgp": otgp.__version__,
            "cpu_count": len(os.sched_getaffinity(0)), "blas_threads": THREADS,
            "machine": platform.machine()}


def fresh_import_seconds() -> float:
    """Import time of the package in a new interpreter (own clock, so
    interpreter start-up is excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def invoke(cli, argv, tracer):
    """Run one CLI command; return (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
    return code, err.getvalue()


def run_pass(cli, dataset, probe, tracer=None, sample_speed=False) -> dict:
    """Run a dataset's operations. Only the CLI calls are timed, not the
    checks on their outputs. With ``sample_speed`` the machine's speed is
    sampled during the pass (see speed.py): ``seconds`` is then the pass's
    wall time at the reference speed and ``wall_seconds`` the time as it
    passed."""
    from speed import SpeedProbe
    from workloads import CheckFailed, digest

    op_seconds, rmses, failures, digests = [], [], [], {}
    speed = SpeedProbe() if sample_speed else None
    probe.support_cells.clear()
    probe.install()  # after the tracer, so the probe wraps the traced functions
    try:
        with speed or contextlib.nullcontext():
            for op in dataset.ops:
                probe.bad.clear()
                sampling = speed.probe_s if speed else 0.0
                start = time.perf_counter()
                try:
                    code, err = invoke(cli, op.argv, tracer)
                except Exception:  # an untyped error escaping the CLI is a failure too
                    code, err = None, traceback.format_exc()
                sampling = (speed.probe_s if speed else 0.0) - sampling
                op_seconds.append(time.perf_counter() - start - sampling)
                try:
                    if code != 0:
                        raise CheckFailed(f"exit code {code}: {err.strip()[-400:]}")
                    rmses += op.check()
                    digests.update({f"{p.parent.name}/{p.name}": digest(p)
                                    for p in op.digests})
                except (CheckFailed, OSError, KeyError) as exc:
                    failures.append(f"{op.argv[0]}: {exc}")
    finally:
        probe.uninstall()
    wall = sum(op_seconds)
    return {"dataset": dataset.seed, "seconds": wall / speed.slowdown() if speed else wall,
            "wall_seconds": wall, "op_seconds": op_seconds,
            "slowdown": speed.slowdown() if speed else None,
            "ops": len(dataset.ops), "inputs": sum(op.inputs for op in dataset.ops),
            "failures": failures, "rmse": rmses, "digests": digests,
            "support_cells": list(probe.support_cells)}


def setup(workload, work, seed, tiny, probe, repeats):
    """Time set-up ``repeats`` times: an import in a fresh interpreter plus
    making and writing the inputs, at the reference machine speed (the
    slowdown is taken just before and after). Returns the datasets of the
    last repeat and the median time."""
    from speed import spot_slowdown

    times, datasets = [], None
    for _ in range(repeats):
        before = spot_slowdown()
        imported = fresh_import_seconds()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        datasets = workload.setup(work, seed, tiny, probe)
        wall = imported + time.perf_counter() - start
        times.append(wall / statistics.fmean([before, spot_slowdown()]))
    return datasets, statistics.median(times)


def measure(cli, datasets, probe, seconds, tracer=None):
    """Cycle through the datasets until the time is up, at least once each.

    With a tracer, each dataset is run plain and then traced, so both
    lists hold the same datasets in the same order.
    """
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        dataset = datasets[index % len(datasets)]
        plain.append(run_pass(cli, dataset, probe, sample_speed=tracer is None))
        last = plain[-1]["wall_seconds"]
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(cli, dataset, probe, tracer))
            finally:
                tracer.uninstall()
            last += traced[-1]["wall_seconds"]
        index += 1
        elapsed = time.perf_counter() - start
        enough = index >= len(datasets) or tracer is not None
        if enough and elapsed + last > seconds:
            return plain, traced


def by_dataset(passes) -> dict:
    out: dict = {}
    for p in passes:
        out.setdefault(p["dataset"], []).append(p)
    return out


def end_to_end(passes, setup_s) -> dict:
    """Times are at the reference machine speed; the ``wall_`` values are
    the same times as they passed. ``gp_rmse`` takes each dataset's first
    pass, so it does not depend on how many passes the time allowed, and
    the geometric mean keeps one badly fitted dataset from dominating it."""
    groups = by_dataset(passes).values()
    rmse = [statistics.fmean(g[0]["rmse"]) for g in groups if g[0]["rmse"]]
    inputs = sum(p["inputs"] for p in passes)
    return {
        "setup_s": setup_s,
        "pass_s": statistics.fmean(statistics.median(p["seconds"] for p in g)
                                   for g in groups),
        "inputs_per_s": inputs / sum(p["seconds"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gp_rmse": statistics.geometric_mean(rmse) if rmse else float("nan"),
        "wall_pass_s": statistics.fmean(statistics.median(p["wall_seconds"] for p in g)
                                        for g in groups),
        "wall_inputs_per_s": inputs / sum(p["wall_seconds"] for p in passes),
        "slowdown": statistics.median(p["slowdown"] for p in passes),
    }


def per_layer(tracer, plain, traced) -> dict:
    n = len(traced)
    values = {}
    for name, secs in tracer.self_s.items():
        values[f"{name}.busy_s"] = secs / n
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls / n
    for name, failed in tracer.failed.items():
        values[f"{name}.failed"] = failed / n
    for key, value in tracer.stats.items():
        values[key] = value if key.endswith(".cost_mb") else value / n
    layers = tracer.layer_totals()
    for layer, secs in layers.items():
        values[f"{layer}.busy_s"] = secs / n
    for layer in ("experiments", "cli"):
        values[f"{layer}.self_s"] = layers.get(layer, 0.0) / n
    traced_s = statistics.fmean(p["seconds"] for p in traced)
    plain_s = statistics.fmean(p["seconds"] for p in plain)
    values["trace.pass_s"] = traced_s
    values["trace.untraced_pass_s"] = plain_s
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.unaccounted_s"] = traced_s - sum(layers.values()) / n
    return values


def select(spec, values) -> dict:
    """Metrics named in BENCHMARK.json, in its order. A layer function the
    workload never called (or that no longer exists) reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    otgp = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from workloads import WORKLOADS, PredictionProbe, support_properties

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    probe = PredictionProbe()
    tracer = Tracer() if args.trace else None
    try:
        # set-up time is an end-to-end metric only; a traced run sets up once
        datasets, setup_s = setup(workload, work, args.seed, args.tiny, probe,
                                  1 if args.trace or args.tiny else SETUP_REPEATS)
        plain, traced = measure(otgp.cli, datasets, probe, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    by_seed = {d.seed: d for d in datasets}
    for p in passes:
        props = by_seed[p["dataset"]].properties
        if p["support_cells"] and "mean_support_cells" not in props:
            props.update(support_properties(p["support_cells"]))
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if args.trace:
        values, section = per_layer(tracer, plain, traced), spec["per_layer"]
    else:
        values, section = end_to_end(plain, setup_s), spec["end_to_end"]
    metrics = select(section, values)

    record = {
        "workload": workload.name, "seed": args.seed,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == workload.name), ""),
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(otgp),
        "inputs": [{"dataset": d.seed, **d.properties} for d in datasets],
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "predictions_checked": probe.checked,
        "metrics": metrics, "values": values, "absent": tracer.absent if tracer else [],
        "pass_seconds": [p["seconds"] for p in plain],
        "wall_pass_seconds": [p["wall_seconds"] for p in plain],
        "slowdowns": [p["slowdown"] for p in plain],
        "traced_pass_seconds": [p["seconds"] for p in traced],
        "op_seconds": [[p["dataset"], p["op_seconds"]] for p in plain],
        "gp_rmse": {str(d): g[0]["rmse"] for d, g in by_dataset(plain).items()},
        "digests": {str(d): g[0]["digests"] for d, g in by_dataset(plain).items()},
        "failures": [f for p in passes for f in p["failures"]],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{tag}.npz", origin=tracer.spans[0][1]
                           if tracer.spans else 0.0)

    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name in record["absent"]:
        print(f"absent: {name}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} passes={len(plain)} "
          f"traced_passes={len(traced)} error_rate={record['error_rate']:.4g} ratio "
          f"({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, unit in ([] if args.trace else UNGATED):
        print(f"  {name} = {values[name]:.6g} {unit} (not gated)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
