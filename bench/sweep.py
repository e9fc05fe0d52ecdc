"""Ungated size sweep: per-call time and peak memory against input count n
and grid side G. Run on demand; the gated runs never call it.

    python3 bench/sweep.py [--seed 1]

* n in {50, 200, 800} through ``otgp kernel-matrix`` on the psd experiment's
  2-D Gaussian population;
* G in {25, 50, 100} through ``ot.inverse_grid_map`` on disk unions of the
  disks experiment's default shape, against their entropic barycenter.

Each point runs in a fresh interpreter so its ``peak_rss_mb`` (``ru_maxrss``)
is its own. The table goes to standard output, the last line is JSON, and a
copy is written to ``.bench_out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
POINTS = [("kernel-matrix", n) for n in (50, 200, 800)] + \
         [("inverse_grid_map", g) for g in (25, 50, 100)]
REPEATS = 3
LAM = 20.0


def kernel_matrix_point(n: int, seed: int, work: Path) -> list[float]:
    from otgp import cli, dataio
    from otgp.measures import sample_gaussian_population

    population = sample_gaussian_population(n, 2, (seed, 0), entry_range=(0.1, 0.7))
    dataio.save_gaussian_set(work / "population.json", population)
    argv = ["kernel-matrix", "--input", str(work / "population.json"),
            "--theta", "1,1,2,0", "--out", str(work / "gram.csv")]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise SystemExit(f"kernel-matrix failed at n={n}")
        times.append(time.perf_counter() - start)
    return times


def inverse_map_point(g: int, seed: int, work: Path) -> list[float]:
    import numpy as np
    from otgp.barycenter import grid_barycenter
    from otgp.experiments import DisksConfig
    from otgp.measures import DiskConfig, disks_to_grid
    from otgp.ot import inverse_grid_map

    shape = DisksConfig(seed=seed)
    rng = np.random.default_rng(seed)
    grids = [disks_to_grid(DiskConfig(shape.radius, rng.uniform(0, 1, (shape.n_disks, 2))), g)
             for _ in range(8)]
    reference = grid_barycenter(grids, lam=LAM).result
    times = []
    for grid in grids[:REPEATS]:
        start = time.perf_counter()
        inverse_grid_map(grid, reference, lam=LAM)
        times.append(time.perf_counter() - start)
    return times


def run_point(kind: str, size: int, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    work = OUT / f"sweep-work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        point = kernel_matrix_point if kind == "kernel-matrix" else inverse_map_point
        times = point(size, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"kind": kind, "size": size, "calls": len(times),
            "per_call_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--point", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(args.point[0], int(args.point[1]), args.seed)))
        return 0
    if not (SRC / "otgp").is_dir():
        raise SystemExit(f"sweep: no program source at {SRC / 'otgp'}")
    from run import THREAD_VARS, THREADS

    env = {**os.environ, **{var: str(THREADS) for var in THREAD_VARS}}
    rows = []
    for kind, size in POINTS:
        done = subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                               "--point", kind, str(size)],
                              capture_output=True, text=True, env=env, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
        r = rows[-1]
        print(f"{kind:>16} {size:>4}  per call {r['per_call_s']:.4g} s  "
              f"peak {r['peak_rss_mb']:.0f} MB  ({r['calls']} calls)")
    result = {"seed": args.seed, "blas_threads": THREADS, "points": rows}
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
