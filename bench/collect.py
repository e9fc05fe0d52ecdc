"""Collect the run records in ``.bench_out/`` into ``BENCH_<tag>.json``.

    python3 bench/collect.py --tag main [--out bench/results]

Untraced records give, per workload and end-to-end value (gated or not),
every value with its seed, the median and quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median. Traced
records give the per-layer metrics per seed; ``.bench_out/sweep.json`` is
included when present. Digests of the report and model outputs are kept so
answer drift between tags shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def summarize(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / q2 if q2 else None)
    return out


def collect(records: list[dict]) -> dict:
    workloads: dict = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = workloads.setdefault(r["workload"], {"why": r["why"], "runs": [], "traced": []})
        # untraced runs keep the ungated values (gp_rmse, wall times) too
        values = ({k: v["value"] for k, v in r["metrics"].items()} if r["trace"]
                  else r["values"])
        run = {"seed": r["seed"], "passes": r["passes"], "error_rate": r["error_rate"],
               "metrics": values,
               "inputs": r["inputs"], "digests": r["digests"]}
        (w["traced"] if r["trace"] else w["runs"]).append(run)
    for w in workloads.values():
        if w["runs"]:
            names = list(w["runs"][0]["metrics"])
            w["end_to_end"] = {n: summarize([run["metrics"][n] for run in w["runs"]])
                               for n in names}
            w["seeds"] = [run["seed"] for run in w["runs"]]
    env = records[0]["environment"] if records else {}
    return {"environment": env, "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--out", default=str(ROOT / "bench" / "results"))
    args = p.parse_args(argv)
    records = [json.loads(f.read_text()) for f in sorted(OUT.glob("*-seed*-trace*.json"))]
    records = [r for r in records if not r.get("tiny")]
    if not records:
        print(f"no run records in {OUT}", file=sys.stderr)
        return 1
    bench = {"tag": args.tag, **collect(records)}
    sweep = OUT / "sweep.json"
    if sweep.is_file():
        bench["sweep"] = json.loads(sweep.read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"BENCH_{args.tag}.json").write_text(json.dumps(bench, indent=1) + "\n")
    for name, w in bench["workloads"].items():
        for metric, s in w.get("end_to_end", {}).items():
            spread = s.get("spread")
            print(f"{name:>20} {metric:>13} median {s['median']:.5g} "
                  f"spread {spread:.3f}" if spread is not None else
                  f"{name:>20} {metric:>13} median {s['median']:.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
