#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline file.

Runs ``run.py`` once per seed and workload, one run at a time, and prints for
every end-to-end metric the IQR over the median of its values, next to a
third of the metric's bound.  Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --seconds 25
    python3 perfbench/spread.py --seeds 1-10 --seconds 25 --traced --write perfbench/baseline.json

``--traced`` adds one ``--trace 1`` run (the first seed) per workload;
``--write`` stores everything as the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median if median else None}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"what": f"perfbench runs: seeds {args.seeds[0]}-{args.seeds[-1]} per workload with --trace 0"
                   + (", one --trace 1 run (first seed) per workload" if args.traced else "")
                   + "; spreads are IQR over median across the seeds.",
           "workloads": {}}
    for workload in args.workloads:
        rec = {"seeds": args.seeds, "run_wall_s": [], "correct": True, "attempted": 0, "failed": 0,
               "end_to_end": {}, "operations": {}}
        for seed in args.seeds:
            detail, result, wall = bench(workload, seed, args.seconds, 0)
            out.setdefault("environment", {k: v for k, v in detail["env"].items()
                                           if k not in ("workload", "seed", "trace", "size")})
            rec["run_wall_s"].append(round(wall, 1))
            rec["correct"] &= result["correct"]
            rec["attempted"] += result["attempted"]
            rec["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                rec["end_to_end"].setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                    metric["value"])
            for op, d in detail["operations"].items():
                rec["operations"].setdefault(op, {"unit": d["unit"], "medians": []})["medians"].append(d["median"])
            rec.setdefault("reference_ms", []).append(detail["reference_ms"]["median"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in rec["end_to_end"].items():
            metric.update(spread(metric["values"]))
            print(f"{workload} {name}: IQR/median {metric['iqr_over_median']:.3f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.3f})", flush=True)
        for op in rec["operations"].values():
            op.update(spread(op["medians"]))
        if args.traced:
            detail, result, _ = bench(workload, args.seeds[0], args.seconds, 1)
            rec["traced"] = {"seed": args.seeds[0], "correct": result["correct"],
                             "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                             "operations_untraced": detail["operations"],
                             "operations_traced": detail["operations_traced"]}
        out["workloads"][workload] = rec
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] and not w["failed"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
