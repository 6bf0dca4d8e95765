#!/usr/bin/env python3
"""Layered benchmark for cvb: fit-dense, rectify-image and cli-pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fit-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``setup_s``
and ``cycle_ms`` are normalised to a fixed machine speed with a reference
kernel timed around every set-up probe and operation
(``workloads.Reference``).  ``--trace 1`` alternates untraced and traced
cycles and reports the per-layer metrics and the tracing overhead.  The last line of stdout is the JSON result; the line
before it holds the environment, every operation's median and tail, and the
check notes.  Both, plus the spans of a traced run, are also written under
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Workloads that run on one CPU, their child processes included.  A CLI
# command's time depends on which CPU it starts on and whether that CPU was
# idle: six 25 s runs ranged over 33% in wall time unpinned, over 10% pinned.
ONE_CPU = {"cli-pipeline"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REF_REPEATS = 3  # reference runs whose median brackets each set-up probe

# Per-layer metrics read from the spans and counts of each traced cycle:
# "total" sums span durations, "self" sums span self times, "count" sums
# counters, "call" is the median single call, "per_step" is microseconds of a
# span per counted step.  A layer a workload never calls reads 0.
LAYER = {
    "basis.cheb_columns_ms": ("total", "basis.cheb_columns"),
    "basis.sampleset1d_ms": ("total", "basis.sampleset1d"),
    "orthogonalize.orthogonalize_ms": ("total", "orthogonalize.orthogonalize"),
    "orthogonalize.skipped": ("count", "orthogonalize.skipped"),
    "fit1d.interp_self_ms": ("self", "fit1d.cvb_interpolate"),
    "fit1d.sweeps_ms": ("total", "fit1d.sweeps"),
    "fit1d.steps": ("count", "fit1d.steps"),
    "fit1d.us_per_step": ("per_step", ("fit1d.sweeps", "fit1d.steps")),
    "fit2d.sampleset2d_ms": ("total", "fit2d.sampleset2d"),
    "fit2d.term_matrix_ms": ("total", "fit2d.term_matrix"),
    "fit2d.sweeps_ms": ("total", "fit2d.sweeps"),
    "fit2d.sweeps_early_ms": ("total", "fit2d.sweeps_early"),
    "fit2d.steps": ("count", "fit2d.steps"),
    "fit2d.steps_early": ("count", "fit2d.steps_early"),
    "fit2d.us_per_step": ("per_step", ("fit2d.sweeps", "fit2d.steps")),
    "fit2d.eval_grid_ms": ("call", "fit2d.eval_grid"),
    "fit2d.eval_points_ms": ("total", "fit2d.eval_points"),
    "rectify.calibrate_self_ms": ("self", "rectify.calibrate"),
    "rectify.calibrate_steps": ("count", "rectify.calibrate_steps"),
    "rectify.warp_gather_ms": ("self", "rectify.warp_image"),
    "rectify.warp_valid_frac": ("count", "rectify.warp_valid_frac"),
    "rectify.warp_pixels": ("count", "rectify.warp_pixels"),
    "rectify.extrapolation_warnings": ("count", "rectify.extrapolation_warnings"),
    "rectify.save_model_ms": ("total", "rectify.save_model"),
    "rectify.load_model_ms": ("total", "rectify.load_model"),
    "ppm.read_plain_ms": ("total", "ppm.read_plain"),
    "ppm.write_binary_ms": ("total", "ppm.write_binary"),
    "ppm.bytes_read": ("count", "ppm.bytes_read"),
    "ppm.bytes_written": ("count", "ppm.bytes_written"),
    "cli.main_gen_ms": ("total", "cli.main_gen"),
    "cli.main_calibrate_ms": ("total", "cli.main_calibrate"),
    "cli.main_apply_ms": ("total", "cli.main_apply"),
    "cli.main_warp_ms": ("total", "cli.main_warp"),
    "cli.main_eval_ms": ("total", "cli.main_eval"),
}


def tail(values):
    """Highest whole percentile with at least 10 samples above it: (pct, value), or None."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def describe(values, unit):
    t = tail(values)
    return {"median": statistics.median(values) if values else None, "unit": unit, "n": len(values),
            "tail_pct": t[0] if t else None, "tail": t[1] if t else None}


def probe_seconds(argv, repeats, cwd, spawn):
    """Spawn-to-exit seconds of ``argv``, run ``repeats`` times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _, err, _ = spawn(argv, cwd)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{argv[1:]} exited {code}: {err.strip()[-500:]}")
    return times


def setup_seconds(probe, repeats, cwd, spawn, ref):
    """Spawn-to-exit seconds of ``repeats`` set-up probes, raw and normalised,
    with the reference kernel timed before the first probe and after each one."""
    refs = [ref.seconds(SETUP_REF_REPEATS)]
    raw = []
    for _ in range(repeats):
        raw += probe_seconds(probe, 1, cwd, spawn)
        refs.append(ref.seconds(SETUP_REF_REPEATS))
    return raw, [ref.normalised(t, refs[k], refs[k + 1]) for k, t in enumerate(raw)], refs


def environment(args):
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "loop": "closed loop, one client",
    }


def run_cycles(workload, run, tracer, seconds, traced, warm):
    """Closed loop for ``seconds``; in a traced run every second cycle is traced.

    The reference kernel runs before the first cycle and after every cycle,
    so each operation has one reference before it and one after it.
    """
    if warm:
        for enabled in (False, True) if traced else (False,):
            tracer.enabled, tracer.cycle = enabled, -1
            run.begin_cycle()
            workload.cycle(run)
            run.end_cycle(workload.ops, keep=False)
    start = time.perf_counter()
    i = 0
    run.reference()
    while time.perf_counter() - start < seconds or (traced and i < 2):
        tracer.enabled, tracer.cycle = traced and i % 2 == 1, i
        run.begin_cycle()
        workload.cycle(run)
        run.reference()
        run.end_cycle(workload.ops, keep=True)
        i += 1
    tracer.enabled = False


def op_unit(metric):
    return ("ms", 1e3) if metric.endswith("_ms") else ("s", 1.0)


def operations(ops, cycles, pipeline):
    """Median and tail of every operation over ``cycles`` and of the whole
    cycle, in wall time, plus the normalised cycle time."""
    out = {}
    for op in ops:
        unit, scale = op_unit(op)
        out[op] = describe([c[op] * scale for c, _ in cycles], unit)
    if pipeline:
        out["cli_pipeline_s"] = describe([sum(c.values()) for c, _ in cycles], "s")
    out["cycle_ms"] = describe([sum(c.values()) * 1e3 for c, _ in cycles], "ms")
    # Sum of per-operation medians: one slow process or call does not shift the
    # value, even on cli-pipeline, which fits only a few cycles into a run.
    norm = sum(statistics.median(n[op] for _, n in cycles) for op in ops) * 1e3 if cycles else None
    out["cycle_norm_ms"] = {"median": norm, "unit": "ms", "n": len(cycles)}
    return out


def layer_metrics(tracer):
    per_cycle = {c: v for c, v in tracer.per_cycle().items() if c >= 0}
    values = {}
    for metric, (kind, key) in LAYER.items():
        if kind == "call":
            calls = [d for rec in per_cycle.values() for d in rec["calls"].get(key, [])]
            values[metric] = statistics.median(calls) * 1e3 if calls else 0.0
            continue
        samples = []
        for rec in per_cycle.values():
            if kind == "total":
                samples.append(rec["total"].get(key, 0.0) * 1e3)
            elif kind == "self":
                samples.append(rec["self"].get(key, 0.0) * 1e3)
            elif kind == "count":
                samples.append(rec["counts"].get(key, 0))
            else:
                span, steps = key
                n = rec["counts"].get(steps, 0)
                samples.append(rec["total"].get(span, 0.0) * 1e6 / n if n else 0.0)
        values[metric] = statistics.median(samples) if samples else 0.0
    return values


def peak_alloc_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="input sizes: full, or tiny for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "cvb" / "__init__.py").is_file():
        print(f"error: no cvb sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))  # nproc, as the pin leaves it
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import workloads  # imports numpy and cvb, after the thread caps are set
    from tracing import Tracer

    if not Path(workloads.cvb.__file__).resolve().is_relative_to(SRC):
        print(f"error: cvb imported from {workloads.cvb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        print(f"error: unknown workload {args.workload!r} or size {args.size!r}", file=sys.stderr)
        return 2
    sz = workloads.SIZES[args.size]
    traced = bool(args.trace)
    pipeline = args.workload == "cli-pipeline"

    workdir = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True)
    run_level = {}
    ref = workloads.Reference()
    ref.seconds()  # warm, not recorded

    if not traced:
        probe = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--size", args.size, "--out", str(workdir / "probe")]
        (workdir / "probe").mkdir()
        setup_raw, setup_norm, setup_refs = setup_seconds(probe, sz.repeats, workdir, workloads.spawn, ref)
    else:
        run_level["cli.import_s"] = statistics.median(probe_seconds(
            [sys.executable, "-c", "import cvb.cli"], sz.repeats, workdir, workloads.spawn))
        run_level["cli.import_numpy_s"] = statistics.median(probe_seconds(
            [sys.executable, "-c", "import numpy"], sz.repeats, workdir, workloads.spawn))
        gen_times = []
        for _ in range(sz.repeats):
            start = time.perf_counter()
            workloads.GENERATORS[args.workload](args.seed, sz)
            gen_times.append(time.perf_counter() - start)
        run_level["synthetic.gen_ms"] = statistics.median(gen_times) * 1e3

    inputs = workloads.setup(args.workload, args.seed, sz, inputs_dir)
    tracer = Tracer()
    workload = workloads.WORKLOADS[args.workload](inputs, sz, inputs_dir, tracer)
    run = workloads.Run(tracer, ref, workload.ref_repeats)
    run_cycles(workload, run, tracer, args.seconds, traced, warm=not pipeline)

    untraced = [(c, n) for t, c, n in run.cycles if not t]
    detail = {"env": environment(args), "operations": operations(workload.ops, untraced, pipeline),
              "reference_ms": describe([r * 1e3 for r in run.refs], "ms"),
              "reference_nominal_ms": run.ref.nominal_s * 1e3,
              "attempted": run.attempted, "failed": run.failed,
              "failed_frac": run.failed / run.attempted if run.attempted else None, "failures": run.failures,
              "notes": {k: sorted(set(v)) for k, v in run.notes.items() if k != "child_peak_rss_mb"}}
    if traced:
        traced_cycles = [(c, n) for t, c, n in run.cycles if t]
        detail["operations_traced"] = operations(workload.ops, traced_cycles, pipeline)
        cycle = [detail[k]["cycle_ms"]["median"] for k in ("operations", "operations_traced")]
        overhead = cycle[1] - cycle[0] if None not in cycle else 0.0
        values = layer_metrics(tracer)
        run_level["fit1d.approx_peak_alloc_mb"] = run_level["fit2d.sampleset2d_peak_alloc_mb"] = 0.0
        for metric, fn in workload.memory_probes().items():
            run_level[metric] = peak_alloc_mb(fn)
        values.update(run_level)
        values["trace.overhead_cycle_ms"] = overhead
        values["trace.overhead_frac"] = overhead / cycle[0] if cycle[0] else 0.0
        declared = spec["per_layer"]
        tracer.write(workdir / "spans.jsonl")
    else:
        if pipeline:
            rss = max(run.notes["child_peak_rss_mb"], default=0.0)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(setup_norm),
            "cycle_ms": detail["operations"]["cycle_norm_ms"]["median"] or 0.0,
            "success_frac": (run.attempted - run.failed) / run.attempted if run.attempted else 0.0,
            "peak_rss_mb": rss,
        }
        detail["setup"] = {"raw_s": setup_raw, "normalised_s": setup_norm, "reference_s": setup_refs}
        declared = spec["end_to_end"]

    for name in ("inputs", "probe"):
        shutil.rmtree(workdir / name, ignore_errors=True)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": run.failed == 0 and run.attempted > 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
