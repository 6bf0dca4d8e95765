"""Smoke test of the benchmark: every workload at tiny input sizes.

Run from the repository root (the tier-1 suite does not collect it):

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Operation metrics each workload prints by name on its detail line.
OPERATIONS = {
    "fit-dense": ["fit1d_interp_ms", "fit1d_approx_ms", "fit2d_ms", "fit2d_early_ms"],
    "rectify-image": ["calibrate_ms", "warp_ms", "map_points_ms"],
    "cli-pipeline": ["cli_pipeline_s", "cli_calibrate_s", "cli_apply_s", "cli_warp_s", "cli_eval_s"],
}
# Layer metrics that must read above zero on each workload; the rest read 0
# because the workload never calls that layer.
ALWAYS = ["cli.import_s", "cli.import_numpy_s", "synthetic.gen_ms"]
EXERCISED = {
    "fit-dense": ALWAYS + [
        "basis.cheb_columns_ms", "basis.sampleset1d_ms", "orthogonalize.orthogonalize_ms",
        "fit1d.interp_self_ms", "fit1d.sweeps_ms", "fit1d.steps", "fit1d.us_per_step",
        "fit1d.approx_peak_alloc_mb", "fit2d.sampleset2d_ms", "fit2d.sampleset2d_peak_alloc_mb",
        "fit2d.term_matrix_ms", "fit2d.sweeps_ms", "fit2d.sweeps_early_ms", "fit2d.steps",
        "fit2d.steps_early", "fit2d.us_per_step"],
    "rectify-image": ALWAYS + [
        "fit2d.sampleset2d_ms", "fit2d.sampleset2d_peak_alloc_mb", "fit2d.term_matrix_ms",
        "fit2d.sweeps_ms", "fit2d.steps", "fit2d.us_per_step", "fit2d.eval_grid_ms",
        "fit2d.eval_points_ms", "rectify.calibrate_self_ms", "rectify.calibrate_steps",
        "rectify.warp_gather_ms", "rectify.warp_valid_frac", "rectify.warp_pixels",
        "rectify.extrapolation_warnings"],
    "cli-pipeline": ALWAYS + [
        "rectify.save_model_ms", "rectify.load_model_ms", "ppm.read_plain_ms", "ppm.write_binary_ms",
        "ppm.bytes_read", "ppm.bytes_written", "cli.main_gen_ms", "cli.main_calibrate_ms",
        "cli.main_apply_ms", "cli.main_warp_ms", "cli.main_eval_ms"],
}


def bench(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = bench(workload, trace=0)
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["success_frac"]["value"] == 1.0
    assert detail["failed_frac"] == 0
    assert result["metrics"]["cycle_ms"]["value"] == detail["operations"]["cycle_norm_ms"]["median"]
    assert detail["reference_ms"]["median"] > 0
    assert len(detail["setup"]["reference_s"]) == len(detail["setup"]["raw_s"]) + 1
    for op in OPERATIONS[workload]:
        assert detail["operations"][op]["median"] > 0
        assert detail["operations"][op]["unit"] == op.rsplit("_", 1)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    detail, result = bench(workload, trace=1)
    check_result(result, SPEC["per_layer"])
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    for op in OPERATIONS[workload]:
        assert detail["operations_traced"][op]["median"] > 0
    spans = (HERE / "_work" / f"{workload}-seed1-trace1" / "spans.jsonl").read_text().splitlines()
    assert {"id", "name", "start_ns", "end_ns", "parent", "cycle"} <= set(json.loads(spans[0]))


def _flat(value):
    if isinstance(value, list):
        return np.array([[p.u, p.v, p.X, p.Y] for p in value])
    return np.asarray(value)


def test_seeds_change_inputs_but_not_fixed_schedules():
    sys.path.insert(0, str(HERE))
    import workloads
    from cvb import FitConfig, SampleSet1D, SampleSet2D, cvb_approximate, cvb_approximate_2d

    sz = workloads.SIZES["tiny"]
    for generate in workloads.GENERATORS.values():
        first, second = generate(1, sz), generate(2, sz)
        assert any(not np.array_equal(_flat(first[k]), _flat(second[k])) for k in first)
        assert all(np.array_equal(_flat(generate(1, sz)[k]), _flat(first[k])) for k in first)

    steps = set()
    for seed in (1, 2):
        inputs = workloads.fit_dense_inputs(seed, sz)
        _, r1 = cvb_approximate(SampleSet1D(x=inputs["x1"], y=inputs["y1"]), FitConfig(0.0, sz.n1d))
        _, r2 = cvb_approximate_2d(SampleSet2D(x=inputs["x2"], y=inputs["y2"], z=inputs["z2"]),
                                   FitConfig(0.0, sz.n2d))
        steps.add((len(r1.trace), len(r2.trace)))
    assert len(steps) == 1
