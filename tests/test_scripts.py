"""Smoke tests for the runnable studies in scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import cvb
from cvb.ppm import read_image

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(cvb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # a numpy RuntimeWarning fails a script as it fails the tests (pyproject's filterwarnings)
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def test_rectification_demo(tmp_path):
    # the only script on the grayscale warp and map_point path
    proc = run_script("rectification_demo.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    distorted = read_image(tmp_path / "distorted.pgm")
    rectified = read_image(tmp_path / "rectified.pgm")
    assert distorted.shape == (480, 640) and rectified.ndim == 2
    assert distorted.max() == 255 and rectified.max() == 255
    held_out = re.search(r"held-out mapping error: max ([0-9.]+) mm", proc.stdout)
    assert held_out is not None, proc.stdout
    assert float(held_out.group(1)) <= 0.5


def test_runge_experiment(tmp_path):
    # more data makes the interpolation worse and the approximation better
    proc = run_script("runge_experiment.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ["truth"] + [f"{label}_{m}" for label in ("interp", "approx") for m in (5, 9)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in names)
    err = {(label, int(m)): float(value)
           for label, m, value in re.findall(r"(interp|approx) +m=(\d+): max \|P - runge\| = ([0-9.]+)", proc.stdout)}
    assert len(err) == 4, proc.stdout
    assert err["interp", 9] > err["interp", 5]
    assert err["approx", 9] < err["approx", 5]


def test_pathological_curves(tmp_path):
    # on both data sets the approximation overshoots the data range less than the interpolation
    proc = run_script("pathological_curves.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = [f"{data}_{kind}" for data in ("humped_flat", "noisy_line") for kind in ("points", "interp", "approx")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in names)
    overshoot = {(data, label): float(value) for data, label, value in
                 re.findall(r"(\w+) +(interp|approx): overshoot beyond data range = (-?[0-9.]+)", proc.stdout)}
    assert len(overshoot) == 4, proc.stdout
    for data in ("humped_flat", "noisy_line"):
        assert overshoot[data, "approx"] < overshoot[data, "interp"]


def test_fault_probe(tmp_path):
    # output format only: timings and fault counts depend on the machine
    proc = run_script("fault_probe.py", "--size", "tiny", "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["operation", "median_ms", "minor_faults"]
    names = [re.match(r"(\w+)", line).group(1) for line in lines[1:]]
    assert names == ["cvb_interpolate", "cvb_approximate", "term_matrix", "cvb_approximate_2d", "cvb_approximate_2d",
                     "calibrate", "warp_image", "map_point", "warn_if_extrapolating", "write_image", "read_image",
                     "_write_csv", "_read_csv", "_write_trace", "_write_trace", "_write_trace"]
    for line in lines[1:]:
        ms, faults = line.split()[-2:]
        assert float(ms) >= 0.0 and float(faults) >= 0.0
