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
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


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
