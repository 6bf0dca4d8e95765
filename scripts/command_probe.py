#!/usr/bin/env python3
"""Wall time, exit phase and cvb modules loaded of each `cvb` command, run as a child process.

The script writes the pipeline's inputs to a temporary directory with cvb's
own generators and writers (``--size full``: the 640x480 RGB plain PPM that
``cvb warp`` reads, 5,000 points for ``cvb apply``, 1,000 truth rows for
``cvb eval``, a 640x480 warp; ``--size tiny``: 100 points, 50 truth rows, a
64x48 warp, and the raster keeps the camera's size).  It then runs gen,
calibrate, apply, warp and eval in turn, once to warm and ``--repeats``
times more, each as ``python -m cvb.cli`` would, but through a ``-c``
bootstrap that registers an atexit hook before it starts the module.  The
hook, registered first, runs last of the atexit handlers and records
``time.monotonic_ns()`` (on Linux the parent and child share that clock) and
the number of ``cvb.*`` modules then loaded.

For each command the script prints the median wall time from spawn to exit,
the median exit phase, from the hook's timestamp to the moment the parent has
reaped the child (the stdio flush, module teardown and the interpreter's
shutdown collections), and the median count of ``cvb.*`` modules, which
leaves out the package itself and ``cvb.cli``, run as ``__main__``.  Like
perfbench's cli-pipeline it runs on one CPU with BLAS threads capped at one.
The children import cvb as this script does, so ``PYTHONPATH`` selects the
tree to probe.  They inherit ``PYTHONDONTWRITEBYTECODE`` too: only where it is
set does each child compile every module it imports, so that the wall times
include compile time, as they do in perfbench's runs.

    python3 scripts/command_probe.py [--size tiny] [--repeats 11] [--seed 1]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import cvb
from cvb.cli import _write_csv
from cvb.ppm import write_image
from cvb.synthetic import DistortionParams, distort

SIZES = {
    # apply points, truth rows, warp output
    "full": (5000, 1000, (640, 480)),
    "tiny": (100, 50, (64, 48)),
}
PARAMS = DistortionParams()
WINDOW = "-448,448,-336,336"
COMMANDS = ("gen", "calibrate", "apply", "warp", "eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# `python -m cvb.cli`, after an atexit hook that writes its clock reading and cvb.* module count to the path given first
BOOTSTRAP = """
import atexit, runpy, sys, time

def stamp(path=sys.argv.pop(1)):
    now = time.monotonic_ns()
    modules = sum(name.startswith("cvb.") for name in sys.modules)
    with open(path, "w") as fh:
        fh.write(f"{now} {modules}")

atexit.register(stamp)
runpy.run_module("cvb.cli", run_name="__main__", alter_sys=True)
"""


def write_inputs(directory, size, seed):
    """points.csv, truth.csv and in.ppm, seeded, as perfbench's cli-pipeline lays them out."""
    apply_points, truth_points, _ = SIZES[size]
    rng = np.random.default_rng(seed)
    width, height = PARAMS.image_size
    half_x, half_y = width / 2 / PARAMS.scale, height / 2 / PARAMS.scale

    def world(count):
        # uniform over the central 70% of the field of view
        return rng.uniform(-0.7 * half_x, 0.7 * half_x, count), rng.uniform(-0.7 * half_y, 0.7 * half_y, count)

    _write_csv(directory / "points.csv", ("u", "v"), np.column_stack(distort(PARAMS, *world(apply_points))))
    X, Y = world(truth_points)
    _write_csv(directory / "truth.csv", ("u", "v", "X", "Y"), np.column_stack([*distort(PARAMS, X, Y), X, Y]))
    write_image(directory / "in.ppm", rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8), plain=True)


def command_args(size):
    out_w, out_h = SIZES[size][2]
    return {
        "gen": ["gen", "correspondences", "--out", "pairs.csv"],
        "calibrate": ["calibrate", "--pairs", "pairs.csv", "--epsilon", "0.5", "--inverse-epsilon", "0.25",
                      "--degree-bound", "8", "--out", "model.json"],
        "apply": ["apply", "--model", "model.json", "--points", "points.csv", "--out", "mapped.csv"],
        "warp": ["warp", "--model", "model.json", "--input", "in.ppm", "--output", "out.ppm",
                 f"--window={WINDOW}", "--width", str(out_w), "--height", str(out_h)],
        "eval": ["eval", "--model", "model.json", "--truth", "truth.csv"],
    }


def run_command(argv, directory, env):
    """Wall ms from spawn to reaped exit, ms from the child's last atexit hook to that exit, and its cvb.* modules."""
    stamp = directory / "exit_stamp"
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", BOOTSTRAP, str(stamp), *argv], cwd=directory, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    end = time.monotonic_ns()
    if proc.returncode != 0:
        raise SystemExit(f"error: cvb {argv[0]} exited {proc.returncode}: {proc.stderr.decode()}")
    exited, modules = map(int, stamp.read_text().split())
    stamp.unlink()
    return (end - start) / 1e6, (end - exited) / 1e6, modules


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the children inherit the one CPU
    src = str(Path(cvb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **{var: "1" for var in THREAD_VARS})
    argvs = command_args(args.size)
    wall, exit_phase, loaded = ({c: [] for c in COMMANDS} for _ in range(3))
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        write_inputs(directory, args.size, args.seed)
        for repeat in range(args.repeats + 1):
            for command in COMMANDS:
                ms, exit_ms, modules = run_command(argvs[command], directory, env)
                if repeat:  # the first pass warms the file cache
                    wall[command].append(ms)
                    exit_phase[command].append(exit_ms)
                    loaded[command].append(modules)
    print(f"{'command':10s} {'median_ms':>10s} {'exit_ms':>10s} {'cvb_modules':>12s}")
    for command in COMMANDS:
        print(f"{command:10s} {statistics.median(wall[command]):10.3f} {statistics.median(exit_phase[command]):10.3f} "
              f"{statistics.median_low(loaded[command]):12d}")


if __name__ == "__main__":
    main()
