#!/usr/bin/env python3
"""Wall time and minor page faults per call of cvb's array-heavy operations.

Each operation runs once to warm, then ``--repeats`` times; the script prints
the median wall time and the median count of minor page faults
(``getrusage(RUSAGE_SELF).ru_minflt``) per call.  A fault count near zero
means the call reuses memory the process already has; hundreds mean it maps
fresh pages each time.  Inputs are seeded and built from ``cvb.synthetic``
at the sizes of the perfbench workloads (``--size full``: Runge plus noise
at 1,000 Chebyshev zeros fitted with 60 terms, a 2,000-point cloud with
degree bound 12, a 16x12 calibration grid, a 640x480 warp,
100,000 mapped points and their extrapolation check, and the CLI's text
files: the 640x480 RGB plain PPM that ``cvb warp`` reads, the 5,000-row CSV
that ``cvb apply`` writes and ``cvb eval`` reads, and the 1,830-step trace
of the curve approximation that ``cvb fit1d --trace`` writes), or much
smaller with ``--size tiny`` (the raster keeps the camera's size).

    python3 scripts/fault_probe.py [--size tiny] [--repeats 11] [--seed 1]
"""

import argparse
import resource
import statistics
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from cvb import (
    ExtrapolationWarning,
    FitConfig,
    SampleSet1D,
    WarpSpec,
    calibrate,
    cheb_zeros,
    cvb_approximate,
    cvb_approximate_2d,
    cvb_interpolate,
    map_point,
    warp_image,
)
from cvb.basis import warn_if_extrapolating
from cvb.cli import _read_csv, _write_csv, _write_trace
from cvb.fit2d import SampleSet2D, term_matrix, visit_order
from cvb.ppm import read_image, write_image
from cvb.synthetic import DistortionParams, distort, runge

SIZES = {
    # curve points and terms, cloud points, degree bound, calibration grid, warp output, mapped points, CSV rows
    "full": ((1000, 60), 2000, 12, (16, 12), (640, 480), 100_000, 5000),
    "tiny": ((120, 12), 150, 10, (8, 6), (64, 48), 2000, 100),
}
PARAMS = DistortionParams()
WINDOW = (-448.0, 448.0, -336.0, 336.0)


def inputs(size, seed):
    (curve_m, _), cloud_m, n2d, (nx, ny), (out_w, out_h), points, _ = SIZES[size]
    rng = np.random.default_rng(seed)
    zeros = cheb_zeros(curve_m)
    curve = SampleSet1D(x=zeros, y=runge(zeros) + 0.01 * rng.standard_normal(curve_m))
    x, y = rng.uniform(-1.0, 1.0, cloud_m), rng.uniform(-1.0, 1.0, cloud_m)
    samples = SampleSet2D(x=x, y=y, z=np.sin(3 * x) * np.cos(2 * y) + 0.01 * rng.standard_normal(cloud_m))
    width, height = PARAMS.image_size
    half_x, half_y = width / 2 / PARAMS.scale, height / 2 / PARAMS.scale
    gx, gy = np.meshgrid(np.linspace(-0.85 * half_x, 0.85 * half_x, nx), np.linspace(-0.85 * half_y, 0.85 * half_y, ny))
    X = gx.ravel() + rng.uniform(-5.0, 5.0, gx.size)
    Y = gy.ravel() + rng.uniform(-5.0, 5.0, gy.size)
    pairs = np.column_stack([*distort(PARAMS, X, Y), X, Y])
    image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    pu, pv = rng.uniform(0.0, width, points), rng.uniform(0.0, height, points)
    return curve, samples, n2d, pairs, image, WarpSpec(out_w, out_h, WINDOW), pu, pv


def probe(fn, repeats):
    """Median wall time (ms) and median minor faults of ``repeats`` calls after one warm call."""
    fn()
    times, faults = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(times), statistics.median(faults)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    # the mapped points cover the whole frame, beyond the calibrated grid
    warnings.simplefilter("ignore", ExtrapolationWarning)
    curve, samples, n2d, pairs, image, spec, pu, pv = inputs(args.size, args.seed)
    curve_config = FitConfig(epsilon=0.0, max_terms=SIZES[args.size][0][1])
    order = visit_order(n2d)
    full, early = FitConfig(epsilon=0.0, max_terms=n2d), FitConfig(epsilon=0.05, max_terms=n2d)
    fwd, inv = FitConfig(epsilon=0.5, max_terms=8), FitConfig(epsilon=0.25, max_terms=8)
    model = calibrate(pairs, fwd, inverse_config=inv)
    rows = SIZES[args.size][-1]
    table = np.column_stack([pu[:rows], pv[:rows], *map_point(model, pu[:rows], pv[:rows])])
    scratch = Path(tempfile.mkdtemp())
    plain, csv_path, trace_path = scratch / "plain.ppm", scratch / "mapped.csv", scratch / "trace.csv"
    curve_model, curve_report = cvb_approximate(curve, curve_config)
    write_image(plain, image, plain=True)
    operations = (
        (f"cvb_interpolate (n={curve_config.max_terms}, m={curve.m})", lambda: cvb_interpolate(curve, curve_config)),
        (f"cvb_approximate (n={curve_config.max_terms}, m={curve.m})", lambda: cvb_approximate(curve, curve_config)),
        (f"term_matrix ({len(order)} terms, m={samples.m})", lambda: term_matrix(samples, order)),
        ("cvb_approximate_2d full", lambda: cvb_approximate_2d(samples, full)),
        ("cvb_approximate_2d early stop", lambda: cvb_approximate_2d(samples, early)),
        (f"calibrate ({len(pairs)} pairs)", lambda: calibrate(pairs, fwd, inverse_config=inv)),
        (f"warp_image ({spec.width}x{spec.height})", lambda: warp_image(model, image, spec)),
        (f"map_point ({pu.size} points)", lambda: map_point(model, pu, pv)),
        (f"warn_if_extrapolating ({pu.size} points)", lambda: warn_if_extrapolating(model.fwd_x.xmap, pu)),
        (f"write_image plain ({image.shape[1]}x{image.shape[0]} RGB)", lambda: write_image(plain, image, plain=True)),
        (f"read_image plain ({image.shape[1]}x{image.shape[0]} RGB)", lambda: read_image(plain)),
        (f"_write_csv ({rows} rows u,v,X,Y)", lambda: _write_csv(csv_path, ("u", "v", "X", "Y"), table)),
        (f"_read_csv ({rows} rows u,v,X,Y)", lambda: _read_csv(csv_path, ("u", "v", "X", "Y"))),
        (f"_write_trace ({len(curve_report.trace)} steps)",
         lambda: _write_trace(trace_path, curve_report, curve_model.n)),
    )
    print(f"{'operation':40s} {'median_ms':>10s} {'minor_faults':>12s}")
    try:
        for name, fn in operations:
            ms, faults = probe(fn, args.repeats)
            print(f"{name:40s} {ms:10.3f} {faults:12g}")
    finally:
        for path in (plain, csv_path, trace_path):
            path.unlink(missing_ok=True)
        scratch.rmdir()


if __name__ == "__main__":
    main()
