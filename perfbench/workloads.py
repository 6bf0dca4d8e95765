"""Seeded inputs, one closed-loop cycle per workload, and the output checks.

Each workload is a closed loop with one client: an operation starts only after
the previous one and its check have finished.  The program receives only the
generated inputs; the seed never reaches it.

Every timed operation is also divided by the speed of the machine at that
moment, read from a fixed reference kernel run right before and right after
it (see ``Reference``).

Traced cycles also *replay* the calls that a timed library function makes
internally (for example ``cheb_columns`` and ``orthogonalize`` inside
``cvb_interpolate``), each through the same public function, so per-layer
times come from the benchmark's own calls and no ``cvb`` internals are
patched.  Replays run after the timed operation, outside its span.
"""

from __future__ import annotations

import contextlib
import io
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as C

import cvb
from cvb.basis import ExtrapolationWarning, auto_map, cheb_columns, cheb_zeros
from cvb.fit1d import DEGENERATE_TERM_REL, FitConfig, projection_sweeps
from cvb.fit2d import SampleSet2D, revisit_set, term_matrix, visit_order
from cvb.orthogonalize import orthogonalize
from cvb.ppm import read_image, write_image
from cvb.rectify import Correspondence, WarpSpec, load_model, save_model
from cvb.synthetic import DistortionParams, distort, max_displacement_px, runge

PARAMS = DistortionParams()
HALF_X = PARAMS.image_size[0] / 2 / PARAMS.scale  # world mm from centre to frame edge
HALF_Y = PARAMS.image_size[1] / 2 / PARAMS.scale
WINDOW = (-448.0, 448.0, -336.0, 336.0)
SUBFITS = ("fwd_x", "fwd_y", "inv_u", "inv_v")
FWD_CONFIG = FitConfig(epsilon=0.5, max_terms=8)
INV_CONFIG = FitConfig(epsilon=0.25, max_terms=8)
EARLY_EPSILON = 0.05  # fit-dense (d): stops after roughly a quarter of the schedule
JITTER_MM = 5.0  # rectify-image: seeded jitter of the calibration grid

# Tolerances of the output checks, taken from the test suite.
COEFF_TOL = 1e-9  # interpolation vs approximation vs least squares at Chebyshev zeros
RESIDUAL_TOL = 1e-12  # traced residual vs full recomputation; l2 trace slack
MAP_TOL = 1e-9  # mapped points vs an independent chebval2d evaluation
# Share of warp output pixels allowed to differ from the benchmark's own
# gather; a re-ordered surface evaluation may flip a floor() at a boundary.
WARP_MISMATCH_FRAC = 1e-4


@dataclass(frozen=True)
class Sizes:
    runge_m: int = 1000
    n1d: int = 60
    cloud_m: int = 2000
    n2d: int = 12
    grid: tuple = (16, 12)
    warp_out: tuple = (640, 480)  # output raster width, height
    map_points: int = 100_000
    apply_points: int = 5000
    truth_points: int = 1000
    repeats: int = 5  # set-up and import probes per run


SIZES = {
    "full": Sizes(),
    "tiny": replace(Sizes(), runge_m=120, n1d=12, cloud_m=150, n2d=10, grid=(8, 6), warp_out=(64, 48),
                    map_points=2000, apply_points=100, truth_points=50, repeats=1),
}


# ---------------------------------------------------------------- inputs

def _world_uniform(rng, count):
    """World points uniform over the central 70% of the field of view."""
    X = rng.uniform(-0.7 * HALF_X, 0.7 * HALF_X, count)
    Y = rng.uniform(-0.7 * HALF_Y, 0.7 * HALF_Y, count)
    return X, Y


def _raster(rng):
    """A seeded RGB raster of the synthetic camera's frame size."""
    width, height = PARAMS.image_size
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


def fit_dense_inputs(seed, sz):
    rng = np.random.default_rng(seed)
    x1 = cheb_zeros(sz.runge_m)
    y1 = runge(x1) + 0.01 * rng.standard_normal(sz.runge_m)
    x2 = rng.uniform(-1.0, 1.0, sz.cloud_m)
    y2 = rng.uniform(-1.0, 1.0, sz.cloud_m)
    z2 = np.sin(3 * x2) * np.cos(2 * y2) + 0.01 * rng.standard_normal(sz.cloud_m)
    return {"x1": x1, "y1": y1, "x2": x2, "y2": y2, "z2": z2}


def rectify_inputs(seed, sz):
    rng = np.random.default_rng(seed)
    nx, ny = sz.grid
    gx, gy = np.meshgrid(np.linspace(-0.85 * HALF_X, 0.85 * HALF_X, nx),
                         np.linspace(-0.85 * HALF_Y, 0.85 * HALF_Y, ny))
    X = gx.ravel() + rng.uniform(-JITTER_MM, JITTER_MM, gx.size)
    Y = gy.ravel() + rng.uniform(-JITTER_MM, JITTER_MM, gy.size)
    u, v = distort(PARAMS, X, Y)
    width, height = PARAMS.image_size
    return {
        "pairs": [Correspondence(*row) for row in zip(u, v, X, Y)],
        "image": _raster(rng),
        "pu": rng.uniform(0.0, width, sz.map_points),
        "pv": rng.uniform(0.0, height, sz.map_points),
    }


def cli_inputs(seed, sz):
    rng = np.random.default_rng(seed)
    pu, pv = distort(PARAMS, *_world_uniform(rng, sz.apply_points))
    X, Y = _world_uniform(rng, sz.truth_points)
    tu, tv = distort(PARAMS, X, Y)
    return {
        "points": np.column_stack([pu, pv]),
        "image": _raster(rng),
        "truth": np.column_stack([tu, tv, X, Y]),
    }


GENERATORS = {"fit-dense": fit_dense_inputs, "rectify-image": rectify_inputs, "cli-pipeline": cli_inputs}


def write_cli_inputs(inputs, directory: Path):
    np.savetxt(directory / "points.csv", inputs["points"], fmt="%.17g", delimiter=",",
               header="u,v", comments="")
    np.savetxt(directory / "truth.csv", inputs["truth"], fmt="%.17g", delimiter=",",
               header="u,v,X,Y", comments="")
    write_image(directory / "in.ppm", inputs["image"], plain=True)


def setup(workload, seed, sz, directory: Path):
    """Everything between ``import cvb`` and the first timed operation."""
    inputs = GENERATORS[workload](seed, sz)
    if workload == "cli-pipeline":
        write_cli_inputs(inputs, directory)
    return inputs


def held_out_bound_mm():
    """Held-out mapping error bound of acceptance criterion 8: a tenth of the
    uncorrected distortion (0.8 mm for the default camera)."""
    return 0.1 * max_displacement_px(PARAMS) / PARAMS.scale


# ---------------------------------------------------------------- machine speed

class Reference:
    """A fixed kernel that uses numpy and the interpreter but no cvb: a
    Chebyshev surface on 200k points, a raster gather and an interpreter
    loop, on constant inputs.

    The shared host's speed drifts by 15-60% over seconds to minutes, longer
    than a run, so a run's median wall time depends on when it ran.  The
    benchmark therefore times this kernel right before and right after each
    operation and divides the operation's time by the mean of the two.  The
    quotient is multiplied by ``nominal_s``, about the kernel's time on a
    quiet core of the baseline host, so a normalised time reads as seconds at
    one fixed machine speed.  ``nominal_s`` is a fixed scale: changing it
    changes every normalised time.
    """

    nominal_s = 0.045

    def __init__(self):
        rng = np.random.default_rng(20090423)
        self.x = rng.uniform(-1.0, 1.0, 200_000)
        self.y = rng.uniform(-1.0, 1.0, 200_000)
        self.coeffs = rng.standard_normal((8, 8))
        self.image = rng.integers(0, 256, size=(480, 640, 3), dtype=np.uint8)

    def _once(self):
        start = time.perf_counter()
        z = C.chebval2d(self.x, self.y, self.coeffs)
        rows = ((z - z.min()) / (np.ptp(z) + 1e-9) * 479).astype(np.int64)
        self.image[rows, rows % 640]
        total = 0
        for i in range(20_000):
            total += i * i
        return time.perf_counter() - start

    def seconds(self, repeats=1):
        """Median time of ``repeats`` back-to-back runs of the kernel."""
        return statistics.median(self._once() for _ in range(repeats))

    def normalised(self, seconds, before, after):
        return seconds / ((before + after) / 2) * self.nominal_s


# ---------------------------------------------------------------- bookkeeping

class Run:
    """Operation counts, check failures, reference times and per-cycle operation times."""

    def __init__(self, tracer, reference, ref_repeats):
        self.tr = tracer
        self.ref = reference
        self.ref_repeats = ref_repeats
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (traced, {op metric: seconds}, {op metric: seconds at reference speed}) of complete cycles
        self.cycles: list[tuple[bool, dict, dict]] = []
        self.refs: list[float] = []
        self.notes = defaultdict(list)
        self._current = None
        self._ref_at = None

    def reference(self):
        """Record one reference time, the median of ``ref_repeats`` kernel runs;
        every operation has one before it and one after it."""
        self.refs.append(self.ref.seconds(self.ref_repeats))

    def begin_cycle(self):
        self._current = {}
        self._ref_at = {}

    def end_cycle(self, ops, keep):
        if keep and all(op in self._current for op in ops):
            scaled = {op: self.ref.normalised(self._current[op], self.refs[i], self.refs[i + 1])
                      for op, i in self._ref_at.items() if op in self._current}
            self.cycles.append((self.tr.enabled, self._current, scaled))

    def op(self, metric, fn, check):
        """Time ``fn`` in a span named after its metric, then check its output.

        Returns (output, span); output is None when the operation raised or
        failed its check.
        """
        self.attempted += 1
        self._ref_at[metric] = len(self.refs) - 1
        span = self.tr.span("op:" + metric)
        try:
            with span:
                out = fn()
            problem = check(out)
        except Exception as exc:  # an operation that raises is a failed operation
            out, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(metric, problem)
            return None, span
        self._current[metric] = span.seconds
        return out, span

    def fail(self, what, problem):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {problem}")


def _trace_problem(trace, residual):
    """Last traced max-abs residual equals a full recomputation; l2 never rises."""
    if not trace:
        return "empty trace"
    full = float(np.abs(residual).max())
    if abs(trace[-1].max_abs_residual - full) > RESIDUAL_TOL:
        return f"last traced max-abs residual {trace[-1].max_abs_residual!r} != recomputed {full!r}"
    l2 = np.fromiter((s.l2_residual for s in trace), float, len(trace))
    if np.any(np.diff(l2) > RESIDUAL_TOL):
        return "l2 residual rises along the trace"
    return None


def _skipped(tau, m):
    norm2 = np.einsum("ij,ij->i", tau, tau)
    return frozenset(int(j) for j in np.flatnonzero(norm2 <= DEGENERATE_TERM_REL * m))


def _schedule_1d(tau, m):
    """Schedule, revisits and skipped terms exactly as ``cvb_approximate`` builds them."""
    skipped = _skipped(tau, m)
    schedule = list(range(tau.shape[0]))
    revisits = {j: [k for k in range(j - 1, -1, -1) if k not in skipped] for j in schedule}
    return schedule, revisits, skipped


def _schedule_2d(tau, m, order):
    """Schedule, revisits and skipped terms exactly as ``cvb_approximate_2d`` builds them."""
    skipped = _skipped(tau, m)
    schedule = list(range(len(order)))
    pos = {t: p for p, t in enumerate(order)}
    revisits = {p: [pos[t] for t in revisit_set(order[p], order) if pos[t] not in skipped]
                for p in schedule}
    return schedule, revisits, skipped


# ---------------------------------------------------------------- fit-dense

class FitDense:
    """(a) interpolation and (b) approximation of noisy Runge data at the
    Chebyshev zeros; (c) a full-schedule and (d) an early-stopping surface fit
    of a seeded 2-D cloud."""

    ops = ("fit1d_interp_ms", "fit1d_approx_ms", "fit2d_ms", "fit2d_early_ms")
    ref_repeats = 1

    def __init__(self, inputs, sz, workdir, tracer):
        self.inp = inputs
        self.tr = tracer
        self.cfg1 = FitConfig(epsilon=0.0, max_terms=sz.n1d)
        self.cfg2 = FitConfig(epsilon=0.0, max_terms=sz.n2d)
        self.cfg_early = FitConfig(epsilon=EARLY_EPSILON, max_terms=sz.n2d)
        vander = cheb_columns(inputs["x1"], sz.n1d)
        self.lstsq = np.linalg.lstsq(vander, inputs["y1"], rcond=None)[0]

    def cycle(self, run):
        tr = run.tr
        interp, _ = run.op("fit1d_interp_ms", self._interp, self._check_interp)
        approx, _ = run.op("fit1d_approx_ms", lambda: self._approx(interp),
                           lambda out: self._check_approx(out, interp))
        full, _ = run.op("fit2d_ms", self._fit2d, self._check_fit2d)
        early, _ = run.op("fit2d_early_ms", lambda: self._early(full), self._check_early)
        if not tr.enabled:
            return
        if interp:
            samples, call = interp[0], interp[3]
            with tr.span("basis.cheb_columns", call.id):
                tau = cheb_columns(samples.x, self.cfg1.max_terms).T
            with tr.span("orthogonalize.orthogonalize", call.id):
                oset = orthogonalize(tau)
            tr.count("orthogonalize.skipped", len(oset.skipped))
        if approx:
            samples, call = approx[0], approx[3]
            with tr.span("basis.cheb_columns", call.id):
                tau = cheb_columns(samples.x, self.cfg1.max_terms).T
            schedule, revisits, skipped = _schedule_1d(tau, samples.m)
            with tr.span("fit1d.sweeps", call.id):
                _, trace, _ = projection_sweeps(tau, samples.y, self.cfg1, schedule, revisits, skipped)
            tr.count("fit1d.steps", len(trace))
        if full:
            samples, call = full[0], full[3]
            order = visit_order(self.cfg2.max_terms)
            with tr.span("fit2d.term_matrix", call.id):
                tau = term_matrix(samples, order)
            schedule, revisits, skipped = _schedule_2d(tau, samples.m, order)
            with tr.span("fit2d.sweeps", call.id):
                _, trace, _ = projection_sweeps(tau, samples.z, self.cfg2, schedule, revisits, skipped,
                                                labels=order)
            tr.count("fit2d.steps", len(trace))
            if early:
                with tr.span("fit2d.sweeps_early", early[3].id):
                    _, trace, _ = projection_sweeps(tau, samples.z, self.cfg_early, schedule, revisits,
                                                    skipped, labels=order)
                tr.count("fit2d.steps_early", len(trace))

    def _interp(self):
        tr = self.tr
        with tr.span("basis.sampleset1d"):
            samples = cvb.SampleSet1D(x=self.inp["x1"], y=self.inp["y1"])
        with tr.span("fit1d.cvb_interpolate") as call:
            model, report = cvb.cvb_interpolate(samples, self.cfg1)
        return samples, model, report, call

    def _approx(self, interp):
        if interp is None:
            raise RuntimeError("no sample set: the interpolation failed")
        with self.tr.span("fit1d.cvb_approximate") as call:
            model, report = cvb.cvb_approximate(interp[0], self.cfg1)
        return interp[0], model, report, call

    def _fit2d(self):
        tr = self.tr
        with tr.span("fit2d.sampleset2d"):
            samples = SampleSet2D(x=self.inp["x2"], y=self.inp["y2"], z=self.inp["z2"])
        with tr.span("fit2d.cvb_approximate_2d") as call:
            model, report = cvb.cvb_approximate_2d(samples, self.cfg2)
        return samples, model, report, call

    def _early(self, full):
        if full is None:
            raise RuntimeError("no sample set: the full-schedule surface fit failed")
        with self.tr.span("fit2d.cvb_approximate_2d_early") as call:
            model, report = cvb.cvb_approximate_2d(full[0], self.cfg_early)
        return full[0], model, report, call

    def _coeff_problem(self, coeffs, label):
        err = float(np.abs(coeffs - self.lstsq).max())
        return f"{label} coefficients differ from lstsq by {err!r}" if err > COEFF_TOL else None

    def _check_interp(self, out):
        samples, model, report, _ = out
        return (self._coeff_problem(model.coeffs, "interpolation")
                or _trace_problem(report.trace, samples.y - C.chebval(samples.x, model.coeffs)))

    def _check_approx(self, out, interp):
        samples, model, report, _ = out
        err = float(np.abs(model.coeffs - interp[1].coeffs).max())
        if err > COEFF_TOL:
            return f"approximation and interpolation coefficients differ by {err!r}"
        return (self._coeff_problem(model.coeffs, "approximation")
                or _trace_problem(report.trace, samples.y - C.chebval(samples.x, model.coeffs)))

    def _surface_residual(self, model):
        return self.inp["z2"] - C.chebval2d(self.inp["x2"], self.inp["y2"], model.dense())

    def _check_fit2d(self, out):
        _, model, report, _ = out
        return _trace_problem(report.trace, self._surface_residual(model))

    def _check_early(self, out):
        _, model, report, _ = out
        if not report.converged:
            return "early-stopping fit did not converge"
        return _trace_problem(report.trace, self._surface_residual(model))

    def memory_probes(self):
        samples = cvb.SampleSet1D(x=self.inp["x1"], y=self.inp["y1"])
        return {
            "fit1d.approx_peak_alloc_mb": lambda: cvb.cvb_approximate(samples, self.cfg1),
            "fit2d.sampleset2d_peak_alloc_mb":
                lambda: SampleSet2D(x=self.inp["x2"], y=self.inp["y2"], z=self.inp["z2"]),
        }


# ---------------------------------------------------------------- rectify-image

def _grid(spec):
    """World coordinates of the output pixel centres, as ``warp_image`` lays them out."""
    x0, x1, y0, y1 = spec.window
    wx = x0 + (np.arange(spec.width) + 0.5) * (x1 - x0) / spec.width
    wy = y0 + (np.arange(spec.height) + 0.5) * (y1 - y0) / spec.height
    return np.meshgrid(wx, wy)


def _surface(sub, x, y):
    return C.chebval2d(sub.xmap.forward(x), sub.ymap.forward(y), sub.dense())


def own_warp(model, image, spec):
    """Nearest-neighbour gather computed here with ``chebval2d``; returns (raster, valid mask)."""
    wxx, wyy = _grid(spec)
    u = np.floor(_surface(model.inv_u, wxx, wyy))
    v = np.floor(_surface(model.inv_v, wxx, wyy))
    in_h, in_w = image.shape[:2]
    valid = (u >= 0) & (u < in_w) & (v >= 0) & (v < in_h)
    out = np.zeros((spec.height, spec.width) + image.shape[2:], dtype=image.dtype)
    out[valid] = image[v[valid].astype(np.int64), u[valid].astype(np.int64)]
    return out, valid


def _signature(model):
    return b"".join(getattr(model, name).dense().tobytes() for name in SUBFITS)


class RectifyImage:
    """Calibrate on seeded correspondences, warp a seeded raster, map 100k points."""

    ops = ("calibrate_ms", "warp_ms", "map_points_ms")
    ref_repeats = 1

    def __init__(self, inputs, sz, workdir, tracer):
        self.inp = inputs
        self.tr = tracer
        width, height = sz.warp_out
        self.spec = WarpSpec(width=width, height=height, window=WINDOW)
        hx, hy = np.meshgrid(np.linspace(-0.7 * HALF_X, 0.7 * HALF_X, 9),
                             np.linspace(-0.7 * HALF_Y, 0.7 * HALF_Y, 9))
        self.held_out = (*distort(PARAMS, hx.ravel(), hy.ravel()), hx.ravel(), hy.ravel())
        self.bound_mm = held_out_bound_mm()
        self._ref = (None, None)
        self.last_mismatch = None

    def _own_outputs(self, model):
        """Own warp and own point mapping, recomputed only when the model changes."""
        sig = _signature(model)
        if self._ref[0] != sig:
            raster, valid = own_warp(model, self.inp["image"], self.spec)
            pu, pv = self.inp["pu"], self.inp["pv"]
            mapped = (_surface(model.fwd_x, pu, pv), _surface(model.fwd_y, pu, pv))
            self._ref = (sig, (raster, valid, mapped))
        return self._ref[1]

    def cycle(self, run):
        tr, inp = run.tr, self.inp
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ExtrapolationWarning)
            cal, _ = run.op("calibrate_ms", self._calibrate, self._check_calibrate)
            if cal is None:
                return
            model = cal[0]
            warp, _ = run.op("warp_ms", lambda: self._warp(model), lambda out: self._check_warp(model, out))
            if warp:
                run.notes["warp_mismatched_pixels"].append(self.last_mismatch)
            mapped, _ = run.op("map_points_ms", lambda: self._map(model), lambda out: self._check_map(model, out))
            warned = len(caught)
        run.notes["extrapolation_warnings"].append(warned)
        if not tr.enabled:
            return
        tr.count("rectify.extrapolation_warnings", warned)
        _, valid, _ = self._own_outputs(model)
        tr.count("rectify.warp_valid_frac", float(valid.mean()))
        tr.count("rectify.warp_pixels", valid.size)
        self._replay_calibrate(tr, cal[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            if warp:
                wxx, wyy = _grid(self.spec)
                for sub in (model.inv_u, model.inv_v):
                    with tr.span("fit2d.eval_grid", warp[1].id):
                        cvb.eval_model_2d(sub, wxx, wyy)
            if mapped:
                for sub in (model.fwd_x, model.fwd_y):
                    with tr.span("fit2d.eval_points", mapped[1].id):
                        cvb.eval_model_2d(sub, inp["pu"], inp["pv"])

    def _calibrate(self):
        with self.tr.span("rectify.calibrate") as call:
            model = cvb.calibrate(self.inp["pairs"], FWD_CONFIG, inverse_config=INV_CONFIG)
        return model, call

    def _warp(self, model):
        with self.tr.span("rectify.warp_image") as call:
            out = cvb.warp_image(model, self.inp["image"], self.spec)
        return out, call

    def _map(self, model):
        with self.tr.span("rectify.map_point") as call:
            out = cvb.map_point(model, self.inp["pu"], self.inp["pv"])
        return out, call

    def _check_calibrate(self, out):
        u, v, X, Y = self.held_out
        Xh, Yh = cvb.map_point(out[0], u, v)
        worst = float(np.hypot(Xh - X, Yh - Y).max())
        return f"held-out error {worst!r} mm > {self.bound_mm!r} mm" if worst > self.bound_mm else None

    def _check_warp(self, model, out):
        raster, _, _ = self._own_outputs(model)
        warped = out[0]
        if warped.shape != raster.shape:
            return f"warp output shape {warped.shape} != {raster.shape}"
        mismatched = int(np.any(warped != raster, axis=-1).sum())
        self.last_mismatch = mismatched
        limit = WARP_MISMATCH_FRAC * self.spec.width * self.spec.height
        return f"{mismatched} warp pixels differ from the own gather (limit {limit})" if mismatched > limit else None

    def _check_map(self, model, out):
        _, _, (X, Y) = self._own_outputs(model)
        err = max(float(np.abs(out[0][0] - X).max()), float(np.abs(out[0][1] - Y).max()))
        return f"mapped points differ from chebval2d by {err!r}" if err > MAP_TOL else None

    def _jobs(self):
        """The four (x, y, z, xmap, ymap, config) sub-fits that ``calibrate`` runs."""
        pairs = self.inp["pairs"]
        u, v, X, Y = (np.array([getattr(p, f) for p in pairs]) for f in ("u", "v", "X", "Y"))
        umap, vmap, xmap, ymap = auto_map(u), auto_map(v), auto_map(X), auto_map(Y)
        nu, nv, nx, ny = umap.forward(u), vmap.forward(v), xmap.forward(X), ymap.forward(Y)
        return [(nu, nv, X, umap, vmap, FWD_CONFIG), (nu, nv, Y, umap, vmap, FWD_CONFIG),
                (nx, ny, u, xmap, ymap, INV_CONFIG), (nx, ny, v, xmap, ymap, INV_CONFIG)]

    def _replay_calibrate(self, tr, call):
        steps = 0
        for x, y, z, xmap, ymap, cfg in self._jobs():
            with tr.span("fit2d.sampleset2d", call.id):
                samples = SampleSet2D(x=x, y=y, z=z)
            with tr.span("fit2d.cvb_approximate_2d", call.id) as fit:
                cvb.cvb_approximate_2d(samples, cfg, xmap=xmap, ymap=ymap)
            order = visit_order(cfg.max_terms)
            with tr.span("fit2d.term_matrix", fit.id):
                tau = term_matrix(samples, order)
            schedule, revisits, skipped = _schedule_2d(tau, samples.m, order)
            with tr.span("fit2d.sweeps", fit.id):
                _, trace, _ = projection_sweeps(tau, samples.z, cfg, schedule, revisits, skipped, labels=order)
            steps += len(trace)
        tr.count("fit2d.steps", steps)
        tr.count("rectify.calibrate_steps", steps)

    def memory_probes(self):
        x, y, z, *_ = self._jobs()[0]
        return {"fit2d.sampleset2d_peak_alloc_mb": lambda: SampleSet2D(x=x, y=y, z=z)}


# ---------------------------------------------------------------- cli-pipeline

def wait_exit(pid, timeout):
    """Block until ``pid`` exits or ``timeout`` seconds pass; True when it exited."""
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        return bool(poller.poll(timeout * 1000))
    finally:
        os.close(fd)


def spawn(argv, cwd, timeout=120.0):
    """Run ``argv`` to completion; returns (exit code, stdout, stderr, peak RSS in MB)."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        if not wait_exit(proc.pid, timeout):
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024


class CliPipeline:
    """gen -> calibrate -> apply -> warp -> eval, one ``python -m cvb.cli`` process each."""

    ops = ("cli_gen_s", "cli_calibrate_s", "cli_apply_s", "cli_warp_s", "cli_eval_s")
    ref_repeats = 3  # each reference time covers a whole command, so take more care

    def __init__(self, inputs, sz, workdir, tracer):
        self.inp = inputs
        self.tr = tracer
        self.sz = sz
        self.dir = workdir
        self.replay_dir = workdir / "replay"
        self.replay_dir.mkdir(exist_ok=True)
        self.model = None
        self.warped = None
        self.bound_mm = held_out_bound_mm()

    def _args(self, directory):
        d, i = str(directory), str(self.dir)
        return {
            "gen": ["gen", "correspondences", "--out", f"{d}/pairs.csv"],
            "calibrate": ["calibrate", "--pairs", f"{d}/pairs.csv", "--epsilon", "0.5",
                          "--inverse-epsilon", "0.25", "--degree-bound", "8", "--out", f"{d}/model.json"],
            "apply": ["apply", "--model", f"{d}/model.json", "--points", f"{i}/points.csv",
                      "--out", f"{d}/mapped.csv"],
            # "--window -448,..." is read by argparse as an option, so the value is attached with "=".
            "warp": ["warp", "--model", f"{d}/model.json", "--input", f"{i}/in.ppm",
                     "--output", f"{d}/out.ppm", "--window=" + ",".join(f"{w:g}" for w in WINDOW),
                     "--width", str(self.sz.warp_out[0]), "--height", str(self.sz.warp_out[1])],
            "eval": ["eval", "--model", f"{d}/model.json", "--truth", f"{i}/truth.csv"],
        }

    def cycle(self, run):
        tr = run.tr
        args = self._args(self.dir)
        checks = {"gen": self._check_gen, "calibrate": self._check_calibrate, "apply": self._check_apply,
                  "warp": self._check_warp, "eval": self._check_eval}
        spans = {}
        warned = 0
        for k, command in enumerate(("gen", "calibrate", "apply", "warp", "eval")):
            if k:
                run.reference()  # the loop times one before the first command and one after the last
            argv = [sys.executable, "-m", "cvb.cli", *args[command]]
            result, span = run.op(f"cli_{command}_s", lambda: spawn(argv, self.dir), checks[command])
            spans[command] = span
            if result is None:
                return
            warned += result[2].count("ExtrapolationWarning")
            run.notes["child_peak_rss_mb"].append(result[3])
        run.notes["extrapolation_warnings"].append(warned)
        if tr.enabled:
            tr.count("rectify.extrapolation_warnings", warned)
            self._replay(run, spans)

    def _replay(self, run, spans):
        import cvb.cli  # here, so that set-up time covers ``import cvb`` alone

        tr = run.tr
        for command, argv in self._args(self.replay_dir).items():
            with contextlib.redirect_stdout(io.StringIO()), tr.span(f"cli.main_{command}", spans[command].id):
                code = cvb.cli.main(argv)
            if code != 0:
                run.fail(f"cli.main {command}", f"exit code {code}")
        text = (self.dir / "model.json").read_text(encoding="utf-8")
        with tr.span("rectify.load_model", spans["warp"].id):
            model = load_model(text)
        with tr.span("rectify.save_model", spans["calibrate"].id):
            save_model(model)
        with tr.span("ppm.read_plain", spans["warp"].id):
            read_image(self.dir / "in.ppm")
        tr.count("ppm.bytes_read", (self.dir / "in.ppm").stat().st_size)
        binary = self.replay_dir / "binary.ppm"
        with tr.span("ppm.write_binary", spans["warp"].id):
            write_image(binary, self.warped)
        tr.count("ppm.bytes_written", binary.stat().st_size)

    @staticmethod
    def _exit_problem(result):
        code, _, err, _ = result
        return f"exit code {code}: {err.strip()[-300:]}" if code != 0 else None

    def _check_gen(self, result):
        return self._exit_problem(result) or (
            None if (self.dir / "pairs.csv").is_file() else "gen wrote no pairs.csv")

    def _check_calibrate(self, result):
        problem = self._exit_problem(result)
        if problem is None:
            self.model = load_model((self.dir / "model.json").read_text(encoding="utf-8"))
        return problem

    def _check_apply(self, result):
        problem = self._exit_problem(result)
        if problem:
            return problem
        mapped = np.loadtxt(self.dir / "mapped.csv", delimiter=",", skiprows=1, ndmin=2)
        points = self.inp["points"]
        if mapped.shape != (len(points), 4):
            return f"mapped.csv has shape {mapped.shape}, want {(len(points), 4)}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            X, Y = cvb.map_point(self.model, points[:, 0], points[:, 1])
        err = max(float(np.abs(mapped[:, 2] - X).max()), float(np.abs(mapped[:, 3] - Y).max()),
                  float(np.abs(mapped[:, :2] - points).max()))
        return f"mapped.csv differs from in-process map_point by {err!r}" if err > MAP_TOL else None

    def _check_warp(self, result):
        problem = self._exit_problem(result)
        if problem:
            return problem
        self.warped = read_image(self.dir / "out.ppm")
        width, height = self.sz.warp_out
        if self.warped.shape != (height, width, 3):
            return f"warp output shape {self.warped.shape}, want {(height, width, 3)}"
        return None

    def _check_eval(self, result):
        problem = self._exit_problem(result)
        if problem:
            return problem
        values = dict(line.split("=", 1) for line in result[1].split())
        if int(values["n_points"]) != len(self.inp["truth"]):
            return f"eval reports {values['n_points']} points, want {len(self.inp['truth'])}"
        err = float(values["max_err_mm"])
        return f"eval max_err_mm {err!r} > {self.bound_mm!r}" if err > self.bound_mm else None

    def memory_probes(self):
        return {}


WORKLOADS = {"fit-dense": FitDense, "rectify-image": RectifyImage, "cli-pipeline": CliPipeline}
