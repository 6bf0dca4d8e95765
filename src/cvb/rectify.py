"""Camera calibration from point correspondences, point mapping, image warping.

A calibration holds four fitted surfaces: pixel (u, v) to world X and Y
(forward), and world (X, Y) back to pixel u and v (inverse).  The inverse
direction is fitted from the swapped correspondences rather than obtained by
inverting the forward polynomials.  Pixels in, millimetres out; units are
documentation only and never converted internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import MIN_NODE_GAP, DomainMap, _has_close_pair, auto_map
from .fit1d import FitConfig, FitError
from .fit2d import ChebModel2D, SampleSet2D, TermIndex2D, cvb_approximate_2d, eval_grid_2d, eval_model_2d

SUBFIT_NAMES = ("fwd_x", "fwd_y", "inv_u", "inv_v")
MODEL_VERSION = 1


class ModelParseError(ValueError):
    """A calibration document is malformed."""


class ModelVersionError(ModelParseError):
    """A calibration document declares an unsupported version."""


@dataclass(frozen=True)
class Correspondence:
    """One key point: pixel position (u, v) and its world position (X, Y) in mm."""

    u: float
    v: float
    X: float
    Y: float

    def __post_init__(self):
        for name in ("u", "v", "X", "Y"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"correspondence field {name} must be finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CalibrationMeta:
    epsilon: float
    degree_bound: int
    stats: Optional[dict] = None  # name -> FitReport, absent on loaded models


@dataclass(frozen=True)
class CalibrationModel:
    fwd_x: ChebModel2D
    fwd_y: ChebModel2D
    inv_u: ChebModel2D
    inv_v: ChebModel2D
    meta: CalibrationMeta


def calibrate(pairs, config: FitConfig, inverse_config: Optional[FitConfig] = None) -> CalibrationModel:
    """Fit the four calibration surfaces from point correspondences.

    ``config`` drives the forward (pixel to world) fits; ``inverse_config``
    the world-to-pixel fits, defaulting to ``config``.  Forward residual
    targets are in world units, inverse ones in pixels.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 correspondences, got {len(pairs)}")
    inverse_config = inverse_config or config
    u = np.array([p.u for p in pairs])
    v = np.array([p.v for p in pairs])
    X = np.array([p.X for p in pairs])
    Y = np.array([p.Y for p in pairs])
    umap, vmap = auto_map(u), auto_map(v)
    xmap, ymap = auto_map(X), auto_map(Y)
    nu, nv = umap.forward(u), vmap.forward(v)
    nx, ny = xmap.forward(X), ymap.forward(Y)
    for a, b, what in ((nu, nv, "pixel (u, v)"), (nx, ny, "world (X, Y)")):
        if _has_close_pair(a, b):
            raise ValueError(f"duplicate {what} pair: two normalized pairs lie within {MIN_NODE_GAP}")

    jobs = {
        "fwd_x": (nu, nv, X, umap, vmap, config),
        "fwd_y": (nu, nv, Y, umap, vmap, config),
        "inv_u": (nx, ny, u, xmap, ymap, inverse_config),
        "inv_v": (nx, ny, v, xmap, ymap, inverse_config),
    }
    models = {}
    stats = {}
    for name, (sx, sy, sz, mx, my, cfg) in jobs.items():
        samples = SampleSet2D(x=sx, y=sy, z=sz)
        model, report = cvb_approximate_2d(samples, cfg, xmap=mx, ymap=my)
        if not model.coeffs and np.abs(sz).max() > 0:
            raise FitError(f"sub-fit {name} is degenerate: no usable terms")
        models[name] = model
        stats[name] = report

    meta = CalibrationMeta(epsilon=config.epsilon, degree_bound=config.max_terms, stats=stats)
    return CalibrationModel(meta=meta, **models)


def map_point(model: CalibrationModel, u: float, v: float):
    """Pixel (u, v) to world (X, Y) through the forward fits."""
    return (
        eval_model_2d(model.fwd_x, u, v),
        eval_model_2d(model.fwd_y, u, v),
    )


def map_world(model: CalibrationModel, X: float, Y: float):
    """World (X, Y) back to pixel (u, v) through the inverse fits."""
    return (
        eval_model_2d(model.inv_u, X, Y),
        eval_model_2d(model.inv_v, X, Y),
    )


@dataclass(frozen=True)
class WarpSpec:
    """Output raster geometry: size plus the world window it covers.

    ``window`` is (x0, x1, y0, y1) in world units; output row 0 runs along
    y0 and column 0 along x0, with pixel centers offset by half a pixel.
    """

    width: int
    height: int
    window: tuple

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("output size must be positive")
        x0, x1, y0, y1 = (float(w) for w in self.window)
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate world window {self.window}")
        object.__setattr__(self, "window", (x0, x1, y0, y1))


def warp_image(model: CalibrationModel, image: np.ndarray, out_spec: WarpSpec, fill=0) -> np.ndarray:
    """Resample ``image`` onto the world window using the inverse fits.

    Every output pixel center is mapped world -> source pixel and sampled
    nearest-neighbor; source positions outside the input raster take the
    fill value (scalar for grayscale, scalar or RGB triple for color).
    """
    image = np.asarray(image)
    x0, x1, y0, y1 = out_spec.window
    wx = x0 + (np.arange(out_spec.width) + 0.5) * (x1 - x0) / out_spec.width
    wy = y0 + (np.arange(out_spec.height) + 0.5) * (y1 - y0) / out_spec.height
    u = eval_grid_2d(model.inv_u, wx, wy)
    v = eval_grid_2d(model.inv_v, wx, wy)
    # nearest neighbor: pixel (r, c) covers [c, c+1) x [r, r+1).  The bounds
    # test runs on the floats, so NaN, inf or huge extrapolated positions are
    # never cast; for the valid ones, u >= 0 makes truncation equal floor.
    in_h, in_w = image.shape[:2]
    valid = (u >= 0) & (u < in_w) & (v >= 0) & (v < in_h)

    shape = (out_spec.height, out_spec.width) + image.shape[2:]
    out = np.empty(shape, dtype=image.dtype)
    out[...] = fill
    out[valid] = image[v[valid].astype(np.intp), u[valid].astype(np.intp)]
    return out


def _fmt(value: float) -> str:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def save_model(model: CalibrationModel) -> str:
    """Serialize a calibration to its canonical JSON document.

    Output is byte-stable: fixed key order, terms in visit order (the order
    ``ChebModel2D`` keeps), every real rendered with 17 significant digits
    (which round-trips float64 exactly).
    """
    n = model.meta.degree_bound
    if any(getattr(model, name).degree_bound != n for name in SUBFIT_NAMES):
        raise ValueError("sub-models disagree on the degree bound")

    lines = ["{"]
    lines.append(f'  "version": {MODEL_VERSION},')
    lines.append(f'  "epsilon": {_fmt(model.meta.epsilon)},')
    lines.append(f'  "degree_bound": {n},')
    for name in SUBFIT_NAMES:
        sub = getattr(model, name)
        lines.append(f'  "{name}": {{')
        lines.append(f'    "xmap": [{_fmt(sub.xmap.lo)}, {_fmt(sub.xmap.hi)}],')
        lines.append(f'    "ymap": [{_fmt(sub.ymap.lo)}, {_fmt(sub.ymap.hi)}],')
        if sub.coeffs:
            lines.append('    "terms": [')
            body = [f"      [{t.i}, {t.j}, {_fmt(c)}]" for t, c in sub.coeffs.items()]
            lines.append(",\n".join(body))
            lines.append("    ]")
        else:
            lines.append('    "terms": []')
        lines.append("  }," if name != SUBFIT_NAMES[-1] else "  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(record: dict, field: str, context: str):
    if field not in record:
        raise ModelParseError(f"missing field {field!r} in {context}")
    return record[field]


def _load_real(value, context: str) -> float:
    """A finite JSON number; booleans, strings, null and NaN/Infinity are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelParseError(f"{context} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer literal beyond the float range
        real = float("inf")
    if not np.isfinite(real):
        raise ModelParseError(f"{context} must be finite, got {value!r}")
    return real


def _load_map(value, context: str) -> DomainMap:
    if not (isinstance(value, list) and len(value) == 2):
        raise ModelParseError(f"{context} must be a [lo, hi] pair")
    lo, hi = (_load_real(v, context) for v in value)
    try:
        return DomainMap(lo, hi)
    except ValueError as exc:
        raise ModelParseError(f"bad {context}: {exc}") from exc


def load_model(document: str) -> CalibrationModel:
    """Parse a calibration document produced by ``save_model``."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"invalid document at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelParseError("document root must be an object")
    version = _require(doc, "version", "document")
    if type(version) is not int or version != MODEL_VERSION:
        raise ModelVersionError(f"unsupported document version {version!r}")
    epsilon = _load_real(_require(doc, "epsilon", "document"), "epsilon")
    degree_bound = _require(doc, "degree_bound", "document")
    if type(degree_bound) is not int or degree_bound < 1:
        raise ModelParseError(f"degree_bound must be a positive integer, got {degree_bound!r}")

    models = {}
    for name in SUBFIT_NAMES:
        record = _require(doc, name, "document")
        if not isinstance(record, dict):
            raise ModelParseError(f"sub-model {name!r} must be an object")
        xmap = _load_map(_require(record, "xmap", name), f"{name}.xmap")
        ymap = _load_map(_require(record, "ymap", name), f"{name}.ymap")
        raw_terms = _require(record, "terms", name)
        if not isinstance(raw_terms, list):
            raise ModelParseError(f"{name}.terms must be a list")
        coeffs = {}
        for entry in raw_terms:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ModelParseError(f"{name}.terms entries must be [i, j, coefficient]")
            i, j, c = entry
            if type(i) is not int or type(j) is not int:
                raise ModelParseError(f"{name}.terms indices must be integers, got {entry!r}")
            key = TermIndex2D(i, j)
            if key in coeffs:
                raise ModelParseError(f"{name}.terms repeats term {key}")
            coeffs[key] = _load_real(c, f"{name} coefficient of term ({i}, {j})")
        try:
            models[name] = ChebModel2D(coeffs=coeffs, xmap=xmap, ymap=ymap, degree_bound=degree_bound)
        except ValueError as exc:
            raise ModelParseError(f"bad sub-model {name!r}: {exc}") from exc

    meta = CalibrationMeta(epsilon=epsilon, degree_bound=degree_bound, stats=None)
    return CalibrationModel(meta=meta, **models)
