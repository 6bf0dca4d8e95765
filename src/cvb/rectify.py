"""Camera calibration from point correspondences, point mapping, image warping.

A calibration holds four fitted surfaces: pixel (u, v) to world X and Y
(forward), and world (X, Y) back to pixel u and v (inverse).  The inverse
direction is fitted from the swapped correspondences rather than obtained by
inverting the forward polynomials.  Pixels in, millimetres out; units are
documentation only and never converted internally.  The correspondences are
u,v,X,Y rows, as a table or as ``Correspondence`` rows.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .basis import MIN_NODE_GAP, DomainMap, FitError, _fmt, auto_map, record
from .fit2d import ChebModel2D, SampleSet2D, TermIndex2D, _approximate_2d, _eval_points, _grid_factors

if TYPE_CHECKING:
    from .fit1d import FitConfig

SUBFIT_NAMES = ("fwd_x", "fwd_y", "inv_u", "inv_v")
MODEL_VERSION = 1

# Output rows per band of the warp: a band's source positions, index and
# mask stay in cache, and memory beyond the output raster is a few bands'
# worth, not full-raster temporaries.
_BAND = 32


class ModelParseError(ValueError):
    """A calibration document is malformed."""


class ModelVersionError(ModelParseError):
    """A calibration document declares an unsupported version."""


class _Row(NamedTuple):
    u: float
    v: float
    X: float
    Y: float


class Correspondence(_Row):
    """One key point: pixel position (u, v) and its world position (X, Y) in mm.

    A ``NamedTuple`` row, so it unpacks and compares like ``(u, v, X, Y)``.
    """

    __slots__ = ()

    def __new__(cls, u, v, X, Y):
        row = super().__new__(cls, float(u), float(v), float(X), float(Y))
        for name, value in zip(cls._fields, row):
            if not math.isfinite(value):
                raise ValueError(f"correspondence field {name} must be finite")
        return row


@record
class CalibrationMeta:
    """Degree bound, reports and ``epsilon``: the forward target only, as no inverse one is kept."""

    epsilon: float
    degree_bound: int
    stats: Optional[dict] = None  # name -> FitReport, absent on loaded models


@record
class CalibrationModel:
    """The four calibration surfaces and their meta."""

    fwd_x: ChebModel2D
    fwd_y: ChebModel2D
    inv_u: ChebModel2D
    inv_v: ChebModel2D
    meta: CalibrationMeta


def calibrate(pairs, config: FitConfig, inverse_config: Optional[FitConfig] = None) -> CalibrationModel:
    """Fit the four calibration surfaces from u,v,X,Y rows.

    ``pairs`` is anything ``np.asarray`` reads as an (m, 4) float table: a
    list of ``Correspondence`` or plain tuples, or an array.  ``config``
    drives the forward (pixel to world) fits; ``inverse_config`` the
    world-to-pixel fits, defaulting to ``config``; both must give the same
    ``max_terms``, the calibration's one degree bound.  Forward residual
    targets are in world units, inverse ones in pixels.
    """
    if inverse_config is not None and inverse_config.max_terms != config.max_terms:
        raise ValueError(f"inverse_config.max_terms={inverse_config.max_terms} differs from "
                         f"config.max_terms={config.max_terms}: a calibration has one degree bound")
    table = np.asarray(pairs, dtype=float)
    if table.ndim != 2 or table.shape[1] != 4:
        raise ValueError(f"correspondences must be u,v,X,Y rows, got an array of shape {table.shape}")
    if len(table) < 3:
        raise ValueError(f"need at least 3 correspondences, got {len(table)}")
    columns = table.T.copy()  # u, v, X, Y
    maps = [auto_map(c) for c in columns]
    normed = [m.forward(c) for m, c in zip(maps, columns)]
    # (what, sub-fit names, coordinate columns, target columns, config)
    directions = (("pixel (u, v)", ("fwd_x", "fwd_y"), (0, 1), (2, 3), config),
                  ("world (X, Y)", ("inv_u", "inv_v"), (2, 3), (0, 1), inverse_config or config))
    sample_sets = []
    for what, _, (a, b), targets, _ in directions:
        try:
            sample_sets.append(SampleSet2D(x=normed[a], y=normed[b], z=columns[targets[0]]))
        except ValueError:  # the columns are finite and normalized: only the distinct-pair rule can refuse
            raise ValueError(f"duplicate {what} pair: two normalized pairs lie within {MIN_NODE_GAP}") from None

    models = {}
    stats = {}
    for (_, names, (a, b), targets, cfg), samples in zip(directions, sample_sets):
        # one sample set, term matrix and sweep plan per direction, swept once per target
        fits = _approximate_2d(samples, [columns[k] for k in targets], cfg, maps[a], maps[b])
        for name, k in zip(names, targets):
            try:
                model, report = next(fits)
            except FitError as exc:
                raise FitError(f"sub-fit {name} (column {'uvXY'[k]}): {exc}") from None
            if not model.coeffs and not report.converged:
                raise FitError(f"sub-fit {name} is degenerate: no usable terms")
            models[name] = model
            stats[name] = report

    meta = CalibrationMeta(epsilon=config.epsilon, degree_bound=config.max_terms, stats=stats)
    return CalibrationModel(meta=meta, **models)


def map_point(model: CalibrationModel, u: float, v: float):
    """Pixel (u, v) to world (X, Y) through the forward fits.

    Both surfaces share one blocked pass over their Chebyshev columns, with
    the bits of ``eval_model_2d`` and one extrapolation warning per axis map.
    """
    return _eval_points((model.fwd_x, model.fwd_y), u, v)


@record
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
        # pixel centers are x0 + (k + 0.5) * (x1 - x0) / width
        if not all(map(math.isfinite, (x0, x1, y0, y1, (x1 - x0) * self.width, (y1 - y0) * self.height))):
            raise ValueError(f"world window {self.window} must have finite bounds and span")
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate world window {self.window}")
        object.__setattr__(self, "window", (x0, x1, y0, y1))


def warp_image(model: CalibrationModel, image: np.ndarray, out_spec: WarpSpec, fill=0) -> np.ndarray:
    """Resample ``image`` onto the world window using the inverse fits.

    Every output pixel center is mapped world -> source pixel and sampled
    nearest-neighbor; source positions outside the input raster take the
    fill value (scalar for grayscale, scalar or RGB triple for color; any
    other shape raises ValueError, however many pixels it would cover).
    """
    image = np.asarray(image)
    in_h, in_w = image.shape[:2]
    if in_h * in_w == 0:
        raise ValueError(f"source image is empty, shape {image.shape}")
    pixel = np.empty(image.shape[2:], dtype=image.dtype)
    pixel[...] = fill
    x0, x1, y0, y1 = out_spec.window
    wx = x0 + (np.arange(out_spec.width) + 0.5) * (x1 - x0) / out_spec.width
    wy = y0 + (np.arange(out_spec.height) + 0.5) * (y1 - y0) / out_spec.height
    (lu, ru), (lv, rv) = _grid_factors((model.inv_u, model.inv_v), wx, wy)
    flat = image.reshape((in_h * in_w,) + image.shape[2:])
    out = np.empty((out_spec.height, out_spec.width) + image.shape[2:], dtype=image.dtype)
    # one pair of band buffers for the whole call: a band's source positions
    # are written into them and its flat index is formed in place
    u_band = np.empty((min(_BAND, out_spec.height), out_spec.width))
    v_band = np.empty_like(u_band)
    for start in range(0, out_spec.height, _BAND):
        band = slice(start, start + _BAND)
        rows = out[band]
        u, v = u_band[:len(rows)], v_band[:len(rows)]
        with np.errstate(over="ignore", invalid="ignore"):  # as in _grid_factors
            np.matmul(lu[band], ru, out=u)
            np.matmul(lv[band], rv, out=v)
        # nearest neighbor: pixel (r, c) covers [c, c+1) x [r, r+1).  The
        # bounds test runs on the floats and the positions it rejects are
        # zeroed before any cast, so NaN, inf or huge extrapolated positions
        # never become indices.  The flat index floor(v) * in_w + floor(u)
        # is formed in v and cast into u's memory.
        invalid = ~((u >= 0) & (u < in_w) & (v >= 0) & (v < in_h))
        u[invalid] = 0.0
        v[invalid] = 0.0
        np.floor(v, out=v)
        v *= in_w
        v += np.floor(u, out=u)
        index = u.view(np.int64)
        index[...] = v
        # every index lies in [0, in_h * in_w) by the test above, so "clip"
        # clips nothing; it only spares take a buffered copy of the rows
        flat.take(index, axis=0, out=rows, mode="clip")
        rows[invalid] = pixel
    return out


def save_model(model: CalibrationModel) -> str:
    """Serialize a calibration to its canonical JSON document.

    Output is byte-stable: fixed key order, terms in visit order (the order
    ``ChebModel2D`` keeps), every real rendered with 17 significant digits
    (which round-trips float64 exactly).  ``"epsilon"`` is
    ``meta.epsilon``, the forward target only.
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
    if not math.isfinite(real):
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
    except RecursionError:
        raise ModelParseError("document nests too deeply to parse") from None
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
