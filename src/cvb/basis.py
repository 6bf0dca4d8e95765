"""Chebyshev basis columns, root placement, domain normalization, sample validation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# How far a sample |x| may overshoot 1 before it is refused instead of clamped.
CLAMP_TOL = 1e-12
# Sample abscissae closer than this are treated as duplicates.
MIN_NODE_GAP = 1e-12
# Fraction of the data span added on each side when normalizing raw coordinates.
PAD_FRACTION = 0.01


class ExtrapolationWarning(UserWarning):
    """Raised through the warnings machinery when a model is evaluated outside
    the interval it was fitted on."""


@dataclass(frozen=True)
class DomainMap:
    """Affine map between a source interval [lo, hi] and the basis interval [-1, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("domain bounds must be finite")
        if not hi > lo:
            raise ValueError(f"domain requires hi > lo, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def forward(self, x, out=None, scratch=None):
        """x mapped to the basis interval; written into ``out`` if given.

        With ``out`` and ``scratch`` (float arrays of x's shape, distinct
        from x) nothing is allocated and ``scratch`` is overwritten.
        """
        # Grouped so that forward(lo) == -1.0 and forward(hi) == +1.0 exactly.
        t = np.subtract(x, self.lo, out=out)
        t += np.subtract(x, self.hi, out=scratch)
        t /= self.hi - self.lo
        return t

    def contains(self, x):
        pad = 1e-12 * (self.hi - self.lo)
        return (x >= self.lo - pad) & (x <= self.hi + pad)


IDENTITY_MAP = DomainMap(-1.0, 1.0)


def auto_map(values) -> DomainMap:
    """Normalization map for raw coordinates.

    Data already inside [-1, 1] is taken as-is (identity map); anything else
    gets a min/max interval widened by ``PAD_FRACTION`` per side so the data
    sit strictly inside the fit interval.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be a non-empty finite array")
    lo, hi = float(v.min()), float(v.max())
    if lo >= -1.0 and hi <= 1.0:
        return IDENTITY_MAP
    span = hi - lo
    if span == 0.0:
        span = max(1.0, abs(lo))
    pad = PAD_FRACTION * span
    return DomainMap(lo - pad, hi + pad)


def _clip_unit(x: np.ndarray, what: str) -> np.ndarray:
    if np.any(np.abs(x) > 1.0 + CLAMP_TOL):
        bad = x[np.abs(x) > 1.0 + CLAMP_TOL][0]
        raise ValueError(f"{what} value {bad!r} lies outside [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def _has_close_pair(x, y) -> bool:
    """Whether two points satisfy dx^2 + dy^2 <= MIN_NODE_GAP^2, in O(m) memory.

    The one distinct-point rule: curves pass y = 0.  Points are sorted by x,
    then y.  Each point i is paired with a candidate j after it, and a pair is
    only compared while dx^2 <= MIN_NODE_GAP^2; past that, every later j has a
    larger dx, so i drops out.  Within a run of equal x only the next point can
    be the closest (y is sorted), so the candidate then jumps to the first
    point of the next x.
    """
    gap2 = MIN_NODE_GAP**2
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    run_end = np.searchsorted(xs, xs, side="right")
    i = np.arange(xs.size - 1)
    j = i + 1
    while i.size:
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        near = dx * dx <= gap2
        if np.any(dx[near] ** 2 + dy[near] ** 2 <= gap2):
            return True
        j = np.where(dx == 0.0, run_end[i], j + 1)
        keep = near & (j < xs.size)
        i, j = i[keep], j[keep]
    return False


def _validate_samples(sample_set, coords: tuple, value: str, what: str) -> None:
    """Check and store the fields of a frozen sample set, in place.

    The fields named in ``coords`` and ``value`` become read-only float
    copies of one 1-D shape, non-empty and finite (the caller's arrays stay
    writable); the coordinates are clamped to [-1, 1] and must be distinct
    points under ``_has_close_pair``.
    """
    names = (*coords, value)
    arrays = [np.atleast_1d(np.array(getattr(sample_set, name), dtype=float)) for name in names]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError(f"{', '.join(names)} must be 1-D arrays of equal length")
    if arrays[0].size < 1:
        raise ValueError("at least one sample point is required")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("sample values must be finite")
    arrays[: len(coords)] = [_clip_unit(a, f"sample {name}") for a, name in zip(arrays, coords)]
    y = arrays[1] if len(coords) > 1 else np.zeros_like(arrays[0])
    if _has_close_pair(arrays[0], y):
        raise ValueError(f"sample {what} must be distinct (min gap {MIN_NODE_GAP})")
    for name, a in zip(names, arrays):
        a.flags.writeable = False
        object.__setattr__(sample_set, name, a)


@dataclass(frozen=True)
class SampleSet1D:
    """Ordered sample points (x_i, y_i) with distinct abscissae in [-1, 1]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        _validate_samples(self, ("x",), "y", "abscissae")

    @property
    def m(self) -> int:
        return self.x.size


def cheb_zeros(n: int) -> np.ndarray:
    """The n roots of T_n, cos((2j-1)pi/2n) for j=1..n, in descending order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    j = np.arange(1, n + 1)
    return np.cos((2 * j - 1) * np.pi / (2 * n))


def _cheb_rows(t, rows, twice) -> None:
    """Write T_0..T_{n-1} at the 1-D array t into the n rows of ``rows``, in place.

    The operations and their order are ``chebvander``'s: with s = t + 0.0,
    T_0 = s*0 + 1, T_1 = s and T_k = T_{k-1}*(2s) - T_{k-2}, so every value
    has its bits, inf, NaN and -0.0 included.  ``twice`` (t's size) holds 2s
    when n > 2; t may be ``twice`` itself, but no row of ``rows``.
    """
    n = len(rows)
    s = rows[min(n - 1, 1)]
    np.add(t, 0.0, out=s)
    np.multiply(s, 0, out=rows[0])
    rows[0] += 1
    if n > 2:
        np.multiply(s, 2, out=twice)
    for k in range(2, n):
        np.multiply(rows[k - 1], twice, out=rows[k])
        rows[k] -= rows[k - 2]


def cheb_columns(x, count: int) -> np.ndarray:
    """Matrix whose column j holds T_j evaluated at x, for j = 0..count-1.

    Shape x.shape + (count,), with a scalar x taken as one point.  A
    transposed view of the rows ``_cheb_rows`` writes, so ``.T`` of a 1-D
    x's columns is C-contiguous with row j holding T_j.
    """
    if count < 1:
        raise ValueError("count must be positive")
    x = np.asarray(x, dtype=float)
    shape = x.shape or (1,)
    t = x.ravel()
    rows = np.empty((count, t.size))
    _cheb_rows(t, rows, np.empty(t.size) if count > 2 else None)
    return np.moveaxis(rows.reshape((count, *shape)), 0, -1)


def warn_if_extrapolating(xmap: DomainMap, x, axis: str = "x", stacklevel: int = 3) -> bool:
    """Emit ExtrapolationWarning when any evaluation point leaves the fit interval; True if it did."""
    if np.all(xmap.contains(np.asarray(x, dtype=float))):
        return False
    warnings.warn(
        f"evaluation outside the fitted {axis} interval [{xmap.lo}, {xmap.hi}]",
        ExtrapolationWarning,
        stacklevel=stacklevel,
    )
    return True
