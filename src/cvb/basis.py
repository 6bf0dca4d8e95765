"""Chebyshev basis columns, root placement, domain normalization, 1-D sample sets."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

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
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("domain bounds must be finite")
        if not hi > lo:
            raise ValueError(f"domain requires hi > lo, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def forward(self, x):
        # Grouped so that forward(lo) == -1.0 and forward(hi) == +1.0 exactly.
        return ((x - self.lo) + (x - self.hi)) / (self.hi - self.lo)

    def backward(self, t):
        return (self.lo * (1.0 - t) + self.hi * (1.0 + t)) / 2.0

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


@dataclass(frozen=True)
class SampleSet1D:
    """Ordered sample points (x_i, y_i) with distinct abscissae in [-1, 1]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if x.size < 1:
            raise ValueError("at least one sample point is required")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample values must be finite")
        x = _clip_unit(x, "sample x")
        if x.size > 1 and np.diff(np.sort(x)).min() <= MIN_NODE_GAP:
            raise ValueError(f"sample abscissae must be distinct (min gap {MIN_NODE_GAP})")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.size


def cheb_zeros(n: int) -> np.ndarray:
    """The n roots of T_n, cos((2j-1)pi/2n) for j=1..n, in descending order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    j = np.arange(1, n + 1)
    return np.cos((2 * j - 1) * np.pi / (2 * n))


def cheb_columns(x, count: int) -> np.ndarray:
    """Matrix whose column j holds T_j evaluated at x, for j = 0..count-1."""
    if count < 1:
        raise ValueError("count must be positive")
    return _cheb.chebvander(np.asarray(x, dtype=float), count - 1)


def warn_if_extrapolating(xmap: DomainMap, x, axis: str = "x", stacklevel: int = 3) -> None:
    """Emit ExtrapolationWarning when any evaluation point leaves the fit interval."""
    if not np.all(xmap.contains(np.asarray(x, dtype=float))):
        warnings.warn(
            f"evaluation outside the fitted {axis} interval [{xmap.lo}, {xmap.hi}]",
            ExtrapolationWarning,
            stacklevel=stacklevel,
        )
