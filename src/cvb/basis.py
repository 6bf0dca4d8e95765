"""Chebyshev basis columns, root placement, domain normalization, sample validation.

Also what every command shares, so that no command imports a fitter it does
not run: the ``record`` decorator of cvb's frozen value types, ``FitError``
and the 17-digit real formatter ``_fmt``.
"""

from __future__ import annotations

import math
import operator
import warnings

import numpy as np

# How far a sample |x| may overshoot 1 before it is refused instead of clamped.
CLAMP_TOL = 1e-12
# Sample abscissae closer than this are treated as duplicates.
MIN_NODE_GAP = 1e-12
# Fraction of the data span added on each side when normalizing raw coordinates.
PAD_FRACTION = 0.01


def _record_init(self, /, *args, **kwargs):
    """Bind the fields by position or keyword, a field's class attribute being its default, then ``__post_init__``."""
    cls = type(self)
    names, defaults = cls.__match_args__, cls._record_defaults
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name in kwargs:
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        if name not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
    for name in names[len(args):]:
        if name in kwargs:
            values[name] = kwargs[name]
        elif name in defaults:
            values[name] = defaults[name]
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
    self.__dict__.update(values)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _record_repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _record_eq(self, other):
    # a record's __dict__ holds its fields alone, so comparing it compares them, faster than two tuples of them
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _record_hash(self):
    return hash(self._record_values(self))


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_RECORD_METHODS = {
    "__init__": _record_init,
    "__repr__": _record_repr,
    "__eq__": _record_eq,
    "__hash__": _record_hash,
    "__setattr__": _record_setattr,
    "__delattr__": _record_delattr,
}


def record(cls):
    """Make ``cls`` a frozen record of the fields its class body annotates, in that order.

    What ``@dataclass(frozen=True)`` makes, from methods every record class
    shares, so that decorating compiles no code: ``__init__`` takes the
    fields by position or keyword (a field's class attribute is its default)
    and then calls ``__post_init__``, if the class has one, which may replace
    a field, and store nothing else, through ``object.__setattr__``;
    ``__repr__``, ``__eq__`` (same class only) and ``__hash__`` read the
    fields' values; assigning or
    deleting an attribute raises AttributeError.  ``__match_args__`` names the
    fields and ``_record_defaults`` maps a field to its default.
    ``dataclasses.fields``, ``replace`` and ``asdict`` do not apply, and
    ``inspect.signature`` shows ``(*args, **kwargs)``, not the fields.
    A record has two or more fields, so that their values always form a tuple.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    if len(names) < 2:
        raise TypeError(f"a record needs two or more fields, {cls.__qualname__} has {len(names)}")
    cls.__match_args__ = names
    cls._record_defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls._record_values = operator.attrgetter(*names)
    for name, method in _RECORD_METHODS.items():
        setattr(cls, name, method)
    return cls


class FitError(RuntimeError):
    """A fit could not be carried out on the given data."""


def _scale_exponent(max_abs) -> int:
    """The e by which a vector with max_abs = max|value| is scaled, as 2^-e, before it is squared.

    0 while max_abs lies in [1e-140, 1e140] (or is 0 or not finite), where
    no square overflows or underflows; otherwise max_abs = f * 2^e with f in
    [0.5, 1).  A power of two scales exactly, so the norm of y * 2^k is
    exactly 2^k times the norm of y.
    """
    if 1e-140 <= max_abs <= 1e140 or max_abs == 0.0 or not math.isfinite(max_abs):
        return 0
    return math.frexp(max_abs)[1]


def _fmt(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


class ExtrapolationWarning(UserWarning):
    """Raised through the warnings machinery when a model is evaluated outside
    the interval it was fitted on."""


@record
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


@record
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


def warn_if_extrapolating(xmap: DomainMap, x, axis: str = "x", stacklevel: int = 3) -> None:
    """Emit ExtrapolationWarning when x's least value lies below lo - pad or its greatest above hi + pad.

    pad is 1e-12 of the span.  A NaN is both extremes, so it leaves; an empty x does not warn."""
    x, pad = np.asarray(x, dtype=float), 1e-12 * (xmap.hi - xmap.lo)
    if not (xmap.lo - pad <= x.min(initial=xmap.lo) and x.max(initial=xmap.hi) <= xmap.hi + pad):
        warnings.warn(
            f"evaluation outside the fitted {axis} interval [{xmap.lo}, {xmap.hi}]",
            ExtrapolationWarning,
            stacklevel=stacklevel,
        )
