"""Bivariate shape-first fitting on triangular Chebyshev tensor terms.

The coefficient array is triangular (a[i, j] = 0 for i + j >= n, bounding
total degree by n - 1).  Terms are visited lowest degree first; after each
visit only componentwise-dominated earlier terms are revisited, in reverse
visit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import IDENTITY_MAP, DomainMap, _cheb_rows, _validate_samples, cheb_columns, warn_if_extrapolating
from .fit1d import FitConfig, _shape_first


class TermIndex2D(NamedTuple):
    """Label of the tensor term T_i(x) * T_j(y)."""

    i: int
    j: int


@dataclass(frozen=True)
class SampleSet2D:
    """Sample points (x_i, y_i, z_i) with distinct (x, y) pairs in [-1, 1]^2."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        _validate_samples(self, ("x", "y"), "z", "(x, y) pairs")

    @property
    def m(self) -> int:
        return self.x.size


def _visit_key(t: TermIndex2D):
    """Preference key: total degree, then min(i, j), then i."""
    return (t.i + t.j, min(t.i, t.j), t.i)


@dataclass(frozen=True)
class ChebModel2D:
    """Triangular tensor series P(x, y) = sum a[i, j] T_i(tx) T_j(ty).

    ``coeffs`` maps TermIndex2D to float and is kept in visit order.
    """

    coeffs: dict
    xmap: DomainMap = IDENTITY_MAP
    ymap: DomainMap = IDENTITY_MAP
    degree_bound: int = 8

    def __post_init__(self):
        if self.degree_bound < 1:
            raise ValueError(f"degree_bound must be >= 1, got {self.degree_bound}")
        clean = {}
        for key, value in dict(self.coeffs).items():
            idx = TermIndex2D(int(key[0]), int(key[1]))
            if idx.i < 0 or idx.j < 0 or idx.i + idx.j >= self.degree_bound:
                raise ValueError(f"term {idx} violates the triangular bound i + j < {self.degree_bound}")
            if not np.isfinite(value):
                raise ValueError(f"coefficient for {idx} is not finite")
            clean[idx] = float(value)
        object.__setattr__(self, "coeffs", {t: clean[t] for t in sorted(clean, key=_visit_key)})

    def dense(self) -> np.ndarray:
        return _coeff_array(self, self.degree_bound, self.degree_bound)


def _coeff_array(model: ChebModel2D, ni: int, nj: int) -> np.ndarray:
    """The coefficients as an (ni, nj) array; every term must fit inside it."""
    c = np.zeros((ni, nj))
    for (i, j), value in model.coeffs.items():
        c[i, j] = value
    return c


def _visit_indices(n: int):
    """The i and j index arrays of ``visit_order(n)``."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    # Within total degree d the order is i = 0, d, 1, d - 1, ...  The index
    # arrays are sized before any label exists, so a bound too large for
    # memory fails at once, naming the size, instead of filling memory first.
    d = np.repeat(np.arange(n), np.arange(1, n + 1))
    k = np.arange(d.size) - d * (d + 1) // 2
    i = np.where(k % 2 == 0, k // 2, d - k // 2)
    return i, d - i


def visit_order(n: int) -> list[TermIndex2D]:
    """All term labels with i + j < n in preference order.

    Lower total degree goes first; ties are broken by smaller min(i, j), then
    by smaller i.  The result is a deterministic total order of n(n+1)/2 terms.
    """
    i, j = _visit_indices(n)
    return list(map(TermIndex2D, i.tolist(), j.tolist()))


def _revisit_plan(n: int) -> list[list[int]]:
    """``revisit_set`` of every term of ``visit_order(n)``, as positions in that order.

    After term (i, j), the earlier terms (a, b) with a <= i and b <= j, in
    reverse visit order.  One boolean matrix over the index arrays marks
    them all, and reading its rows right to left yields each list in order.
    """
    i, j = _visit_indices(n)
    dominated = (i[:, None] >= i) & (j[:, None] >= j) & np.tri(i.size, k=-1, dtype=bool)
    latest_first = (i.size - 1 - np.nonzero(dominated[:, ::-1])[1]).tolist()
    ends = np.cumsum(np.count_nonzero(dominated, axis=1)).tolist()
    return [latest_first[a:b] for a, b in zip([0, *ends], ends)]


def revisit_set(last: TermIndex2D, order: list[TermIndex2D]) -> list[TermIndex2D]:
    """Previously visited terms dominated by ``last``, in reverse visit order.

    A term (a, b) qualifies when a <= last.i and b <= last.j; ``last`` itself
    is excluded.
    """
    last = TermIndex2D(*last)
    try:
        pos = order.index(last)
    except ValueError:
        raise ValueError(f"term {last} is not in the visit order") from None
    return [t for t in order[:pos][::-1] if t.i <= last.i and t.j <= last.j]


def term_matrix(samples: SampleSet2D, order: list[TermIndex2D]) -> np.ndarray:
    """Rows of tensor term vectors tau[i, j] at the samples, one per order entry.

    The result is allocated once and each row is one product of two
    Chebyshev rows written into it; its last row holds 2t while those rows
    are built, so beyond the result only the 2n rows are allocated.
    """
    n = 1 + max(max(t.i for t in order), max(t.j for t in order))
    tau = np.empty((len(order), samples.m))
    vx, vy = np.empty((n, samples.m)), np.empty((n, samples.m))
    _cheb_rows(samples.x, vx, tau[-1])
    _cheb_rows(samples.y, vy, tau[-1])
    for row, (i, j) in zip(tau, order):
        np.multiply(vx[i], vy[j], out=row)
    return tau


def cvb_approximate_2d(
    samples: SampleSet2D,
    config: FitConfig,
    xmap: DomainMap = IDENTITY_MAP,
    ymap: DomainMap = IDENTITY_MAP,
):
    """Bivariate shape-first fit over the triangular visit schedule.

    Visiting a term applies the projection update
    a += (tau . delta)/(tau . tau), then every dominated earlier term is
    revisited with the same update in reverse visit order.  Stops when the
    max-abs residual reaches epsilon or the schedule (times any extra sweeps)
    is exhausted.  Near-zero term vectors are skipped and recorded.
    """
    return next(_approximate_2d(samples, [samples.z], config, xmap, ymap))


def _approximate_2d(samples: SampleSet2D, targets, config: FitConfig, xmap: DomainMap, ymap: DomainMap):
    """Lazily, ``cvb_approximate_2d`` of each of ``targets`` on one term matrix and revisit plan."""
    order = visit_order(config.max_terms)
    fits = _shape_first(term_matrix(samples, order), targets, config, _revisit_plan(config.max_terms), labels=order)
    for a, report in fits:
        coeffs = {t: float(c) for t, c in zip(order, a) if c != 0.0}
        yield ChebModel2D(coeffs=coeffs, xmap=xmap, ymap=ymap, degree_bound=config.max_terms), report


# Points per block of the point evaluator: a block's Chebyshev columns and
# temporaries stay in cache, and its memory does not grow with the batch.
_BLOCK = 8192


def _reach(model: ChebModel2D):
    """Columns each axis needs: one past the highest order a term uses there."""
    return tuple(1 + max((t[k] for t in model.coeffs), default=0) for k in (0, 1))


def _column_plan(models, coords):
    """Column count per distinct (axis, map) of ``models``: the most any of its surfaces uses.

    So the cost follows the terms, not the degree bound.  Warns once per axis
    map that a coordinate in ``coords[axis]`` leaves.
    """
    counts = {}
    for model in models:
        for axis, dmap, n in zip("xy", (model.xmap, model.ymap), _reach(model)):
            counts[axis, dmap] = max(counts.get((axis, dmap), 1), n)
    for axis, dmap in counts:
        for start in range(0, coords[axis].size, _BLOCK):
            # two frames below a public evaluator, so warnings name its caller
            if warn_if_extrapolating(dmap, coords[axis][start:start + _BLOCK], axis=axis, stacklevel=5):
                break
    return counts


def _eval_points(models, x, y):
    """Evaluate the surfaces ``models`` at the raw points (x, y) of one shape.

    Columns follow ``_column_plan`` (which also warns) and are built over
    blocks of ``_BLOCK`` points.  Each (axis, map) has one buffer of rows
    for the whole call: per block, ``forward`` writes t in place and
    ``_cheb_rows`` builds T_0..T_{n-1} over it, so nothing is allocated per
    block.  Each surface sums c * Vx[i] * Vy[j] in visit order with
    elementwise steps, and T_k has the same bits however many rows are
    built, so a value depends only on its own point and surface.  Returns
    per surface a float for scalar input, else an array of the input's shape.
    """
    if np.shape(x) != np.shape(y):
        raise ValueError(f"x and y must share one shape, got {np.shape(x)} and {np.shape(y)}")
    coords = {"x": np.asarray(x, dtype=float).ravel(), "y": np.asarray(y, dtype=float).ravel()}
    counts = _column_plan(models, coords)
    m = coords["x"].size
    values = [np.zeros(m) for _ in models]
    scratch = np.empty(min(m, _BLOCK))
    rows = {key: np.empty((n, scratch.size)) for key, n in counts.items()}
    # far outside a fit, columns and sums leave the float range; callers
    # refuse or fill the inf and NaN values, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _BLOCK):
            stop = min(start + _BLOCK, m)
            term = scratch[: stop - start]
            cols = {}
            for (axis, dmap), buf in rows.items():
                cols[axis, dmap] = v = buf[:, : stop - start]
                # t goes to the scratch, which then holds 2t; row 0 is T_0's
                dmap.forward(coords[axis][start:stop], out=term, scratch=v[0])
                _cheb_rows(term, v, term)
            for model, value in zip(models, values):
                vx, vy, out = cols["x", model.xmap], cols["y", model.ymap], value[start:stop]
                for (i, j), c in model.coeffs.items():
                    np.multiply(vx[i], c, out=term)
                    term *= vy[j]
                    out += term
    if np.ndim(x) == 0:
        return tuple(float(value[0]) for value in values)
    return tuple(value.reshape(np.shape(x)) for value in values)


def eval_model_2d(model: ChebModel2D, x, y):
    """Evaluate the fitted surface at raw coordinates (scalars or arrays).

    x and y must share one shape; P = sum a[i, j] Vx[..., i] Vy[..., j] is
    accumulated term by term in visit order with elementwise operations only,
    so a batch gives the same bits as one call per point.  Points go through
    the blocked evaluator ``map_point`` uses, so memory beyond the result is fixed.
    """
    (value,) = _eval_points((model,), x, y)
    return value


def _grid_factors(models, x, y):
    """The two factors of each surface ``models`` on the tensor grid of raw 1-D axes x and y.

    The series is separable, so with the columns of ``_column_plan`` (which
    also warns) each surface is L . R, with L = Vy . C^T (len(y) x ni) and
    R = Vx^T (ni x len(x)) over its own leading columns.  L @ R holds
    P(x[c], y[r]) at [r, c], equal to ``_eval_points`` over
    ``np.meshgrid(x, y)`` to rounding, for O(n W H) where one sum per grid
    point costs O(n^2 W H); L[rows] @ R is just those rows of the grid.
    Returns per surface the pair (L, R).
    """
    coords = {"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float)}
    counts = _column_plan(models, coords)
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):  # as in _eval_points
        cols = {(axis, dmap): cheb_columns(dmap.forward(coords[axis]), n) for (axis, dmap), n in counts.items()}
        for model in models:
            ni, nj = _reach(model)
            vx, vy = cols["x", model.xmap][:, :ni], cols["y", model.ymap][:, :nj]
            factors.append((vy @ _coeff_array(model, ni, nj).T, vx.T))
    return tuple(factors)
