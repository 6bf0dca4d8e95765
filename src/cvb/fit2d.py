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

from .basis import (
    IDENTITY_MAP,
    MIN_NODE_GAP,
    DomainMap,
    _clip_unit,
    cheb_columns,
    warn_if_extrapolating,
)
from .fit1d import DEGENERATE_TERM_REL, FitConfig, FitReport, projection_sweeps


class TermIndex2D(NamedTuple):
    """Label of the tensor term T_i(x) * T_j(y)."""

    i: int
    j: int


def _has_close_pair(x, y) -> bool:
    """Whether two points satisfy dx^2 + dy^2 <= MIN_NODE_GAP^2, in O(m) memory.

    Points are sorted by x, then y.  Each point i is paired with a candidate j
    after it, and a pair is only compared while dx^2 <= MIN_NODE_GAP^2; past
    that, every later j has a larger dx, so i drops out.  Within a run of equal
    x only the next point can be the closest (y is sorted), so the candidate
    then jumps to the first point of the next x.
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


@dataclass(frozen=True)
class SampleSet2D:
    """Sample points (x_i, y_i, z_i) with distinct (x, y) pairs in [-1, 1]^2."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if x.ndim != 1 or x.shape != y.shape or x.shape != z.shape:
            raise ValueError("x, y, z must be 1-D arrays of equal length")
        if x.size < 1:
            raise ValueError("at least one sample point is required")
        if not all(np.all(np.isfinite(v)) for v in (x, y, z)):
            raise ValueError("sample values must be finite")
        x = _clip_unit(x, "sample x")
        y = _clip_unit(y, "sample y")
        if _has_close_pair(x, y):
            raise ValueError(f"sample (x, y) pairs must be distinct (min gap {MIN_NODE_GAP})")
        for v in (x, y, z):
            v.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def m(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ChebModel2D:
    """Triangular tensor series P(x, y) = sum a[i, j] T_i(tx) T_j(ty)."""

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
        object.__setattr__(self, "coeffs", clean)

    def dense(self) -> np.ndarray:
        c = np.zeros((self.degree_bound, self.degree_bound))
        for (i, j), value in self.coeffs.items():
            c[i, j] = value
        return c


def visit_order(n: int) -> list[TermIndex2D]:
    """All term labels with i + j < n in preference order.

    Lower total degree goes first; ties are broken by smaller min(i, j), then
    by smaller i.  The result is a deterministic total order of n(n+1)/2 terms.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    pairs = [TermIndex2D(i, j) for i in range(n) for j in range(n - i)]
    pairs.sort(key=lambda t: (t.i + t.j, min(t.i, t.j), t.i))
    return pairs


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
    """Rows of tensor term vectors tau[i, j] at the samples, one per order entry."""
    n = 1 + max(max(t.i for t in order), max(t.j for t in order))
    vx = cheb_columns(samples.x, n)
    vy = cheb_columns(samples.y, n)
    return np.array([vx[:, t.i] * vy[:, t.j] for t in order])


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
    order = visit_order(config.max_terms)
    tau = term_matrix(samples, order)
    norm2 = np.einsum("ij,ij->i", tau, tau)
    skipped = frozenset(int(t) for t in np.flatnonzero(norm2 <= DEGENERATE_TERM_REL * samples.m))

    schedule = list(range(len(order)))
    pos = {t: p for p, t in enumerate(order)}
    revisits = {
        p: [pos[t] for t in revisit_set(order[p], order) if pos[t] not in skipped]
        for p in schedule
    }
    a, trace, converged = projection_sweeps(
        tau, samples.z, config, schedule, revisits, skipped, labels=order
    )

    coeffs = {order[p]: float(a[p]) for p in schedule if a[p] != 0.0}
    report = FitReport(
        trace=tuple(trace),
        terms_used=len(coeffs),
        converged=converged,
        skipped=tuple(order[p] for p in sorted(skipped)),
    )
    model = ChebModel2D(coeffs=coeffs, xmap=xmap, ymap=ymap, degree_bound=config.max_terms)
    return model, report


def _axis_columns(model: ChebModel2D, x, y):
    """Chebyshev columns Vx, Vy of raw x and y, warning per axis on extrapolation."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    # one frame deeper than a public evaluator, so warnings name its caller
    warn_if_extrapolating(model.xmap, x_arr, axis="x", stacklevel=4)
    warn_if_extrapolating(model.ymap, y_arr, axis="y", stacklevel=4)
    vx = cheb_columns(model.xmap.forward(x_arr), model.degree_bound)
    vy = cheb_columns(model.ymap.forward(y_arr), model.degree_bound)
    return vx, vy


def eval_model_2d(model: ChebModel2D, x, y):
    """Evaluate the fitted surface at raw coordinates (scalars or arrays).

    x and y must share one shape; P(x_i, y_i) = Vx[i] . C . Vy[i] is summed
    point by point, so a batch gives the same bits as one call per point.
    """
    if np.shape(x) != np.shape(y):
        raise ValueError(f"x and y must share one shape, got {np.shape(x)} and {np.shape(y)}")
    vx, vy = _axis_columns(model, x, y)
    value = np.einsum("...i,ij,...j->...", vx, model.dense(), vy)
    return float(value[0]) if np.ndim(x) == 0 else value


def eval_grid_2d(model: ChebModel2D, x, y) -> np.ndarray:
    """Evaluate the fitted surface on the tensor grid of raw 1-D axes.

    Returns the (len(y), len(x)) array whose entry [r, c] is P(x[c], y[r]),
    the layout of ``eval_model_2d`` over ``np.meshgrid(x, y)``, from the same
    Chebyshev columns.  The series is separable, so P = Vy . C^T . Vx^T: two
    matrix products, O(n W H), where one sum per grid point costs O(n^2 W H).
    Values agree with ``eval_model_2d`` to rounding.
    """
    vx, vy = _axis_columns(model, x, y)
    return vy @ model.dense().T @ vx.T
