"""Univariate progressive-projection fitting over the Chebyshev basis.

Two fitters share the machinery: an exact interpolation that projects the
error vector on an orthogonalized copy of the term vectors, and a shape-first
approximation that projects on the raw term vectors in preference order and,
after each new term, revisits the earlier terms it dominates, latest first
(every lower degree: the one plan rule, which ``fit2d`` reuses for surfaces).
Both run one loop, ``_project``, whose steps are serial (each projects the
residual the previous one left), while the residual statistics of the trace
are taken in blocks of at most ``_STEP_BLOCK`` steps.  A fit's trace keeps
those statistics as float64 columns and builds its steps when they are read.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .basis import (  # FitError and _scale_exponent are re-exported here, their home before basis
    IDENTITY_MAP,
    DomainMap,
    FitError,
    SampleSet1D,
    _scale_exponent,
    cheb_columns,
    record,
    warn_if_extrapolating,
)
from .orthogonalize import orthogonalize

# tau whose squared norm falls below this fraction of the sample count is
# degenerate (components of Chebyshev term vectors are bounded by 1).
DEGENERATE_TERM_REL = 1e-12


@record
class FitConfig:
    """Loop controls: residual target, schedule length, optional repeats.

    ``epsilon`` is the max-abs residual at which fitting stops.  ``max_terms``
    is the schedule length n (for surfaces it bounds total degree, giving a
    triangular schedule of n(n+1)/2 terms).  ``extra_sweeps`` repeats the whole
    visit/revisit schedule after the first pass; this is an extension beyond
    the plain algorithm and defaults to off.
    """

    epsilon: float = 0.0
    max_terms: int = 8
    extra_sweeps: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.extra_sweeps < 0:
            raise ValueError(f"extra_sweeps must be >= 0, got {self.extra_sweeps}")


class TraceStep(NamedTuple):
    """One coefficient update: which term, how much, and the residual after."""

    term: object  # int for curves, TermIndex2D for surfaces
    kind: str  # "visit" or "revisit"
    increment: float
    max_abs_residual: float
    l2_residual: float
    coeffs: Optional[tuple] = None  # coefficients after the step; interpolation only


_KINDS = ("revisit", "visit")  # by whether a step's term is the one its sweep position visits
_READ_BLOCK = 1024  # steps built per block when a trace is iterated


class Trace(Sequence):
    """A fit's steps: a read-only sequence of TraceStep, each built when it is read.

    It holds columns, not a tuple per step.  ``stats`` is a (3, steps)
    float64 array of every step's increment, max|delta| and l2 of delta.
    ``plan`` is one sweep's pair of integer arrays (term, visit): step i
    updates row ``term[p]`` of the term matrix, p = i % len(term), named
    ``labels[term[p]]``, and is a visit where ``term[p] == visit[p]``; so
    extra sweeps cost no more than their statistics.  An interpolation
    also keeps each step's coefficient vector as a row of ``coeffs``.
    The arrays are read-only, and a trace compares and hashes equal to the
    tuple of its steps.
    """

    __slots__ = ("stats", "plan", "labels", "coeffs")

    def __init__(self, stats, plan, labels, coeffs=None):
        for array in (stats, *plan, *(() if coeffs is None else (coeffs,))):
            array.flags.writeable = False
        for name, value in zip(self.__slots__, (stats, tuple(plan), labels, coeffs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a trace is read-only")

    def __reduce__(self):
        return Trace, (self.stats, self.plan, self.labels, self.coeffs)

    def __len__(self):
        return self.stats.shape[1]

    def _build(self, steps):
        """The TraceSteps of the step numbers in the range ``steps``."""
        index = np.arange(steps.start, steps.stop, steps.step)
        at = index % max(self.plan[0].size, 1)
        coeffs = repeat(None) if self.coeffs is None else map(tuple, self.coeffs[index].tolist())
        columns = zip(self.plan[0][at].tolist(), self.plan[1][at].tolist(), *self.stats[:, index].tolist(), coeffs)
        new, labels = tuple.__new__, self.labels
        return [new(TraceStep, (labels[t], _KINDS[t == v], inc, max_abs, l2, c))
                for t, v, inc, max_abs, l2, c in columns]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._build(range(*index.indices(len(self)))))
        i, n = operator.index(index), len(self)
        if not -n <= i < n:
            raise IndexError("trace index out of range")
        return self._build(range(i % n, i % n + 1))[0]

    def __iter__(self):
        for start in range(0, len(self), _READ_BLOCK):
            yield from self._build(range(start, min(start + _READ_BLOCK, len(self))))

    def __eq__(self, other):
        if isinstance(other, (Trace, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Trace({tuple(self)!r})"


@record
class FitReport:
    """What a fit did: its trace, terms, stop state and final residuals.

    The residuals are those of the last trace step, or of the data itself
    when no step was taken.
    """

    trace: Trace
    terms_used: int
    converged: bool
    skipped: tuple
    max_abs_residual: float
    l2_residual: float


def _l2(delta, max_abs) -> float:
    """The l2 norm of delta, given max_abs = max|delta|, scaled as ``_scale_exponent`` says.

    inf when the norm of a finite delta lies beyond the float range.
    """
    e = _scale_exponent(max_abs)
    u = np.ldexp(delta, -e) if e else delta
    try:
        return math.ldexp(math.sqrt(u @ u), e)
    except OverflowError:
        return math.inf


def _report(trace, a, converged, skipped, gamma) -> FitReport:
    """The one FitReport builder: final residuals fall back to the data's own."""
    if trace:
        max_abs, l2 = trace.stats[1:, -1].tolist()
    else:
        max_abs = float(np.abs(gamma).max())
        l2 = _l2(gamma, max_abs)
    return FitReport(
        trace=trace,
        terms_used=int(np.count_nonzero(a)),
        converged=converged,
        skipped=tuple(skipped),
        max_abs_residual=max_abs,
        l2_residual=l2,
    )


@record
class ChebModel1D:
    """Chebyshev series P(x) = sum a_j T_j(t), t = xmap.forward(x)."""

    coeffs: np.ndarray
    xmap: DomainMap = IDENTITY_MAP

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if a.ndim != 1 or a.size < 1:
            raise ValueError("coefficients must form a non-empty 1-D array")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "coeffs", a)

    @property
    def n(self) -> int:
        return self.coeffs.size


# Steps per block of the projection loop: each step writes its residual into
# the next row of one block, and the statistics of up to this many steps are
# taken in one pass, so their cost per step falls while memory stays O(m).
_STEP_BLOCK = 32


def _statistics(block, pending, data_max, out):
    """Write max|delta| and the l2 of delta for residual rows 1..pending of ``block`` to the two rows of ``out``.

    Row ``pending`` (the current residual) is first copied to row 0, where
    the next step reads it; then the rows are made absolute in place (the
    squares, so the l2, keep their bits) and measured: every l2 by one
    ``np.vecdot`` (a ``ddot`` per row, the bits of ``u @ u``), and again, as
    ``_l2`` measures one vector, each row whose max lies outside [1e-140,
    1e140], where a square may overflow or underflow.  Raises FitError at
    the first row whose l2 leaves the float range.  Overflows are left to
    the caller's ``np.errstate``.
    """
    block[0] = block[pending]
    residuals = np.abs(block[1:pending + 1], out=block[1:pending + 1])
    row_max, row_l2 = out
    residuals.max(axis=1, out=row_max)
    np.sqrt(np.vecdot(residuals, residuals, out=row_l2), out=row_l2)
    for i, max_abs in enumerate(row_max.tolist()):
        if not 1e-140 <= max_abs <= 1e140:
            row_l2[i] = l2 = _l2(residuals[i], max_abs)
            if not math.isfinite(l2):  # nor is max_abs, if it is not finite
                raise FitError(f"the fit residual leaves the float range (±{np.finfo(float).max:.4g}) "
                               f"on data whose largest |value| is {data_max!r}")


def _project(rows, norm2, gamma, plan, epsilon=None, sweeps=1):
    """The one projection loop both fitters share.

    ``plan`` is a pair of integer arrays (term, visit), one sweep: step i
    projects on rows[term[i]], and is a visit where term[i] == visit[i].  It
    is taken ``sweeps`` times over; unless ``epsilon`` is None the loop stops
    before a visit once max|delta| <= epsilon.  A step projects the error
    vector delta (gamma less the fit so far) on rows[k] and writes delta
    less its projection into the next row of one block of ``_STEP_BLOCK`` +
    1 rows; it allocates nothing.  The steps are serial, but the residual
    statistics are outputs only, so ``_statistics`` takes them once per
    block of at most ``_STEP_BLOCK`` plan positions.  A visit reads only the
    max of the current residual.  Returns the (3, steps) float64 columns of
    the steps taken (increment, max|delta| and l2 of delta) and the final
    max|delta|.  Raises FitError once the residual or its l2 norm leaves the
    float range.
    """
    gamma = np.asarray(gamma, dtype=float)
    term, visit = plan
    block = np.empty((_STEP_BLOCK + 1, gamma.size))
    views = list(block)
    data_max = float(np.abs(gamma).max())
    block[0] = gamma
    stops = epsilon is not None
    multiply, subtract = np.multiply, np.subtract
    columns = []  # one (3, plan) array per sweep begun
    # an empty plan is not repeated: a billion empty sweeps would still take seconds
    stopped, taken = not term.size, 0  # taken: steps of the last sweep begun
    # an overflowing step is refused in _statistics, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        while not stopped and len(columns) < sweeps:
            stats, taken = np.empty((3, term.size)), 0
            columns.append(stats)
            while not stopped and taken < term.size:
                stop, incs = min(taken + _STEP_BLOCK, term.size), []
                pending = 0  # rows 1..pending hold residuals not yet measured
                for k, v in zip(term[taken:stop].tolist(), visit[taken:stop].tolist()):
                    delta = views[pending]
                    if stops and k == v and max(delta.max(), -delta.min()) <= epsilon:
                        break
                    # inc stays a numpy float64: a Python float costs multiply a conversion
                    row, out = rows[k], views[pending + 1]
                    inc = row.dot(delta) / norm2[k]
                    subtract(delta, multiply(row, inc, out=out), out=out)
                    incs.append(inc)
                    pending += 1
                if pending:
                    stats[0, taken : taken + pending] = incs
                    _statistics(block, pending, data_max, stats[1:, taken : taken + pending])
                taken += pending
                stopped = taken < stop  # at a visit, by epsilon
    last = columns.pop()[:, :taken] if columns else np.empty((3, 0))
    stats = np.concatenate([*columns, last], axis=1) if columns else last
    return stats, float(stats[1, -1]) if stats.size else data_max


def cvb_interpolate(samples: SampleSet1D, config: FitConfig, xmap: DomainMap = IDENTITY_MAP):
    """Exact fit through projections of the error vector on orthogonal components.

    Each step j projects the current error vector on o_j and distributes the
    increment over the original coefficients via the q triangle, so the fit of
    all earlier terms is preserved exactly.  With max_terms equal to the sample
    count this interpolates the data.  The error vector moves along o_j in
    place (o_j = sum_k q[j, k] tau_k, so this equals the change of a @ tau).
    ``orthogonalize`` projects a term twice where one pass cancels more than
    half its squared norm, so crowded nodes are interpolated exactly too.
    Every retained term is visited: epsilon only feeds the converged flag, and
    extra_sweeps is ignored, as the schedule is a single fixed pass.  The
    trace keeps the coefficients after each step as one row of an array.
    """
    n = config.max_terms
    if n > samples.m:
        raise ValueError(f"max_terms={n} exceeds sample count m={samples.m}")
    tau = cheb_columns(samples.x, n).T  # row j is tau_j
    oset = orthogonalize(tau)
    retained = np.array(oset.retained(), dtype=np.intp)
    finite = np.isfinite(oset.ortho).all(axis=1)[retained]
    if not finite.all():
        raise FitError(f"orthogonal component of term {retained[int(finite.argmin())]} is not finite")

    norm2 = np.vecdot(oset.ortho, oset.ortho).tolist()  # the bits of o_j @ o_j
    stats, max_abs = _project(oset.ortho, norm2, samples.y, (retained, retained))
    a, snapshots = np.zeros(n), np.empty((retained.size, n))
    for j, inc, snapshot in zip(retained.tolist(), stats[0].tolist(), snapshots):
        a[: j + 1] += inc * oset.q[j, : j + 1]
        snapshot[:] = a

    trace = Trace(stats, (retained, retained), range(n), snapshots)
    report = _report(trace, a, max_abs <= config.epsilon, sorted(oset.skipped), samples.y)
    return ChebModel1D(coeffs=a, xmap=xmap), report


def _sweep(rows, norm2, gamma, plan, epsilon, labels, sweeps):
    """One target's pass along ``plan``, ``sweeps`` times over: (coefficients, trace, converged).

    ``rows`` and ``norm2`` are lists, the cheapest to index once per step.
    Each coefficient is the sum of its term's increments, added in step
    order, one sweep at a time, by ``np.add.at``.
    """
    stats, max_abs = _project(rows, norm2, gamma, plan, epsilon, sweeps)
    term, a = plan[0], np.zeros(len(rows))
    for start in range(0, stats.shape[1], term.size or 1):
        incs = stats[0, start : start + term.size]
        np.add.at(a, term[: incs.size], incs)
    return a, Trace(stats, plan, labels), max_abs <= epsilon


def projection_sweeps(tau, gamma, config, schedule, revisits, skipped, labels=None):
    """The visit/revisit engine of both approximation fitters, on an explicit plan.

    ``schedule`` lists row positions of ``tau`` in visit order and
    ``revisits[t]`` the positions revisited after visiting t, already in
    reverse preference order; ``labels``, if given, maps them to trace labels.
    Each step projects the error vector on tau_t (see ``_project``); the
    trace stores no coefficients (they are the running sum of the increments,
    added in step order).  Returns (coefficients, trace, converged).  This
    replay and reference path takes the plan as literal lists; the fitters
    read it from a dominance matrix (``_shape_first``).
    """
    plan = [(k, t) for t in schedule if t not in skipped for k in (t, *revisits[t])]
    term, visit = np.array(plan, dtype=np.intp).reshape(-1, 2).T.copy()
    norm2 = np.einsum("ij,ij->i", tau, tau).tolist()
    return _sweep(list(tau), norm2, gamma, (term, visit), config.epsilon,
                  range(len(tau)) if labels is None else labels, config.extra_sweeps + 1)


def _shape_first(tau, targets, config, dominated, labels):
    """The shape-first driver behind both approximation fitters.

    ``dominated[t]`` marks row t of ``tau`` and the earlier rows it dominates.
    Rows whose squared norm is at most ``DEGENERATE_TERM_REL`` times the
    sample count are skipped, their rows and columns masked; each row left,
    read right to left, is one visit and its revisits: the plan is the
    (term, visit) pair of its ``np.nonzero`` arrays.  Each of ``targets``
    is swept along that one plan, lazily, yielding its coefficients by row
    and its FitReport, whose skipped terms carry their ``labels``.
    """
    norm2 = np.einsum("ij,ij->i", tau, tau)
    skipped = norm2 <= DEGENERATE_TERM_REL * tau.shape[1]
    visit, term = np.nonzero((dominated & ~skipped & ~skipped[:, None])[:, ::-1])
    np.subtract(len(tau) - 1, term, out=term)  # the row a reversed column reads
    plan = (term, visit)
    named = [labels[t] for t in np.flatnonzero(skipped).tolist()]
    rows, norm2 = list(tau), norm2.tolist()
    for gamma in targets:
        a, trace, converged = _sweep(rows, norm2, gamma, plan, config.epsilon, labels, config.extra_sweeps + 1)
        yield a, _report(trace, a, converged, named, gamma)


def cvb_approximate(samples: SampleSet1D, config: FitConfig, xmap: DomainMap = IDENTITY_MAP):
    """Shape-first fit by projecting the error vector on raw term vectors.

    Terms are visited in order of increasing degree.  Visiting tau_j applies
    a_j += (tau_j . delta)/(tau_j . tau_j); afterwards every earlier term is
    revisited with the same update, in reverse order so the most preferred
    term is refreshed last.  The loop stops once the max-abs residual reaches
    epsilon or the schedule is exhausted; running out of terms is reported,
    not raised.
    """
    tau = cheb_columns(samples.x, config.max_terms).T
    a, report = next(_shape_first(tau, [samples.y], config, np.tri(len(tau), dtype=bool), range(len(tau))))
    return ChebModel1D(coeffs=a, xmap=xmap), report


def eval_model_1d(model: ChebModel1D, x):
    """Evaluate the fitted series at raw coordinates (scalar or array).

    Points outside the model's source interval are still evaluated but flag
    an ExtrapolationWarning.
    """
    from numpy.polynomial import chebyshev as _cheb  # here: no other command needs it

    x_arr = np.asarray(x, dtype=float)
    warn_if_extrapolating(model.xmap, x_arr, axis="x")
    value = _cheb.chebval(model.xmap.forward(x_arr), model.coeffs)
    return float(value) if np.ndim(x) == 0 else value
