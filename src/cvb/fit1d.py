"""Univariate progressive-projection fitting over the Chebyshev basis.

Two fitters share the machinery: an exact interpolation that projects the
error vector on an orthogonalized copy of the term vectors, and a shape-first
approximation that projects on the raw term vectors in preference order and,
after each new term, revisits the earlier terms it dominates, latest first
(every lower degree: the one plan rule, which ``fit2d`` reuses for surfaces).
Both run one loop, ``_project``, whose steps are serial (each projects the
residual the previous one left), while the residual statistics of the trace
are taken in blocks of at most ``_STEP_BLOCK`` steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .basis import (
    IDENTITY_MAP,
    DomainMap,
    SampleSet1D,
    cheb_columns,
    warn_if_extrapolating,
)
from .orthogonalize import orthogonalize

# tau whose squared norm falls below this fraction of the sample count is
# degenerate (components of Chebyshev term vectors are bounded by 1).
DEGENERATE_TERM_REL = 1e-12


class FitError(RuntimeError):
    """A fit could not be carried out on the given data."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FitReport:
    """What a fit did: its trace, terms, stop state and final residuals.

    The residuals are those of the last trace step, or of the data itself
    when no step was taken.
    """

    trace: tuple
    terms_used: int
    converged: bool
    skipped: tuple
    max_abs_residual: float
    l2_residual: float


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
    max_abs = trace[-1].max_abs_residual if trace else float(np.abs(gamma).max())
    return FitReport(
        trace=tuple(trace),
        terms_used=int(np.count_nonzero(a)),
        converged=converged,
        skipped=tuple(skipped),
        max_abs_residual=max_abs,
        l2_residual=trace[-1].l2_residual if trace else _l2(gamma, max_abs),
    )


@dataclass(frozen=True)
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


def _statistics(block, pending, data_max, maxes, l2s) -> float:
    """Append max|delta| and the l2 of delta for residual rows 1..pending of ``block``.

    Row ``pending`` (the current residual) is first copied to row 0, where
    the next step reads it; then the rows are made absolute in place (the
    squares, so the l2, keep their bits) and measured as ``_l2`` measures
    one vector.  Raises FitError at the first row whose l2 leaves the float
    range.  Returns the last row's max.
    """
    block[0] = block[pending]
    residuals = np.abs(block[1:pending + 1], out=block[1:pending + 1])
    row_max = residuals.max(axis=1).tolist()
    for row, max_abs in zip(residuals, row_max):
        l2 = math.sqrt(row.dot(row)) if 1e-140 <= max_abs <= 1e140 else _l2(row, max_abs)
        if not math.isfinite(l2):  # nor is max_abs, if it is not finite
            raise FitError(f"the fit residual leaves the float range (±{np.finfo(float).max:.4g}) "
                           f"on data whose largest |value| is {data_max!r}")
        l2s.append(l2)
    maxes.extend(row_max)
    return row_max[-1]


def _project(rows, norm2, gamma, plan, epsilon=None):
    """The one projection loop both fitters share.

    ``plan`` is a list of (k, kind) pairs, kind "visit" or "revisit"; unless
    ``epsilon`` is None the loop stops before a visit once max|delta| <=
    epsilon.  A step projects the error vector delta (gamma less the fit so
    far) on rows[k] and writes delta less its projection into the next row
    of one block of ``_STEP_BLOCK`` + 1 rows; it allocates nothing.  The steps are
    serial, but the residual statistics are outputs only, so
    ``_statistics`` takes them once per block: before a visit that may
    stop, when the block is full, and at the end.  Returns the increments,
    max|delta| and l2 of delta of the steps taken (the first len(incs)
    entries of ``plan``) and the final max|delta|.  Raises FitError once
    the residual or its l2 norm leaves the float range.
    """
    gamma = np.asarray(gamma, dtype=float)
    block = np.empty((_STEP_BLOCK + 1, gamma.size))
    views = list(block)
    max_abs = data_max = float(np.abs(gamma).max())
    block[0] = gamma
    incs, maxes, l2s = [], [], []
    pending = 0  # rows 1..pending hold residuals not yet measured
    # an overflowing step is refused in _statistics, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for k, kind in plan:
            if kind == "visit" and epsilon is not None:
                if pending:
                    max_abs, pending = _statistics(block, pending, data_max, maxes, l2s), 0
                if max_abs <= epsilon:
                    break
            row, delta, out = rows[k], views[pending], views[pending + 1]
            inc = float((row @ delta) / norm2[k])
            np.subtract(delta, np.multiply(inc, row, out=out), out=out)
            incs.append(inc)
            pending += 1
            if pending == _STEP_BLOCK:
                max_abs, pending = _statistics(block, pending, data_max, maxes, l2s), 0
        if pending:
            max_abs = _statistics(block, pending, data_max, maxes, l2s)
    return incs, maxes, l2s, max_abs


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
    extra_sweeps is ignored, as the schedule is a single fixed pass.
    """
    n = config.max_terms
    if n > samples.m:
        raise ValueError(f"max_terms={n} exceeds sample count m={samples.m}")
    tau = cheb_columns(samples.x, n).T  # row j is tau_j
    oset = orthogonalize(tau)
    retained = oset.retained()
    for j in retained:
        if not np.all(np.isfinite(oset.ortho[j])):
            raise FitError(f"orthogonal component of term {j} is not finite")

    norm2 = {j: oset.ortho[j] @ oset.ortho[j] for j in retained}
    incs, maxes, l2s, max_abs = _project(oset.ortho, norm2, samples.y, [(j, "visit") for j in retained])
    a = np.zeros(n)
    trace = []
    for j, inc, step_max, l2 in zip(retained, incs, maxes, l2s):
        a[: j + 1] += inc * oset.q[j, : j + 1]
        trace.append(TraceStep(j, "visit", inc, step_max, l2, tuple(a.tolist())))

    report = _report(trace, a, max_abs <= config.epsilon, sorted(oset.skipped), samples.y)
    return ChebModel1D(coeffs=a, xmap=xmap), report


def _sweep(rows, norm2, gamma, plan, epsilon, labels):
    """One target's pass along ``plan``: (coefficients, trace, converged).

    ``rows`` and ``norm2`` are lists, the cheapest to index once per step.
    """
    incs, maxes, l2s, max_abs = _project(rows, norm2, gamma, plan, epsilon)
    a = [0.0] * len(rows)  # float sums, in step order, as numpy would add them
    for (t, _), inc in zip(plan, incs):
        a[t] += inc
    trace = [TraceStep(labels[t], kind, inc, step_max, l2)
             for (t, kind), inc, step_max, l2 in zip(plan, incs, maxes, l2s)]
    return np.array(a), trace, max_abs <= epsilon


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
    plan = [step for t in schedule if t not in skipped
            for step in ((t, "visit"), *((k, "revisit") for k in revisits[t]))] * (config.extra_sweeps + 1)
    norm2 = np.einsum("ij,ij->i", tau, tau).tolist()
    return _sweep(list(tau), norm2, gamma, plan, config.epsilon, range(len(tau)) if labels is None else labels)


def _shape_first(tau, targets, config, dominated, labels):
    """The shape-first driver behind both approximation fitters.

    ``dominated[t]`` marks row t of ``tau`` and the earlier rows it dominates.
    Rows whose squared norm is at most ``DEGENERATE_TERM_REL`` times the
    sample count are skipped, their rows and columns masked; each row left,
    read right to left, is one visit and its revisits.  Each of ``targets``
    is swept along that one plan, lazily, yielding its coefficients by row
    and its FitReport, whose skipped terms carry their ``labels``.
    """
    norm2 = np.einsum("ij,ij->i", tau, tau)
    skipped = norm2 <= DEGENERATE_TERM_REL * tau.shape[1]
    visit, column = np.nonzero((dominated & ~skipped & ~skipped[:, None])[:, ::-1])
    term = len(tau) - 1 - column
    # the two kind literals are shared by every step, not one new str per step
    kinds = [("revisit", "visit")[v] for v in (term == visit).tolist()]
    plan = list(zip(term.tolist(), kinds)) * (config.extra_sweeps + 1)
    named = [labels[t] for t in np.flatnonzero(skipped).tolist()]
    rows, norm2 = list(tau), norm2.tolist()
    for gamma in targets:
        a, trace, converged = _sweep(rows, norm2, gamma, plan, config.epsilon, labels)
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
    x_arr = np.asarray(x, dtype=float)
    warn_if_extrapolating(model.xmap, x_arr, axis="x")
    value = _cheb.chebval(model.xmap.forward(x_arr), model.coeffs)
    return float(value) if np.ndim(x) == 0 else value
