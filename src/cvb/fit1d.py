"""Univariate progressive-projection fitting over the Chebyshev basis.

Two fitters share the machinery: an exact interpolation that projects the
error vector on an orthogonalized copy of the term vectors, and a shape-first
approximation that projects on the raw term vectors in preference order with
reverse-order revisits after every new term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
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
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
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
    """The l2 norm of delta, given max_abs = max|delta|, scaled as ``_scale_exponent`` says."""
    e = _scale_exponent(max_abs)
    u = np.ldexp(delta, -e) if e else delta
    return math.ldexp(math.sqrt(u @ u), e)


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


def _project(rows, norm2, gamma, plan, epsilon):
    """The one projection loop both fitters share.

    ``plan`` yields (k, kind) pairs, kind "visit" or "revisit"; the loop
    stops before a visit once max|delta| <= epsilon.  A step projects the
    error vector delta (gamma less the fit so far) on rows[k], moves delta
    along it in place (O(m), through one scratch vector, so a step allocates
    no m-vector) and records the plain tuple (k, kind, increment, max|delta|,
    l2 of delta).  The callers turn the records into coefficients and a
    trace.  Returns the records and the final max|delta|.
    """
    delta = np.array(gamma, dtype=float)
    scratch = np.empty_like(delta)
    max_abs = float(np.abs(delta).max())
    steps = []
    for k, kind in plan:
        if kind == "visit" and max_abs <= epsilon:
            break
        row = rows[k]
        inc = float((row @ delta) / norm2[k])
        delta -= np.multiply(inc, row, out=scratch)
        max_abs = float(np.abs(delta, out=scratch).max())
        steps.append((k, kind, inc, max_abs, _l2(delta, max_abs)))
    return steps, max_abs


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
    steps, max_abs = _project(oset.ortho, norm2, samples.y, [(j, "visit") for j in retained], -math.inf)
    a = np.zeros(n)
    trace = []
    for j, kind, inc, step_max, l2 in steps:
        a[: j + 1] += inc * oset.q[j, : j + 1]
        trace.append(TraceStep(j, kind, inc, step_max, l2, tuple(a.tolist())))

    report = _report(trace, a, max_abs <= config.epsilon, sorted(oset.skipped), samples.y)
    return ChebModel1D(coeffs=a, xmap=xmap), report


def projection_sweeps(tau, gamma, config, schedule, revisits, skipped, labels=None):
    """Shared visit/revisit engine for both approximation fitters.

    ``schedule`` lists row positions of ``tau`` in visit order and
    ``revisits[t]`` the positions revisited after visiting t, already in
    reverse preference order; ``labels``, if given, maps them to trace labels.
    Each step projects the error vector on tau_t and updates it in place; the
    trace stores no coefficients (they are the running sum of the increments,
    added in step order).  Returns (coefficients, trace, converged).
    """
    norm2 = np.einsum("ij,ij->i", tau, tau)
    sweep = [step for t in schedule if t not in skipped
             for step in ((t, "visit"), *((k, "revisit") for k in revisits[t]))]
    plan = chain.from_iterable(repeat(sweep, config.extra_sweeps + 1))
    steps, max_abs = _project(tau, norm2, gamma, plan, config.epsilon)
    a = np.zeros(tau.shape[0])
    for t, _, inc, _, _ in steps:
        a[t] += inc
    trace = [TraceStep(t if labels is None else labels[t], kind, inc, step_max, l2)
             for t, kind, inc, step_max, l2 in steps]
    return a, trace, max_abs <= config.epsilon


def _shape_first(tau, gamma, config, revisit, labels=None):
    """The shape-first driver behind both approximation fitters.

    Rows of ``tau`` are visited in order.  Rows whose squared norm is at most
    ``DEGENERATE_TERM_REL`` times the sample count are skipped and dropped
    from the revisit lists; ``revisit(t)`` gives the rows revisited after
    visiting t, in reverse preference order.  Returns the coefficients by row
    and the FitReport, whose skipped terms carry ``labels`` when given.
    """
    norm2 = np.einsum("ij,ij->i", tau, tau)
    skipped = frozenset(int(t) for t in np.flatnonzero(norm2 <= DEGENERATE_TERM_REL * gamma.size))
    schedule = list(range(tau.shape[0]))
    revisits = {t: [k for k in revisit(t) if k not in skipped] for t in schedule}
    a, trace, converged = projection_sweeps(tau, gamma, config, schedule, revisits, skipped, labels)
    named = [t if labels is None else labels[t] for t in sorted(skipped)]
    return a, _report(trace, a, converged, named, gamma)


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
    a, report = _shape_first(tau, samples.y, config, lambda j: range(j - 1, -1, -1))
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
