"""Univariate progressive-projection fitting over the Chebyshev basis.

Two fitters share the machinery: an exact interpolation that projects the
error vector on an orthogonalized copy of the term vectors, and a shape-first
approximation that projects on the raw term vectors in preference order with
reverse-order revisits after every new term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class TraceStep:
    """One coefficient update: which term, how much, and the residual after."""

    term: object  # int for curves, TermIndex2D for surfaces
    kind: str  # "visit" or "revisit"
    increment: float
    max_abs_residual: float
    l2_residual: float
    coeffs: Optional[tuple] = None  # univariate coefficient snapshot


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


def _report(trace, a, converged, skipped, gamma) -> FitReport:
    """The one FitReport builder: final residuals fall back to the data's own."""
    return FitReport(
        trace=tuple(trace),
        terms_used=int(np.count_nonzero(a)),
        converged=converged,
        skipped=tuple(skipped),
        max_abs_residual=trace[-1].max_abs_residual if trace else float(np.abs(gamma).max()),
        l2_residual=trace[-1].l2_residual if trace else float(np.linalg.norm(gamma)),
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


class _Projector:
    """The one projection step both fitters share.

    Owns the coefficients ``a`` and the error vector delta = gamma - a @ tau,
    which it updates in place (O(m) per step) rather than recomputing.  A
    step projects delta on a direction, moves delta along it, applies the
    same increment to the coefficients through ``weights`` and traces the
    residual after the update.
    """

    def __init__(self, gamma, n, snapshots):
        self.a = np.zeros(n)
        self.delta = np.array(gamma, dtype=float)
        self.trace = []
        self.snapshots = snapshots

    def step(self, direction, norm2, where, weights, label, kind) -> float:
        delta = self.delta
        inc = float((direction @ delta) / norm2)
        self.a[where] += inc * weights
        delta -= inc * direction
        max_abs = float(np.abs(delta).max())
        self.trace.append(
            TraceStep(term=label, kind=kind, increment=inc, max_abs_residual=max_abs,
                      l2_residual=math.sqrt(delta @ delta),
                      coeffs=tuple(self.a.tolist()) if self.snapshots else None)
        )
        return max_abs


def cvb_interpolate(samples: SampleSet1D, config: FitConfig, xmap: DomainMap = IDENTITY_MAP):
    """Exact fit through projections of the error vector on orthogonal components.

    Each step j projects the current error vector on o_j and distributes the
    increment over the original coefficients via the q triangle, so the fit of
    all earlier terms is preserved exactly.  With max_terms equal to the sample
    count this interpolates the data.  The error vector moves along o_j in
    place (o_j = sum_k q[j, k] tau_k, so this equals the change of a @ tau).
    ``orthogonalize`` projects a term twice where one pass cancels more than
    half its squared norm, so crowded nodes are interpolated exactly too.
    epsilon only feeds the converged flag, and extra_sweeps is ignored: the
    schedule is a single fixed pass.
    """
    n = config.max_terms
    if n > samples.m:
        raise ValueError(f"max_terms={n} exceeds sample count m={samples.m}")
    tau = cheb_columns(samples.x, n).T  # row j is tau_j
    oset = orthogonalize(tau)
    for j in oset.retained():
        if not np.all(np.isfinite(oset.ortho[j])):
            raise FitError(f"orthogonal component of term {j} is not finite")

    fit = _Projector(samples.y, n, snapshots=True)
    for j in oset.retained():
        o_j = oset.ortho[j]
        max_abs = fit.step(o_j, o_j @ o_j, slice(0, j + 1), oset.q[j, : j + 1], j, "visit")

    report = _report(fit.trace, fit.a, max_abs <= config.epsilon, sorted(oset.skipped), samples.y)
    return ChebModel1D(coeffs=fit.a, xmap=xmap), report


def projection_sweeps(tau, gamma, config, schedule, revisits, skipped, labels=None):
    """Shared visit/revisit engine for both approximation fitters.

    ``schedule`` lists row positions of ``tau`` in visit order and
    ``revisits[t]`` the positions revisited after visiting t, already in
    reverse preference order.  ``labels`` maps positions to trace labels;
    when omitted the trace also carries coefficient snapshots (curve case).
    Each step projects the error vector on tau_t and updates it in place.
    Returns (coefficients, trace, converged).
    """
    norm2 = np.einsum("ij,ij->i", tau, tau)
    fit = _Projector(gamma, tau.shape[0], snapshots=labels is None)

    def apply(t, kind):
        return fit.step(tau[t], norm2[t], t, 1.0, t if labels is None else labels[t], kind)

    max_abs = float(np.abs(gamma).max())
    for _ in range(config.extra_sweeps + 1):
        if max_abs <= config.epsilon:
            break
        for t in schedule:
            if max_abs <= config.epsilon:
                break
            if t in skipped:
                continue
            max_abs = apply(t, "visit")
            for k in revisits[t]:
                max_abs = apply(k, "revisit")
    return fit.a, fit.trace, max_abs <= config.epsilon


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
