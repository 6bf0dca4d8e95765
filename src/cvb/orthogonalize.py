"""Gram-Schmidt orthogonalization of term vectors with coefficient back-substitution.

Besides the orthogonal components o_j this keeps the lower-triangular scalar
set q[j, k], which expresses each o_j directly as a combination of the
original term vectors (o_j = sum_{k<=j} q[j, k] * tau_k).  The q triangle is
what lets the exact interpolation update original-basis coefficients from
projections on the orthogonal set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# o_j whose squared norm falls below this fraction of ||tau_j||^2 is treated
# as linearly dependent on earlier terms.
DEGENERATE_REL = 1e-12


@dataclass(frozen=True)
class OrthoSet:
    """Orthogonal components plus the q coefficient triangle."""

    ortho: np.ndarray  # (n, m), row j is o_j
    q: np.ndarray  # (n, n) lower triangular, q[j, j] == 1
    skipped: frozenset

    @property
    def n(self) -> int:
        return self.ortho.shape[0]

    def retained(self) -> list[int]:
        return [j for j in range(self.n) if j not in self.skipped]


def orthogonalize(terms) -> OrthoSet:
    """Classical Gram-Schmidt over the rows of a 2-D term-vector array.

    Row j is projected on the retained o_k, k < j.  Where that cancels more
    than half of ||tau_j||^2 (the Daniel-Gragg-Kaufman-Stewart test), the
    remainder is projected again and the correction joins the coefficients
    behind q.  Well-spread terms never take this pass; crowded ones do and
    stay orthogonal to rounding.  Rows left with a negligible remainder are
    recorded in ``skipped`` and excluded from later projections.
    """
    tau = np.asarray(terms, dtype=float)
    if tau.ndim != 2 or tau.size == 0:
        raise ValueError("term vectors must form a non-empty 2-D array, one row per term")
    n, m = tau.shape
    if not np.any(tau[0]):
        raise ValueError("first term vector is identically zero")

    # one store: rows [:r] are the retained o_k in order, row r holds the
    # remainder of the term being projected; rows are put in term order at
    # the end, where a skipped term's remainder (kept aside) rejoins them
    ortho = np.empty_like(tau)
    q = np.zeros((n, n))
    skipped: dict[int, np.ndarray] = {}
    norm2 = np.empty(n)
    live: list[int] = []

    for j in range(n):
        # classical Gram-Schmidt projects tau_j (not the running remainder),
        # so the projection coefficients are one product over the retained o_k
        r = len(live)
        o_live, w = ortho[:r], ortho[r]
        coef = (o_live @ tau[j]) / norm2[:r]
        np.subtract(tau[j], coef @ o_live, out=w)
        tau2, w2 = tau[j] @ tau[j], w @ w
        if w2 < 0.5 * tau2:  # cancelled more than half: orthogonality is lost
            extra = (o_live @ w) / norm2[:r]
            coef += extra
            w -= extra @ o_live
            w2 = w @ w
        if w2 <= DEGENERATE_REL * tau2:
            skipped[j] = w.copy()
        else:
            norm2[r] = w2
            live.append(j)
        # row j of q depends only on earlier rows: o_j = tau_j - sum_k p[k] o_k
        p = np.zeros(j)  # p[k]: projection coefficient of tau_j on o_k
        p[live[:r]] = coef
        q[j, :j] = -p @ q[:j, :j]
        q[j, j] = 1.0

    if skipped:  # last term first, so a retained row moves down onto a row already moved
        r = len(live)
        for j in range(n - 1, -1, -1):
            if j in skipped:
                ortho[j] = skipped[j]
            else:
                r -= 1
                ortho[j] = ortho[r]
    ortho.flags.writeable = False
    q.flags.writeable = False
    return OrthoSet(ortho=ortho, q=q, skipped=frozenset(skipped))
