"""Gram-Schmidt orthogonalization of term vectors with coefficient back-substitution.

Besides the orthogonal components o_j this keeps two lower-triangular scalar
sets: p[j, k], the projection of tau_j on o_k, and q[j, k], which expresses
each o_j directly as a combination of the original term vectors
(o_j = sum_{k<=j} q[j, k] * tau_k).  The q triangle is what lets the exact
interpolation update original-basis coefficients from projections on the
orthogonal set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TermVector

# o_j whose squared norm falls below this fraction of ||tau_j||^2 is treated
# as linearly dependent on earlier terms.
DEGENERATE_REL = 1e-12


@dataclass(frozen=True)
class OrthoSet:
    """Orthogonal components plus the p and q coefficient triangles."""

    ortho: np.ndarray  # (n, m), row j is o_j
    p: np.ndarray  # (n, n) lower triangular, p[j, k] defined for k < j
    q: np.ndarray  # (n, n) lower triangular, q[j, j] == 1
    skipped: frozenset

    @property
    def n(self) -> int:
        return self.ortho.shape[0]

    def retained(self) -> list[int]:
        return [j for j in range(self.n) if j not in self.skipped]


def _as_rows(terms) -> np.ndarray:
    rows = []
    for t in terms:
        rows.append(t.components if isinstance(t, TermVector) else np.asarray(t, dtype=float))
    if not rows:
        raise ValueError("at least one term vector is required")
    m = rows[0].size
    for r in rows:
        if r.ndim != 1 or r.size != m:
            raise ValueError("term vectors must all share the same dimension")
    return np.array(rows, dtype=float)


def orthogonalize(terms, reorthogonalize: bool = False) -> OrthoSet:
    """Classical Gram-Schmidt over a term-vector sequence.

    Vectors whose orthogonal remainder is negligible relative to the original
    vector are recorded in ``skipped`` and excluded from later projections.
    ``reorthogonalize`` repeats the projection subtraction once per vector to
    shave accumulated rounding error; the extra corrections are folded into
    the p triangle so the q back-substitution stays consistent.
    """
    tau = _as_rows(terms)
    n, m = tau.shape
    if not np.any(tau[0]):
        raise ValueError("first term vector is identically zero")

    ortho = np.zeros_like(tau)
    p = np.zeros((n, n))
    q = np.zeros((n, n))
    skipped: set[int] = set()
    norm2 = np.zeros(n)

    for j in range(n):
        # classical Gram-Schmidt projects tau_j (not the running remainder),
        # so the whole row of p is one product over the retained o_k
        live = [k for k in range(j) if k not in skipped]
        o_live = ortho[live]
        p[j, live] = (o_live @ tau[j]) / norm2[live]
        w = tau[j] - p[j, live] @ o_live
        if reorthogonalize:
            extra = (o_live @ w) / norm2[live]
            p[j, live] += extra
            w -= extra @ o_live
        ortho[j] = w
        norm2[j] = w @ w
        if norm2[j] <= DEGENERATE_REL * (tau[j] @ tau[j]):
            skipped.add(j)
        # row j of q depends only on earlier rows: o_j = tau_j - sum_k p[j, k] o_k
        q[j, :j] = -p[j, :j] @ q[:j, :j]
        q[j, j] = 1.0

    ortho.flags.writeable = False
    p.flags.writeable = False
    q.flags.writeable = False
    return OrthoSet(ortho=ortho, p=p, q=q, skipped=frozenset(skipped))
