"""Orthogonalization and the p/q coefficient triangles."""

import numpy as np
import pytest

from cvb.basis import cheb_columns, cheb_zeros
from cvb.orthogonalize import orthogonalize

QUAD_TERMS = np.array([
    [1.0, 1.0, 1.0],   # T_0 at x = -1, 0, 1
    [-1.0, 0.0, 1.0],  # T_1
    [1.0, -1.0, 1.0],  # T_2
])


def brute_force_gram_schmidt(rows):
    """Independent classical Gram-Schmidt, plain loops."""
    out = []
    for w in rows:
        w = list(map(float, w))
        for o in out:
            num = sum(a * b for a, b in zip(w, o))
            den = sum(b * b for b in o)
            w = [a - (num / den) * b for a, b in zip(w, o)]
        out.append(w)
    return out


def random_terms(seed, m=None, n=None):
    """Term vectors over jittered-equispaced nodes.

    The equispaced skeleton keeps the term-vector set well conditioned;
    heavily clustered nodes make it nearly dependent, where plain
    Gram-Schmidt (no re-orthogonalization) legitimately degrades.
    """
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.integers(2, 13))
    n = n if n is not None else m
    gap = 2.0 / max(m - 1, 1)
    x = np.clip(np.linspace(-1, 1, m) + rng.uniform(-0.3, 0.3, m) * gap, -1, 1)
    return cheb_columns(x, n).T


class TestQuadraticExample:
    def test_first_component_is_first_term(self):
        oset = orthogonalize(QUAD_TERMS)
        assert oset.ortho[0].tolist() == [1.0, 1.0, 1.0]

    def test_second_component(self):
        oset = orthogonalize(QUAD_TERMS)
        assert oset.ortho[1] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)
        assert oset.p[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_third_component_and_triangles(self):
        oset = orthogonalize(QUAD_TERMS)
        assert oset.ortho[2] == pytest.approx([2 / 3, -4 / 3, 2 / 3], abs=1e-12)
        assert oset.p[2, 0] == pytest.approx(1 / 3, abs=1e-12)
        assert oset.q[2, 0] == pytest.approx(-1 / 3, abs=1e-12)

    def test_matches_brute_force(self):
        oset = orthogonalize(QUAD_TERMS)
        oracle = brute_force_gram_schmidt(QUAD_TERMS)
        assert np.allclose(oset.ortho, oracle, atol=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_pairwise_orthogonality(self, seed):
        oset = orthogonalize(random_terms(seed))
        kept = oset.retained()
        for a in kept:
            for b in kept:
                if a == b:
                    continue
                oa, ob = oset.ortho[a], oset.ortho[b]
                bound = 1e-9 * np.linalg.norm(oa) * np.linalg.norm(ob)
                assert abs(oa @ ob) <= bound

    @pytest.mark.parametrize("seed", range(40))
    def test_q_diagonal_and_reconstruction(self, seed):
        tau = random_terms(seed)
        oset = orthogonalize(tau)
        for j in oset.retained():
            assert oset.q[j, j] == 1.0
            recon = oset.q[j, : j + 1] @ tau[: j + 1]
            scale = max(1.0, np.abs(oset.ortho[j]).max())
            assert np.abs(recon - oset.ortho[j]).max() <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(40))
    def test_difference_lies_in_earlier_span(self, seed):
        # tau_j - o_j must have no component along o_j itself
        tau = random_terms(seed)
        oset = orthogonalize(tau)
        for j in oset.retained():
            diff = tau[j] - oset.ortho[j]
            o_j = oset.ortho[j]
            proj = abs(diff @ o_j) / (o_j @ o_j)
            assert proj <= 1e-9 * max(1.0, np.abs(diff).max())

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        tau = random_terms(seed)
        oset = orthogonalize(tau)
        oracle = brute_force_gram_schmidt(tau)
        for j in oset.retained():
            scale = max(1.0, np.abs(oset.ortho[j]).max())
            assert np.abs(oset.ortho[j] - oracle[j]).max() <= 1e-9 * scale

    @pytest.mark.parametrize("m", [3, 5, 8, 12])
    def test_chebyshev_zero_nodes_need_no_projection(self, m):
        # term vectors over the zeros of T_m are already pairwise orthogonal
        tau = cheb_columns(cheb_zeros(m), m).T
        oset = orthogonalize(tau)
        off_diag = oset.p[np.tril_indices(m, k=-1)]
        assert np.abs(off_diag).max() <= 1e-9


class TestDegenerateInput:
    def test_zero_first_vector_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize(np.array([[0.0, 0.0], [1.0, 2.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize([])

    def test_dependent_vector_skipped(self):
        tau = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [-1.0, 0.0, 1.0]])
        oset = orthogonalize(tau)
        assert oset.skipped == frozenset({1})
        # the dependent direction must not disturb later components
        assert oset.ortho[2] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)

    def test_reorthogonalize_pass_tightens(self):
        tau = random_terms(5, m=12, n=12)
        plain = orthogonalize(tau)
        tight = orthogonalize(tau, reorthogonalize=True)

        def worst(oset):
            kept = oset.retained()
            return max(
                abs(oset.ortho[a] @ oset.ortho[b])
                / (np.linalg.norm(oset.ortho[a]) * np.linalg.norm(oset.ortho[b]))
                for a in kept
                for b in kept
                if a != b
            )

        assert worst(tight) <= worst(plain)


def per_k_loop_gram_schmidt(tau, reorthogonalize=False, degenerate_rel=1e-12):
    """Literal per-k transcription: one projection, one subtraction at a time.

    p[j, k] projects tau_j on each retained o_k, the optional second pass
    projects the running remainder, and q is back-substituted term by term.
    """
    n = tau.shape[0]
    ortho, p, q, norm2 = np.zeros_like(tau), np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    skipped = set()
    for j in range(n):
        w = tau[j].copy()
        for k in range(j):
            if k in skipped:
                continue
            p[j, k] = (tau[j] @ ortho[k]) / norm2[k]
            w -= p[j, k] * ortho[k]
        if reorthogonalize:
            for k in range(j):
                if k in skipped:
                    continue
                extra = (w @ ortho[k]) / norm2[k]
                p[j, k] += extra
                w -= extra * ortho[k]
        ortho[j] = w
        norm2[j] = w @ w
        if norm2[j] <= degenerate_rel * (tau[j] @ tau[j]):
            skipped.add(j)
        q[j, j] = 1.0
        for k in range(j - 1, -1, -1):
            q[j, k] = -sum(p[j, i] * q[i, k] for i in range(k, j))
    return ortho, p, q, frozenset(skipped)


def dependent_terms(seed):
    """Well-conditioned terms with exact copies and sums of earlier rows mixed in."""
    rng = np.random.default_rng(seed)
    base = random_terms(seed, m=10, n=7)
    rows = list(base)
    for _ in range(3):
        pos = int(rng.integers(1, len(rows)))
        a, b = rng.choice(pos, size=2)
        rows.insert(pos, 2.0 * rows[a] - 0.5 * rows[b])
    return np.array(rows)


class TestMatchesPerKLoop:
    @pytest.mark.parametrize("reorth", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_well_conditioned(self, seed, reorth):
        tau = random_terms(seed)
        oset = orthogonalize(tau, reorthogonalize=reorth)
        ortho, p, q, skipped = per_k_loop_gram_schmidt(tau, reorth)
        assert oset.skipped == skipped
        assert np.allclose(oset.ortho, ortho, rtol=0, atol=1e-12)
        assert np.allclose(oset.p, p, rtol=0, atol=1e-11)
        assert np.allclose(oset.q, q, rtol=0, atol=1e-10 * max(1.0, np.abs(q).max()))

    @pytest.mark.parametrize("reorth", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_with_skipped_terms(self, seed, reorth):
        tau = dependent_terms(seed)
        oset = orthogonalize(tau, reorthogonalize=reorth)
        ortho, p, q, skipped = per_k_loop_gram_schmidt(tau, reorth)
        assert len(skipped) == 3
        assert oset.skipped == skipped
        kept = oset.retained()
        assert np.allclose(oset.ortho[kept], ortho[kept], rtol=0, atol=1e-12)
        assert np.allclose(oset.p, p, rtol=0, atol=1e-11)
        assert np.allclose(oset.q, q, rtol=0, atol=1e-10 * max(1.0, np.abs(q).max()))
        # a skipped term contributes nothing to any later row of p
        assert not oset.p[:, sorted(skipped)].any()

    @pytest.mark.parametrize("width, n, n_skipped", [(1.0, 10, 0), (0.6, 8, 0), (0.2, 12, 3)])
    def test_reorthogonalize_on_ill_conditioned_terms(self, width, n, n_skipped):
        # nodes crowded into part of the interval: the plain pass loses
        # orthogonality, so the second pass makes a first-order correction
        tau = cheb_columns(np.linspace(-1.0, -1.0 + width, 12), n).T
        oset = orthogonalize(tau, reorthogonalize=True)
        ortho, _, _, skipped = per_k_loop_gram_schmidt(tau, reorthogonalize=True)
        assert oset.skipped == skipped and len(skipped) == n_skipped
        kept = oset.retained()
        assert np.allclose(oset.ortho[kept], ortho[kept], rtol=0, atol=1e-10)
        o = oset.ortho[kept] / np.linalg.norm(oset.ortho[kept], axis=1)[:, None]
        assert np.abs(o @ o.T - np.eye(len(kept))).max() <= 1e-14
