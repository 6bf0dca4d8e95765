"""Orthogonalization and the q coefficient triangle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    heavily clustered nodes make it nearly dependent, which the crowded-node
    cases below cover.
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
        assert oset.q[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_third_component_and_triangles(self):
        oset = orthogonalize(QUAD_TERMS)
        assert oset.ortho[2] == pytest.approx([2 / 3, -4 / 3, 2 / 3], abs=1e-12)
        # tau_2 projects on o_0 with coefficient 1/3 and not at all on o_1
        assert oset.q[2, 0] == pytest.approx(-1 / 3, abs=1e-12)
        assert oset.q[2, 1] == pytest.approx(0.0, abs=1e-15)

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
        off_diag = oset.q[np.tril_indices(m, k=-1)]
        assert np.abs(off_diag).max() <= 1e-9

    @pytest.mark.parametrize("m, n", [(12, 12), (120, 60), (1000, 60)])
    def test_chebyshev_zero_nodes_take_one_pass(self, m, n):
        # no row cancels half its norm here, so no second pass may run: the
        # output equals the one-pass transcription bit for bit
        tau = cheb_columns(cheb_zeros(m), n).T
        oset = orthogonalize(tau)
        ortho, q = one_pass_gram_schmidt(tau)
        assert not oset.skipped
        assert np.array_equal(oset.ortho, ortho)
        assert np.array_equal(oset.q, q)


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

    def test_not_a_2d_array_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize(np.array([1.0, 2.0, 3.0]))

    def test_reorthogonalize_pass_tightens(self):
        # rows 8-11 of these terms cancel more than half their norm; one pass
        # leaves max |cos| = 6e-15, the second pass brings it to rounding
        oset = orthogonalize(random_terms(5, m=12, n=12))
        assert max_cosine(oset) <= 1e-15


def max_cosine(oset):
    """Largest |cos| between two retained orthogonal components."""
    kept = oset.retained()
    o = oset.ortho[kept] / np.linalg.norm(oset.ortho[kept], axis=1)[:, None]
    return np.abs(o @ o.T - np.eye(len(kept))).max()


def one_pass_gram_schmidt(tau, degenerate_rel=1e-12):
    """Block classical Gram-Schmidt with a single projection per row.

    The same products as ``orthogonalize`` in the same order, so wherever
    its second pass does not run the two agree bit for bit.
    """
    n = tau.shape[0]
    ortho, p, q, norm2 = np.zeros_like(tau), np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    skipped = set()
    for j in range(n):
        live = [k for k in range(j) if k not in skipped]
        p[j, live] = (ortho[live] @ tau[j]) / norm2[live]
        ortho[j] = tau[j] - p[j, live] @ ortho[live]
        norm2[j] = ortho[j] @ ortho[j]
        if norm2[j] <= degenerate_rel * (tau[j] @ tau[j]):
            skipped.add(j)
        q[j, :j] = -p[j, :j] @ q[:j, :j]
        q[j, j] = 1.0
    return ortho, q


def per_k_loop_gram_schmidt(tau, always_reproject=False, degenerate_rel=1e-12):
    """Literal per-k transcription: one projection, one subtraction at a time.

    p[j, k] projects tau_j on each retained o_k.  A second pass projects the
    running remainder when the first left less than half of ||tau_j||^2, or
    on every row with ``always_reproject`` (the two-pass reference).  q is
    back-substituted term by term.
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
        if always_reproject or w @ w < 0.5 * (tau[j] @ tau[j]):
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
    return ortho, q, frozenset(skipped)


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


def gathered_gram_schmidt(tau):
    """Literal copy of the block Gram-Schmidt that gathered the live o_k for every row.

    It copies ``ortho[live]`` and ``norm2[live]`` through a fancy index each
    time; ``orthogonalize`` reads them from the front of its one store and
    must give its bits.
    Also returns how many rows took the second pass.
    """
    n = tau.shape[0]
    ortho, q, norm2 = np.zeros_like(tau), np.zeros((n, n)), np.zeros(n)
    skipped = set()
    reprojected = 0
    for j in range(n):
        live = [k for k in range(j) if k not in skipped]
        o_live = ortho[live]
        p = np.zeros(j)
        p[live] = (o_live @ tau[j]) / norm2[live]
        w = tau[j] - p[live] @ o_live
        tau2, w2 = tau[j] @ tau[j], w @ w
        if w2 < 0.5 * tau2:
            reprojected += 1
            extra = (o_live @ w) / norm2[live]
            p[live] += extra
            w -= extra @ o_live
            w2 = w @ w
        ortho[j] = w
        norm2[j] = w2
        if w2 <= 1e-12 * tau2:
            skipped.add(j)
        q[j, :j] = -p @ q[:j, :j]
        q[j, j] = 1.0
    return ortho, q, frozenset(skipped), reprojected


class TestMatchesGatheredLoop:
    """The stacked live set keeps the bits of the gathered one, second pass and skips included."""

    @staticmethod
    def assert_same_bits(tau):
        oset = orthogonalize(tau)
        ortho, q, skipped, reprojected = gathered_gram_schmidt(tau)
        assert oset.skipped == skipped
        assert oset.ortho.tobytes() == ortho.tobytes() and oset.q.tobytes() == q.tobytes()
        return len(skipped), reprojected

    @pytest.mark.parametrize("seed", range(8))
    def test_well_conditioned(self, seed):
        self.assert_same_bits(random_terms(seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_dependent_terms(self, seed):
        skipped, reprojected = self.assert_same_bits(dependent_terms(seed))
        assert skipped == 3 and reprojected >= 3

    @pytest.mark.parametrize("width, n", [(0.6, 8), (0.2, 12)])
    def test_second_pass(self, width, n):
        tau = cheb_columns(np.linspace(-1.0, -1.0 + width, 12), n).T
        assert self.assert_same_bits(tau)[1] > 0

    def test_chebyshev_zero_nodes_at_benchmark_size(self):
        self.assert_same_bits(cheb_columns(cheb_zeros(1000), 60).T)

    # one store holds the live o_k and the remainder; skipped rows rejoin it in term order at the end
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 24),
           width=st.sampled_from([2.0, 0.5, 0.05]), decimals=st.sampled_from([None, 2, 1]))
    def test_crowded_and_repeated_nodes(self, seed, m, n, width, decimals):
        x = -1.0 + width * np.random.default_rng(seed).uniform(0.0, 1.0, m)
        self.assert_same_bits(cheb_columns(x if decimals is None else np.round(x, decimals), n).T)


class TestMatchesPerKLoop:
    # always_reproject=False holds orthogonalize to its own rule; True to the
    # two-pass reference, which the rule must match where it skips the pass
    @pytest.mark.parametrize("always_reproject", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_well_conditioned(self, seed, always_reproject):
        tau = random_terms(seed)
        oset = orthogonalize(tau)
        ortho, q, skipped = per_k_loop_gram_schmidt(tau, always_reproject)
        assert oset.skipped == skipped
        assert np.allclose(oset.ortho, ortho, rtol=0, atol=1e-12)
        assert np.allclose(oset.q, q, rtol=0, atol=1e-10 * max(1.0, np.abs(q).max()))

    @pytest.mark.parametrize("always_reproject", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_with_skipped_terms(self, seed, always_reproject):
        tau = dependent_terms(seed)
        oset = orthogonalize(tau)
        ortho, q, skipped = per_k_loop_gram_schmidt(tau, always_reproject)
        assert len(skipped) == 3
        assert oset.skipped == skipped
        kept = oset.retained()
        assert np.allclose(oset.ortho[kept], ortho[kept], rtol=0, atol=1e-12)
        assert np.allclose(oset.q, q, rtol=0, atol=1e-10 * max(1.0, np.abs(q).max()))
        # a skipped term contributes nothing to any later row of q
        assert not np.tril(oset.q, -1)[:, sorted(skipped)].any()

    @pytest.mark.parametrize("width, n, n_skipped", [(1.0, 10, 0), (0.6, 8, 0), (0.2, 12, 3)])
    def test_reorthogonalize_on_ill_conditioned_terms(self, width, n, n_skipped):
        # nodes crowded into part of the interval: one pass loses
        # orthogonality, so the rule sends these rows through the second pass
        tau = cheb_columns(np.linspace(-1.0, -1.0 + width, 12), n).T
        oset = orthogonalize(tau)
        ortho, _, skipped = per_k_loop_gram_schmidt(tau)
        assert oset.skipped == skipped and len(skipped) == n_skipped
        kept = oset.retained()
        assert np.allclose(oset.ortho[kept], ortho[kept], rtol=0, atol=1e-10)
        assert max_cosine(oset) <= 1e-14

    @pytest.mark.parametrize("n", [10, 14, 16, 20])
    def test_crowded_square_node_sets_stay_orthogonal(self, n):
        # n nodes on [-1, -0.4], n terms: one pass leaves max |cos| near 1
        tau = cheb_columns(np.linspace(-1.0, -0.4, n), n).T
        oset = orthogonalize(tau)
        _, _, skipped = per_k_loop_gram_schmidt(tau)
        assert oset.skipped == skipped
        assert max_cosine(oset) <= 1e-14
