"""Basis columns, zeros, domain maps, term vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cvb.basis import (
    MIN_NODE_GAP,
    DomainMap,
    IDENTITY_MAP,
    SampleSet1D,
    auto_map,
    cheb_columns,
    cheb_zeros,
)
from cvb.fit2d import SampleSet2D, TermIndex2D, term_matrix

THREE_NODES = SampleSet1D(x=[-1.0, 0.0, 1.0], y=[0.0, 1.0, 4.0])


def backward(dmap, t):
    """Oracle: raw coordinates of basis coordinates t, the inverse of ``dmap.forward``."""
    return (dmap.lo * (1.0 - t) + dmap.hi * (1.0 + t)) / 2.0


def cheb_eval(j, x):
    """Oracle: first-kind Chebyshev value T_j(x) by the three-term recurrence."""
    t_prev, t_cur = 1.0, float(x)
    if j == 0:
        return t_prev
    for _ in range(j - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def column(j, x):
    """T_j at the points x, taken from ``cheb_columns``."""
    return cheb_columns(x, j + 1)[..., j]


class TestChebEval:
    def test_order_zero_is_one(self):
        assert column(0, [0.37]).tolist() == [1.0]

    def test_order_one_is_identity(self):
        assert column(1, [-0.5]).tolist() == [-0.5]

    def test_order_two(self):
        assert column(2, [0.0, 1.0]).tolist() == [-1.0, 1.0]

    def test_clamps_marginal_overshoot(self):
        s = SampleSet1D(x=[1.0 + 5e-13, -1.0 - 5e-13], y=[0.0, 0.0])
        assert s.x.tolist() == [1.0, -1.0]
        assert column(3, s.x).tolist() == [1.0, -1.0]

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            SampleSet1D(x=[1.0 + 1e-9], y=[0.0])
        with pytest.raises(ValueError):
            SampleSet1D(x=[-1.001], y=[0.0])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            cheb_columns([0.0], 0)

    @pytest.mark.parametrize("j", range(2, 31))
    def test_matches_cosine_closed_form_on_grid(self, j):
        # independent oracle: T_j(x) = cos(j arccos x)
        x = np.linspace(-1.0, 1.0, 2001)
        expected = np.cos(j * np.arccos(x))
        assert np.abs(column(j, x) - expected).max() <= 1e-9

    @given(st.integers(2, 40), st.floats(-1.0, 1.0))
    def test_matches_cosine_closed_form_random(self, j, x):
        assert column(j, [x])[0] == pytest.approx(math.cos(j * math.acos(x)), abs=1e-9)

    @given(st.integers(0, 40), st.floats(-1.0, 1.0))
    def test_bounded_by_one(self, j, x):
        assert abs(column(j, [x])[0]) <= 1.0 + 1e-9


class TestChebZeros:
    def test_single_zero_at_origin(self):
        assert cheb_zeros(1) == pytest.approx([0.0], abs=1e-12)

    def test_two_zeros(self):
        expected = [math.cos(math.pi / 4), math.cos(3 * math.pi / 4)]
        assert cheb_zeros(2) == pytest.approx(expected)

    def test_three_zeros_match_factorization(self):
        # T_3 = 4x^3 - 3x = x (4x^2 - 3): roots are +-sqrt(3)/2 and 0
        expected = [math.sqrt(3) / 2, 0.0, -math.sqrt(3) / 2]
        assert cheb_zeros(3) == pytest.approx(expected, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cheb_zeros(0)

    @pytest.mark.parametrize("n", range(1, 20))
    def test_are_roots_in_descending_order(self, n):
        zs = cheb_zeros(n)
        assert all(abs(cheb_eval(n, z)) <= 1e-12 for z in zs)
        assert np.all(np.diff(zs) < 0) or n == 1

    @pytest.mark.parametrize("n", range(1, 15))
    def test_consecutive_orders_share_no_zero(self, n):
        a, b = cheb_zeros(n), cheb_zeros(n + 1)
        assert np.abs(a[:, None] - b[None, :]).min() > 1e-9


class TestDomainMap:
    def test_endpoints_exact(self):
        dm = DomainMap(0.1, 0.3)
        assert dm.forward(0.1) == -1.0
        assert dm.forward(0.3) == 1.0
        assert backward(dm, -1.0) == 0.1
        assert backward(dm, 1.0) == 0.3

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            DomainMap(1.0, 1.0)
        with pytest.raises(ValueError):
            DomainMap(2.0, -1.0)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-6, 1e6),
        st.floats(0.0, 1.0),
    )
    def test_round_trip(self, lo, span, frac):
        dm = DomainMap(lo, lo + span)
        x = lo + frac * span
        back = backward(dm, dm.forward(x))
        assert abs(back - x) <= 1e-14 * (abs(x) + span)

    def test_identity_map_fixed_points(self):
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert IDENTITY_MAP.forward(x) == x

    def test_auto_map_keeps_normalized_data(self):
        assert auto_map([-1.0, 0.2, 1.0]) == IDENTITY_MAP

    def test_auto_map_pads_raw_data(self):
        dm = auto_map([0.0, 100.0])
        assert dm.lo == pytest.approx(-1.0)
        assert dm.hi == pytest.approx(101.0)
        assert dm.forward(0.0) > -1.0 and dm.forward(100.0) < 1.0


class TestSampleSets:
    def test_rejects_duplicate_abscissae(self):
        with pytest.raises(ValueError):
            SampleSet1D(x=[0.0, 0.0], y=[1.0, 2.0])

    def test_rejects_near_duplicate_abscissae(self):
        with pytest.raises(ValueError):
            SampleSet1D(x=[0.0, 1e-13], y=[1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet1D(x=[], y=[])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SampleSet1D(x=[0.0, 1.5], y=[1.0, 2.0])

    def test_single_point_allowed(self):
        assert SampleSet1D(x=[0.5], y=[2.0]).m == 1

    def test_2d_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError):
            SampleSet2D(x=[0.0, 0.0], y=[0.5, 0.5], z=[1.0, 2.0])

    def test_2d_allows_shared_coordinate(self):
        s = SampleSet2D(x=[0.0, 0.0], y=[0.2, 0.5], z=[1.0, 2.0])
        assert s.m == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda d: SampleSet1D(x=[0.0, d], y=[1.0, 2.0]),
            lambda d: SampleSet2D(x=[0.0, d], y=[0.5, 0.5], z=[1.0, 2.0]),
            lambda d: SampleSet2D(x=[0.5, 0.5], y=[0.0, d], z=[1.0, 2.0]),
        ],
        ids=["1d", "2d-along-x", "2d-along-y"],
    )
    def test_one_gap_rule_for_curves_and_surfaces(self, make):
        with pytest.raises(ValueError, match="distinct"):
            make(MIN_NODE_GAP)
        assert make(2 * MIN_NODE_GAP).m == 2

    def test_caller_arrays_stay_writable(self):
        x, y, z = np.array([-0.5, 0.5]), np.array([0.1, 0.2]), np.array([3.0, 4.0])
        s1, s2 = SampleSet1D(x=x, y=z), SampleSet2D(x=x, y=y, z=z)
        for a in (x, y, z):
            a[0] = 0.25
        assert s1.y.tolist() == [3.0, 4.0] and s2.z.tolist() == [3.0, 4.0]
        assert not (s1.x.flags.writeable or s1.y.flags.writeable or s2.z.flags.writeable)

    def test_points_preserve_input_order(self):
        s = SampleSet1D(x=[0.5, -0.5, 0.0], y=[1.0, 2.0, 3.0])
        assert (s.x.tolist(), s.y.tolist()) == ([0.5, -0.5, 0.0], [1.0, 2.0, 3.0])
        s2 = SampleSet2D(x=[0.1, -0.1], y=[0.2, 0.3], z=[4.0, 5.0])
        assert (s2.x.tolist(), s2.y.tolist(), s2.z.tolist()) == ([0.1, -0.1], [0.2, 0.3], [4.0, 5.0])


class TestTermVectors:
    def test_three_node_columns(self):
        tau = cheb_columns(THREE_NODES.x, 3).T
        assert tau.tolist() == [[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 1.0]]

    def test_matches_cheb_eval_exactly(self):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(-1, 1, 7))
        tau = cheb_columns(x, 6).T
        for j in range(6):
            assert tau[j].tolist() == [cheb_eval(j, xi) for xi in x]

    def test_2d_constant_term(self):
        s = SampleSet2D(x=[0.1, -0.4], y=[0.9, 0.3], z=[0.0, 0.0])
        assert term_matrix(s, [TermIndex2D(0, 0)]).tolist() == [[1.0, 1.0]]

    def test_2d_linear_terms(self):
        s = SampleSet2D(x=[0.5], y=[-0.5], z=[0.0])
        assert term_matrix(s, [TermIndex2D(1, 0), TermIndex2D(1, 1)]).tolist() == [[0.5], [-0.25]]

    def test_component_count_matches_samples(self):
        assert cheb_columns(THREE_NODES.x, 5).shape == (THREE_NODES.m, 5)
