"""Basis columns, zeros, domain maps, term vectors."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.chebyshev import chebvander

from cvb.basis import (
    MIN_NODE_GAP,
    DomainMap,
    ExtrapolationWarning,
    IDENTITY_MAP,
    SampleSet1D,
    auto_map,
    cheb_columns,
    cheb_zeros,
    warn_if_extrapolating,
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

    @pytest.mark.parametrize("cls, name, others", [
        (SampleSet1D, "x", {"y": [0.0, 0.0]}),
        (SampleSet2D, "x", {"y": [0.0, 0.0], "z": [0.0, 0.0]}),
        (SampleSet2D, "y", {"x": [0.0, 0.0], "z": [0.0, 0.0]}),
    ], ids=["1d", "2d-x", "2d-y"])
    def test_clamp_tolerance_lies_between_1e_13_and_1e_11(self, cls, name, others):
        # an overshoot of 1e-13 is clamped and one of 1e-11 refused, so CLAMP_TOL lies between them
        samples = cls(**{name: [1.0 + 1e-13, -1.0 - 1e-13]}, **others)
        assert getattr(samples, name).tolist() == [1.0, -1.0]
        with pytest.raises(ValueError, match=rf"sample {name} value .*1\.00000000001.* lies outside \[-1, 1\]"):
            cls(**{name: [0.0, 1.0 + 1e-11]}, **others)

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


# values where a recurrence's bits are easiest to lose: signed zeros, the
# float range's ends, subnormals, inf and NaN
EDGE_X = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
          1.0, -1.0, 0.5]
edge_floats = st.sampled_from(EDGE_X) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
shapes = st.sampled_from([()]) | st.tuples(st.integers(0, 9)) | st.tuples(st.integers(1, 4), st.integers(1, 4))


class TestChebvanderOracle:
    """``cheb_columns`` has numpy's ``chebvander`` shape and bits for any input."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), x=shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=edge_floats)))
    def test_bit_for_bit(self, n, x):
        with np.errstate(all="ignore"):  # inf and NaN inputs, overflowing orders
            got, want = cheb_columns(x, n), chebvander(x, n - 1)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_edge_value_at_every_order(self, n):
        x = np.array(EDGE_X)
        with np.errstate(all="ignore"):
            for arg in (x, x.reshape(1, -1), *x.tolist()):
                got, want = cheb_columns(arg, n), chebvander(arg, n - 1)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_non_finite_bound(self, lo, hi):
        with pytest.raises(ValueError, match="domain bounds must be finite"):
            DomainMap(lo, hi)

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

    @pytest.mark.parametrize("make, names", [
        (lambda: SampleSet1D(x=[0.0, 0.5], y=[1.0]), "x, y"),
        (lambda: SampleSet1D(x=[[0.0, 0.5]], y=[[1.0, 2.0]]), "x, y"),
        (lambda: SampleSet2D(x=[0.0, 0.5], y=[0.0, 0.5], z=[1.0, 2.0, 3.0]), "x, y, z"),
    ], ids=["1d-unequal", "1d-two-dimensional", "2d-unequal"])
    def test_rejects_arrays_of_another_shape(self, make, names):
        with pytest.raises(ValueError, match=f"^{names} must be 1-D arrays of equal length$"):
            make()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda bad: SampleSet1D(x=[0.0, bad], y=[1.0, 2.0]),
        lambda bad: SampleSet1D(x=[0.0, 0.5], y=[1.0, bad]),
        lambda bad: SampleSet2D(x=[0.0, 0.5], y=[bad, 0.5], z=[1.0, 2.0]),
        lambda bad: SampleSet2D(x=[0.0, 0.5], y=[0.0, 0.5], z=[bad, 2.0]),
    ], ids=["1d-x", "1d-y", "2d-y", "2d-z"])
    def test_rejects_non_finite_values(self, make, value):
        with pytest.raises(ValueError, match="^sample values must be finite$"):
            make(value)

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


def mask_rule_leaves(dmap, x):
    """Oracle: the per-point mask rule, whether some point of x lies outside [lo - pad, hi + pad]."""
    x = np.asarray(x, dtype=float)
    pad = 1e-12 * (dmap.hi - dmap.lo)
    return not np.all((x >= dmap.lo - pad) & (x <= dmap.hi + pad))


@st.composite
def extrapolation_cases(draw):
    """A domain map and points around it: the padded edges, one step beyond each, NaN, infinities, any float."""
    lo = draw(st.floats(-1e300, 1e300))
    hi = draw(st.floats(-1e300, 1e300).filter(lambda h: h > lo) | st.just(np.nextafter(lo, np.inf)))
    dmap = draw(st.sampled_from([DomainMap(lo, hi), IDENTITY_MAP]))
    pad = 1e-12 * (dmap.hi - dmap.lo)
    edges = [dmap.lo - pad, dmap.hi + pad]
    near = st.sampled_from([*edges, np.nextafter(edges[0], -np.inf), np.nextafter(edges[1], np.inf),
                            dmap.lo, dmap.hi, np.nan, np.inf, -np.inf, -0.0])
    inside = st.floats(dmap.lo, dmap.hi)
    points = st.lists(st.one_of(inside, inside, near, st.floats()), max_size=8)
    x = draw(st.one_of(
        points.map(lambda v: np.array(v, dtype=float)),
        st.one_of(inside, near).map(np.float64),  # a 0-d input
        st.one_of(inside, near),  # a Python float
        points.map(lambda v: np.array(v + v, dtype=float).reshape(2, -1)),
        st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=5).map(lambda v: np.array(v, dtype=np.int64)),
    ))
    return dmap, x


class TestExtrapolationCheck:
    @settings(max_examples=400, deadline=None)
    @given(case=extrapolation_cases())
    @example(case=(IDENTITY_MAP, np.array([])))
    @example(case=(IDENTITY_MAP, np.float64(np.nan)))
    @example(case=(IDENTITY_MAP, np.array([0.5, np.nan, 0.25])))
    @example(case=(IDENTITY_MAP, np.array([-1.0 - 2e-12, 1.0 + 2e-12])))
    @example(case=(IDENTITY_MAP, np.array([np.nextafter(1.0 + 2e-12, 2.0)])))
    @example(case=(IDENTITY_MAP, np.array([-np.inf])))
    @example(case=(DomainMap(0.0, 640.0), np.array([0, 640, 641], dtype=np.int64)))
    def test_the_extremes_decide_as_the_point_mask_did(self, case):
        dmap, x = case
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert warn_if_extrapolating(dmap, x, axis="y", stacklevel=2) is None
        expect = [f"evaluation outside the fitted y interval [{dmap.lo}, {dmap.hi}]"] * mask_rule_leaves(dmap, x)
        assert [str(w.message) for w in caught] == expect
        assert all(w.category is ExtrapolationWarning and w.filename == __file__ for w in caught)

    @pytest.mark.parametrize("leaves", [False, True])
    def test_the_check_allocates_nothing_per_point(self, leaves):
        x = np.linspace(-1.0, 1.0, 10**6)
        x[-1] += leaves
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracemalloc.start()
            try:
                warn_if_extrapolating(IDENTITY_MAP, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(caught) == leaves
        assert peak < 64 * 1024, peak
