"""Bivariate fitting: visit ordering, revisit restriction, triangular surfaces."""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import chebyshev as C

from cvb import fit1d
from cvb.basis import MIN_NODE_GAP, DomainMap, ExtrapolationWarning, SampleSet1D, cheb_zeros
from cvb.fit1d import FitConfig, cvb_approximate
from cvb.fit2d import (
    ChebModel2D,
    SampleSet2D,
    TermIndex2D,
    _grid_factors,
    cvb_approximate_2d,
    eval_model_2d,
    revisit_set,
    term_matrix,
    visit_order,
)

T = TermIndex2D


def backward(dmap, t):
    """Oracle: raw coordinates of basis coordinates t, the inverse of ``dmap.forward``."""
    return (dmap.lo * (1.0 - t) + dmap.hi * (1.0 + t)) / 2.0


def eval_grid_2d(model, x, y):
    """One surface on the tensor grid of raw 1-D axes, from the factors the warp uses."""
    ((left, right),) = _grid_factors((model,), x, y)
    return left @ right


def lstsq_oracle(samples, n):
    """Dense least-squares fit over the full triangular basis (independent route)."""
    order = visit_order(n)
    design = term_matrix(samples, order).T
    coeffs, *_ = np.linalg.lstsq(design, samples.z, rcond=None)
    return dict(zip(order, coeffs))


def grid_samples(g, z_fn, nodes="equi"):
    gx = np.linspace(-1, 1, g) if nodes == "equi" else cheb_zeros(g)
    xx, yy = np.meshgrid(gx, gx)
    x, y = xx.ravel(), yy.ravel()
    return SampleSet2D(x=x, y=y, z=z_fn(x, y))


class TestVisitOrder:
    def test_degree_one(self):
        assert visit_order(1) == [T(0, 0)]

    def test_degree_three(self):
        assert visit_order(3) == [T(0, 0), T(0, 1), T(1, 0), T(0, 2), T(2, 0), T(1, 1)]

    def test_degree_four_extends_three(self):
        assert visit_order(4) == visit_order(3) + [T(0, 3), T(3, 0), T(1, 2), T(2, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            visit_order(0)

    @given(st.integers(1, 12))
    def test_length_and_strict_key_order(self, n):
        order = visit_order(n)
        assert len(order) == n * (n + 1) // 2
        keys = [(t.i + t.j, min(t.i, t.j), t.i) for t in order]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(t.i + t.j < n for t in order)


class TestRevisitSet:
    def test_first_term_has_no_revisits(self):
        assert revisit_set(T(0, 0), visit_order(3)) == []

    def test_diagonal_term(self):
        assert revisit_set(T(1, 1), visit_order(3)) == [T(1, 0), T(0, 1), T(0, 0)]

    def test_axis_term_excludes_other_axis(self):
        assert revisit_set(T(2, 0), visit_order(3)) == [T(1, 0), T(0, 0)]

    def test_unknown_term_rejected(self):
        with pytest.raises(ValueError):
            revisit_set(T(5, 5), visit_order(3))

    @given(st.integers(1, 9))
    def test_only_dominated_predecessors_in_reverse_order(self, n):
        order = visit_order(n)
        pos = {t: p for p, t in enumerate(order)}
        for last in order:
            rev = revisit_set(last, order)
            assert all(t.i <= last.i and t.j <= last.j and t != last for t in rev)
            positions = [pos[t] for t in rev]
            assert positions == sorted(positions, reverse=True)
            assert all(p < pos[last] for p in positions)



class TestSweepPlan:
    """The plan each fitter sweeps, held to the literal visit/revisit rule.

    After visiting a term the fitters revisit, latest first, the earlier
    terms it dominates: every lower degree of a curve, every term of a
    surface that ``revisit_set`` names.  Skipped terms are neither visited
    nor revisited, and extra sweeps repeat the whole pass.
    """

    @pytest.fixture
    def plans(self, monkeypatch):
        plans = []
        sweep = fit1d._sweep

        def record(*args, **kwargs):
            call = inspect.signature(sweep).bind(*args, **kwargs)
            call.apply_defaults()
            term, visit = call.arguments["plan"]  # one pass, swept ``sweeps`` times
            pairs = [(t, "visit" if t == v else "revisit") for t, v in zip(term.tolist(), visit.tolist())]
            plans.append(pairs * call.arguments["sweeps"])
            # only the plan is under test: at epsilon 0 a zero target stops before the first visit
            call.arguments["gamma"] = np.zeros_like(call.arguments["gamma"])
            return sweep(*call.args, **call.kwargs)

        monkeypatch.setattr(fit1d, "_sweep", record)
        return plans

    @staticmethod
    def literal(revisits, skipped, extra_sweeps):
        sweep = []
        for t, earlier in enumerate(revisits):
            if t not in skipped:
                sweep += [(t, "visit")] + [(k, "revisit") for k in earlier if k not in skipped]
        return sweep * (extra_sweeps + 1)

    def test_surface_plan_is_revisit_set_by_position(self, plans):
        rng = np.random.default_rng(20)
        for n in range(1, 31):
            order = visit_order(n)
            pos = {t: p for p, t in enumerate(order)}
            revisits = [[pos[t] for t in revisit_set(last, order)] for last in order]
            x = rng.uniform(-1.0, 1.0, 40)
            # at y = 0 every T_j(y) of odd j is 0, so those terms are skipped
            for y, skipped in ((rng.uniform(-1.0, 1.0, 40), set()), (np.zeros(40), {pos[t] for t in order if t.j % 2})):
                samples = SampleSet2D(x=x, y=y, z=np.sin(3 * x) + y)
                for extra_sweeps in (0, 2):
                    _, report = cvb_approximate_2d(samples, FitConfig(0.0, n, extra_sweeps))
                    assert [pos[t] for t in report.skipped] == sorted(skipped)
                    assert plans == [self.literal(revisits, skipped, extra_sweeps)], (n, skipped, extra_sweeps)
                    plans.clear()

    def test_curve_plan_revisits_every_lower_degree(self, plans):
        x = cheb_zeros(100)
        # at the one sample x = 0 every T_j of odd j is 0, so those terms are skipped
        for samples in (SampleSet1D(x=x, y=np.sin(3 * x)), SampleSet1D(x=[0.0], y=[3.0])):
            for n in range(1, 81):
                skipped = set(range(1, n, 2)) if samples.m == 1 else set()
                for extra_sweeps in (0, 2):
                    _, report = cvb_approximate(samples, FitConfig(0.0, n, extra_sweeps))
                    assert list(report.skipped) == sorted(skipped)
                    revisits = [range(j - 1, -1, -1) for j in range(n)]
                    assert plans == [self.literal(revisits, skipped, extra_sweeps)], (n, skipped, extra_sweeps)
                    plans.clear()


class TestApproximate2D:
    def test_constant_surface_converges_on_first_visit(self):
        s = grid_samples(3, lambda x, y: np.full_like(x, 4.25))
        model, report = cvb_approximate_2d(s, FitConfig(epsilon=1e-12, max_terms=4))
        assert model.coeffs == {T(0, 0): pytest.approx(4.25, abs=1e-12)}
        assert report.converged
        assert report.trace[0].term == T(0, 0)

    def test_product_surface(self):
        s = grid_samples(4, lambda x, y: x * y)
        model, report = cvb_approximate_2d(s, FitConfig(epsilon=1e-9, max_terms=3))
        assert model.coeffs.get(T(1, 1)) == pytest.approx(1.0, abs=1e-9)
        others = [v for k, v in model.coeffs.items() if k != T(1, 1)]
        assert all(abs(v) <= 1e-9 for v in others)
        assert report.converged
        oracle = lstsq_oracle(s, 3)
        assert oracle[T(1, 1)] == pytest.approx(1.0, abs=1e-9)

    def test_pure_degree_two_term(self):
        s = grid_samples(4, lambda x, y: 2 * x**2 - 1)
        model, report = cvb_approximate_2d(s, FitConfig(epsilon=1e-9, max_terms=3, extra_sweeps=5))
        assert report.converged
        assert model.coeffs.get(T(2, 0)) == pytest.approx(1.0, abs=1e-8)
        others = [v for k, v in model.coeffs.items() if k != T(2, 0)]
        assert all(abs(v) <= 1e-8 for v in others)
        oracle = lstsq_oracle(s, 3)
        assert oracle[T(2, 0)] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_recovers_representable_surfaces(self, seed):
        # chebyshev-zero tensor grids keep the term vectors well conditioned
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 6))
        g = max(n, 4)
        order = visit_order(n)
        truth = ChebModel2D(coeffs={t: float(rng.uniform(-1, 1)) for t in order}, degree_bound=n)
        s = grid_samples(g, lambda x, y: eval_model_2d(truth, x, y), nodes="cheb")
        assert s.m >= n * (n + 1) // 2
        model, _ = cvb_approximate_2d(s, FitConfig(epsilon=0.0, max_terms=n, extra_sweeps=5))
        resid = np.abs(s.z - eval_model_2d(model, s.x, s.y)).max()
        assert resid <= 1e-6 * (np.abs(s.z).max() + 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_l2_residual_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        s = grid_samples(4, lambda x, y: rng.standard_normal(x.shape))
        _, report = cvb_approximate_2d(s, FitConfig(epsilon=0.0, max_terms=4, extra_sweeps=1))
        norms = [step.l2_residual for step in report.trace]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_linearity_in_targets(self, seed):
        rng = np.random.default_rng(200 + seed)
        gx = np.linspace(-1, 1, 4)
        xx, yy = np.meshgrid(gx, gx)
        x, y = xx.ravel(), yy.ravel()
        z1 = rng.uniform(-5, 5, x.size)
        z2 = rng.uniform(-5, 5, x.size)
        config = FitConfig(epsilon=0.0, max_terms=4)
        s_fac = 2.5

        def fit(z):
            model, _ = cvb_approximate_2d(SampleSet2D(x=x, y=y, z=z), config)
            return model

        a1, a2 = fit(z1), fit(z2)
        a_scaled, a_sum = fit(s_fac * z1), fit(z1 + z2)
        scale = max(abs(v) for v in a1.coeffs.values()) + 1.0
        for t in visit_order(4):
            v1 = a1.coeffs.get(t, 0.0)
            v2 = a2.coeffs.get(t, 0.0)
            assert a_scaled.coeffs.get(t, 0.0) == pytest.approx(s_fac * v1, abs=1e-10 * s_fac * scale)
            assert a_sum.coeffs.get(t, 0.0) == pytest.approx(v1 + v2, abs=1e-9 * scale)

    def test_trace_carries_2d_labels_and_revisit_structure(self):
        rng = np.random.default_rng(7)
        s = grid_samples(4, lambda x, y: rng.standard_normal(x.shape))
        _, report = cvb_approximate_2d(s, FitConfig(epsilon=0.0, max_terms=3))
        order = visit_order(3)
        visits = [step.term for step in report.trace if step.kind == "visit"]
        assert visits == order
        i = 0
        for step in report.trace:
            if step.kind == "visit":
                expected = revisit_set(step.term, order)
                i = report.trace.index(step)
                got = [r.term for r in report.trace[i + 1 : i + 1 + len(expected)]]
                assert got == expected

    def test_degenerate_term_vectors_skipped_and_recorded(self):
        # all samples on the line x = 0: every term with i >= 1 odd in x vanishes
        y = np.linspace(-1, 1, 6)
        s = SampleSet2D(x=np.zeros(6), y=y, z=1.0 + y)
        model, report = cvb_approximate_2d(s, FitConfig(epsilon=1e-12, max_terms=3))
        assert T(1, 0) in report.skipped and T(1, 1) in report.skipped
        assert report.converged
        assert eval_model_2d(model, 0.0, 0.25) == pytest.approx(1.25, abs=1e-12)

    def test_visited_zero_increment_terms_still_enable_revisits(self):
        # odd surface: constant term gets a zero increment but is still revisited
        s = grid_samples(5, lambda x, y: x * y)
        _, report = cvb_approximate_2d(s, FitConfig(epsilon=0.0, max_terms=3))
        zero_visits = [t for t in report.trace if t.kind == "visit" and t.increment == 0.0]
        assert zero_visits, "expected at least one zero-increment visit"
        revisited = {t.term for t in report.trace if t.kind == "revisit"}
        assert T(0, 0) in revisited

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_report_residuals_equal_the_last_trace_step(self, epsilon):
        s = grid_samples(5, lambda x, y: np.exp(x) * np.cos(2 * y))
        _, report = cvb_approximate_2d(s, FitConfig(epsilon=epsilon, max_terms=4))
        last = report.trace[-1]
        assert (report.max_abs_residual, report.l2_residual) == (last.max_abs_residual, last.l2_residual)

    def test_empty_trace_reports_the_data(self):
        s = grid_samples(5, lambda x, y: np.exp(x) * np.cos(2 * y))
        _, report = cvb_approximate_2d(s, FitConfig(epsilon=float(np.abs(s.z).max()), max_terms=4))
        assert report.trace == () and report.converged
        assert report.max_abs_residual == max(abs(v) for v in s.z)
        assert report.l2_residual == pytest.approx(np.sqrt(np.sum(s.z**2)), rel=1e-15)


class TestCoefficientOrder:
    def test_model_keeps_coefficients_in_visit_order(self):
        order = visit_order(5)
        rng = np.random.default_rng(3)
        shuffled = [order[k] for k in rng.permutation(len(order))]
        model = ChebModel2D(coeffs={t: 1.0 + k for k, t in enumerate(shuffled)}, degree_bound=5)
        assert list(model.coeffs) == order
        assert model.coeffs == {t: 1.0 + k for k, t in enumerate(shuffled)}


def has_close_pair_brute_force(x, y):
    """All-pairs check, m x m memory: is some dx^2 + dy^2 <= MIN_NODE_GAP^2?"""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    gap2 = dx * dx + dy * dy
    np.fill_diagonal(gap2, np.inf)
    return bool(gap2.min() <= MIN_NODE_GAP**2)


def builds(x, y):
    try:
        SampleSet2D(x=x, y=y, z=np.zeros(len(x)))
    except ValueError as exc:
        assert "distinct" in str(exc)
        return False
    return True


def calibration_grid(nx, ny):
    xx, yy = np.meshgrid(np.linspace(-0.9, 0.9, nx), np.linspace(-0.9, 0.9, ny))
    return xx.ravel(), yy.ravel()


class TestDistinctPairs:
    # offsets straddling the gap, including dx^2 + dy^2 right at MIN_NODE_GAP^2
    OFFSETS = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.6, 0.8), (0.8, 0.6), (0.7, 0.7),
               (1.0, 0.0), (0.0, 1.0), (1.0, 1e-3), (0.0, 1.5), (1.5, 0.0), (2.0, 2.0)]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_all_pairs_check(self, seed):
        rng = np.random.default_rng(seed)
        cols = rng.uniform(-0.9, 0.9, int(rng.integers(1, 6)))
        x = rng.choice(cols, int(rng.integers(2, 40)))  # exact-tie columns
        y = rng.uniform(-0.9, 0.9, x.size)
        for _ in range(int(rng.integers(0, 3))):
            k = int(rng.integers(x.size))
            ox, oy = self.OFFSETS[int(rng.integers(len(self.OFFSETS)))]
            x = np.append(x, x[k] + ox * MIN_NODE_GAP * rng.choice([-1, 1]))
            y = np.append(y, y[k] + oy * MIN_NODE_GAP * rng.choice([-1, 1]))
        perm = rng.permutation(x.size)
        x, y = x[perm], y[perm]
        assert builds(x, y) == (not has_close_pair_brute_force(x, y))

    @pytest.mark.parametrize("ox, oy", OFFSETS)
    def test_planted_offset_matches_rule(self, ox, oy):
        x, y = calibration_grid(5, 4)
        x = np.append(x, x[7] + ox * MIN_NODE_GAP)
        y = np.append(y, y[7] + oy * MIN_NODE_GAP)
        assert builds(x, y) == (not has_close_pair_brute_force(x, y))

    def test_tie_columns_pass_and_reject_in_column_near_duplicate(self):
        x, y = calibration_grid(6, 3)
        assert builds(x, y)
        assert not builds(np.append(x, x[4]), np.append(y, y[4] + 0.5 * MIN_NODE_GAP))
        # a near-duplicate in the neighbouring column position, x just above a tie run
        assert not builds(np.append(x, x[4] + 0.5 * MIN_NODE_GAP), np.append(y, y[4]))
        assert builds(np.append(x, x[4] + 3 * MIN_NODE_GAP), np.append(y, y[4]))

    def test_single_column(self):
        y = np.linspace(-1, 1, 5000)
        assert builds(np.zeros_like(y), y)
        assert not builds(np.zeros(3), [0.1, 0.2, 0.1])

    def test_fifty_thousand_points_in_linear_memory(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, 50_000), rng.uniform(-1, 1, 50_000)
        tracemalloc.start()
        try:
            assert builds(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # an all-pairs matrix would need 20 GB
        x[123], y[123] = x[40_000] + 0.3 * MIN_NODE_GAP, y[40_000] - 0.3 * MIN_NODE_GAP
        assert not builds(x, y)

    def test_fifty_thousand_point_grid_with_tie_columns(self):
        x, y = calibration_grid(250, 200)
        assert builds(x, y)
        assert not builds(np.append(x, x[-77]), np.append(y, y[-77]))


class TestTermMatrix:
    def test_rows_are_products_of_chebyshev_columns(self):
        rng = np.random.default_rng(6)
        s = SampleSet2D(x=rng.uniform(-1, 1, 40), y=rng.uniform(-1, 1, 40), z=np.zeros(40))
        order = visit_order(7)
        tau = term_matrix(s, order)
        vx, vy = C.chebvander(s.x, 6), C.chebvander(s.y, 6)
        assert tau.flags.c_contiguous and tau.shape == (len(order), 40)
        assert tau.tobytes() == np.array([vx[:, i] * vy[:, j] for i, j in order]).tobytes()

    @pytest.mark.parametrize("order", [[T(0, 0)], [T(3, 0)], [T(0, 4), T(1, 1)]])
    def test_any_order_of_terms(self, order):
        s = SampleSet2D(x=[0.3, -0.8, 0.9], y=[-0.2, 0.6, 1.0], z=[0.0, 0.0, 0.0])
        vx, vy = C.chebvander(s.x, 4), C.chebvander(s.y, 4)
        assert term_matrix(s, order).tolist() == [(vx[:, i] * vy[:, j]).tolist() for i, j in order]

    def test_memory_is_the_result_and_the_column_rows(self):
        # the result is allocated once and filled row by row, so nothing the
        # size of the result is held beside it
        rng = np.random.default_rng(7)
        m, n = 2000, 12
        s = SampleSet2D(x=rng.uniform(-1, 1, m), y=rng.uniform(-1, 1, m), z=np.zeros(m))
        order = visit_order(n)
        tracemalloc.start()
        try:
            tau = term_matrix(s, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tau.nbytes + 2 * n * m * 8 + 16 * 2**10


class TestIncrementalResidual2D:
    def test_replayed_trace_matches_full_recompute(self):
        # surface traces carry no snapshots: rebuild the coefficients from the increments
        rng = np.random.default_rng(5)
        s = grid_samples(7, lambda x, y: np.exp(x) * np.cos(2 * y) + 0.1 * rng.standard_normal(x.shape))
        n = 5
        _, report = cvb_approximate_2d(s, FitConfig(epsilon=0.0, max_terms=n, extra_sweeps=20))
        order = visit_order(n)
        tau = term_matrix(s, order)
        pos = {t: p for p, t in enumerate(order)}
        a = np.zeros(len(order))
        scale = max(1.0, float(np.abs(s.z).max()))
        for step in report.trace:
            a[pos[step.term]] += step.increment
            delta = s.z - a @ tau
            assert abs(step.max_abs_residual - np.abs(delta).max()) <= 1e-12 * scale
            assert abs(step.l2_residual - np.linalg.norm(delta)) <= 1e-12 * scale


class TestEvalModel2D:
    def test_all_zero_coefficients(self):
        model = ChebModel2D(coeffs={}, degree_bound=3)
        assert eval_model_2d(model, 0.3, -0.7) == 0.0

    def test_constant(self):
        model = ChebModel2D(coeffs={T(0, 0): 2.0}, degree_bound=3)
        assert eval_model_2d(model, 0.9, -0.1) == 2.0

    def test_bilinear_term(self):
        model = ChebModel2D(coeffs={T(1, 1): 1.0}, degree_bound=3)
        assert eval_model_2d(model, 0.5, -0.5) == pytest.approx(-0.25)

    def test_triangular_constraint_enforced(self):
        with pytest.raises(ValueError):
            ChebModel2D(coeffs={T(2, 2): 1.0}, degree_bound=3)
        with pytest.raises(ValueError):
            ChebModel2D(coeffs={T(-1, 0): 1.0}, degree_bound=3)

    @pytest.mark.parametrize("degree_bound", [0, -2])
    def test_rejects_degree_bound_below_one(self, degree_bound):
        with pytest.raises(ValueError, match=f"degree_bound must be >= 1, got {degree_bound}"):
            ChebModel2D(coeffs={}, degree_bound=degree_bound)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_coefficient(self, value):
        with pytest.raises(ValueError, match=r"coefficient for TermIndex2D\(i=1, j=0\) is not finite"):
            ChebModel2D(coeffs={T(0, 0): 1.0, T(1, 0): value}, degree_bound=3)

    def test_vectorized(self):
        model = ChebModel2D(coeffs={T(1, 0): 1.0, T(0, 1): 2.0}, degree_bound=2)
        x = np.array([0.0, 0.5])
        y = np.array([0.5, -0.5])
        assert eval_model_2d(model, x, y) == pytest.approx([1.0, -0.5])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [None, (), (17,), (5, 4)])
    def test_matches_chebval2d(self, seed, shape):
        # independent oracle: numpy's Clenshaw evaluation of the dense triangle,
        # at points reaching 20% beyond the fitted interval on both axes
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        coeffs = {t: rng.uniform(-5, 5) for t in visit_order(n)}
        model = ChebModel2D(coeffs=coeffs, xmap=DomainMap(-40.0, 25.0), ymap=DomainMap(3.0, 9.0), degree_bound=n)
        tx, ty = rng.uniform(-1.2, 1.2, size=(2,) + (shape or ()))
        x, y = backward(model.xmap, tx), backward(model.ymap, ty)
        if shape is None:
            x, y = float(x), float(y)
        elif shape == ():
            x, y = np.array(x), np.array(y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            got = eval_model_2d(model, x, y)
        expect = C.chebval2d(model.xmap.forward(np.asarray(x)), model.ymap.forward(np.asarray(y)), model.dense())
        if shape in (None, ()):
            assert type(got) is float
        else:
            assert got.shape == shape
        assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect)))

    def test_extrapolation_warns_per_axis(self):
        model = ChebModel2D(coeffs={T(1, 1): 1.0}, xmap=DomainMap(0.0, 10.0), ymap=DomainMap(0.0, 5.0), degree_bound=3)
        with pytest.warns(ExtrapolationWarning, match="fitted x interval"):
            eval_model_2d(model, 11.0, 2.0)
        with pytest.warns(ExtrapolationWarning, match="fitted y interval"):
            eval_model_2d(model, 1.0, -1.0)

    @pytest.mark.parametrize("evaluate", [eval_model_2d, eval_grid_2d])
    def test_extrapolation_warning_names_the_caller(self, evaluate):
        model = ChebModel2D(coeffs={T(1, 1): 1.0}, degree_bound=3)
        with pytest.warns(ExtrapolationWarning) as record:
            evaluate(model, np.array([2.0]), np.array([0.0]))
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("x, y", [(np.zeros(3), np.zeros(4)), (0.5, np.zeros(2)), (np.zeros((2, 3)), np.zeros(6))])
    def test_mismatched_shapes_rejected(self, x, y):
        model = ChebModel2D(coeffs={T(1, 1): 1.0}, degree_bound=3)
        with pytest.raises(ValueError):
            eval_model_2d(model, x, y)


def sparse_models():
    """Models whose terms reach less far than their degree bound, on both axes or one."""
    maps = {"xmap": DomainMap(-40.0, 25.0), "ymap": DomainMap(3.0, 9.0)}
    models = {
        "empty": ChebModel2D(coeffs={}, degree_bound=12, **maps),
        "constant only": ChebModel2D(coeffs={T(0, 0): 2.5}, degree_bound=12, **maps),
        "high i only": ChebModel2D(coeffs={T(9, 0): 1.5}, degree_bound=12, **maps),
        "high j only": ChebModel2D(coeffs={T(0, 10): -0.75}, degree_bound=12, **maps),
    }
    for seed in range(4):
        rng = np.random.default_rng(seed)
        support = visit_order(int(rng.integers(1, 8)))
        kept = [t for t in support if rng.random() < 0.6]
        coeffs = {t: rng.uniform(-5, 5) for t in kept}
        models[f"random triangle {seed}"] = ChebModel2D(coeffs=coeffs, degree_bound=12, **maps)
    return models


SPARSE_MODELS = sparse_models()


def dense_oracle(model, x, y):
    """numpy's Clenshaw pass over the full degree_bound x degree_bound array."""
    return C.chebval2d(model.xmap.forward(np.asarray(x)), model.ymap.forward(np.asarray(y)), model.dense())


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
@pytest.mark.parametrize("name", SPARSE_MODELS)
class TestSparseSupport:
    """Evaluation builds columns only as far as the terms reach; values must not change."""

    def axes(self, model):
        # reaching 20% beyond the fitted interval on both axes
        x = backward(model.xmap, np.linspace(-1.2, 1.2, 23))
        y = backward(model.ymap, np.linspace(-1.2, 1.2, 17))
        return x, y

    def test_points_match_dense_oracle(self, name):
        model = SPARSE_MODELS[name]
        xx, yy = np.meshgrid(*self.axes(model))
        got = eval_model_2d(model, xx, yy)
        expect = dense_oracle(model, xx, yy)
        assert got.shape == xx.shape
        assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect)))
        if not model.coeffs:
            assert np.all(got == 0.0)

    def test_grid_matches_dense_oracle(self, name):
        model = SPARSE_MODELS[name]
        x, y = self.axes(model)
        got = eval_grid_2d(model, x, y)
        expect = dense_oracle(model, *np.meshgrid(x, y))
        assert got.shape == (y.size, x.size)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect)))
        if not model.coeffs:
            assert np.all(got == 0.0)

    def test_batch_equals_one_call_per_point_bit_for_bit(self, name):
        model = SPARSE_MODELS[name]
        rng = np.random.default_rng(9)
        x = backward(model.xmap, rng.uniform(-1.2, 1.2, 40))
        y = backward(model.ymap, rng.uniform(-1.2, 1.2, 40))
        batch = eval_model_2d(model, x, y)
        single = np.array([eval_model_2d(model, float(a), float(b)) for a, b in zip(x, y)])
        assert batch.tobytes() == single.tobytes()


class TestEvalGrid2D:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(4)
        coeffs = {t: rng.uniform(-3, 3) for t in visit_order(6)}
        return ChebModel2D(coeffs=coeffs, xmap=DomainMap(-50.0, 70.0), ymap=DomainMap(10.0, 30.0), degree_bound=6)

    def test_matches_point_evaluation_over_meshgrid(self, model):
        x = np.linspace(-50.0, 70.0, 13)
        y = np.linspace(10.0, 30.0, 7)
        xx, yy = np.meshgrid(x, y)
        grid = eval_grid_2d(model, x, y)
        assert grid.shape == (7, 13)
        # the oracle is numpy's Clenshaw pass, not eval_model_2d: both of
        # cvb's evaluators build the same Chebyshev columns
        expect = C.chebval2d(model.xmap.forward(xx), model.ymap.forward(yy), model.dense())
        assert np.allclose(grid, expect, rtol=0, atol=1e-12)

    def test_warns_per_axis_like_point_evaluation(self, model):
        inside_x, inside_y = np.array([0.0, 70.0]), np.array([10.0, 20.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            eval_grid_2d(model, inside_x, inside_y)
        for x, y, axis in ((np.array([0.0, 71.0]), inside_y, "x"), (inside_x, np.array([9.0]), "y")):
            with pytest.warns(ExtrapolationWarning, match=f"fitted {axis} interval"):
                eval_grid_2d(model, x, y)
