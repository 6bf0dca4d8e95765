"""Univariate fitting: exact interpolation, shape-first approximation, traces."""

import math
import pickle
import re
import tracemalloc
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvb import fit1d
from cvb.basis import SampleSet1D, cheb_columns, cheb_zeros
from cvb.fit1d import (
    _STEP_BLOCK,
    DEGENERATE_TERM_REL,
    ChebModel1D,
    FitConfig,
    FitError,
    FitReport,
    Trace,
    TraceStep,
    _l2,
    _statistics,
    cvb_approximate,
    cvb_interpolate,
    eval_model_1d,
    projection_sweeps,
)
from cvb.fit2d import SampleSet2D, cvb_approximate_2d, revisit_set, term_matrix, visit_order
from cvb.orthogonalize import OrthoSet, orthogonalize
from cvb.synthetic import runge

QUAD = SampleSet1D(x=[-1.0, 0.0, 1.0], y=[0.0, 1.0, 4.0])


def oracle_approximate(xs, ys, n, epsilon=0.0):
    """Independent transcription of the approximation schedule.

    Plain Python floats, cosine-form basis values, and a full error-vector
    recompute around every update.
    """
    def t(j, x):
        return math.cos(j * math.acos(max(-1.0, min(1.0, x))))

    tau = [[t(j, x) for x in xs] for j in range(n)]
    a = [0.0] * n

    def delta():
        return [y - sum(a[j] * tau[j][i] for j in range(n)) for i, y in enumerate(ys)]

    def update(k):
        d = delta()
        num = sum(tau[k][i] * d[i] for i in range(len(xs)))
        den = sum(c * c for c in tau[k])
        a[k] += num / den

    j = 0
    while j < n and max(abs(c) for c in delta()) > epsilon:
        update(j)
        for k in range(j - 1, -1, -1):
            update(k)
        j += 1
    return a, max(abs(c) for c in delta())


def random_samples(seed, max_m=10):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, max_m + 1))
    x = np.sort(rng.uniform(-1, 1, m))
    while np.diff(x).min() < 1e-3:
        x = np.sort(rng.uniform(-1, 1, m))
    return SampleSet1D(x=x, y=rng.uniform(-10, 10, m))


class TestInterpolateTrace:
    def test_step_snapshots_and_norms(self):
        _, report = cvb_interpolate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        snaps = [step.coeffs for step in report.trace]
        norms = [step.l2_residual for step in report.trace]
        assert snaps[0] == pytest.approx([1.666666667, 0.0, 0.0], abs=1e-8)
        assert snaps[1] == pytest.approx([1.666666667, 2.0, 0.0], abs=1e-8)
        assert snaps[2] == pytest.approx([1.5, 2.0, 0.5], abs=1e-8)
        assert norms[0] == pytest.approx(2.943920289, abs=1e-8)
        assert norms[1] == pytest.approx(0.816496581, abs=1e-8)
        assert norms[2] == pytest.approx(0.0, abs=1e-8)

    def test_model_reproduces_samples(self):
        model, _ = cvb_interpolate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        assert eval_model_1d(model, -1.0) == pytest.approx(0.0, abs=1e-10)
        assert eval_model_1d(model, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert eval_model_1d(model, 1.0) == pytest.approx(4.0, abs=1e-10)

    def test_exact_quadratic_between_samples(self):
        # data comes from x^2 + 2x + 1, which the degree-2 fit captures exactly
        model, _ = cvb_interpolate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        assert eval_model_1d(model, 0.5) == pytest.approx(2.25, abs=1e-12)

    def test_max_terms_capped_by_sample_count(self):
        with pytest.raises(ValueError):
            cvb_interpolate(QUAD, FitConfig(max_terms=4))


class TestApproximateTrace:
    def test_first_visit_projects_constant(self):
        _, report = cvb_approximate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        first = report.trace[0]
        assert first.kind == "visit" and first.term == 0
        assert first.increment == pytest.approx(5 / 3, abs=1e-15)

    def test_revisit_of_constant_after_linear_is_noop(self):
        _, report = cvb_approximate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        second, third = report.trace[1], report.trace[2]
        assert (second.term, second.kind) == (1, "visit")
        assert second.increment == pytest.approx(2.0, abs=1e-15)
        assert (third.term, third.kind) == (0, "revisit")
        assert third.increment == pytest.approx(0.0, abs=1e-15)
        # approximation steps carry no snapshots: the coefficients are the running increments
        coeffs = [0.0, 0.0, 0.0]
        for step in report.trace[:3]:
            coeffs[step.term] += step.increment
        assert coeffs == pytest.approx([5 / 3, 2.0, 0.0], abs=1e-15)

    def test_exit_state_matches_hand_trace(self):
        model, report = cvb_approximate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        assert model.coeffs == pytest.approx([41 / 27, 2.0, 4 / 9], abs=1e-12)
        assert report.trace[-1].max_abs_residual == pytest.approx(2 / 27, abs=1e-12)
        assert not report.converged

    def test_matches_independent_oracle(self):
        model, _ = cvb_approximate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        expect, _ = oracle_approximate(QUAD.x.tolist(), QUAD.y.tolist(), 3)
        assert model.coeffs == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_independent_oracle_random(self, seed):
        samples = random_samples(seed, max_m=8)
        model, _ = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=samples.m))
        expect, _ = oracle_approximate(samples.x.tolist(), samples.y.tolist(), samples.m)
        assert model.coeffs == pytest.approx(expect, abs=1e-9)


class TestScheduleShape:
    @pytest.mark.parametrize("seed", range(10))
    def test_each_visit_followed_by_descending_revisits(self, seed):
        samples = random_samples(seed)
        _, report = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=samples.m))
        i = 0
        trace = report.trace
        while i < len(trace):
            step = trace[i]
            assert step.kind == "visit"
            j = step.term
            revisits = trace[i + 1 : i + 1 + j]
            assert [r.kind for r in revisits] == ["revisit"] * j
            assert [r.term for r in revisits] == list(range(j - 1, -1, -1))
            i += 1 + j

    @pytest.mark.parametrize("seed", range(20))
    def test_l2_residual_never_increases(self, seed):
        samples = random_samples(seed)
        config = FitConfig(epsilon=0.0, max_terms=samples.m)
        for fitter in (cvb_interpolate, cvb_approximate):
            _, report = fitter(samples, config)
            norms = [step.l2_residual for step in report.trace]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_epsilon_stops_early(self):
        samples = random_samples(3)
        _, report = cvb_approximate(samples, FitConfig(epsilon=1e9, max_terms=samples.m))
        assert report.converged and len(report.trace) == 0

    def test_non_convergence_is_reported_not_raised(self):
        _, report = cvb_approximate(QUAD, FitConfig(epsilon=1e-15, max_terms=2))
        assert not report.converged

    def test_extra_sweeps_reduce_residual(self):
        once, r1 = cvb_approximate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        more, r2 = cvb_approximate(QUAD, FitConfig(epsilon=0.0, max_terms=3, extra_sweeps=8))
        assert r2.trace[-1].max_abs_residual < r1.trace[-1].max_abs_residual


class TestExactness:
    @pytest.mark.parametrize("seed", range(25))
    def test_interpolation_hits_every_sample(self, seed):
        samples = random_samples(seed)
        model, report = cvb_interpolate(samples, FitConfig(epsilon=0.0, max_terms=samples.m))
        fitted = cheb_columns(samples.x, samples.m) @ model.coeffs
        assert np.abs(fitted - samples.y).max() <= 1e-8
        assert len(report.trace) == samples.m

    def test_interpolation_hits_crowded_nodes(self):
        # 12 nodes on half the interval: one Gram-Schmidt pass misses by ~1e-7
        x = np.linspace(-1.0, 0.0, 12)
        samples = SampleSet1D(x=x, y=np.sin(5 * x))
        model, report = cvb_interpolate(samples, FitConfig(epsilon=0.0, max_terms=12))
        fitted = cheb_columns(x, 12) @ model.coeffs
        assert np.abs(fitted - samples.y).max() <= 1e-12
        assert report.trace[-1].max_abs_residual <= 1e-12

    @pytest.mark.parametrize("m", [4, 6, 9])
    def test_chebyshev_nodes_make_both_fits_agree(self, m):
        x = cheb_zeros(m)
        samples = SampleSet1D(x=x, y=runge(x))
        interp, _ = cvb_interpolate(samples, FitConfig(epsilon=0.0, max_terms=m))
        approx, _ = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=m))
        assert np.abs(interp.coeffs - approx.coeffs).max() <= 1e-9


class TestShapePreference:
    """The approximation should track the suggested shape where the exact
    interpolant oscillates."""

    @staticmethod
    def overshoot(samples, fitter):
        grid = np.linspace(-1.0, 1.0, 1001)
        model, _ = fitter(samples, FitConfig(epsilon=0.0, max_terms=samples.m))
        curve = eval_model_1d(model, grid)
        return max(curve.max() - samples.y.max(), samples.y.min() - curve.min())

    def test_humped_flat_overshoot(self):
        from cvb.synthetic import gen_humped_flat

        samples = gen_humped_flat()
        assert self.overshoot(samples, cvb_approximate) < self.overshoot(samples, cvb_interpolate)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_noisy_line_overshoot(self, seed):
        from cvb.synthetic import gen_noisy_line

        samples = gen_noisy_line(seed)
        assert self.overshoot(samples, cvb_approximate) < self.overshoot(samples, cvb_interpolate)

    def test_runge_gets_worse_interpolated_better_approximated(self):
        from cvb.synthetic import gen_runge, runge

        grid = np.linspace(-1.0, 1.0, 1001)

        def err(m, fitter):
            model, _ = fitter(gen_runge(m), FitConfig(epsilon=0.0, max_terms=m))
            return np.abs(eval_model_1d(model, grid) - runge(grid)).max()

        assert err(9, cvb_interpolate) > err(5, cvb_interpolate)
        assert err(9, cvb_approximate) <= err(5, cvb_approximate)


class TestLinearity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("fitter", [cvb_interpolate, cvb_approximate])
    def test_scaling_and_additivity(self, seed, fitter):
        rng = np.random.default_rng(100 + seed)
        base = random_samples(seed)
        config = FitConfig(epsilon=0.0, max_terms=base.m)
        y2 = rng.uniform(-10, 10, base.m)
        s = 3.7

        a_base = fitter(base, config)[0].coeffs
        a_scaled = fitter(SampleSet1D(x=base.x, y=s * base.y), config)[0].coeffs
        a_other = fitter(SampleSet1D(x=base.x, y=y2), config)[0].coeffs
        a_sum = fitter(SampleSet1D(x=base.x, y=base.y + y2), config)[0].coeffs

        scale = np.abs(a_base).max() + 1.0
        assert np.abs(a_scaled - s * a_base).max() <= 1e-10 * abs(s) * scale
        assert np.abs(a_sum - (a_base + a_other)).max() <= 1e-9 * (scale + np.abs(a_other).max())


class TestFitConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            FitConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            FitConfig(max_terms=0)
        with pytest.raises(ValueError):
            FitConfig(extra_sweeps=-1)

    def test_degenerate_term_vector_is_skipped_and_recorded(self):
        # at the lone node x = 0 every odd-order term vector vanishes
        samples = SampleSet1D(x=[0.0], y=[3.0])
        model, report = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=3))
        assert 1 in report.skipped
        assert model.coeffs[1] == 0.0
        assert eval_model_1d(model, 0.0) == pytest.approx(3.0)


class TestEvalModel:
    def test_constant_model(self):
        model = ChebModel1D(coeffs=[2.5])
        assert eval_model_1d(model, 0.3) == 2.5

    def test_extrapolation_warns(self):
        model = ChebModel1D(coeffs=[0.0, 1.0])
        with pytest.warns(UserWarning):
            eval_model_1d(model, 1.5)

    def test_vectorized_evaluation(self):
        model, _ = cvb_interpolate(QUAD, FitConfig(epsilon=0.0, max_terms=3))
        xs = np.array([-1.0, 0.0, 0.5, 1.0])
        assert eval_model_1d(model, xs) == pytest.approx([0.0, 1.0, 2.25, 4.0])

    def test_rejects_empty_or_nonfinite_coeffs(self):
        with pytest.raises(ValueError):
            ChebModel1D(coeffs=[])
        with pytest.raises(ValueError):
            ChebModel1D(coeffs=[1.0, float("nan")])


RUNGE_15 = SampleSet1D(x=np.linspace(-1, 1, 15), y=runge(np.linspace(-1, 1, 15)))


class TestFinalResiduals:
    """FitReport carries the residuals after the last step, or the data's own."""

    @pytest.mark.parametrize("fit", [cvb_interpolate, cvb_approximate])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_equal_the_last_trace_step(self, fit, epsilon):
        _, report = fit(RUNGE_15, FitConfig(epsilon=epsilon, max_terms=9))
        last = report.trace[-1]
        assert report.max_abs_residual == last.max_abs_residual
        assert report.l2_residual == last.l2_residual

    def test_empty_trace_reports_the_data(self):
        y = RUNGE_15.y
        _, report = cvb_approximate(RUNGE_15, FitConfig(epsilon=float(np.abs(y).max()), max_terms=9))
        assert report.trace == () and report.converged
        assert report.max_abs_residual == max(abs(v) for v in y)
        assert report.l2_residual == pytest.approx(math.sqrt(math.fsum(v * v for v in y)), rel=1e-15)

    def test_interpolation_steps_even_when_the_data_meet_epsilon(self):
        # epsilon only feeds the converged flag, so the trace is never empty
        y = RUNGE_15.y
        _, report = cvb_interpolate(RUNGE_15, FitConfig(epsilon=float(np.abs(y).max()), max_terms=9))
        assert len(report.trace) == 9 and report.converged
        assert report.max_abs_residual == report.trace[-1].max_abs_residual


class TestIncrementalResidual:
    """The engine updates the error vector in place; a full recompute must agree."""

    @staticmethod
    def assert_trace_matches_recompute(samples, n, report):
        # interpolation steps store their coefficients; approximation steps
        # are rebuilt from the increments, each added to its own term
        tau = cheb_columns(samples.x, n).T
        scale = max(1.0, float(np.abs(samples.y).max()))
        a = np.zeros(n)
        for step in report.trace:
            if step.coeffs is None:
                a[step.term] += step.increment
            delta = samples.y - np.array(step.coeffs if step.coeffs is not None else a) @ tau
            assert abs(step.max_abs_residual - np.abs(delta).max()) <= 1e-12 * scale
            assert abs(step.l2_residual - np.linalg.norm(delta)) <= 1e-12 * scale

    def test_approximation_with_extra_sweeps(self):
        config = FitConfig(epsilon=0.0, max_terms=15, extra_sweeps=50)
        _, report = cvb_approximate(RUNGE_15, config)
        assert len(report.trace) == 51 * (15 + 15 * 14 // 2)  # every visit and revisit, every sweep
        self.assert_trace_matches_recompute(RUNGE_15, 15, report)

    def test_interpolation(self):
        _, report = cvb_interpolate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=15))
        assert len(report.trace) == 15
        self.assert_trace_matches_recompute(RUNGE_15, 15, report)

    def test_least_squares_limit(self):
        # the sweeps are cyclic coordinate descent on ||gamma - a tau||^2
        n = 6
        model, _ = cvb_approximate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=n, extra_sweeps=400))
        expect, *_ = np.linalg.lstsq(cheb_columns(RUNGE_15.x, n), RUNGE_15.y, rcond=None)
        assert model.coeffs == pytest.approx(expect, abs=1e-12)

    def test_interpolation_oracle_below_sample_count(self):
        # n < m: the last step leaves the least-squares fit over the first n columns
        n = 9
        model, _ = cvb_interpolate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=n))
        expect, *_ = np.linalg.lstsq(cheb_columns(RUNGE_15.x, n), RUNGE_15.y, rcond=None)
        assert model.coeffs == pytest.approx(expect, abs=1e-12)

    def test_exactly_representable_data_keeps_every_step(self):
        samples = SampleSet1D(x=[-1.0, 0.0, 1.0], y=[2.5, 2.5, 2.5])
        model, report = cvb_interpolate(samples, FitConfig(epsilon=0.0, max_terms=3))
        assert [s.term for s in report.trace] == [0, 1, 2]
        assert report.converged
        assert model.coeffs.tolist() == [2.5, 0.0, 0.0]
        assert [s.max_abs_residual for s in report.trace] == [0.0, 0.0, 0.0]

    def test_exactly_representable_data_stops_approximation_after_first_visit(self):
        samples = SampleSet1D(x=[-1.0, 0.0, 1.0], y=[2.5, 2.5, 2.5])
        _, report = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=3))
        assert [(s.term, s.kind) for s in report.trace] == [(0, "visit")]
        assert report.converged and report.terms_used == 1


class TestTraceShape:
    """Interpolation steps carry their coefficients; approximation steps only their increments."""

    def test_approximation_steps_carry_no_coefficients(self):
        _, report = cvb_approximate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=15, extra_sweeps=2))
        assert len(report.trace) == 3 * (15 + 15 * 14 // 2)
        assert all(step.coeffs is None for step in report.trace)

    def test_interpolation_steps_carry_the_coefficients(self):
        _, report = cvb_interpolate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=15))
        assert len(report.trace) == 15
        assert all(step.coeffs is not None and len(step.coeffs) == 15 for step in report.trace)

    def test_a_step_is_a_named_tuple(self):
        _, report = cvb_approximate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=3))
        step = report.trace[0]
        term, kind, increment, max_abs, l2, coeffs = step
        assert step == (term, kind, increment, max_abs, l2, None) and (term, kind, coeffs) == (0, "visit", None)
        assert step._fields == ("term", "kind", "increment", "max_abs_residual", "l2_residual", "coeffs")
        assert TraceStep(0, "visit", 1.0, 2.0, 3.0) == (0, "visit", 1.0, 2.0, 3.0, None)


def scaled_l2(delta):
    """Oracle l2 norm: scaled by the largest |delta|, summed exactly."""
    scale = max(abs(float(d)) for d in delta)
    return scale * math.sqrt(math.fsum((float(d) / scale) ** 2 for d in delta)) if scale else 0.0


class TestL2ResidualRange:
    """The l2 residual stays finite and accurate where delta . delta would overflow or underflow."""

    @pytest.mark.parametrize("scale", [1e-200, 2.0**-600, 1e200, 2.0**600],
                             ids=["1e-200", "2^-600", "1e200", "2^600"])
    @pytest.mark.parametrize("fit", [cvb_interpolate, cvb_approximate])
    def test_every_step_matches_a_scaled_oracle(self, fit, scale):
        samples = SampleSet1D(x=RUNGE_15.x, y=scale * RUNGE_15.y)
        n = 9
        _, report = fit(samples, FitConfig(epsilon=0.0, max_terms=n, extra_sweeps=2))
        tau = cheb_columns(samples.x, n).T
        a = np.zeros(n)
        bound = 1e-12 * float(np.abs(samples.y).max())
        for step in report.trace:
            if step.coeffs is None:
                a[step.term] += step.increment
            delta = samples.y - np.array(step.coeffs if step.coeffs is not None else a) @ tau
            assert 0.0 < step.l2_residual < math.inf
            assert abs(step.l2_residual - scaled_l2(delta)) <= bound

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_empty_trace_reports_the_data(self, scale):
        y = scale * RUNGE_15.y
        samples = SampleSet1D(x=RUNGE_15.x, y=y)
        _, report = cvb_approximate(samples, FitConfig(epsilon=float(np.abs(y).max()), max_terms=9))
        assert report.trace == ()
        assert report.l2_residual == pytest.approx(scaled_l2(y), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", [480, -480])
    @pytest.mark.parametrize("fit", [cvb_interpolate, cvb_approximate])
    def test_power_of_two_scaling_is_exact(self, fit, k):
        # y * 2^k puts every residual outside [1e-140, 1e140], y itself inside;
        # scaling by a power of two is exact, so the l2 column must be too
        rng = np.random.default_rng(31)
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, RUNGE_15.m)
            config = FitConfig(epsilon=0.0, max_terms=9, extra_sweeps=1)
            _, base = fit(SampleSet1D(x=RUNGE_15.x, y=y), config)
            _, scaled = fit(SampleSet1D(x=RUNGE_15.x, y=np.ldexp(y, k)), config)
            assert all(not 1e-140 <= step.max_abs_residual <= 1e140 for step in scaled.trace)
            assert [step.l2_residual for step in scaled.trace] == [math.ldexp(step.l2_residual, k)
                                                                   for step in base.trace]
            assert scaled.l2_residual == math.ldexp(base.l2_residual, k)

    def test_l2_is_bounded_by_max_abs_near_zero_residuals(self):
        # at 4 Chebyshev zeros the fit reaches residuals near 1e-178, whose squares
        # underflow: each l2 must still lie in [max_abs, 2 * max_abs]
        x = cheb_zeros(4)
        _, report = cvb_approximate(SampleSet1D(x=x, y=np.exp(x)),
                                    FitConfig(epsilon=0.0, max_terms=7, extra_sweeps=2))
        assert min(step.max_abs_residual for step in report.trace) < 1e-170
        for step in report.trace:
            assert step.max_abs_residual <= step.l2_residual <= 2.0 * step.max_abs_residual


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBeyondTheFloatRange:
    """A residual or l2 norm beyond the float range is refused by name, with no numpy warning."""

    @pytest.mark.parametrize("peak", [1e308, 1.7e308])
    @pytest.mark.parametrize("fit", [cvb_interpolate, cvb_approximate])
    def test_curve_fits_refuse_an_overflowing_residual(self, fit, peak):
        samples = SampleSet1D(x=[-1.0, 0.0, 1.0], y=[peak, -peak, peak])
        with pytest.raises(FitError, match=re.escape(f"float range (±1.798e+308) on data whose largest |value| "
                                                     f"is {peak!r}")):
            fit(samples, FitConfig(epsilon=0.0, max_terms=3))

    def test_surface_fit_refuses_an_l2_beyond_the_float_range(self):
        # each |residual| stays at 1.7e308, but their l2 norm, 3.4e308, does not fit a float
        samples = SampleSet2D(x=[-1.0, 1.0, -1.0, 1.0], y=[-1.0, -1.0, 1.0, 1.0],
                              z=[1.7e308, -1.7e308, -1.7e308, 1.7e308])
        with pytest.raises(FitError, match="leaves the float range"):
            cvb_approximate_2d(samples, FitConfig(epsilon=0.0, max_terms=2))

    def test_l2_beyond_the_float_range_is_inf(self):
        assert _l2(np.array([1.7e308, -1.7e308]), 1.7e308) == math.inf
        assert _l2(np.array([1.7e308, 0.0]), 1.7e308) == 1.7e308

    def test_empty_trace_reports_an_l2_beyond_the_float_range_as_inf(self):
        _, report = cvb_approximate(SampleSet1D(x=[-1.0, 0.0, 1.0], y=[1.7e308] * 3),
                                    FitConfig(epsilon=1.7e308, max_terms=3))
        assert report.trace == () and report.converged
        assert (report.max_abs_residual, report.l2_residual) == (1.7e308, math.inf)


class OracleProjector:
    """Literal copy of the step the fitters took one call at a time.

    It allocates ``inc * direction`` and ``np.abs(delta)`` afresh and updates
    the coefficients inside the step; the fitters' loop must give its bits.
    """

    def __init__(self, gamma, n, snapshots):
        self.a = np.zeros(n)
        self.delta = np.array(gamma, dtype=float)
        self.trace = []
        self.snapshots = snapshots

    def step(self, direction, norm2, where, weights, label, kind):
        delta = self.delta
        inc = float((direction @ delta) / norm2)
        self.a[where] += inc * weights
        delta -= inc * direction
        max_abs = float(np.abs(delta).max())
        self.trace.append((label, kind, inc, max_abs, _l2(delta, max_abs),
                           tuple(self.a.tolist()) if self.snapshots else None))
        return max_abs


def oracle_interpolate(samples, config):
    oset = orthogonalize(cheb_columns(samples.x, config.max_terms).T)
    fit = OracleProjector(samples.y, config.max_terms, snapshots=True)
    for j in oset.retained():
        o_j = oset.ortho[j]
        max_abs = fit.step(o_j, o_j @ o_j, slice(0, j + 1), oset.q[j, : j + 1], j, "visit")
    return fit.a, fit.trace, max_abs <= config.epsilon, sorted(oset.skipped)


def oracle_sweeps(tau, gamma, config, revisit, labels):
    norm2 = np.einsum("ij,ij->i", tau, tau)
    skipped = {t for t in range(len(tau)) if norm2[t] <= DEGENERATE_TERM_REL * gamma.size}
    fit = OracleProjector(gamma, len(tau), snapshots=False)
    max_abs = float(np.abs(gamma).max())
    for _ in range(config.extra_sweeps + 1):
        if max_abs <= config.epsilon:
            break
        for t in range(len(tau)):
            if max_abs <= config.epsilon:
                break
            if t in skipped:
                continue
            max_abs = fit.step(tau[t], norm2[t], t, 1.0, labels[t], "visit")
            for k in revisit(t):
                if k not in skipped:
                    max_abs = fit.step(tau[k], norm2[k], k, 1.0, labels[k], "revisit")
    return fit.a, fit.trace, max_abs <= config.epsilon, [labels[t] for t in sorted(skipped)]


def oracle_approximate_1d(samples, config):
    tau = cheb_columns(samples.x, config.max_terms).T
    return oracle_sweeps(tau, samples.y, config, lambda j: range(j - 1, -1, -1), list(range(len(tau))))


def oracle_approximate_2d(samples, config):
    order = visit_order(config.max_terms)
    pos = {t: p for p, t in enumerate(order)}
    return oracle_sweeps(term_matrix(samples, order), samples.z, config,
                         lambda p: [pos[t] for t in revisit_set(order[p], order)], order)


def bits(values):
    return [float(v).hex() for v in values]


def trace_bits(trace):
    return [(term, kind, *bits((inc, max_abs, l2)), None if coeffs is None else bits(coeffs))
            for term, kind, inc, max_abs, l2, coeffs in trace]


def cloud(seed, m=120, flat_y=False):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    y = np.zeros(m) if flat_y else rng.uniform(-1.0, 1.0, m)
    return SampleSet2D(x=x, y=y, z=np.sin(3 * x) * np.cos(2 * y) + 0.01 * rng.standard_normal(m))


def noisy_runge(seed, m=200):
    rng = np.random.default_rng(seed)
    x = cheb_zeros(m)
    return SampleSet1D(x=x, y=runge(x) + 0.01 * rng.standard_normal(m))


# 12 nodes crowded into [-1, -0.8]: orthogonalize re-projects rows and skips three terms
CROWDED = SampleSet1D(x=np.linspace(-1.0, -0.8, 12), y=np.sin(5 * np.linspace(-1.0, -0.8, 12)))


CURVE_FITS = {"interp": (cvb_interpolate, oracle_interpolate), "approx": (cvb_approximate, oracle_approximate_1d)}


class TestEngineBits:
    """Every trace field, coefficient, skipped set and stop flag keeps the oracle's bits."""

    @staticmethod
    def assert_same_bits(model_coeffs, report, oracle):
        a, trace, converged, skipped = oracle
        assert trace_bits(report.trace) == trace_bits(trace)
        assert bits(model_coeffs) == bits(a)
        assert report.converged == converged and list(report.skipped) == skipped
        if trace:
            assert bits((report.max_abs_residual, report.l2_residual)) == bits(trace[-1][3:5])

    @pytest.mark.parametrize("samples, config", [
        *[(random_samples(seed), None) for seed in range(6)],
        (noisy_runge(1), FitConfig(epsilon=0.0, max_terms=30)),
        (noisy_runge(2), FitConfig(epsilon=0.05, max_terms=20)),
        (CROWDED, FitConfig(epsilon=0.0, max_terms=12)),
    ])
    def test_interpolation(self, samples, config):
        config = config or FitConfig(epsilon=0.0, max_terms=samples.m)
        model, report = cvb_interpolate(samples, config)
        self.assert_same_bits(model.coeffs, report, oracle_interpolate(samples, config))

    def test_crowded_interpolation_skips_and_reprojects(self):
        tau = cheb_columns(CROWDED.x, 12).T
        oset = orthogonalize(tau)
        kept = oset.retained()
        assert len(oset.skipped) == 3
        # some retained row cancels more than half its norm on one projection
        o = oset.ortho[kept]
        one_pass = [tau[j] - ((o[:i] @ tau[j]) / np.einsum("ij,ij->i", o[:i], o[:i])) @ o[:i]
                    for i, j in enumerate(kept)]
        assert any(w @ w < 0.5 * (tau[j] @ tau[j]) for w, j in zip(one_pass, kept))

    @pytest.mark.parametrize("samples, config", [
        *[(noisy_runge(seed), FitConfig(epsilon=0.0, max_terms=25)) for seed in range(3)],
        (noisy_runge(3), FitConfig(epsilon=0.0, max_terms=12, extra_sweeps=2)),
        (noisy_runge(4), FitConfig(epsilon=0.05, max_terms=25)),
        (RUNGE_15, FitConfig(epsilon=0.0, max_terms=15, extra_sweeps=2)),
        (SampleSet1D(x=[0.0], y=[3.0]), FitConfig(epsilon=0.0, max_terms=3, extra_sweeps=2)),
    ])
    def test_curve_approximation(self, samples, config):
        model, report = cvb_approximate(samples, config)
        self.assert_same_bits(model.coeffs, report, oracle_approximate_1d(samples, config))

    @pytest.mark.parametrize("samples, config", [
        *[(cloud(seed), FitConfig(epsilon=0.0, max_terms=8)) for seed in range(3)],
        (cloud(3), FitConfig(epsilon=0.0, max_terms=6, extra_sweeps=2)),
        (cloud(4), FitConfig(epsilon=0.1, max_terms=8)),
        (cloud(5, flat_y=True), FitConfig(epsilon=0.0, max_terms=5, extra_sweeps=2)),
    ])
    def test_surface_approximation(self, samples, config):
        model, report = cvb_approximate_2d(samples, config)
        order = visit_order(config.max_terms)
        coeffs = [model.coeffs.get(t, 0.0) for t in order]
        self.assert_same_bits(coeffs, report, oracle_approximate_2d(samples, config))

    def test_cases_cover_early_stops_skips_and_extra_sweeps(self):
        _, report = cvb_approximate_2d(cloud(4), FitConfig(epsilon=0.1, max_terms=8))
        assert report.converged and len(report.trace) < len(oracle_approximate_2d(cloud(4), FitConfig(0.0, 8))[1])
        _, report = cvb_approximate(noisy_runge(4), FitConfig(epsilon=0.05, max_terms=25))
        assert report.converged and max(step.term for step in report.trace) < 24
        _, report = cvb_approximate_2d(cloud(5, flat_y=True), FitConfig(epsilon=0.0, max_terms=5, extra_sweeps=2))
        assert report.skipped and {step.kind for step in report.trace} == {"visit", "revisit"}
        _, report = cvb_approximate(SampleSet1D(x=[0.0], y=[3.0]), FitConfig(epsilon=0.0, max_terms=3))
        assert report.skipped == (1,)

    @pytest.mark.parametrize("samples, config", [
        (SampleSet1D(x=[0.0], y=[3.0]), FitConfig(epsilon=0.0, max_terms=3, extra_sweeps=2)),
        (noisy_runge(4), FitConfig(epsilon=0.05, max_terms=25)),
        (noisy_runge(3), FitConfig(epsilon=0.0, max_terms=12, extra_sweeps=2)),
        (cloud(5, flat_y=True), FitConfig(epsilon=0.0, max_terms=5, extra_sweeps=2)),
        (cloud(4), FitConfig(epsilon=0.1, max_terms=8)),
        (cloud(3), FitConfig(epsilon=0.0, max_terms=6, extra_sweeps=2)),
    ], ids=["curve-skip", "curve-epsilon-stop", "curve-extra-sweeps",
            "surface-skip", "surface-epsilon-stop", "surface-extra-sweeps"])
    def test_projection_sweeps_replays_the_fitters(self, samples, config):
        # the schedule, revisits and skipped rows built as perfbench's traced
        # replay builds them: from revisit_set and DEGENERATE_TERM_REL
        if isinstance(samples, SampleSet1D):
            model, report = cvb_approximate(samples, config)
            tau, gamma, labels, coeffs = cheb_columns(samples.x, config.max_terms).T, samples.y, None, model.coeffs
            earlier = {j: range(j - 1, -1, -1) for j in range(len(tau))}
        else:
            model, report = cvb_approximate_2d(samples, config)
            labels = visit_order(config.max_terms)
            tau, gamma = term_matrix(samples, labels), samples.z
            coeffs = [model.coeffs.get(t, 0.0) for t in labels]
            pos = {t: p for p, t in enumerate(labels)}
            earlier = {p: [pos[t] for t in revisit_set(labels[p], labels)] for p in range(len(tau))}
        norm2 = np.einsum("ij,ij->i", tau, tau)
        skipped = frozenset(int(t) for t in np.flatnonzero(norm2 <= DEGENERATE_TERM_REL * gamma.size))
        schedule = list(range(len(tau)))
        revisits = {t: [k for k in earlier[t] if k not in skipped] for t in schedule}
        a, trace, converged = projection_sweeps(tau, gamma, config, schedule, revisits, skipped, labels=labels)
        assert trace_bits(trace) == trace_bits(report.trace)
        assert bits(a) == bits(coeffs)
        assert converged == report.converged
        assert [(labels or schedule)[t] for t in sorted(skipped)] == list(report.skipped)

    # the projection loop takes its residual statistics in blocks of _STEP_BLOCK steps

    @pytest.mark.parametrize("fit", ["interp", "approx"])
    @pytest.mark.parametrize("samples, config", [
        (noisy_runge(5), FitConfig(epsilon=0.0, max_terms=_STEP_BLOCK + 2)),
        (noisy_runge(6), FitConfig(epsilon=0.0, max_terms=2 * _STEP_BLOCK + 5)),
        (noisy_runge(7), FitConfig(epsilon=0.0, max_terms=_STEP_BLOCK + 3, extra_sweeps=1)),
        (SampleSet1D(x=cheb_zeros(13), y=runge(cheb_zeros(13))), FitConfig(epsilon=0.0, max_terms=13)),
        (SampleSet1D(x=[0.25], y=[-2.0]), FitConfig(epsilon=0.0, max_terms=1)),
    ], ids=["chain-over-a-block", "chains-over-two-blocks", "extra-sweeps", "odd-m", "m-1"])
    def test_curve_fits_across_blocks(self, fit, samples, config):
        fitter, oracle = CURVE_FITS[fit]
        model, report = fitter(samples, config)
        self.assert_same_bits(model.coeffs, report, oracle(samples, config))

    @pytest.mark.parametrize("samples, config", [
        # term (5, 6) revisits 41 earlier terms, so its chain fills a block
        (cloud(6, m=300), FitConfig(epsilon=0.0, max_terms=12)),
        (cloud(7, m=301), FitConfig(epsilon=0.0, max_terms=11, extra_sweeps=1)),
        (cloud(8, m=13), FitConfig(epsilon=0.0, max_terms=4)),
        (SampleSet2D(x=[0.1], y=[0.2], z=[1.5]), FitConfig(epsilon=0.0, max_terms=2)),
    ], ids=["chain-over-a-block", "extra-sweeps", "odd-m", "m-1"])
    def test_surface_fits_across_blocks(self, samples, config):
        model, report = cvb_approximate_2d(samples, config)
        coeffs = [model.coeffs.get(t, 0.0) for t in visit_order(config.max_terms)]
        self.assert_same_bits(coeffs, report, oracle_approximate_2d(samples, config))

    def test_epsilon_stop_on_the_first_visit_after_a_full_block(self):
        x = cheb_zeros(300)
        samples = SampleSet1D(x=x, y=1 / (1 + 25 * (x - 0.1) ** 2))
        # visit K - 1 and its K - 1 revisits fill a block; epsilon is the max|delta| they leave
        full = sum(range(1, _STEP_BLOCK + 1))
        _, report = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=40))
        config = FitConfig(epsilon=report.trace[full - 1].max_abs_residual, max_terms=40)
        model, report = cvb_approximate(samples, config)
        assert len(report.trace) == full and report.converged
        self.assert_same_bits(model.coeffs, report, oracle_approximate_1d(samples, config))

    def test_epsilon_stop_inside_a_block(self):
        # fit-dense's early-stop surface: the stop check reads the residual of a step not yet measured
        samples, config = cloud(1, m=2000), FitConfig(epsilon=0.05, max_terms=12)
        model, report = cvb_approximate_2d(samples, config)
        assert report.converged and len(report.trace) % _STEP_BLOCK and len(report.trace) < 1365
        coeffs = [model.coeffs.get(t, 0.0) for t in visit_order(config.max_terms)]
        self.assert_same_bits(coeffs, report, oracle_approximate_2d(samples, config))

    @pytest.mark.parametrize("fit", ["interp", "approx"])
    def test_an_overflow_inside_a_block_raises_the_one_step_error(self, fit):
        # the first residual, 1e308 T_1, is finite, but its dot with T_1 is 2.5e308
        samples = SampleSet1D(x=[-1.0, -0.5, 0.5, 1.0], y=[-1e308, -0.5e308, 0.5e308, 1e308])
        config = FitConfig(epsilon=0.0, max_terms=4)
        fitter, oracle = CURVE_FITS[fit]
        with np.errstate(all="ignore"):
            l2 = [step[4] for step in oracle(samples, config)[1]]
        first = next(k for k, value in enumerate(l2) if not math.isfinite(value))
        assert 0 < first < len(l2) - 1  # the block holds finite steps before it and steps after it
        message = "the fit residual leaves the float range (±1.798e+308) on data whose largest |value| is 1e+308"
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            fitter(samples, config)

    def test_memory_beyond_the_term_matrix_grows_with_m_alone(self):
        # the residual block of _STEP_BLOCK + 1 rows and one |gamma| temporary
        for m in (4000, 8000):
            x = 0.999 * np.cos(np.linspace(0.0, np.pi, m))
            samples = SampleSet1D(x=x, y=np.sin(4 * x))
            for n in (6, 24):
                tracemalloc.start()
                try:
                    cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=n))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                beyond = peak - n * m * 8
                assert abs(beyond - (_STEP_BLOCK + 2) * m * 8) < 32 * 1024, (m, n, beyond)


FLOAT_RANGE_MESSAGE = "the fit residual leaves the float range (±1.798e+308) on data whose largest |value| is {!r}"


@st.composite
def residual_blocks(draw):
    """A block whose rows 1..count hold residuals of m values: each 2^k times a normal draw, or zeros.

    Row 0 and the rows after ``count`` hold NaN, which a measured row would
    turn into an error; one drawn cell may hold inf, -inf or NaN.
    """
    m, count = draw(st.integers(1, 300)), draw(st.integers(1, _STEP_BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = np.full((_STEP_BLOCK + 1, m), np.nan)
    for i in range(1, count + 1):
        k = draw(st.none() | st.integers(-1000, 1000))
        block[i] = draw(st.sampled_from([0.0, -0.0])) if k is None else np.ldexp(rng.standard_normal(m), k)
    if draw(st.booleans()):
        poison = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        block[draw(st.integers(1, count)), draw(st.integers(0, m - 1))] = poison
    return block, count


# two rows, the second holding inf: the block must raise, whatever Hypothesis draws
INF_BLOCK = np.zeros((_STEP_BLOCK + 1, 3))
INF_BLOCK[1:3] = [[1.0, -2.0, 0.5], [3.0, np.inf, 0.0]]


class TestBlockStatistics:
    """``_statistics`` measures a block of residual rows with the bits of one row at a time."""

    @settings(max_examples=300, deadline=None)
    @given(case=residual_blocks(), data_max=st.floats(0.0, 1.7e308))
    @example(case=(INF_BLOCK, 2), data_max=7.5)
    def test_each_row_keeps_the_bits_of_a_one_row_measure(self, case, data_max):
        block, count = case[0].copy(), case[1]
        rows = block[1:count + 1].copy()
        out = np.array([[0.5] * (count + 2), [0.25] * (count + 2)])  # the columns either side stay as they are
        with np.errstate(over="ignore", invalid="ignore"):
            expect_max = [float(np.abs(r).max()) for r in rows]
            expect_l2 = [_l2(r, max_abs) for r, max_abs in zip(rows, expect_max)]
            if all(math.isfinite(l2) for l2 in expect_l2):
                _statistics(block, count, data_max, out[:, 1:-1])
                assert bits(out[0]) == bits([0.5, *expect_max, 0.5])
                assert bits(out[1]) == bits([0.25, *expect_l2, 0.25])
                assert bits(block[0]) == bits(rows[-1])  # the current residual, signed, for the next step
            else:
                with pytest.raises(FitError, match=f"^{re.escape(FLOAT_RANGE_MESSAGE.format(data_max))}$"):
                    _statistics(block, count, data_max, out[:, 1:-1])


class TestSweepCount:
    """A plan is built once and swept ``extra_sweeps`` + 1 times, so a sweep count costs no memory."""

    @pytest.mark.parametrize("fit", ["curve", "surface"])
    def test_memory_does_not_grow_with_extra_sweeps_of_data_within_epsilon(self, fit):
        x = cheb_zeros(9)
        if fit == "curve":
            samples, fitter = SampleSet1D(x=x, y=runge(x)), cvb_approximate
        else:
            samples, fitter = SampleSet2D(x=x, y=x[::-1], z=runge(x)), cvb_approximate_2d
        peaks = []
        for extra_sweeps in (0, 10**6):
            tracemalloc.start()
            try:
                _, report = fitter(samples, FitConfig(epsilon=10.0, max_terms=3, extra_sweeps=extra_sweeps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.trace == () and report.converged
        assert peaks[1] <= peaks[0] + 1024, peaks

    def test_an_empty_plan_takes_no_step_however_many_sweeps(self):
        tau = cheb_columns(RUNGE_15.x, 3).T
        a, trace, converged = projection_sweeps(tau, RUNGE_15.y, FitConfig(0.0, 3, 10**9), [], {}, frozenset())
        assert (a.tolist(), trace, converged) == ([0.0, 0.0, 0.0], [], False)

    def test_sweeps_repeat_the_plan_until_epsilon_is_met(self):
        # the third sweep's first visit meets epsilon: two whole sweeps, then the stop
        _, two = cvb_approximate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=5, extra_sweeps=1))
        config = FitConfig(epsilon=two.trace[-1].max_abs_residual, max_terms=5, extra_sweeps=10**9)
        model, report = cvb_approximate(RUNGE_15, config)
        assert report.trace == two.trace and report.converged
        TestEngineBits.assert_same_bits(model.coeffs, report, oracle_approximate_1d(RUNGE_15, config))


def test_interpolation_names_the_first_retained_component_that_is_not_finite(monkeypatch):
    def poisoned(tau):
        oset = orthogonalize(tau)
        ortho = oset.ortho.copy()
        ortho[[1, 5, 7], 2] = [np.nan, np.inf, np.nan]  # row 1 is skipped, so 5 is named
        return OrthoSet(ortho=ortho, q=oset.q, skipped=oset.skipped | {1})

    monkeypatch.setattr(fit1d, "orthogonalize", poisoned)
    with pytest.raises(FitError, match="^orthogonal component of term 5 is not finite$"):
        cvb_interpolate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=9))


def literal_sweep(tau, gamma, plan, epsilon, labels, sweeps):
    """The approximation's sweep as it was first written: a loop that builds one TraceStep per step.

    ``plan`` lists (row, kind) pairs, taken ``sweeps`` times over, stopping
    before a visit once max|delta| <= epsilon.  Each step projects as
    ``OracleProjector`` does, adds its increment to a Python float and
    appends its TraceStep; the columnar trace must give these bits.
    """
    norm2 = np.einsum("ij,ij->i", tau, tau).tolist()
    delta = np.array(gamma, dtype=float)
    a, trace = [0.0] * len(tau), []
    max_abs = float(np.abs(delta).max())
    for t, kind in chain.from_iterable(repeat(plan, sweeps if plan else 0)):
        if kind == "visit" and max_abs <= epsilon:
            break
        inc = float(tau[t].dot(delta) / norm2[t])
        delta -= inc * tau[t]
        max_abs = float(np.abs(delta).max())
        a[t] += inc
        trace.append(TraceStep(labels[t], kind, inc, max_abs, _l2(delta, max_abs), None))
    return np.array(a), tuple(trace), max_abs <= epsilon


def literal_plan(tau, m, earlier):
    """Each retained row's visit, then its revisits ``earlier(row)`` less the skipped rows."""
    skipped = {t for t, row in enumerate(tau) if row @ row <= DEGENERATE_TERM_REL * m}
    return [pair for t in range(len(tau)) if t not in skipped
            for pair in ((t, "visit"), *((k, "revisit") for k in earlier(t) if k not in skipped))], skipped


@st.composite
def fits(draw):
    """A curve or surface approximation: data, config, and whether it skips, stops early or sweeps again."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, surface = draw(st.integers(1, 60)), draw(st.integers(1, 9)), draw(st.booleans())
    x = rng.uniform(-1.0, 1.0, m)
    # a constant coordinate leaves every odd term 0, so those terms are skipped
    y = np.zeros(m) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, m)
    if surface:
        samples = SampleSet2D(x=x, y=y, z=np.sin(3 * x) * np.cos(2 * y) + 0.01 * rng.standard_normal(m))
    else:
        x = np.unique(np.round(x, 2)) if draw(st.booleans()) else np.zeros(1)
        samples = SampleSet1D(x=x, y=np.sin(3 * x) + 0.01 * rng.standard_normal(x.size))
    data = samples.z if surface else samples.y
    epsilon = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5])) * float(np.abs(data).max())
    return samples, FitConfig(epsilon=epsilon, max_terms=n, extra_sweeps=draw(st.integers(0, 3)))


class TestColumnarTrace:
    """The columnar trace keeps the bits of a loop that built one TraceStep per step."""

    # the fixed cases of TestEngineBits.test_cases_cover_early_stops_skips_and_extra_sweeps
    @settings(max_examples=150, deadline=None)
    @given(case=fits())
    @example(case=(cloud(4), FitConfig(epsilon=0.1, max_terms=8)))
    @example(case=(noisy_runge(4), FitConfig(epsilon=0.05, max_terms=25)))
    @example(case=(cloud(5, flat_y=True), FitConfig(epsilon=0.0, max_terms=5, extra_sweeps=2)))
    @example(case=(SampleSet1D(x=[0.0], y=[3.0]), FitConfig(epsilon=0.0, max_terms=3, extra_sweeps=2)))
    def test_trace_and_coefficients_match_the_per_step_loop(self, case):
        samples, config = case
        if isinstance(samples, SampleSet2D):
            model, report = cvb_approximate_2d(samples, config)
            labels = visit_order(config.max_terms)
            tau, gamma, coeffs = term_matrix(samples, labels), samples.z, [model.coeffs.get(t, 0.0) for t in labels]
            pos = {t: p for p, t in enumerate(labels)}
            earlier = lambda p: [pos[t] for t in revisit_set(labels[p], labels)]
        else:
            model, report = cvb_approximate(samples, config)
            tau, gamma, coeffs = cheb_columns(samples.x, config.max_terms).T, samples.y, model.coeffs
            labels, earlier = range(config.max_terms), lambda j: range(j - 1, -1, -1)
        plan, skipped = literal_plan(tau, samples.m, earlier)
        a, trace, converged = literal_sweep(tau, gamma, plan, config.epsilon, labels, config.extra_sweeps + 1)
        assert isinstance(report.trace, Trace)
        assert trace_bits(report.trace) == trace_bits(trace)
        assert bits(coeffs) == bits(a)
        assert report.converged == converged and list(report.skipped) == [labels[t] for t in sorted(skipped)]
        if trace:
            assert bits((report.max_abs_residual, report.l2_residual)) == bits(trace[-1][3:5])

    @pytest.mark.parametrize("n", [150, 300])
    def test_approximation_peaks_under_64_bytes_a_step_beyond_the_term_matrix(self, n):
        # three float64 columns a step and the plan's two index arrays, nothing per step besides
        x = cheb_zeros(n)
        samples = SampleSet1D(x=x, y=runge(x))
        tracemalloc.start()
        try:
            model, report = cvb_approximate(samples, FitConfig(epsilon=0.0, max_terms=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = len(report.trace)
        assert steps == n * (n + 1) // 2
        assert (peak - n * n * 8) / steps < 64, (n, peak, steps)


def fit_reports():
    """A curve interpolation, a curve approximation over two sweeps and a surface approximation."""
    return [cvb_interpolate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=9))[1],
            cvb_approximate(RUNGE_15, FitConfig(epsilon=0.0, max_terms=6, extra_sweeps=1))[1],
            cvb_approximate_2d(cloud(2, m=40), FitConfig(epsilon=0.0, max_terms=4))[1]]


class TestTraceSequence:
    """A trace reads like the tuple of its steps."""

    @pytest.mark.parametrize("report", fit_reports(), ids=["interp", "approx", "surface"])
    def test_indices_slices_and_sequence_methods(self, report):
        trace, steps = report.trace, tuple(report.trace)
        n = len(steps)
        assert len(trace) == n > 1 and bool(trace) and all(isinstance(step, TraceStep) for step in steps)
        assert [trace[i] for i in range(-n, n)] == [steps[i] for i in range(-n, n)]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                trace[index]
        for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(-3, None), slice(5, 2), slice(2, 99, 3)):
            assert trace[cut] == steps[cut] and isinstance(trace[cut], tuple)
        assert list(iter(trace)) == list(steps) and list(reversed(trace)) == list(reversed(steps))
        assert trace.index(steps[-1]) == steps.index(steps[-1]) and trace.index(steps[1], 1, 3) == 1
        with pytest.raises(ValueError):
            trace.index(steps[0], 1)
        assert trace.count(steps[0]) == steps.count(steps[0]) == 1 and trace.count(None) == 0
        assert steps[-1] in trace and TraceStep(-1, "visit", 0.0, 0.0, 0.0) not in trace

    @pytest.mark.parametrize("report", fit_reports(), ids=["interp", "approx", "surface"])
    def test_equality_and_hash_follow_the_tuple(self, report):
        trace, steps = report.trace, tuple(report.trace)
        assert trace == steps and steps == trace and trace == list(steps) and list(steps) == trace
        assert not trace != steps and trace != steps[:-1] and trace != list(steps[1:]) and trace != ()
        assert trace != "trace" and trace != steps[0] and hash(trace) == hash(steps)
        assert {trace: 1}[steps] == 1

    @pytest.mark.parametrize("report", fit_reports(), ids=["interp", "approx", "surface"])
    def test_pickle_round_trip_keeps_a_read_only_trace(self, report):
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report and type(copy.trace) is Trace and copy.trace == report.trace
        assert trace_bits(copy.trace) == trace_bits(report.trace)
        assert not copy.trace.stats.flags.writeable

    def test_steps_and_columns_cannot_be_assigned(self):
        trace = fit_reports()[0].trace
        with pytest.raises(TypeError):
            trace[0] = trace[1]
        with pytest.raises(TypeError):
            del trace[0]
        with pytest.raises(AttributeError):
            trace.stats = None
        for array in (trace.stats, *trace.plan, trace.coeffs):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("report", fit_reports(), ids=["interp", "approx", "surface"])
    def test_fit_report_equality_and_hash_are_those_of_its_tuple_trace(self, report):
        as_tuple = FitReport(**{**vars(report), "trace": tuple(report.trace)})
        assert report == as_tuple and as_tuple == report and hash(report) == hash(as_tuple)
        other = FitReport(**{**vars(report), "trace": tuple(report.trace)[:-1]})
        assert report != other

    def test_empty_traces_equal_the_empty_tuple(self):
        _, report = cvb_approximate(RUNGE_15, FitConfig(epsilon=10.0, max_terms=3, extra_sweeps=5))
        assert report.trace == () == tuple(report.trace) and report.trace == [] and not report.trace
        assert len(report.trace) == 0 and hash(report.trace) == hash(()) and report.trace[:] == ()
        with pytest.raises(IndexError):
            report.trace[-1]
