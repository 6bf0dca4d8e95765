"""Calibration, point mapping, warping, and model serialization."""

import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from scipy import ndimage

from cvb import fit1d, fit2d, rectify
from cvb.basis import DomainMap, ExtrapolationWarning, auto_map
from cvb.fit1d import FitConfig, FitError, FitReport
from cvb.fit2d import (
    _BLOCK,
    ChebModel2D,
    SampleSet2D,
    TermIndex2D,
    _eval_points,
    _grid_factors,
    cvb_approximate_2d,
    eval_model_2d,
    term_matrix,
    visit_order,
)
from cvb.rectify import (
    _BAND,
    SUBFIT_NAMES,
    CalibrationMeta,
    CalibrationModel,
    Correspondence,
    ModelParseError,
    ModelVersionError,
    WarpSpec,
    calibrate,
    load_model,
    map_point,
    save_model,
    warp_image,
)
from cvb.synthetic import DistortionParams, distort, gen_correspondences, max_displacement_px

ORACLE = DistortionParams()  # frozen acceptance fixture: 5 deg rotation, ~4 px pincushion
FWD_CONFIG = FitConfig(epsilon=0.5, max_terms=8)  # 0.25 px at 0.5 px/mm
INV_CONFIG = FitConfig(epsilon=0.25, max_terms=8)


def grid_pairs(transform, us, vs):
    return [Correspondence(u, v, *transform(u, v)) for u in us for v in vs]


@pytest.fixture(scope="module")
def oracle_model():
    return calibrate(gen_correspondences(ORACLE), FWD_CONFIG, inverse_config=INV_CONFIG)


class TestCalibrateBasics:
    def test_identity_grid_round_trip(self):
        pairs = grid_pairs(lambda u, v: (u, v), np.linspace(0, 30, 4), np.linspace(0, 20, 5))
        model = calibrate(pairs, FitConfig(epsilon=1e-9, max_terms=4))
        for u, v in [(3.3, 7.7), (21.0, 12.5), (28.0, 1.0)]:
            X, Y = map_point(model, u, v)
            assert math.hypot(X - u, Y - v) <= 1e-6

    def test_pure_rotation_reproduced(self):
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = lambda u, v: (c * u - s * v, s * u + c * v)
        pairs = grid_pairs(rot, np.linspace(-10, 10, 4), np.linspace(-8, 8, 5))
        model = calibrate(pairs, FitConfig(epsilon=1e-9, max_terms=4))
        for u, v in [(1.2, -3.5), (7.0, 6.0)]:
            X, Y = map_point(model, u, v)
            ex, ey = rot(u, v)
            assert math.hypot(X - ex, Y - ey) <= 1e-6
        # at a sample correspondence the fit residual bound applies directly
        p = pairs[7]
        X, Y = map_point(model, p.u, p.v)
        assert abs(X - p.X) <= 1e-9 + 1e-6 and abs(Y - p.Y) <= 1e-9 + 1e-6

    def test_sample_points_hit_within_epsilon(self, oracle_model):
        eps = FWD_CONFIG.epsilon
        for u, v, X_true, Y_true in gen_correspondences(ORACLE):
            X, Y = map_point(oracle_model, u, v)
            assert abs(X - X_true) <= eps + 1e-6
            assert abs(Y - Y_true) <= eps + 1e-6

    def test_needs_three_pairs(self):
        with pytest.raises(ValueError):
            calibrate([Correspondence(0, 0, 0, 0), Correspondence(1, 1, 1, 1)], FitConfig(max_terms=2))

    def test_duplicate_pixel_pair_rejected(self):
        pairs = [
            Correspondence(0, 0, 0, 0),
            Correspondence(0, 0, 5, 5),
            Correspondence(1, 1, 1, 1),
        ]
        with pytest.raises(ValueError, match="pixel"):
            calibrate(pairs, FitConfig(max_terms=2))

    def test_duplicate_world_pair_rejected(self):
        pairs = [
            Correspondence(0, 0, 0, 0),
            Correspondence(1, 1, 0, 0),
            Correspondence(2, 2, 1, 1),
        ]
        with pytest.raises(ValueError, match="world"):
            calibrate(pairs, FitConfig(max_terms=2))

    @pytest.mark.parametrize("what, offset", [("pixel", (1e-11, 0, 5, 7)), ("world", (5, 7, 0, 1e-11))])
    def test_near_duplicate_pair_named_after_its_side(self, what, offset):
        # 1e-11 apart in raw units is closer than MIN_NODE_GAP once normalized
        base = [(100.0, 200.0, -30.0, 40.0), (300.0, 50.0, 20.0, -10.0), (500.0, 400.0, 60.0, 35.0)]
        near = tuple(b + d for b, d in zip(base[0], offset))
        pairs = [Correspondence(*p) for p in base + [near]]
        with pytest.raises(ValueError, match=f"duplicate {what}"):
            calibrate(pairs, FitConfig(max_terms=2))

    def test_correspondence_requires_finite_fields(self):
        with pytest.raises(ValueError):
            Correspondence(0.0, 0.0, float("inf"), 0.0)

    def test_map_point_outside_calibrated_region_warns(self, oracle_model):
        with pytest.warns(UserWarning):
            map_point(oracle_model, -5000.0, 240.0)

    def test_deterministic_bit_identical(self):
        pairs = gen_correspondences(ORACLE)
        a = calibrate(pairs, FWD_CONFIG, inverse_config=INV_CONFIG)
        b = calibrate(pairs, FWD_CONFIG, inverse_config=INV_CONFIG)
        assert save_model(a) == save_model(b)

    def test_shared_domain_maps_per_coordinate_pair(self, oracle_model):
        m = oracle_model
        assert m.fwd_x.xmap == m.fwd_y.xmap and m.fwd_x.ymap == m.fwd_y.ymap
        assert m.inv_u.xmap == m.inv_v.xmap and m.inv_u.ymap == m.inv_v.ymap


def oracle_table():
    """The oracle camera's ``gen_correspondences`` table, a new (20, 4) u,v,X,Y array at each call."""
    return gen_correspondences(ORACLE)


class TestCalibrationInput:
    """``calibrate`` reads any u,v,X,Y rows through one (m, 4) float table."""

    @pytest.mark.parametrize("form", ["array", "tuples", "correspondences", "keyword correspondences"])
    def test_every_row_form_gives_one_model(self, form):
        table = oracle_table()
        pairs = {
            "array": table,
            "tuples": [tuple(row) for row in table.tolist()],
            "correspondences": [Correspondence(*row) for row in table],
            "keyword correspondences": [Correspondence(u=u, v=v, X=X, Y=Y) for u, v, X, Y in table],
        }[form]
        expected = save_model(calibrate(table, FWD_CONFIG, inverse_config=INV_CONFIG))
        assert save_model(calibrate(pairs, FWD_CONFIG, inverse_config=INV_CONFIG)) == expected

    def test_caller_table_is_left_alone(self):
        table = oracle_table()
        before = table.copy()
        calibrate(table, FWD_CONFIG, inverse_config=INV_CONFIG)
        assert np.array_equal(table, before)

    @pytest.mark.parametrize("pairs, match", [
        (np.zeros((5, 3)), r"u,v,X,Y rows, got an array of shape \(5, 3\)"),
        (np.arange(8.0), r"u,v,X,Y rows, got an array of shape \(8,\)"),
        ([], r"u,v,X,Y rows, got an array of shape \(0,\)"),
        (np.empty((0, 4)), "need at least 3 correspondences, got 0"),
        ([(0, 0, 0, 0), (1, 1, 1, 1)], "need at least 3 correspondences, got 2"),
    ], ids=["three columns", "1-D", "empty list", "no rows", "two rows"])
    def test_malformed_tables_are_named(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            calibrate(pairs, FitConfig(max_terms=2))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("column", range(4))
    def test_non_finite_entry_in_a_raw_table_is_refused(self, column, value):
        table = oracle_table()
        table[3, column] = value
        with pytest.raises(ValueError, match="finite"):
            calibrate(table, FWD_CONFIG)

    @pytest.mark.parametrize("build", ["_make", "_replace"])
    def test_rows_that_skip_the_field_check_are_refused(self, build):
        # _make and _replace build the tuple without Correspondence.__new__
        pairs = [Correspondence(*row) for row in oracle_table()]
        pairs[5] = (Correspondence._make((1.0, 2.0, float("nan"), 4.0)) if build == "_make"
                    else pairs[5]._replace(Y=float("inf")))
        with pytest.raises(ValueError, match="finite"):
            calibrate(pairs, FWD_CONFIG)

    def test_inverse_degree_bound_must_match(self):
        # the document holds one degree bound, so two are refused before any fit
        with pytest.raises(ValueError, match=r"inverse_config.max_terms=6 differs from config.max_terms=8"):
            calibrate(oracle_table(), FitConfig(epsilon=0.5, max_terms=8),
                      inverse_config=FitConfig(epsilon=0.25, max_terms=6))

    def test_sub_fit_with_no_usable_terms_is_refused(self):
        # with the constant term alone, a zero-mean X target takes an increment of exactly 0
        pairs = [(u, v, (-1.0) ** (u + v), 4.0 * u + v) for u in range(4) for v in range(4)]
        with pytest.raises(FitError, match="sub-fit fwd_x is degenerate: no usable terms"):
            calibrate(pairs, FitConfig(epsilon=0.0, max_terms=1))

    def test_targets_already_within_epsilon_give_empty_surfaces(self):
        # the zero surface meets epsilon, so each sub-fit converges without a step
        model = calibrate(gen_correspondences(DistortionParams()), FitConfig(epsilon=1e9, max_terms=8))
        for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"):
            sub, stats = getattr(model, name), model.meta.stats[name]
            assert sub.coeffs == {} and stats.converged and stats.trace == ()
        document = save_model(model)
        loaded = load_model(document)
        assert all(getattr(loaded, name).coeffs == {} for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"))
        assert save_model(loaded) == document


class TestCorrespondenceRow:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["u", "v", "X", "Y"])
    def test_names_the_non_finite_field(self, field, value):
        fields = {"u": 1.0, "v": 2.0, "X": 3.0, "Y": 4.0, field: value}
        with pytest.raises(ValueError, match=f"correspondence field {field} must be finite"):
            Correspondence(**fields)
        with pytest.raises(ValueError, match=f"correspondence field {field} must be finite"):
            Correspondence(*fields.values())

    def test_keyword_and_positional_construction_agree(self):
        p = Correspondence(1.5, 2, 3, 4)
        q = Correspondence(Y=4, X=3, v=2, u=1.5)
        assert p == q == (1.5, 2.0, 3.0, 4.0)
        assert (p.u, p.v, p.X, p.Y) == tuple(p) and Correspondence._fields == ("u", "v", "X", "Y")

    def test_fields_become_floats(self):
        p = Correspondence(np.float32(0.5), np.int64(2), 3, True)
        assert all(type(value) is float for value in p) and p == (0.5, 2.0, 3.0, 1.0)

    def test_is_an_immutable_row(self):
        p = Correspondence(1, 2, 3, 4)
        u, v, X, Y = p
        assert (u, v, X, Y) == (1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            p.u = 5.0


class TestCalibrationStats:
    def test_stats_are_fit_reports_ending_at_the_last_step(self, oracle_model):
        for name, report in oracle_model.meta.stats.items():
            assert isinstance(report, FitReport), name
            last = report.trace[-1]
            assert (report.max_abs_residual, report.l2_residual) == (last.max_abs_residual, last.l2_residual)

    def test_sub_fit_with_empty_trace_reports_its_data(self):
        # every world point on X = 0: fwd_x has nothing to fit and takes no step
        pairs = [Correspondence(u, v, 0.0, 2.0 * u + v) for u in (1.0, 4.0, 9.0) for v in (0.0, 5.0)]
        model = calibrate(pairs, FitConfig(epsilon=1e-9, max_terms=3))
        fwd_x, fwd_y = model.meta.stats["fwd_x"], model.meta.stats["fwd_y"]
        assert fwd_x.trace == () and fwd_x.converged
        assert (fwd_x.max_abs_residual, fwd_x.l2_residual) == (0.0, 0.0)
        assert fwd_y.trace and fwd_y.max_abs_residual == fwd_y.trace[-1].max_abs_residual


def jittered_pairs(seed):
    """A jittered world grid seen through the oracle distortion, as the rectification benchmark draws it."""
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.linspace(-500.0, 500.0, 13), np.linspace(-380.0, 380.0, 10))
    X = gx.ravel() + rng.uniform(-4.0, 4.0, gx.size)
    Y = gy.ravel() + rng.uniform(-4.0, 4.0, gy.size)
    return np.column_stack((*distort(ORACLE, X, Y), X, Y))


def separate_sub_fits(pairs, config, inverse_config=None):
    """The four sub-fits as four ``cvb_approximate_2d`` calls, each on its own sample set."""
    columns = np.asarray(pairs, dtype=float).T.copy()
    maps = [auto_map(c) for c in columns]
    normed = [m.forward(c) for m, c in zip(maps, columns)]
    jobs = {"fwd_x": (0, 1, 2, config), "fwd_y": (0, 1, 3, config),
            "inv_u": (2, 3, 0, inverse_config or config), "inv_v": (2, 3, 1, inverse_config or config)}
    return {name: cvb_approximate_2d(SampleSet2D(x=normed[a], y=normed[b], z=columns[k]), cfg,
                                     xmap=maps[a], ymap=maps[b])
            for name, (a, b, k, cfg) in jobs.items()}


def counted(built, name, func):
    """``func``, counting its calls in ``built[name]``."""
    def wrapper(*args, **kwargs):
        built[name] += 1
        return func(*args, **kwargs)
    return wrapper


def exact_report(report):
    """Every field of a FitReport, each float as float.hex."""
    h = lambda value: float(value).hex()
    steps = tuple((s.term, s.kind, h(s.increment), h(s.max_abs_residual), h(s.l2_residual), s.coeffs)
                  for s in report.trace)
    return (steps, report.terms_used, report.converged, report.skipped,
            h(report.max_abs_residual), h(report.l2_residual))


# (pairs, config, inverse_config): seeds, another inverse target with extra
# sweeps, a constant u column (so every T_1(u) term is skipped), and a target
# every zero surface already meets
SHARED_SET_UP_CASES = {
    "seed-1": (lambda: jittered_pairs(1), FWD_CONFIG, INV_CONFIG),
    "seed-2": (lambda: jittered_pairs(2), FWD_CONFIG, INV_CONFIG),
    "seed-3": (lambda: jittered_pairs(3), FWD_CONFIG, INV_CONFIG),
    "extra-sweeps": (lambda: gen_correspondences(ORACLE), FitConfig(epsilon=0.5, max_terms=8, extra_sweeps=2),
                     FitConfig(epsilon=0.1, max_terms=8, extra_sweeps=2)),
    "skipped": (lambda: [(5.0, v, float(v), v * v + 0.1 * v) for v in range(10)],
                FitConfig(epsilon=0.0, max_terms=4), None),
    "epsilon-1e9": (lambda: gen_correspondences(ORACLE), FitConfig(epsilon=1e9, max_terms=8), None),
}


class TestSharedSetUp:
    """calibrate fits each direction's two surfaces from one sample set, term matrix and revisit plan."""

    @pytest.mark.parametrize("case", SHARED_SET_UP_CASES)
    def test_equals_four_separate_fits(self, case):
        make_pairs, config, inverse_config = SHARED_SET_UP_CASES[case]
        pairs = make_pairs()
        model = calibrate(pairs, config, inverse_config=inverse_config)
        separate = separate_sub_fits(pairs, config, inverse_config)
        for name in SUBFIT_NAMES:
            sub, (alone, report) = getattr(model, name), separate[name]
            assert [(t, c.hex()) for t, c in sub.coeffs.items()] == [(t, c.hex()) for t, c in alone.coeffs.items()]
            assert (sub.xmap, sub.ymap, sub.degree_bound) == (alone.xmap, alone.ymap, alone.degree_bound)
            assert exact_report(model.meta.stats[name]) == exact_report(report), name
        if case == "skipped":
            assert TermIndex2D(1, 0) in model.meta.stats["fwd_x"].skipped
        meta = CalibrationMeta(epsilon=config.epsilon, degree_bound=config.max_terms)
        assert save_model(model) == save_model(
            CalibrationModel(meta=meta, **{name: fit[0] for name, fit in separate.items()}))

    def test_set_up_is_built_once_per_direction(self, monkeypatch):
        built = {"SampleSet2D": 0, "term_matrix": 0}
        plans = []  # held, so no two plans share an id
        fit1d_sweep = fit1d._sweep

        def sweep(*args, **kwargs):
            plans.append(inspect.signature(fit1d_sweep).bind(*args, **kwargs).arguments["plan"])
            return fit1d_sweep(*args, **kwargs)

        monkeypatch.setattr(rectify, "SampleSet2D", counted(built, "SampleSet2D", SampleSet2D))
        monkeypatch.setattr(fit2d, "term_matrix", counted(built, "term_matrix", term_matrix))
        monkeypatch.setattr(fit1d, "_sweep", sweep)
        calibrate(gen_correspondences(ORACLE), FWD_CONFIG, inverse_config=INV_CONFIG)
        # one sweep plan per direction, shared by its two targets
        assert built == {"SampleSet2D": 2, "term_matrix": 2}
        assert len(plans) == 4 and len({id(plan) for plan in plans}) == 2
        assert plans[0] is plans[1] and plans[2] is plans[3]

    @pytest.mark.parametrize("first, later", [("fwd_x", ()), ("fwd_y", ("inv_v",)), ("inv_v", ())])
    def test_the_first_degenerate_sub_fit_is_named(self, monkeypatch, first, later):
        # with the constant term alone, a zero-sum target takes an increment of exactly 0: v takes
        # -1.5 .. 1.5, so inv_v's target sums to 0, and so does an X or Y that alternates in sign
        grid = [(u, v) for u in range(4) for v in (-1.5, -0.5, 0.5, 1.5)]
        alternating = [(-1.0) ** (u + k) for k, (u, v) in enumerate(grid)]
        pairs = {"fwd_x": [(u, v, s, 4.0 * u + v) for (u, v), s in zip(grid, alternating)],
                 "fwd_y": [(u, v, 4.0 * u + v, s) for (u, v), s in zip(grid, alternating)],
                 "inv_v": [(u, v, 4.0 * u + v, 4.0 * v + u) for u, v in grid]}[first]
        built = {"term_matrix": 0, "sweeps": 0}

        monkeypatch.setattr(fit2d, "term_matrix", counted(built, "term_matrix", term_matrix))
        monkeypatch.setattr(fit1d, "_sweep", counted(built, "sweeps", fit1d._sweep))
        with pytest.raises(FitError, match=f"sub-fit {first} is degenerate: no usable terms"):
            calibrate(pairs, FitConfig(epsilon=0.0, max_terms=1))
        # no sub-fit after the first failing one is swept, and no inverse set-up follows a forward failure
        position = SUBFIT_NAMES.index(first)
        assert built == {"term_matrix": 1 + position // 2, "sweeps": 1 + position}
        for name in later:
            alone = separate_sub_fits(pairs, FitConfig(epsilon=0.0, max_terms=1))[name]
            assert not alone[0].coeffs and not alone[1].converged


class TestOracleAccuracy:
    def test_held_out_error_within_tenth_of_distortion(self, oracle_model):
        max_disp_mm = max_displacement_px(ORACLE) / ORACLE.scale
        w, h = ORACLE.image_size
        half_x, half_y = (w / 2) / ORACLE.scale, (h / 2) / ORACLE.scale
        worst = 0.0
        for X in np.linspace(-0.7 * half_x, 0.7 * half_x, 9):
            for Y in np.linspace(-0.7 * half_y, 0.7 * half_y, 9):
                u, v = distort(ORACLE, X, Y)
                Xh, Yh = map_point(oracle_model, u, v)
                worst = max(worst, math.hypot(Xh - X, Yh - Y))
        assert worst <= 0.1 * max_disp_mm

    def test_term_budget(self, oracle_model):
        for name, stats in oracle_model.meta.stats.items():
            assert stats.terms_used <= 36, name
            assert stats.converged, name

    def test_forward_inverse_consistency(self, oracle_model):
        stats = oracle_model.meta.stats
        bound = 2 * (
            stats["inv_u"].max_abs_residual
            + stats["inv_v"].max_abs_residual
            + (stats["fwd_x"].max_abs_residual + stats["fwd_y"].max_abs_residual) * ORACLE.scale
        )
        w, h = ORACLE.image_size
        half_x, half_y = (w / 2) / ORACLE.scale, (h / 2) / ORACLE.scale
        for X in np.linspace(-0.7 * half_x, 0.7 * half_x, 8):
            for Y in np.linspace(-0.7 * half_y, 0.7 * half_y, 8):
                u, v = distort(ORACLE, X, Y)
                Xf, Yf = map_point(oracle_model, u, v)
                ub, vb = eval_model_2d(oracle_model.inv_u, Xf, Yf), eval_model_2d(oracle_model.inv_v, Xf, Yf)
                assert math.hypot(ub - u, vb - v) <= bound


class TestWarp:
    def test_identity_round_trips_pixels(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8)
        pairs = grid_pairs(lambda u, v: (u, v), np.linspace(0, 16, 4), np.linspace(0, 12, 5))
        model = calibrate(pairs, FitConfig(epsilon=1e-9, max_terms=4))
        out = warp_image(model, img, WarpSpec(width=16, height=12, window=(0, 16, 0, 12)))
        assert np.array_equal(out, img)

    @pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
    def test_translation_with_fill(self):
        # the window deliberately pokes past the calibrated region to expose the border
        rng = np.random.default_rng(6)
        img = rng.integers(1, 256, size=(10, 10), dtype=np.uint8)
        # world = pixel shifted by +3 columns: inverse maps world back to u = X - 3
        pairs = grid_pairs(lambda u, v: (u + 3, v), np.linspace(0, 10, 4), np.linspace(0, 10, 4))
        model = calibrate(pairs, FitConfig(epsilon=1e-9, max_terms=4))
        out = warp_image(model, img, WarpSpec(width=10, height=10, window=(0, 10, 0, 10)), fill=0)
        # world window column c samples source column c - 3
        assert np.array_equal(out[:, 3:], img[:, :7])
        assert np.all(out[:, :3] == 0)

    def test_matches_meshgrid_oracle_pixel_for_pixel(self, oracle_model):
        rng = np.random.default_rng(8)
        w, h = ORACLE.image_size
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        spec = WarpSpec(w, h, (-448.0, 448.0, -336.0, 336.0))
        # oracle: the point evaluator over a meshgrid, floor, then gather
        x0, x1, y0, y1 = spec.window
        wx = x0 + (np.arange(w) + 0.5) * (x1 - x0) / w
        wy = y0 + (np.arange(h) + 0.5) * (y1 - y0) / h
        wxx, wyy = np.meshgrid(wx, wy)
        inv_u, inv_v = oracle_model.inv_u, oracle_model.inv_v
        su = np.floor(C.chebval2d(inv_u.xmap.forward(wxx), inv_u.ymap.forward(wyy), inv_u.dense()))
        sv = np.floor(C.chebval2d(inv_v.xmap.forward(wxx), inv_v.ymap.forward(wyy), inv_v.dense()))
        valid = (su >= 0) & (su < w) & (sv >= 0) & (sv < h)
        expected = np.zeros_like(img)
        expected[valid] = img[sv[valid].astype(int), su[valid].astype(int)]
        assert valid.mean() > 0.9
        assert np.array_equal(warp_image(oracle_model, img, spec), expected)

    def test_huge_extrapolated_positions_take_the_fill(self, oracle_model):
        inv = oracle_model.inv_u
        huge = ChebModel2D(coeffs={TermIndex2D(0, 0): 1e300}, xmap=inv.xmap, ymap=inv.ymap,
                           degree_bound=inv.degree_bound)
        model = CalibrationModel(fwd_x=oracle_model.fwd_x, fwd_y=oracle_model.fwd_y,
                                 inv_u=huge, inv_v=oracle_model.inv_v, meta=oracle_model.meta)
        img = np.full((480, 640), 200, dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = warp_image(model, img, WarpSpec(64, 48, (-300.0, 300.0, -200.0, 200.0)), fill=7)
        assert out.shape == (48, 64) and np.all(out == 7)

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            WarpSpec(width=4, height=4, window=(0, 0, 0, 1))

    @pytest.mark.parametrize("window", [(-math.inf, math.inf, -1, 1), (0, math.inf, -1, 1), (-1, 1, math.nan, 1),
                                        (-1e308, 1e308, -1, 1), (-1, 1, -1e308, 1e308),
                                        (-1e306, 1e306, -1, 1)])  # span finite, span x width not
    def test_rejects_window_that_is_not_finite(self, window):
        with pytest.raises(ValueError, match="finite"):
            WarpSpec(width=640, height=480, window=window)

    def test_dot_centroids_land_on_world_grid(self, oracle_model):
        # distorted image of a dot pattern, rectified back to world coordinates
        w, h = ORACLE.image_size
        half_x, half_y = (w / 2) / ORACLE.scale, (h / 2) / ORACLE.scale
        dots = [
            (X, Y)
            for Y in np.linspace(-0.6 * half_y, 0.6 * half_y, 3)
            for X in np.linspace(-0.6 * half_x, 0.6 * half_x, 6)
        ]
        img = np.zeros((h, w), dtype=np.uint8)
        rr, cc = np.mgrid[0:h, 0:w]
        for X, Y in dots:
            u, v = distort(ORACLE, X, Y)
            img[(cc + 0.5 - u) ** 2 + (rr + 0.5 - v) ** 2 <= 36.0] = 255

        x0, x1 = -0.7 * half_x, 0.7 * half_x
        y0, y1 = -0.7 * half_y, 0.7 * half_y
        out_w = int((x1 - x0) * ORACLE.scale)
        out_h = int((y1 - y0) * ORACLE.scale)
        warped = warp_image(oracle_model, img, WarpSpec(out_w, out_h, (x0, x1, y0, y1)))

        labels, found = ndimage.label(warped > 128)
        assert found == len(dots)
        centroids = ndimage.center_of_mass(warped > 128, labels, range(1, found + 1))
        for X, Y in dots:
            col = (X - x0) / (x1 - x0) * out_w - 0.5
            row = (Y - y0) / (y1 - y0) * out_h - 0.5
            offset = min(math.hypot(r - row, c - col) for r, c in centroids)
            assert offset <= 1.0


def mask_gather(image, u, v, fill):
    """The boolean-mask warp gather: bounds test on the floats, truncate, index in two axes."""
    in_h, in_w = image.shape[:2]
    valid = (u >= 0) & (u < in_w) & (v >= 0) & (v < in_h)
    out = np.empty(u.shape + image.shape[2:], dtype=image.dtype)
    out[...] = fill
    out[valid] = image[v[valid].astype(np.intp), u[valid].astype(np.intp)]
    return out


class PlantedRows:
    """A right grid factor that hands back the rows of the left one: ``left @ PlantedRows()`` copies left.

    numpy hands ``matmul`` with it to ``__array_ufunc__``, so planted
    positions reach the band loop bit for bit; a numeric identity matrix
    would turn a planted inf into NaN in every other column (inf * 0).
    """

    def __array_ufunc__(self, ufunc, method, left, right, out=None):
        assert ufunc is np.matmul and method == "__call__" and right is self
        if out is None:
            return left.copy()
        out[0][...] = left
        return out[0]


@pytest.fixture
def planted_warp(monkeypatch):
    """warp_image with source positions planted in place of the inverse surfaces.

    Returns ``warp(image, u, v, fill)``.  The planted grids stand in for the
    left factors of ``_grid_factors``, so the warp's own band loop copies
    their rows band by band into its buffers and gathers them.
    """
    import cvb.rectify

    sub = {name: ChebModel2D(coeffs={TermIndex2D(0, 0): float(k)}, degree_bound=2)
           for k, name in enumerate(("fwd_x", "fwd_y", "inv_u", "inv_v"))}
    model = CalibrationModel(**sub, meta=CalibrationMeta(epsilon=0.5, degree_bound=2))

    def warp(image, u, v, fill):
        planted = {id(sub["inv_u"]): u, id(sub["inv_v"]): v}
        monkeypatch.setattr(cvb.rectify, "_grid_factors",
                            lambda ms, wx, wy: tuple((planted[id(m)], PlantedRows()) for m in ms))
        h, w = u.shape
        return warp_image(model, image, WarpSpec(w, h, (0.0, 1.0, 0.0, 1.0)), fill=fill)

    return warp


def planted_positions(in_h, in_w, shape, seed, rows=(0,)):
    """Random in-raster positions with every awkward value planted on each axis.

    The awkward values are laid out row-major from the start of each row in
    ``rows``.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, in_w, shape)
    v = rng.uniform(0, in_h, shape)
    awkward = [np.nan, np.inf, -np.inf, -0.5, 1e300, -1e300, -0.0, 0.0]
    for start in (row * shape[1] for row in rows):
        for k, value in enumerate(awkward + [in_w, in_w - 1e-9]):
            u.flat[start + 3 * k] = value
        for k, value in enumerate(awkward + [in_h, in_h - 1e-9]):
            v.flat[start + 3 * k + 1] = value
    u.flat[-1], v.flat[-1] = in_w, in_h
    return u, v


class TestPlantedWarp:
    @pytest.mark.parametrize("channels, fill", [(None, 0), (None, 7), (3, 9), (3, (1, 2, 3)),
                                                (3, np.array([4, 5, 6], dtype=np.uint8))])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_mask_gather(self, planted_warp, channels, fill, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(7, 11) + ((channels,) if channels else ()), dtype=np.uint8)
        u, v = planted_positions(7, 11, (6, 9), seed)
        expect = mask_gather(image, u, v, fill)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = planted_warp(image, u, v, fill)
        assert got.dtype == image.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("channels, fill", [(None, 7), (3, (1, 2, 3))])
    @pytest.mark.parametrize("seed", range(2))
    def test_awkward_positions_on_both_sides_of_band_boundaries(self, planted_warp, channels, fill, seed):
        # the planted values of each start row spill into the next three rows
        # of 9 pixels, so those from rows _BAND - 2 and 2 * _BAND - 2 straddle a
        # band boundary, and the last band is short
        height = 2 * _BAND + 5
        assert height % _BAND
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(7, 11) + ((channels,) if channels else ()), dtype=np.uint8)
        u, v = planted_positions(7, 11, (height, 9), seed, rows=(0, _BAND - 2, 2 * _BAND - 2, height - 4))
        missed = ~((u >= 0) & (u < 11) & (v >= 0) & (v < 7))
        assert all(missed[row].any() for row in (_BAND - 1, _BAND, 2 * _BAND - 1, 2 * _BAND))
        expect = mask_gather(image, u, v, fill)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = planted_warp(image, u, v, fill)
        assert got.dtype == image.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("n_invalid", [0, 3, 40])
    def test_triple_fill_on_grayscale_rejected_however_many_pixels_miss(self, planted_warp, n_invalid):
        # a 3-wide raster would let a (3,) fill broadcast along its rows
        image = np.arange(20, dtype=np.uint8).reshape(4, 5)
        u = np.full((20, 3), 2.5)
        v = np.full((20, 3), 1.5)
        u.flat[:n_invalid] = -1.0
        with pytest.raises(ValueError):
            planted_warp(image, u, v, (1, 2, 3))

    def test_empty_source_image_rejected(self, planted_warp):
        with pytest.raises(ValueError, match="empty"):
            planted_warp(np.zeros((0, 5), dtype=np.uint8), np.zeros((2, 2)), np.zeros((2, 2)), 0)


class TestSerialization:
    def test_round_trip_byte_identical(self, oracle_model):
        doc = save_model(oracle_model)
        again = save_model(load_model(doc))
        assert doc == again

    def test_round_trip_of_a_sub_model_with_no_terms(self):
        # X is 0 everywhere, so fwd_x meets epsilon=0 before its first step
        pairs = [(u, v, 0.0, 4.0 * u + v) for u in range(4) for v in range(4)]
        model = calibrate(pairs, FitConfig(epsilon=0.0, max_terms=3))
        assert model.fwd_x.coeffs == {} and model.fwd_y.coeffs
        doc = save_model(model)
        assert doc.count('"terms": []') == 1
        assert save_model(load_model(doc)) == doc

    def test_round_trip_preserves_coefficients_bit_exact(self, oracle_model):
        loaded = load_model(save_model(oracle_model))
        for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"):
            a = getattr(oracle_model, name)
            b = getattr(loaded, name)
            assert a.coeffs == b.coeffs
            assert (a.xmap, a.ymap) == (b.xmap, b.ymap)

    def test_missing_submodel_names_field(self, oracle_model):
        doc = save_model(oracle_model)
        import json

        record = json.loads(doc)
        del record["inv_u"]
        with pytest.raises(ModelParseError, match="inv_u"):
            load_model(json.dumps(record))

    def test_unknown_version_rejected(self, oracle_model):
        doc = save_model(oracle_model).replace('"version": 1', '"version": 99')
        with pytest.raises(ModelVersionError):
            load_model(doc)

    def test_malformed_json_reports_location(self):
        with pytest.raises(ModelParseError, match="line"):
            load_model("{\n  broken\n}")

    def test_minimal_hand_written_document(self):
        sub = '{"xmap": [0, 10], "ymap": [0, 10], "terms": [[0, 0, %s]]}'
        doc = (
            '{"version": 1, "epsilon": 0.5, "degree_bound": 2, '
            f'"fwd_x": {sub % "7.5"}, "fwd_y": {sub % "-2.5"}, '
            f'"inv_u": {sub % "1.0"}, "inv_v": {sub % "2.0"}}}'
        )
        model = load_model(doc)
        assert map_point(model, 3.0, 4.0) == (7.5, -2.5)
        assert (eval_model_2d(model.inv_u, 5.0, 5.0), eval_model_2d(model.inv_v, 5.0, 5.0)) == (1.0, 2.0)

    def test_duplicate_term_rejected(self):
        sub = '{"xmap": [0, 1], "ymap": [0, 1], "terms": [[0, 0, 1.0], [0, 0, 2.0]]}'
        doc = (
            '{"version": 1, "epsilon": 0, "degree_bound": 2, '
            f'"fwd_x": {sub}, "fwd_y": {sub}, "inv_u": {sub}, "inv_v": {sub}}}'
        )
        with pytest.raises(ModelParseError, match="repeats"):
            load_model(doc)

    def test_triangular_violation_rejected(self):
        sub = '{"xmap": [0, 1], "ymap": [0, 1], "terms": [[1, 1, 1.0]]}'
        doc = (
            '{"version": 1, "epsilon": 0, "degree_bound": 2, '
            f'"fwd_x": {sub}, "fwd_y": {sub}, "inv_u": {sub}, "inv_v": {sub}}}'
        )
        with pytest.raises(ModelParseError, match="fwd_x"):
            load_model(doc)

    def test_terms_sorted_by_visit_order(self, oracle_model):
        doc = save_model(oracle_model)
        loaded = load_model(doc)
        assert save_model(loaded) == doc
        # spot check: the constant term comes first in every terms list
        import json

        record = json.loads(doc)
        for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"):
            terms = record[name]["terms"]
            assert terms[0][:2] == [0, 0]

    def test_shuffled_terms_load_and_save_in_visit_order(self, oracle_model):
        doc = save_model(oracle_model)
        record = json.loads(doc)
        rng = np.random.default_rng(12)
        for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"):
            terms = record[name]["terms"]
            record[name]["terms"] = [terms[k] for k in rng.permutation(len(terms))]
        loaded = load_model(json.dumps(record))
        n = loaded.meta.degree_bound
        for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"):
            coeffs = getattr(loaded, name).coeffs
            assert list(coeffs) == [t for t in visit_order(n) if t in coeffs]
        assert save_model(loaded) == doc

    def test_save_rejects_sub_fits_of_another_degree_bound(self):
        # calibrate refuses two bounds up front; a model assembled by hand can still hold them
        four, five = (ChebModel2D({TermIndex2D(0, 0): 1.0}, degree_bound=n) for n in (4, 5))
        model = CalibrationModel(four, four, five, five, CalibrationMeta(epsilon=1e-9, degree_bound=4))
        with pytest.raises(ValueError, match="degree bound"):
            save_model(model)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_save_rejects_a_non_finite_epsilon(self, oracle_model, epsilon):
        # a model assembled by hand can hold one; its document would not load
        meta = CalibrationMeta(epsilon=epsilon, degree_bound=oracle_model.meta.degree_bound)
        model = CalibrationModel(oracle_model.fwd_x, oracle_model.fwd_y, oracle_model.inv_u, oracle_model.inv_v, meta)
        with pytest.raises(ValueError, match=f"cannot serialize non-finite value {epsilon}"):
            save_model(model)


def _document(epsilon="0.5", coefficient="1.0"):
    sub = '{"xmap": [0, 10], "ymap": [0, 10], "terms": [[0, 0, %s]]}'
    return (
        f'{{"version": 1, "epsilon": {epsilon}, "degree_bound": 2, '
        f'"fwd_x": {sub % coefficient}, "fwd_y": {sub % "1.0"}, '
        f'"inv_u": {sub % "1.0"}, "inv_v": {sub % "1.0"}}}'
    )


NON_REALS = ["null", '"0.5"', "true", "[1.0]", "NaN", "Infinity", "-Infinity",
             pytest.param("1" + "0" * 400, id="integer-beyond-float-range")]


class TestLoadModelRejectsNonReals:
    @pytest.mark.parametrize("value", NON_REALS)
    def test_epsilon(self, value):
        with pytest.raises(ModelParseError, match="epsilon"):
            load_model(_document(epsilon=value))

    @pytest.mark.parametrize("value", NON_REALS)
    def test_term_coefficient(self, value):
        with pytest.raises(ModelParseError, match="fwd_x"):
            load_model(_document(coefficient=value))

    @pytest.mark.parametrize("value", ["null", '"0"', "false", "NaN"])
    def test_domain_bound(self, value):
        doc = json.loads(_document())
        doc["inv_v"]["ymap"][0] = json.loads(value)
        with pytest.raises(ModelParseError, match="inv_v.ymap"):
            load_model(json.dumps(doc))

    def test_integer_values_are_accepted(self):
        model = load_model(_document(epsilon="1", coefficient="3"))
        assert model.meta.epsilon == 1.0
        assert map_point(model, 5.0, 5.0) == (3.0, 1.0)


def _edited(path, value):
    """``_document()`` with the field at ``path`` (keys from the root) set to ``value``."""
    doc = json.loads(_document())
    record = doc
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value
    return json.dumps(doc)


class TestLoadModelRejectsBadStructure:
    @pytest.mark.parametrize("document, message", [
        ("[1, 2]", "document root must be an object"),
        ("0.5", "document root must be an object"),
        (_edited(["fwd_y"], [1.0]), "sub-model 'fwd_y' must be an object"),
        (_edited(["inv_u", "terms"], {"0": 1.0}), "inv_u.terms must be a list"),
        (_edited(["fwd_x", "xmap"], [10, 10]), "bad fwd_x.xmap: domain requires hi > lo, got [10.0, 10.0]"),
        (_edited(["inv_v", "ymap"], [10, -5.5]), "bad inv_v.ymap: domain requires hi > lo, got [10.0, -5.5]"),
    ], ids=["list-root", "number-root", "sub-model", "terms", "xmap-empty", "ymap-reversed"])
    def test_names_the_field(self, document, message):
        with pytest.raises(ModelParseError) as caught:
            load_model(document)
        assert str(caught.value) == message


def unblocked_surface(sub, x, y):
    """One surface over the whole batch at once, the sum before blocking.

    All ``degree_bound`` columns from numpy's chebvander, then
    c * Vx[..., i] * Vy[..., j] added term by term in visit order.
    """
    vx = C.chebvander(sub.xmap.forward(np.asarray(x, dtype=float)), sub.degree_bound - 1)
    vy = C.chebvander(sub.ymap.forward(np.asarray(y, dtype=float)), sub.degree_bound - 1)
    value = np.zeros(np.shape(x))
    for (i, j), c in sub.coeffs.items():
        value += vx[..., i] * c * vy[..., j]
    return value


def loaded(fwd_x, fwd_y, inv_u, inv_v):
    model = CalibrationModel(fwd_x, fwd_y, inv_u, inv_v, CalibrationMeta(epsilon=0.5, degree_bound=8))
    return load_model(save_model(model))


def random_surface(rng, n, xmap, ymap):
    return ChebModel2D({t: rng.uniform(-50, 50) for t in visit_order(n)}, xmap=xmap, ymap=ymap, degree_bound=8)


def evaluator_models():
    rng = np.random.default_rng(17)
    frame_u, frame_v = DomainMap(-6.4, 646.4), DomainMap(-4.8, 484.8)
    world_x, world_y = DomainMap(-330.0, 330.0), DomainMap(-250.0, 250.0)
    return {
        "calibrated": calibrate(gen_correspondences(ORACLE), FWD_CONFIG, inverse_config=INV_CONFIG),
        "differing maps": loaded(
            random_surface(rng, 8, frame_u, frame_v), random_surface(rng, 8, DomainMap(0.0, 600.0), frame_v),
            random_surface(rng, 8, world_x, world_y), random_surface(rng, 8, world_x, DomainMap(-200.0, 260.0)),
        ),
        "unequal degrees": loaded(
            random_surface(rng, 8, frame_u, frame_v), random_surface(rng, 3, frame_u, frame_v),
            random_surface(rng, 2, world_x, world_y), random_surface(rng, 7, world_x, world_y),
        ),
    }


EVALUATOR_MODELS = evaluator_models()
SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK // 2]


def inverse_map(model, X, Y):
    """World (X, Y) to pixel (u, v): the inverse pair through the evaluator ``map_point`` uses."""
    return _eval_points((model.inv_u, model.inv_v), X, Y)


def frame_points(size, seed=3):
    """Pixel and world points reaching 5% beyond the calibrated frame."""
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-32.0, 672.0, size), rng.uniform(-24.0, 504.0, size)
    X, Y = rng.uniform(-340.0, 340.0, size), rng.uniform(-260.0, 260.0, size)
    return u, v, X, Y


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
@pytest.mark.parametrize("name", EVALUATOR_MODELS)
class TestSharedPointEvaluator:
    """map_point and inverse_map evaluate both surfaces in one blocked pass.

    Each value must keep the bits of its own per-surface call, whatever the
    block boundaries, the other surface or the batch size.
    """

    @pytest.mark.parametrize("size", SIZES)
    def test_equals_per_surface_calls_bit_for_bit(self, name, size):
        model = EVALUATOR_MODELS[name]
        u, v, X, Y = frame_points(size)
        for mapped, subs, a, b in ((map_point(model, u, v), (model.fwd_x, model.fwd_y), u, v),
                                   (inverse_map(model, X, Y), (model.inv_u, model.inv_v), X, Y)):
            for got, sub in zip(mapped, subs):
                assert got.shape == (size,)
                assert got.tobytes() == eval_model_2d(sub, a, b).tobytes()
                assert got.tobytes() == unblocked_surface(sub, a, b).tobytes()

    @pytest.mark.parametrize("size", SIZES[1:])
    def test_equals_scalar_calls_bit_for_bit(self, name, size):
        # every block edge, plus seeded points between them
        model = EVALUATOR_MODELS[name]
        u, v, X, Y = frame_points(size)
        edges = [k for k in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, size - 1) if k < size]
        picks = sorted(set(edges) | set(np.random.default_rng(5).integers(0, size, 30).tolist()))
        for mapping, a, b in ((map_point, u, v), (inverse_map, X, Y)):
            batch = np.column_stack(mapping(model, a, b))[picks]
            single = np.array([mapping(model, float(a[k]), float(b[k])) for k in picks])
            assert batch.tobytes() == single.tobytes()

    def test_two_dimensional_input(self, name):
        model = EVALUATOR_MODELS[name]
        u, v, _, _ = frame_points(130 * 64)  # more points than one block
        u, v = u.reshape(130, 64), v.reshape(130, 64)
        for got, sub in zip(map_point(model, u, v), (model.fwd_x, model.fwd_y)):
            assert got.shape == (130, 64)
            assert got.tobytes() == unblocked_surface(sub, u, v).tobytes()

    def test_scalar_returns_floats(self, name):
        model = EVALUATOR_MODELS[name]
        for mapping, a, b in ((map_point, 320.0, 240.0), (inverse_map, 10.0, -20.0)):
            got = mapping(model, a, b)
            assert [type(value) for value in got] == [float, float]
            assert np.array(got).tobytes() == np.array(mapping(model, np.array([a]), np.array([b]))).tobytes()

    @pytest.mark.parametrize("a, b", [(np.zeros(3), np.zeros(4)), (0.5, np.zeros(2)), (np.zeros((2, 3)), np.zeros(6))])
    def test_shape_mismatch_raises(self, name, a, b):
        model = EVALUATOR_MODELS[name]
        for mapping in (map_point, inverse_map):
            with pytest.raises(ValueError, match="share one shape"):
                mapping(model, a, b)


class TestMapPointWarnings:
    def record(self, model, u, v):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            map_point(model, u, v)
        return caught

    def test_shared_maps_warn_once_per_axis(self):
        model = EVALUATOR_MODELS["calibrated"]
        assert model.fwd_x.xmap == model.fwd_y.xmap and model.fwd_x.ymap == model.fwd_y.ymap
        u, v = np.full(3 * _BLOCK, 320.0), np.full(3 * _BLOCK, 240.0)
        assert self.record(model, u, v) == []
        u[2 * _BLOCK + 5] = 1e4  # only u leaves, in the third block
        caught = self.record(model, u, v)
        assert [w.category for w in caught] == [ExtrapolationWarning]
        assert "fitted x interval" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_differing_maps_warn_once_per_map(self):
        model = EVALUATOR_MODELS["differing maps"]
        assert model.fwd_x.xmap != model.fwd_y.xmap and model.fwd_x.ymap == model.fwd_y.ymap
        caught = self.record(model, np.array([320.0, 1e4]), np.array([240.0, 240.0]))
        assert [w.category for w in caught] == [ExtrapolationWarning] * 2
        assert [str(w.message) for w in caught] == [
            f"evaluation outside the fitted x interval [{sub.xmap.lo}, {sub.xmap.hi}]"
            for sub in (model.fwd_x, model.fwd_y)
        ]
        assert [w.filename for w in caught] == [__file__] * 2
        # 620 lies inside fwd_x's u interval and outside fwd_y's
        caught = self.record(model, np.array([620.0]), np.array([240.0]))
        assert [str(w.message) for w in caught] == [
            f"evaluation outside the fitted x interval [{model.fwd_y.xmap.lo}, {model.fwd_y.xmap.hi}]"
        ]


def test_map_point_memory_is_linear_in_the_outputs_only():
    """Beyond its two results, map_point holds a fixed amount, whatever the batch.

    Evaluating each surface over the whole batch at once would hold
    m x degree_bound columns per axis: 50 MB at these 400k points.
    """
    rng = np.random.default_rng(11)
    frame_u, frame_v = DomainMap(-6.4, 646.4), DomainMap(-4.8, 484.8)
    model = loaded(*(random_surface(rng, 8, frame_u, frame_v) for _ in range(4)))
    u, v = rng.uniform(0.0, 640.0, 400_000), rng.uniform(0.0, 480.0, 400_000)
    tracemalloc.start()
    try:
        X, Y = map_point(model, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes + Y.nbytes + 4 * 2**20


@pytest.mark.parametrize("blocks", [3, 30])
def test_map_point_builds_its_columns_once_per_call(blocks):
    """Beyond its two results, map_point holds one buffer of Chebyshev rows
    per axis map and one block of scratch, however many blocks it runs.

    Columns built afresh for each block would hold a second set beside the
    buffers, with its temporaries.
    """
    rng = np.random.default_rng(12)
    frame_u, frame_v = DomainMap(-6.4, 646.4), DomainMap(-4.8, 484.8)
    model = loaded(*(random_surface(rng, 8, frame_u, frame_v) for _ in range(4)))
    u, v = rng.uniform(0.0, 640.0, blocks * _BLOCK), rng.uniform(0.0, 480.0, blocks * _BLOCK)
    tracemalloc.start()
    try:
        X, Y = map_point(model, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 2 * 8 * _BLOCK * 8  # T_0..T_7 for the u and the v map
    assert peak - X.nbytes - Y.nbytes <= rows + _BLOCK * 8 + 16 * 2**10


def warp_axes(spec):
    """World coordinates of the output pixel centers, as ``warp_image`` lays them out."""
    x0, x1, y0, y1 = spec.window
    wx = x0 + (np.arange(spec.width) + 0.5) * (x1 - x0) / spec.width
    wy = y0 + (np.arange(spec.height) + 0.5) * (y1 - y0) / spec.height
    return wx, wy


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
@pytest.mark.parametrize("name", EVALUATOR_MODELS)
@pytest.mark.parametrize("window", [(-300.0, 300.0, -200.0, 200.0), (-2000.0, 2000.0, -900.0, 900.0)],
                         ids=["inside", "beyond"])
@pytest.mark.parametrize("height", [1, _BAND - 1, _BAND, _BAND + 1, 257])
def test_band_rows_match_the_whole_grid_to_a_few_ulps(name, window, height):
    """The warp's bands of grid rows agree with the whole grid L @ R.

    Not bit for bit: BLAS may round a row of a matrix product differently
    with another row count in the call (up to 2 ulps of |L| @ |R| on these
    windows, while 480 rows by 640 agree exactly), so the bound is a few ulps
    of |L| @ |R|, the magnitude the products sum, not of their possibly
    cancelling result.
    """
    model = EVALUATOR_MODELS[name]
    wx, wy = warp_axes(WarpSpec(333, height, window))
    for left, right in _grid_factors((model.inv_u, model.inv_v), wx, wy):
        whole = left @ right
        bands = np.vstack([left[start:start + _BAND] @ right for start in range(0, height, _BAND)])
        assert bands.shape == whole.shape == (height, 333)
        assert np.all(np.abs(bands - whole) <= 4 * np.spacing(np.abs(left) @ np.abs(right)))


def test_warp_memory_beyond_the_output_is_a_few_bands():
    """warp_image holds the output raster plus per-band positions, not full-raster temporaries.

    Whole-raster u, v, mask and index arrays would hold about 5.9 MiB at
    640 x 480; the RGB output itself is 0.88 MiB.
    """
    model = EVALUATOR_MODELS["calibrated"]
    image = np.random.default_rng(2).integers(0, 256, size=(480, 640, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        out = warp_image(model, image, WarpSpec(640, 480, (-448.0, 448.0, -336.0, 336.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (480, 640, 3)
    assert peak < 2.5 * 2**20


class TestWarpWarnings:
    """warp_image warns as map_point does: once per axis map, naming its caller."""

    def record(self, model, window):
        image = np.zeros((480, 640), dtype=np.uint8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warp_image(model, image, WarpSpec(64, 48, window))
        return caught

    def test_shared_maps_warn_once_per_axis(self):
        model = EVALUATOR_MODELS["calibrated"]
        assert model.inv_u.xmap == model.inv_v.xmap and model.inv_u.ymap == model.inv_v.ymap
        caught = self.record(model, (-2000.0, 2000.0, -900.0, 900.0))
        assert [w.category for w in caught] == [ExtrapolationWarning] * 2
        assert [str(w.message) for w in caught] == [
            f"evaluation outside the fitted {axis} interval [{dmap.lo}, {dmap.hi}]"
            for axis, dmap in (("x", model.inv_u.xmap), ("y", model.inv_u.ymap))
        ]
        assert [w.filename for w in caught] == [__file__] * 2

    def test_window_inside_the_fit_does_not_warn(self):
        assert self.record(EVALUATOR_MODELS["calibrated"], (-448.0, 448.0, -336.0, 336.0)) == []

    def test_differing_maps_warn_once_per_map(self):
        rng = np.random.default_rng(23)
        frame_u, frame_v = DomainMap(-6.4, 646.4), DomainMap(-4.8, 484.8)
        world_y = DomainMap(-250.0, 250.0)
        model = loaded(random_surface(rng, 8, frame_u, frame_v), random_surface(rng, 8, frame_u, frame_v),
                       random_surface(rng, 8, DomainMap(-330.0, 330.0), world_y),
                       random_surface(rng, 8, DomainMap(-300.0, 360.0), world_y))
        caught = self.record(model, (-400.0, 400.0, -200.0, 200.0))
        assert [str(w.message) for w in caught] == [
            f"evaluation outside the fitted x interval [{sub.xmap.lo}, {sub.xmap.hi}]"
            for sub in (model.inv_u, model.inv_v)
        ]
        assert [w.filename for w in caught] == [__file__] * 2
        # the window's right edge lies inside inv_v's x interval and outside inv_u's
        caught = self.record(model, (-250.0, 350.0, -200.0, 200.0))
        assert [str(w.message) for w in caught] == [
            f"evaluation outside the fitted x interval [{model.inv_u.xmap.lo}, {model.inv_u.xmap.hi}]"
        ]
