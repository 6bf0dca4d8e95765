"""Calibration, point mapping, warping, and model serialization."""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from scipy import ndimage

from cvb.fit1d import FitConfig, FitReport
from cvb.fit2d import ChebModel2D, TermIndex2D, visit_order
from cvb.rectify import (
    CalibrationMeta,
    CalibrationModel,
    Correspondence,
    ModelParseError,
    ModelVersionError,
    WarpSpec,
    calibrate,
    load_model,
    map_point,
    map_world,
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
        for p in gen_correspondences(ORACLE):
            X, Y = map_point(oracle_model, p.u, p.v)
            assert abs(X - p.X) <= eps + 1e-6
            assert abs(Y - p.Y) <= eps + 1e-6

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
                ub, vb = map_world(oracle_model, *map_point(oracle_model, u, v))
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


class TestSerialization:
    def test_round_trip_byte_identical(self, oracle_model):
        doc = save_model(oracle_model)
        again = save_model(load_model(doc))
        assert doc == again

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
        assert map_world(model, 5.0, 5.0) == (1.0, 2.0)

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
        pairs = grid_pairs(lambda u, v: (u, v), np.linspace(0, 30, 4), np.linspace(0, 20, 5))
        model = calibrate(pairs, FitConfig(epsilon=1e-9, max_terms=4),
                          inverse_config=FitConfig(epsilon=1e-9, max_terms=5))
        with pytest.raises(ValueError, match="degree bound"):
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
