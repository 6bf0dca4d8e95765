"""Dataset generators and the distortion oracle."""

import math

import numpy as np
import pytest

from cvb.synthetic import (
    DistortionParams,
    default_pattern,
    distort,
    gen_correspondences,
    gen_humped_flat,
    gen_noisy_line,
    gen_runge,
    max_displacement_px,
    runge,
)


class TestRunge:
    def test_peak_at_origin(self):
        assert runge(0.0) == 1.0

    def test_edges(self):
        assert runge(1.0) == pytest.approx(1 / 26)
        assert runge(-1.0) == pytest.approx(1 / 26)

    def test_half_value_point(self):
        # 1 / (1 + 25 * 0.04) = 1/2
        assert runge(0.2) == pytest.approx(0.5)

    def test_gen_equispaced_nodes(self):
        s = gen_runge(5)
        assert s.x.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert s.y[2] == 1.0

    def test_gen_nine_point_values(self):
        s = gen_runge(9)
        quarter = dict(zip(s.x.tolist(), s.y.tolist()))
        assert quarter[0.25] == pytest.approx(16 / 41)
        assert quarter[-0.25] == pytest.approx(16 / 41)

    def test_gen_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            gen_runge(1)


class TestFixedDatasets:
    def test_humped_flat_single_maximum(self):
        s = gen_humped_flat()
        assert s.m == 9
        peak = np.argmax(s.y)
        assert (s.x[peak], s.y[peak]) == (0.0, 1.0)
        assert np.count_nonzero(s.y == 1.0) == 1

    def test_humped_flat_is_flat_at_edges(self):
        s = gen_humped_flat()
        assert np.all(s.y[:3] == 0.0) and np.all(s.y[-3:] == 0.0)

    def test_noisy_line_deterministic(self):
        a, b = gen_noisy_line(7), gen_noisy_line(7)
        assert a.x.tolist() == b.x.tolist()
        assert a.y.tolist() == b.y.tolist()

    def test_noisy_line_seed_changes_data(self):
        assert gen_noisy_line(7).x.tolist() != gen_noisy_line(8).x.tolist()

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_noisy_line_shape(self, seed):
        s = gen_noisy_line(seed)
        assert s.m == 9
        assert np.all(np.diff(s.x) >= 0.05 - 1e-12)
        assert np.abs(s.x).max() <= 1.0
        noise = s.y - (0.5 * s.x + 0.1)
        assert np.abs(noise).max() <= 0.05


class TestDistort:
    def test_world_origin_maps_to_center(self):
        params = DistortionParams(rotation=0.7, pincushion=0.25)
        assert distort(params, 0.0, 0.0) == (320.0, 240.0)

    def test_identity_params_scale_about_center(self):
        params = DistortionParams(rotation=0.0, pincushion=0.0)
        u, v = distort(params, 100.0, -40.0)
        assert (u, v) == (320.0 + 0.5 * 100.0, 240.0 + 0.5 * -40.0)

    def test_pure_similarity_is_invertible_by_hand(self):
        params = DistortionParams(rotation=0.0, pincushion=0.0)
        u, v = distort(params, 31.0, 57.0)
        assert ((u - 320.0) / 0.5, (v - 240.0) / 0.5) == (31.0, 57.0)

    def test_rotation_preserves_radius_without_pincushion(self):
        params = DistortionParams(rotation=math.radians(30), pincushion=0.0)
        u, v = distort(params, 80.0, 60.0)
        assert math.hypot(u - 320.0, v - 240.0) == pytest.approx(0.5 * math.hypot(80, 60))

    def test_default_max_displacement_near_four_px(self):
        assert max_displacement_px(DistortionParams()) == pytest.approx(4.0, abs=0.05)

    @pytest.mark.parametrize(
        "params, expect",
        [
            (DistortionParams(), 4.0),
            (DistortionParams(pincushion=0.02, center=(300, 200)), 10.681017039589443),
            (DistortionParams(pincushion=-0.01, center=(500.0, 400.0)), 16.408005858421674),
        ],
    )
    def test_max_displacement_is_the_pixel_grid_maximum(self, params, expect):
        # oracle: the push |p| r^3 / R^2 at every pixel of the frame, 0..w by 0..h
        w, h = params.image_size
        uu, vv = np.meshgrid(np.arange(w + 1.0), np.arange(h + 1.0))
        r = np.hypot(uu - params.center[0], vv - params.center[1])
        grid_max = float(np.max(abs(params.pincushion) * r**3 / params.half_diagonal**2))
        assert max_displacement_px(params) == grid_max == expect

    def test_displacement_scales_with_kappa(self):
        d1 = max_displacement_px(DistortionParams(pincushion=0.01))
        d2 = max_displacement_px(DistortionParams(pincushion=0.02))
        assert d2 == pytest.approx(2 * d1)

    @pytest.mark.parametrize("kappa", [-0.3, -0.1, 0.1, 0.3])
    def test_injective_radial_profile_at_pixel_resolution(self, kappa):
        # r -> r (1 + kappa (r/R)^2) strictly increasing over the frame,
        # checked brute force at 1 px steps; with the angle preserved this
        # makes the whole map injective
        params = DistortionParams(pincushion=kappa)
        r = np.arange(0.0, params.half_diagonal + 1.0, 1.0)
        out = r * (1.0 + kappa * (r / params.half_diagonal) ** 2)
        assert np.all(np.diff(out) > 0)

    def test_vectorized_matches_scalar(self):
        params = DistortionParams()
        X = np.array([0.0, 100.0, -250.0])
        Y = np.array([50.0, -120.0, 300.0])
        u, v = distort(params, X, Y)
        for i in range(3):
            ui, vi = distort(params, float(X[i]), float(Y[i]))
            assert (u[i], v[i]) == (ui, vi)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DistortionParams(scale=0.0)
        with pytest.raises(ValueError):
            DistortionParams(pincushion=1.5)


class TestCorrespondences:
    def test_default_pattern_has_twenty_points(self):
        pairs = gen_correspondences(DistortionParams())
        assert len(pairs) == 20

    def test_identity_params_give_scaled_coordinates(self):
        params = DistortionParams(rotation=0.0, pincushion=0.0)
        for p in gen_correspondences(params):
            assert p.u == pytest.approx(320.0 + 0.5 * p.X)
            assert p.v == pytest.approx(240.0 + 0.5 * p.Y)

    def test_all_pixels_inside_frame(self):
        params = DistortionParams()
        w, h = params.image_size
        for p in gen_correspondences(params):
            assert 0.0 <= p.u <= w and 0.0 <= p.v <= h

    def test_deterministic(self):
        a = gen_correspondences(DistortionParams())
        b = gen_correspondences(DistortionParams())
        assert a == b

    def test_custom_pattern_and_minimum_size(self):
        params = DistortionParams()
        pairs = gen_correspondences(params, pattern=[(0, 0), (10, 10), (20, -20)])
        assert len(pairs) == 3
        with pytest.raises(ValueError):
            gen_correspondences(params, pattern=[(0, 0), (1, 1)])

    def test_pattern_is_interior_grid_plus_two_corners(self):
        pts = np.array(default_pattern(DistortionParams()))
        assert pts.shape == (20, 2)
        # the two extras sit strictly beyond the interior grid, at opposite corners
        r = np.abs(pts).max(axis=1)
        corner_extent = r.max()
        corners = pts[np.abs(pts[:, 1]) == np.abs(pts[:, 1]).max()]
        assert len(corners) == 2
        assert np.allclose(corners[0], -corners[1])
        interior = pts[np.abs(pts[:, 1]) < np.abs(pts[:, 1]).max()]
        assert len(interior) == 18
        assert np.abs(interior).max() < corner_extent
