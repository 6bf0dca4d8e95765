"""The public surface of the ``cvb`` package."""

import cvb

PUBLIC_API = [
    "CalibrationMeta",
    "CalibrationModel",
    "ChebModel1D",
    "ChebModel2D",
    "Correspondence",
    "DistortionParams",
    "DomainMap",
    "ExtrapolationWarning",
    "FitConfig",
    "FitError",
    "FitReport",
    "IDENTITY_MAP",
    "ModelParseError",
    "ModelVersionError",
    "OrthoSet",
    "SampleSet1D",
    "SampleSet2D",
    "TermIndex2D",
    "TraceStep",
    "WarpSpec",
    "auto_map",
    "calibrate",
    "cheb_zeros",
    "cvb_approximate",
    "cvb_approximate_2d",
    "cvb_interpolate",
    "default_pattern",
    "distort",
    "eval_model_1d",
    "eval_model_2d",
    "gen_correspondences",
    "gen_humped_flat",
    "gen_noisy_line",
    "gen_runge",
    "load_model",
    "map_point",
    "map_world",
    "max_displacement_px",
    "orthogonalize",
    "revisit_set",
    "runge",
    "save_model",
    "visit_order",
    "warp_image",
]


def test_public_api_is_pinned():
    # a name added to or dropped from the package surface must be added or
    # dropped here too, on purpose
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(cvb.__all__) == PUBLIC_API

