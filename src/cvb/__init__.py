"""Cartesian-vector-based Chebyshev curve and surface fitting.

Fits are built by progressive projection of the sample error vector on
term vectors (basis polynomial values at the samples): an exact
interpolation over an orthogonalized term set, and a shape-first
approximation that prefers low-order terms and revisits them after every
new term.  On top of the bivariate fitter sits a camera calibration /
image rectification toolchain.

A public name's module is imported when the name is first read (PEP 562),
so a command imports only the modules it runs.
"""

import importlib as _importlib

# ``orthogonalize`` names both a function and its module.  The first import
# of the module binds the package attribute to the module, so the function is
# bound here, once that import is done, and not left to a lazy read.
from .orthogonalize import OrthoSet, orthogonalize

_LAZY = {
    "basis": ("DomainMap", "ExtrapolationWarning", "IDENTITY_MAP", "SampleSet1D", "auto_map", "cheb_zeros"),
    "fit1d": ("ChebModel1D", "FitConfig", "FitError", "FitReport", "TraceStep", "cvb_approximate",
              "cvb_interpolate", "eval_model_1d"),
    "fit2d": ("ChebModel2D", "SampleSet2D", "TermIndex2D", "cvb_approximate_2d", "eval_model_2d", "revisit_set",
              "visit_order"),
    "rectify": ("CalibrationMeta", "CalibrationModel", "Correspondence", "ModelParseError", "ModelVersionError",
                "WarpSpec", "calibrate", "load_model", "map_point", "save_model", "warp_image"),
    "synthetic": ("DistortionParams", "default_pattern", "distort", "gen_correspondences", "gen_humped_flat",
                  "gen_noisy_line", "gen_runge", "max_displacement_px", "runge"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(["OrthoSet", "orthogonalize", *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
