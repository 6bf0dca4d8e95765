"""Cartesian-vector-based Chebyshev curve and surface fitting.

Fits are built by progressive projection of the sample error vector on
term vectors (basis polynomial values at the samples): an exact
interpolation over an orthogonalized term set, and a shape-first
approximation that prefers low-order terms and revisits them after every
new term.  On top of the bivariate fitter sits a camera calibration /
image rectification toolchain.
"""

from .basis import (
    DomainMap,
    ExtrapolationWarning,
    IDENTITY_MAP,
    SampleSet1D,
    auto_map,
    cheb_zeros,
)
from .fit1d import (
    ChebModel1D,
    FitConfig,
    FitError,
    FitReport,
    TraceStep,
    cvb_approximate,
    cvb_interpolate,
    eval_model_1d,
)
from .fit2d import (
    ChebModel2D,
    SampleSet2D,
    TermIndex2D,
    cvb_approximate_2d,
    eval_model_2d,
    revisit_set,
    visit_order,
)
from .orthogonalize import OrthoSet, orthogonalize
from .rectify import (
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
from .synthetic import (
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

import types as _types

__all__ = [
    name
    for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
]
__version__ = "0.1.0"
