"""Deterministic dataset generators and the camera-distortion ground-truth oracle.

The curve datasets reconstruct the usual trouble cases for global polynomial
interpolation (hump-and-flat data, noisy unevenly spaced lines, equispaced
samples of the Runge function).  The distortion oracle is a synthetic camera:
a similarity transform plus rotation plus radial pincushion, against which
calibration accuracy can be measured exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SampleSet1D
from .rectify import Correspondence

# Frozen acceptance fixture: 5 degrees of rotation, pincushion chosen so the
# maximum radial displacement over a 640x480 frame is ~4 px (see
# scripts/distortion_sweep.py; displacement peaks at the corners where it
# equals pincushion * half-diagonal = 0.01 * 400 px).
DEFAULT_ROTATION = math.radians(5.0)
DEFAULT_PINCUSHION = 0.01


@dataclass(frozen=True)
class DistortionParams:
    """Synthetic camera: world mm -> pixel, with rotation and pincushion.

    ``scale`` is pixels per millimetre; ``center`` is the pixel the world
    origin maps to; ``pincushion`` is the dimensionless radial coefficient
    applied to the squared radius normalized by the half-diagonal.
    """

    rotation: float = DEFAULT_ROTATION
    pincushion: float = DEFAULT_PINCUSHION
    center: tuple = (320.0, 240.0)
    scale: float = 0.5
    image_size: tuple = (640, 480)

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not abs(self.pincushion) < 1:
            raise ValueError(f"|pincushion| must be < 1, got {self.pincushion}")

    @property
    def half_diagonal(self) -> float:
        w, h = self.image_size
        return math.hypot(w, h) / 2.0


def runge(x):
    """The classical convergence-problem function 1 / (1 + 25 x^2)."""
    return 1.0 / (1.0 + 25.0 * np.square(x))


def gen_runge(m: int) -> SampleSet1D:
    """m equispaced samples of the Runge function on [-1, 1] inclusive."""
    if m < 2:
        raise ValueError(f"need at least 2 points, got {m}")
    x = np.linspace(-1.0, 1.0, m)
    return SampleSet1D(x=x, y=runge(x))


def gen_humped_flat() -> SampleSet1D:
    """Fixed 9-point set that is flat at the edges with a single central hump."""
    x = np.array([-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
    y = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.0])
    return SampleSet1D(x=x, y=y)


def gen_noisy_line(seed: int) -> SampleSet1D:
    """9 unevenly spaced points near the line y = 0.5 x + 0.1.

    Abscissae come from a scrambled low-discrepancy sequence over [-1, 1],
    thinned to a minimum gap of 0.05 and sorted; the y noise is uniform in
    +/-0.05.  Identical seeds give identical point sets.
    """
    # imported here: scipy.stats takes most of a second to import, and this
    # is its only use
    from scipy.stats import qmc

    sampler = qmc.Halton(d=1, scramble=True, seed=seed)
    accepted: list[float] = []
    while len(accepted) < 9:
        for value in sampler.random(32)[:, 0]:
            c = 2.0 * value - 1.0
            if all(abs(c - a) >= 0.05 for a in accepted):
                accepted.append(c)
                if len(accepted) == 9:
                    break
    x = np.sort(np.array(accepted))
    rng = np.random.default_rng(seed)
    y = 0.5 * x + 0.1 + rng.uniform(-0.05, 0.05, size=9)
    return SampleSet1D(x=x, y=y)


def distort(params: DistortionParams, X, Y):
    """Ground-truth projection of world (X, Y) mm to pixel (u, v).

    Scale about the world origin, rotate about the image center, then push
    radially outward by r' = r * (1 + pincushion * (r / R)^2) with R the half
    image diagonal.  The image center is a fixed point for any parameters.
    """
    du = params.scale * np.asarray(X, dtype=float)
    dv = params.scale * np.asarray(Y, dtype=float)
    c, s = math.cos(params.rotation), math.sin(params.rotation)
    ru = c * du - s * dv
    rv = s * du + c * dv
    r2 = (ru * ru + rv * rv) / params.half_diagonal**2
    f = 1.0 + params.pincushion * r2
    u = params.center[0] + ru * f
    v = params.center[1] + rv * f
    if np.ndim(X) == 0 and np.ndim(Y) == 0:
        return float(u), float(v)
    return u, v


def max_displacement_px(params: DistortionParams) -> float:
    """Maximum pincushion displacement over the frame, in pixels.

    Evaluates the analytic radial push |pincushion| * r^3 / R^2 (R the half
    diagonal, r the distance from the image center).  The push grows with r,
    so the maximum sits at the frame corner farthest from the center.
    """
    w, h = params.image_size
    cu, cv = params.center
    r = np.hypot(max(abs(cu), abs(w - cu)), max(abs(cv), abs(h - cv)))
    return float(np.abs(params.pincushion) * r**3 / params.half_diagonal**2)


def default_pattern(params: DistortionParams):
    """World key points: a dense 6x3 interior grid plus two corner points.

    Interior points cover the central 75% of the field of view; the two
    extras pin opposite corners at 85%.  All 20 points stay inside the frame
    after distortion for the default parameters.
    """
    w, h = params.image_size
    half_x = (w / 2.0) / params.scale
    half_y = (h / 2.0) / params.scale
    xs = np.linspace(-0.75 * half_x, 0.75 * half_x, 6)
    ys = np.linspace(-0.75 * half_y, 0.75 * half_y, 3)
    points = [(float(x), float(y)) for y in ys for x in xs]
    points.append((-0.85 * half_x, -0.85 * half_y))
    points.append((0.85 * half_x, 0.85 * half_y))
    return points


def gen_correspondences(params: DistortionParams, pattern=None) -> list[Correspondence]:
    """Calibration correspondences for a world pattern seen through ``distort``."""
    if pattern is None:
        pattern = default_pattern(params)
    pattern = list(pattern)
    if len(pattern) < 3:
        raise ValueError(f"pattern needs at least 3 points, got {len(pattern)}")
    out = []
    for X, Y in pattern:
        u, v = distort(params, X, Y)
        out.append(Correspondence(u=u, v=v, X=float(X), Y=float(Y)))
    return out
