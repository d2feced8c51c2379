"""Stereographic normal Gauss map and the far (ideal-boundary) Gauss map.

The frame-translated unit normal eta lives on the unit sphere (hyperbolic
ambient) or on the two-sheeted unit hyperboloid (space-like surfaces in de
Sitter space).  Stereographic projection from (0, 0, 1) sends it to the
extended complex plane; in the de Sitter case the image avoids the unit
circle and the sheet is read off the modulus (|g| > 1 on the eta_3 > 0
sheet).  The far Gauss map of a surface point is the ideal endpoint of the
oriented normal geodesic, with closed form G = x1 + i x2 + x3 g.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ambient as amb
from .errors import InfiniteG, QuadricViolation

QUADRIC_TOL = 1e-9
POLE_TOL = 1e-14


class _Infinity:
    """The point at infinity of the extended complex plane (tagged, not a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def is_infinity(value) -> bool:
    return value is INFINITY


def _quadric_defect(eta, space):
    """|eta_1^2 + eta_2^2 - c eta_3^2 + c| on floats or arrays, 2 for a time-like normal."""
    (e1, e2, e3), c = eta, space.curvature
    return abs(e1 * e1 + e2 * e2 - c * e3 * e3 + c)


def off_quadric(defect):
    """Whether a normal with this quadric defect misses its quadric."""
    return defect > QUADRIC_TOL


def stereo_project(eta, space: amb.AmbientSpace):
    """Stereographic image g = (eta_1 + i eta_2)/(1 - eta_3), or INFINITY.

    ``eta`` must sit on the unit sphere (hyperbolic case) or on the unit
    two-sheeted hyperboloid (space-like de Sitter case) to 1e-9.
    """
    defect = _quadric_defect(eta, space)
    if off_quadric(defect):
        raise QuadricViolation(f"normal misses its quadric by {defect:.3e}")
    e1, e2, e3 = float(eta[0]), float(eta[1]), float(eta[2])
    if e3 > 0.0:
        # 1 - e3 cancels near the pole; the quadric gives it without the
        # cancellation: 1 - e3 = +-(e1^2 + e2^2)/(1 + e3), + on the sphere.
        denom = -space.curvature * (e1 * e1 + e2 * e2) / (1.0 + e3)
    else:
        denom = 1.0 - e3
    if abs(denom) < POLE_TOL:
        return INFINITY
    return complex(e1, e2) / denom


def far_gauss_map(x, g):
    """Ideal endpoint G = x1 + i x2 + x3 g of the oriented normal geodesic.

    ``x`` holds the three coordinates.  Plain arithmetic, so it runs on
    floats, complex numbers and arrays alike (the surface builder passes its
    complex raw height as x3).  INFINITY in raises InfiniteG: the geodesic
    ends at the point at infinity.
    """
    if is_infinity(g):
        raise InfiniteG("normal geodesic ends at the ideal point at infinity")
    x1, x2, x3 = x
    return x1 + 1j * x2 + x3 * g


@dataclass(frozen=True)
class GaussData:
    """The stereographic image of the normal and the far Gauss map at one point."""

    g: object               # complex or INFINITY
    far: object             # complex, or None when g is INFINITY


def gauss_data(x, eta, space: amb.AmbientSpace) -> GaussData:
    g = stereo_project(eta, space)
    far = None if is_infinity(g) else far_gauss_map(x, g)
    return GaussData(g, far)
