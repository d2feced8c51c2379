"""Upper half-space models of hyperbolic and de Sitter space.

Both spaces live on the same chart ``{x : x_{n+1} > 0}``; they differ only in
the sign vector of the conformally flat metric ``sum_A eps_A dx_A^2 / x_{n+1}^2``
(all signs +1 for the hyperbolic space, last sign -1 for de Sitter).  The
paper's case rules read only a space's ``curvature`` c and ``normal_sign``.
The module also provides the metric matrix at a height and the
three-dimensional lift to the Minkowski model, one formula in c.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import NonPositiveHeight, QuadricViolation

QUADRIC_PRODUCE_TOL = 1e-12   # conversions must land on the quadric this well


class Kind(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    DE_SITTER = "de_sitter"


class CausalClass(enum.Enum):
    SPACE_LIKE = "space_like"
    TIME_LIKE = "time_like"


@dataclass(frozen=True)
class AmbientSpace:
    """Descriptor of the ambient space plus the causal class of surfaces in it.

    ``signature`` is the sign vector eps_A of the metric, ``curvature`` the
    sectional curvature c (-1.0 hyperbolic, +1.0 de Sitter) and ``normal_sign``
    the scalar square eps_N of a unit normal of a surface of the declared
    causal class: +1 in the hyperbolic space, -1 for space-like surfaces in de
    Sitter space (time-like normal), +1 for time-like surfaces there.
    """

    kind: Kind
    dim: int
    causal_class: CausalClass = CausalClass.SPACE_LIKE
    signature: tuple = field(init=False)
    curvature: float = field(init=False)
    normal_sign: int = field(init=False)

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("ambient dimension must be at least 3")
        if self.kind is Kind.HYPERBOLIC:
            if self.causal_class is not CausalClass.SPACE_LIKE:
                raise ValueError("hypersurfaces of hyperbolic space are space-like")
            sig, curv, nsign = (1,) * self.dim, -1.0, 1
        else:
            sig, curv = (1,) * (self.dim - 1) + (-1,), 1.0
            nsign = -1 if self.causal_class is CausalClass.SPACE_LIKE else 1
        object.__setattr__(self, "signature", sig)
        object.__setattr__(self, "curvature", curv)
        object.__setattr__(self, "normal_sign", nsign)


def hyperbolic_space(dim=3):
    return AmbientSpace(Kind.HYPERBOLIC, dim)


def de_sitter_space(dim=3, causal_class=CausalClass.SPACE_LIKE):
    return AmbientSpace(Kind.DE_SITTER, dim, causal_class)


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point of the upper half-space chart (last coordinate positive)."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    @property
    def height(self):
        return self.coords[-1]

    def require_valid(self):
        if not (self.height > 0.0):
            raise NonPositiveHeight(f"height {self.height} is not positive")
        return self


@dataclass(frozen=True)
class MinkowskiPoint:
    """Point of the unit quadric of Lorentz square ``curvature`` (the c of its space)."""

    coords: tuple
    curvature: float

    def __post_init__(self):
        if len(self.coords) != 4:
            raise ValueError("Minkowski points have four coordinates")
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    def array(self):
        import numpy as np

        return np.array(self.coords, dtype=float)

    def lorentz_square(self):
        x0, x1, x2, x3 = self.coords
        return -x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3

    def quadric_residual(self):
        return abs(self.lorentz_square() - self.curvature)


def metric_at_height(space: AmbientSpace, height: float) -> list:
    """Metric matrix diag(eps_A) / x_{n+1}^2 at a point of the given height,
    as nested lists."""
    if not (height > 0.0):
        raise NonPositiveHeight(f"height {height} is not positive")
    h2 = height**2
    return [[(s if a == b else 0.0) / h2 for b in range(space.dim)]
            for a, s in enumerate(space.signature)]


def minkowski_coords(space: AmbientSpace, x, sheet_sign=1) -> list:
    """Half-space coordinates x -> the four Minkowski coordinates, unchecked.

    One formula in the curvature c, with s = ``sheet_sign`` (the sign of X0 - X3,
    which picks the de Sitter branch) and 1 on H.  Plain arithmetic only, so
    it runs on floats, calculus jets and arrays alike.
    """
    x1, x2, x3 = x
    c = space.curvature
    s = 1.0 if c < 0.0 or sheet_sign >= 0 else -1.0
    q, w = x1 * x1 + x2 * x2 - c * x3 * x3, 2.0 * x3
    return [s * (q + 1.0) / w, x1 / x3, x2 / x3, s * (q - 1.0) / w]


def to_minkowski(space: AmbientSpace, p: HalfSpacePoint, sheet_sign=1) -> MinkowskiPoint:
    """Half-space chart -> Minkowski model.

    For de Sitter space the chart covers both branches S- and S+; ``sheet_sign``
    (the sign of X0 - X3) picks the branch, default S+.
    """
    if space.dim != 3:
        raise ValueError("Minkowski-model conversion is defined for dim 3")
    p.require_valid()
    point = MinkowskiPoint(minkowski_coords(space, p.coords, sheet_sign), space.curvature)
    if point.quadric_residual() > QUADRIC_PRODUCE_TOL * max(1.0, max(map(abs, point.coords))**2):
        raise QuadricViolation("conversion failed to land on the quadric")
    return point
