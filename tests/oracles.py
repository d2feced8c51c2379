"""Reference routes that the tests compare the package against.

None of these is reached by a command: each is the independent side of a
check.  The finite-difference evaluator checks exact jets, the Christoffel
symbols check the closed-form second fundamental form, and the inverse maps
check ``ambient.to_minkowski``, ``duality.minkowski_normal`` and
``gaussmaps.stereo_project`` by round trips; ``branch_sign`` reads back the
de Sitter branch that ``to_minkowski`` was asked for.
"""

import math

import numpy as np

from gaussform import ambient as amb
from gaussform import gaussmaps


class NumericEvaluator:
    """Position-only callable; jets by central finite differences.

    First partials use step 1e-5 * max(1, |u|, |v|); second partials a 9-point
    stencil with step 1e-3 * max(1, |u|, |v|).  The stencil reaches 1e-3 *
    max(1, |u|, |v|) beyond the point, so keep the point that far inside the
    chart's domain.
    """

    first_step = 1e-5
    second_step = 1e-3

    def __init__(self, position_fn):
        self.position = position_fn

    def jet(self, u, v):
        f = self.position
        scale = max(1.0, abs(u), abs(v))
        h1 = self.first_step * scale
        h2 = self.second_step * scale
        x = np.asarray(f(u, v), dtype=float)
        du = np.stack([(np.asarray(f(u + h1, v)) - np.asarray(f(u - h1, v))) / (2 * h1),
                       (np.asarray(f(u, v + h1)) - np.asarray(f(u, v - h1))) / (2 * h1)],
                      axis=1)
        m = x.shape[0]
        duu = np.empty((m, 2, 2))
        fpp = np.asarray(f(u + h2, v))
        fmm = np.asarray(f(u - h2, v))
        duu[:, 0, 0] = (fpp - 2 * x + fmm) / h2**2
        gpp = np.asarray(f(u, v + h2))
        gmm = np.asarray(f(u, v - h2))
        duu[:, 1, 1] = (gpp - 2 * x + gmm) / h2**2
        cross = (np.asarray(f(u + h2, v + h2)) - np.asarray(f(u + h2, v - h2))
                 - np.asarray(f(u - h2, v + h2)) + np.asarray(f(u - h2, v - h2))) / (4 * h2**2)
        duu[:, 0, 1] = cross
        duu[:, 1, 0] = cross
        # The float containers the package's evaluators return.
        return x.tolist(), du.tolist(), duu.tolist()


def christoffel_at_height(space: amb.AmbientSpace, height: float) -> np.ndarray:
    """Christoffel symbols Gamma^A_{BC} of the half-space metric, indexed [A, B, C].

    Closed form for the conformally flat metric eps_A dx_A^2 / x_{n+1}^2:
    Gamma^A_{B,n+1} = -delta^A_B / x_{n+1}, Gamma^{n+1}_{BB} = eps_B eps_{n+1} / x_{n+1}
    for B <= n, Gamma^{n+1}_{n+1,n+1} = -1 / x_{n+1}, symmetric in the lower pair.
    """
    m = space.dim
    last = m - 1
    gamma = np.zeros((m, m, m))
    inv_h = 1.0 / height
    for a in range(m):
        gamma[a, a, last] -= inv_h
        gamma[a, last, a] -= inv_h
    gamma[last, last, last] += inv_h  # the two loops above counted it twice
    eps = space.signature
    for b in range(m - 1):
        gamma[last, b, b] = eps[b] * eps[last] * inv_h
    return gamma


def to_half_space(point: amb.MinkowskiPoint) -> amb.HalfSpacePoint:
    """Minkowski model -> half-space chart, the inverse of ``to_minkowski``.

    On the de Sitter quadric the chart covers both branches, so the height
    is 1 / |X0 - X3|; on the hyperboloid X0 - X3 > 0.
    """
    x0, x1, x2, x3 = point.coords
    d = abs(x0 - x3)
    return amb.HalfSpacePoint((x1 / d, x2 / d, 1.0 / d))


def branch_sign(point: amb.MinkowskiPoint) -> int:
    """Sign of X0 - X3 (de Sitter branch membership; +1 on S+, -1 on S-)."""
    d = point.coords[0] - point.coords[3]
    return 0 if d == 0.0 else int(math.copysign(1.0, d))


def frame_components(X, V) -> np.ndarray:
    """Orthonormal-frame components (eta_1, eta_2, eta_3) of a Minkowski normal.

    The inverse of the normal lift of ``duality.minkowski_normal``, for the
    lifted surface point X and normal V: eta_3 = (V0 - V3)/(X3 - X0) and
    eta_i = V_i + X_i eta_3 for i = 1, 2.
    """
    eta3 = (V[0] - V[3]) / (X[3] - X[0])
    return np.array([V[1] + X[1] * eta3, V[2] + X[2] * eta3, eta3])


def stereo_unproject(g, space: amb.AmbientSpace) -> np.ndarray:
    """Inverse stereographic projection back to the normal quadric.

    The inverse of ``gaussmaps.stereo_project``.  On the hyperboloid the
    unit circle |g| = 1 has no preimage; callers stay off it.
    """
    if gaussmaps.is_infinity(g):
        return np.array([0.0, 0.0, 1.0])
    g = complex(g)
    m2 = abs(g) ** 2
    if space.kind is amb.Kind.HYPERBOLIC:
        return np.array([2.0 * g.real, 2.0 * g.imag, m2 - 1.0]) / (m2 + 1.0)
    return np.array([2.0 * g.real, 2.0 * g.imag, -(1.0 + m2)]) / (1.0 - m2)
