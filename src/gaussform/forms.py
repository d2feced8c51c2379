"""Unit normal, fundamental forms, curvatures, and conformality tests.

Conventions, fixed once by the horosphere calibration (f = 1 in hyperbolic
space must give II = I with eta = (0, 0, 1)):

* the second form is h_ij = eps_N <D_i dx_j, N> with eps_N the scalar square
  of the unit normal, so the shape operator is I^{-1} II in every causal case;
* the normal is oriented so its last frame component is nonnegative unless a
  chart overrides the sign;
* the fourth form is the flat sign-weighted product of the differential of
  the frame-translated normal, computed here through the closed-form normal
  derivative (the finite-difference route lives in fourth_form_direct and is
  kept independent on purpose).

The per-point pipeline works component-wise on Python floats, written as
loops over the m ambient and k = m - 1 parameter indices with plain
operators: the normal is the vector of signed cofactors of the tangent map
weighted by the metric signature, the Christoffel contraction, the k x k
determinant and inverse and the 2 x 2 shape spectrum are closed-form.  The
oracles keep their own numerics: fourth_form_direct takes the SVD null
vector as the normal and intrinsic_gauss_curvature a numpy stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import ambient as amb
from . import calculus
from .errors import (NonImmersed, NonPositiveHeight, OrientationUndefined,
                     WrongCausalClass)

UMBILIC_REL_TOL = 1e-8
TOTALLY_GEODESIC_TOL = 1e-12
ORIENTATION_TIE_TOL = 1e-12
FOURTH_FORM_STEP = 1e-4     # relative step of the oracle fourth_form_direct
BRIOSCHI_STEP = 1e-3        # relative step of the Brioschi curvature oracle


@dataclass(frozen=True)
class ShapeSpectrum:
    """Eigenvalue data of the shape operator, when extracted."""

    kind: str                  # "real" | "complex" | "not_computed"
    values: tuple = ()

    @classmethod
    def real_pair(cls, values):
        return cls("real", tuple(sorted(float(v) for v in values)))

    @classmethod
    def complexified(cls):
        return cls("complex")

    @classmethod
    def not_computed(cls):
        return cls("not_computed")

    @property
    def is_real(self):
        return self.kind == "real"


@dataclass(frozen=True)
class FormBundle:
    """The four fundamental forms and derived curvature data at one point."""

    space: amb.AmbientSpace
    eta: np.ndarray            # frame components of the unit normal
    eta_du: np.ndarray         # closed-form parameter derivative of eta
    first: np.ndarray
    second: np.ndarray
    third: np.ndarray
    fourth: np.ndarray
    mean_curvature: float
    gauss_curvature: float
    shape_spectrum: ShapeSpectrum

    # Aliases matching the classical numerals.
    @property
    def I(self):  # noqa: E743 - the classical name
        return self.first

    @property
    def II(self):
        return self.second

    @property
    def III(self):
        return self.third

    @property
    def IV(self):
        return self.fourth


def _det(a):
    """Determinant of a small square matrix given as nested lists (Laplace
    expansion along the first row; closed form for k <= 2)."""
    k = len(a)
    if k == 1:
        return a[0][0]
    if k == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return sum((-1.0) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(k))


def _inverse(a, det):
    """Inverse of a small square matrix from its adjugate and determinant."""
    k = len(a)
    if k == 2:
        return [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]
    return [[(-1.0) ** (i + j) * _det([row[:i] + row[i + 1:]
                                       for r, row in enumerate(a) if r != j]) / det
             for j in range(k)] for i in range(k)]


def _dot(x, y):
    return sum(map(mul, x, y))


def _matmul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def check_causal_class(space, first):
    """Determinant of the induced metric (nested lists or an array), which
    must be nondegenerate and of the causal class of ``space``; raises
    NonImmersed or WrongCausalClass."""
    if not isinstance(first, list):
        first = np.asarray(first, dtype=float).tolist()
    det = _det(first)
    if abs(det) < calculus.GRAM_DET_TOL:
        raise NonImmersed(f"induced metric is degenerate (det {det:.3e})")
    if space.causal_class is amb.CausalClass.SPACE_LIKE:
        # Sylvester's criterion: every leading principal minor is positive.
        if not all(_det([row[:i] for row in first[:i]]) > 0.0
                   for i in range(1, len(first) + 1)):
            raise WrongCausalClass("induced metric is not positive definite")
    elif len(first) != 2 or det >= 0.0:
        raise WrongCausalClass("induced metric is not Lorentzian")
    return det


def orientation_sign(eta, orientation) -> float:
    """The sign (+1.0 or -1.0) that orients normal frame components eta.

    ``orientation`` may be None (last frame component nonnegative), an int
    sign forcing that component's sign, or a reference vector whose plain dot
    with eta breaks the tie (needed where the last component vanishes
    identically, e.g. vertical planes and generalized cylinders).  Works on
    floats and on calculus jets; raises OrientationUndefined at a tie.
    """
    if orientation is not None and not isinstance(orientation, (int, float)):
        dot = sum(float(r) * float(e) for r, e in zip(orientation, eta))
        if abs(dot) <= ORIENTATION_TIE_TOL:
            raise OrientationUndefined("reference vector is orthogonal to the normal")
        return math.copysign(1.0, dot)
    eta_last = float(eta[-1])
    if abs(eta_last) <= ORIENTATION_TIE_TOL:
        raise OrientationUndefined(
            "last normal component vanishes; give a reference-vector override")
    want = 1 if orientation is None else int(orientation)
    return 1.0 if math.copysign(1.0, eta_last) == math.copysign(1.0, want) else -1.0


def _oriented_normal(space, h, du, orientation):
    """Coordinate components of the oriented unit normal, as a list.

    ``du`` is the m x (m - 1) tangent map as nested lists.  The normal is
    the vector of signed cofactors of ``du`` (the cross product for m = 3)
    weighted by the signature, which is orthogonal to every tangent in the
    metric eps_A dx_A^2 / h^2; its scalar square sets the causal class.
    """
    if not (h > 0.0):
        raise NonPositiveHeight(f"height {h} is not positive")
    eps = space.signature
    m = len(du)
    # Negations are written 0.0 - c, so a zero component stays +0.0 in reports.
    nd = [eps[a] * _det(du[:a] + du[a + 1:]) for a in range(m)]
    nd[1::2] = [0.0 - c for c in nd[1::2]]     # the cofactor signs
    nn = sum(eps[a] * nd[a] * nd[a] for a in range(m))
    if nn == 0.0:
        raise NonImmersed("tangent map is degenerate: the cofactor normal vanishes")
    if math.copysign(1.0, nn) != space.normal_sign:
        raise WrongCausalClass(
            f"normal has scalar square of sign {math.copysign(1.0, nn):+.0f}, "
            f"expected {space.normal_sign:+d}")
    scale = h / math.sqrt(abs(nn))
    n = [c * scale for c in nd]
    if orientation_sign([c / h for c in n], orientation) < 0.0:
        n = [0.0 - c for c in n]
    return n


def unit_normal(space, jet, orientation):
    """Coordinate components of the unit normal, oriented per orientation_sign;
    raises NonImmersed when the tangent map is degenerate and WrongCausalClass
    when the normal's scalar square has the wrong sign."""
    return np.array(_oriented_normal(space, jet.height, jet.du.tolist(), orientation))


def induced_metric(space, h, du):
    """The first fundamental form sum_A eps_A / h^2 dx_A(x_i) dx_A(x_j) at
    height h > 0, from the m x k tangent map du, as k x k nested lists."""
    w = [e / h**2 for e in space.signature]     # the diagonal metric
    cols = list(zip(*du))                       # the tangent vectors x_i
    return [[_dot([wa * c for wa, c in zip(w, ci)], cj) for cj in cols] for ci in cols]


def frame_normal(space, jet, orientation):
    """Frame components eta = N / h of the oriented unit normal, with the
    checks of fundamental_forms in its order (the normal, then the causal
    class of the induced metric) but none of the forms."""
    h, du = jet.height, jet.du.tolist()
    n = np.array(_oriented_normal(space, h, du, orientation))
    check_causal_class(space, induced_metric(space, h, du))
    return n / h


def fundamental_forms(jet: calculus.Jet2, space: amb.AmbientSpace,
                      orientation: int | None = None) -> FormBundle:
    """All four fundamental forms plus curvature data from an exact two-jet.

    ``orientation`` forces the sign of the last frame component of the normal
    (default nonnegative).  Computed component-wise on Python floats, for
    hypersurfaces of any dimension (k = m - 1 parameters).
    """
    du, duu = jet.du.tolist(), jet.duu.tolist()
    h = float(jet.x[-1])
    k = len(du[0])
    eps, eps_n = space.signature, space.normal_sign
    n = _oriented_normal(space, h, du, orientation)
    eta = [c / h for c in n]

    first = induced_metric(space, h, du)
    det_first = check_causal_class(space, first)

    # h_ij = eps_N <D_i x_j, N>.  With the half-space Christoffel symbols and
    # <N, x_i> = 0 the connection term contracts to eta_last * I_ij, leaving
    # h_ij = eps_N (sum_A eps_A duu^A_ij n_A / h^2 + eta_last I_ij).
    h2 = h**2
    gn = [e / h2 * c for e, c in zip(eps, n)]
    eta_last = eta[-1]
    second = [[eps_n * (_dot(gn, [d[i][j] for d in duu]) + eta_last * first[i][j])
               for j in range(k)] for i in range(k)]

    first_inv = _inverse(first, det_first)
    shape_op = _matmul(first_inv, second)
    third = _matmul(second, shape_op)

    # Closed-form normal derivative; the first term is the frame drift, the
    # second the shape-operator action.
    eta_du = [[(eta_last * d - eps_n * ds) / h for d, ds in zip(row, srow)]
              for row, srow in zip(du, _matmul(du, shape_op))]
    ecols = list(zip(*eta_du))
    fourth = [[_dot([e * c for e, c in zip(eps, ci)], cj) for cj in ecols]
              for ci in ecols]

    mean = sum(shape_op[i][i] for i in range(k)) / k
    curv_const = -1.0 if space.kind is amb.Kind.HYPERBOLIC else 1.0
    gauss = curv_const + eps_n * (_det(second) / det_first)

    if space.causal_class is not amb.CausalClass.SPACE_LIKE:
        spectrum = ShapeSpectrum.not_computed()
    elif k == 2:
        (a, b), (c, d) = shape_op
        half = 0.5 * (a + d)
        disc = (0.5 * (a - d)) ** 2 + b * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            spectrum = ShapeSpectrum.real_pair((half - root, half + root))
        elif math.sqrt(-disc) < 1e-10 * (1.0 + math.sqrt(half * half - disc)):
            spectrum = ShapeSpectrum.real_pair((half, half))
        else:
            spectrum = ShapeSpectrum.complexified()
    else:
        eigs = np.linalg.eigvals(np.array(shape_op))
        if np.abs(eigs.imag).max() < 1e-10 * (1.0 + np.abs(eigs).max()):
            spectrum = ShapeSpectrum.real_pair(eigs.real)
        else:
            spectrum = ShapeSpectrum.complexified()

    return FormBundle(space, np.array(eta), np.array(eta_du), np.array(first),
                      np.array(second), np.array(third), np.array(fourth),
                      mean, gauss, spectrum)


def forms_at(chart: calculus.SurfaceChart, p) -> FormBundle:
    """Convenience wrapper: jet then forms, honoring the chart orientation."""
    jet = calculus.jet2_eval(chart, p)
    return fundamental_forms(jet, chart.ambient, chart.orientation_at(p))


@dataclass(frozen=True)
class ConformalityReport:
    """Outcome of testing proportionality of the fourth and second forms."""

    classification: str        # "conformal" | "not_conformal" |
    #                            "totally_geodesic_degenerate" | "umbilic_point"
    is_conformal: bool
    rho: float | None
    residual: float

    CONFORMAL = "conformal"
    NOT_CONFORMAL = "not_conformal"
    TOTALLY_GEODESIC = "totally_geodesic_degenerate"
    UMBILIC = "umbilic_point"


def conformality_test(bundle: FormBundle, tol: float = 1e-8) -> ConformalityReport:
    """Classify IV = rho * II proportionality by Frobenius least squares.

    The residual |IV - rho II| is relative to the larger of |IV| and |II|:
    an IV that is rounding noise next to II reads as IV = 0 * II, conformal
    with rho about 0, instead of a random direction.  Totally geodesic
    points (vanishing second form) and umbilic points with a failing
    residual are classified instead of failing; rho is reported only for
    conformal points.
    """
    ii = [c for row in bundle.second.tolist() for c in row]
    iv = [c for row in bundle.fourth.tolist() for c in row]
    ii_sq = sum(c * c for c in ii)
    ii_norm = math.sqrt(ii_sq)
    if ii_norm <= TOTALLY_GEODESIC_TOL:
        return ConformalityReport(ConformalityReport.TOTALLY_GEODESIC,
                                  False, None, 0.0)
    rho = sum(a * b for a, b in zip(iv, ii)) / ii_sq
    gap = math.sqrt(sum((a - rho * b) ** 2 for a, b in zip(iv, ii)))
    residual = gap / max(math.sqrt(sum(c * c for c in iv)), ii_norm)
    if residual <= tol:
        return ConformalityReport(ConformalityReport.CONFORMAL, True, rho, residual)
    spec = bundle.shape_spectrum
    if spec.is_real and len(spec.values) == 2:
        lam, mu = spec.values
        if abs(lam - mu) <= UMBILIC_REL_TOL * (1.0 + abs(lam) + abs(mu)):
            return ConformalityReport(ConformalityReport.UMBILIC, False, None, residual)
    return ConformalityReport(ConformalityReport.NOT_CONFORMAL, False, None, residual)


def obata_identity_residual(bundle: FormBundle) -> float:
    """Frobenius residual of IV = eta_last^2 I + s 2 eta_last II + III.

    The sign s is -1 in hyperbolic space, +1 for space-like surfaces in
    de Sitter space, -1 for time-like ones; uniformly s = -eps_N.
    """
    s = -bundle.space.normal_sign
    eta_last = bundle.eta[-1]
    predicted = (eta_last**2 * bundle.first
                 + 2.0 * s * eta_last * bundle.second + bundle.third)
    return float(np.linalg.norm(bundle.fourth - predicted))


def curvature_relation_residual(bundle: FormBundle) -> float:
    """|K - (c + sigma eta_last^2)| for the bundle's causal case.

    (c, sigma) is (-1, +1) in hyperbolic space, (+1, -1) for space-like and
    (+1, +1) for time-like surfaces in de Sitter space; this is the curvature
    relation characterizing conformal normal Gauss maps away from umbilics.
    """
    if bundle.space.kind is amb.Kind.HYPERBOLIC:
        c, sigma = -1.0, 1.0
    elif bundle.space.causal_class is amb.CausalClass.SPACE_LIKE:
        c, sigma = 1.0, -1.0
    else:
        c, sigma = 1.0, 1.0
    return abs(bundle.gauss_curvature - (c + sigma * bundle.eta[-1] ** 2))


def rho_formula_residual(bundle: FormBundle, rho: float) -> float:
    """|rho - 2(H -+ eta_last)|: minus in hyperbolic space, plus for
    space-like de Sitter surfaces (the two cases the classification covers)."""
    s = -1.0 if bundle.space.kind is amb.Kind.HYPERBOLIC else 1.0
    return abs(rho - 2.0 * (bundle.mean_curvature + s * bundle.eta[-1]))


def fourth_form_direct(chart: calculus.SurfaceChart, p) -> np.ndarray:
    """Fourth form by finite-differencing the normal over the parameter grid.

    Independent of the closed-form normal-derivative route and of the
    cofactor normal: the normal here is the SVD null vector of the
    orthogonality conditions.  Agreement to 1e-4 relative is a module
    invariant.
    """
    u, v = float(p[0]), float(p[1])
    h = FOURTH_FORM_STEP * max(1.0, abs(u), abs(v))

    def eta_at(uu, vv):
        jet = calculus.jet2_eval(chart, (uu, vv))
        g = amb.metric_at_height(chart.ambient, jet.height)
        n0 = np.linalg.svd(jet.du.T @ g)[2][-1]
        eta = n0 / (math.sqrt(abs(float(n0 @ g @ n0))) * jet.height)
        return orientation_sign(eta, chart.orientation_at((uu, vv))) * eta

    deta = np.stack([(eta_at(u + h, v) - eta_at(u - h, v)) / (2 * h),
                     (eta_at(u, v + h) - eta_at(u, v - h)) / (2 * h)], axis=1)
    eps = chart.ambient.eps
    return np.einsum("a,ai,aj->ij", eps, deta, deta)


def intrinsic_gauss_curvature(chart: calculus.SurfaceChart, p) -> float:
    """Gauss curvature of the induced metric by the Brioschi formula.

    Metric samples come from exact jets; metric derivatives use central
    differences with step BRIOSCHI_STEP.  Space-like charts only.
    """
    if chart.ambient.causal_class is not amb.CausalClass.SPACE_LIKE:
        raise WrongCausalClass("intrinsic curvature path expects a space-like chart")
    u, v = float(p[0]), float(p[1])
    h = BRIOSCHI_STEP * max(1.0, abs(u), abs(v))

    def metric(uu, vv):
        jet = calculus.jet2_eval(chart, (uu, vv))
        g = amb.metric_at_height(chart.ambient, jet.height)
        return jet.du.T @ g @ jet.du

    # 3x3 stencil of induced metrics, indexed [iu][iv] with offsets -h, 0, +h.
    s = [[metric(u + (iu - 1) * h, v + (iv - 1) * h) for iv in range(3)]
         for iu in range(3)]
    e = np.array([[s[iu][iv][0, 0] for iv in range(3)] for iu in range(3)])
    f = np.array([[s[iu][iv][0, 1] for iv in range(3)] for iu in range(3)])
    g = np.array([[s[iu][iv][1, 1] for iv in range(3)] for iu in range(3)])

    def d_u(a):
        return (a[2, 1] - a[0, 1]) / (2 * h)

    def d_v(a):
        return (a[1, 2] - a[1, 0]) / (2 * h)

    e_u, e_v = d_u(e), d_v(e)
    g_u, g_v = d_u(g), d_v(g)
    f_u, f_v = d_u(f), d_v(f)
    e_vv = (e[1, 2] - 2 * e[1, 1] + e[1, 0]) / h**2
    g_uu = (g[2, 1] - 2 * g[1, 1] + g[0, 1]) / h**2
    f_uv = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / (4 * h**2)

    ee, ff, gg = e[1, 1], f[1, 1], g[1, 1]
    m1 = np.array([
        [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
        [f_v - 0.5 * g_u, ee, ff],
        [0.5 * g_v, ff, gg],
    ])
    m2 = np.array([
        [0.0, 0.5 * e_v, 0.5 * g_u],
        [0.5 * e_v, ee, ff],
        [0.5 * g_u, ff, gg],
    ])
    denom = (ee * gg - ff * ff) ** 2
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / denom)
