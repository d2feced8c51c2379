"""Polar-variety duality between the two model spaces.

The unit normal of a surface, parallel translated to the origin of Minkowski
4-space, lands on the opposite quadric: de Sitter for sources in hyperbolic
space and vice versa (time-like de Sitter surfaces stay on the de Sitter
quadric).  This module computes that dual point through one polar-map code
path that runs on floats and on jets (so the dual chart has exact
derivatives and double polarity can be checked at full precision), the
curvature and volume transfer laws, the graph-level duality between the two
fully nonlinear graph PDEs, and the isometry fitting used to match dual
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ambient as amb
from . import calculus as calc
from . import forms
from . import zoo
from .errors import (BranchPoint, CausalityViolation, EquatorialNormal,
                     NonPositiveHeight, WrongCausalClass)

H3_TO_DS3 = "h3-to-ds3"
DS3_TO_H3 = "ds3-to-h3"
DS3_TIMELIKE = "ds3-timelike"

EQUATORIAL_TOL = 1e-12
BRANCH_K_TOL = 1e-6
BRANCH_DET_TOL = 1e-10
FIT_ANGLES = (math.pi / 2, -math.pi / 2)   # rotations fit_isometry searches


def _branch_curvature(space: amb.AmbientSpace) -> float:
    return -1.0 if space.kind is amb.Kind.HYPERBOLIC else 1.0


def transfer_direction(space: amb.AmbientSpace) -> str:
    if space.kind is amb.Kind.HYPERBOLIC:
        return H3_TO_DS3
    if space.causal_class is amb.CausalClass.SPACE_LIKE:
        return DS3_TO_H3
    return DS3_TIMELIKE


def dual_space(space: amb.AmbientSpace) -> amb.AmbientSpace:
    """Ambient space the polar variety lives in, with its causal class."""
    if space.kind is amb.Kind.HYPERBOLIC:
        return amb.de_sitter_space()
    if space.causal_class is amb.CausalClass.SPACE_LIKE:
        return amb.hyperbolic_space()
    return amb.de_sitter_space(causal_class=amb.CausalClass.TIME_LIKE)


def curvature_transfer(curvature: float, direction: str) -> float:
    """Dual Gauss curvature under the generalized Gauss map.

    K/(K+1) out of hyperbolic space, K/(1-K) for space-like de Sitter
    sources, K/(K-1) for time-like ones (the sign follows from eta_3 -> 1/eta_3
    and K = 1 + eta_3^2 on conformal time-like surfaces; a dual time-like
    curvature below 1 would be inconsistent).  Branch points raise.
    """
    if direction == H3_TO_DS3:
        if abs(curvature + 1.0) < 1e-12:
            raise BranchPoint("dual curvature undefined where K = -1")
        return curvature / (curvature + 1.0)
    if direction == DS3_TO_H3:
        if abs(curvature - 1.0) < 1e-12:
            raise BranchPoint("dual curvature undefined where K = 1")
        return curvature / (1.0 - curvature)
    if direction == DS3_TIMELIKE:
        if abs(curvature - 1.0) < 1e-12:
            raise BranchPoint("dual curvature undefined where K = 1")
        return curvature / (curvature - 1.0)
    raise ValueError(f"unknown direction {direction!r}")


# --------------------------------------------------------------------------
# The polar map, written once for floats and jets
# --------------------------------------------------------------------------

def minkowski_normal(space: amb.AmbientSpace, x, eta, sheet_sign=1):
    """Minkowski coordinates of the surface point and its unit normal.

    Returns (X, V) as 4-vectors; V is the parallel-translated normal, i.e.
    the polar point on the opposite quadric.
    """
    X = amb.to_minkowski(space, amb.HalfSpacePoint(tuple(x)), sheet_sign).array()
    return X, np.array(_normal_from_lift(X, eta))


def _normal_from_lift(X, eta):
    eta1, eta2, eta3 = eta
    w = X[3] - X[0]
    v1 = eta1 - X[1] * eta3
    v2 = eta2 - X[2] * eta3
    d = eta3 * w                      # V0 - V3
    s = ((X[0] + X[3]) * d - 2.0 * (X[1] * v1 + X[2] * v2)) / w
    return [0.5 * (s + d), v1, v2, 0.5 * (s - d)]


def _require_off_equator(eta):
    if abs(float(eta[2])) < EQUATORIAL_TOL:
        raise EquatorialNormal("dual point would land on the degenerate set")


def _dual_point(space: amb.AmbientSpace, X, eta):
    """Lifted normal V on the dual quadric and its half-space chart position.

    X is the Minkowski lift of the source point and eta the oriented normal
    frame components.  Plain arithmetic on floats or calculus jets, so running
    it on jets differentiates the polar map.  Returns (V, pos) as lists.
    """
    V = _normal_from_lift(X, eta)
    if transfer_direction(space) == DS3_TO_H3 and float(V[0]) < 0.0:
        V = [-c for c in V]           # pick the upper sheet of the hyperboloid
    d = V[0] - V[3]
    sd = math.copysign(1.0, float(d))
    return V, [V[1] / (sd * d), V[2] / (sd * d), 1.0 / (sd * d)]


# --------------------------------------------------------------------------
# The polar variety
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarPoint:
    """Image of one surface point under the generalized Gauss map."""

    position: amb.HalfSpacePoint      # dual point in its half-space chart
    minkowski: amb.MinkowskiPoint     # the lifted normal on the dual quadric
    source_minkowski: amb.MinkowskiPoint
    source_eta3: float
    source_curvature: float
    dual_curvature: float | None     # None exactly at branch points
    volume_ratio: float
    branch_flag: bool
    direction: str

    def require_dual_curvature(self) -> float:
        if self.dual_curvature is None:
            raise BranchPoint("dual curvature requested at a branch point")
        return self.dual_curvature


def _checked_dual_point(space: amb.AmbientSpace, x, eta):
    """The source lift X, the dual point V and its chart position, after the
    equator check and with the position's height checked positive."""
    _require_off_equator(eta)
    X = amb.minkowski_coords(space, x)
    V, pos = _dual_point(space, X, eta)
    if not pos[2] > 0.0:
        raise NonPositiveHeight("dual point left the upper half-space")
    return X, V, pos


def polar_position(chart: calc.SurfaceChart, p) -> amb.HalfSpacePoint:
    """``polar_variety(chart, p).position``, bit for bit and with
    the same errors, without the forms and the curvature transfer."""
    jet = calc.jet2_eval(chart, p)
    eta = forms.frame_normal(chart.ambient, jet, chart.orientation_at(p))
    _, _, pos = _checked_dual_point(chart.ambient, jet.x, eta)
    return amb.HalfSpacePoint(tuple(pos))


def polar_variety(chart: calc.SurfaceChart, p) -> PolarPoint:
    """Polar point of the surface at parameter p, with curvature transfer.

    Branch points (source curvature at the branch value, or a singular second
    form) are flagged rather than failed; the dual curvature is withheld
    there.
    """
    jet = calc.jet2_eval(chart, p)
    bundle = forms.fundamental_forms(jet, chart.ambient, chart.orientation_at(p))
    X, V, pos = _checked_dual_point(chart.ambient, jet.x, bundle.eta)

    k = bundle.gauss_curvature
    k_branch = _branch_curvature(chart.ambient)
    branched = (abs(k - k_branch) < BRANCH_K_TOL
                or abs(np.linalg.det(bundle.second)) < BRANCH_DET_TOL)
    direction = transfer_direction(chart.ambient)
    dual_k = None if branched else curvature_transfer(k, direction)
    volume_ratio = abs(k - k_branch)

    src_quadric = amb.Quadric.H if chart.ambient.kind is amb.Kind.HYPERBOLIC \
        else amb.Quadric.DS
    dst_quadric = amb.Quadric.H if direction == DS3_TO_H3 else amb.Quadric.DS
    return PolarPoint(
        position=amb.HalfSpacePoint(tuple(pos)),
        minkowski=amb.MinkowskiPoint(tuple(V), dst_quadric),
        source_minkowski=amb.MinkowskiPoint(tuple(X), src_quadric),
        source_eta3=float(bundle.eta[2]),
        source_curvature=k,
        dual_curvature=dual_k,
        volume_ratio=volume_ratio,
        branch_flag=bool(branched),
        direction=direction,
    )


def _exact_polar_jet_fn(chart: calc.SurfaceChart):
    """Polar map differentiated by running it on second-order jets.

    Works for charts whose evaluator exposes component expression trees: one
    third-order jet per component gives second-order jets of x, x_u and x_v.
    The whole pipeline (sign-weighted cross product, normalization,
    Minkowski lift, projection to the dual chart) is rational-plus-sqrt, so
    jets pass through it exactly.
    """
    asts = chart.evaluator.component_asts
    space = chart.ambient
    eps = space.signature

    def jet_fn(u, v):
        x, xu, xv = zip(*(calc.jet_partials(calc.third_order_jet(a, u, v))
                          for a in asts))
        w = [xu[1] * xv[2] - xu[2] * xv[1],
             xu[2] * xv[0] - xu[0] * xv[2],
             xu[0] * xv[1] - xu[1] * xv[0]]
        nd = [eps[a] * w[a] for a in range(3)]
        nn = eps[0] * nd[0] * nd[0] + eps[1] * nd[1] * nd[1] + eps[2] * nd[2] * nd[2]
        if nn.val == 0.0 or math.copysign(1.0, nn.val) != space.normal_sign:
            raise WrongCausalClass(
                "normal scalar square has the wrong sign for the declared class")
        eta = [c / calc.jet_sqrt(space.normal_sign * nn) for c in nd]
        _require_off_equator(eta)
        sigma = forms.orientation_sign(eta, chart.orientation_at((u, v)))
        eta = [sigma * c for c in eta]
        _, pos = _dual_point(space, amb.minkowski_coords(space, x), eta)
        return calc.jet_arrays(pos)

    return jet_fn


def _fd_polar_jet_fn(chart: calc.SurfaceChart):
    """Fallback for charts without expression trees: exact first derivatives
    by running the polar map on first-order jets of the point and normal,
    fourth-order differences of those for the second order."""
    space = chart.ambient

    def first_order(u, v):
        jet = calc.jet2_eval(chart, (u, v))
        bundle = forms.fundamental_forms(jet, space, chart.orientation_at((u, v)))
        _require_off_equator(bundle.eta)
        x = [calc.first_order_jet(jet.x[a], jet.du[a]) for a in range(3)]
        eta = [calc.first_order_jet(bundle.eta[a], bundle.eta_du[a]) for a in range(3)]
        _, pos = _dual_point(space, amb.minkowski_coords(space, x), eta)
        return np.array([c.val for c in pos]), np.array([(c.gu, c.gv) for c in pos])

    def jet_fn(u, v):
        pos, dpos = first_order(u, v)
        h = 1e-3 * max(1.0, abs(u), abs(v))
        duu = np.empty((3, 2, 2))
        for axis in range(2):
            step = (h, 0.0) if axis == 0 else (0.0, h)
            d = [first_order(u + k * step[0], v + k * step[1])[1]
                 for k in (-2, -1, 1, 2)]
            duu[:, :, axis] = (d[0] - 8.0 * d[1] + 8.0 * d[2] - d[3]) / (12.0 * h)
        duu = 0.5 * (duu + duu.transpose(0, 2, 1))
        return pos, dpos, duu

    return jet_fn


def polar_chart(chart: calc.SurfaceChart) -> calc.SurfaceChart:
    """The polar variety as a chart over the source parameters.

    Charts built from expressions get exact dual jets (the polar map is
    differentiated by jet arithmetic); position-only sources fall back to
    finite differences of the exact first derivatives.  Building it does no
    symbolic work.
    """
    target = dual_space(chart.ambient)
    if getattr(chart.evaluator, "component_asts", None) is not None:
        jet_fn = _exact_polar_jet_fn(chart)
    else:
        jet_fn = _fd_polar_jet_fn(chart)
    return calc.SurfaceChart(chart.domain, calc.ClosedFormEvaluator(jet_fn=jet_fn),
                             target)


def polar_of_polar_minkowski(chart: calc.SurfaceChart, p) -> np.ndarray:
    """Minkowski position of the second polar (normal of the dual surface).

    The dual surface's normal is computed from its own exact first
    derivatives, not assumed; double polarity predicts this equals the source
    position up to overall sign.
    """
    dual = polar_chart(chart)
    jet = calc.jet2_eval(dual, p)
    eta = forms.frame_normal(dual.ambient, jet, None)
    # The dual surface must be lifted on the branch its points actually
    # occupy.  A de Sitter dual point V has V0 - V3 = eta3 (X3 - X0) with X
    # the source lift (_normal_from_lift); a hyperbolic dual has one sheet.
    branch = 1
    if transfer_direction(chart.ambient) != DS3_TO_H3:
        src = calc.jet2_eval(chart, p)
        eta3 = forms.unit_normal(chart.ambient, src, chart.orientation_at(p))[2] / src.height
        X = amb.minkowski_coords(chart.ambient, src.x)
        if eta3 * (X[3] - X[0]) < 0.0:
            branch = -1
    _, second = minkowski_normal(dual.ambient, jet.x, eta, branch)
    return second


# --------------------------------------------------------------------------
# Graph-level duality
# --------------------------------------------------------------------------

def graph_dualize(u, v, f, fu, fv, direction: str) -> amb.HalfSpacePoint:
    """Map one graph jet to the dual surface point.

    Directions: hyperbolic graph -> space-like de Sitter ('h3-to-ds3'),
    space-like de Sitter graph -> hyperbolic ('ds3-to-h3', needs gradient
    square < 1), time-like de Sitter graph -> time-like de Sitter
    ('ds3-timelike', needs gradient square > 1).
    """
    return amb.HalfSpacePoint(_graph_dual(u, v, f, fu, fv, direction))


def _graph_dual(u, v, f, fu, fv, direction):
    """The coordinates of graph_dualize, by plain arithmetic on floats or jets."""
    if float(f) <= 0.0:
        raise NonPositiveHeight(f"graph height {float(f)} is not positive")
    grad_sq = fu * fu + fv * fv
    if direction == H3_TO_DS3:
        return -f * fu - u, -f * fv - v, f * calc.jet_sqrt(1.0 + grad_sq)
    if direction == DS3_TO_H3:
        if float(grad_sq) >= 1.0:
            raise CausalityViolation(
                f"gradient square {float(grad_sq):.6g} must be < 1 for this direction")
        return f * fu - u, f * fv - v, f * calc.jet_sqrt(1.0 - grad_sq)
    if direction == DS3_TIMELIKE:
        if float(grad_sq) <= 1.0:
            raise CausalityViolation(
                f"gradient square {float(grad_sq):.6g} must be > 1 for this direction")
        return f * fu - u, f * fv - v, f * calc.jet_sqrt(grad_sq - 1.0)
    raise ValueError(f"unknown direction {direction!r}")


def dual_graph_jet(expr: calc.GraphExpr, p, direction: str):
    """Height of the dualized graph with gradient and Hessian in its own base.

    graph_dualize runs on second-order jets of f, f_u and f_v (one
    third-order jet of f), which gives the dual position (p1, p2, w) with
    exact derivatives in (u, v); the chain rule then inverts the base map
    (u, v) -> (p1, p2).
    """
    u, v = float(p[0]), float(p[1])
    f, fu, fv = calc.jet_partials(
        calc.third_order_jet(expr.ast, u, v, dict(expr.constants)))
    pos, dpos, ddpos = calc.jet_arrays(_graph_dual(
        calc.first_order_jet(u, (1.0, 0.0)), calc.first_order_jet(v, (0.0, 1.0)),
        f, fu, fv, direction))
    # With J = d(p1, p2)/d(u, v): grad_uv w = J^T grad w and
    # hess_uv w = J^T (hess w) J + sum_k (grad w)_k hess_uv p_k.
    jac_inv = np.linalg.inv(dpos[:2])
    wgrad = jac_inv.T @ dpos[2]
    whess = jac_inv.T @ (ddpos[2] - wgrad[0] * ddpos[0] - wgrad[1] * ddpos[1]) @ jac_inv
    return float(pos[2]), wgrad, 0.5 * (whess + whess.T)


DUAL_PDE = {H3_TO_DS3: zoo.PDE_DS3, DS3_TO_H3: zoo.PDE_H3, DS3_TIMELIKE: zoo.PDE_DS3}


def graph_duality_residual(expr: calc.GraphExpr, p, direction: str) -> float:
    """Residual of the partner PDE on the dualized graph at p."""
    w, wgrad, whess = dual_graph_jet(expr, p, direction)
    return zoo.pde_residual_values(w, wgrad[0], wgrad[1],
                                   whess[0, 0], whess[0, 1], whess[1, 1],
                                   DUAL_PDE[direction])


# --------------------------------------------------------------------------
# Isometry fitting for dual family pairings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometryFit:
    theta: float
    a: float
    b: float
    max_gap: float
    label: str = ""


def _height_64(params, _s1, _s2):
    a, b = abs(params["a"]), abs(params["b"])
    return lambda q1, q2: np.sqrt(a * a + q1 * q1) + np.sqrt(b * b + q2 * q2)


def _height_622(params, s1, _s2):
    c = abs(params["c"])
    return lambda q1, q2: s1 * q1 * q2 / np.sqrt(c * c + q2 * q2)


def _height_623(params, s1, s2):
    c1, c2 = abs(params["c1"]), abs(params["c2"])
    return lambda q1, q2: (s2 * c1 * c2 + s1 * q1 * q2) / np.sqrt(c1 * c1 + q2 * q2)


# Source family -> (graph height of its zoo polar partner over the partner's
# own base, sign choices).  The sign switches absorb the target's
# parameter-sign freedom, which depends on the sampled patch.
PAIRINGS = {
    "translational-6.6": (_height_64, ((1, 1),)),
    "ruled-6.7": (_height_622, ((1, 1), (-1, 1))),
    "ruled-6.8": (_height_623, ((1, 1), (1, -1), (-1, 1), (-1, -1))),
}


def fit_family_pairing(source_key: str, params=None, count=100, seed=0):
    """Fit the known dual partner of a family to its sampled polar points.

    Returns (target_key, IsometryFit); the fit's max_gap bounds the
    point-to-surface distance after the horizontal isometry.
    """
    if source_key not in PAIRINGS:
        raise ValueError(f"no recorded dual partner for family {source_key!r}")
    height_builder, sign_choices = PAIRINGS[source_key]
    fam = zoo.get_family(source_key)
    chart = zoo.make_surface(source_key, params)
    merged = zoo.resolve_params(fam, params)
    rng = np.random.default_rng(seed)
    pts = np.array([polar_position(chart, p).coords
                    for p in chart.interior_points(count, rng, margin_frac=0.1)])
    best = None
    for s1, s2 in sign_choices:
        fit = fit_isometry(pts, height_builder(merged, s1, s2),
                           label=f"signs ({s1:+d}, {s2:+d})")
        if best is None or fit.max_gap < best.max_gap:
            best = fit
    return fam.polar_partner, best


def fit_isometry(points: np.ndarray, height_fn, label="") -> IsometryFit:
    """Fit the horizontal isometry mapping a target graph onto given points.

    ``height_fn(q1, q2)`` is the target surface's height over its own base
    coordinates; the fit searches the rotation angles FIT_ANGLES with
    continuous translation (a, b) by least squares and reports the largest
    vertical gap, an upper bound for the point-to-surface distance.
    """
    from scipy.optimize import least_squares

    pts = np.asarray(points, dtype=float)

    def gaps(params, theta):
        a, b = params
        c, s = math.cos(theta), math.sin(theta)
        q1 = (pts[:, 0] - a) * c + (pts[:, 1] - b) * s
        q2 = -(pts[:, 0] - a) * s + (pts[:, 1] - b) * c
        return pts[:, 2] - height_fn(q1, q2)

    best = None
    for theta in FIT_ANGLES:
        try:
            res = least_squares(gaps, x0=np.zeros(2), args=(theta,),
                                xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except (ValueError, FloatingPointError):
            continue
        gap = float(np.abs(gaps(res.x, theta)).max())
        if best is None or gap < best.max_gap:
            best = IsometryFit(theta, float(res.x[0]), float(res.x[1]), gap, label)
    if best is None:
        raise ValueError("no rotation angle produced a finite fit")
    return best
