"""Polar-variety duality between the two model spaces.

The unit normal of a surface, parallel translated to the origin of Minkowski
4-space, lands on the opposite quadric: de Sitter for sources in hyperbolic
space and vice versa (time-like de Sitter surfaces stay on the de Sitter
quadric).  This module computes that dual point through one polar-map code
path, with the normal and checks of ``forms.frame_normal``, that runs on
floats, on arrays (so a fit's cloud of polar points, from rows of the
chart's float kernel, is one pass with the float path's bits and its checks
as masks) and, traced once per space and order, as a straight-line jet
kernel (so the dual chart has exact derivatives and double polarity can be
checked at full precision; its checks and sign choices are calls to the
float path's own functions), the curvature and volume transfer laws, the
graph-level duality between the two fully nonlinear graph PDEs, and the
isometry fitting used to match dual families (a damped Gauss-Newton fit of
a horizontal translation at one rotation angle, on numpy arrays over all
points, with no solver library; a pairing's sign choices in the order of
their start gaps until one closes).  The polar map and the graph-level
duality read the causal case from the source space's curvature c and normal
sign eps_N; a direction string of the graph-level duality only names its
source space and the partner PDE.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ambient as amb
from . import calculus as calc
from . import forms
from . import zoo
from .errors import BranchPoint, CausalityViolation, EquatorialNormal, NonPositiveHeight

H3_TO_DS3 = "h3-to-ds3"
DS3_TO_H3 = "ds3-to-h3"
DS3_TIMELIKE = "ds3-timelike"
# Direction of the graph-level duality -> (source space, graph PDE of the dual).
DIRECTIONS = {H3_TO_DS3: (zoo.space_for(zoo.H3), zoo.PDE_DS3),
              DS3_TO_H3: (zoo.space_for(zoo.DS3), zoo.PDE_H3),
              DS3_TIMELIKE: (zoo.space_for(zoo.DS3_TIMELIKE), zoo.PDE_DS3)}

EQUATORIAL_TOL = 1e-12
BRANCH_K_TOL = 1e-6
BRANCH_DET_TOL = 1e-10
# The rotation of fit_isometry.  Every height in PAIRINGS is invariant under
# (q1, q2) -> (-q1, -q2), so the fit at -pi/2 would repeat this one.
FIT_ANGLE = math.pi / 2
FIT_STEP = 1e-6          # central-difference step of the fit's Jacobian in (a, b)
FIT_DAMPING = 1e-3       # initial damping, relative to the trace of J^T J
FIT_FTOL = 1e-15         # stop once a step lowers the sum of squares by a smaller fraction
FIT_XTOL = 1e-13         # stop once a step is shorter than this times 1 + |(a, b)|
FIT_MAX_STEPS = 100      # trial steps of one fit
FIT_CLOSED = 1e-12       # a sign choice's fit closes at max_gap <= this (1 + max |z|)


def dual_space(space: amb.AmbientSpace) -> amb.AmbientSpace:
    """Ambient space the polar variety lives in, with its causal class."""
    if space.kind is amb.Kind.HYPERBOLIC:
        return amb.de_sitter_space()
    if space.causal_class is amb.CausalClass.SPACE_LIKE:
        return amb.hyperbolic_space()
    return amb.de_sitter_space(causal_class=amb.CausalClass.TIME_LIKE)


def curvature_transfer(curvature: float, space: amb.AmbientSpace) -> float:
    """Dual Gauss curvature K / (eps_N (K - c)) of a surface in ``space``,
    with its curvature c and normal sign eps_N, under the generalized Gauss map.

    K/(K+1) out of hyperbolic space, K/(1-K) for space-like de Sitter
    sources, K/(K-1) for time-like ones (the sign follows from eta_3 -> 1/eta_3
    and K = 1 + eta_3^2 on conformal time-like surfaces; a dual time-like
    curvature below 1 would be inconsistent).  The branch point K = c raises.
    """
    c = space.curvature
    if abs(curvature - c) < 1e-12:
        raise BranchPoint(f"dual curvature undefined where K = {c:g}")
    return curvature / (space.normal_sign * (curvature - c))


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


def _on_equator(c):
    """Whether the last normal component c puts the dual point on the
    degenerate set, on floats or (N,) arrays."""
    return abs(c) < EQUATORIAL_TOL


def _check_equator(c):
    if _on_equator(float(c)):
        raise EquatorialNormal("dual point would land on the degenerate set")


def _check_dual_height(z):
    if not float(z) > 0.0:
        raise NonPositiveHeight("dual point left the upper half-space")


def _lower_sheet(v0):
    return float(v0) < 0.0


def _dual_point(space: amb.AmbientSpace, X, eta):
    """Lifted normal V on the dual quadric and its half-space chart position.

    X is the Minkowski lift of the source point and eta the oriented normal
    frame components.  Plain arithmetic on floats, jets or kernel operands,
    its sign choices read on float values, so running it on jets
    differentiates the polar map; on arrays the sign choices are made entry
    by entry.  Returns (V, pos) as lists.
    """
    V = _normal_from_lift(X, eta)
    if isinstance(V[0], np.ndarray):  # the sign choices below, entry by entry
        V = [np.where(V[0] < 0.0, -c, c) for c in V] if space.normal_sign < 0 else V
        d = abs(V[0] - V[3])          # the bits of copysign(1.0, d) * d
    else:
        if space.normal_sign < 0:     # pick the upper sheet of the hyperboloid
            V = calc.where(calc.read(_lower_sheet, V[0]), lambda V: [-c for c in V], V)
        d = V[0] - V[3]
        d = calc.read(math.copysign, 1.0, d) * d
    return V, [V[1] / d, V[2] / d, 1.0 / d]


# --------------------------------------------------------------------------
# The polar variety
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarPoint:
    """Image of one surface point under the generalized Gauss map."""

    position: amb.HalfSpacePoint      # dual point in its half-space chart
    source_minkowski: amb.MinkowskiPoint
    source_curvature: float
    dual_curvature: float | None     # None exactly at branch points
    volume_ratio: float
    branch_flag: bool


def _checked_dual_point(space: amb.AmbientSpace, x, eta):
    """The source lift X, the dual point V and its chart position, after the
    equator check and with the position's height checked positive.  Runs on
    floats, jets and kernel operands."""
    calc.read(_check_equator, eta[2])
    X = amb.minkowski_coords(space, x)
    V, pos = _dual_point(space, X, eta)
    calc.read(_check_dual_height, pos[2])
    return X, V, pos


def _polar_map(space: amb.AmbientSpace, x, du, orientation):
    """``_checked_dual_point`` of the source point x with the frame normal of
    the tangent map du, on floats, jets and kernel operands."""
    return _checked_dual_point(space, x, forms.frame_normal(space, x[-1], du, orientation))


def polar_position(chart: calc.SurfaceChart, p) -> amb.HalfSpacePoint:
    """``polar_variety(chart, p).position``, bit for bit and with
    the same errors, without the forms and the curvature transfer."""
    jet = calc.jet2_eval(chart, p)
    _, _, pos = _polar_map(chart.ambient, jet.x, jet.du, chart.orientation_at(p))
    return amb.HalfSpacePoint(tuple(pos))


def polar_positions(chart: calc.SurfaceChart, points) -> np.ndarray:
    """``[polar_position(chart, p).coords for p in points]`` as an (N, 3)
    array, bit for bit and with the same first error, for a chart with
    component expressions.  The chart's float kernel gives each point's jet
    coefficients; one pass over arrays runs the float path's operations and
    ANDs the predicates of its checks with the positions' finiteness.  The
    points that fail run through ``polar_position`` in order, so the first
    that fails raises its own error; a kernel error or an orientation
    override sends every point there."""
    pts = np.asarray(points, dtype=float)
    out, ok = np.empty((len(pts), 3)), np.zeros(len(pts), dtype=bool)
    if chart.orientation is None:
        with np.errstate(all="ignore"):
            try:
                out, ok = _polar_cloud(chart, pts)
            except Exception:       # noqa: BLE001 - the float path reruns and raises
                pass
    for i in np.flatnonzero(~ok):
        out[i] = polar_position(chart, pts[i]).coords
    return out


def _polar_cloud(chart: calc.SurfaceChart, pts):
    """Polar positions at the (N, 2) points, and where every check passes."""
    space = chart.ambient
    row = calc.chart_kernels(chart.evaluator.component_asts)[1]
    rows = np.fromiter(itertools.chain.from_iterable(map(row, *pts.T.tolist())), float)
    jets = rows.reshape(len(pts), -1).T.reshape(-1, 6, len(pts))
    x, du, h = jets[:, 0], jets[:, 1:3], jets[-1, 0]
    eta, ok = forms.frame_normals(space, h, du)
    _, pos = _dual_point(space, amb.minkowski_coords(space, x), eta)
    ok &= (chart.contains(pts[:, 0], pts[:, 1]) & calc.chart_ok(space, h, du)
           & ~_on_equator(eta[2]) & (pos[2] > 0.0))
    return np.column_stack(pos), ok & np.isfinite(pos).all(axis=0)


def polar_variety(chart: calc.SurfaceChart, p) -> PolarPoint:
    """Polar point of the surface at parameter p, with curvature transfer.

    Branch points (source curvature at the branch value, or a singular second
    form) are flagged rather than failed; the dual curvature is withheld
    there.
    """
    space = chart.ambient
    jet = calc.jet2_eval(chart, p)
    bundle = forms.fundamental_forms(jet, space, chart.orientation_at(p))
    X, _, pos = _checked_dual_point(space, jet.x, bundle.eta)

    k = bundle.gauss_curvature
    branched = (abs(k - space.curvature) < BRANCH_K_TOL
                or abs(forms._det(bundle.second)) < BRANCH_DET_TOL)
    return PolarPoint(
        position=amb.HalfSpacePoint(tuple(pos)),
        source_minkowski=amb.MinkowskiPoint(tuple(X), space.curvature),
        source_curvature=k,
        dual_curvature=None if branched else curvature_transfer(k, space),
        volume_ratio=abs(k - space.curvature),
        branch_flag=bool(branched),
    )


def polar_chart(chart: calc.SurfaceChart) -> calc.SurfaceChart:
    """The polar variety as a chart over the source parameters.

    The polar map is differentiated by running it on second-order jets: the
    source chart's order-three kernel gives second-order jets of x, x_u and
    x_v.  The point path's checks run in its order: the chart checks of
    ``calc.jet2_eval`` on the jets' values, then those of ``_polar_map``.
    The map runs as one kernel per space (see ``_kernel``).  Building the
    chart does no symbolic work.
    """
    asts = chart.evaluator.component_asts
    space = chart.ambient

    def jet_fn(u, v):
        return _kernel(space, 2)(calc.third_order_jet(asts, u, v), u, v,
                                 chart.orientation_at((u, v)))

    return calc.SurfaceChart(chart.domain, calc.ClosedFormEvaluator(jet_fn=jet_fn),
                             dual_space(space))


def polar_of_polar_minkowski(chart: calc.SurfaceChart, p) -> np.ndarray:
    """Minkowski position of the second polar (normal of the dual surface).

    The dual surface's normal is computed from its own exact first
    derivatives, not assumed; double polarity predicts this equals the source
    position up to overall sign.  The polar map runs, with the point path's
    checks, on first-order jets of x, x_u and x_v from the source's two-jet:
    first derivatives of jet arithmetic never read second ones, so the dual
    point and its first derivatives have the bits of ``polar_chart``'s jet.
    The dual surface is lifted on the de Sitter branch its point V occupies,
    the sign of V0 - V3 (a hyperbolic dual has one sheet).
    """
    src = calc.jet2_eval(chart, p)
    y, dy, d = _kernel(chart.ambient, 1)(src.x, src.du, src.duu, chart.orientation_at(p))
    space = dual_space(chart.ambient)
    calc.check_chart_jet(space, float(p[0]), float(p[1]), y, dy)
    eta = forms.frame_normal(space, y[-1], dy, None)
    _, second = minkowski_normal(space, y, eta, -1 if d < 0.0 else 1)
    return second


_KERNELS = {}       # (dim, c, eps_N, order) of a space, or a direction -> kernel


def _kernel(source, order=2):
    """``_polar_map`` of a chart in the space ``source``, or for a direction
    ``graph_dualize``, traced once per process into a kernel: of order two
    (the order-three coefficients of the components in one row, u, v,
    orientation) ->
    (x, du, duu) of the dual point; of order one (x, du, duu of the source,
    orientation) -> (x, du, the value of V0 - V3); for a direction (those
    of f, u, v) -> (x, du, duu)."""
    key = source if type(source) is str else (source.dim, source.curvature,
                                              source.normal_sign, order)
    kernel = _KERNELS.get(key)
    if kernel is None:
        params, trace = (("f, u, v", _traced_graph) if type(source) is str else
                         ("jets, u, v, orientation", _traced_chart) if order == 2 else
                         ("x, du, duu, orientation", _traced_double))
        kernel = _KERNELS[key] = calc.compile_traced(order, params, lambda e: trace(e, source))
    return kernel


def _traced_chart(e, space):
    row = e.unpack("jets", 10 * space.dim)
    comps = [row[i:i + 10] for i in range(0, len(row), 10)]
    x, xu, xv = ([e.operand([c[i] for i in slots]) for c in comps] for slots in calc.PARTIALS)
    du = tuple(zip(xu, xv))
    calc.read(calc.check_chart_jet, space, e.operand("u"), e.operand("v"), x, du)
    return calc.jet_tuples(_polar_map(space, x, du, e.operand("orientation"))[2])


def _traced_double(e, space):
    x = e.unpack("x", space.dim)
    du = [e.unpack(f"du[{k}]", 2) for k in range(space.dim)]
    xs = [e.operand([c, *d]) for c, d in zip(x, du)]
    xu, xv = ([e.operand([d[i], *e.unpack(f"duu[{k}][{i}]", 2)]) for k, d in enumerate(du)]
              for i in (0, 1))
    _, V, pos = _polar_map(space, xs, tuple(zip(xu, xv)), e.operand("orientation"))
    return (*calc.jet_tuples(pos), (V[0] - V[3]).coefficients()[0])


def _traced_graph(e, direction):
    c = e.unpack("f", 10)
    f, fu, fv = (e.operand([c[i] for i in slots]) for slots in calc.PARTIALS)
    u = e.operand(["u", "1.0", "0.0", "0.0", "0.0", "0.0"])
    v = e.operand(["v", "0.0", "1.0", "0.0", "0.0", "0.0"])
    return calc.jet_tuples(graph_dualize(u, v, f, fu, fv, direction))


# --------------------------------------------------------------------------
# Graph-level duality
# --------------------------------------------------------------------------

def _check_graph_height(f):
    if float(f) <= 0.0:
        raise NonPositiveHeight(f"graph height {float(f)} is not positive")


def _check_gradient(arg, grad_sq, eps_n):
    if not float(arg) > 0.0:
        raise CausalityViolation(f"gradient square {float(grad_sq):.6g} must be "
                                 f"{'<' if eps_n < 0 else '>'} 1 for this direction")


def graph_dualize(u, v, f, fu, fv, direction: str):
    """Map one graph jet to the dual surface point (c f fu - u, c f fv - v,
    f sqrt(eps_N (|grad f|^2 - c))), with c and eps_N of the source space.

    Plain arithmetic with its checks read on float values, so it runs on
    floats, jets and kernel operands alike.  Directions: hyperbolic graph
    -> space-like de Sitter ('h3-to-ds3'), space-like de Sitter graph ->
    hyperbolic ('ds3-to-h3', needs gradient square < 1), time-like de
    Sitter graph -> time-like de Sitter ('ds3-timelike', needs gradient
    square > 1).
    """
    calc.read(_check_graph_height, f)
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    space = DIRECTIONS[direction][0]
    cf, eps_n = space.curvature * f, space.normal_sign
    grad_sq = fu * fu + fv * fv
    arg = eps_n * (grad_sq - space.curvature)
    calc.read(_check_gradient, arg, grad_sq, eps_n)
    return cf * fu - u, cf * fv - v, f * calc.jet_sqrt(arg)


def dual_graph_jet(expr: calc.GraphExpr, p, direction: str):
    """Height of the dualized graph with gradient and Hessian in its own base.

    graph_dualize runs on second-order jets of f, f_u and f_v (one
    third-order jet of f), as a kernel per direction, which gives the dual
    position (p1, p2, w) with exact derivatives in (u, v); the chain rule
    then inverts the base map (u, v) -> (p1, p2).
    """
    u, v = float(p[0]), float(p[1])
    f = calc.third_order_jet(expr.ast, u, v)
    if direction not in DIRECTIONS:     # its errors in their order, from the float path
        graph_dualize(u, v, f[0], f[1], f[2], direction)
    pos, dpos, ddpos = (np.array(t) for t in _kernel(direction)(f, u, v))
    # With J = d(p1, p2)/d(u, v): grad_uv w = J^T grad w and
    # hess_uv w = J^T (hess w) J + sum_k (grad w)_k hess_uv p_k.
    jac_inv = np.linalg.inv(dpos[:2])
    wgrad = jac_inv.T @ dpos[2]
    whess = jac_inv.T @ (ddpos[2] - wgrad[0] * ddpos[0] - wgrad[1] * ddpos[1]) @ jac_inv
    return float(pos[2]), wgrad, 0.5 * (whess + whess.T)


def graph_duality_residual(expr: calc.GraphExpr, p, direction: str) -> float:
    """Residual of the partner PDE on the dualized graph at p."""
    w, wgrad, whess = dual_graph_jet(expr, p, direction)
    return zoo.pde_residual_values(w, wgrad[0], wgrad[1],
                                   whess[0, 0], whess[0, 1], whess[1, 1],
                                   DIRECTIONS[direction][1])


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
    point-to-surface distance after the horizontal isometry.  Sign choices
    are fitted by their largest gap at (0, 0) until one closes, max_gap <=
    FIT_CLOSED (1 + max |z|), else the first least max_gap is kept.
    ValueError, before any fit, if a choice's gaps at (0, 0) are not finite.
    """
    if source_key not in PAIRINGS:
        raise ValueError(f"no recorded dual partner for family {source_key!r}")
    height_builder, sign_choices = PAIRINGS[source_key]
    fam = zoo.get_family(source_key)
    chart = zoo.make_surface(source_key, params)
    merged = zoo.resolve_params(fam, params)
    rng = np.random.default_rng(seed)
    pts = polar_positions(chart, chart.interior_points(count, rng, margin_frac=0.1))
    heights = [height_builder(merged, s1, s2) for s1, s2 in sign_choices]
    start = [_start_gap(_gaps_fn(pts, h)(0.0, 0.0)) for h in heights]
    closed = FIT_CLOSED * (1.0 + float(np.abs(pts[:, 2]).max()))
    fits = []
    for i in sorted(range(len(heights)), key=start.__getitem__):
        s1, s2 = sign_choices[i]
        fit = fit_isometry(pts, heights[i], label=f"signs ({s1:+d}, {s2:+d})")
        if fit.max_gap <= closed:
            return fam.polar_partner, fit
        fits.append((fit.max_gap, i, fit))
    return fam.polar_partner, min(fits, key=lambda t: t[:2])[2]


def _start_gap(r) -> float:
    """Largest of the gaps r at (0, 0); ValueError if one is not finite."""
    if not np.isfinite(r).all():
        raise ValueError("no rotation angle produced a finite fit")
    return float(np.abs(r).max())


def _gaps_fn(points, height_fn):
    """The points' vertical gaps to the target graph, a function of (a, b)."""
    x, y, z = (np.ascontiguousarray(col, dtype=float) for col in np.asarray(points).T)
    c, s = math.cos(FIT_ANGLE), math.sin(FIT_ANGLE)

    def gaps(a, b):
        dx, dy = x - a, y - b
        return z - height_fn(dx * c + dy * s, -dx * s + dy * c)
    return gaps


def fit_isometry(points: np.ndarray, height_fn, label="") -> IsometryFit:
    """Fit the horizontal isometry mapping a target graph onto given points.

    ``height_fn(q1, q2)`` is the target surface's height over its own base
    coordinates, evaluated on whole arrays.  At the rotation FIT_ANGLE a
    damped Gauss-Newton iteration (Levenberg-Marquardt; More, LNM 630, 1978)
    fits the translation (a, b) to the vertical gaps, starting at (0, 0):
    central differences give the two Jacobian columns, and the damped 2 x 2
    normal equations are solved in closed form.  A step is taken only if it
    lowers the sum of squared gaps, so a step to non-finite gaps is
    rejected.  The largest gap at the result is reported and bounds the
    point-to-surface distance.  ValueError if the gaps at (0, 0) are not
    finite.
    """
    gaps = _gaps_fn(points, height_fn)
    a = b = 0.0
    r = gaps(a, b)
    _start_gap(r)
    ssq = float(r @ r)
    damping, growth = FIT_DAMPING, 2.0
    normal = None
    for _ in range(FIT_MAX_STEPS):
        if normal is None:
            ja = (gaps(a + FIT_STEP, b) - gaps(a - FIT_STEP, b)) / (2.0 * FIT_STEP)
            jb = (gaps(a, b + FIT_STEP) - gaps(a, b - FIT_STEP)) / (2.0 * FIT_STEP)
            normal = (float(ja @ ja), float(ja @ jb), float(jb @ jb),
                      float(ja @ r), float(jb @ r))
        saa, sab, sbb, ga, gb = normal
        mu = damping * (saa + sbb)
        det = (saa + mu) * (sbb + mu) - sab * sab
        if not 0.0 < det < math.inf:      # no descent direction to take
            break
        da = (sab * gb - (sbb + mu) * ga) / det
        db = (sab * ga - (saa + mu) * gb) / det
        if max(abs(da), abs(db)) <= FIT_XTOL * (1.0 + max(abs(a), abs(b))):
            break
        trial = gaps(a + da, b + db)
        trial_ssq = float(trial @ trial)
        if not trial_ssq < ssq:           # also rejects non-finite gaps
            damping, growth = damping * growth, growth * 2.0
            continue
        # Nielsen's update (Madsen, Nielsen & Tingleff, Methods for
        # non-linear least squares problems, 2004, sec. 3.2): relax the
        # damping as far as the decrease matched the linear model's.
        gain = (ssq - trial_ssq) / (mu * (da * da + db * db) - ga * da - gb * db)
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        growth = 2.0
        converged = ssq - trial_ssq <= FIT_FTOL * ssq
        a, b, r, ssq = a + da, b + db, trial, trial_ssq
        normal = None
        if converged:
            break
    return IsometryFit(FIT_ANGLE, a, b, float(np.abs(r).max()), label)
