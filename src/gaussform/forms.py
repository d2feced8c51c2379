"""Unit normal, fundamental forms, curvatures, and conformality tests.

Conventions, fixed once by the horosphere calibration (f = 1 in hyperbolic
space must give II = I with eta = (0, 0, 1)):

* the second form is h_ij = eps_N <D_i dx_j, N> with eps_N the scalar square
  of the unit normal, so the shape operator is I^{-1} II in every causal case;
* the normal is oriented so its last frame component is nonnegative unless a
  chart overrides the sign;
* the causal case enters only by the space's ``curvature`` c and
  ``normal_sign`` eps_N, as in K = c + eps_N det II / det I;
* the fourth form is the flat sign-weighted product of the differential of
  the frame-translated normal, computed here through the closed-form normal
  derivative (the finite-difference route lives in fourth_form_direct and is
  kept independent on purpose).

The per-point pipeline works component-wise on Python floats with plain
operators.  Surfaces (k = 2 parameters, m = 3) run it written out in scalars,
every dot product summed left to right from 0 as ``sum`` does, so the tests
can pin it to the bits of the loops over the indices that k > 2 runs (Laplace
cofactors, Sylvester's criterion, adjugate inverse, list products).  The
bundle holds the results as floats and nested lists.  The residuals of
``check forms`` recompute what they check with their own arithmetic.  The
oracles keep their own numerics and import numpy where they run:
fourth_form_direct takes the SVD null vector as the normal and
intrinsic_gauss_curvature a numpy stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

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
class FormBundle:
    """The four fundamental forms and derived curvature data at one point.

    ``eta`` is a list of floats, the forms are k x k nested lists.
    """

    space: amb.AmbientSpace
    eta: list                  # frame components of the unit normal
    first: list
    second: list
    third: list
    fourth: list
    mean_curvature: float
    gauss_curvature: float
    # The principal curvatures (lambda <= mu) of a space-like surface point
    # with k = 2 and a real spectrum; None otherwise.
    principal_curvatures: tuple | None


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
    """Inverse of a k x k matrix, k > 2, from its adjugate and determinant."""
    k = len(a)
    return [[(-1.0) ** (i + j) * _det([row[:i] + row[i + 1:]
                                       for r, row in enumerate(a) if r != j]) / det
             for j in range(k)] for i in range(k)]


def _dot(x, y):
    return sum(map(mul, x, y))


def _wdot(w, x, y):
    """sum_A w_A x_A y_A for three components, in _dot's order on the rows
    w_A x_A (from the int 0, so a signed zero sums as it does in ``sum``)."""
    return 0 + w[0] * x[0] * y[0] + w[1] * x[1] * y[1] + w[2] * x[2] * y[2]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def check_causal_class(space, first):
    """Determinant of the induced metric (nested lists), which must pass
    causal_class_ok; raises NonImmersed or WrongCausalClass."""
    if space.dim == 3:
        (e, f), (f2, g) = first
        det = e * g - f * f2
        minors = (e, det)
    else:
        det = _det(first)
        minors = (_det([row[:i] for row in first[:i]])
                  for i in range(1, len(first) + 1))
    if causal_class_ok(space, det, minors):
        return det
    if not abs(det) < math.inf:         # an overflow, which would make K NaN
        raise NonImmersed(f"induced metric is not finite (det {det:.3e})")
    if abs(det) < calculus.GRAM_DET_TOL:
        raise NonImmersed(f"induced metric is degenerate (det {det:.3e})")
    raise WrongCausalClass("induced metric is not positive definite"
                           if space.causal_class is amb.CausalClass.SPACE_LIKE
                           else "induced metric is not Lorentzian")


def causal_class_ok(space, det, minors):
    """Whether a metric of determinant det and leading principal minors is
    finite, nondegenerate and of the causal class of ``space`` (Sylvester's
    criterion; only a surface is Lorentzian), on floats or (N,) arrays."""
    ok = (abs(det) < math.inf) & (abs(det) >= calculus.GRAM_DET_TOL)
    if space.causal_class is not amb.CausalClass.SPACE_LIKE:
        return ok & (det < 0.0) & (space.dim == 3)
    for c in minors:
        ok = ok & (c > 0.0)
    return ok


def normal_ok(space, nn):
    """Whether the normal's scalar square nn is of the sign of ``space``
    (not zero, not NaN), on floats or (N,) arrays."""
    return space.normal_sign * nn > 0.0


def orientation_tie(c):
    """Whether the component c orienting a normal is too small to decide it."""
    return abs(c) <= ORIENTATION_TIE_TOL


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
        if orientation_tie(dot):
            raise OrientationUndefined("reference vector is orthogonal to the normal")
        return math.copysign(1.0, dot)
    eta_last = float(eta[-1])
    if orientation_tie(eta_last):
        raise OrientationUndefined(
            "last normal component vanishes; give a reference-vector override")
    want = 1 if orientation is None else int(orientation)
    return 1.0 if math.copysign(1.0, eta_last) == math.copysign(1.0, want) else -1.0


def _oriented_normal(space, h, du, orientation):
    """Frame components eta of the oriented unit normal, as a list.

    ``du`` is the m x (m - 1) tangent map as nested sequences.  The normal
    is the vector nd of signed cofactors of ``du`` (the cross product for
    m = 3) weighted by the signature, which is orthogonal to every tangent
    in the metric eps_A dx_A^2 / h^2; its scalar square nn sets the causal
    class, and eta = +-nd / sqrt|nn|.  Plain arithmetic with comparisons on
    float values, so it runs on floats and on calculus jets alike.
    """
    if not (float(h) > 0.0):
        raise NonPositiveHeight(f"height {float(h)} is not positive")
    eps = space.signature
    # Negations are written 0.0 - c, so a zero component stays +0.0 in reports.
    if space.dim == 3:
        nd, nn = cofactor_normal(eps, du)
    else:
        m = len(du)
        nd = [eps[a] * _det(du[:a] + du[a + 1:]) for a in range(m)]
        nd[1::2] = [0.0 - c for c in nd[1::2]]     # the cofactor signs
        nn = sum(eps[a] * nd[a] * nd[a] for a in range(m))
    if not normal_ok(space, float(nn)):
        if float(nn) == 0.0:
            raise NonImmersed("tangent map is degenerate: the cofactor normal vanishes")
        if math.isnan(float(nn)):        # its sign bit is arbitrary
            raise NonImmersed("tangent map is not finite: the normal's scalar square is NaN")
        raise WrongCausalClass(f"normal has scalar square of sign "
                               f"{math.copysign(1.0, float(nn)):+.0f}, "
                               f"expected {space.normal_sign:+d}")
    root = calculus.jet_sqrt(space.normal_sign * nn)
    eta = [c / root for c in nd]
    if orientation_sign(eta, orientation) < 0.0:
        eta = [0.0 - c for c in eta]
    return eta


def cofactor_normal(eps, du):
    """The cofactor normal nd of a 3 x 2 tangent map du weighted by the
    signature eps, and its scalar square nn, on floats, jets or arrays."""
    (x0, y0), (x1, y1), (x2, y2) = du
    nd = [eps[0] * (x1 * y2 - y1 * x2), 0.0 - eps[1] * (x0 * y2 - y0 * x2),
          eps[2] * (x0 * y1 - y0 * x1)]
    return nd, _wdot(eps, nd, nd)


def induced_metric(space, h, du):
    """The first fundamental form sum_A eps_A / h^2 dx_A(x_i) dx_A(x_j) at
    height h > 0, from the m x k tangent map du, as k x k nested lists."""
    h2 = calculus.power(h, 2)
    w = [e / h2 for e in space.signature]       # the diagonal metric
    cols = list(zip(*du))                       # the tangent vectors x_i
    if space.dim == 3:
        xu, xv = cols
        return [[_wdot(w, xu, xu), _wdot(w, xu, xv)],
                [_wdot(w, xv, xu), _wdot(w, xv, xv)]]
    return [[_dot([wa * c for wa, c in zip(w, ci)], cj) for cj in cols] for ci in cols]


def frame_normal(space, h, du, orientation):
    """Frame components eta of the oriented unit normal at height h with
    tangent map du, with the checks of fundamental_forms in its order (the
    normal, then the causal class of the induced metric) but none of the
    forms.  Runs on floats and on calculus jets; the causal class is checked
    on their float values."""
    eta = _oriented_normal(space, h, du, orientation)
    check_causal_class(space, induced_metric(
        space, float(h), [[float(c) for c in row] for row in du]))
    return eta


def frame_normals(space, h, du, sign=1):
    """``frame_normal`` of a surface on arrays, the sign of the last component
    forced to ``sign``: (eta, ok), ok where its checks pass.  Run under errstate."""
    import numpy as np
    nd, nn = cofactor_normal(space.signature, du)
    root = np.sqrt(space.normal_sign * nn)
    eta = [c / root for c in nd]
    eta = [np.where(np.signbit(eta[2]) != (sign < 0), 0.0 - c, c) for c in eta]
    (e, f), (f2, g) = induced_metric(space, h, du)
    det = e * g - f * f2
    ok = ((h > 0.0) & normal_ok(space, nn) & ~orientation_tie(eta[2])
          & causal_class_ok(space, det, (e, det)))
    return eta, ok


def _surface_forms(space, h, du, duu, eta, first, det):
    """(II, III, IV, H, det II, principal curvatures) of a surface, k = 2 and
    m = 3: the steps of _hypersurface_forms written out in scalars, in its
    operation order, so both give the same bits."""
    eps, eps_n = space.signature, space.normal_sign
    h2 = h**2
    g0, g1, g2 = [e / h2 * (h * c) for e, c in zip(eps, eta)]
    t = eta[2]
    (e, f), (f2, g) = first
    ((p0, q0), (r0, s0)), ((p1, q1), (r1, s1)), ((p2, q2), (r2, s2)) = duu
    l = eps_n * (0 + g0 * p0 + g1 * p1 + g2 * p2 + t * e)
    m = eps_n * (0 + g0 * q0 + g1 * q1 + g2 * q2 + t * f)
    m2 = eps_n * (0 + g0 * r0 + g1 * r1 + g2 * r2 + t * f2)
    n = eps_n * (0 + g0 * s0 + g1 * s1 + g2 * s2 + t * g)
    i00, i01, i10, i11 = g / det, -f / det, -f2 / det, e / det
    a, b = 0 + i00 * l + i01 * m2, 0 + i00 * m + i01 * n     # the shape operator
    c, d = 0 + i10 * l + i11 * m2, 0 + i10 * m + i11 * n
    third = [[0 + l * a + m * c, 0 + l * b + m * d],
             [0 + m2 * a + n * c, 0 + m2 * b + n * d]]
    eu = [(t * x - eps_n * (0 + x * a + y * c)) / h for x, y in du]     # eta_u, eta_v
    ev = [(t * y - eps_n * (0 + x * b + y * d)) / h for x, y in du]
    fourth = [[_wdot(eps, eu, eu), _wdot(eps, eu, ev)],
              [_wdot(eps, ev, eu), _wdot(eps, ev, ev)]]
    principal = None
    if space.causal_class is amb.CausalClass.SPACE_LIKE:
        half = 0.5 * (a + d)
        disc = (0.5 * (a - d)) ** 2 + b * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            principal = (half - root, half + root)
        elif math.sqrt(-disc) < 1e-10 * (1.0 + math.sqrt(half * half - disc)):
            principal = (half, half)
    return [[l, m], [m2, n]], third, fourth, (0 + a + d) / 2, l * n - m * m2, principal


def _hypersurface_forms(space, h, du, duu, eta, first, det):
    """(II, III, IV, H, det II, None) of a hypersurface with k = m - 1
    parameters, as loops over the indices.

    h_ij = eps_N <D_i x_j, N>.  With the half-space Christoffel symbols and
    <N, x_i> = 0 the connection term contracts to eta_last * I_ij, leaving
    h_ij = eps_N (sum_A eps_A duu^A_ij n_A / h^2 + eta_last I_ij), with the
    coordinate normal n = h eta.  III = II S and IV are products with the
    shape operator S = I^-1 II.
    """
    k = len(du[0])
    eps, eps_n = space.signature, space.normal_sign
    h2 = h**2
    gn = [e / h2 * (h * c) for e, c in zip(eps, eta)]
    eta_last = eta[-1]
    second = [[eps_n * (_dot(gn, [d[i][j] for d in duu]) + eta_last * first[i][j])
               for j in range(k)] for i in range(k)]
    shape_op = _matmul(_inverse(first, det), second)
    # Closed-form normal derivative; the first term is the frame drift, the
    # second the shape-operator action.
    eta_du = [[(eta_last * d - eps_n * ds) / h for d, ds in zip(row, srow)]
              for row, srow in zip(du, _matmul(du, shape_op))]
    ecols = list(zip(*eta_du))
    fourth = [[_dot([e * c for e, c in zip(eps, ci)], cj) for cj in ecols]
              for ci in ecols]
    return (second, _matmul(second, shape_op), fourth,
            sum(shape_op[i][i] for i in range(k)) / k, _det(second), None)


def fundamental_forms(jet: calculus.Jet2, space: amb.AmbientSpace,
                      orientation: int | None = None) -> FormBundle:
    """All four fundamental forms plus curvature data from an exact two-jet.

    ``orientation`` forces the sign of the last frame component of the normal
    (default nonnegative).  Computed component-wise on Python floats: written
    out for surfaces (k = 2), as loops for hypersurfaces with k = m - 1 > 2.
    """
    h = jet.height
    eta = _oriented_normal(space, h, jet.du, orientation)
    first = induced_metric(space, h, jet.du)
    det_first = check_causal_class(space, first)
    route = _surface_forms if space.dim == 3 else _hypersurface_forms
    second, third, fourth, mean, det_second, principal = route(
        space, h, jet.du, jet.duu, eta, first, det_first)
    gauss = space.curvature + space.normal_sign * (det_second / det_first)
    return FormBundle(space, eta, first, second, third, fourth, mean, gauss, principal)


def forms_at(chart: calculus.SurfaceChart, p) -> FormBundle:
    """Convenience wrapper: jet then forms, honoring the chart orientation."""
    jet = calculus.jet2_eval(chart, p)
    return fundamental_forms(jet, chart.ambient, chart.orientation_at(p))


@dataclass(frozen=True)
class ConformalityReport:
    """Outcome of testing proportionality of the fourth and second forms."""

    classification: str        # "conformal" | "not_conformal" |
    #                            "totally_geodesic_degenerate" | "umbilic_point"
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
    ii = [c for row in bundle.second for c in row]
    iv = [c for row in bundle.fourth for c in row]
    ii_sq = sum(c * c for c in ii)
    ii_norm = math.sqrt(ii_sq)
    if ii_norm <= TOTALLY_GEODESIC_TOL:
        return ConformalityReport(ConformalityReport.TOTALLY_GEODESIC, None, 0.0)
    rho = sum(a * b for a, b in zip(iv, ii)) / ii_sq
    gap = math.sqrt(sum((a - rho * b) ** 2 for a, b in zip(iv, ii)))
    residual = gap / max(math.sqrt(sum(c * c for c in iv)), ii_norm)
    if residual <= tol:
        return ConformalityReport(ConformalityReport.CONFORMAL, rho, residual)
    if bundle.principal_curvatures is not None:
        lam, mu = bundle.principal_curvatures
        if abs(lam - mu) <= UMBILIC_REL_TOL * (1.0 + abs(lam) + abs(mu)):
            return ConformalityReport(ConformalityReport.UMBILIC, None, residual)
    return ConformalityReport(ConformalityReport.NOT_CONFORMAL, None, residual)


def _frobenius(rows):
    return math.sqrt(sum(c * c for row in rows for c in row))


def obata_identity_residual(bundle: FormBundle) -> float:
    """Frobenius residual of IV = eta_last^2 I + s 2 eta_last II + III.

    The sign s is -1 in hyperbolic space, +1 for space-like surfaces in
    de Sitter space, -1 for time-like ones; uniformly s = -eps_N.
    """
    s = -bundle.space.normal_sign
    e = bundle.eta[-1]
    return _frobenius([[d - (e**2 * a + 2.0 * s * e * b + c)
                        for a, b, c, d in zip(*rows)]
                       for rows in zip(bundle.first, bundle.second,
                                       bundle.third, bundle.fourth)])


def _solve(a, b):
    """X with a X = b, by Gauss-Jordan elimination with partial pivoting."""
    k = len(a)
    rows = [[*ra, *rb] for ra, rb in zip(a, b)]
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r in range(k):
            if r != c:
                f = rows[r][c] / pivot[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    return [[x / row[i] for x in row[k:]] for i, row in enumerate(rows)]


def check_residuals(jet: calculus.Jet2, bundle: FormBundle) -> dict:
    """The residuals that ``check forms`` gates, by name.

    The coordinate normal N = h eta against the tangents and against its
    unit scalar square, both in the full metric matrix of
    ``ambient.metric_at_height``; III against II I^-1 II by a Gauss-Jordan
    solve; and the four-forms identity.  None of them reuses the pipeline's
    cofactors, adjugate inverse or matrix products, so each checks them.
    """
    space, h = bundle.space, jet.height
    metric = amb.metric_at_height(space, h)
    n = [e * h for e in bundle.eta]

    def row_metric(w):              # the row vector w^T g
        return [sum(c * g_row[b] for c, g_row in zip(w, metric)) for b in range(len(w))]

    tangents_g = [row_metric(t) for t in zip(*jet.du)]
    x = _solve(bundle.first, bundle.second)                 # I^-1 II
    predicted = [[sum(a * x[m][j] for m, a in enumerate(row)) for j in range(len(row))]
                 for row in bundle.second]
    return {
        "normal_orthogonality": max(abs(sum(map(mul, t, n))) for t in tangents_g),
        "normal_unit": abs(sum(map(mul, row_metric(n), n)) - space.normal_sign),
        "third_form_definition": _frobenius(
            [[t - p for t, p in zip(*rows)] for rows in zip(bundle.third, predicted)]),
        "obata": obata_identity_residual(bundle),
    }


def curvature_relation_residual(bundle: FormBundle) -> float:
    """|K - (c + eps_N eta_last^2)|, with the space's curvature c and normal
    sign eps_N: the curvature relation characterizing conformal normal Gauss
    maps away from umbilics, in all three causal cases."""
    space = bundle.space
    return abs(bundle.gauss_curvature
               - (space.curvature + space.normal_sign * bundle.eta[-1] ** 2))


def rho_formula_residual(bundle: FormBundle, rho: float) -> float:
    """|rho - 2(H + c eta_last)| with the space's curvature c: minus in
    hyperbolic space, plus for space-like de Sitter surfaces (the two cases
    the classification covers)."""
    return abs(rho - 2.0 * (bundle.mean_curvature
                            + bundle.space.curvature * bundle.eta[-1]))


def fourth_form_direct(chart: calculus.SurfaceChart, p) -> np.ndarray:
    """Fourth form by finite-differencing the normal over the parameter grid.

    Independent of the closed-form normal-derivative route and of the
    cofactor normal: the normal here is the SVD null vector of the
    orthogonality conditions.  Agreement to 1e-4 relative is a module
    invariant.
    """
    u, v = float(p[0]), float(p[1])
    h = FOURTH_FORM_STEP * max(1.0, abs(u), abs(v))

    import numpy as np

    def eta_at(uu, vv):
        jet = calculus.jet2_eval(chart, (uu, vv))
        g = np.array(amb.metric_at_height(chart.ambient, jet.height))
        n0 = np.linalg.svd(np.array(jet.du).T @ g)[2][-1]
        eta = n0 / (math.sqrt(abs(float(n0 @ g @ n0))) * jet.height)
        return orientation_sign(eta, chart.orientation_at((uu, vv))) * eta

    deta = np.stack([(eta_at(u + h, v) - eta_at(u - h, v)) / (2 * h),
                     (eta_at(u, v + h) - eta_at(u, v - h)) / (2 * h)], axis=1)
    eps = np.array(chart.ambient.signature, dtype=float)
    return np.einsum("a,ai,aj->ij", eps, deta, deta)


def intrinsic_gauss_curvature(chart: calculus.SurfaceChart, p) -> float:
    """Gauss curvature of the induced metric by the Brioschi formula.

    Metric samples come from exact jets; metric derivatives use central
    differences with step BRIOSCHI_STEP.  Space-like charts only.
    """
    import numpy as np

    if chart.ambient.causal_class is not amb.CausalClass.SPACE_LIKE:
        raise WrongCausalClass("intrinsic curvature path expects a space-like chart")
    u, v = float(p[0]), float(p[1])
    h = BRIOSCHI_STEP * max(1.0, abs(u), abs(v))

    def metric(uu, vv):
        jet = calculus.jet2_eval(chart, (uu, vv))
        g = np.array(amb.metric_at_height(chart.ambient, jet.height))
        du = np.array(jet.du)
        return du.T @ g @ du

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
