"""Reference routes that the tests compare the package against.

None of these is reached by a command: each is the independent side of a
check.  The finite-difference evaluator checks exact jets, the Christoffel
symbols check the closed-form second fundamental form, and the inverse maps
check ``ambient.to_minkowski``, ``duality.minkowski_normal`` and
``gaussmaps.stereo_project`` by round trips; ``branch_sign`` reads back the
de Sitter branch that ``to_minkowski`` was asked for.  The k-parameter
forms route (``generic_fundamental_forms``, ``generic_frame_normal``) is the
package's forms pipeline as it was written for every k before the surface
case got closed forms; the closed forms must give its bits.  The sparse LU
route (``splu_solve_far_map``) is the far-map solve as it was written with
scipy; the package's iterative solve must give its field.  The case rules
as they were written with one branch per case (``branch_minkowski_coords``,
``branch_graph_dualize``) are the references of the one formula in the
curvature c and normal sign eps_N that replaced each.  The sign loop
(``all_sign_choices_fit``) fits every sign choice of a pairing and keeps the
best; a pairing fit that stops at the first choice to close must give its
bits.  The printer
(``unparse``) renders a tree back to text, for the parse round trip and the
sympy oracles; the package never prints a tree.  The tree walker
(``walk_jet``, with ``jet_call``, ``jet_pow`` and the order-three jet
``Jet3``) evaluates a tree's jets by one jet object per operation, as the
package did before it compiled its trees into kernels; a tree's kernel,
and a chart's, tree by tree in component order, must give its bits and
its errors.  The polar map as it ran on that jet class
(``jet_polar_chart_jet``, ``jet_polar_of_polar_minkowski`` and
``jet_graph_duality_residual``, on ``_Jet`` with ``jet_partials`` and
``first_order_jet``, the checks and sign choices written inline) is the
reference of the polar map's kernels.
"""

import math
from operator import mul

import numpy as np

from gaussform import ambient as amb
from gaussform import calculus, duality, gaussmaps, zoo
from gaussform import weierstrass as ws
from gaussform.calculus import Bin, Call, Const, Neg, Num, Var
from gaussform.errors import (CausalityViolation, ConstraintViolation, DomainError,
                              EquatorialNormal, EvaluationError, NonImmersed,
                              NonPositiveHeight, WrongCausalClass)
from gaussform.forms import FormBundle, orientation_sign


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


# --------------------------------------------------------------------------
# The k-parameter forms route: Laplace cofactors, comprehension products,
# Sylvester's criterion and the adjugate inverse, summed by ``sum``.
# --------------------------------------------------------------------------

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


def _check_causal_class(space, first):
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


def _oriented_normal(space, h, du, orientation):
    if not (float(h) > 0.0):
        raise NonPositiveHeight(f"height {float(h)} is not positive")
    eps = space.signature
    m = len(du)
    # Negations are written 0.0 - c, so a zero component stays +0.0 in reports.
    nd = [eps[a] * _det(du[:a] + du[a + 1:]) for a in range(m)]
    nd[1::2] = [0.0 - c for c in nd[1::2]]     # the cofactor signs
    nn = sum(eps[a] * nd[a] * nd[a] for a in range(m))
    nn_sign = math.copysign(1.0, float(nn))
    if float(nn) == 0.0:
        raise NonImmersed("tangent map is degenerate: the cofactor normal vanishes")
    if nn_sign != space.normal_sign:
        raise WrongCausalClass(f"normal has scalar square of sign {nn_sign:+.0f}, "
                               f"expected {space.normal_sign:+d}")
    root = calculus.jet_sqrt(space.normal_sign * nn)
    eta = [c / root for c in nd]
    if orientation_sign(eta, orientation) < 0.0:
        eta = [0.0 - c for c in eta]
    return eta


def _induced_metric(space, h, du):
    w = [e / h**2 for e in space.signature]     # the diagonal metric
    cols = list(zip(*du))                       # the tangent vectors x_i
    return [[_dot([wa * c for wa, c in zip(w, ci)], cj) for cj in cols] for ci in cols]


def generic_frame_normal(space, h, du, orientation):
    """``forms.frame_normal`` by the k-parameter route."""
    eta = _oriented_normal(space, h, du, orientation)
    _check_causal_class(space, _induced_metric(
        space, float(h), [[float(c) for c in row] for row in du]))
    return eta


def generic_fundamental_forms(jet, space, orientation=None):
    """``forms.fundamental_forms`` by the k-parameter route."""
    du, duu = jet.du, jet.duu
    h = jet.height
    k = len(du[0])
    eps, eps_n = space.signature, space.normal_sign
    eta = _oriented_normal(space, h, du, orientation)
    n = [h * c for c in eta]                    # the coordinate normal

    first = _induced_metric(space, h, du)
    det_first = _check_causal_class(space, first)

    h2 = h**2
    gn = [e / h2 * c for e, c in zip(eps, n)]
    eta_last = eta[-1]
    second = [[eps_n * (_dot(gn, [d[i][j] for d in duu]) + eta_last * first[i][j])
               for j in range(k)] for i in range(k)]

    first_inv = _inverse(first, det_first)
    shape_op = _matmul(first_inv, second)
    third = _matmul(second, shape_op)

    eta_du = [[(eta_last * d - eps_n * ds) / h for d, ds in zip(row, srow)]
              for row, srow in zip(du, _matmul(du, shape_op))]
    ecols = list(zip(*eta_du))
    fourth = [[_dot([e * c for e, c in zip(eps, ci)], cj) for cj in ecols]
              for ci in ecols]

    mean = sum(shape_op[i][i] for i in range(k)) / k
    curv_const = -1.0 if space.kind is amb.Kind.HYPERBOLIC else 1.0
    gauss = curv_const + eps_n * (_det(second) / det_first)

    principal = None
    if space.causal_class is amb.CausalClass.SPACE_LIKE and k == 2:
        (a, b), (c, d) = shape_op
        half = 0.5 * (a + d)
        disc = (0.5 * (a - d)) ** 2 + b * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            principal = (half - root, half + root)
        elif math.sqrt(-disc) < 1e-10 * (1.0 + math.sqrt(half * half - disc)):
            principal = (half, half)

    return FormBundle(space, eta, first, second, third, fourth, mean, gauss, principal)


def splu_solve_far_map(g: ws.ComplexField, boundary,
                       case: int = ws.CASE_HOLOMORPHIC) -> ws.ComplexField:
    """Dirichlet solve of the compatibility PDE for the far map G, by scipy.

    ``weierstrass.solve_far_map`` as it was before the package dropped
    scipy, kept as the independent side of the solver's pin test; a failed
    factorization raises scipy's RuntimeError.

    ``boundary`` is a callable z -> complex or a full-grid array whose
    boundary ring supplies the Dirichlet data.  The discretized equation is
    one complex linear system with one unknown per interior node, assembled
    from array slices of the 5-point stencil and factored by direct sparse LU
    with partial pivoting; the discrete residual of the returned field is at
    rounding level.
    """
    nu, nv = g.shape
    ws.check_grid(nu, nv)
    ws.validate_normal_field(g, case)
    from scipy import sparse
    from scipy.sparse.linalg import splu

    z = g.z_grid()
    if callable(boundary):
        bvals = np.asarray(boundary(z), dtype=complex)
        if bvals.shape != (nu, nv):
            bvals = np.broadcast_to(bvals, (nu, nv)).astype(complex)
    else:
        bvals = np.asarray(boundary, dtype=complex)
        if bvals.shape != (nu, nv):
            raise ValueError(f"boundary array must have shape {(nu, nv)}")

    a, b = ws._coefficients(g, case)
    du, dv = g.du, g.dv
    ni, nj = nu - 2, nv - 2
    n_int = ni * nj

    # Complex stencil coefficients; the first-order terms attach A to one
    # Wirtinger derivative and -B to the other depending on the case.
    with np.errstate(all="ignore"):
        cu = (a - b) / (4.0 * du)            # multiplies G[i+1] - G[i-1]
        cv = (-1j if case == ws.CASE_HOLOMORPHIC else 1j) * (a + b) / (4.0 * dv)
        lap_u = 1.0 / (4.0 * du * du)
        lap_v = 1.0 / (4.0 * dv * dv)
        east, west = lap_u + cu, lap_u - cu  # weights of G[i+1, j], G[i-1, j]
        north, south = lap_v + cv, lap_v - cv  # weights of G[i, j+1], G[i, j-1]
    if not all(np.isfinite(w).all() for w in (east, west, north, south)):
        raise ConstraintViolation("compatibility stencil has a non-finite "
                                  "coefficient: the normal-map field overflows")

    # Unknown (i - 1) * nj + (j - 1) is interior node (i, j).  Each stencil
    # diagonal couples a slice of the interior to its shifted neighbours;
    # neighbours on the boundary ring go to the right-hand side.
    index = np.arange(n_int).reshape(ni, nj)
    coupled = [
        (index, index, np.full((ni, nj), -2.0 * (lap_u + lap_v), dtype=complex)),
        (index[:-1, :], index[1:, :], east[:-1, :]),
        (index[1:, :], index[:-1, :], west[1:, :]),
        (index[:, :-1], index[:, 1:], north[:, :-1]),
        (index[:, 1:], index[:, :-1], south[:, 1:]),
    ]
    rows, cols, vals = (np.concatenate([part.ravel() for part in parts])
                        for parts in zip(*coupled))
    mat = sparse.csc_matrix((vals, (rows, cols)), shape=(n_int, n_int))

    rhs = np.zeros((ni, nj), dtype=complex)
    rhs[-1, :] -= east[-1, :] * bvals[-1, 1:-1]
    rhs[0, :] -= west[0, :] * bvals[0, 1:-1]
    rhs[:, -1] -= north[:, -1] * bvals[1:-1, -1]
    rhs[:, 0] -= south[:, 0] * bvals[1:-1, 0]

    # The 5-point pattern is structurally symmetric, so a minimum-degree
    # ordering of A^T + A fits it: L + U holds 0.65 M nonzeros at 129^2,
    # where COLAMD's column ordering fills 1.19 M.
    lu = splu(mat, permc_spec="MMD_AT_PLUS_A")
    interior = lu.solve(rhs.ravel())

    values = bvals.copy()
    values[1:-1, 1:-1] = interior.reshape(ni, nj)
    return ws.ComplexField(values, g.u0, g.v0, du, dv, ws.ROLE_FAR_MAP)


# --------------------------------------------------------------------------
# The case rules with one branch per case
# --------------------------------------------------------------------------

def branch_minkowski_coords(space: amb.AmbientSpace, x, sheet_sign=1) -> list:
    """``ambient.minkowski_coords`` with one branch per ``Kind``."""
    x1, x2, x3 = x
    q = x1 * x1 + x2 * x2
    if space.kind is amb.Kind.HYPERBOLIC:
        return [(q + x3 * x3 + 1.0) / (2.0 * x3), x1 / x3, x2 / x3,
                (q + x3 * x3 - 1.0) / (2.0 * x3)]
    s = 1.0 if sheet_sign >= 0 else -1.0
    return [s * (q - x3 * x3 + 1.0) / (2.0 * x3), x1 / x3, x2 / x3,
            s * (q - x3 * x3 - 1.0) / (2.0 * x3)]


def branch_graph_dualize(u, v, f, fu, fv, direction: str):
    """``duality.graph_dualize`` with one branch per direction string."""
    if float(f) <= 0.0:
        raise NonPositiveHeight(f"graph height {float(f)} is not positive")
    grad_sq = fu * fu + fv * fv
    if direction == duality.H3_TO_DS3:
        return -f * fu - u, -f * fv - v, f * calculus.jet_sqrt(1.0 + grad_sq)
    if direction == duality.DS3_TO_H3:
        if float(grad_sq) >= 1.0:
            raise CausalityViolation(
                f"gradient square {float(grad_sq):.6g} must be < 1 for this direction")
        return f * fu - u, f * fv - v, f * calculus.jet_sqrt(1.0 - grad_sq)
    if direction == duality.DS3_TIMELIKE:
        if float(grad_sq) <= 1.0:
            raise CausalityViolation(
                f"gradient square {float(grad_sq):.6g} must be > 1 for this direction")
        return f * fu - u, f * fv - v, f * calculus.jet_sqrt(grad_sq - 1.0)
    raise ValueError(f"unknown direction {direction!r}")


# --------------------------------------------------------------------------
# The sign loop of a pairing fit
# --------------------------------------------------------------------------

def all_sign_choices_fit(pts, builder, sign_choices, params):
    """The fit of every sign choice in table order, keeping the smallest
    max_gap (the first among equals): the loop ``fit_family_pairing`` ran
    before it ordered the choices by their start gap."""
    best = None
    for s1, s2 in sign_choices:
        fit = duality.fit_isometry(pts, builder(params, s1, s2),
                                   label=f"signs ({s1:+d}, {s2:+d})")
        if best is None or fit.max_gap < best.max_gap:
            best = fit
    return best


# --------------------------------------------------------------------------
# The printer
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, (Num, Var, Const, Call)):
        return _PREC_ATOM
    if isinstance(node, Neg):
        return _PREC_UNARY
    if isinstance(node, Bin):
        if node.op == "^":
            return _PREC_POW
        return _PREC_MUL if node.op in "*/" else _PREC_ADD
    raise TypeError(f"not an expression node: {node!r}")


def unparse(node) -> str:
    """Render a tree back to text; reparsing gives a structurally equal tree."""
    if isinstance(node, Num):
        return repr(node.value) if node.value >= 0 else f"({node.value!r})"
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({unparse(node.arg)})"
    if isinstance(node, Neg):
        inner = unparse(node.arg)
        if _prec(node.arg) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        lhs, rhs = unparse(node.left), unparse(node.right)
        if node.op == "^":
            if _prec(node.left) < _PREC_ATOM:
                lhs = f"({lhs})"
            if _prec(node.right) < _PREC_UNARY:
                rhs = f"({rhs})"
        elif node.op in "*/":
            if _prec(node.left) < _PREC_MUL:
                lhs = f"({lhs})"
            # both are left-associative: an equal-precedence right child needs parens
            if _prec(node.right) <= _PREC_MUL:
                rhs = f"({rhs})"
        else:
            if _prec(node.left) < _PREC_ADD:
                lhs = f"({lhs})"
            if _prec(node.right) <= _PREC_ADD:
                rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# The tree walker: jets of a tree by one jet object per operation
# --------------------------------------------------------------------------

class _Jet:
    """Value, gradient and Hessian with respect to (u, v), propagated forward.

    The six Taylor coefficients are plain scalars: the value ``val``, the
    gradient ``gu``, ``gv`` and the Hessian ``huu``, ``huv``, ``hvv``
    (Griewank and Walther, Evaluating Derivatives, ch. 13).  A float operand
    takes part as a constant without being lifted into a jet.  ``call``
    applies a function of the grammar, as a kernel operand's does.
    """

    __slots__ = ("val", "gu", "gv", "huu", "huv", "hvv")

    def __init__(self, val, gu=0.0, gv=0.0, huu=0.0, huv=0.0, hvv=0.0):
        self.val = val
        self.gu = gu
        self.gv = gv
        self.huu = huu
        self.huv = huv
        self.hvv = hvv

    def __float__(self):
        return float(self.val)

    def call(self, fn):
        return jet_call(fn, self)

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val + o.val, self.gu + o.gu, self.gv + o.gv,
                        self.huu + o.huu, self.huv + o.huv, self.hvv + o.hvv)
        return _Jet(self.val + o, self.gu, self.gv, self.huu, self.huv, self.hvv)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val - o.val, self.gu - o.gu, self.gv - o.gv,
                        self.huu - o.huu, self.huv - o.huv, self.hvv - o.hvv)
        return _Jet(self.val - o, self.gu, self.gv, self.huu, self.huv, self.hvv)

    def __rsub__(self, o):
        return _Jet(o - self.val, -self.gu, -self.gv, -self.huu, -self.huv, -self.hvv)

    def __neg__(self):
        return _Jet(-self.val, -self.gu, -self.gv, -self.huu, -self.huv, -self.hvv)

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.val * o, self.gu * o, self.gv * o,
                        self.huu * o, self.huv * o, self.hvv * o)
        a, b = self.val, o.val
        au, av, bu, bv = self.gu, self.gv, o.gu, o.gv
        cuu, cvv = au * bu, av * bv
        return _Jet(a * b, au * b + bu * a, av * b + bv * a,
                    self.huu * b + o.huu * a + cuu + cuu,
                    self.huv * b + o.huv * a + au * bv + av * bu,
                    self.hvv * b + o.hvv * a + cvv + cvv)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, _Jet):
            if o == 0.0:
                raise DomainError("division by zero")
            return self * (1.0 / o)
        return self * o._reciprocal()

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        if self.val == 0.0:
            raise DomainError("division by zero")
        inv = 1.0 / self.val
        inv3 = inv**3
        gu, gv = self.gu, self.gv
        return _Jet(inv, -gu * inv * inv, -gv * inv * inv,
                    -self.huu * inv * inv + 2.0 * (gu * gu) * inv3,
                    -self.huv * inv * inv + 2.0 * (gu * gv) * inv3,
                    -self.hvv * inv * inv + 2.0 * (gv * gv) * inv3)

    def chain(self, f0, f1, f2):
        """Compose with a scalar function given value/first/second derivative."""
        gu, gv = self.gu, self.gv
        return _Jet(f0, f1 * gu, f1 * gv,
                    f1 * self.huu + f2 * (gu * gu),
                    f1 * self.huv + f2 * (gu * gv),
                    f1 * self.hvv + f2 * (gv * gv))


def jet_partials(j):
    """Order-two jets of x, x_u and x_v from the ten coefficients of one
    order-three jet of x."""
    val, gu, gv, huu, huv, hvv, tuuu, tuuv, tuvv, tvvv = j
    return (_Jet(val, gu, gv, huu, huv, hvv), _Jet(gu, huu, huv, tuuu, tuuv, tuvv),
            _Jet(gv, huv, hvv, tuuv, tuvv, tvvv))


def first_order_jet(val, grad):
    """Jet with a zero Hessian: plain arithmetic on it gives exact first derivatives."""
    return _Jet(float(val), float(grad[0]), float(grad[1]))


def jet_tuples(jets):
    """(x, du, duu) of a list of component jets, as tuples of floats."""
    return (tuple([j.val for j in jets]),
            tuple([(j.gu, j.gv) for j in jets]),
            tuple([((j.huu, j.huv), (j.huv, j.hvv)) for j in jets]))


JET_SLOTS = ("val", "gu", "gv", "huu", "huv", "hvv", "tuuu", "tuuv", "tuvv", "tvvv")


def coefficients(jet):
    """The Taylor coefficients of an order-two or order-three jet object,
    in slot order."""
    return tuple(getattr(jet, slot) for slot in JET_SLOTS[:len(JET_SLOTS) if
                                                            isinstance(jet, Jet3) else 6])


class Jet3(_Jet):
    """Order-three jet: the six coefficients of ``_Jet`` by its own
    rules, and the third derivatives ``tuuu``, ``tuuv``, ``tuvv``, ``tvvv``."""

    __slots__ = ("tuuu", "tuuv", "tuvv", "tvvv")

    def __init__(self, val, gu=0.0, gv=0.0, huu=0.0, huv=0.0, hvv=0.0,
                 tuuu=0.0, tuuv=0.0, tuvv=0.0, tvvv=0.0):
        _Jet.__init__(self, val, gu, gv, huu, huv, hvv)
        self.tuuu, self.tuuv, self.tuvv, self.tvvv = tuuu, tuuv, tuvv, tvvv

    def _low(self, jet):
        return coefficients(jet)[:6]

    def __add__(self, o):
        low = self._low(_Jet.__add__(self, o))
        if isinstance(o, Jet3):
            return Jet3(*low, self.tuuu + o.tuuu, self.tuuv + o.tuuv,
                        self.tuvv + o.tuvv, self.tvvv + o.tvvv)
        return Jet3(*low, self.tuuu, self.tuuv, self.tuvv, self.tvvv)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(*[-c for c in coefficients(self)])

    # a - b and a + (-b) round identically.
    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        low = self._low(_Jet.__mul__(self, o))
        if not isinstance(o, Jet3):
            return Jet3(*low, self.tuuu * o, self.tuuv * o, self.tuvv * o, self.tvvv * o)
        a, au, av, auu, auv, avv, auuu, auuv, auvv, avvv = coefficients(self)
        b, bu, bv, buu, buv, bvv, buuu, buuv, buvv, bvvv = coefficients(o)
        return Jet3(*low, auuu * b + buuu * a + 3.0 * (auu * bu + au * buu),
                    auuv * b + buuv * a + auu * bv + av * buu + 2.0 * (auv * bu + au * buv),
                    auvv * b + buvv * a + avv * bu + au * bvv + 2.0 * (auv * bv + av * buv),
                    avvv * b + bvvv * a + 3.0 * (avv * bv + av * bvv))

    __rmul__ = __mul__

    def _reciprocal(self):
        low = self._low(_Jet._reciprocal(self))
        inv = low[0]
        inv3 = inv**3
        return Jet3(*low, *self._third(-inv * inv, 2.0 * inv3, -6.0 * inv3 * inv))

    def chain(self, f0, f1, f2, f3):
        return Jet3(*self._low(_Jet.chain(self, f0, f1, f2)),
                    *self._third(f1, f2, f3))

    def _third(self, f1, f2, f3):
        """Third derivatives of f(self) given f', f'', f''' (Faa di Bruno)."""
        _, gu, gv, huu, huv, hvv, tuuu, tuuv, tuvv, tvvv = coefficients(self)
        return (f1 * tuuu + f2 * (3.0 * gu * huu) + f3 * (gu * gu * gu),
                f1 * tuuv + f2 * (huu * gv + 2.0 * gu * huv) + f3 * (gu * gu * gv),
                f1 * tuvv + f2 * (hvv * gu + 2.0 * gv * huv) + f3 * (gu * gv * gv),
                f1 * tvvv + f2 * (3.0 * gv * hvv) + f3 * (gv * gv * gv))


def jet_call(fn, x):
    """A function of the grammar applied to a jet: its rule at x.val,
    composed by x.chain; order three adds f'''."""
    v = x.val
    f0, f1, f2 = calculus._rule(fn)(v)
    if type(x) is _Jet:
        return x.chain(f0, f1, f2)
    return x.chain(f0, f1, f2, calculus._THIRD_DERIVATIVES[fn](v, f0, f1, f2))


def jet_pow(x, o):
    """x ** o for a jet x and a float or jet o."""
    if isinstance(o, _Jet):
        if any(coefficients(o)[1:]):
            if x.val <= 0.0:
                raise DomainError("variable power of nonpositive base")
            return jet_call("exp", o * jet_call("log", x))
        o = o.val
    if not math.isfinite(o):
        raise DomainError("power with a non-finite exponent")
    v = x.val
    if o == round(o):
        n = int(round(o))
        if n == 0:
            return type(x)(1.0)
        if v == 0.0 and n < 0:
            raise DomainError("zero base with negative exponent")
        f0 = v ** n
        f1 = n * v ** (n - 1)
        f2 = n * (n - 1) * (v ** (n - 2) if n != 1 else 0.0)
    else:
        if v <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        f0 = v ** o
        f1, f2 = o * f0 / v, o * (o - 1.0) * f0 / (v * v)
    if type(x) is _Jet:
        return x.chain(f0, f1, f2)
    # f''' = (o - 2) f'' / v; v is 0 only for an integer o >= 1.
    return x.chain(f0, f1, f2, (o - 2.0) * f2 / v if v != 0.0
                   else (6.0 if o == 3 else 0.0))


def walk_jet(node, u, v, jet=_Jet):
    """Jet of a tree at (u, v), of the order of the jet class ``jet``, by a
    recursive walk that dispatches every node at every point.

    Constant subtrees stay floats and enter the jet rules as plain operands;
    a float is lifted into a jet only where a rule needs one of its own: the
    base of a power, the argument of a function, and an operation between
    two floats.
    """
    if type(u) is not float or type(v) is not float:
        u, v = float(u), float(v)
    ju, jv = jet(u, 1.0), jet(v, 0.0, 1.0)

    def rec(n):
        kind = type(n)
        if kind is Var:
            return ju if n.name == "u" else jv
        if kind is Num:
            return float(n.value)
        if kind is Bin:
            a, b, op = rec(n.left), rec(n.right), n.op
            if type(a) is not jet and (op == "^" or type(b) is not jet):
                a = jet(a)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
            if type(a) is not jet:
                return a.pow(b)         # a float: the AttributeError of an unknown op
            return jet_pow(a, b)
        if kind is Call:
            x = rec(n.arg)
            return jet_call(n.fn, x if type(x) is jet else jet(x))
        if kind is Neg:
            return -rec(n.arg)
        if kind is Const:
            if n.name == calculus.COMPLEX_UNIT:
                raise DomainError(f"constant {n.name!r} is complex; jets are real")
            return calculus.CONSTANTS[n.name]
        raise TypeError(f"not an expression node: {n!r}")

    out = rec(node)
    if type(out) is not jet:
        out = jet(out)
    if not all(map(math.isfinite, coefficients(out))):
        raise EvaluationError("expression jet produced a non-finite value")
    return out


# --------------------------------------------------------------------------
# The polar map on one jet object per operation
# --------------------------------------------------------------------------

def jet_checked_dual_point(space, x, eta):
    """``duality._checked_dual_point`` as it ran on ``_Jet``, with its checks
    and sign choices inline on float values and the lift with one branch
    per kind of space."""
    if abs(float(eta[2])) < duality.EQUATORIAL_TOL:
        raise EquatorialNormal("dual point would land on the degenerate set")
    X = branch_minkowski_coords(space, x)
    V = duality._normal_from_lift(X, eta)
    if space.normal_sign < 0 and float(V[0]) < 0.0:
        V = [-c for c in V]
    d = V[0] - V[3]
    d = math.copysign(1.0, float(d)) * d
    pos = [V[1] / d, V[2] / d, 1.0 / d]
    if not float(pos[2]) > 0.0:
        raise NonPositiveHeight("dual point left the upper half-space")
    return X, V, pos


def jet_polar_chart_jet(chart, u, v):
    """``duality.polar_chart(chart).evaluator.jet(u, v)`` by the polar map on
    order-two ``_Jet``s of x, x_u and x_v, with the k-parameter normal."""
    space = chart.ambient
    x, xu, xv = zip(*[jet_partials(calculus.third_order_jet(a, u, v))
                      for a in chart.evaluator.component_asts])
    calculus.check_chart_jet(space, u, v, *jet_tuples(x)[:2])
    eta = generic_frame_normal(space, x[-1], tuple(zip(xu, xv)), chart.orientation_at((u, v)))
    return jet_tuples(jet_checked_dual_point(space, x, eta)[2])


def jet_polar_of_polar_minkowski(chart, p):
    """``duality.polar_of_polar_minkowski`` by the polar map on first-order
    ``_Jet``s of x, x_u and x_v, with the k-parameter normal."""
    src = calculus.jet2_eval(chart, p)
    x = [first_order_jet(c, d) for c, d in zip(src.x, src.du)]
    xu, xv = ([first_order_jet(d[i], dd[i]) for d, dd in zip(src.du, src.duu)]
              for i in (0, 1))
    eta = generic_frame_normal(chart.ambient, x[-1], tuple(zip(xu, xv)),
                               chart.orientation_at(p))
    _, V, pos = jet_checked_dual_point(chart.ambient, x, eta)
    y, dy, _ = jet_tuples(pos)
    space = duality.dual_space(chart.ambient)
    calculus.check_chart_jet(space, float(p[0]), float(p[1]), y, dy)
    eta = generic_frame_normal(space, y[-1], dy, None)
    branch = -1 if float(V[0] - V[3]) < 0.0 else 1
    return duality.minkowski_normal(space, y, eta, branch)[1]


def jet_graph_duality_residual(expr, p, direction):
    """``duality.graph_duality_residual`` by the graph-level duality with
    one branch per direction, on ``_Jet``s of u, v, f, f_u and f_v."""
    u, v = float(p[0]), float(p[1])
    f, fu, fv = jet_partials(calculus.third_order_jet(expr.ast, u, v))
    pos, dpos, ddpos = (np.array(t) for t in jet_tuples(branch_graph_dualize(
        first_order_jet(u, (1.0, 0.0)), first_order_jet(v, (0.0, 1.0)), f, fu, fv, direction)))
    jac_inv = np.linalg.inv(dpos[:2])
    wgrad = jac_inv.T @ dpos[2]
    whess = jac_inv.T @ (ddpos[2] - wgrad[0] * ddpos[0] - wgrad[1] * ddpos[1]) @ jac_inv
    whess = 0.5 * (whess + whess.T)
    return zoo.pde_residual_values(float(pos[2]), wgrad[0], wgrad[1], whess[0, 0],
                                   whess[0, 1], whess[1, 1], duality.DIRECTIONS[direction][1])
