"""Registry of explicit surface families with exact jets.

Every family ships as a chart over a default rectangle chosen inside its
valid region (positive height, declared causal class, and away from the
curvature loci where the polar variety branches).  Graph families also
expose their height function so the graph PDE residuals can be evaluated
directly.

Family keys follow the project's fixed CLI contract (``zoo list`` prints
them); parameters are plain floats except for the curve/profile expressions
of the cylinder and Flaherty families, which are expression strings in v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ambient as amb
from . import calculus as calc
from .errors import (DomainConstraint, DomainError, EvaluationError,
                     ParamConstraint, UnknownFamily)

H3 = "h3"
DS3 = "ds3"
DS3_TIMELIKE = "ds3-timelike"

CONFORMAL = "conformal"            # paper lists the family as conformal
GEODESIC = "totally_geodesic"      # excluded case: classification must degenerate
CONTROL = "not_conformal"          # shipped as a negative control

_SPACES = {
    H3: amb.hyperbolic_space(),
    DS3: amb.de_sitter_space(),
    DS3_TIMELIKE: amb.de_sitter_space(causal_class=amb.CausalClass.TIME_LIKE),
}


def space_for(tag: str) -> amb.AmbientSpace:
    try:
        return _SPACES[tag]
    except KeyError:
        raise UnknownFamily(f"unknown space tag {tag!r}") from None


def _p(value) -> str:
    """Render a parameter as a parenthesized literal inside expression text."""
    return f"({float(value)!r})"


def _nonzero(params, *names):
    for name in names:
        if float(params[name]) == 0.0:
            raise ParamConstraint(f"parameter {name} must be nonzero")


def _positive(params, *names):
    for name in names:
        if float(params[name]) <= 0.0:
            raise ParamConstraint(f"parameter {name} must be positive")


@dataclass(frozen=True)
class Family:
    key: str
    description: str
    space_tag: str
    defaults: dict
    conformal: str                       # CONFORMAL / GEODESIC / CONTROL
    default_domain: object               # params -> (u0, u1, v0, v1)
    builder: object = None               # params -> (evaluator, orientation), None for graphs
    check_params: object = None          # params -> None, raises ParamConstraint
    domain_predicates: object = None     # params -> [(name, fn(u, v) -> bool)]
    graph_pde: str | None = None         # "6.1" or "6.2" when the family is a graph
    graph_text: object = None            # params -> height expression text
    polar_partner: str | None = None     # family paired with it under the polar map


_REGISTRY: dict = {}


def _register(fam: Family):
    _REGISTRY[fam.key] = fam
    return fam


def family_keys():
    return sorted(_REGISTRY)


def get_family(key: str) -> Family:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownFamily(f"unknown family {key!r}; see `zoo list`") from None


def resolve_params(fam: Family, params=None) -> dict:
    merged = dict(fam.defaults)
    for name, value in (params or {}).items():
        if name not in merged:
            raise ParamConstraint(
                f"family {fam.key!r} has no parameter {name!r} "
                f"(takes: {', '.join(sorted(merged)) or 'none'})")
        if isinstance(value, str) and not isinstance(merged[name], str):
            raise ParamConstraint(
                f"parameter {name!r} of family {fam.key!r} must be a number, "
                f"got {value!r}")
        merged[name] = value
    if fam.check_params is not None:
        fam.check_params(merged)
    return merged


def _scan_domain(fam: Family, params, domain, evaluator):
    """Coarse scan of the rectangle for height and region violations."""
    u0, u1, v0, v1 = domain
    if not (u0 < u1 and v0 < v1):
        raise DomainConstraint(f"empty rectangle {domain}")
    us = np.linspace(u0, u1, 9)
    vs = np.linspace(v0, v1, 9)
    preds = fam.domain_predicates(params) if fam.domain_predicates else []
    for u in us:
        for v in vs:
            for name, pred in preds:
                if not pred(float(u), float(v)):
                    raise DomainConstraint(
                        f"domain {domain} violates {name} at ({u:.3g}, {v:.3g})")
            try:
                x, _, _ = evaluator.jet(float(u), float(v))
            except (DomainError, EvaluationError) as exc:
                raise DomainConstraint(
                    f"family {fam.key!r} undefined at ({u:.3g}, {v:.3g}): {exc}"
                ) from None
            if not (x[-1] > 0.0):
                raise DomainConstraint(
                    f"height {x[-1]:.3g} not positive at ({u:.3g}, {v:.3g})")


def make_surface(key: str, params=None, domain=None) -> calc.SurfaceChart:
    """Instantiate a family as a chart with exact jets.

    Raises UnknownFamily, ParamConstraint (with the violated constraint
    named), or DomainConstraint when the rectangle leaves the valid region.
    """
    fam = get_family(key)
    merged = resolve_params(fam, params)
    if fam.builder is None:
        evaluator = calc.GraphEvaluator(calc.parse_graph_expr(fam.graph_text(merged)))
        orientation = None
    else:
        evaluator, orientation = fam.builder(merged)
    rect = tuple(float(t) for t in (domain or fam.default_domain(merged)))
    _scan_domain(fam, merged, rect, evaluator)
    return calc.SurfaceChart(rect, evaluator, space_for(fam.space_tag), orientation)


def family_graph_expr(key: str, params=None) -> calc.GraphExpr:
    """Height function f(u, v) of a graph family."""
    fam = get_family(key)
    if fam.graph_text is None:
        raise UnknownFamily(f"family {key!r} is not a graph")
    merged = resolve_params(fam, params)
    return calc.parse_graph_expr(fam.graph_text(merged))


# --------------------------------------------------------------------------
# Graph PDE residuals
# --------------------------------------------------------------------------

PDE_H3 = "6.1"
PDE_DS3 = "6.2"


def pde_residual_values(f, fu, fv, fuu, fuv, fvv, which: str) -> float:
    """Residual of the conformal-normal-map graph PDE from raw jet values."""
    det = fuu * fvv - fuv * fuv
    if which == PDE_H3:
        return f * det + (1.0 + fv * fv) * fuu - 2.0 * fu * fv * fuv + (1.0 + fu * fu) * fvv
    if which == PDE_DS3:
        return f * det - ((1.0 - fv * fv) * fuu + 2.0 * fu * fv * fuv + (1.0 - fu * fu) * fvv)
    raise ValueError(f"unknown equation {which!r} (use {PDE_H3!r} or {PDE_DS3!r})")


def graph_pde_residual(f: calc.GraphExpr, p, which: str) -> float:
    """Residual of equation 6.1 or 6.2 for the graph of f at p, exact jets."""
    val, grad, hess = f.jet(float(p[0]), float(p[1]))
    return float(pde_residual_values(val, grad[0], grad[1],
                                     hess[0, 0], hess[0, 1], hess[1, 1], which))


def gradient_square(f: calc.GraphExpr, p) -> float:
    """f_u^2 + f_v^2 at p; the causal regime indicator for equation 6.2."""
    _, grad, _ = f.jet(float(p[0]), float(p[1]))
    return float(grad @ grad)


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------

def _parametric_builder(texts_fn, orientation_fn=None):
    def build(params):
        comps = tuple(calc.parse_graph_expr(t) for t in texts_fn(params))
        orientation = orientation_fn(params) if orientation_fn else None
        return calc.ClosedFormEvaluator(components=comps), orientation
    return build


def _expr_derivative_scan(text, lo, hi, what):
    """Check an expression of v has nonvanishing derivative over [lo, hi]."""
    expr = calc.parse_graph_expr(text)
    for v in np.linspace(lo, hi, 33):
        _, grad, _ = expr.jet(0.0, float(v))
        if abs(grad[1]) < 1e-12:
            raise ParamConstraint(f"{what} must have nonvanishing derivative "
                                  f"(fails near v = {v:.3g})")


_PI = math.pi


# -- hyperbolic space --------------------------------------------------------

_register(Family(
    key="horosphere",
    description="flat horizontal slice (totally umbilic, flat)",
    space_tag=H3,
    defaults={"c": 1.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (-2.0, 2.0, -2.0, 2.0),
    check_params=lambda p: _positive(p, "c"),
    graph_pde=PDE_H3,
    graph_text=lambda p: _p(p["c"]),
))

_register(Family(
    key="vertical-plane",
    description="vertical coordinate plane (totally geodesic)",
    space_tag=H3,
    defaults={},
    conformal=GEODESIC,
    builder=_parametric_builder(lambda p: ("u", "0", "v"),
                                orientation_fn=lambda p: np.array([0.0, 1.0, 0.0])),
    default_domain=lambda p: (-2.0, 2.0, 0.3, 3.0),
))

_register(Family(
    key="equidistant-plane",
    description="tilted plane through the ideal boundary (umbilic, K = -1/2)",
    space_tag=H3,
    defaults={},
    conformal=CONFORMAL,
    default_domain=lambda p: (0.3, 3.0, -2.0, 2.0),
    graph_pde=PDE_H3,
    graph_text=lambda p: "u",
))

# The branch loci of the polar map sit on u, v in {0, pi}; the default domain
# keeps off them.
_register(Family(
    key="translational-6.6",
    description="translational surface with circular profiles",
    space_tag=H3,
    defaults={"a": 1.0, "b": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        f"{_p(p['a'])}*cos(u)",
        f"{_p(p['b'])}*cos(v)",
        f"{_p(p['a'])}*sin(u)+{_p(p['b'])}*sin(v)",
    )),
    default_domain=lambda p: (0.15, _PI - 0.15, 0.15, _PI - 0.15),
    check_params=lambda p: _nonzero(p, "a", "b"),
    polar_partner="translational-6.4",
))

_register(Family(
    key="ruled-6.7",
    description="ruled surface over a circular directrix",
    space_tag=H3,
    defaults={"c": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        "u*cos(v)",
        f"{_p(p['c'])}*sin(v)",
        "u*sin(v)",
    )),
    default_domain=lambda p: (0.2, 2.0, _PI / 2 + 0.15, _PI - 0.15),
    check_params=lambda p: _nonzero(p, "c"),
    polar_partner="ruled-6.2-2",
))

_register(Family(
    key="ruled-6.8",
    description="ruled surface with shifted circular directrix",
    space_tag=H3,
    defaults={"c1": 1.0, "c2": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        f"-{_p(p['c2'])}*sin(v)+u*cos(v)",
        f"{_p(p['c1'])}*sin(v)",
        f"{_p(p['c2'])}*cos(v)+u*sin(v)",
    )),
    default_domain=lambda p: (0.2, 2.0, 0.15, _PI / 2 - 0.15),
    check_params=lambda p: _nonzero(p, "c1", "c2"),
    polar_partner="ruled-6.2-3",
))

_register(Family(
    key="control-bowl",
    description="paraboloid-like bowl on a small disk (nonconformal control)",
    space_tag=H3,
    defaults={},
    conformal=CONTROL,
    default_domain=lambda p: (-0.3, 0.3, -0.3, 0.3),
    graph_text=lambda p: "1+u^2+v^2",
))

# -- de Sitter space, space-like families ------------------------------------

_register(Family(
    key="ds-horosphere",
    description="flat horizontal slice of de Sitter space (totally umbilic)",
    space_tag=DS3,
    defaults={"c": 1.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (-2.0, 2.0, -2.0, 2.0),
    check_params=lambda p: _positive(p, "c"),
    graph_pde=PDE_DS3,
    graph_text=lambda p: _p(p["c"]),
))

def _check_plane_spacelike(p):
    if p["p"] ** 2 + p["q"] ** 2 >= 1.0:
        raise ParamConstraint("gradient must satisfy p^2 + q^2 < 1")


def _check_plane_timelike(p):
    if p["p"] ** 2 + p["q"] ** 2 <= 1.0:
        raise ParamConstraint("gradient must satisfy p^2 + q^2 > 1")


_register(Family(
    key="spacelike-plane",
    description="tilted Euclidean plane in the space-like gradient regime",
    space_tag=DS3,
    defaults={"p": 0.5, "q": 0.0, "r": 2.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (-1.0, 1.0, -1.0, 1.0),
    check_params=_check_plane_spacelike,
    graph_pde=PDE_DS3,
    graph_text=lambda p: f"{_p(p['p'])}*u+{_p(p['q'])}*v+{_p(p['r'])}",
))


def _gradient_predicate(text_fn, want_spacelike):
    """Domain predicate checking the gradient regime of a graph family."""
    def preds(params):
        expr = calc.parse_graph_expr(text_fn(params))

        def ok(u, v):
            try:
                _, grad, _ = expr.jet(u, v)
            except (DomainError, EvaluationError):
                return False
            sq = float(grad @ grad)
            return sq < 1.0 if want_spacelike else sq > 1.0

        regime = "< 1 (space-like)" if want_spacelike else "> 1 (time-like)"
        return [(f"gradient square {regime}", ok)]
    return preds


def _check_63(params):
    _nonzero(params, "a", "b")


def _dom_63(params):
    a, b = abs(params["a"]), abs(params["b"])
    return [("|u v| < |a b| (space-like regime)",
             lambda u, v: abs(u * v) < a * b)]


_register(Family(
    key="translational-6.3",
    description="space-like translational graph, plus branch",
    space_tag=DS3,
    defaults={"a": 1.0, "b": 1.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (-0.7, 0.7, -0.7, 0.7),
    check_params=_check_63,
    domain_predicates=_dom_63,
    graph_pde=PDE_DS3,
    graph_text=lambda p: f"sqrt({_p(p['a'])}^2+u^2)+sqrt({_p(p['b'])}^2+v^2)",
))

_register(Family(
    key="translational-6.3-minus",
    description="space-like translational graph, minus branch",
    space_tag=DS3,
    defaults={"a": 1.0, "b": 1.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (1.2, 2.0, 0.1, 0.4),
    check_params=_check_63,
    domain_predicates=_dom_63,
    graph_pde=PDE_DS3,
    graph_text=lambda p: f"sqrt({_p(p['a'])}^2+u^2)-sqrt({_p(p['b'])}^2+v^2)",
))

_register(Family(
    key="translational-6.4",
    description="space-like translational surface, hyperbolic profiles",
    space_tag=DS3,
    defaults={"a": 1.0, "b": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        f"{_p(p['a'])}*sinh(u)",
        f"{_p(p['b'])}*sinh(v)",
        f"{_p(p['a'])}*cosh(u)+{_p(p['b'])}*cosh(v)",
    )),
    default_domain=lambda p: (-0.8, 0.8, -0.8, 0.8),
    check_params=lambda p: _nonzero(p, "a", "b"),
    domain_predicates=lambda p: [
        ("|sinh u sinh v| < 1 (space-like regime)",
         lambda u, v: abs(math.sinh(u) * math.sinh(v)) < 1.0)],
))

# Space-like on u < |c| cosh v; sampling outside is allowed but forms are not.
_register(Family(
    key="ruled-6.2-2",
    description="space-like ruled surface, hyperbolic directrix",
    space_tag=DS3,
    defaults={"c": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        "u*cosh(v)",
        f"{_p(p['c'])}*sinh(v)",
        "u*sinh(v)",
    )),
    default_domain=lambda p: (0.2, min(0.9, 0.9 * abs(p["c"])), 0.1, 1.5),
    check_params=lambda p: _nonzero(p, "c"),
))

_register(Family(
    key="ruled-6.2-3",
    description="space-like ruled surface, shifted hyperbolic directrix",
    space_tag=DS3,
    defaults={"c1": 1.0, "c2": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        f"{_p(p['c2'])}*sinh(v)+u*cosh(v)",
        f"{_p(p['c1'])}*sinh(v)",
        f"{_p(p['c2'])}*cosh(v)+u*sinh(v)",
    )),
    default_domain=lambda p: (0.2, min(0.9, 0.9 * abs(p["c1"])), 0.1, 1.5),
    check_params=lambda p: _nonzero(p, "c1", "c2"),
))

def _corollary6_text(sign):
    def text(p):
        return f"{sign}({_p(p['c1'])}*{_p(p['c2'])}+u*v)/sqrt({_p(p['c1'])}^2+v^2)"
    return text


_register(Family(
    key="corollary-6",
    description="graph form of the space-like ruled surfaces, plus branch",
    space_tag=DS3,
    defaults={"c1": 1.0, "c2": 2.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (0.1, 0.8, 0.1, 0.8),
    check_params=lambda p: _nonzero(p, "c1"),
    domain_predicates=_gradient_predicate(_corollary6_text(""), True),
    graph_pde=PDE_DS3,
    graph_text=_corollary6_text(""),
))

_register(Family(
    key="corollary-6-minus",
    description="graph form of the space-like ruled surfaces, minus branch",
    space_tag=DS3,
    defaults={"c1": 1.0, "c2": -2.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (0.05, 0.3, 0.05, 0.3),
    check_params=lambda p: _nonzero(p, "c1"),
    domain_predicates=_gradient_predicate(_corollary6_text("-"), True),
    graph_pde=PDE_DS3,
    graph_text=_corollary6_text("-"),
))

# -- de Sitter space, time-like families --------------------------------------

_register(Family(
    key="timelike-plane",
    description="tilted Euclidean plane in the time-like gradient regime",
    space_tag=DS3_TIMELIKE,
    defaults={"p": 2.0, "q": 0.0, "r": 3.0},
    conformal=CONFORMAL,
    default_domain=lambda p: (-0.5, 1.0, -1.0, 1.0),
    check_params=_check_plane_timelike,
    graph_pde=PDE_DS3,
    graph_text=lambda p: f"{_p(p['p'])}*u+{_p(p['q'])}*v+{_p(p['r'])}",
))


def _translational_73(key, text_fn, domain, description):
    _register(Family(
        key=key,
        description=description,
        space_tag=DS3_TIMELIKE,
        defaults={"a": 1.0, "b": 1.0},
        conformal=CONFORMAL,
        default_domain=lambda p: domain,
        check_params=lambda p: _nonzero(p, "a", "b"),
        graph_pde=PDE_DS3,
        graph_text=text_fn,
    ))


_translational_73(
    "translational-7.3-1-plus",
    lambda p: f"sqrt(u^2+{_p(p['a'])}^2)+sqrt(v^2+{_p(p['b'])}^2)",
    (1.5, 3.0, 1.5, 3.0),
    "time-like translational graph (plus branch, round profiles)")
_translational_73(
    "translational-7.3-1-minus",
    lambda p: f"sqrt(u^2+{_p(p['a'])}^2)-sqrt(v^2+{_p(p['b'])}^2)",
    (3.0, 4.0, 1.2, 1.5),
    "time-like translational graph (minus branch, round profiles)")
_translational_73(
    "translational-7.3-2-plus",
    lambda p: f"sqrt(u^2-{_p(p['a'])}^2)+sqrt(v^2-{_p(p['b'])}^2)",
    (1.5, 3.0, 1.5, 3.0),
    "time-like translational graph (plus branch, both profiles hyperbolic)")
_translational_73(
    "translational-7.3-2-minus",
    lambda p: f"sqrt(u^2-{_p(p['a'])}^2)-sqrt(v^2-{_p(p['b'])}^2)",
    (2.5, 3.5, 1.5, 2.0),
    "time-like translational graph (minus branch, both profiles hyperbolic)")
_translational_73(
    "translational-7.3-3-plus",
    lambda p: f"sqrt(u^2+{_p(p['a'])}^2)+sqrt(v^2-{_p(p['b'])}^2)",
    (0.5, 2.0, 1.5, 3.0),
    "time-like translational graph (plus branch, mixed profiles)")
_translational_73(
    "translational-7.3-3-minus",
    lambda p: f"sqrt(u^2+{_p(p['a'])}^2)-sqrt(v^2-{_p(p['b'])}^2)",
    (1.5, 3.0, 1.5, 2.0),
    "time-like translational graph (minus branch, mixed profiles)")
_translational_73(
    "translational-7.3-4",
    lambda p: f"sqrt(u^2-{_p(p['a'])}^2)-sqrt(v^2+{_p(p['b'])}^2)",
    (2.0, 3.0, 0.5, 1.0),
    "time-like translational graph (printed minus branch only)")


def _flaherty(key, sign_text, domain):
    def text(p):
        return f"{sign_text}u+({p['psi']})"

    def check(p):
        _expr_derivative_scan(str(p["psi"]), domain[2] - 0.2, domain[3] + 0.2,
                              "profile psi")

    _register(Family(
        key=key,
        description="time-like graph linear in u with a free profile in v",
        space_tag=DS3_TIMELIKE,
        defaults={"psi": "v"},
        conformal=CONFORMAL,
        default_domain=lambda p: domain,
        check_params=check,
        graph_pde=PDE_DS3,
        graph_text=text,
    ))


_flaherty("flaherty-plus", "", (1.0, 2.0, 0.3, 1.2))
_flaherty("flaherty-minus", "-", (0.5, 1.0, 3.0, 4.0))

_register(Family(
    key="ruled-7.4-3",
    description="time-like region of the hyperbolic-directrix ruled surface",
    space_tag=DS3_TIMELIKE,
    defaults={"c": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        "u*cosh(v)",
        f"{_p(p['c'])}*sinh(v)",
        "u*sinh(v)",
    )),
    default_domain=lambda p: (max(2.5, 2.0 * abs(p["c"])), 4.0, 0.1, 1.2),
    check_params=lambda p: _nonzero(p, "c"),
    domain_predicates=lambda p: [
        ("u > |c| cosh v (time-like regime)",
         lambda u, v: u > abs(p["c"]) * math.cosh(v))],
    polar_partner="ruled-7.4-5",
))

_register(Family(
    key="ruled-7.4-4",
    description="time-like region of the shifted hyperbolic-directrix ruled surface",
    space_tag=DS3_TIMELIKE,
    defaults={"c1": 1.0, "c2": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        f"{_p(p['c2'])}*sinh(v)+u*cosh(v)",
        f"{_p(p['c1'])}*sinh(v)",
        f"{_p(p['c2'])}*cosh(v)+u*sinh(v)",
    )),
    default_domain=lambda p: (max(2.5, 2.0 * abs(p["c1"])), 4.0, 0.1, 1.2),
    check_params=lambda p: _nonzero(p, "c1", "c2"),
    domain_predicates=lambda p: [
        ("u > |c1| cosh v (time-like regime)",
         lambda u, v: u > abs(p["c1"]) * math.cosh(v))],
    polar_partner="ruled-7.4-6",
))

_register(Family(
    key="ruled-7.4-5",
    description="time-like ruled surface with swapped hyperbolic profile",
    space_tag=DS3_TIMELIKE,
    defaults={"c": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        "u*sinh(v)",
        f"{_p(p['c'])}*cosh(v)",
        "u*cosh(v)",
    )),
    default_domain=lambda p: (0.2, 2.0, 0.1, 1.5),
    check_params=lambda p: _nonzero(p, "c"),
    polar_partner="ruled-7.4-3",
))

_register(Family(
    key="ruled-7.4-6",
    description="time-like ruled surface, shifted swapped hyperbolic profile",
    space_tag=DS3_TIMELIKE,
    defaults={"c1": 1.0, "c2": 1.0},
    conformal=CONFORMAL,
    builder=_parametric_builder(lambda p: (
        f"{_p(p['c2'])}*cosh(v)+u*sinh(v)",
        f"{_p(p['c1'])}*cosh(v)",
        f"{_p(p['c2'])}*sinh(v)+u*cosh(v)",
    )),
    default_domain=lambda p: (0.2, 2.0, 0.1, 1.5),
    check_params=lambda p: _nonzero(p, "c1", "c2"),
    polar_partner="ruled-7.4-4",
))


def _cylinder_orientation(params):
    a1 = calc.parse_graph_expr(str(params["alpha1"]))
    a2 = calc.parse_graph_expr(str(params["alpha2"]))

    def reference(u, v):
        _, g1, _ = a1.jet(0.0, v)
        _, g2, _ = a2.jet(0.0, v)
        return np.array([g2[1], -g1[1], 0.0])

    return reference


def _cylinder_check(params):
    a = [calc.parse_graph_expr(str(params[k])) for k in ("alpha1", "alpha2", "alpha3")]
    for v in np.linspace(0.0, 3.2, 33):
        d = [expr.jet(0.0, float(v))[1][1] for expr in a]
        if d[0]**2 + d[1]**2 - d[2]**2 <= 0.0:
            raise ParamConstraint(
                f"directrix must be space-like (fails near v = {v:.3g})")


# The normal is horizontal (eta_3 = 0 identically), so the orientation comes
# from a reference vector built on the directrix.
_register(Family(
    key="cylinder-7.4-2",
    description="generalized cylinder over a space-like directrix, vertical rulings",
    space_tag=DS3_TIMELIKE,
    defaults={"alpha1": "cos(v)", "alpha2": "sin(v)", "alpha3": "0"},
    conformal=CONFORMAL,
    builder=lambda p: (
        calc.ClosedFormEvaluator(components=(
            calc.parse_graph_expr(f"({p['alpha1']})"),
            calc.parse_graph_expr(f"({p['alpha2']})"),
            calc.parse_graph_expr(f"({p['alpha3']})+u"),
        )),
        _cylinder_orientation(p)),
    default_domain=lambda p: (0.5, 2.0, 0.1, 3.0),
    check_params=_cylinder_check,
))

_register(Family(
    key="corollary-7-plus",
    description="graph form of the swapped ruled surfaces, plus branch",
    space_tag=DS3_TIMELIKE,
    defaults={"c1": 1.0, "c2": 0.5},
    conformal=CONFORMAL,
    default_domain=lambda p: (0.05, 0.2, 1.5, 2.0),
    check_params=lambda p: _nonzero(p, "c1"),
    graph_pde=PDE_DS3,
    graph_text=lambda p: f"({_p(p['c1'])}*{_p(p['c2'])}-u*v)/sqrt(v^2-{_p(p['c1'])}^2)",
))

_register(Family(
    key="corollary-7-minus",
    description="graph form of the swapped ruled surfaces, minus branch",
    space_tag=DS3_TIMELIKE,
    defaults={"c1": 1.0, "c2": 0.5},
    conformal=CONFORMAL,
    default_domain=lambda p: (1.0, 2.0, 1.5, 2.0),
    check_params=lambda p: _nonzero(p, "c1"),
    graph_pde=PDE_DS3,
    graph_text=lambda p: f"-({_p(p['c1'])}*{_p(p['c2'])}-u*v)/sqrt(v^2-{_p(p['c1'])}^2)",
))
