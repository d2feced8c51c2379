"""The three in-process workloads: forms-grid, polar-duality, weierstrass-solve.

Each workload builds its fixed problem set in ``setup`` and hands out one
pass of items at a time.  An item is a callable taking the tracer; it returns
normally when its outcome is the expected one and raises otherwise.  Every
call into gaussform goes through ``tr.call`` so a traced run sees it as a span.
"""

import math
from dataclasses import dataclass

import numpy as np

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform import duality, forms, gaussmaps, zoo
from gaussform import weierstrass as ws
from gaussform.errors import (EmptyOutput, OutsideDomain, QuadricViolation,
                              WrongCausalClass)

from checks import Incorrect, TOL, expect_error, within

CONFORMAL = forms.ConformalityReport.CONFORMAL
NOT_CONFORMAL = forms.ConformalityReport.NOT_CONFORMAL
_EXPECTED_CLASS = {
    zoo.CONFORMAL: CONFORMAL,
    zoo.GEODESIC: forms.ConformalityReport.TOTALLY_GEODESIC,
    zoo.CONTROL: NOT_CONFORMAL,
}


def _oriented(chart, p):
    orientation = chart.orientation
    if callable(orientation):
        orientation = orientation(float(p[0]), float(p[1]))
    return orientation


def _outside_point(chart, rng):
    """A point beyond one edge of the chart rectangle."""
    u0, u1, v0, v1 = chart.domain
    du, dv = u1 - u0, v1 - v0
    off = rng.uniform(0.05, 0.5)
    side = int(rng.integers(4))
    u = rng.uniform(u0, u1)
    v = rng.uniform(v0, v1)
    if side == 0:
        u = u1 + off * du
    elif side == 1:
        u = u0 - off * du
    elif side == 2:
        v = v1 + off * dv
    else:
        v = v0 - off * dv
    return np.array([u, v])


def _shuffled(items, rng):
    order = rng.permutation(len(items))
    return [items[k] for k in order]


# --------------------------------------------------------------------------
# forms-grid
# --------------------------------------------------------------------------

@dataclass
class FormsCase:
    label: str
    chart: object
    expected: str | None          # conformality class, None when not known
    expr: object = None           # height expression of a graph
    pde: str | None = None        # graph PDE the height satisfies
    inside_error: type | None = None   # classified error at interior points


# Zoo families: conformal ones in all three causal cases, the totally
# geodesic vertical plane, the umbilic horosphere and the nonconformal control.
FORMS_FAMILIES = [
    "translational-6.6", "ruled-6.7", "horosphere", "vertical-plane",
    "control-bowl", "corollary-6", "translational-6.3", "ruled-6.2-2",
    "translational-7.3-1-plus", "flaherty-plus",
]
# Free graphs, as `check forms --graph` builds them: (label, text, space,
# domain, expected class, PDE, classified error at interior points).
FREE_GRAPHS = [
    ("graph-small", "0.3*u-0.2*v+1.5", zoo.H3, (0.4, 1.4, 0.4, 1.4),
     CONFORMAL, zoo.PDE_H3, None),
    ("graph-large",
     "1.5+0.2*sin(u)*cosh(v)+0.1*exp(-u^2-v^2)*(u-v)^2/(1+0.5*u^2)"
     "+0.05*tanh(u*v)-0.03*log(2+cos(u+v))",
     zoo.H3, (-1.0, 1.0, -1.0, 1.0), None, None, None),
    # Gradient square above 1 declared space-like: wrong causal class.
    ("graph-wrong-class", "2*u+0.5*v+3", zoo.DS3, (-1.0, 1.0, -1.0, 1.0),
     None, None, WrongCausalClass),
]
INSIDE_PER_CASE = 16
OUTSIDE_PER_CASE = 2


def _forms_residuals(bundle, report, space_like):
    obata = forms.obata_identity_residual(bundle)
    if report.classification != CONFORMAL:
        return obata, None, None
    k_rel = forms.curvature_relation_residual(bundle)
    rho = forms.rho_formula_residual(bundle, report.rho) if space_like else None
    return obata, k_rel, rho


class FormsGrid:
    name = "forms-grid"

    def setup(self, tr):
        self.cases = []
        for key in FORMS_FAMILIES:
            fam = zoo.get_family(key)
            chart = tr.call("zoo.make_surface", zoo.make_surface, key)
            expr = None
            if fam.graph_pde is not None:
                expr = tr.call("zoo.family_graph_expr", zoo.family_graph_expr, key)
            self.cases.append(FormsCase(key, chart, _EXPECTED_CLASS[fam.conformal],
                                        expr, fam.graph_pde))
        for label, text, space, domain, expected, pde, error in FREE_GRAPHS:
            expr = tr.call("calculus.parse_graph_expr", calc.parse_graph_expr, text)
            chart = calc.SurfaceChart(domain, calc.GraphEvaluator(expr),
                                      zoo.space_for(space))
            self.cases.append(FormsCase(label, chart, expected, expr, pde, error))

    def items(self, rng):
        items = []
        for case in self.cases:
            # The oracles difference the chart, so their point keeps off the edge.
            p = case.chart.interior_points(1, rng, margin_frac=0.1)[0]
            items.append((case.label, self._inside(case, p, True)))
            for p in case.chart.interior_points(INSIDE_PER_CASE - 1, rng):
                items.append((case.label, self._inside(case, p, False)))
            for _ in range(OUTSIDE_PER_CASE):
                items.append((case.label, self._outside(case, _outside_point(case.chart, rng))))
        return _shuffled(items, rng)

    @staticmethod
    def _outside(case, p):
        def item(tr):
            expect_error(OutsideDomain, tr.call, "calculus.jet2_eval",
                         calc.jet2_eval, case.chart, p)
        return item

    @staticmethod
    def _inside(case, p, oracle):
        chart = case.chart
        space_like = chart.ambient.causal_class is amb.CausalClass.SPACE_LIKE

        def item(tr):
            jet = tr.call("calculus.jet2_eval", calc.jet2_eval, chart, p)
            orientation = _oriented(chart, p)
            if case.inside_error is not None:
                expect_error(case.inside_error, tr.call, "forms.fundamental_forms",
                             forms.fundamental_forms, jet, chart.ambient, orientation)
                return
            bundle = tr.call("forms.fundamental_forms", forms.fundamental_forms,
                             jet, chart.ambient, orientation)
            report = tr.call("forms.conformality_test", forms.conformality_test, bundle)
            obata, k_rel, rho = tr.call("forms.residuals", _forms_residuals,
                                        bundle, report, space_like)
            if space_like:
                gd = tr.call("gaussmaps.gauss_data", gaussmaps.gauss_data,
                             jet.x, bundle.eta, chart.ambient)
                if gaussmaps.is_infinity(gd.g) != (gd.far is None):
                    raise Incorrect("far map present exactly when g is finite")
            else:
                # The stereographic map is defined on the two space-like
                # normal quadrics only.
                expect_error(QuadricViolation, tr.call, "gaussmaps.gauss_data",
                             gaussmaps.gauss_data, jet.x, bundle.eta, chart.ambient)
            if case.expected is not None and report.classification != case.expected:
                raise Incorrect(f"class {report.classification}, expected {case.expected}")
            within("four-forms identity", obata, "obata")
            if case.expected == CONFORMAL:
                within("curvature relation", k_rel, "k_relation")
                if rho is not None:
                    within("rho formula", rho, "rho_formula")
            if case.pde is not None:
                res = tr.call("zoo.graph_pde_residual", zoo.graph_pde_residual,
                              case.expr, p, case.pde)
                within("graph PDE residual", abs(res), "graph_pde")
            if oracle:
                direct = tr.call("forms.fourth_form_direct", forms.fourth_form_direct,
                                 chart, p)
                scale = max(1.0, float(np.abs(bundle.fourth).max()))
                within("direct fourth form", float(np.abs(direct - bundle.fourth).max())
                       / scale, "fourth_form_direct")
                if space_like:
                    k = tr.call("forms.intrinsic_gauss_curvature",
                                forms.intrinsic_gauss_curvature, chart, p)
                    within("Brioschi curvature", abs(k - bundle.gauss_curvature),
                           "brioschi")
                else:
                    expect_error(WrongCausalClass, tr.call,
                                 "forms.intrinsic_gauss_curvature",
                                 forms.intrinsic_gauss_curvature, chart, p)
        return item


# --------------------------------------------------------------------------
# polar-duality
# --------------------------------------------------------------------------

@dataclass
class PolarCase:
    label: str
    chart: object
    dual: object
    k_branch: float
    dual_class: str               # expected class of the polar variety
    expr: object = None
    direction: str | None = None  # graph-level duality direction


# (family, graph duality direction or None)
POLAR_FAMILIES = [
    ("translational-6.6", None), ("ruled-6.7", None), ("ruled-6.8", None),
    ("ruled-7.4-3", None), ("ruled-7.4-4", None),
    ("translational-6.3", duality.DS3_TO_H3), ("corollary-6", duality.DS3_TO_H3),
    ("control-bowl", None),
]
# H3 graphs checked by graph-level duality only, as acceptance criterion 5 does.
GRAPH_ONLY = [("horosphere", duality.H3_TO_DS3),
              ("equidistant-plane", duality.H3_TO_DS3)]
POINTS_PER_CASE = 6
FIT_POINTS = 100


class PolarDuality:
    name = "polar-duality"

    def setup(self, tr):
        self.cases = []
        for key, direction in POLAR_FAMILIES:
            fam = zoo.get_family(key)
            chart = tr.call("zoo.make_surface", zoo.make_surface, key)
            dual = tr.call("duality.polar_chart", duality.polar_chart, chart)
            expr = None
            if direction is not None:
                expr = tr.call("zoo.family_graph_expr", zoo.family_graph_expr, key)
            k_branch = -1.0 if fam.space_tag == zoo.H3 else 1.0
            dual_class = CONFORMAL if fam.conformal == zoo.CONFORMAL else NOT_CONFORMAL
            self.cases.append(PolarCase(key, chart, dual, k_branch, dual_class,
                                        expr, direction))
        self.graph_only = []
        for key, direction in GRAPH_ONLY:
            chart = tr.call("zoo.make_surface", zoo.make_surface, key)
            expr = tr.call("zoo.family_graph_expr", zoo.family_graph_expr, key)
            self.graph_only.append((key, chart, expr, direction))

    def items(self, rng):
        items = []
        for case in self.cases:
            for p in case.chart.interior_points(POINTS_PER_CASE, rng, margin_frac=0.1):
                items.append((case.label, self._point(case, p)))
        for key, chart, expr, direction in self.graph_only:
            for p in chart.interior_points(POINTS_PER_CASE, rng, margin_frac=0.1):
                items.append((key, self._graph_point(expr, p, direction)))
        for source in duality.PAIRINGS:
            items.append((f"fit {source}",
                          self._fit(source, int(rng.integers(2**31)))))
        return _shuffled(items, rng)

    @staticmethod
    def _point(case, p):
        def item(tr):
            pp = tr.call("duality.polar_variety", duality.polar_variety, case.chart, p)
            dual_bundle = tr.call("duality.polar_forms", forms.forms_at, case.dual, p)
            second = tr.call("duality.polar_of_polar_minkowski",
                             duality.polar_of_polar_minkowski, case.chart, p)
            report = tr.call("forms.conformality_test", forms.conformality_test,
                             dual_bundle, TOL["dual_conformal"])
            if not pp.branch_flag and abs(pp.source_curvature - case.k_branch) >= 0.05:
                within("curvature transfer",
                       abs(dual_bundle.gauss_curvature - pp.dual_curvature), "transfer")
            if report.classification != case.dual_class:
                raise Incorrect(f"polar variety class {report.classification}, "
                                f"expected {case.dual_class}")
            lift = np.asarray(pp.source_minkowski.coords)
            within("double polarity", float(min(np.abs(second - lift).max(),
                                                np.abs(second + lift).max())),
                   "double_polarity")
            if case.direction is not None:
                res = tr.call("duality.graph_duality_residual",
                              duality.graph_duality_residual, case.expr, p,
                              case.direction)
                within("graph duality residual", abs(res), "graph_duality")
        return item

    @staticmethod
    def _graph_point(expr, p, direction):
        def item(tr):
            res = tr.call("duality.graph_duality_residual",
                          duality.graph_duality_residual, expr, p, direction)
            within("graph duality residual", abs(res), "graph_duality")
        return item

    @staticmethod
    def _fit(source, seed):
        def item(tr):
            _, fit = tr.call("duality.fit_family_pairing", duality.fit_family_pairing,
                             source, count=FIT_POINTS, seed=seed)
            within("isometry fit gap", fit.max_gap, "isometry_fit")
            within("fit angle offset", abs(abs(fit.theta) - math.pi / 2), "fit_angle")
        return item


# --------------------------------------------------------------------------
# weierstrass-solve
# --------------------------------------------------------------------------

DOMAIN = (1.5, 2.5, 0.1, 0.9)


@dataclass
class SolveCase:
    label: str
    n: int
    case: int
    g: object
    boundary: np.ndarray
    recover: bool = False
    empty: bool = False           # build is expected to end in EmptyOutput


class WeierstrassSolve:
    name = "weierstrass-solve"

    def setup(self, tr):
        self.cases = []
        for n in (33, 65, 129):
            g, exact = tr.call("weierstrass.radial_test_pair", ws.radial_test_pair,
                               DOMAIN, (n, n))
            self.cases.append(SolveCase(f"radial n{n}", n, ws.CASE_HOLOMORPHIC,
                                        g, exact.values, recover=n == 33))
        for n in (65, 129):
            g = tr.call("weierstrass.ComplexField.from_function",
                        ws.ComplexField.from_function, lambda z: np.conj(z) / 8.0,
                        DOMAIN, (n, n), ws.ROLE_NORMAL_MAP)
            boundary = tr.call("weierstrass.ComplexField.from_function",
                               ws.ComplexField.from_function, lambda z: z,
                               DOMAIN, (n, n))
            self.cases.append(SolveCase(f"conj(z)/8 n{n}", n, ws.CASE_ANTIHOLOMORPHIC,
                                        g, boundary.values, empty=True))
        self.kept = [0, 0]            # kept samples, samples screened
        self.masked = [0, 0]          # recovered nodes, interior nodes

    def items(self, rng):
        return _shuffled([(c.label, self._chain(c)) for c in self.cases], rng)

    def extra_metrics(self):
        return {"weierstrass.build_surface.kept_ratio": self.kept[0] / self.kept[1],
                "weierstrass.recovered_gauss_map.mask_ratio":
                    self.masked[0] / self.masked[1]}

    def _chain(self, c):
        def item(tr):
            solved = tr.call(f"weierstrass.solve_far_map.n{c.n}", ws.solve_far_map,
                             c.g, c.boundary, c.case)
            res = tr.call("weierstrass.compatibility_residual_field",
                          ws.compatibility_residual_field, c.g, solved, c.case)
            within("discrete residual", float(np.abs(res).max()), "discrete")
            self.kept[1] += (c.n - 2) ** 2
            if c.empty:
                expect_error(EmptyOutput, tr.call, "weierstrass.build_surface",
                             ws.build_surface, c.g, solved, c.case, im_tol=1e-2)
                return
            built = tr.call("weierstrass.build_surface", ws.build_surface,
                            c.g, solved, c.case, im_tol=1e-2)
            self.kept[0] += built.kept_count
            defect = tr.call("weierstrass.surface_identity_defect",
                             ws.surface_identity_defect, built)
            within("identity defect", defect, "identity")
            if c.recover:
                mask, g_rec, eta3 = tr.call("weierstrass.recovered_gauss_map",
                                            ws.recovered_gauss_map, built)
                self.masked[0] += int(mask.sum())
                self.masked[1] += mask.size
                within("recovered g", float(np.abs(g_rec[mask] - built.g_core[mask]).max()),
                       "recovery_33")
                within("recovered eta3",
                       float(np.abs(eta3[mask] - built.eta3_predicted[mask]).max()),
                       "recovery_33")
        return item
