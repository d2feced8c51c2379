import dataclasses
import math

import numpy as np
import pytest

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform import duality, forms, zoo
from gaussform.errors import (BranchPoint, CausalityViolation, DomainError, EquatorialNormal,
                              GaussformError, HeightViolation, NonImmersed,
                              NonPositiveHeight, OrientationUndefined, OutsideDomain,
                              WrongCausalClass)
from oracles import (NumericEvaluator, all_sign_choices_fit, branch_graph_dualize,
                     first_order_jet, jet_graph_duality_residual, jet_partials,
                     jet_polar_chart_jet, jet_polar_of_polar_minkowski, unparse)
from test_ambient import ieee_bits

H3 = amb.hyperbolic_space()
DS3 = amb.de_sitter_space()
DS3_TL = amb.de_sitter_space(causal_class=amb.CausalClass.TIME_LIKE)

CONFORMAL_PAIR_SOURCES = ["translational-6.6", "ruled-6.7", "ruled-6.8",
                          "translational-6.4", "ruled-6.2-2", "ruled-6.2-3",
                          "ruled-7.4-3", "ruled-7.4-4", "ruled-7.4-5",
                          "ruled-7.4-6"]
# The graph families of criterion 5, each with its direction of duality.
GRAPH_DUALITY_CASES = [
    ("horosphere", duality.H3_TO_DS3),
    ("equidistant-plane", duality.H3_TO_DS3),
    ("translational-6.3", duality.DS3_TO_H3),
    ("translational-6.3-minus", duality.DS3_TO_H3),
    ("corollary-6", duality.DS3_TO_H3),
    ("translational-7.3-1-plus", duality.DS3_TIMELIKE),
    ("translational-7.3-2-plus", duality.DS3_TIMELIKE),
    ("corollary-7-plus", duality.DS3_TIMELIKE),
    ("flaherty-plus", duality.DS3_TIMELIKE),
]


class TestCurvatureTransfer:
    def test_flat_to_flat(self):
        assert duality.curvature_transfer(0.0, H3) == 0.0

    def test_de_sitter_to_hyperbolic(self):
        assert duality.curvature_transfer(3.0, DS3) == -1.5

    def test_branch_points(self):
        with pytest.raises(BranchPoint):
            duality.curvature_transfer(-1.0, H3)
        with pytest.raises(BranchPoint):
            duality.curvature_transfer(1.0, DS3)
        with pytest.raises(BranchPoint):
            duality.curvature_transfer(1.0, DS3_TL)

    def test_timelike_transfer_stays_above_one(self):
        # Conformal time-like surfaces have K = 1 + eta3^2 >= 1; the dual is
        # conformal too, so its curvature must also stay >= 1.
        for k in (1.2, 2.0, 5.0):
            assert duality.curvature_transfer(k, DS3_TL) > 1.0

    # The paper's three transfer laws, each with its branch guard and the
    # branch curvature its message names.
    LAWS = {
        "h3": (H3, lambda k: abs(k + 1.0) < 1e-12, lambda k: k / (k + 1.0), "-1"),
        "ds3": (DS3, lambda k: abs(k - 1.0) < 1e-12, lambda k: k / (1.0 - k), "1"),
        "ds3-timelike": (DS3_TL, lambda k: abs(k - 1.0) < 1e-12,
                         lambda k: k / (k - 1.0), "1"),
    }

    @pytest.mark.parametrize("case", sorted(LAWS))
    def test_one_rule_has_the_bits_of_each_law(self, case):
        space, branched, law, name = self.LAWS[case]
        c = space.curvature
        near = [c + d for d in (1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12)]
        near += [math.nextafter(c + 1e-12, math.inf), math.nextafter(c - 1e-12, -math.inf)]
        ks = [0.0, -0.0, c, 1e300, -1e300, math.inf, -math.inf, 5e-324, *near,
              *np.linspace(-7.0, 7.0, 2001).tolist(),
              *np.geomspace(1e-8, 1e8, 301).tolist(),
              *(-np.geomspace(1e-8, 1e8, 301)).tolist()]
        for k in ks:
            if branched(k):
                with pytest.raises(BranchPoint) as info:
                    duality.curvature_transfer(k, space)
                assert str(info.value) == f"dual curvature undefined where K = {name}"
            else:
                assert duality.curvature_transfer(k, space).hex() == law(k).hex(), k


class TestPolarVariety:
    def test_horosphere_closed_form(self):
        chart = zoo.make_surface("horosphere")
        pp = duality.polar_variety(chart, (0.4, -0.3))
        assert np.allclose(pp.position.coords, (-0.4, 0.3, 1.0))
        assert pp.source_curvature == pytest.approx(0.0)
        assert pp.dual_curvature == pytest.approx(0.0)
        assert pp.volume_ratio == pytest.approx(1.0)
        assert not pp.branch_flag

    def test_equatorial_normal_rejected(self):
        chart = zoo.make_surface("cylinder-7.4-2")
        with pytest.raises(EquatorialNormal):
            duality.polar_variety(chart, (1.0, 1.0))

    def test_eta3_relation(self, rng):
        # eta_3 = (N0 - N3)/(X3 - X0) between source lift and dual point.
        for key in ["translational-6.6", "translational-6.4", "ruled-7.4-5"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(10, rng):
                eta = forms.forms_at(chart, p).eta
                X, V = duality.minkowski_normal(chart.ambient,
                                                calc.jet2_eval(chart, p).x, eta)
                ratio = (V[0] - V[3]) / (X[3] - X[0])
                assert abs(ratio - eta[2]) <= 1e-10

    def test_lift_orthogonality_against_fd(self, rng):
        # The lifted normal must be unit and orthogonal to finite-difference
        # tangents of the lifted surface: an independent check of the frame
        # formulas.
        def lorentz(a, b):
            return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]

        for key in ["translational-6.6", "translational-6.4", "ruled-7.4-3"]:
            chart = zoo.make_surface(key)
            space = chart.ambient

            def lift(u, v, chart=chart, space=space):
                x = calc.jet2_eval(chart, (u, v)).x
                return amb.to_minkowski(space, amb.HalfSpacePoint(tuple(x))).array()

            for p in chart.interior_points(5, rng, margin_frac=0.1):
                jet = calc.jet2_eval(chart, p)
                bundle = forms.forms_at(chart, p)
                X, V = duality.minkowski_normal(space, jet.x, bundle.eta)
                h = 1e-6
                tu = (lift(p[0] + h, p[1]) - lift(p[0] - h, p[1])) / (2 * h)
                tv = (lift(p[0], p[1] + h) - lift(p[0], p[1] - h)) / (2 * h)
                # the lifted normal has the scalar square of the surface normal
                assert abs(lorentz(V, V) - space.normal_sign) <= 1e-9
                assert abs(lorentz(X, V)) <= 1e-9
                assert abs(lorentz(V, tu)) <= 1e-6
                assert abs(lorentz(V, tv)) <= 1e-6

    def test_branch_flag_on_circular_family(self):
        # The circular translational surface hits the branch curvature along
        # the avoided loci; approaching one flags the point.
        chart = zoo.make_surface("translational-6.6",
                                 domain=(0.0005, math.pi - 0.15, 0.15, math.pi - 0.15))
        pp = duality.polar_variety(chart, (0.001, 1.2))
        assert pp.branch_flag
        assert pp.dual_curvature is None

    def test_volume_ratio_is_eta3_squared_when_conformal(self, rng):
        for key in ["translational-6.6", "translational-6.4", "ruled-7.4-5"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(10, rng):
                pp = duality.polar_variety(chart, p)
                eta3 = forms.forms_at(chart, p).eta[2]
                assert pp.volume_ratio == pytest.approx(eta3**2, abs=1e-8)


# Families whose every point has an equatorial normal (eta_3 = 0), so no
# polar point exists.
EQUATORIAL_FAMILIES = ("cylinder-7.4-2", "vertical-plane")


class TestPolarChartPaths:
    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_exact_chart_matches_finite_differences(self, key, rng):
        # The exact dual jets against central differences of polar positions.
        # The second differences carry a truncation error of up to about
        # 4e-5 of the scale (translational-6.6), hence the looser duu bound.
        chart = zoo.make_surface(key)
        exact = duality.polar_chart(chart)
        numeric = calc.SurfaceChart(chart.domain, NumericEvaluator(
            lambda u, v: duality.polar_position(chart, (u, v)).coords),
            duality.dual_space(chart.ambient))
        for p in chart.interior_points(4, rng, margin_frac=0.1):
            if key in EQUATORIAL_FAMILIES:
                for dual in (exact, numeric):
                    with pytest.raises(EquatorialNormal):
                        calc.jet2_eval(dual, p)
                continue
            a, b = calc.jet2_eval(exact, p), calc.jet2_eval(numeric, p)
            for want, got, bound in ((np.array(a.du), np.array(b.du), 1e-5),
                                     (np.array(a.duu), np.array(b.duu), 1e-4)):
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(want - got).max() <= bound * scale

    @pytest.mark.parametrize("key", ["translational-6.6", "ruled-7.4-3"])
    def test_orientation_override_reaches_polar_chart(self, key, rng):
        chart = zoo.make_surface(key)
        flipped = dataclasses.replace(chart, orientation=-1)
        dual = duality.polar_chart(flipped)
        for p in chart.interior_points(4, rng, margin_frac=0.1):
            pos = np.array(duality.polar_variety(flipped, p).position.coords)
            assert np.abs(pos - calc.jet2_eval(dual, p).x).max() <= 1e-12
            unflipped = duality.polar_variety(chart, p).position.coords
            assert np.abs(pos - unflipped).max() > 1e-3

    def test_reference_orthogonal_to_normal(self):
        chart = zoo.make_surface("translational-6.6")
        p = (1.0, 1.2)
        eta = forms.forms_at(chart, p).eta
        tied = dataclasses.replace(chart, orientation=np.array([eta[1], -eta[0], 0.0]))
        with pytest.raises(OrientationUndefined):
            forms.forms_at(tied, p)
        with pytest.raises(OrientationUndefined):
            calc.jet2_eval(duality.polar_chart(tied), p)


class TestTransferLaw:
    @pytest.mark.parametrize("key", CONFORMAL_PAIR_SOURCES)
    def test_measured_dual_curvature(self, key, rng):
        k_branch = -1.0 if zoo.get_family(key).space_tag == zoo.H3 else 1.0
        chart = zoo.make_surface(key)
        dual = duality.polar_chart(chart)
        for p in chart.interior_points(10, rng, margin_frac=0.1):
            pp = duality.polar_variety(chart, p)
            if pp.branch_flag:
                continue
            measured = forms.forms_at(dual, p).gauss_curvature
            err = abs(measured - pp.dual_curvature)
            # relative agreement everywhere; absolute only away from the
            # branch locus, where the transfer law stops amplifying
            assert err <= 1e-8 * max(1.0, abs(pp.dual_curvature))
            if abs(pp.source_curvature - k_branch) >= 0.05:
                assert err <= 1e-8

    def test_double_polarity(self, rng):
        for key in ["translational-6.6", "ruled-6.7", "ruled-6.8",
                    "translational-6.4", "ruled-6.2-2", "ruled-7.4-3",
                    "ruled-7.4-5"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(8, rng, margin_frac=0.1):
                jet = calc.jet2_eval(chart, p)
                X = amb.to_minkowski(chart.ambient,
                                     amb.HalfSpacePoint(tuple(jet.x))).array()
                V2 = duality.polar_of_polar_minkowski(chart, p)
                err = min(np.abs(V2 - X).max(), np.abs(V2 + X).max())
                assert err <= 1e-8, key


def _sympy_polar_jet(chart, p):
    """Polar position with its first and second derivatives, by sympy.diff.

    An independent construction: the dual point is the centre and radius of
    the totally geodesic plane tangent to the surface, a hemisphere (or
    hyperboloid) orthogonal to the boundary through x with normal N, the
    signature-weighted cross product of x_u and x_v.  Its centre is
    x - (x3 / N3) N and its radius x3 sqrt(|<N, N>|) / |N3|; this is
    graph_dualize for graphs.  The orientation sign of the two horizontal
    coordinates is left open.  Rows: the three coordinates; columns: value,
    d/du, d/dv, d2/du2, d2/dudv, d2/dv2.
    """
    import sympy as sp

    u, v = sp.symbols("u v", real=True)
    x = [sp.sympify(unparse(a).replace("^", "**"),
                    locals={"u": u, "v": v, "e": sp.E, "pi": sp.pi, "abs": sp.Abs})
         for a in chart.evaluator.component_asts]
    at = {u: sp.Float(p[0], 30), v: sp.Float(p[1], 30)}
    eps = chart.ambient.signature
    xu, xv = [sp.diff(c, u) for c in x], [sp.diff(c, v) for c in x]
    n = [eps[0] * (xu[1] * xv[2] - xu[2] * xv[1]),
         eps[1] * (xu[2] * xv[0] - xu[0] * xv[2]),
         eps[2] * (xu[0] * xv[1] - xu[1] * xv[0])]
    nn = sum(e * c * c for e, c in zip(eps, n))
    nn_sign = 1 if sp.N(nn.subs(at)) > 0 else -1
    n3_sign = 1 if sp.N(n[2].subs(at)) > 0 else -1
    pos = [x[0] - x[2] * n[0] / n[2], x[1] - x[2] * n[1] / n[2],
           x[2] * sp.sqrt(nn_sign * nn) / (n3_sign * n[2])]
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return np.array([[float(sp.N(sp.diff(c, u, a, v, b).subs(at), 30))
                      for a, b in orders] for c in pos])


def _raised(fn, *args):
    try:
        fn(*args)
    except GaussformError as exc:
        return type(exc)
    return None


class TestExactDualJets:
    @pytest.mark.parametrize("key", ["translational-6.6", "corollary-6"])
    def test_polar_chart_jet_matches_sympy(self, key, rng):
        chart = zoo.make_surface(key)
        dual = duality.polar_chart(chart)
        for p in chart.interior_points(3, rng, margin_frac=0.1):
            jet = calc.jet2_eval(dual, p)
            du, duu = np.array(jet.du), np.array(jet.duu)
            got = np.column_stack([jet.x, du[:, 0], du[:, 1], duu[:, 0, 0],
                                   duu[:, 0, 1], duu[:, 1, 1]])
            want = _sympy_polar_jet(chart, p)
            if np.abs(got[:2, 0] + want[:2, 0]).max() < np.abs(got[:2, 0] - want[:2, 0]).max():
                want[:2] *= -1
            assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("key", ["translational-6.3", "corollary-6"])
    def test_graph_duality_residual_at_rounding_level(self, key, rng):
        # Exact second derivatives of the dual graph: far inside the 1e-6
        # gate of criterion 5, which finite differences needed.
        f = zoo.family_graph_expr(key)
        chart = zoo.make_surface(key)
        for p in chart.interior_points(30, rng, margin_frac=0.1):
            assert abs(duality.graph_duality_residual(f, p, duality.DS3_TO_H3)) <= 1e-12

    def test_polar_of_polar_takes_the_polar_variety_branch(self, rng):
        for key in ["translational-6.6", "ruled-6.7", "ruled-6.8",
                    "translational-6.4", "ruled-6.2-2", "ruled-7.4-3",
                    "ruled-7.4-5"]:
            chart = zoo.make_surface(key)
            dual = duality.polar_chart(chart)
            for p in chart.interior_points(8, rng, margin_frac=0.1):
                jet = calc.jet2_eval(dual, p)
                eta = forms.fundamental_forms(jet, dual.ambient).eta
                _, V = duality.minkowski_normal(chart.ambient, calc.jet2_eval(chart, p).x,
                                                forms.forms_at(chart, p).eta)
                branch = -1 if V[0] - V[3] < 0.0 else 1
                _, want = duality.minkowski_normal(dual.ambient, jet.x, eta, branch)
                assert np.array_equal(duality.polar_of_polar_minkowski(chart, p), want), key


class TestPolarPosition:
    @pytest.mark.parametrize("key", ["translational-6.6", "ruled-6.7", "ruled-6.8",
                                     "ruled-7.4-3", "corollary-6", "control-bowl"])
    def test_bitwise_polar_variety_position(self, key, rng):
        chart = zoo.make_surface(key)
        for p in chart.interior_points(20, rng, margin_frac=0.1):
            got = duality.polar_position(chart, p).coords
            want = duality.polar_variety(chart, p).position.coords
            assert list(map(float.hex, got)) == list(map(float.hex, want))

    @pytest.mark.parametrize("chart,p,error", [
        (zoo.make_surface("cylinder-7.4-2"), (1.0, 1.0), EquatorialNormal),
        (zoo.make_surface("translational-6.6"), (-5.0, 1.0), OutsideDomain),
        (calc.SurfaceChart((-1.0, 1.0, -1.0, 1.0), calc.GraphEvaluator(
            calc.parse_graph_expr("2*u+0.5*v+3")), DS3), (0.2, 0.3), WrongCausalClass),
        (calc.SurfaceChart((-1.0, 1.0, -1.0, 1.0), calc.ClosedFormEvaluator(
            [calc.parse_graph_expr(t) for t in ("u", "u", "2")]), H3), (0.2, 0.3),
         NonImmersed),
        (dataclasses.replace(zoo.make_surface("translational-6.6"),
                             orientation=np.array([0.0, 0.0, 0.0])), (1.0, 1.2),
         OrientationUndefined),
        (calc.SurfaceChart((-1.0, 1.0, -1.0, 1.0), calc.GraphEvaluator(
            calc.parse_graph_expr("0.5*u-1")), H3), (0.2, 0.3), HeightViolation),
        (calc.SurfaceChart((-1.0, 1.0, -1.0, 1.0), calc.GraphEvaluator(
            calc.parse_graph_expr("0.5*u-1")), DS3), (0.2, 0.3), HeightViolation),
    ], ids=["equator", "outside", "wrong-class", "degenerate", "orientation-tie",
            "negative-height-h3", "negative-height-ds3"])
    def test_same_errors_as_polar_variety(self, chart, p, error):
        assert _raised(duality.polar_variety, chart, p) is error
        assert _raised(duality.polar_position, chart, p) is error
        assert _raised(calc.jet2_eval, duality.polar_chart(chart), p) is error
        assert _raised(duality.polar_of_polar_minkowski, chart, p) is error


def _cloud_outcome(build):
    """The (N, 3) bytes of a cloud, or the class and message it raises."""
    try:
        return build().tobytes()
    except (GaussformError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _scalar_cloud(chart, pts):
    return np.array([duality.polar_position(chart, p).coords for p in pts])


GRAM_EDGE = "10000.372-100*u+0.7*v*v"     # a metric determinant near 1e-12


def _graph_chart(text, space=H3):
    return calc.SurfaceChart((-1.0, 1.0, -1.0, 1.0),
                             calc.GraphEvaluator(calc.parse_graph_expr(text)), space)


class TestPolarPositions:
    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_bitwise_polar_position(self, key):
        chart = zoo.make_surface(key)
        for seed in (0, 1, 2):
            pts = chart.interior_points(40, np.random.default_rng(seed), margin_frac=0.1)
            want = _cloud_outcome(lambda: _scalar_cloud(chart, pts))
            assert _cloud_outcome(lambda: duality.polar_positions(chart, pts)) == want

    @pytest.mark.parametrize("chart,bad,error", [
        (zoo.make_surface("translational-6.6"), (-5.0, 1.0), OutsideDomain),
        (_graph_chart("u"), (-0.5, 0.2), HeightViolation),
        (_graph_chart("sqrt(u)+1"), (-0.5, 0.2), DomainError),
        (_graph_chart("sqrt(u)+1"), (0.0, 0.2), DomainError),
        (_graph_chart("log(u)+3"), (-0.5, 0.2), DomainError),
        (_graph_chart("abs(u)+1"), (0.0, 0.2), DomainError),
        (_graph_chart("2*u+0.5*v+3", DS3), (0.2, 0.3), WrongCausalClass),
        # Where the metric's determinant crosses GRAM_DET_TOL, the chart's
        # Gram determinant and the induced metric's round to either side.
        (_graph_chart(GRAM_EDGE), (0.0028875931768288865, -0.8909547738693467),
         NonImmersed),
        (_graph_chart(GRAM_EDGE), (0.0029216276246825145, -0.9), NonImmersed),
    ], ids=["outside", "height", "sqrt-negative", "sqrt-zero", "log-negative",
            "abs-zero", "causal-class", "chart-gram-edge", "metric-edge"])
    def test_first_failing_point_raises_its_error(self, chart, bad, error):
        u0, u1, v0, v1 = chart.domain
        good = [(u0 + (u1 - u0) * s, v0 + (v1 - v0) * t)
                for s, t in ((0.8, 0.3), (0.6, 0.7), (0.9, 0.5))]
        for pts in ([*good, bad, *good], [bad, *good], good[:1] + [bad, bad]):
            want = _cloud_outcome(lambda: _scalar_cloud(chart, pts))
            if error is not WrongCausalClass:      # that chart fails everywhere
                assert want[0] is error
            assert _cloud_outcome(lambda: duality.polar_positions(chart, pts)) == want
        good_cloud = _cloud_outcome(lambda: duality.polar_positions(chart, good))
        assert good_cloud == _cloud_outcome(lambda: _scalar_cloud(chart, good))

    def test_first_point_in_order_decides_the_error(self):
        height, outside, log_negative = (-0.5, 0.5), (2.0, 0.5), (-0.5, 0.5)
        # A kernel error at any point sends the cloud through the float path
        # in order: an unknown function fails at every point, log(u) at one.
        unknown = calc.SurfaceChart((-1.0, 1.0, -1.0, 1.0), calc.GraphEvaluator(calc.GraphExpr(
            calc.Bin("+", calc.Call("foo", calc.Var("u")), calc.Num(2.0)))), H3)
        for chart, pts, error in (
                (_graph_chart("u"), [(0.5, 0.5), height, outside], HeightViolation),
                (_graph_chart("u"), [(0.5, 0.5), outside, height], OutsideDomain),
                (unknown, [outside, (0.5, 0.5)], OutsideDomain),
                (_graph_chart("log(u)+3"), [(0.5, 0.5), outside, log_negative], OutsideDomain),
                (_graph_chart("log(u)+3"), [(0.5, 0.5), log_negative, outside], DomainError)):
            got = _cloud_outcome(lambda: duality.polar_positions(chart, pts))
            assert got == _cloud_outcome(lambda: _scalar_cloud(chart, pts))
            assert got[0] is error


class TestFitPin:
    @pytest.mark.parametrize("source", sorted(duality.PAIRINGS))
    @pytest.mark.parametrize("seed", [0, 5, 17, 2024])
    def test_fit_has_the_bits_of_the_scalar_cloud(self, source, seed):
        # The scalar cloud, one polar_position per point, and the sign loop
        # of fit_family_pairing, written out as the oracle.
        builder, sign_choices = duality.PAIRINGS[source]
        fam = zoo.get_family(source)
        chart = zoo.make_surface(source)
        params = zoo.resolve_params(fam, None)
        rng = np.random.default_rng(seed)
        pts = np.array([duality.polar_position(chart, p).coords
                        for p in chart.interior_points(100, rng, margin_frac=0.1)])
        best = all_sign_choices_fit(pts, builder, sign_choices, params)
        target, got = duality.fit_family_pairing(source, count=100, seed=seed)
        assert target == fam.polar_partner
        assert got.label == best.label
        assert [float.hex(getattr(got, f)) for f in ("theta", "a", "b", "max_gap")] == \
            [float.hex(getattr(best, f)) for f in ("theta", "a", "b", "max_gap")]


def _fit_bits(fit):
    return [fit.label] + [float.hex(getattr(fit, f)) for f in ("theta", "a", "b", "max_gap")]


def _fit_cloud(source, seed):
    """The polar cloud fit_family_pairing draws for the default parameters."""
    chart = zoo.make_surface(source)
    rng = np.random.default_rng(seed)
    return duality.polar_positions(chart, chart.interior_points(100, rng, margin_frac=0.1))


def _count_fits(monkeypatch):
    calls = []
    fit_isometry = duality.fit_isometry

    def counted(*args, **kwargs):
        calls.append(kwargs.get("label"))
        return fit_isometry(*args, **kwargs)
    monkeypatch.setattr(duality, "fit_isometry", counted)
    return calls


class TestFitOrder:
    """The pairing fit against the sign loop that fits every choice."""

    @pytest.mark.parametrize("source", sorted(duality.PAIRINGS))
    def test_benchmark_style_seeds_have_the_loops_bits(self, source):
        builder, sign_choices = duality.PAIRINGS[source]
        params = zoo.resolve_params(zoo.get_family(source), None)
        rng = np.random.default_rng(2024)
        for seed in [int(rng.integers(2**31)) for _ in range(100)]:
            best = all_sign_choices_fit(_fit_cloud(source, seed), builder, sign_choices,
                                        params)
            _, got = duality.fit_family_pairing(source, count=100, seed=seed)
            assert _fit_bits(got) == _fit_bits(best), seed

    def test_a_closing_choice_ends_the_fit(self, monkeypatch):
        calls = _count_fits(monkeypatch)
        _, fit = duality.fit_family_pairing("ruled-6.8", count=100, seed=5)
        assert calls == [fit.label]

    def test_no_choice_closes_takes_the_smallest(self, monkeypatch):
        source = "ruled-6.8"
        builder, sign_choices = duality.PAIRINGS[source]
        params = zoo.resolve_params(zoo.get_family(source), None)
        pts = _fit_cloud(source, 5).copy()
        pts[:, 2] += 1e-6 * np.sin(np.arange(len(pts)))
        monkeypatch.setattr(duality, "polar_positions", lambda chart, points: pts)
        best = all_sign_choices_fit(pts, builder, sign_choices, params)
        calls = _count_fits(monkeypatch)
        _, got = duality.fit_family_pairing(source, count=100, seed=5)
        assert len(calls) == len(sign_choices)
        assert got.max_gap > duality.FIT_CLOSED * (1.0 + np.abs(pts[:, 2]).max())
        assert _fit_bits(got) == _fit_bits(best)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_one_non_finite_start_raises_before_any_fit(self, monkeypatch, bad):
        builder, sign_choices = duality.PAIRINGS["ruled-6.7"]

        def height(params, s1, s2):
            if (s1, s2) == sign_choices[bad]:
                return lambda q1, q2: np.full(np.shape(q1), np.nan)
            return builder(params, s1, s2)
        monkeypatch.setitem(duality.PAIRINGS, "ruled-6.7", (height, sign_choices))
        calls = _count_fits(monkeypatch)
        with pytest.raises(ValueError, match="no rotation angle produced a finite fit"):
            duality.fit_family_pairing("ruled-6.7", count=100, seed=5)
        assert calls == []


class TestFitSeeds:
    @pytest.mark.parametrize("source", sorted(duality.PAIRINGS))
    def test_benchmark_style_seeds_fit(self, source):
        # Seeds drawn as the polar-duality benchmark draws one per fit.
        rng = np.random.default_rng(2024)
        for seed in [int(rng.integers(2**31)) for _ in range(100)]:
            _, fit = duality.fit_family_pairing(source, count=100, seed=seed)
            assert fit.max_gap <= 1e-6, seed
            assert fit.theta == math.pi / 2


class TestConformalityEquivalence:
    @pytest.mark.parametrize("key", CONFORMAL_PAIR_SOURCES)
    def test_conformal_source_conformal_dual(self, key, rng):
        chart = zoo.make_surface(key)
        dual = duality.polar_chart(chart)
        for p in chart.interior_points(10, rng, margin_frac=0.1):
            src = forms.conformality_test(forms.forms_at(chart, p))
            dst = forms.conformality_test(forms.forms_at(dual, p), tol=1e-6)
            assert src.classification == forms.ConformalityReport.CONFORMAL
            assert dst.classification == forms.ConformalityReport.CONFORMAL

    def test_nonconformal_source_nonconformal_dual(self, rng):
        chart = zoo.make_surface("control-bowl")
        dual = duality.polar_chart(chart)
        seen = 0
        for p in chart.interior_points(20, rng, margin_frac=0.1):
            src = forms.conformality_test(forms.forms_at(chart, p))
            if src.classification != forms.ConformalityReport.NOT_CONFORMAL:
                continue
            dst = forms.conformality_test(forms.forms_at(dual, p), tol=1e-6)
            assert dst.classification == forms.ConformalityReport.NOT_CONFORMAL
            seen += 1
        assert seen >= 10


class TestFamilyPairings:
    @pytest.mark.parametrize("source,target", [
        ("translational-6.6", "translational-6.4"),
        ("ruled-6.7", "ruled-6.2-2"),
        ("ruled-6.8", "ruled-6.2-3"),
    ])
    def test_pairing_fit(self, source, target):
        got_target, fit = duality.fit_family_pairing(source, count=100, seed=5)
        assert got_target == target
        assert abs(abs(fit.theta) - math.pi / 2) <= 1e-12
        assert fit.max_gap <= 1e-6

    def test_pairing_with_other_parameters(self):
        _, fit = duality.fit_family_pairing("translational-6.6",
                                            {"a": 1.5, "b": 0.7}, count=60)
        assert fit.max_gap <= 1e-6

    def test_unknown_pairing(self):
        with pytest.raises(ValueError):
            duality.fit_family_pairing("horosphere")


class TestIsometrySolver:
    # Sign choice of each pairing under which its partner passes through the
    # polar points exactly, so the optimum is the start point (0, 0).
    EXACT_SIGNS = {"translational-6.6": (1, 1), "ruled-6.7": (1, 1),
                   "ruled-6.8": (-1, 1)}
    SHIFT = (0.3, -0.2)

    @staticmethod
    def cloud(source):
        chart = zoo.make_surface(source)
        rng = np.random.default_rng(5)
        return np.array([duality.polar_position(chart, p).coords
                         for p in chart.interior_points(100, rng, margin_frac=0.1)])

    def exact_height(self, source):
        builder, sign_choices = duality.PAIRINGS[source]
        assert self.EXACT_SIGNS[source] in sign_choices
        params = zoo.resolve_params(zoo.get_family(source), None)
        return builder(params, *self.EXACT_SIGNS[source])

    def shifted(self, source):
        return self.cloud(source) + np.array([*self.SHIFT, 0.0])

    @pytest.mark.parametrize("source", sorted(EXACT_SIGNS))
    def test_heights_are_invariant_under_rotation_by_pi(self, source):
        # So a fit at -pi/2 repeats the fit at FIT_ANGLE = +pi/2.
        builder, sign_choices = duality.PAIRINGS[source]
        params = zoo.resolve_params(zoo.get_family(source), None)
        q1, q2 = self.cloud(source)[:, :2].T
        for signs in sign_choices:
            height = builder(params, *signs)
            assert height(q1, q2).tobytes() == height(-q1, -q2).tobytes(), signs

    def test_pairings_are_exact_at_the_origin(self):
        assert set(self.EXACT_SIGNS) == set(duality.PAIRINGS)
        for source in duality.PAIRINGS:
            fit = duality.fit_isometry(self.cloud(source), self.exact_height(source))
            assert fit.max_gap <= 1e-12

    @pytest.mark.parametrize("source", sorted(EXACT_SIGNS))
    def test_recovers_a_horizontal_shift(self, source):
        fit = duality.fit_isometry(self.shifted(source), self.exact_height(source))
        assert abs(fit.a - self.SHIFT[0]) <= 1e-9
        assert abs(fit.b - self.SHIFT[1]) <= 1e-9
        assert fit.max_gap <= 1e-6

    @pytest.mark.parametrize("source", sorted(EXACT_SIGNS))
    def test_matches_scipy_least_squares(self, source):
        from scipy.optimize import least_squares

        pts, height = self.shifted(source), self.exact_height(source)
        fit = duality.fit_isometry(pts, height)
        c, s = math.cos(fit.theta), math.sin(fit.theta)

        def gaps(x):
            dx, dy = pts[:, 0] - x[0], pts[:, 1] - x[1]
            return pts[:, 2] - height(dx * c + dy * s, -dx * s + dy * c)

        oracle = least_squares(gaps, x0=np.zeros(2), xtol=1e-15, ftol=1e-15,
                               gtol=1e-15).x
        assert abs(fit.a - oracle[0]) <= 1e-9
        assert abs(fit.b - oracle[1]) <= 1e-9

    def test_non_finite_trial_step_is_rejected(self):
        pts, height = self.shifted("ruled-6.7"), self.exact_height("ruled-6.7")
        # The mean of (q1, q2) moves by |(a, b)|; the first evaluation farther
        # from the start than the difference step is the first trial step.
        start, spoiled = [], []

        def nan_at_first_trial(q1, q2):
            centre = np.array([q1.mean(), q2.mean()])
            if not start:
                start.append(centre)
            elif not spoiled and np.abs(centre - start[0]).max() > 1e-3:
                spoiled.append(centre)
                return np.full_like(q1, np.nan)
            return height(q1, q2)

        fit = duality.fit_isometry(pts, nan_at_first_trial)
        assert spoiled
        assert abs(fit.a - self.SHIFT[0]) <= 1e-9
        assert abs(fit.b - self.SHIFT[1]) <= 1e-9

    def test_no_finite_angle_raises(self):
        with pytest.raises(ValueError, match="no rotation angle"):
            duality.fit_isometry(self.cloud("ruled-6.7"),
                                 lambda q1, q2: np.full_like(q1, np.nan))

    @pytest.mark.parametrize("source", sorted(EXACT_SIGNS))
    def test_deterministic(self, source):
        builder, sign_choices = duality.PAIRINGS[source]
        params = zoo.resolve_params(zoo.get_family(source), None)
        pts = self.shifted(source)
        for signs in sign_choices:
            first = duality.fit_isometry(pts, builder(params, *signs))
            second = duality.fit_isometry(pts, builder(params, *signs))
            assert first == second


class TestGraphDuality:
    def test_constant_graph(self):
        p = duality.graph_dualize(0.7, -0.2, 1.0, 0.0, 0.0, duality.H3_TO_DS3)
        assert np.allclose(p, (-0.7, 0.2, 1.0))

    def test_causality_violation(self):
        with pytest.raises(CausalityViolation):
            duality.graph_dualize(0.0, 0.0, 1.0, 0.0, 0.0, duality.DS3_TIMELIKE)
        with pytest.raises(CausalityViolation):
            duality.graph_dualize(0.0, 0.0, 1.0, 0.9, 0.9, duality.DS3_TO_H3)

    def test_nonpositive_height(self):
        with pytest.raises(NonPositiveHeight):
            duality.graph_dualize(0.0, 0.0, -1.0, 0.0, 0.0, duality.H3_TO_DS3)

    def test_translational_origin(self):
        f = calc.parse_graph_expr("sqrt(1+u^2)+sqrt(1+v^2)")
        val, grad, _ = f.jet(0.0, 0.0)
        p = duality.graph_dualize(0.0, 0.0, val, grad[0], grad[1],
                                  duality.DS3_TO_H3)
        assert np.allclose(p, (0, 0, 2))

    @pytest.mark.parametrize("key,direction", GRAPH_DUALITY_CASES)
    def test_dualized_graph_solves_partner_pde(self, key, direction, rng):
        f = zoo.family_graph_expr(key)
        chart = zoo.make_surface(key)
        for p in chart.interior_points(100, rng, margin_frac=0.1):
            assert abs(duality.graph_duality_residual(f, p, direction)) <= 1e-6


def _outcome(fn, *args):
    """The bits of fn's result, or the class and message of its error."""
    try:
        return ieee_bits(fn(*args))
    except (GaussformError, ValueError) as exc:
        return type(exc), str(exc)


class TestGraphDualizePin:
    """The one formula in c and eps_N has the bits and the errors of the
    graph-level duality with one branch per direction."""

    @pytest.mark.parametrize("direction", sorted(duality.DIRECTIONS))
    @pytest.mark.parametrize("key", [key for key, _ in GRAPH_DUALITY_CASES])
    def test_floats_and_jets(self, key, direction):
        # Every family in every direction: the wrong ones raise.
        f = zoo.family_graph_expr(key)
        chart = zoo.make_surface(key)
        rng = np.random.default_rng(5)
        for u, v in chart.interior_points(20, rng, margin_frac=0.1).tolist():
            val, grad, _ = f.jet(u, v)
            # The jets dual_graph_jet passes: one third-order jet of f.
            jets = (first_order_jet(u, (1.0, 0.0)), first_order_jet(v, (0.0, 1.0)),
                    *jet_partials(calc.third_order_jet(f.ast, u, v)))
            for args in ((u, v, val, *grad), jets):
                assert _outcome(duality.graph_dualize, *args, direction) == \
                    _outcome(branch_graph_dualize, *args, direction)

    @pytest.mark.parametrize("direction", [*sorted(duality.DIRECTIONS), "h3-to-h3"])
    def test_edges(self, direction):
        below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
        for args in [(0.0, -0.0, 1.0, 0.0, 0.0), (-0.0, 0.0, 2.0, -0.0, 0.0),
                     (0.3, 0.2, 2.0, 1.0, 0.0), (0.3, 0.2, 2.0, -0.6, 0.8),
                     (0.3, 0.2, 2.0, below, 0.0), (0.3, 0.2, 2.0, above, -0.0),
                     (0.3, 0.2, 0.5, 3.0, -4.0), (0.3, 0.2, 0.0, 0.5, 0.0),
                     (0.3, 0.2, -1.0, 2.0, 0.0)]:
            assert _outcome(duality.graph_dualize, *args, direction) == \
                _outcome(branch_graph_dualize, *args, direction)


def _hex_outcome(fn, *args):
    """fn's result as the float.hex of every float in it, nested tuples and
    arrays included (so signed zeros count), or the class and message of
    its error."""
    def bits(x):
        if isinstance(x, (tuple, list, np.ndarray)):
            return [bits(c) for c in x]
        return float.hex(float(x))
    try:
        return bits(fn(*args))
    except (GaussformError, ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _past_edges(chart, count, rng, reach=0.3):
    """Points over the chart's rectangle widened by ``reach`` of each side."""
    u0, u1, v0, v1 = chart.domain
    du, dv = reach * (u1 - u0), reach * (v1 - v0)
    return np.column_stack([rng.uniform(u0 - du, u1 + du, count),
                            rng.uniform(v0 - dv, v1 + dv, count)]).tolist()


def _redeclared(key):
    """A family's chart declared in each space, under its own orientation
    and under each kind of override: none, a sign, a reference vector, one
    orthogonal to every normal, and a callable."""
    base = zoo.make_surface(key)
    mid = 0.5 * (base.domain[0] + base.domain[1])
    overrides = (base.orientation, None, 1, -1, (0.3, -0.2, 0.9), (0.0, 0.0, 0.0),
                 lambda u, v: 1 if u < mid else (0.0, 1.0, 0.0))
    return [calc.SurfaceChart(base.domain, base.evaluator, space, orientation)
            for space in (H3, DS3, DS3_TL) for orientation in overrides]


class TestPolarKernelPin:
    """The polar map's kernels have the bits and the errors of the polar map
    run on one jet object per operation (tests/oracles.py): the dual chart's
    jets, the double polar and the graph-level duality, on every family,
    past the edges of its rectangle, in every space and under every kind of
    orientation override."""

    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_polar_chart_jets(self, key):
        rng = np.random.default_rng(41)
        for chart in _redeclared(key):
            jet = duality.polar_chart(chart).evaluator.jet
            for u, v in _past_edges(chart, 12, rng):
                assert _hex_outcome(jet, u, v) == \
                    _hex_outcome(jet_polar_chart_jet, chart, u, v), (chart, u, v)

    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_polar_of_polar(self, key):
        rng = np.random.default_rng(43)
        for chart in _redeclared(key):
            for p in _past_edges(chart, 12, rng):
                assert _hex_outcome(duality.polar_of_polar_minkowski, chart, p) == \
                    _hex_outcome(jet_polar_of_polar_minkowski, chart, p), (chart, p)

    @pytest.mark.parametrize("direction", sorted(duality.DIRECTIONS))
    @pytest.mark.parametrize("key", [key for key, _ in GRAPH_DUALITY_CASES])
    def test_graph_duality(self, key, direction):
        rng = np.random.default_rng(47)
        expr = zoo.family_graph_expr(key)
        for p in _past_edges(zoo.make_surface(key), 30, rng):
            assert _hex_outcome(duality.graph_duality_residual, expr, p, direction) == \
                _hex_outcome(jet_graph_duality_residual, expr, p, direction), p

    def test_unknown_direction(self):
        expr = zoo.family_graph_expr("horosphere")
        for p, error in (((0.5, 0.5), ValueError), ((0.5, -2.0), NonPositiveHeight)):
            assert _hex_outcome(duality.graph_duality_residual, calc.parse_graph_expr("v"),
                                p, "h3-to-h3")[0] == error.__name__
        assert _hex_outcome(duality.graph_duality_residual, expr, (0.5, 0.5), "h3-to-h3") == \
            _hex_outcome(jet_graph_duality_residual, expr, (0.5, 0.5), "h3-to-h3")

    def test_one_kernel_per_space_and_order(self):
        for key in ("ruled-6.7", "translational-6.3", "cylinder-7.4-2", "horosphere"):
            for chart in _redeclared(key):
                for run in (duality.polar_chart(chart).evaluator.jet,
                            lambda u, v: duality.polar_of_polar_minkowski(chart, (u, v))):
                    _hex_outcome(run, *_past_edges(chart, 1, np.random.default_rng(1))[0])
        assert len(duality._KERNELS) <= 3 * 2 + len(duality.DIRECTIONS)


class TestBranchTest:
    def test_closed_form_det_keeps_every_branch_flag(self):
        # polar_variety's branch test on det II in closed form decides as
        # the LU determinant did, at every zoo point: on the vertical plane
        # and the cylinder det II is 0 (polar_variety raises there first).
        rng = np.random.default_rng(53)
        compared = near = 0
        for key in zoo.family_keys():
            chart = zoo.make_surface(key)
            for p in chart.interior_points(300, rng, margin_frac=0.02):
                try:
                    bundle = forms.forms_at(chart, p)
                except GaussformError:
                    continue
                det = abs(np.linalg.det(bundle.second))
                assert (abs(forms._det(bundle.second)) < duality.BRANCH_DET_TOL) == \
                    (det < duality.BRANCH_DET_TOL), (key, p)
                flag = (abs(bundle.gauss_curvature - chart.ambient.curvature)
                        < duality.BRANCH_K_TOL or det < duality.BRANCH_DET_TOL)
                try:
                    assert duality.polar_variety(chart, p).branch_flag == flag, (key, p)
                except GaussformError:
                    pass
                compared += 1
                near += det < 1e-8
        assert compared >= 9000 and near >= 600, (compared, near)


class TestGraphComponentTrees:
    def test_built_once(self, rng):
        chart = zoo.make_surface("translational-6.3")
        first, second = chart.evaluator.component_asts, chart.evaluator.component_asts
        assert all(a is b for a, b in zip(first, second))
        pts = chart.interior_points(20, rng)
        duality.polar_positions(chart, pts)
        kept = set(calc._KERNELS)
        duality.polar_positions(chart, pts)
        assert set(calc._KERNELS) == kept
