import math

import numpy as np
import pytest

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform import forms, zoo
from gaussform.errors import (DomainConstraint, ParamConstraint, UnknownFamily)


class TestRegistry:
    def test_enough_families(self):
        assert len(zoo.family_keys()) >= 14

    def test_metadata_complete(self):
        for key in zoo.family_keys():
            fam = zoo.get_family(key)
            assert fam.description
            assert fam.space_tag in (zoo.H3, zoo.DS3, zoo.DS3_TIMELIKE)
            assert fam.conformal in (zoo.CONFORMAL, zoo.GEODESIC, zoo.CONTROL)
            rect = fam.default_domain(dict(fam.defaults))
            assert len(rect) == 4 and rect[0] < rect[1] and rect[2] < rect[3]

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            zoo.make_surface("nosuchfamily")

    def test_unknown_parameter(self):
        with pytest.raises(ParamConstraint):
            zoo.make_surface("horosphere", {"zeta": 1.0})

    def test_every_family_instantiates(self):
        for key in zoo.family_keys():
            chart = zoo.make_surface(key)
            u0, u1, v0, v1 = chart.domain
            forms.forms_at(chart, ((u0 + u1) / 2, (v0 + v1) / 2))


class TestChartMemo:
    def test_same_inputs_same_chart(self):
        assert zoo.make_surface("ruled-6.7") is zoo.make_surface("ruled-6.7")
        assert (zoo.make_surface("ruled-6.7", {"c": 2.0}, (0.3, 1.0, 1.8, 2.9))
                is zoo.make_surface("ruled-6.7", {"c": 2.0}, (0.3, 1.0, 1.8, 2.9)))

    def test_equal_values_of_other_bits_or_types_get_their_own_chart(self):
        plus = zoo.make_surface("spacelike-plane", {"q": 0.0})
        minus = zoo.make_surface("spacelike-plane", {"q": -0.0})
        assert plus is not minus
        assert zoo.make_surface("horosphere", {"c": 1}) is not \
            zoo.make_surface("horosphere", {"c": 1.0})
        up = zoo.make_surface("horosphere", domain=(0.0, 1.0, 0.0, 1.0))
        down = zoo.make_surface("horosphere", domain=(-0.0, 1.0, -0.0, 1.0))
        assert up is not down
        assert [math.copysign(1.0, t) for t in down.domain] == [-1.0, 1.0, -1.0, 1.0]

    def test_another_domain_another_chart(self):
        chart = zoo.make_surface("horosphere", domain=(-1.0, 1.0, -1.0, 1.0))
        assert chart is not zoo.make_surface("horosphere")
        assert chart.domain == (-1.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("key,params,domain,error", [
        ("translational-6.3", None, (-3.0, 3.0, -3.0, 3.0), DomainConstraint),
        ("translational-6.3", {"a": 0.0, "b": 1.0}, None, ParamConstraint),
        ("flaherty-plus", {"psi": "1"}, None, ParamConstraint),
    ])
    def test_failed_builds_raise_on_every_call(self, key, params, domain, error):
        for _ in range(3):
            with pytest.raises(error):
                zoo.make_surface(key, params, domain)

    def test_a_kept_chart_skips_the_scan(self, monkeypatch):
        scans = []
        scan = zoo._scan_domain
        monkeypatch.setattr(zoo, "_scan_domain", lambda *a: scans.append(a) or scan(*a))
        zoo._build.cache_clear()
        first = zoo.make_surface("ruled-6.8")
        assert zoo.make_surface("ruled-6.8") is first
        assert len(scans) == 1


class TestExamples:
    def test_ruled_point_value(self):
        chart = zoo.make_surface("ruled-6.2-2", {"c": 1.0},
                                 domain=(0.5, 2.0, 0.1, 1.5))
        x, _, _ = chart.evaluator.jet(1.0, 1.0)
        assert np.allclose(x, [math.cosh(1), math.sinh(1), math.sinh(1)])

    def test_translational_origin(self):
        chart = zoo.make_surface("translational-6.4")
        x, _, _ = chart.evaluator.jet(0.0, 0.0)
        assert np.allclose(x, [0, 0, 2])

    def test_zero_parameter_rejected(self):
        with pytest.raises(ParamConstraint):
            zoo.make_surface("translational-6.3", {"a": 0.0, "b": 1.0})

    def test_domain_constraint_height(self):
        with pytest.raises(DomainConstraint):
            zoo.make_surface("ruled-6.2-2", domain=(-1.0, 0.9, 0.1, 1.5))

    def test_domain_constraint_gradient_regime(self):
        with pytest.raises(DomainConstraint):
            zoo.make_surface("translational-6.3", domain=(-3.0, 3.0, -3.0, 3.0))

    def test_flaherty_needs_varying_profile(self):
        with pytest.raises(ParamConstraint):
            zoo.make_surface("flaherty-plus", {"psi": "1"})

    def test_cylinder_needs_spacelike_directrix(self):
        with pytest.raises(ParamConstraint):
            zoo.make_surface("cylinder-7.4-2",
                             {"alpha1": "0", "alpha2": "0", "alpha3": "v"})


class TestPdeResiduals:
    def test_constant_graph_solves_both(self):
        f = calc.parse_graph_expr("1")
        assert zoo.graph_pde_residual(f, (0.3, -0.7), zoo.PDE_H3) == 0.0
        assert zoo.graph_pde_residual(f, (0.3, -0.7), zoo.PDE_DS3) == 0.0

    def test_stated_corollary_point(self):
        f = calc.parse_graph_expr("(1.0*2.0+u*v)/sqrt(1.0^2+v^2)")
        assert abs(zoo.graph_pde_residual(f, (0.3, 0.5), zoo.PDE_DS3)) <= 1e-10

    def test_translational_solves_at_origin(self):
        f = calc.parse_graph_expr("sqrt(1+u^2)+sqrt(1+v^2)")
        assert abs(zoo.graph_pde_residual(f, (0.0, 0.0), zoo.PDE_DS3)) <= 1e-12

    def test_every_graph_family_solves_its_pde(self, rng):
        for key in zoo.family_keys():
            fam = zoo.get_family(key)
            if fam.graph_pde is None or fam.conformal != zoo.CONFORMAL:
                continue
            chart = zoo.make_surface(key)
            f = zoo.family_graph_expr(key)
            for p in chart.interior_points(25, rng):
                assert abs(zoo.graph_pde_residual(f, p, fam.graph_pde)) <= 1e-10, key

    def test_control_bowl_fails_pde(self):
        f = zoo.family_graph_expr("control-bowl")
        assert abs(zoo.graph_pde_residual(f, (0.1, 0.1), zoo.PDE_H3)) > 1e-3

    def test_gradient_regimes(self, rng):
        for key in zoo.family_keys():
            fam = zoo.get_family(key)
            if fam.graph_pde is None:
                continue
            chart = zoo.make_surface(key)
            f = zoo.family_graph_expr(key)
            for p in chart.interior_points(20, rng):
                sq = zoo.gradient_square(f, p)
                if fam.space_tag == zoo.DS3:
                    assert sq < 1.0, key
                elif fam.space_tag == zoo.DS3_TIMELIKE:
                    assert sq > 1.0, key

    def test_flaherty_profiles(self, rng):
        for psi in ("v", "sinh(v)", "v+v^3/3"):
            chart = zoo.make_surface("flaherty-plus", {"psi": psi})
            f = zoo.family_graph_expr("flaherty-plus", {"psi": psi})
            for p in chart.interior_points(20, rng):
                assert abs(zoo.graph_pde_residual(f, p, zoo.PDE_DS3)) <= 1e-10
                assert zoo.gradient_square(f, p) > 1.0

    def test_unknown_equation(self):
        with pytest.raises(ValueError):
            zoo.pde_residual_values(1, 0, 0, 0, 0, 0, "6.3")


class TestCurvatureRelations:
    def test_conformal_families_satisfy_relation(self, rng):
        for key in zoo.family_keys():
            fam = zoo.get_family(key)
            if fam.conformal != zoo.CONFORMAL:
                continue
            chart = zoo.make_surface(key)
            for p in chart.interior_points(50, rng):
                bundle = forms.forms_at(chart, p)
                assert forms.curvature_relation_residual(bundle) <= 1e-9, key

    def test_cylinder_passes_timelike_conformality(self, rng):
        chart = zoo.make_surface("cylinder-7.4-2")
        for p in chart.interior_points(20, rng):
            bundle = forms.forms_at(chart, p)
            rep = forms.conformality_test(bundle)
            assert rep.classification == forms.ConformalityReport.CONFORMAL
            assert abs(bundle.gauss_curvature - (1 + bundle.eta[2] ** 2)) <= 1e-9

    def test_causal_classes_match_declaration(self, rng):
        for key in zoo.family_keys():
            chart = zoo.make_surface(key)
            for p in chart.interior_points(10, rng):
                jet = calc.jet2_eval(chart, p)
                g = np.array(amb.metric_at_height(chart.ambient, jet.height))
                du = np.array(jet.du)
                gram = du.T @ g @ du
                det = np.linalg.det(gram)
                if chart.ambient.causal_class is amb.CausalClass.SPACE_LIKE:
                    assert det > 0, key
                else:
                    assert det < 0, key
