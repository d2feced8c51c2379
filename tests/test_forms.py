import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform import cli, forms, zoo
from gaussform.errors import (GaussformError, NonImmersed, OrientationUndefined,
                              WrongCausalClass)
import oracles
from oracles import (NumericEvaluator, _Jet, christoffel_at_height, coefficients,
                     generic_frame_normal, generic_fundamental_forms)

H3 = amb.hyperbolic_space()
DS3 = amb.de_sitter_space()
DS3_TL = amb.de_sitter_space(causal_class=amb.CausalClass.TIME_LIKE)
H4 = amb.hyperbolic_space(4)


def _graph_chart(text, space, domain=(-2, 2, -2, 2)):
    return calc.SurfaceChart(domain, calc.GraphEvaluator(calc.parse_graph_expr(text)),
                             space)


def sympy_graph_forms(f_text, space, u0, v0):
    """Independent symbolic derivation of eta, I, II, IV, H, K for a graph.

    The normal is found by solving the orthogonality equations, the second
    form from the symbolic ambient covariant derivative, and the fourth form
    by differentiating the explicit normal directly (no Weingarten step), so
    agreement with the package is a genuine cross-check.
    """
    import sympy as sp

    u, v = sp.symbols("u v", real=True)
    f = sp.sympify(f_text.replace("^", "**"), locals={"u": u, "v": v})
    x = sp.Matrix([u, v, f])
    eps = sp.diag(*[sp.Rational(e) for e in space.signature])
    g = eps / x[2] ** 2

    t1 = sp.diff(x, u)
    t2 = sp.diff(x, v)

    def inner(a, b):
        return (a.T * g * b)[0, 0]

    first = sp.Matrix([[inner(t1, t1), inner(t1, t2)],
                       [inner(t2, t1), inner(t2, t2)]])

    n1, n2, n3 = sp.symbols("n1 n2 n3", real=True)
    n = sp.Matrix([n1, n2, n3])
    sol = sp.solve([inner(n, t1), inner(n, t2),
                    inner(n, n) - space.normal_sign], [n1, n2, n3], dict=True)
    # pick the branch with positive last frame component
    normal = None
    for cand in sol:
        n3v = sp.simplify(cand[n3].subs({u: u0, v: v0}))
        if n3v > 0:
            normal = sp.Matrix([cand[n1], cand[n2], cand[n3]])
            break
    assert normal is not None
    eta = normal / x[2]

    # symbolic Christoffels of the conformally flat metric
    xs = [u, v]
    coords = sp.Matrix([x[0], x[1], x[2]])
    gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    x1s, x2s, x3s = sp.symbols("x1s x2s x3s", positive=True)
    gfull = eps / x3s ** 2
    ginv = gfull.inv()
    subs_map = {x1s: x[0], x2s: x[1], x3s: x[2]}
    cvars = [x1s, x2s, x3s]
    for a in range(3):
        for b in range(3):
            for c in range(3):
                expr = sum(ginv[a, d] * (sp.diff(gfull[d, b], cvars[c])
                                         + sp.diff(gfull[d, c], cvars[b])
                                         - sp.diff(gfull[b, c], cvars[d])) / 2
                           for d in range(3))
                gamma[a][b][c] = expr.subs(subs_map)

    tangents = [t1, t2]
    second = sp.zeros(2, 2)
    for i in range(2):
        for j in range(2):
            d2 = sp.diff(x, xs[i], xs[j])
            cov = sp.Matrix([
                d2[a] + sum(gamma[a][b][c] * tangents[i][b] * tangents[j][c]
                            for b in range(3) for c in range(3))
                for a in range(3)])
            second[i, j] = space.normal_sign * inner(cov, normal)

    deta = [sp.diff(eta, u), sp.diff(eta, v)]
    fourth = sp.zeros(2, 2)
    for i in range(2):
        for j in range(2):
            fourth[i, j] = sum(space.signature[a] * deta[i][a] * deta[j][a]
                               for a in range(3))

    subs = {u: sp.Float(u0, 30), v: sp.Float(v0, 30)}

    def mat(mexpr):
        return np.array(mexpr.subs(subs).evalf(20).tolist(), dtype=float)

    first_n, second_n, fourth_n = mat(first), mat(second), mat(fourth)
    eta_n = mat(eta).ravel()
    shape = np.linalg.inv(first_n) @ second_n
    mean = float(np.trace(shape)) / 2
    cbar = -1.0 if space.kind is amb.Kind.HYPERBOLIC else 1.0
    gauss = cbar + space.normal_sign * np.linalg.det(second_n) / np.linalg.det(first_n)
    return eta_n, first_n, second_n, fourth_n, mean, gauss


class TestSymbolicOracle:
    @pytest.mark.parametrize("text,space,point", [
        ("1", H3, (0.4, -0.3)),
        ("u", H3, (1.3, 0.5)),
        ("1+u^2+v^2", H3, (0.2, 0.1)),
        ("2", DS3, (0.4, -0.3)),
        ("2+u*v/4", DS3, (0.3, 0.2)),
        ("2*u+3*v+9", DS3_TL, (0.2, 0.1)),
    ])
    def test_forms_match_symbolic(self, text, space, point):
        chart = _graph_chart(text, space)
        bundle = forms.forms_at(chart, point)
        eta, first, second, fourth, mean, gauss = sympy_graph_forms(
            text, space, *point)
        assert np.abs(bundle.eta - eta).max() < 1e-12
        assert np.abs(bundle.first - first).max() < 1e-12
        assert np.abs(bundle.second - second).max() < 1e-12
        assert np.abs(bundle.fourth - fourth).max() < 1e-12
        assert bundle.mean_curvature == pytest.approx(mean, abs=1e-12)
        assert bundle.gauss_curvature == pytest.approx(gauss, abs=1e-12)


class TestCalibrationSurfaces:
    def test_horosphere_values(self):
        bundle = forms.forms_at(_graph_chart("1", H3), (0.7, -0.1))
        assert np.allclose(bundle.eta, [0, 0, 1])
        assert np.allclose(bundle.first, np.eye(2))
        assert np.allclose(bundle.second, np.eye(2))
        assert np.allclose(bundle.fourth, 0)
        assert bundle.mean_curvature == pytest.approx(1.0)
        assert bundle.gauss_curvature == pytest.approx(0.0)
        assert bundle.principal_curvatures == (1.0, 1.0)

    def test_equidistant_plane_values(self):
        chart = zoo.make_surface("equidistant-plane")
        bundle = forms.forms_at(chart, (1.0, 0.3))
        assert bundle.eta[2] ** 2 == pytest.approx(0.5, abs=1e-14)
        assert bundle.gauss_curvature == pytest.approx(-0.5, abs=1e-14)

    def test_ds_slice_values(self):
        bundle = forms.forms_at(_graph_chart("1", DS3), (0.3, 0.3))
        assert np.allclose(bundle.eta, [0, 0, 1])
        assert bundle.mean_curvature == pytest.approx(-1.0)
        assert bundle.gauss_curvature == pytest.approx(0.0)
        assert np.allclose(bundle.second, -np.array(bundle.first))

    def test_wrong_causal_class(self):
        chart = _graph_chart("1", DS3_TL)
        with pytest.raises(WrongCausalClass):
            forms.forms_at(chart, (0.1, 0.1))

    def test_orientation_undefined_without_reference(self):
        ev = calc.ClosedFormEvaluator(components=(
            calc.parse_graph_expr("u"), calc.parse_graph_expr("0"),
            calc.parse_graph_expr("v")))
        chart = calc.SurfaceChart((-1, 1, 0.2, 2), ev, H3)
        with pytest.raises(OrientationUndefined):
            forms.forms_at(chart, (0.0, 1.0))


class TestConformality:
    def test_horosphere_conformal_rho_zero(self):
        bundle = forms.forms_at(_graph_chart("1", H3), (0.0, 0.0))
        rep = forms.conformality_test(bundle)
        assert rep.classification == forms.ConformalityReport.CONFORMAL
        assert rep.rho == pytest.approx(0.0)
        assert forms.rho_formula_residual(bundle, rep.rho) < 1e-14

    def test_vertical_plane_totally_geodesic(self):
        chart = zoo.make_surface("vertical-plane")
        rep = forms.conformality_test(forms.forms_at(chart, (0.3, 1.2)))
        assert rep.classification == forms.ConformalityReport.TOTALLY_GEODESIC
        assert rep.rho is None

    def test_control_bowl_not_conformal(self):
        chart = zoo.make_surface("control-bowl")
        rep = forms.conformality_test(forms.forms_at(chart, (0.15, 0.1)))
        assert rep.classification == forms.ConformalityReport.NOT_CONFORMAL

    def test_ruled_surface_point(self):
        chart = zoo.make_surface("ruled-6.2-2", {"c": 1.0},
                                 domain=(0.5, 1.5, 0.5, 1.5))
        bundle = forms.forms_at(chart, (1.0, 1.0))
        rep = forms.conformality_test(bundle)
        assert rep.classification == forms.ConformalityReport.CONFORMAL
        assert rep.residual <= 1e-8
        assert abs(bundle.gauss_curvature - (1 - bundle.eta[2] ** 2)) <= 1e-10

    def test_umbilic_point_classification(self):
        # Synthetic bundle: umbilic spectrum but a fourth form that is not
        # proportional to the second; the classifier must flag the umbilic.
        base = forms.forms_at(_graph_chart("1", H3), (0.0, 0.0))
        tweaked = dataclasses.replace(base, fourth=np.array([[1.0, 0.0], [0.0, 2.0]]))
        rep = forms.conformality_test(tweaked)
        assert rep.classification == forms.ConformalityReport.UMBILIC

    def test_rounding_noise_in_vanishing_fourth_form(self, rng):
        # The horosphere has IV = 0 exactly; noise at the 1e-16 level must
        # leave it conformal with rho about 0 instead of flipping the class.
        base = forms.forms_at(_graph_chart("1", H3), (0.2, -0.1))
        assert not np.any(base.fourth)
        for _ in range(20):
            noise = 1e-16 * rng.standard_normal((2, 2))
            noisy = dataclasses.replace(base, fourth=base.fourth + noise)
            rep = forms.conformality_test(noisy)
            assert rep.classification == forms.ConformalityReport.CONFORMAL
            assert abs(rep.rho) <= 1e-15

    def test_rho_matches_trace_formula(self, rng):
        for key in ["translational-6.6", "ruled-6.7", "translational-6.4",
                    "corollary-6"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(10, rng):
                bundle = forms.forms_at(chart, p)
                rep = forms.conformality_test(bundle)
                assert rep.classification == forms.ConformalityReport.CONFORMAL
                assert forms.rho_formula_residual(bundle, rep.rho) <= 1e-8


class TestObata:
    def test_horosphere_exact_zero(self):
        bundle = forms.forms_at(_graph_chart("1", H3), (0.2, 0.2))
        assert forms.obata_identity_residual(bundle) == 0.0

    def test_translational_point(self):
        chart = zoo.make_surface("translational-6.4", {"a": 1.0, "b": 2.0})
        bundle = forms.forms_at(chart, (0.3, -0.7))
        assert forms.obata_identity_residual(bundle) <= 1e-9

    def test_numeric_evaluator_budget(self, rng):
        for key in ["translational-6.4", "ruled-6.7"]:
            chart = zoo.make_surface(key)
            numeric = calc.SurfaceChart(
                chart.domain,
                NumericEvaluator(lambda u, v, c=chart: c.evaluator.jet(u, v)[0]),
                chart.ambient)
            for p in chart.interior_points(10, rng, margin_frac=0.1):
                bundle = forms.forms_at(numeric, p)
                assert forms.obata_identity_residual(bundle) <= 1e-3

    def test_normal_invariants(self, rng):
        for key in zoo.family_keys():
            chart = zoo.make_surface(key)
            for p in chart.interior_points(5, rng):
                jet = calc.jet2_eval(chart, p)
                bundle = forms.forms_at(chart, p)
                g = np.array(amb.metric_at_height(chart.ambient, jet.height))
                n_coord = np.array(bundle.eta) * jet.height
                assert np.abs(np.array(jet.du).T @ g @ n_coord).max() <= 1e-10
                assert abs(n_coord @ g @ n_coord - chart.ambient.normal_sign) <= 1e-10
                third_def = bundle.second @ np.linalg.inv(bundle.first) @ bundle.second
                assert np.abs(bundle.third - third_def).max() <= 1e-10


class TestCheckResiduals:
    """The residuals of `check forms`, written on lists with their own
    arithmetic, against the same formulas in numpy and against bundles
    broken on purpose."""

    POINTS = [("translational-6.6", (1.0, 1.2)), ("corollary-6", (0.3, 0.6)),
              ("ruled-7.4-3", (3.0, 0.5))]

    @staticmethod
    def _numpy_residuals(jet, bundle):
        g = np.array(amb.metric_at_height(bundle.space, jet.height))
        n = np.array(bundle.eta) * jet.height
        first, second = np.array(bundle.first), np.array(bundle.second)
        return {
            "normal_orthogonality": float(np.abs(np.array(jet.du).T @ g @ n).max()),
            "normal_unit": abs(float(n @ g @ n) - bundle.space.normal_sign),
            "third_form_definition": float(np.linalg.norm(
                np.array(bundle.third) - second @ np.linalg.inv(first) @ second)),
            "obata": float(np.linalg.norm(
                np.array(bundle.fourth) - (bundle.eta[-1] ** 2 * first
                                           - 2.0 * bundle.space.normal_sign
                                           * bundle.eta[-1] * second
                                           + np.array(bundle.third)))),
        }

    def _point(self, key, p):
        chart = zoo.make_surface(key)
        jet = calc.jet2_eval(chart, p)
        return jet, forms.fundamental_forms(jet, chart.ambient, chart.orientation_at(p))

    @pytest.mark.parametrize("key,p", POINTS)
    def test_match_numpy_formulas(self, key, p):
        jet, bundle = self._point(key, p)
        got = forms.check_residuals(jet, bundle)
        want = self._numpy_residuals(jet, bundle)
        assert list(got) == list(cli.FORMS_GATES)
        for name, tol in cli.FORMS_GATES.items():
            assert got[name] <= tol, name
            assert abs(got[name] - want[name]) <= 1e-14, name

    @pytest.mark.parametrize("key,p", POINTS)
    def test_broken_bundles_fail_their_gates(self, key, p):
        jet, bundle = self._point(key, p)
        (a, b), (c, d) = bundle.third
        (e, f), (g, h) = bundle.fourth
        eta = bundle.eta
        tangent = [row[0] / jet.height for row in jet.du]
        broken = {
            "third_form_definition": dataclasses.replace(
                bundle, third=[[a * (1 + 1e-6) + 1e-6, b], [c, d]]),
            "obata": dataclasses.replace(bundle, fourth=[[e, f + 1e-6], [g + 1e-6, h]]),
            "normal_unit": dataclasses.replace(bundle, eta=[x * (1 + 1e-6) for x in eta]),
            "normal_orthogonality": dataclasses.replace(
                bundle, eta=[x + 1e-6 * t for x, t in zip(eta, tangent)]),
        }
        for name, doctored in broken.items():
            got = forms.check_residuals(jet, doctored)
            assert got[name] > cli.FORMS_GATES[name], name
            want = self._numpy_residuals(jet, doctored)[name]
            assert got[name] == pytest.approx(want, rel=1e-6), name


class TestFourthFormDirect:
    def test_horosphere_zero(self):
        chart = zoo.make_surface("horosphere")
        assert np.abs(forms.fourth_form_direct(chart, (0.1, 0.4))).max() < 1e-20

    def test_vertical_plane_zero(self):
        chart = zoo.make_surface("vertical-plane")
        assert np.abs(forms.fourth_form_direct(chart, (0.3, 1.0))).max() < 1e-20

    def test_matches_weingarten_path(self, rng):
        for key in ["translational-6.4", "ruled-6.7", "corollary-7-plus",
                    "cylinder-7.4-2"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(5, rng, margin_frac=0.1):
                direct = forms.fourth_form_direct(chart, p)
                bundle = forms.forms_at(chart, p)
                scale = max(np.abs(bundle.fourth).max(), 1e-12)
                assert np.abs(direct - bundle.fourth).max() <= 1e-4 * scale

    def test_translational_point_example(self):
        chart = zoo.make_surface("translational-6.4")
        direct = forms.fourth_form_direct(chart, (0.5, 0.5))
        bundle = forms.forms_at(chart, (0.5, 0.5))
        assert np.abs(direct - bundle.fourth).max() <= 1e-4


class TestIntrinsicCurvature:
    def test_horosphere_flat(self):
        chart = zoo.make_surface("horosphere")
        assert abs(forms.intrinsic_gauss_curvature(chart, (0.2, -0.4))) <= 1e-9

    def test_equidistant_plane(self):
        chart = zoo.make_surface("equidistant-plane")
        assert forms.intrinsic_gauss_curvature(chart, (1.0, 0.2)) == pytest.approx(
            -0.5, abs=1e-3)

    def test_matches_gauss_equation(self, rng):
        for key in ["translational-6.4", "translational-6.6", "corollary-6"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(5, rng, margin_frac=0.1):
                brioschi = forms.intrinsic_gauss_curvature(chart, p)
                bundle = forms.forms_at(chart, p)
                assert abs(brioschi - bundle.gauss_curvature) <= 1e-3

    def test_rejects_timelike(self):
        chart = zoo.make_surface("timelike-plane")
        with pytest.raises(WrongCausalClass):
            forms.intrinsic_gauss_curvature(chart, (0.0, 0.0))


class TestGeneralDimension:
    def _h4_horosphere_bundle(self):
        h4 = amb.hyperbolic_space(4)
        x = np.array([0.3, -0.2, 0.5, 1.0])
        du = np.zeros((4, 3))
        du[0, 0] = du[1, 1] = du[2, 2] = 1.0
        jet = calc.Jet2(x.tolist(), du.tolist(), np.zeros((4, 3, 3)).tolist())
        return forms.fundamental_forms(jet, h4)

    def test_h4_horosphere_forms(self):
        bundle = self._h4_horosphere_bundle()
        assert np.allclose(bundle.eta, [0, 0, 0, 1])
        assert np.allclose(bundle.first, np.eye(3))
        assert np.allclose(bundle.second, np.eye(3))
        assert np.allclose(bundle.fourth, 0)
        assert forms.obata_identity_residual(bundle) <= 1e-15

    def test_quadratic_root_structure(self):
        # For a totally umbilic hypersurface the characteristic quadratic
        # built from the measured proportionality factor has a coincident
        # root equal to the measured principal curvature, and the root
        # product equals the squared last normal component.
        bundle = self._h4_horosphere_bundle()
        rep = forms.conformality_test(bundle)
        assert rep.classification == forms.ConformalityReport.CONFORMAL
        rho = rep.rho
        eta_last = bundle.eta[-1]
        disc = (rho + 2 * eta_last) ** 2 - 4 * eta_last**2
        assert abs(disc) <= 1e-12
        root = (rho + 2 * eta_last) / 2
        lam = float(np.linalg.eigvals(
            np.linalg.inv(bundle.first) @ bundle.second).real.mean())
        assert root == pytest.approx(lam, abs=1e-12)
        assert root * root == pytest.approx(eta_last**2, abs=1e-9)


def _bits(fn, *args):
    """What fn returns, as text that changes with any bit of a float (signed
    zeros included) and with any jet coefficient; or the class and message
    of the error it raises."""
    try:
        out = fn(*args)
    except GaussformError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, forms.FormBundle):
        out = (out.eta, out.first, out.second, out.third, out.fourth,
               out.mean_curvature, out.gauss_curvature, out.principal_curvatures)
    else:
        out = [coefficients(c) if isinstance(c, _Jet) else c for c in out]
    return repr(out)


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() of floats is compensated from Python 3.12 on, so the "
                           "k-parameter route no longer sums left to right")
class TestSurfaceClosedFormsPin:
    """The closed k = 2 forms give the bits of the k-parameter route, which
    tests/oracles.py keeps as it was written, errors equal by class and
    message.  Every family's jets run under all three surface declarations,
    so the wrong-class errors are compared too."""

    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_fundamental_forms(self, key, rng):
        chart = zoo.make_surface(key)
        for p in chart.interior_points(12, rng):
            jet, orientation = calc.jet2_eval(chart, p), chart.orientation_at(p)
            for space in (H3, DS3, DS3_TL):
                assert (_bits(forms.fundamental_forms, jet, space, orientation)
                        == _bits(generic_fundamental_forms, jet, space, orientation))

    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_frame_normal_on_polar_jets(self, key, rng, monkeypatch):
        # The calls that the polar chart (second-order jets) and the double
        # polar (first-order jets, then floats) make, on the jets of
        # tests/oracles.py, replayed on both routes.
        calls = []

        def record(*args):
            calls.append(args)
            return generic_frame_normal(*args)

        monkeypatch.setattr(oracles, "generic_frame_normal", record)
        chart = zoo.make_surface(key)
        for p in chart.interior_points(4, rng, margin_frac=0.1):
            for run, target in ((oracles.jet_polar_chart_jet, chart),
                                (oracles.jet_polar_of_polar_minkowski, chart)):
                try:
                    run(target, *p) if run is oracles.jet_polar_chart_jet else run(target, p)
                except GaussformError:
                    pass
        assert any(isinstance(args[1], _Jet) for args in calls)
        for args in calls:
            assert _bits(forms.frame_normal, *args) == _bits(generic_frame_normal, *args)


def _forms_by_numpy(jet, space, orientation=None):
    """The forms as the numpy route computed them before the component-wise
    pipeline: SVD null-vector normal, einsum Christoffel contraction and
    matrix inverse.  Returns (eta, I, II, III, IV, H, K)."""
    h, du, duu = jet.height, np.array(jet.du), np.array(jet.duu)
    g = np.array(amb.metric_at_height(space, h))
    n0 = np.linalg.svd(du.T @ g)[2][-1]
    normsq = float(n0 @ g @ n0)
    if normsq == 0.0 or math.copysign(1.0, normsq) != space.normal_sign:
        raise WrongCausalClass("normal has the wrong scalar square")
    n = n0 / math.sqrt(abs(normsq))
    if forms.orientation_sign(n / h, orientation) < 0.0:
        n = -n
    first = du.T @ g @ du
    det = np.linalg.det(first)
    if abs(det) < calc.GRAM_DET_TOL:
        raise NonImmersed("induced metric is degenerate")
    if space.causal_class is amb.CausalClass.SPACE_LIKE:
        if not np.all(np.linalg.eigvalsh(first) > 0):
            raise WrongCausalClass("induced metric is not positive definite")
    elif det >= 0:
        raise WrongCausalClass("induced metric is not Lorentzian")
    gamma = christoffel_at_height(space, h)
    d2 = duu + np.einsum("abc,bi,cj->aij", gamma, du, du)
    second = space.normal_sign * np.einsum("aij,a->ij", d2, g @ n)
    second = 0.5 * (second + second.T)
    first_inv = np.linalg.inv(first)
    shape_op = first_inv @ second
    eta = n / h
    eta_du = (eta[-1] * du - space.normal_sign * (du @ shape_op)) / h
    fourth = np.einsum("a,ai,aj->ij", np.array(space.signature, dtype=float),
                       eta_du, eta_du)
    curv_const = -1.0 if space.kind is amb.Kind.HYPERBOLIC else 1.0
    gauss = curv_const + space.normal_sign * np.linalg.det(second) / det
    return (eta, first, second, second @ first_inv @ second, fourth,
            np.trace(shape_op) / du.shape[1], gauss)


def _forms_by_mpmath(jet, space):
    """The route of ``forms.fundamental_forms`` at 50 digits, the jet's floats
    taken as exact: cofactor normal, Christoffel contraction, II, I^-1, III,
    IV, H and K.  Returns (eta, I, II, III, IV, H, K) rounded to floats."""
    import mpmath

    with mpmath.workdps(50):
        m, k, eps_n = len(jet.x), len(jet.du[0]), space.normal_sign
        h, eps = mpmath.mpf(jet.height), [mpmath.mpf(e) for e in space.signature]
        du = [[mpmath.mpf(c) for c in row] for row in jet.du]
        nd = [eps[a] * (-1) ** a * _laplace_det(du[:a] + du[a + 1:]) for a in range(m)]
        root = mpmath.sqrt(abs(sum(e * c * c for e, c in zip(eps, nd))))
        eta = [c / root for c in nd]
        if forms.orientation_sign([float(c) for c in eta], None) < 0.0:
            eta = [-c for c in eta]
        # The Christoffel symbols are those at height 1 (small integers) over h.
        gamma = [[[mpmath.mpf(c) / h for c in row] for row in plane]
                 for plane in christoffel_at_height(space, 1.0).tolist()]
        pairs = [(i, j) for i in range(k) for j in range(k)]
        d2 = [{(i, j): mpmath.mpf(jet.duu[a][i][j])
               + sum(gamma[a][b][c] * du[b][i] * du[c][j]
                     for b in range(m) for c in range(m)) for i, j in pairs}
              for a in range(m)]
        first = mpmath.matrix(k, k)
        second = mpmath.matrix(k, k)
        for i, j in pairs:
            first[i, j] = sum(eps[a] * du[a][i] * du[a][j] for a in range(m)) / h**2
            second[i, j] = eps_n * sum(d2[a][i, j] * eps[a] * eta[a] for a in range(m)) / h
        first_inv = first ** -1
        shape_op = first_inv * second
        eta_du = [[(eta[-1] * du[a][i] - eps_n * sum(du[a][l] * shape_op[l, i]
                                                     for l in range(k))) / h
                   for i in range(k)] for a in range(m)]
        fourth = [[sum(eps[a] * eta_du[a][i] * eta_du[a][j] for a in range(m))
                   for j in range(k)] for i in range(k)]
        mean = sum(shape_op[i, i] for i in range(k)) / k
        gauss = space.curvature + eps_n * (_laplace_det(second.tolist())
                                           / _laplace_det(first.tolist()))
        third = second * first_inv * second
        return (*(np.array(getattr(v, "tolist", lambda: v)(), dtype=float)
                  for v in (eta, first, second, third, fourth)), float(mean), float(gauss))


def _laplace_det(rows):
    """Determinant by cofactor expansion along the first row; exact for
    singular matrices, where mpmath's LU stops."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _sub_jet(jet, m):
    """The m-dimensional jet in rows (0, ..., m - 2, last) and the first
    m - 1 parameters of a four-dimensional one."""
    rows = list(range(m - 1)) + [3]
    return calc.Jet2([jet.x[a] for a in rows], [jet.du[a][:m - 1] for a in rows],
                     [[r[:m - 1] for r in jet.duu[a][:m - 1]] for a in rows])


_entry = st.floats(-2.0, 2.0)


@st.composite
def _random_jets(draw, m):
    k = m - 1
    x = [draw(_entry) for _ in range(k)] + [draw(st.floats(0.3, 3.0))]
    du = [[draw(_entry) for _ in range(k)] for _ in range(m)]
    duu = np.zeros((m, k, k))
    for a in range(m):
        for i in range(k):
            for j in range(i, k):
                duu[a, i, j] = duu[a, j, i] = draw(_entry)
    return calc.Jet2(x, du, duu.tolist())


def _raised(fn, *args):
    try:
        fn(*args)
    except GaussformError as exc:
        return type(exc)
    return None


class TestComponentPipelineReference:
    """The component-wise forms against the numpy route on random jets."""

    @pytest.mark.parametrize("space", [H3, DS3, DS3_TL, H4],
                             ids=["h3", "ds3", "ds3-timelike", "h4"])
    @settings(max_examples=150, deadline=None)
    @given(raw=_random_jets(4))
    # Draws on which the numpy route erred by more than the bound, while the
    # package stayed within 4e-13 of the 50-digit value: --hypothesis-seed=17
    # drew the first for [h4] (K off by 1.35e-12), a full run the second for
    # [ds3] (K off by 6.8e-12); row and column 2 of the second are padding.
    @example(raw=calc.Jet2(
        [0.0, 0.0, 0.0, 2.0],
        [[0.125, 0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 1e-08, 0.0], [0.0, 0.0, 1.0]],
        [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
         [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
         [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
         [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]))
    @example(raw=calc.Jet2(
        [0.0, 0.0, 0.0, 1.203125],
        [[-0.3203125, 1.0390625, 0.0], [1.0390625, 0.76953125, 0.0], [0.0, 0.0, 0.0],
         [0.095703125, 1.244751158073715, 0.0]],
        [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
         [[0.0, -0.8125, 0.0], [-0.8125, -0.3671875, 0.0], [0.0, 0.0, 0.0]],
         [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
         [[0.0, 0.03125, 0.0], [0.03125, -0.0390625, 0.0], [0.0, 0.0, 0.0]]]))
    def test_matches_numpy_route(self, space, raw):
        jet = _sub_jet(raw, space.dim)
        g = np.array(amb.metric_at_height(space, jet.height))
        first = np.array(jet.du).T @ g @ np.array(jet.du)
        # Away from degenerate tangent maps, where the reference's SVD normal
        # is an arbitrary null vector and neither route is well conditioned.
        assume(np.linalg.cond(first) < 1e3)
        assume(abs(np.linalg.det(first)) >= calc.GRAM_DET_TOL)
        want_error = _raised(_forms_by_numpy, jet, space)
        if want_error is not None:
            assert _raised(forms.fundamental_forms, jet, space) is want_error
            return
        got = forms.fundamental_forms(jet, space)
        want = _forms_by_mpmath(jet, space)
        have = (got.eta, got.first, got.second, got.third, got.fourth,
                got.mean_curvature, got.gauss_curvature)
        for name, a, b in zip(("eta", "I", "II", "III", "IV", "H", "K"), have, want):
            scale = max(1.0, float(np.abs(b).max()))
            assert np.abs(np.asarray(a) - b).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("space", [H3, DS3, DS3_TL, H4],
                             ids=["h3", "ds3", "ds3-timelike", "h4"])
    def test_zero_tangent_map_is_not_immersed(self, space):
        m = space.dim
        jet = calc.Jet2([0.0] * (m - 1) + [1.0], np.zeros((m, m - 1)).tolist(),
                        np.zeros((m, m - 1, m - 1)).tolist())
        with pytest.raises(NonImmersed):
            forms.fundamental_forms(jet, space)
        with pytest.raises(NonImmersed):
            forms.frame_normal(space, jet.height, jet.du, None)

    @pytest.mark.parametrize("space,jet", [
        # x_v is null in dS^3: the cofactor normal vanishes exactly.
        (DS3, calc.Jet2([0.0, 0.0, 0.9921875],
                        [[5.960464477539063e-08, 0.0], [0.0, 1.8125], [0.0, 1.8125]],
                        np.zeros((3, 2, 2)).tolist())),
        # Metric entries near 1e-236, whose determinant underflows to 0.
        (DS3_TL, calc.Jet2([0.0, 0.0, 1.0],
                           [[0.0, 2.684636204755289e-117], [9.742614012756458e-119, 0.0],
                            [0.0, 0.0]], np.zeros((3, 2, 2)).tolist())),
    ], ids=["ds3", "ds3-timelike"])
    def test_uniformly_tiny_metric_is_not_immersed(self, space, jet):
        # Jets that test_matches_numpy_route once drew: their condition
        # number is small, but the tangent map is degenerate.
        with pytest.raises(NonImmersed):
            forms.fundamental_forms(jet, space)

    @pytest.mark.parametrize("space", [DS3, DS3_TL], ids=["ds3", "ds3-timelike"])
    def test_nan_scalar_square_is_not_immersed(self, space):
        # The sign bit of a NaN scalar square is arbitrary and may differ from
        # call to call, so it must not decide the outcome.
        jet = calc.Jet2([0.0, 1.4697168596833965, 2.0],
                        [[1e-08, 1.0192986913116595], [math.inf, -1.0], [math.nan, 0.0]],
                        np.zeros((3, 2, 2)).tolist())
        outcomes = set()
        for _ in range(4):
            with pytest.raises(NonImmersed) as info:
                forms.fundamental_forms(jet, space)
            outcomes.add(str(info.value))
        assert len(outcomes) == 1

    @pytest.mark.parametrize("space,slope", [(DS3, 3.0), (DS3_TL, 0.5)],
                             ids=["ds3", "ds3-timelike"])
    def test_wrong_causal_class(self, space, slope):
        # The graph of x3 = 2 + slope * x1: time-like for slope > 1.
        du = [[1.0, 0.0], [0.0, 1.0], [slope, 0.0]]
        jet = calc.Jet2([0.0, 0.0, 2.0], du, np.zeros((3, 2, 2)).tolist())
        with pytest.raises(WrongCausalClass):
            forms.fundamental_forms(jet, space)
        assert _raised(_forms_by_numpy, jet, space) is WrongCausalClass
