import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform import zoo
from gaussform.errors import (DomainError, GaussformError, HeightViolation, NonImmersed,
                              OutsideDomain, ParseError)
from oracles import NumericEvaluator, unparse
from test_cli import GRAPH_EXPRS

H3 = amb.hyperbolic_space()


class TestParser:
    def test_translational_profile(self):
        e = calc.parse_graph_expr("sqrt(1+u^2) + sqrt(1+v^2)")
        assert e(0.0, 0.0) == 2.0
        # edge depth 4: Bin(+) -> Call(sqrt) -> Bin(+) -> Bin(^) -> leaves
        def depth(node):
            if isinstance(node, (calc.Num, calc.Var, calc.Const)):
                return 0
            if isinstance(node, (calc.Neg, calc.Call)):
                return 1 + depth(node.arg)
            return 1 + max(depth(node.left), depth(node.right))
        assert depth(e.ast) == 4

    def test_ruled_graph_value(self):
        e = calc.parse_graph_expr("u*v/sqrt(1+v^2)")
        assert e(0.0, 0.0) == 0.0

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            calc.parse_graph_expr("sinh(w)")
        assert err.value.offset == 5
        assert "u" in err.value.expected

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            calc.parse_graph_expr("foo(u)")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            calc.parse_graph_expr("(u+v")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            calc.parse_graph_expr("u+v)")

    def test_power_right_associative(self):
        e = calc.parse_graph_expr("2^3^2")
        assert e(0.0, 0.0) == 512.0

    def test_unary_minus_below_power(self):
        assert calc.parse_graph_expr("-2^2")(0, 0) == -4.0
        assert calc.parse_graph_expr("(-2)^2")(0, 0) == 4.0
        assert calc.parse_graph_expr("2^-1")(0, 0) == 0.5

    def test_whitespace_insensitive(self):
        a = calc.parse_graph_expr(" sinh( u ) * 2 + v ")
        b = calc.parse_graph_expr("sinh(u)*2+v")
        assert a.ast == b.ast

    def test_constants(self):
        assert calc.parse_graph_expr("cos(pi)")(0, 0) == pytest.approx(-1.0)
        assert calc.parse_graph_expr("log(e)")(0, 0) == pytest.approx(1.0)

    def test_complex_constant_gated(self):
        with pytest.raises(ParseError):
            calc.parse_graph_expr("i*u")
        e = calc.parse_graph_expr("u + i*v", complex_unit=True)
        assert calc.evaluate(e.ast, 1.0, 2.0) == 1.0 + 2.0j

    def test_complex_unit_is_the_only_extra_identifier(self):
        with pytest.raises(ParseError) as err:
            calc.parse_graph_expr("k*u", complex_unit=True)
        assert err.value.expected == {"u", "v", "pi", "e", "i", *calc.FUNCTIONS}

    def test_complex_constant_jet_is_domain_error(self):
        e = calc.parse_graph_expr("u+i*v", complex_unit=True)
        with pytest.raises(DomainError):
            e.jet(1, 2)


def _leaf():
    return st.one_of(
        st.floats(0.0, 4.0).map(lambda x: calc.Num(round(x, 3))),
        st.sampled_from([calc.Var("u"), calc.Var("v"),
                         calc.Const("pi"), calc.Const("e")]),
    )


def _tree(children):
    unary = children.map(lambda a: calc.Neg(a))
    call = st.tuples(st.sampled_from(["sqrt", "sinh", "cosh", "tanh", "sin",
                                      "cos", "exp", "log", "abs"]),
                     children).map(lambda t: calc.Call(*t))
    binary = st.tuples(st.sampled_from(list("+-*/^")), children,
                       children).map(lambda t: calc.Bin(*t))
    return st.one_of(unary, call, binary)


expr_trees = st.recursive(_leaf(), _tree, max_leaves=20)


class TestUnparse:
    @settings(max_examples=300, deadline=None)
    @given(expr_trees)
    def test_parse_unparse_fixed_point(self, tree):
        text = unparse(tree)
        reparsed = calc.parse_graph_expr(text).ast
        assert reparsed == tree
        assert calc.parse_graph_expr(unparse(reparsed)).ast == reparsed


class TestJets:
    @pytest.mark.parametrize("text", [
        "sqrt(1+u^2)+sqrt(1+v^2)",
        "u*v/sqrt(1+v^2)",
        "sinh(u)*cosh(v)",
        "exp(u-v^2)*cos(u*v)",
        "tanh(u)+log(2+v)",
        "(1+u^2+v^2)^0.5",
        "abs(u-3)",
        "2^u",
        "u^v",
    ])
    def test_ad_matches_finite_differences(self, text, rng):
        expr = calc.parse_graph_expr(text)
        for _ in range(25):
            u = rng.uniform(0.2, 1.5)
            v = rng.uniform(0.2, 1.5)
            val, grad, hess = expr.jet(u, v)
            h = 1e-6
            fd_u = (expr(u + h, v) - expr(u - h, v)) / (2 * h)
            fd_v = (expr(u, v + h) - expr(u, v - h)) / (2 * h)
            assert grad[0] == pytest.approx(fd_u, rel=1e-6, abs=1e-8)
            assert grad[1] == pytest.approx(fd_v, rel=1e-6, abs=1e-8)
            h = 1e-4
            fd_uu = (expr(u + h, v) - 2 * val + expr(u - h, v)) / h**2
            fd_vv = (expr(u, v + h) - 2 * val + expr(u, v - h)) / h**2
            fd_uv = (expr(u + h, v + h) - expr(u + h, v - h)
                     - expr(u - h, v + h) + expr(u - h, v - h)) / (4 * h**2)
            assert hess[0][0] == pytest.approx(fd_uu, rel=1e-4, abs=1e-5)
            assert hess[1][1] == pytest.approx(fd_vv, rel=1e-4, abs=1e-5)
            assert hess[0][1] == pytest.approx(fd_uv, rel=1e-4, abs=1e-5)

    def test_domain_errors(self):
        # The real rules live in the jets; plain evaluation is complex and
        # fails only where the complex function is undefined too.
        for text, u, complex_value in [("sqrt(u)", -1.0, 1j), ("log(u)", 0.0, None),
                                       ("u^0.5", -2.0, 2 ** 0.5 * 1j), ("1/u", 0.0, None)]:
            expr = calc.parse_graph_expr(text)
            with pytest.raises(DomainError):
                expr.jet(u, 0.0)
            if complex_value is None:
                with pytest.raises(DomainError):
                    expr(u, 0.0)
            else:
                assert expr(u, 0.0) == pytest.approx(complex_value, abs=1e-15)

    def test_integer_power_of_negative_base_is_fine(self):
        expr = calc.parse_graph_expr("u^2")
        val, grad, _ = expr.jet(-3.0, 0.0)
        assert val == 9.0 and grad[0] == -6.0


# (u order, v order) of the ten coefficients of an order-three jet, in the
# order of its slots: value, gradient, Hessian, third derivatives.
JET3_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
               (3, 0), (2, 1), (1, 2), (0, 3)]


def _sympy_partials(text, u0, v0, orders):
    """Partial derivatives of an expression by sympy.diff, at 30 digits."""
    import sympy as sp

    u, v = sp.symbols("u v", real=True)
    f = sp.sympify(text.replace("^", "**"),
                   locals={"u": u, "v": v, "e": sp.E, "pi": sp.pi,
                           "abs": sp.Abs})
    at = {u: sp.Float(u0, 30), v: sp.Float(v0, 30)}
    return [float(sp.N(sp.diff(f, u, a, v, b).subs(at), 30)) for a, b in orders]


def _sympy_jet(text, u0, v0):
    """Value, gradient and Hessian of an expression by sympy, at 30 digits."""
    f, fu, fv, fuu, fuv, fvv = _sympy_partials(text, u0, v0, JET3_ORDERS[:6])
    return f, np.array([fu, fv]), np.array([[fuu, fuv], [fuv, fvv]])


# Every function of the grammar, '^' with an integer, a non-integer and a
# variable exponent, and division.
ORACLE_TEXTS = [
    "sqrt(1+u^2*v)", "sinh(u*v-0.3)", "cosh(u-2*v)", "tanh(u+v/2)",
    "sin(u*v)+cos(u^2-v)", "exp(u*v/3)*log(1+u^2+v)", "abs(u-2*v)",
    "(u+v)^3-2*u^2*v", "(1+u*v)^-2", "(1+u^2+v)^1.5", "u^v", "(2+sin(u))^(v*u)",
    "(u+1)/(v^2+1)", "1/(u*v)-u/sqrt(v)", "e^u*pi^v",
]


class TestJetSympyOracle:
    def test_texts_cover_the_grammar(self):
        used = {name for name in calc.FUNCTIONS
                if any(f"{name}(" in t for t in ORACLE_TEXTS)}
        assert used == set(calc.FUNCTIONS)

    @pytest.mark.parametrize("text", ORACLE_TEXTS)
    def test_gradient_and_hessian_match_sympy(self, text, rng):
        expr = calc.parse_graph_expr(text)
        for _ in range(6):
            u, v = rng.uniform(0.2, 1.5, 2)
            val, grad, hess = expr.jet(u, v)
            want_val, want_grad, want_hess = _sympy_jet(text, u, v)
            assert val == pytest.approx(want_val, rel=1e-13, abs=1e-13)
            assert np.abs(grad - want_grad).max() <= 1e-13 * np.abs(want_grad).max()
            assert np.abs(hess - want_hess).max() <= 1e-13 * np.abs(want_hess).max()

    @pytest.mark.parametrize("text", ORACLE_TEXTS)
    def test_third_order_jet_matches_sympy(self, text, rng):
        tree = calc.parse_graph_expr(text).ast
        for _ in range(3):
            u, v = rng.uniform(0.2, 1.5, 2)
            got = calc.third_order_jet(tree, u, v).coefficients()
            want = _sympy_partials(text, u, v, JET3_ORDERS)
            for (a, b), g, w in zip(JET3_ORDERS, got, want):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12), (a, b)


def _arrays(jet):
    """A jet with numpy arrays in place of its nested tuples."""
    return calc.Jet2(np.array(jet.x), np.array(jet.du), np.array(jet.duu))


class TestCharts:
    def test_horosphere_jet(self):
        chart = calc.SurfaceChart((-2, 2, -2, 2),
                                  calc.GraphEvaluator(calc.parse_graph_expr("1")),
                                  H3)
        jet = calc.jet2_eval(chart, (0.3, -0.2))
        assert np.allclose(jet.x, [0.3, -0.2, 1.0])
        assert np.allclose(jet.du, [[1, 0], [0, 1], [0, 0]])
        assert np.array_equal(jet.duu, np.zeros((3, 2, 2)))

    def test_ruled_family_jet_values(self):
        chart = zoo.make_surface("ruled-6.2-2", {"c": 1.0},
                                 domain=(0.5, 2.0, 0.1, 1.5))
        jet = calc.jet2_eval(chart, (1.0, 1.0))
        assert np.allclose(jet.x, [math.cosh(1), math.sinh(1), math.sinh(1)])
        assert np.allclose(np.array(jet.du)[:, 0], [math.cosh(1), 0.0, math.sinh(1)])

    def test_numeric_evaluator_matches_closed_form(self):
        chart = zoo.make_surface("ruled-6.2-2", {"c": 1.0},
                                 domain=(0.5, 2.0, 0.1, 1.5))
        numeric = calc.SurfaceChart(
            chart.domain,
            NumericEvaluator(lambda u, v: chart.evaluator.jet(u, v)[0]),
            chart.ambient)
        exact = _arrays(calc.jet2_eval(chart, (1.0, 1.0)))
        approx = _arrays(calc.jet2_eval(numeric, (1.0, 1.0)))
        assert np.abs(exact.x - approx.x).max() < 1e-12
        assert np.abs(exact.du - approx.du).max() < 1e-6
        assert np.abs(exact.duu - approx.duu).max() < 1e-4

    def test_numeric_jets_against_graph_families(self, rng):
        # every graph family: exact jets vs central differences of positions
        for key in zoo.family_keys():
            if zoo.get_family(key).graph_text is None:
                continue
            chart = zoo.make_surface(key)
            numeric = calc.SurfaceChart(
                chart.domain,
                NumericEvaluator(lambda u, v, c=chart: c.evaluator.jet(u, v)[0]),
                chart.ambient)
            for p in chart.interior_points(25, rng, margin_frac=0.1):
                exact = _arrays(calc.jet2_eval(chart, p))
                approx = _arrays(calc.jet2_eval(numeric, p))
                scale = 1.0 + np.abs(exact.duu).max() + np.abs(exact.du).max()
                assert np.abs(exact.du - approx.du).max() < 1e-6 * scale, key
                assert np.abs(exact.duu - approx.duu).max() < 1e-4 * scale, key

    def test_jet_symmetry_exact(self, rng):
        for key in ["translational-6.4", "corollary-7-plus", "cylinder-7.4-2"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(10, rng):
                duu = np.array(calc.jet2_eval(chart, p).duu)
                assert np.array_equal(duu, duu.transpose(0, 2, 1))

    def test_outside_domain(self):
        chart = zoo.make_surface("horosphere")
        with pytest.raises(OutsideDomain):
            calc.jet2_eval(chart, (5.0, 0.0))

    def test_height_violation(self):
        chart = calc.SurfaceChart(
            (-2, 2, -2, 2),
            calc.GraphEvaluator(calc.parse_graph_expr("u")), H3)
        with pytest.raises(HeightViolation):
            calc.jet2_eval(chart, (-1.0, 0.0))

    def test_height_violation_message(self):
        # The point is printed as a tuple of floats, whatever container the
        # evaluator returns, so the report's error text does not depend on it.
        graph = calc.GraphEvaluator(calc.parse_graph_expr("u"))
        as_arrays = calc.ClosedFormEvaluator(
            jet_fn=lambda u, v: tuple(np.array(t) for t in graph.jet(u, v)))
        want = "surface point (-1.0, 0.5, -1.0) has nonpositive height"
        for evaluator in (graph, as_arrays):
            chart = calc.SurfaceChart((-2, 2, -2, 2), evaluator, H3)
            with pytest.raises(HeightViolation) as info:
                calc.jet2_eval(chart, (-1.0, 0.5))
            assert str(info.value) == want

    def test_non_immersed(self):
        # both partials along the same direction
        ev = calc.ClosedFormEvaluator(components=(
            calc.parse_graph_expr("u+v"), calc.parse_graph_expr("u+v"),
            calc.parse_graph_expr("1")))
        chart = calc.SurfaceChart((-1, 1, -1, 1), ev, H3)
        with pytest.raises(NonImmersed):
            calc.jet2_eval(chart, (0.1, 0.2))


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestLinspace:
    """calc.linspace gives the bits of numpy.linspace, so the CLI grids and
    the zoo's domain scan keep their points."""

    @settings(max_examples=400, deadline=None)
    @given(start=st.floats(allow_nan=False, allow_infinity=False),
           stop=st.floats(allow_nan=False, allow_infinity=False),
           num=st.integers(0, 40))
    @example(start=0.0, stop=1.0, num=1)
    @example(start=0.0, stop=1.0, num=2)
    @example(start=2.5, stop=-1.5, num=7)          # reversed
    @example(start=-3.0, stop=-0.5, num=5)         # negative
    @example(start=-1e308, stop=1e308, num=3)      # the span overflows
    @example(start=0.0, stop=5e-324, num=3)        # the step underflows to 0
    @example(start=-0.0, stop=0.0, num=1)
    def test_matches_numpy_bitwise(self, start, stop, num):
        with np.errstate(all="ignore"):
            want = np.linspace(start, stop, num)
        assert _bits(calc.linspace(start, stop, num)) == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(-1e-300, 1e-300), ulps=st.integers(-6, 6),
           num=st.integers(1, 12))
    @example(start=5e-324, ulps=1, num=4)
    @example(start=0.0, ulps=-2, num=9)
    def test_tiny_spans_bitwise(self, start, ulps, num):
        stop = start
        for _ in range(abs(ulps)):
            stop = math.nextafter(stop, math.copysign(math.inf, ulps))
        assert _bits(calc.linspace(start, stop, num)) == np.linspace(start, stop, num).tobytes()

    def test_default_check_grid_unchanged(self):
        from gaussform import cli

        chart = zoo.make_surface("corollary-6")
        u0, u1, v0, v1 = chart.domain
        mu, mv = cli.GRID_INSET * (u1 - u0), cli.GRID_INSET * (v1 - v0)
        us = np.linspace(u0 + mu, u1 - mu, cli.GRID_COUNT)
        vs = np.linspace(v0 + mv, v1 - mv, cli.GRID_COUNT)
        want = [(float(u), float(v)) for u in us for v in vs]
        got = cli._grid_points(None, chart)
        assert [(u.hex(), v.hex()) for u, v in got] == [(u.hex(), v.hex()) for u, v in want]

    @pytest.mark.parametrize("key", zoo.family_keys())
    def test_scan_domain_nodes_unchanged(self, key):
        # The 9 x 9 nodes the domain scan evaluates, as numpy.linspace gave them.
        chart = zoo.make_surface(key)
        nodes = []

        class Recorder:
            def jet(self, u, v):
                nodes.append((u, v))
                return chart.evaluator.jet(u, v)

        fam = zoo.get_family(key)
        zoo._scan_domain(fam, zoo.resolve_params(fam), chart.domain, Recorder())
        u0, u1, v0, v1 = chart.domain
        want = [(float(u), float(v)) for u in np.linspace(u0, u1, 9)
                for v in np.linspace(v0, v1, 9)]
        assert _bits(nodes) == _bits(want)


class TestNonFiniteAndDeep:
    def test_sin_and_cos_of_infinity_are_domain_errors(self):
        for text in ("sin(u*1e308*10)", "cos((1e308)*(10))"):
            expr = calc.parse_graph_expr(text)
            with pytest.raises(DomainError):
                expr.jet(0.5, 0.5)
            with pytest.raises(DomainError):
                expr(0.5, 0.5)
            with pytest.raises(DomainError):
                expr(complex(0.5), complex(0.5))

    @pytest.mark.parametrize("text", ["2^(1e308*10)", "2^(1e308*10-1e308*10)",
                                      "u^(1e308*10)"])
    def test_non_finite_exponent_is_a_domain_error(self, text):
        expr = calc.parse_graph_expr(text)
        with pytest.raises(DomainError, match="non-finite exponent"):
            expr.jet(0.5, 0.5)
        with pytest.raises(DomainError, match="non-finite exponent"):
            expr(0.5, 0.5)
        with pytest.raises(DomainError, match="non-finite exponent"):
            calc.third_order_jet(expr.ast, 0.5, 0.5)

    @pytest.mark.parametrize("text", ["+".join(["u"] * 1500), "(" * 400 + "u" + ")" * 400,
                                      "-" * 600 + "u", "sin(" * 300 + "u" + ")" * 300])
    def test_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests too deeply"):
            calc.parse_graph_expr(text)

    def test_deepest_allowed_tree_evaluates(self):
        expr = calc.parse_graph_expr("+".join(["u"] * calc.MAX_DEPTH))
        assert expr.jet(0.5, 0.0)[0] == 0.5 * calc.MAX_DEPTH


# Entries that reach the float rules' errors: zeros (abs, division, log),
# negatives (sqrt, log, non-integer powers), underflowing and overflowing
# magnitudes, and ordinary values.
ARRAY_U = np.array([0.0, -0.0, 0.5, -1.5, 2.0, 1e-200, 3.0, -710.0, 0.25, 800.0])
ARRAY_V = np.array([0.0, 1.0, -0.5, 0.0, 2.0, 1e200, -3.0, 0.1, 0.25, -2.5])


def _float_jet(ast, u, v):
    try:
        return calc._jet_eval(ast, u, v).coefficients()
    except (GaussformError, ArithmeticError):
        return None


class TestArrayJets:
    """An array jet has the float jets' bits wherever its entries are finite,
    and a non-finite entry wherever the float path raises."""

    @settings(max_examples=300, deadline=None)
    @given(text=GRAPH_EXPRS)
    @example(text="(1)/((u)-(u))")
    @example(text="((1)/((u)-(u)))^(0)")
    @example(text="abs(u)*log(v)+sqrt(u)")
    @example(text="(u)^(v)+(1e-320)/(v)")
    def test_array_jet_matches_float_jets(self, text):
        ast = calc.parse_graph_expr(text).ast
        try:
            with np.errstate(all="ignore"):
                jet = calc._jet_eval(ast, ARRAY_U, ARRAY_V)
        except (GaussformError, ArithmeticError):
            jet = None          # a rule failed on a constant: every point fails
        rows = zip(*(np.broadcast_to(c, ARRAY_U.shape).tolist()
                     for c in jet.coefficients())) if jet else [None] * len(ARRAY_U)
        for u, v, got in zip(ARRAY_U.tolist(), ARRAY_V.tolist(), rows):
            want = _float_jet(ast, u, v)
            if got is None:
                assert want is None, (u, v)
            elif all(map(math.isfinite, got)):
                assert want is not None, (u, v)
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (u, v)
            # a non-finite entry is rerun by the float path, which decides

    # Signed zeros, subnormals, huge and non-finite values, and the edges of
    # the rules' domains and of their overflow.
    EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                   -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan, 1.0, -1.0,
                   709.782712893384, 709.79, -745.2, 710.47, -710.47, 711.0, 19.0,
                   -19.0, math.pi / 2, math.pi, 1e16, 1e308]

    @pytest.mark.parametrize("fn", calc.FUNCTIONS)
    def test_function_rules_have_the_float_bits(self, fn):
        tree = calc.Call(fn, calc.Var("u"))
        us = np.array(self.EDGE_VALUES)
        with np.errstate(all="ignore"):
            jet = calc._jet_eval(tree, us, np.zeros_like(us))
        coefficients = np.broadcast_arrays(*jet.coefficients())
        for i, u in enumerate(self.EDGE_VALUES):
            got = [float(c[i]) for c in coefficients]
            want = _float_jet(tree, u, 0.0)
            if want is None or not math.isfinite(u):
                # A non-finite argument is NaN too, even where the float
                # rule has a finite value (tanh and exp at infinities).
                assert all(map(math.isnan, got)), (fn, u)
            else:
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (fn, u)

    def test_entries_of_both_kinds(self):
        # One tree gives finite and non-finite entries at once, so the
        # property above checks both of its branches on it.
        ast = calc.parse_graph_expr("abs(u)*log(v)+sqrt(u)").ast
        with np.errstate(all="ignore"):
            jet = calc._jet_eval(ast, ARRAY_U, ARRAY_V)
        finite = np.isfinite(np.broadcast_arrays(*jet.coefficients())).all(axis=0)
        assert finite.any() and not finite.all()
