import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform.errors import NonPositiveHeight
from oracles import (Jet3, _Jet, branch_minkowski_coords, branch_sign, christoffel_at_height,
                     coefficients, first_order_jet, frame_components, to_half_space)

H3 = amb.hyperbolic_space()
DS3 = amb.de_sitter_space()
DS3_TL = amb.de_sitter_space(causal_class=amb.CausalClass.TIME_LIKE)


class TestSpaceDescriptor:
    def test_hyperbolic_signature(self):
        assert H3.signature == (1, 1, 1)
        assert (H3.curvature, H3.normal_sign) == (-1.0, 1)

    def test_de_sitter_signs(self):
        assert DS3.signature == (1, 1, -1)
        assert (DS3.curvature, DS3.normal_sign) == (1.0, -1)
        assert DS3_TL.signature == (1, 1, -1)
        assert (DS3_TL.curvature, DS3_TL.normal_sign) == (1.0, 1)

    def test_hyperbolic_rejects_timelike(self):
        with pytest.raises(ValueError):
            amb.AmbientSpace(amb.Kind.HYPERBOLIC, 3, amb.CausalClass.TIME_LIKE)

    def test_higher_dimension(self):
        h4 = amb.hyperbolic_space(4)
        assert h4.signature == (1, 1, 1, 1)
        assert (h4.curvature, h4.normal_sign) == (-1.0, 1)


class TestMetric:
    def test_unit_height_is_identity(self):
        g = amb.metric_at_height(H3, 1.0)
        assert np.array_equal(g, np.eye(3))

    def test_de_sitter_at_height_two(self):
        g = amb.metric_at_height(DS3, 2.0)
        assert np.allclose(g, np.diag([0.25, 0.25, -0.25]))

    def test_boundary_rejected(self):
        with pytest.raises(NonPositiveHeight):
            amb.metric_at_height(H3, 0.0)

    def test_scaling_and_signs(self, rng):
        for _ in range(20):
            h = rng.uniform(0.1, 10)
            for space in (H3, DS3):
                g = amb.metric_at_height(space, h)
                assert np.allclose(np.diag(g), np.array(space.signature) / h**2)
                assert np.allclose(g - np.diag(np.diag(g)), 0)


def _sympy_christoffel(space, height):
    """Independent oracle: Levi-Civita symbols from the metric via sympy."""
    import sympy as sp

    xs = sp.symbols("x1 x2 x3", positive=True)
    eps = space.signature
    g = sp.diag(*[sp.Rational(e) / xs[2] ** 2 for e in eps])
    ginv = g.inv()
    gamma = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                expr = sum(
                    ginv[a, d] * (sp.diff(g[d, b], xs[c]) + sp.diff(g[d, c], xs[b])
                                  - sp.diff(g[b, c], xs[d])) / 2
                    for d in range(3))
                gamma[a, b, c] = float(expr.subs({xs[2]: height}))
    return gamma


class TestChristoffel:
    @pytest.mark.parametrize("space", [H3, DS3], ids=["h3", "ds3"])
    def test_against_symbolic_oracle(self, space):
        for height in (1.0, 0.5, 2.0):
            ours = christoffel_at_height(space, height)
            oracle = _sympy_christoffel(space, height)
            assert np.abs(ours - oracle).max() < 1e-14

    def test_specific_entries_h3(self):
        g = christoffel_at_height(H3, 1.0)
        assert g[0, 0, 2] == -1.0
        assert g[2, 0, 0] == 1.0
        assert g[2, 2, 2] == -1.0

    def test_specific_entries_ds3(self):
        g = christoffel_at_height(DS3, 1.0)
        assert g[2, 0, 0] == -1.0
        assert g[0, 0, 2] == -1.0

    def test_height_homogeneity(self):
        one = christoffel_at_height(DS3, 1.0)
        two = christoffel_at_height(DS3, 2.0)
        assert np.allclose(two, one / 2)

    def test_symmetry(self, rng):
        for _ in range(10):
            h = rng.uniform(0.1, 10)
            g = christoffel_at_height(H3, h)
            assert np.array_equal(g, g.transpose(0, 2, 1))

    @pytest.mark.parametrize("space", [H3, DS3], ids=["h3", "ds3"])
    def test_matches_finite_differences_of_metric(self, space, rng):
        # Levi-Civita formula with centrally differenced metric derivatives.
        for _ in range(100):
            x = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                          rng.uniform(0.1, 10)])
            step = 1e-6 * max(1.0, x[2])
            dg = np.zeros((3, 3, 3))
            for c in range(3):
                xp, xm = x.copy(), x.copy()
                xp[c] += step
                xm[c] -= step
                dg[:, :, c] = (np.array(amb.metric_at_height(space, xp[2]))
                               - np.array(amb.metric_at_height(space, xm[2]))) / (2 * step)
            ginv = np.linalg.inv(amb.metric_at_height(space, x[2]))
            # dg[d,b,c] = d_c g_db; assemble d_c g_db + d_b g_dc - d_d g_bc
            term = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)
            oracle = 0.5 * np.einsum("ad,dbc->abc", ginv, term)
            ours = christoffel_at_height(space, x[2])
            assert np.abs(ours - oracle).max() < 1e-6


coords = st.floats(-5, 5, allow_nan=False)
heights = st.floats(0.05, 20, allow_nan=False)


class TestModelConversion:
    def test_hyperboloid_apex(self):
        p = to_half_space(amb.MinkowskiPoint((1, 0, 0, 0), -1.0))
        assert p.coords == (0.0, 0.0, 1.0)

    def test_de_sitter_example_point(self):
        p = to_half_space(amb.MinkowskiPoint((0, 0, 0, 1), 1.0))
        assert np.allclose(p.coords, (0.0, 0.0, 1.0))

    @settings(max_examples=250, deadline=None)
    @given(coords, coords, heights)
    def test_round_trip_h3(self, x1, x2, x3):
        p = amb.HalfSpacePoint((x1, x2, x3))
        mink = amb.to_minkowski(H3, p)
        assert mink.quadric_residual() <= 1e-12 * max(1.0, max(abs(c) for c in mink.coords) ** 2)
        back = to_half_space(mink)
        assert np.allclose(back.coords, p.coords, rtol=0, atol=1e-12 * max(1.0, x3, abs(x1), abs(x2)))

    @settings(max_examples=250, deadline=None)
    @given(coords, coords, heights, st.sampled_from([-1, 1]))
    def test_round_trip_ds3(self, x1, x2, x3, sheet):
        p = amb.HalfSpacePoint((x1, x2, x3))
        mink = amb.to_minkowski(DS3, p, sheet)
        assert branch_sign(mink) == sheet
        back = to_half_space(mink)
        assert np.allclose(back.coords, p.coords, rtol=0, atol=1e-12 * max(1.0, x3, abs(x1), abs(x2)))
        again = amb.to_minkowski(DS3, back, branch_sign(mink))
        assert np.allclose(again.coords, mink.coords, rtol=1e-12, atol=1e-12)

    def test_bulk_round_trip_budget(self, rng):
        worst = 0.0
        for _ in range(1000):
            x = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.05, 20))
            for space, sheet in ((H3, 1), (DS3, 1), (DS3, -1)):
                mink = amb.to_minkowski(space, amb.HalfSpacePoint(x), sheet)
                back = to_half_space(mink)
                worst = max(worst, max(abs(a - b) for a, b in zip(back.coords, x)))
        assert worst <= 1e-12 * 20


def ieee_bits(values):
    """The bits of every float, jet coefficient and array entry of
    ``values``, as hex strings and bytes, so signed zeros count."""
    out = []
    for x in values:
        if isinstance(x, _Jet):
            out.append(ieee_bits(coefficients(x)))
        elif isinstance(x, np.ndarray):
            out.append(x.tobytes())
        else:
            out.append(float.hex(float(x)))
    return out


class TestLiftPin:
    """The lift's one formula in the curvature has the bits of the lift with
    one branch per kind of space, on floats, jets and arrays."""

    CASES = [(H3, 1), (H3, -1), (DS3, 1), (DS3, -1)]

    @staticmethod
    def points(n=200):
        rng = np.random.default_rng(31)
        x1, x2 = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        x1[:4], x2[:4] = (0.0, -0.0, 0.0, -0.0), (0.0, 0.0, -0.0, -0.0)
        return x1, x2, rng.uniform(0.05, 20, n), rng

    @pytest.mark.parametrize("space,sheet", CASES)
    def test_floats_and_arrays(self, space, sheet):
        x1, x2, x3, _ = self.points()
        for x in zip(x1.tolist(), x2.tolist(), x3.tolist()):
            assert ieee_bits(amb.minkowski_coords(space, x, sheet)) == \
                ieee_bits(branch_minkowski_coords(space, x, sheet))
        assert ieee_bits(amb.minkowski_coords(space, (x1, x2, x3), sheet)) == \
            ieee_bits(branch_minkowski_coords(space, (x1, x2, x3), sheet))

    @pytest.mark.parametrize("space,sheet", CASES)
    def test_jets(self, space, sheet):
        x1, x2, x3, rng = self.points()
        for x in zip(x1.tolist(), x2.tolist(), x3.tolist()):
            for jet in (lambda c: _Jet(c, *rng.normal(size=5)),
                        lambda c: Jet3(c, *rng.normal(size=9)),
                        lambda c: first_order_jet(c, (0.0, 1.0))):
                xj = [jet(c) for c in x]
                assert ieee_bits(amb.minkowski_coords(space, xj, sheet)) == \
                    ieee_bits(branch_minkowski_coords(space, xj, sheet))


class TestFrameComponents:
    def test_round_trip_with_lift(self, rng):
        from gaussform import duality

        for space, sheet in ((H3, 1), (DS3, 1), (DS3, -1)):
            for _ in range(20):
                x = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 4))
                eta = rng.normal(size=3)
                X, V = duality.minkowski_normal(space, x, eta, sheet)
                back = frame_components(X, V)
                assert np.allclose(back, eta, atol=1e-11)
