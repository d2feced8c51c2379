import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussform import ambient as amb
from gaussform import calculus as calc
from gaussform import duality, forms, gaussmaps, zoo
from gaussform.errors import InfiniteG, QuadricViolation
from oracles import stereo_unproject

H3 = amb.hyperbolic_space()
DS3 = amb.de_sitter_space()

SQRT2 = math.sqrt(2.0)


class TestStereoProject:
    def test_lower_sheet_axis_point(self):
        assert gaussmaps.stereo_project((0, 0, -1), DS3) == 0

    def test_upper_sheet_value(self):
        g = gaussmaps.stereo_project((1, 0, SQRT2), DS3)
        assert g == pytest.approx(-(1 + SQRT2), abs=1e-12)
        assert abs(g) > 1

    def test_north_pole_projects_to_infinity(self):
        assert gaussmaps.is_infinity(gaussmaps.stereo_project((0, 0, 1), H3))

    def test_quadric_violation(self):
        with pytest.raises(QuadricViolation):
            gaussmaps.stereo_project((0.5, 0.5, 0.5), H3)
        with pytest.raises(QuadricViolation):
            gaussmaps.stereo_project((1, 0, SQRT2), H3)   # de Sitter point


class TestStereoUnproject:
    def test_zero_maps_to_lower_sheet(self):
        assert np.allclose(stereo_unproject(0j, DS3), [0, 0, -1])

    def test_example_value(self):
        eta = stereo_unproject(complex(-(1 + SQRT2)), DS3)
        assert np.allclose(eta, [1, 0, SQRT2], atol=1e-12)

    def test_infinity_goes_to_pole(self):
        assert np.allclose(stereo_unproject(gaussmaps.INFINITY, H3),
                           [0, 0, 1])
        assert np.allclose(stereo_unproject(gaussmaps.INFINITY, DS3),
                           [0, 0, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, math.pi), st.floats(0, 2 * math.pi))
    def test_round_trip_sphere(self, polar, azimuth):
        n = np.array([math.sin(polar) * math.cos(azimuth),
                      math.sin(polar) * math.sin(azimuth),
                      math.cos(polar)])
        g = gaussmaps.stereo_project(n, H3)
        if gaussmaps.is_infinity(g):
            return
        back = stereo_unproject(g, H3)
        assert np.allclose(back, n, atol=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5), st.sampled_from([1, -1]))
    @example(0.0, 4.09416324175928e-07, 1)   # 1 - eta_3 cancels near the pole
    def test_round_trip_hyperboloid(self, e1, e2, sheet):
        eta = np.array([e1, e2, sheet * math.sqrt(1.0 + e1 * e1 + e2 * e2)])
        g = gaussmaps.stereo_project(eta, DS3)
        if gaussmaps.is_infinity(g):
            return
        assert (abs(g) > 1) == (sheet > 0)
        back = stereo_unproject(g, DS3)
        assert np.allclose(back, eta, atol=1e-10)

    def test_bulk_round_trip(self, rng):
        for _ in range(500):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            g = gaussmaps.stereo_project(n, H3)
            if not gaussmaps.is_infinity(g):
                assert np.abs(stereo_unproject(g, H3) - n).max() <= 1e-10
        for _ in range(500):
            e1, e2 = rng.uniform(-3, 3, 2)
            sheet = 1 if rng.uniform() < 0.5 else -1
            eta = np.array([e1, e2, sheet * math.sqrt(1 + e1 * e1 + e2 * e2)])
            g = gaussmaps.stereo_project(eta, DS3)
            assert np.abs(stereo_unproject(g, DS3) - eta).max() <= 1e-10


class TestFarMap:
    def test_vertical_axis_point(self):
        assert gaussmaps.far_gauss_map((0, 0, 2), 2.0) == 4.0

    def test_generic_point(self):
        assert gaussmaps.far_gauss_map((1, 1, 1), 1j) == 1 + 2j

    def test_infinite_direction(self):
        with pytest.raises(InfiniteG):
            gaussmaps.far_gauss_map((0, 0, 1), gaussmaps.INFINITY)


class TestBranch:
    def test_modulus_vs_branch_on_samples(self, rng):
        for _ in range(200):
            e1, e2 = rng.uniform(-3, 3, 2)
            for sheet in (1, -1):
                eta = np.array([e1, e2, sheet * math.sqrt(1 + e1**2 + e2**2)])
                g = gaussmaps.stereo_project(eta, DS3)
                assert (abs(g) > 1) == (sheet == 1)


class TestDualMapRelations:
    """Sign relations between source and polar-variety Gauss maps."""

    @pytest.mark.parametrize("key", ["translational-6.6", "ruled-6.7", "ruled-6.8"])
    def test_normal_map_negation(self, key, rng):
        # The stereographic normal map of the polar variety is the negative
        # of the source's map, pointwise over the source parameters.
        chart = zoo.make_surface(key)
        dual = duality.polar_chart(chart)
        for p in chart.interior_points(15, rng, margin_frac=0.1):
            eta_src = forms.forms_at(chart, p).eta
            g_h = gaussmaps.stereo_project(eta_src, H3)
            eta_dual = forms.forms_at(dual, p).eta
            g_s = gaussmaps.stereo_project(eta_dual, DS3)
            assert abs(g_s - (-g_h)) <= 1e-9 * max(1.0, abs(g_h))

    @pytest.mark.parametrize("key", ["translational-6.6", "ruled-6.7"])
    def test_far_map_sign_relation(self, key, rng):
        # With eta_3 > 0 on the source, the far map of the polar variety is
        # the negative of the source's far map.
        chart = zoo.make_surface(key)
        dual = duality.polar_chart(chart)
        for p in chart.interior_points(15, rng, margin_frac=0.1):
            src_jet = calc.jet2_eval(chart, p)
            src = forms.forms_at(chart, p)
            assert src.eta[2] > 0
            g_h = gaussmaps.stereo_project(src.eta, H3)
            far_h = gaussmaps.far_gauss_map(src_jet.x, g_h)
            dual_jet = calc.jet2_eval(dual, p)
            dualb = forms.forms_at(dual, p)
            g_s = gaussmaps.stereo_project(dualb.eta, DS3)
            far_s = gaussmaps.far_gauss_map(dual_jet.x, g_s)
            assert abs(far_s - (-far_h)) <= 1e-9 * max(1.0, abs(far_h))
            assert dualb.eta[2] > 0

    def test_far_map_consistency_on_families(self, rng):
        # G = x1 + i x2 + x3 g is exact by construction wherever g is finite.
        for key in ["translational-6.4", "ruled-6.2-2"]:
            chart = zoo.make_surface(key)
            for p in chart.interior_points(10, rng):
                jet = calc.jet2_eval(chart, p)
                bundle = forms.forms_at(chart, p)
                data = gaussmaps.gauss_data(tuple(jet.x), bundle.eta, DS3)
                expected = complex(jet.x[0], jet.x[1]) + jet.x[2] * data.g
                assert abs(data.far - expected) == 0.0
