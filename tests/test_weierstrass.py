import dataclasses
import warnings

import numpy as np
import pytest

from gaussform import ambient as amb
from gaussform import calculus, forms, gaussmaps
from gaussform import weierstrass as ws
from gaussform.errors import (ConstraintViolation, DegenerateInput, EmptyOutput,
                              GaussformError, NonImmersed, NonPositiveHeight,
                              NonRealHeight, SingularSystem, WrongCausalClass)
from oracles import splu_solve_far_map

DOMAIN = (1.5, 2.5, 0.1, 0.9)


def dense_oracle_solve(g, boundary_values, case=1):
    """Independent dense assembly and solve of the compatibility equation.

    Rebuilt from the operator definition with loops and numpy's dense LU;
    shares no assembly code with the sparse production path.
    """
    values = g.values
    nu, nv = values.shape
    du, dv = g.du, g.dv
    n_int = (nu - 2) * (nv - 2)
    A = np.zeros((n_int, n_int), dtype=complex)
    rhs = np.zeros(n_int, dtype=complex)

    def gz_at(i, j):
        gu = (values[i + 1, j] - values[i - 1, j]) / (2 * du)
        gv = (values[i, j + 1] - values[i, j - 1]) / (2 * dv)
        return (gu - 1j * gv) / 2, (gu + 1j * gv) / 2

    def index(i, j):
        return (i - 1) * (nv - 2) + (j - 1)

    for i in range(1, nu - 1):
        for j in range(1, nv - 1):
            r = index(i, j)
            gval = values[i, j]
            gz, gzb = gz_at(i, j)
            m2 = abs(gval) ** 2
            m4 = m2 * m2 - 1
            if case == 1:
                a = np.conj(gz) / (m4 * np.conj(gval))
                b = m2 * np.conj(gval) * gz / m4
            else:
                a = np.conj(gzb) / (m4 * np.conj(gval))
                b = m2 * np.conj(gval) * gzb / m4
            # laplacian / 4
            stencil = {
                (i, j): -0.5 / du**2 - 0.5 / dv**2 + 0j,
                (i + 1, j): 0.25 / du**2 + 0j,
                (i - 1, j): 0.25 / du**2 + 0j,
                (i, j + 1): 0.25 / dv**2 + 0j,
                (i, j - 1): 0.25 / dv**2 + 0j,
            }
            # first-order terms: a * (first Wirtinger) - b * (second)
            if case == 1:
                cu, cv = (a - b) / (4 * du), -1j * (a + b) / (4 * dv)
            else:
                cu, cv = (a - b) / (4 * du), 1j * (a + b) / (4 * dv)
            stencil[(i + 1, j)] += cu
            stencil[(i - 1, j)] -= cu
            stencil[(i, j + 1)] += cv
            stencil[(i, j - 1)] -= cv
            for (ii, jj), coeff in stencil.items():
                if ii in (0, nu - 1) or jj in (0, nv - 1):
                    rhs[r] -= coeff * boundary_values[ii, jj]
                else:
                    A[r, index(ii, jj)] += coeff
    sol = np.linalg.solve(A, rhs)
    out = boundary_values.astype(complex).copy()
    out[1:-1, 1:-1] = sol.reshape(nu - 2, nv - 2)
    return out


def _wirtinger(field):
    """Central-difference z and z-bar derivatives on the interior."""
    du = (field.values[2:, 1:-1] - field.values[:-2, 1:-1]) / (2 * field.du)
    dv = (field.values[1:-1, 2:] - field.values[1:-1, :-2]) / (2 * field.dv)
    return (du - 1j * dv) / 2, (du + 1j * dv) / 2


class TestFieldValidation:
    def test_case1_constraint(self):
        g = ws.ComplexField.from_function(lambda z: z, DOMAIN, (9, 9),
                                          ws.ROLE_NORMAL_MAP)
        ws.validate_normal_field(g, 1)

    def test_modulus_crossing_rejected(self):
        g = ws.ComplexField.from_function(lambda z: z, (0.5, 2.5, 0.1, 0.9),
                                          (9, 9), ws.ROLE_NORMAL_MAP)
        with pytest.raises(ConstraintViolation):
            ws.validate_normal_field(g, 1)

    def test_constant_rejected(self):
        g = ws.ComplexField.from_function(lambda z: np.full_like(z, 2.0 + 0j),
                                          DOMAIN, (9, 9), ws.ROLE_NORMAL_MAP)
        with pytest.raises(DegenerateInput):
            ws.validate_normal_field(g, 1)

    def test_case2_constraint(self):
        g = ws.ComplexField.from_function(lambda z: np.conj(z) / 8.0, DOMAIN,
                                          (9, 9), ws.ROLE_NORMAL_MAP)
        ws.validate_normal_field(g, 2)
        with pytest.raises(ConstraintViolation):
            ws.validate_normal_field(g, 1)


class TestCompatibilityResidual:
    def test_identity_pair_has_known_residual(self):
        # g(z) = z and G(z) = z: only the first-order term with coefficient
        # 1/((|z|^4 - 1) conj(z)) survives.
        g = ws.ComplexField.from_function(lambda z: z, DOMAIN, (17, 17),
                                          ws.ROLE_NORMAL_MAP)
        G = ws.ComplexField.from_function(lambda z: z, DOMAIN, (17, 17))
        z = g.z_grid()[5, 7]
        expected = 1.0 / ((abs(z) ** 4 - 1.0) * np.conj(z))
        got = ws.compatibility_residual_field(g, G)[5 - 1, 7 - 1]   # interior node (5, 7)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constant_fields_zero_residual(self):
        g = ws.ComplexField.from_function(lambda z: np.full_like(z, 2.0),
                                          DOMAIN, (9, 9), ws.ROLE_NORMAL_MAP)
        G = ws.ComplexField.from_function(lambda z: np.full_like(z, 1.0 + 1j),
                                          DOMAIN, (9, 9))
        assert ws.compatibility_residual_field(g, G)[4 - 1, 4 - 1] == 0j
        # but the solver refuses such degenerate input
        with pytest.raises(DegenerateInput):
            ws.solve_far_map(g, G.values)

    def test_truncation_error_second_order(self):
        errs = {}
        for n in (33, 65, 129):
            g, G = ws.radial_test_pair(DOMAIN, (n, n))
            errs[n] = np.abs(ws.compatibility_residual_field(g, G)).max()
        order1 = np.log2(errs[33] / errs[65])
        order2 = np.log2(errs[65] / errs[129])
        assert order1 >= 1.8
        assert order2 >= 1.9


class TestSolver:
    def test_three_by_three_single_node(self):
        g = ws.ComplexField.from_function(lambda z: z, DOMAIN, (3, 3),
                                          ws.ROLE_NORMAL_MAP)
        boundary = ws.ComplexField.from_function(lambda z: z, DOMAIN, (3, 3))
        solved = ws.solve_far_map(g, boundary.values)
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        assert np.array_equal(solved.values[ring], boundary.values[ring])
        oracle = dense_oracle_solve(g, boundary.values)
        assert abs(solved.values[1, 1] - oracle[1, 1]) <= 1e-13

    @pytest.mark.parametrize("case,gfn", [
        (1, lambda z: z),
        (2, lambda z: np.conj(z) / 8.0),
    ])
    def test_matches_dense_oracle(self, case, gfn):
        g = ws.ComplexField.from_function(gfn, DOMAIN, (9, 9),
                                          ws.ROLE_NORMAL_MAP)
        boundary = ws.ComplexField.from_function(lambda z: z, DOMAIN, (9, 9))
        solved = ws.solve_far_map(g, boundary.values, case)
        oracle = dense_oracle_solve(g, boundary.values, case)
        assert np.abs(solved.values - oracle).max() <= 1e-11

    @pytest.mark.parametrize("shape", [(9, 13), (13, 9), (3, 7)])
    @pytest.mark.parametrize("case,gfn", [
        (1, lambda z: z),
        (2, lambda z: np.conj(z) / 8.0),
    ])
    def test_matches_dense_oracle_non_square(self, case, gfn, shape):
        # A transposed i/j slice in the stencil only shows on non-square grids.
        g = ws.ComplexField.from_function(gfn, DOMAIN, shape, ws.ROLE_NORMAL_MAP)
        boundary = ws.ComplexField.from_function(lambda z: z, DOMAIN, shape)
        solved = ws.solve_far_map(g, boundary.values, case)
        oracle = dense_oracle_solve(g, boundary.values, case)
        assert np.abs(solved.values - oracle).max() <= 1e-11

    def test_discrete_residual_at_rounding(self):
        for n in (17, 33):
            g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
            solved = ws.solve_far_map(g, Gex.values)
            res = np.abs(ws.compatibility_residual_field(g, solved)).max()
            assert res <= 1e-10
            boundary_ring = np.ones((n, n), dtype=bool)
            boundary_ring[1:-1, 1:-1] = False
            assert np.array_equal(solved.values[boundary_ring],
                                  Gex.values[boundary_ring])

    def test_convergence_to_exact_solution(self):
        errs = {}
        for n in (17, 33, 65):
            g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
            solved = ws.solve_far_map(g, Gex.values)
            errs[n] = np.abs(solved.values - Gex.values).max()
        assert np.log2(errs[17] / errs[33]) >= 1.9
        assert np.log2(errs[33] / errs[65]) >= 1.9

    def test_modulus_crossing_rejected(self):
        g = ws.ComplexField.from_function(lambda z: z, (0.5, 2.5, 0.1, 0.9),
                                          (9, 9), ws.ROLE_NORMAL_MAP)
        with pytest.raises(ConstraintViolation):
            ws.solve_far_map(g, lambda z: z)

    def test_grid_cap(self):
        g = ws.ComplexField.from_function(lambda z: z, DOMAIN, (130, 130),
                                          ws.ROLE_NORMAL_MAP)
        with pytest.raises(ConstraintViolation):
            ws.solve_far_map(g, lambda z: z)

    def test_iteration_cap_is_singular_system(self, monkeypatch, capsys):
        from gaussform import cli

        monkeypatch.setattr(ws, "SOLVE_MAX_ITER", 2)
        g, Gex = ws.radial_test_pair(DOMAIN, (33, 33))
        with pytest.raises(SingularSystem) as info:
            ws.solve_far_map(g, Gex.values)
        assert info.value.iterations == 2
        assert ws.SOLVE_TOL < info.value.residual < 1.0
        assert "after 2 iterations" in str(info.value)
        code = cli.main(["weierstrass", "build", "--g", "builtin:z", "--case", "1",
                         "--domain", "1.5:2.5:0.1:0.9", "--grid", "33",
                         "--boundary", "builtin:radial"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: SingularSystem: ")

    def test_non_finite_boundary_is_singular_system(self):
        g, Gex = ws.radial_test_pair(DOMAIN, (9, 9))
        boundary = Gex.values.copy()
        boundary[0, 4] = np.nan
        with pytest.raises(SingularSystem) as info:
            ws.solve_far_map(g, boundary)
        assert info.value.iterations == 0

    def test_overflowing_field_is_a_constraint_violation(self):
        # |g|^4 overflows, so the stencil holds NaN: not a singular matrix.
        g = ws.ComplexField.from_function(lambda z: z, (1.5, 1e80, 0.1, 0.9),
                                          (9, 9), ws.ROLE_NORMAL_MAP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="non-finite"):
                ws.solve_far_map(g, lambda z: z)

    def test_residual_margin_at_grid_cap(self):
        n = ws.MAX_GRID
        g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
        solved = ws.solve_far_map(g, Gex.values)
        assert np.abs(ws.compatibility_residual_field(g, solved)).max() <= 1e-10

        g = ws.ComplexField.from_function(lambda z: np.conj(z) / 8.0, DOMAIN,
                                          (n, n), ws.ROLE_NORMAL_MAP)
        solved = ws.solve_far_map(g, lambda z: z, case=2)
        res = np.abs(ws.compatibility_residual_field(g, solved, case=2)).max()
        assert res <= 1e-10
        with pytest.raises(EmptyOutput):
            ws.build_surface(g, solved, case=2, im_tol=1e-2)


PIN_FIELDS = {
    "radial": None,
    "conj(z)/8": lambda z: np.conj(z) / 8.0,
    "z^4/4": lambda z: z ** 4 / 4.0,
    "exp(2z)/5": lambda z: np.exp(2.0 * z) / 5.0,
    "1.2z/1.5": lambda z: 1.2 * z / 1.5,
}


class TestSpluPin:
    """The iterative solve against the sparse LU route it replaced."""

    @pytest.mark.parametrize("n", [33, 65, 129])
    @pytest.mark.parametrize("label", list(PIN_FIELDS))
    def test_matches_splu_route(self, label, n):
        if PIN_FIELDS[label] is None:
            g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
            boundary, case = Gex.values, ws.CASE_HOLOMORPHIC
        else:
            g = ws.ComplexField.from_function(PIN_FIELDS[label], DOMAIN, (n, n),
                                              ws.ROLE_NORMAL_MAP)
            boundary = ws.ComplexField.from_function(lambda z: z, DOMAIN, (n, n)).values
            case = (ws.CASE_HOLOMORPHIC if np.abs(g.values).min() > 1.0
                    else ws.CASE_ANTIHOLOMORPHIC)
        solved = ws.solve_far_map(g, boundary, case)
        oracle = splu_solve_far_map(g, boundary, case)
        gap = np.abs(solved.values - oracle.values).max()
        assert gap <= 1e-12 * np.abs(oracle.values).max()
        res = np.abs(ws.compatibility_residual_field(g, solved, case)).max()
        res_oracle = np.abs(ws.compatibility_residual_field(g, oracle, case)).max()
        assert res <= 1.25 * res_oracle


class TestBuild:
    def test_exact_data_identity_and_constraints(self):
        g, Gex = ws.radial_test_pair(DOMAIN, (33, 33))
        built = ws.build_surface(g, Gex, im_tol=1e-3)
        assert built.kept_count == built.kept.size
        assert ws.surface_identity_defect(built) <= 1e-13
        assert (built.samples[..., 2][built.kept] > 0).all()
        # The two pointwise constraints of case 1, from central differences:
        # Re(G_z / g_z) > 0 and |g|^2 |G_zbar| > |G_z|.
        gz, _ = _wirtinger(g)
        Gz, Gzb = _wirtinger(Gex)
        ratio = Gz / gz
        margin = np.abs(built.g_core) ** 2 * np.abs(Gzb) - np.abs(Gz)
        assert (ratio.real[built.kept] > 0).all()
        assert (margin[built.kept] > 0).all()

    def test_default_imaginary_tolerance_is_strict(self):
        # grid-sampled data carries O(h^2) imaginary contamination through
        # the difference quotients, so the spec-default threshold trips
        g, Gex = ws.radial_test_pair(DOMAIN, (33, 33))
        with pytest.raises(NonRealHeight):
            ws.build_surface(g, Gex)

    def test_recovers_normal_map(self):
        errors = {}
        for n in (33, 65, 129):
            g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
            built = ws.build_surface(g, Gex, im_tol=1e-3)
            mask, grec, eta3 = ws.recovered_gauss_map(built)
            assert mask.sum() > 0.8 * built.kept_count
            errors[n] = np.abs(grec[mask] - built.g_core[mask]).max()
            assert errors[n] <= 3e-2
            assert np.abs(eta3[mask] - built.eta3_predicted[mask]).max() <= 3e-2
        assert np.log2(errors[33] / errors[65]) >= 1.0
        assert np.log2(errors[65] / errors[129]) >= 1.0

    def test_solved_field_build(self):
        g, Gex = ws.radial_test_pair(DOMAIN, (33, 33))
        solved = ws.solve_far_map(g, Gex.values)
        built = ws.build_surface(g, solved, im_tol=1e-2)
        assert built.kept_count == built.kept.size
        mask, grec, eta3 = ws.recovered_gauss_map(built)
        assert np.abs(grec[mask] - built.g_core[mask]).max() <= 3e-2
        assert np.abs(eta3[mask] - built.eta3_predicted[mask]).max() <= 3e-2

    def test_built_surface_is_conformal(self):
        # Surfaces from the construction must classify conformal through the
        # independent grid-difference route, tightening under refinement.
        from gaussform import ambient as amb
        from gaussform import forms

        space = amb.de_sitter_space()
        worst = {}
        for n in (33, 65):
            g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
            built = ws.build_surface(g, Gex, im_tol=1e-3)
            residuals = []
            for jet in _grid_jets(built):
                bundle = forms.fundamental_forms(jet, space, 1)
                rep = forms.conformality_test(bundle, tol=5e-2)
                assert rep.classification == forms.ConformalityReport.CONFORMAL
                residuals.append(rep.residual)
            worst[n] = max(residuals)
        assert worst[33] <= 5e-2
        assert worst[65] < worst[33]

    def test_constraint_screen_drops_samples(self):
        # boundary data G = z is not theorem-compatible: the first constraint
        # fails and every sample is dropped
        g = ws.ComplexField.from_function(lambda z: z, DOMAIN, (17, 17),
                                          ws.ROLE_NORMAL_MAP)
        solved = ws.solve_far_map(g, lambda z: z)
        with pytest.raises(EmptyOutput):
            ws.build_surface(g, solved, im_tol=1.0)

    def test_drop_reasons_recorded(self):
        # flip the far map's orientation on half the grid: those samples
        # violate the sign constraint and must be recorded, not fatal
        g, Gex = ws.radial_test_pair(DOMAIN, (17, 17))
        doctored = Gex.values.copy()
        doctored[:8, :] *= -1.0
        G = ws.ComplexField(doctored, Gex.u0, Gex.v0, Gex.du, Gex.dv)
        built = ws.build_surface(g, G, im_tol=1.0)
        assert 0 < built.kept_count < built.kept.size
        reasons = set(built.drop_reason[~built.kept].ravel())
        assert ws.DROP_RATIO_SIGN in reasons

    def test_case2_screen_on_synthetic_data(self):
        g = ws.ComplexField.from_function(lambda z: np.conj(z) / 8.0, DOMAIN,
                                          (17, 17), ws.ROLE_NORMAL_MAP)
        solved = ws.solve_far_map(g, lambda z: np.conj(z), case=2)
        res = np.abs(ws.compatibility_residual_field(g, solved, case=2)).max()
        assert res <= 1e-10
        try:
            built = ws.build_surface(g, solved, case=2, im_tol=1.0)
            assert built.case == 2
            assert (built.eta3_predicted < 0).all()
        except EmptyOutput:
            pass  # constraints may carve away everything; screen behavior is the point


def _grid_jets(built):
    """Two-jets from central differences of the samples at every interior
    node whose 3x3 neighborhood was kept, in row-major order."""
    du = built.u_coords[1] - built.u_coords[0]
    dv = built.v_coords[1] - built.v_coords[0]
    ni, nj = built.kept.shape
    x = built.samples
    for i in range(1, ni - 1):
        for j in range(1, nj - 1):
            if not built.kept[i - 1:i + 2, j - 1:j + 2].all():
                continue
            cross = (x[i + 1, j + 1] - x[i + 1, j - 1]
                     - x[i - 1, j + 1] + x[i - 1, j - 1]) / (4 * du * dv)
            second = np.stack([
                np.stack([(x[i + 1, j] - 2 * x[i, j] + x[i - 1, j]) / du**2, cross],
                         axis=-1),
                np.stack([cross, (x[i, j + 1] - 2 * x[i, j] + x[i, j - 1]) / dv**2],
                         axis=-1)], axis=-2)
            first = np.stack([(x[i + 1, j] - x[i - 1, j]) / (2 * du),
                              (x[i, j + 1] - x[i, j - 1]) / (2 * dv)], axis=-1)
            yield calculus.Jet2(x[i, j].tolist(), first.tolist(), second.tolist())


def _recovery_by_forms(built):
    """The recovery through per-node difference quotients, fundamental_forms
    and stereo_project, written out node by node as the reference."""
    space = amb.de_sitter_space()
    orientation = 1 if built.case == ws.CASE_HOLOMORPHIC else -1
    du = built.u_coords[1] - built.u_coords[0]
    dv = built.v_coords[1] - built.v_coords[0]
    ni, nj = built.kept.shape
    x = built.samples
    mask = np.zeros((ni, nj), dtype=bool)
    g_rec = np.zeros((ni, nj), dtype=complex)
    eta3 = np.zeros((ni, nj))
    for i in range(1, ni - 1):
        for j in range(1, nj - 1):
            if not built.kept[i - 1:i + 2, j - 1:j + 2].all():
                continue
            first = np.stack([(x[i + 1, j] - x[i - 1, j]) / (2 * du),
                              (x[i, j + 1] - x[i, j - 1]) / (2 * dv)], axis=1)
            second = np.empty((3, 2, 2))
            second[:, 0, 0] = (x[i + 1, j] - 2 * x[i, j] + x[i - 1, j]) / du**2
            second[:, 1, 1] = (x[i, j + 1] - 2 * x[i, j] + x[i, j - 1]) / dv**2
            cross = (x[i + 1, j + 1] - x[i + 1, j - 1]
                     - x[i - 1, j + 1] + x[i - 1, j - 1]) / (4 * du * dv)
            second[:, 0, 1] = cross
            second[:, 1, 0] = cross
            jet = calculus.Jet2(x[i, j].tolist(), first.tolist(), second.tolist())
            bundle = forms.fundamental_forms(jet, space, orientation)
            value = gaussmaps.stereo_project(bundle.eta, space)
            if gaussmaps.is_infinity(value):
                continue
            mask[i, j] = True
            g_rec[i, j] = value
            eta3[i, j] = bundle.eta[2]
    return mask, g_rec, eta3


def _raised(fn, *args):
    try:
        fn(*args)
    except GaussformError as exc:
        return type(exc), str(exc)
    return None


class TestRecoveryPin:
    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_matches_forms_route_bitwise(self, n):
        g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
        doctored = Gex.values.copy()
        doctored[:n // 3, :] *= -1.0          # drops a band: ragged mask
        for G in (Gex, ws.solve_far_map(g, Gex.values),
                  dataclasses.replace(Gex, values=doctored)):
            built = ws.build_surface(g, G, im_tol=1.0)
            got = ws.recovered_gauss_map(built)
            want = _recovery_by_forms(built)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [3, 4])
    def test_grid_without_whole_neighborhood(self, n):
        g, Gex = ws.radial_test_pair(DOMAIN, (n, n))
        built = ws.build_surface(g, Gex, im_tol=1.0)
        mask, _, _ = ws.recovered_gauss_map(built)
        assert mask.shape == built.kept.shape and not mask.any()

    def test_causal_class_failures_match(self):
        g, Gex = ws.radial_test_pair(DOMAIN, (17, 17))
        built = ws.build_surface(g, Gex, im_tol=1e-3)
        steep = built.samples.copy()
        steep[..., 2] = 0.5 + 3.0 * steep[..., 0]           # time-like slope
        flat = np.where(np.isnan(built.samples), np.nan, 0.5)  # zero tangent map
        seen = set()
        for samples in (steep, flat):
            bad = dataclasses.replace(built, samples=samples)
            want = _raised(_recovery_by_forms, bad)
            assert want[0] in (WrongCausalClass, NonImmersed)
            assert _raised(ws.recovered_gauss_map, bad) == want
            seen.add(want[0])
        assert seen == {WrongCausalClass, NonImmersed}

    def test_first_failure_in_row_major_order(self):
        # One node gets a non-positive height, another a time-like slope (the
        # height of its i + 1 neighbour raised, which touches no node before
        # it); whichever comes first in row-major order decides the error.
        g, Gex = ws.radial_test_pair(DOMAIN, (17, 17))
        built = ws.build_surface(g, Gex, im_tol=1e-3)
        early, late = (1, 1), (12, 12)
        seen = []
        for low, steep in ((early, late), (late, early)):
            samples = built.samples.copy()
            samples[low][2] = 0.0
            samples[steep[0] + 1, steep[1], 2] += 2.0
            bad = dataclasses.replace(built, samples=samples)
            want = _raised(_recovery_by_forms, bad)
            assert _raised(ws.recovered_gauss_map, bad) == want
            seen.append(want[0])
        assert seen == [NonPositiveHeight, WrongCausalClass]


def test_recovery_rejects_an_overflowing_metric():
    # Heights of about 1e-155 make 1/h^2 overflow, so the determinant of the
    # induced metric is NaN: both routes fail the first node with NonImmersed.
    g, Gex = ws.radial_test_pair(DOMAIN, (17, 17))
    built = ws.build_surface(g, Gex, im_tol=1e-3)
    samples = built.samples.copy()
    samples[..., 2] *= 1e-155
    bad = dataclasses.replace(built, samples=samples)
    want = _raised(_recovery_by_forms, bad)
    assert want == (NonImmersed, "induced metric is not finite (det nan)")
    assert _raised(ws.recovered_gauss_map, bad) == want


class TestRadialProfile:
    def test_profile_solves_reduced_equation(self):
        profile = ws.radial_profile((2.0, 8.0))
        # The closed form's rounding noise, about 2e-16, is amplified by
        # 1/h^2 in fpp: h = 1e-3 keeps it near 0.03 of the bound (h = 1e-4
        # takes 0.89 at s = 5), and F + 1e-7 s^2 still fails by 4.1x.
        h = 1e-3
        for s in np.linspace(2.5, 7.5, 13):
            f = profile(np.array(s))
            fp = (profile(np.array(s + h)) - profile(np.array(s - h))) / (2 * h)
            fpp = (profile(np.array(s + h)) - 2 * f + profile(np.array(s - h))) / h**2
            residual = s * s * (s * s - 1) * fpp + s * (s * s - 1) * fp + f
            # FD noise is amplified by the s^2 (s^2 - 1) leading coefficient
            assert abs(residual) <= 1e-5 * max(1.0, s * s * (s * s - 1) / 100.0)

    @pytest.mark.parametrize("span", [(2.26, 7.06), (2.0, 8.0), (1.2, 3.0),
                                      (1.05, 20.0), (2.0, 2.35)])
    def test_profile_matches_dop853(self, span):
        # scipy's DOP853 at rtol 1e-14 is the independent oracle; only this
        # test imports scipy.integrate.  (2.26, 7.06) is |z|^2 over the
        # builds' domain 1.5:2.5:0.1:0.9; the other spans reach toward s = 1,
        # far out, and over a short stretch.
        from scipy.integrate import solve_ivp

        def rhs(s, y):
            f, fp = y
            return [fp, -(s * (s * s - 1.0) * fp + f) / (s * s * (s * s - 1.0))]

        with warnings.catch_warnings():     # DOP853 raises rtol to 2.2e-14
            warnings.simplefilter("ignore", UserWarning)
            ref = solve_ivp(rhs, span, [ws.RADIAL_F0, ws.RADIAL_SLOPE],
                            method="DOP853", rtol=1e-14, atol=1e-16,
                            dense_output=True).sol
        s = np.linspace(*span, 401)
        assert np.abs(ws.radial_profile(span)(s) - ref(s)[0]).max() <= 1e-12

    def test_profile_is_clipped_to_its_span(self):
        profile = ws.radial_profile((2.0, 8.0))
        inside = profile(np.array([2.0, 8.0]))
        assert inside[0] == ws.RADIAL_F0
        assert np.array_equal(profile(np.array([[1.5, 1e300]])), inside[None, :])

    @pytest.mark.parametrize("span", [(2.0, 2.0), (3.0, 2.0), (2.0, np.inf),
                                      (2.0, np.nan)])
    def test_span_must_be_finite_and_increasing(self, span):
        with pytest.raises(ConstraintViolation):
            ws.radial_profile(span)

    def test_span_next_to_one_builds(self):
        lo = 1.0 + 2.0 ** -52
        values = ws.radial_profile((lo, 2.0))(np.array([lo, 1.5, 2.0]))
        assert values[0] == ws.RADIAL_F0
        assert np.isfinite(values).all()

    def test_domain_guard(self):
        with pytest.raises(ConstraintViolation):
            ws.radial_profile((0.5, 2.0))
        with pytest.raises(ConstraintViolation):
            ws.radial_test_pair((0.1, 1.0, 0.1, 1.0), (9, 9))


class TestSerialization:
    def test_field_rows(self):
        g, _ = ws.radial_test_pair(DOMAIN, (3, 3))
        rows = list(ws.field_to_rows(g))
        assert len(rows) == 9
        i, j, u, v, re, im = rows[0]
        assert (i, j) == (0, 0)
        assert (u, v) == (1.5, 0.1)
        assert re == 1.5 and im == 0.1
        assert rows[-1][:2] == (2, 2)
