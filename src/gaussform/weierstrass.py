"""Prescribed-Gauss-map construction of space-like de Sitter surfaces.

Given a normal-map field g on a rectangular grid (holomorphic with |g| > 1,
or antiholomorphic with |g| < 1) and boundary values for the far map G, the
module solves the compatibility PDE coupling the two maps, linear over C in
G, by one direct sparse LU of the complex 5-point system, screens the
pointwise constraints, and builds the surface from the closed-form component
formulas.  All grid derivatives are second-order central differences in z.

The canonical test problem g(z) = z has a rotationally equivariant companion
far map G = z F(|z|^2) with F solving a real second-order ODE; `radial_profile`
integrates it to high accuracy so solver output can be checked against exact
data and theorem-valid fields can be manufactured.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
# scipy is imported inside the functions that need it (here and in
# duality.fit_isometry): it takes longer to import than numpy and the package
# together, and most commands neither solve nor fit.

from .errors import (ConstraintViolation, DegenerateInput, EmptyOutput,
                     NonRealHeight, OutsideDomain, SingularSystem,
                     UnitModulusSingularity)

CASE_HOLOMORPHIC = 1       # |g| > 1
CASE_ANTIHOLOMORPHIC = 2   # |g| < 1

DEFAULT_STANDOFF = 0.1     # minimum distance of |g| from the excluded circle
MAX_GRID = 129             # solver guard; acceptance runs need 65^2
RADIAL_F0 = 1.0            # radial test profile: F at the left end of its span
RADIAL_SLOPE = -0.15       # and F' there

ROLE_NORMAL_MAP = "normal_map_g"
ROLE_FAR_MAP = "far_map_G"

DROP_RATIO_SIGN = "ratio_not_positive"     # first constraint fails
DROP_MODULUS = "modulus_inequality"        # second constraint fails
DROP_DERIV_ZERO = "g_derivative_zero"


@dataclass(frozen=True)
class ComplexField:
    """Complex values on a uniform rectangular grid (index [i, j] ~ (u, v))."""

    values: np.ndarray
    u0: float
    v0: float
    du: float
    dv: float
    role: str = ROLE_FAR_MAP

    @property
    def shape(self):
        return self.values.shape

    def u_coords(self):
        return self.u0 + self.du * np.arange(self.values.shape[0])

    def v_coords(self):
        return self.v0 + self.dv * np.arange(self.values.shape[1])

    def z_grid(self):
        u = self.u_coords()[:, None]
        v = self.v_coords()[None, :]
        return u + 1j * v

    @classmethod
    def from_function(cls, fn, domain, shape, role=ROLE_FAR_MAP):
        """Sample fn(z complex) on domain = (u0, u1, v0, v1) with (nu, nv) nodes."""
        u0, u1, v0, v1 = domain
        nu, nv = shape
        if nu < 2 or nv < 2:
            raise ConstraintViolation(
                f"grid {nu}x{nv} needs at least 2 nodes per axis")
        du = (u1 - u0) / (nu - 1)
        dv = (v1 - v0) / (nv - 1)
        us = u0 + du * np.arange(nu)
        vs = v0 + dv * np.arange(nv)
        z = us[:, None] + 1j * vs[None, :]
        values = np.asarray(fn(z), dtype=complex)
        if values.shape != (nu, nv):
            values = np.broadcast_to(values, (nu, nv)).astype(complex)
        return cls(values, u0, v0, du, dv, role)


def validate_normal_field(g: ComplexField, case: int):
    """Modulus constraint of the normal-map field; constant fields rejected."""
    mod = np.abs(g.values)
    if case == CASE_HOLOMORPHIC:
        low = mod.min()
        if low < 1.0 + DEFAULT_STANDOFF:
            raise ConstraintViolation(
                f"min |g| = {low:.6g} violates |g| >= 1 + {DEFAULT_STANDOFF}")
    elif case == CASE_ANTIHOLOMORPHIC:
        high = mod.max()
        if high > 1.0 - DEFAULT_STANDOFF:
            raise ConstraintViolation(
                f"max |g| = {high:.6g} violates |g| <= 1 - {DEFAULT_STANDOFF}")
    else:
        raise ValueError(f"case must be 1 or 2, got {case!r}")
    if np.ptp(g.values.real) == 0.0 and np.ptp(g.values.imag) == 0.0:
        raise DegenerateInput("normal-map field is constant; a nonconstant map "
                              "is required")


def _first_derivatives(values, du, dv):
    """Central z and z-bar derivatives on the interior (trimmed by one ring)."""
    dudir = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2.0 * du)
    dvdir = (values[1:-1, 2:] - values[1:-1, :-2]) / (2.0 * dv)
    return (dudir - 1j * dvdir) / 2.0, (dudir + 1j * dvdir) / 2.0


def _laplacian_quarter(values, du, dv):
    core = values[1:-1, 1:-1]
    upart = (values[2:, 1:-1] - 2.0 * core + values[:-2, 1:-1]) / du**2
    vpart = (values[1:-1, 2:] - 2.0 * core + values[1:-1, :-2]) / dv**2
    return (upart + vpart) / 4.0


def _coefficients(g: ComplexField, case: int):
    """First-order coefficients of the compatibility operator on the interior."""
    gz, gzb = _first_derivatives(g.values, g.du, g.dv)
    core = g.values[1:-1, 1:-1]
    m2 = np.abs(core) ** 2
    m4 = m2 * m2 - 1.0
    if case == CASE_HOLOMORPHIC:
        a = np.conj(gz) / (m4 * np.conj(core))
        b = m2 * np.conj(core) * gz / m4
    else:
        a = np.conj(gzb) / (m4 * np.conj(core))
        b = m2 * np.conj(core) * gzb / m4
    return a, b


def compatibility_residual(g: ComplexField, G: ComplexField, idx,
                           case: int = CASE_HOLOMORPHIC) -> complex:
    """Discrete residual of the compatibility PDE at one interior node."""
    i, j = idx
    nu, nv = g.shape
    if not (1 <= i <= nu - 2 and 1 <= j <= nv - 2):
        raise OutsideDomain(f"index {idx} is not interior to the {nu}x{nv} grid")
    gval = g.values[i, j]
    if abs(abs(gval) - 1.0) < DEFAULT_STANDOFF / 2.0:
        raise UnitModulusSingularity(
            f"|g| = {abs(gval):.6g} too close to the excluded circle")
    return compatibility_residual_field(g, G, case)[i - 1, j - 1]


def compatibility_residual_field(g: ComplexField, G: ComplexField,
                                 case: int = CASE_HOLOMORPHIC) -> np.ndarray:
    """Residual of the compatibility PDE at every interior node."""
    a, b = _coefficients(g, case)
    Gz, Gzb = _first_derivatives(G.values, G.du, G.dv)
    Gzzb = _laplacian_quarter(G.values, G.du, G.dv)
    if case == CASE_HOLOMORPHIC:
        return Gzzb + a * Gz - b * Gzb
    return Gzzb + a * Gzb - b * Gz


def solve_far_map(g: ComplexField, boundary,
                  case: int = CASE_HOLOMORPHIC) -> ComplexField:
    """Dirichlet solve of the compatibility PDE for the far map G.

    ``boundary`` is a callable z -> complex or a full-grid array whose
    boundary ring supplies the Dirichlet data.  The discretized equation is
    one complex linear system with one unknown per interior node, assembled
    from array slices of the 5-point stencil and factored by direct sparse LU
    with partial pivoting; the discrete residual of the returned field is at
    rounding level.
    """
    nu, nv = g.shape
    if nu > MAX_GRID or nv > MAX_GRID:
        raise ConstraintViolation(f"grid {nu}x{nv} exceeds the {MAX_GRID} cap")
    if nu < 3 or nv < 3:
        raise ConstraintViolation("grid needs at least one interior node")
    validate_normal_field(g, case)
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

    a, b = _coefficients(g, case)
    du, dv = g.du, g.dv
    ni, nj = nu - 2, nv - 2
    n_int = ni * nj

    # Complex stencil coefficients; the first-order terms attach A to one
    # Wirtinger derivative and -B to the other depending on the case.
    cu = (a - b) / (4.0 * du)                # multiplies G[i+1] - G[i-1]
    cv = (-1j if case == CASE_HOLOMORPHIC else 1j) * (a + b) / (4.0 * dv)
    lap_u = 1.0 / (4.0 * du * du)
    lap_v = 1.0 / (4.0 * dv * dv)
    east, west = lap_u + cu, lap_u - cu      # weights of G[i+1, j], G[i-1, j]
    north, south = lap_v + cv, lap_v - cv    # weights of G[i, j+1], G[i, j-1]

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

    try:
        # The 5-point pattern is structurally symmetric, so a minimum-degree
        # ordering of A^T + A fits it: L + U holds 0.65 M nonzeros at 129^2,
        # where COLAMD's column ordering fills 1.19 M.
        lu = splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        pivot = None
        match = re.search(r"\d+", str(exc))
        if match:
            pivot = int(match.group())
        raise SingularSystem(f"factorization failed: {exc}", pivot) from None
    interior = lu.solve(rhs.ravel())

    values = bvals.copy()
    values[1:-1, 1:-1] = interior.reshape(ni, nj)
    return ComplexField(values, g.u0, g.v0, du, dv, ROLE_FAR_MAP)


@dataclass(frozen=True)
class BuiltSurface:
    """Surface samples on the interior grid plus per-sample diagnostics."""

    case: int
    u_coords: np.ndarray          # interior parameter coordinates
    v_coords: np.ndarray
    samples: np.ndarray           # (ni, nj, 3), NaN rows where dropped
    kept: np.ndarray              # boolean (ni, nj)
    drop_reason: np.ndarray       # object array, "" where kept
    residual: np.ndarray          # compatibility residual per node
    ratio: np.ndarray             # first-constraint ratio (complex)
    modulus_margin: np.ndarray    # second-constraint margin (> 0 where kept)
    height_imag_rel: np.ndarray   # relative imaginary part of the raw height
    eta3_predicted: np.ndarray    # (1 + |g|^2)/(|g|^2 - 1), signed per case
    g_core: np.ndarray            # g restricted to the interior grid
    far_core: np.ndarray          # G restricted to the interior grid
    complex_height: np.ndarray    # raw height before taking the real part

    @property
    def kept_count(self):
        return int(self.kept.sum())


def build_surface(g: ComplexField, G: ComplexField, case: int = CASE_HOLOMORPHIC,
                  im_tol: float = 1e-8) -> BuiltSurface:
    """Assemble the surface from the two fields on the interior grid.

    Samples violating the pointwise constraints are dropped and recorded; a
    kept sample whose raw height has relative imaginary part above ``im_tol``
    raises NonRealHeight (exact field data sits at rounding level; fields
    from the Dirichlet solver carry O(h^2) imaginary contamination, so pass a
    discretization-sized tolerance for them).
    """
    validate_normal_field(g, case)
    gz, gzb = _first_derivatives(g.values, g.du, g.dv)
    Gz, Gzb = _first_derivatives(G.values, G.du, G.dv)
    core_g = g.values[1:-1, 1:-1]
    core_G = G.values[1:-1, 1:-1]
    m2 = np.abs(core_g) ** 2

    deriv = gz if case == CASE_HOLOMORPHIC else gzb
    numer = Gz if case == CASE_HOLOMORPHIC else Gzb
    other = Gzb if case == CASE_HOLOMORPHIC else Gz

    ni, nj = core_g.shape
    drop = np.full((ni, nj), "", dtype=object)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer / deriv if case == CASE_HOLOMORPHIC \
            else numer / (m2 * deriv)
        height_c = (1.0 + m2) / (m2 * deriv) * numer
        w = core_G - (1.0 + m2) / (np.conj(core_g) * deriv) * numer

    deriv_zero = np.abs(deriv) < 1e-14 * (1.0 + np.abs(core_g))
    drop[deriv_zero] = DROP_DERIV_ZERO
    ratio_bad = ~deriv_zero & ~(ratio.real > 0.0)
    drop[ratio_bad] = DROP_RATIO_SIGN
    if case == CASE_HOLOMORPHIC:
        margin = m2 * np.abs(other) - np.abs(numer)
    else:
        margin = np.abs(numer) - m2 * np.abs(other)
    modulus_bad = ~deriv_zero & ~ratio_bad & ~(margin > 0.0)
    drop[modulus_bad] = DROP_MODULUS

    kept = drop == ""
    if not kept.any():
        raise EmptyOutput("every sample violates a pointwise constraint")

    im_rel = np.zeros((ni, nj))
    nonzero = np.abs(height_c) > 0
    im_rel[nonzero] = np.abs(height_c.imag[nonzero]) / np.abs(height_c[nonzero])
    bad_imag = kept & (im_rel > im_tol)
    if bad_imag.any():
        i, j = np.argwhere(bad_imag)[0]
        raise NonRealHeight(
            f"kept sample ({i}, {j}) has relative imaginary height "
            f"{im_rel[i, j]:.3e} > {im_tol:.1e} (first-constraint failure)")

    samples = np.full((ni, nj, 3), np.nan)
    samples[..., 0] = np.where(kept, w.real, np.nan)
    samples[..., 1] = np.where(kept, w.imag, np.nan)
    samples[..., 2] = np.where(kept, height_c.real, np.nan)

    sign = 1.0 if case == CASE_HOLOMORPHIC else -1.0
    eta3 = sign * (1.0 + m2) / np.abs(m2 - 1.0)
    residual = compatibility_residual_field(g, G, case)

    return BuiltSurface(
        case=case,
        u_coords=g.u_coords()[1:-1],
        v_coords=g.v_coords()[1:-1],
        samples=samples,
        kept=kept,
        drop_reason=drop,
        residual=residual,
        ratio=ratio,
        modulus_margin=margin,
        height_imag_rel=im_rel,
        eta3_predicted=eta3,
        g_core=core_g.copy(),
        far_core=core_G.copy(),
        complex_height=height_c,
    )


def surface_identity_defect(built: BuiltSurface) -> float:
    """Max |x1 + i x2 + x3 g - G| over kept samples with the raw height.

    Algebraically zero; anything above rounding indicates an assembly bug.
    """
    kept = built.kept
    w = built.samples[..., 0] + 1j * built.samples[..., 1]
    lhs = w + built.complex_height * built.g_core
    return float(np.abs((lhs - built.far_core)[kept]).max())


def radial_profile(s_span):
    """Profile F for the rotationally equivariant far map of g(z) = z.

    Solves s^2 (s^2 - 1) F'' + s (s^2 - 1) F' + F = 0 across ``s_span`` with
    F = RADIAL_F0, F' = RADIAL_SLOPE at the left end; returns a vectorized
    callable F(s).
    """
    lo, hi = float(s_span[0]), float(s_span[1])
    if lo <= 1.0:
        raise ConstraintViolation("profile domain must satisfy s > 1")
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        f, fp = y
        return [fp, -(s * (s * s - 1.0) * fp + f) / (s * s * (s * s - 1.0))]

    sol = solve_ivp(rhs, (lo, hi), [RADIAL_F0, RADIAL_SLOPE], rtol=1e-12,
                    atol=1e-14, dense_output=True).sol

    def profile(s):
        s = np.clip(np.asarray(s, dtype=float), lo, hi)
        return sol(s.ravel())[0].reshape(s.shape)

    return profile


def radial_test_pair(domain, shape):
    """Exact (g, G) = (z, z F(|z|^2)) fields on the grid for the test problem."""
    u0, u1, v0, v1 = domain
    umin = 0.0 if u0 <= 0.0 <= u1 else min(abs(u0), abs(u1))
    vmin = 0.0 if v0 <= 0.0 <= v1 else min(abs(v0), abs(v1))
    s_lo = umin * umin + vmin * vmin
    s_hi = max(abs(u0), abs(u1)) ** 2 + max(abs(v0), abs(v1)) ** 2
    if s_lo <= 1.0:
        raise ConstraintViolation("domain must keep |z| > 1 for the test problem")
    profile = radial_profile((s_lo, s_hi))
    g = ComplexField.from_function(lambda z: z, domain, shape, ROLE_NORMAL_MAP)
    G = ComplexField.from_function(
        lambda z: z * profile(np.abs(z) ** 2), domain, shape, ROLE_FAR_MAP)
    return g, G


def sample_jets(built: BuiltSurface):
    """Grid-difference two-jets at every node whose 3x3 neighborhood was kept.

    Yields (i, j, Jet2); jets come from the discrete samples only, so
    downstream forms are independent of the construction formulas.
    """
    from . import calculus as calc

    kept = built.kept
    ni, nj = kept.shape
    if min(ni, nj) < 3:
        return                                # no node has a whole 3x3 block
    du = built.u_coords[1] - built.u_coords[0]
    dv = built.v_coords[1] - built.v_coords[0]
    x = built.samples
    core = x[1:-1, 1:-1]
    east, west = x[2:, 1:-1], x[:-2, 1:-1]        # samples at i + 1, i - 1
    north, south = x[1:-1, 2:], x[1:-1, :-2]      # samples at j + 1, j - 1
    first = np.stack([(east - west) / (2 * du), (north - south) / (2 * dv)],
                     axis=-1)
    cross = (x[2:, 2:] - x[2:, :-2] - x[:-2, 2:] + x[:-2, :-2]) / (4 * du * dv)
    second = np.stack([
        np.stack([(east - 2 * core + west) / du**2, cross], axis=-1),
        np.stack([cross, (north - 2 * core + south) / dv**2], axis=-1),
    ], axis=-2)
    whole = np.logical_and.reduce([kept[di:ni - 2 + di, dj:nj - 2 + dj]
                                   for di in range(3) for dj in range(3)])
    for ci, cj in np.argwhere(whole).tolist():
        yield ci + 1, cj + 1, calc.Jet2(core[ci, cj], first[ci, cj], second[ci, cj])


def recovered_gauss_map(built: BuiltSurface):
    """Normal Gauss map recomputed from the built samples by grid differences.

    Independent of the construction formulas: jets come from the sample grid,
    the normal from orthogonality in the ambient metric, and the map from
    stereographic projection.  Returns (mask, g_rec, eta3) where the mask
    marks nodes whose full 3x3 neighborhood was kept.  A node whose induced
    metric is degenerate or not space-like raises, as in fundamental_forms.
    """
    from . import ambient as amb
    from . import forms, gaussmaps

    space = amb.de_sitter_space()
    orientation = 1 if built.case == CASE_HOLOMORPHIC else -1
    ni, nj = built.kept.shape
    mask = np.zeros((ni, nj), dtype=bool)
    g_rec = np.zeros((ni, nj), dtype=complex)
    eta3 = np.zeros((ni, nj))
    for i, j, jet in sample_jets(built):
        eta = forms.frame_normal(space, jet, orientation)
        value = gaussmaps.stereo_project(eta, space)
        if gaussmaps.is_infinity(value):
            continue
        mask[i, j] = True
        g_rec[i, j] = value
        eta3[i, j] = eta[2]
    return mask, g_rec, eta3


def field_to_rows(fld: ComplexField):
    """CSV rows (i, j, u, v, Re, Im) in row-major order."""
    us, vs = fld.u_coords(), fld.v_coords()
    for i in range(fld.shape[0]):
        for j in range(fld.shape[1]):
            val = fld.values[i, j]
            yield i, j, us[i], vs[j], val.real, val.imag
