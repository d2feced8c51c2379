"""Prescribed-Gauss-map construction of space-like de Sitter surfaces.

Given a normal-map field g on a rectangular grid (holomorphic with |g| > 1,
or antiholomorphic with |g| < 1) and boundary values for the far map G, the
module solves the compatibility PDE (linear over C in G) on the complex
5-point stencil by GMRES with a fast sine-transform Poisson preconditioner,
with numpy alone, screens the pointwise constraints, builds the surface from
the closed-form component formulas and recomputes g from the samples alone, on
whole grid arrays.  Derivatives are central differences.

The canonical test problem g(z) = z has a rotationally equivariant companion
far map G = z F(|z|^2); `radial_profile` writes F in closed form through the
complete elliptic integrals K and E, by the arithmetic-geometric mean with
numpy alone, so solver output can be checked against exact data and
theorem-valid fields can be manufactured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ambient, forms, gaussmaps
from .errors import (ConstraintViolation, DegenerateInput, EmptyOutput,
                     NonRealHeight, SingularSystem)

DS3 = ambient.de_sitter_space()     # the space of the built surfaces
CASE_HOLOMORPHIC = 1       # |g| > 1
CASE_ANTIHOLOMORPHIC = 2   # |g| < 1

DEFAULT_STANDOFF = 0.1     # minimum distance of |g| from the excluded circle
MAX_GRID = 129             # solver guard; acceptance runs need 65^2
SOLVE_TOL = 2.0 ** -53     # far-map solve: residual / (|rhs| + s |G|)
SOLVE_RESTART = 30         # Krylov vectors between GMRES restarts
SOLVE_MAX_ITER = 1000      # iteration cap
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
    """First-order coefficients of the compatibility operator on the interior.

    A field whose modulus or derivatives overflow gives inf or NaN entries
    silently; `solve_far_map` rejects them before the solve.
    """
    gz, gzb = _first_derivatives(g.values, g.du, g.dv)
    core = g.values[1:-1, 1:-1]
    deriv = gz if case == CASE_HOLOMORPHIC else gzb
    with np.errstate(all="ignore"):
        m2 = np.abs(core) ** 2
        m4 = m2 * m2 - 1.0
        return (np.conj(deriv) / (m4 * np.conj(core)),
                m2 * np.conj(core) * deriv / m4)


def compatibility_residual_field(g: ComplexField, G: ComplexField,
                                 case: int = CASE_HOLOMORPHIC) -> np.ndarray:
    """Residual of the compatibility PDE at every interior node."""
    a, b = _coefficients(g, case)
    Gz, Gzb = _first_derivatives(G.values, G.du, G.dv)
    Gzzb = _laplacian_quarter(G.values, G.du, G.dv)
    if case == CASE_HOLOMORPHIC:
        return Gzzb + a * Gz - b * Gzb
    return Gzzb + a * Gzb - b * Gz


def check_grid(nu: int, nv: int):
    """Raise ConstraintViolation unless solve_far_map takes an nu x nv grid."""
    if nu > MAX_GRID or nv > MAX_GRID:
        raise ConstraintViolation(f"grid {nu}x{nv} exceeds the {MAX_GRID} cap")
    if nu < 3 or nv < 3:
        raise ConstraintViolation("grid needs at least one interior node")


def _sine_transform(x, bufs, fft):
    """-4 times the 2-D DST-I of x, sum_n x_n sin(pi n k / (N + 1)) on each axis: per
    axis, the FFT y of x zero-padded in a buffer of 2N + 2 rows gives y[-k] - y[k]."""
    for buf in bufs:
        n = len(x)
        buf[1:n + 1] = x
        y = fft.fft(buf, axis=0)
        x = (y[:n + 1:-1] - y[1:n + 1]).T
    return x


def solve_far_map(g: ComplexField, boundary,
                  case: int = CASE_HOLOMORPHIC) -> ComplexField:
    """Dirichlet solve of the compatibility PDE for the far map G.

    ``boundary`` is a callable z -> complex or a full-grid array whose
    boundary ring supplies the Dirichlet data.  The discretized equation has
    one unknown per interior node and is applied as the 5-point stencil on
    whole arrays.  Restarted GMRES (Saad and Schultz 1986) solves it, right-
    preconditioned by the exact inverse of the Laplacian part, which the 2-D
    sine transform diagonalizes (Buzbee, Golub and Nielson 1970), and stops
    when the true residual is at rounding level: SOLVE_TOL times the norm of
    |rhs| + s |G|, s the sum of the stencil's absolute weights at each node,
    the size of the terms whose rounding makes it.  A solve still above that
    after SOLVE_MAX_ITER iterations, or not finite, raises SingularSystem.
    """
    nu, nv = g.shape
    check_grid(nu, nv)
    validate_normal_field(g, case)
    from numpy import fft

    if callable(boundary):
        bvals = np.asarray(boundary(g.z_grid()), dtype=complex)
        if bvals.shape != (nu, nv):
            bvals = np.broadcast_to(bvals, (nu, nv)).astype(complex)
    else:
        bvals = np.asarray(boundary, dtype=complex)
        if bvals.shape != (nu, nv):
            raise ValueError(f"boundary array must have shape {(nu, nv)}")

    a, b = _coefficients(g, case)
    du, dv = g.du, g.dv
    ni, nj = nu - 2, nv - 2

    # Complex stencil coefficients; the first-order terms attach A to one
    # Wirtinger derivative and -B to the other depending on the case.
    with np.errstate(all="ignore"):
        cu = (a - b) / (4.0 * du)            # multiplies G[i+1] - G[i-1]
        cv = (-1j if case == CASE_HOLOMORPHIC else 1j) * (a + b) / (4.0 * dv)
        lap_u = 1.0 / (4.0 * du * du)
        lap_v = 1.0 / (4.0 * dv * dv)
        east, west = lap_u + cu, lap_u - cu  # weights of G[i+1, j], G[i-1, j]
        north, south = lap_v + cv, lap_v - cv  # weights of G[i, j+1], G[i, j-1]
    if not all(np.isfinite(w).all() for w in (east, west, north, south)):
        raise ConstraintViolation("compatibility stencil has a non-finite "
                                  "coefficient: the normal-map field overflows")

    diag = -2.0 * (lap_u + lap_v)
    size = abs(diag) + sum(np.abs(w) for w in (east, west, north, south))

    def stencil(full):         # at the interior nodes of a whole grid
        return (diag * full[1:-1, 1:-1] + east * full[2:, 1:-1] + west * full[:-2, 1:-1]
                + north * full[1:-1, 2:] + south * full[1:-1, :-2])

    def operator(x):           # with Dirichlet data zero
        return stencil(np.pad(x, 1))

    ring = bvals.copy()
    ring[1:-1, 1:-1] = 0.0
    with np.errstate(all="ignore"):
        rhs = -stencil(ring)
    if np.isfinite(ring).all() and not np.isfinite(rhs).all():
        raise ConstraintViolation("compatibility stencil has a non-finite boundary "
                                  "term: the boundary data overflows")
    # Scaled by a power of two, the solve keeps its bits and no norm overflows.
    unit = 2.0 ** -np.frexp(np.abs(rhs).max())[1]
    rhs = rhs * unit

    # The sine transform diagonalizes the Laplacian, with eigenvalues
    # -(sin^2(pi k / 2(ni + 1)) / du^2 + the same in v); it squares to
    # (N + 1)/2 on each axis, and the two transforms carry (-4)^2 = 16.
    ku = np.sin(np.pi / (2 * ni + 2) * np.arange(1, ni + 1)) ** 2 / du**2
    kv = np.sin(np.pi / (2 * nj + 2) * np.arange(1, nj + 1)) ** 2 / dv**2
    weight = -1.0 / (4.0 * (ni + 1) * (nj + 1) * (ku[:, None] + kv))
    bufs = np.zeros((2 * ni + 2, nj), complex), np.zeros((2 * nj + 2, ni), complex)

    def precondition(x):
        return _sine_transform(weight * _sine_transform(x, bufs, fft), bufs, fft)

    def rotate(v, i, c, s):    # a Givens rotation of v[i], v[i + 1]
        v[i:i + 2] = c * v[i] + s * v[i + 1], c * v[i + 1] - np.conj(s) * v[i]

    # Norms are numpy sums, and sums over the basis go row by row, so no BLAS
    # call is long enough to be threaded: the bits do not depend on threads.
    def norm(x):
        return np.sqrt(np.sum(np.abs(x) ** 2))

    with np.errstate(all="ignore"):       # a non-finite residual raises
        interior, done = precondition(rhs), 0      # the Laplacian's solution first
        while True:
            r = rhs - operator(interior)
            beta, scale = norm(r), norm(np.abs(rhs) + size * np.abs(interior))
            if beta <= SOLVE_TOL * scale:
                break
            if done >= SOLVE_MAX_ITER or not np.isfinite(beta):
                raise SingularSystem("far-map solve did not reach rounding level",
                                     done, beta / scale)
            basis = np.empty((ni, SOLVE_RESTART + 1, nj), complex)   # vector k is basis[:, k]
            hess = np.zeros((SOLVE_RESTART + 1, SOLVE_RESTART), complex)
            gamma, rotations = np.zeros(SOLVE_RESTART + 1, complex), []
            basis[:, 0], gamma[0] = r / beta, beta
            for k in range(SOLVE_RESTART):
                w = operator(precondition(basis[:, k]))
                for _ in range(2):         # classical Gram-Schmidt, run twice
                    h = (basis[:, :k + 1] @ w.conj()[..., None]).sum(axis=0)[:, 0].conj()
                    w = w - h @ basis[:, :k + 1]
                    hess[:k + 1, k] += h
                hess[k + 1, k] = norm_w = norm(w)
                for i, rotation in enumerate(rotations):
                    rotate(hess[:, k], i, *rotation)
                top, rho = hess[k, k], np.hypot(abs(hess[k, k]), norm_w)
                rotations.append((abs(top) / rho, top * norm_w / (abs(top) * rho) if top else 1.0))
                rotate(hess[:, k], k, *rotations[k])
                rotate(gamma, k, *rotations[k])
                done += 1
                # Aim 16x below the goal, so the update's rounding cannot leave the
                # true residual above it, where the next cycle would stall.
                if abs(gamma[k + 1]) <= SOLVE_TOL * scale / 16 or done >= SOLVE_MAX_ITER:
                    break
                basis[:, k + 1] = w / norm_w
            y = np.linalg.solve(np.triu(hess[:k + 1, :k + 1]), gamma[:k + 1])
            interior = interior + precondition(y @ basis[:, :k + 1])

    ring[1:-1, 1:-1] = interior / unit
    return ComplexField(ring, g.u0, g.v0, du, dv, ROLE_FAR_MAP)


@dataclass(frozen=True)
class BuiltSurface:
    """Surface samples on the interior grid plus per-sample diagnostics."""

    case: int
    u_coords: np.ndarray          # interior parameter coordinates
    v_coords: np.ndarray
    samples: np.ndarray           # (ni, nj, 3), NaN rows where dropped
    kept: np.ndarray              # boolean (ni, nj)
    drop_reason: np.ndarray       # object array, "" where kept
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

    return BuiltSurface(
        case=case,
        u_coords=g.u_coords()[1:-1],
        v_coords=g.v_coords()[1:-1],
        samples=samples,
        kept=kept,
        drop_reason=drop,
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
    x = (built.samples[..., 0], built.samples[..., 1], built.complex_height)
    lhs = gaussmaps.far_gauss_map(x, built.g_core)
    return float(np.abs((lhs - built.far_core)[built.kept]).max())


def _radial_basis(s):
    """y1 = E(k), y2 = -(K - E)(k') and their s-derivatives, k = 1/s.

    K and E come from the arithmetic-geometric mean (DLMF 19.8.1-2), run for
    the moduli k and k' at once: from a0 = 1, b0 the complementary modulus
    and c0 the modulus, K = pi / (2 a_N) and K - E = K sum_n 2^(n-1) c_n^2,
    with c_(n+1) = c_n^2 / (4 a_(n+1)) free of cancellation.  An element
    stops once c_n <= 2^-53 a_n, so its values do not depend on the others.
    """
    k = 1.0 / s
    kc = np.sqrt((1.0 - k) * (1.0 + k))
    a, b, c = np.ones((2,) + k.shape), np.stack([kc, k]), np.stack([k, kc])
    total, weight = 0.5 * c * c, 0.5
    live = c > 2.0 ** -53 * a
    while live.any():
        a, b, c = np.where(live, (a + b) / 2.0, a), np.sqrt(a * b), c * c / (2.0 * (a + b))
        weight *= 2.0
        total = total + weight * c * c
        live &= c > 2.0 ** -53 * a
    big_k = np.pi / (2.0 * a)
    (e, ec), (k_minus_e, kc_minus_e) = big_k - big_k * total, big_k * total
    return e, -kc_minus_e, k_minus_e / s, -ec / s


def radial_profile(s_span):
    """Profile F for the rotationally equivariant far map of g(z) = z.

    Solves s^2 (s^2 - 1) F'' + s (s^2 - 1) F' + F = 0 across ``s_span`` with
    F = RADIAL_F0, F' = RADIAL_SLOPE at the left end; returns a vectorized
    callable F(s) that clips s to the span.  With k = 1/s the equation is
    Legendre's equation for complete elliptic integrals (DLMF 19.4), solved
    by y1 = E(k) and y2 = -(K - E)(k'); F = F0 + A (y1 - y1(s_lo)) +
    B (y2 - y2(s_lo)) is F0 exactly at s_lo.  It agrees with a DOP853 solve
    at rtol 1e-14 to about 1e-13.
    """
    lo, hi = float(s_span[0]), float(s_span[1])
    if not 1.0 < lo < hi < np.inf:
        raise ConstraintViolation("profile domain must satisfy 1 < s_lo < s_hi < inf")
    y1, y2, dy1, dy2 = _radial_basis(np.array(lo))
    det = y1 * dy2 - y2 * dy1
    a = (RADIAL_F0 * dy2 - y2 * RADIAL_SLOPE) / det
    b = (y1 * RADIAL_SLOPE - dy1 * RADIAL_F0) / det

    def profile(s):
        z1, z2, _, _ = _radial_basis(np.clip(np.asarray(s, dtype=float), lo, hi))
        return RADIAL_F0 + a * (z1 - y1) + b * (z2 - y2)

    return profile


def radial_test_pair(domain, shape):
    """Exact (g, G) = (z, z F(|z|^2)) fields on the grid for the test problem."""
    u0, u1, v0, v1 = domain
    umin = 0.0 if u0 <= 0.0 <= u1 else min(abs(u0), abs(u1))
    vmin = 0.0 if v0 <= 0.0 <= v1 else min(abs(v0), abs(v1))
    umax, vmax = max(abs(u0), abs(u1)), max(abs(v0), abs(v1))
    s_lo = umin * umin + vmin * vmin
    s_hi = umax * umax + vmax * vmax
    if s_lo <= 1.0:
        raise ConstraintViolation("domain must keep |z| > 1 for the test problem")
    if s_hi == np.inf:
        raise ConstraintViolation("domain corners overflow |z|^2 for the test problem")
    profile = radial_profile((s_lo, s_hi))

    def far_map(z):
        with np.errstate(over="ignore"):    # an overflowing |z|^2 clips to s_hi
            return z * profile(np.abs(z) ** 2)

    g = ComplexField.from_function(lambda z: z, domain, shape, ROLE_NORMAL_MAP)
    G = ComplexField.from_function(far_map, domain, shape, ROLE_FAR_MAP)
    return g, G


def recovered_gauss_map(built: BuiltSurface):
    """Normal Gauss map recomputed from the built samples by grid differences.

    Reads only the samples, kept mask, grid and case, so it is independent of
    the construction formulas.  Works on whole interior arrays with
    forms.frame_normals and the quadric defect of gaussmaps, rounding each
    step as forms.frame_normal and gaussmaps.stereo_project do at one node; the nodes
    that fail the predicates of their checks run through both in row-major
    order, so the first raises its own error.  Returns (mask, g_rec, eta3); the
    mask marks nodes with a kept 3x3 neighborhood whose image is not the pole.
    """
    ni, nj = built.kept.shape
    if min(ni, nj) < 3:                       # no node has a whole 3x3 block
        return tuple(np.zeros((ni, nj), t) for t in (bool, complex, float))
    whole = np.lib.stride_tricks.sliding_window_view(built.kept, (3, 3)).all((2, 3))
    x, h = built.samples, built.samples[1:-1, 1:-1, 2]
    du, dv = (c[1] - c[0] for c in (built.u_coords, built.v_coords))
    tangents = tuple(zip(np.moveaxis((x[2:, 1:-1] - x[:-2, 1:-1]) / (2 * du), -1, 0),
                         np.moveaxis((x[1:-1, 2:] - x[1:-1, :-2]) / (2 * dv), -1, 0)))
    orientation = 1 if built.case == CASE_HOLOMORPHIC else -1
    with np.errstate(all="ignore"):
        (e1, e2, e3), ok = forms.frame_normals(DS3, h, tangents, orientation)
        # 1 - e3 cancels near the pole; above it the quadric gives it exactly.
        denom = np.where(e3 > 0.0, -(e1 * e1 + e2 * e2) / (1.0 + e3), 1.0 - e3)
        # complex / float divides the two parts separately
        g = (np.stack([e1, e2], axis=-1) / denom[..., None]).view(complex)[..., 0]
        ok &= ~gaussmaps.off_quadric(gaussmaps._quadric_defect((e1, e2, e3), DS3))
    for node in zip(*np.nonzero(whole & ~ok)):    # the first failing node raises
        at = [(float(a[node]), float(b[node])) for a, b in tangents]
        gaussmaps.stereo_project(forms.frame_normal(DS3, float(h[node]), at, orientation), DS3)
    keep = whole & ~(np.abs(denom) < gaussmaps.POLE_TOL)
    return tuple(np.pad(np.where(keep, v, False), 1) for v in (keep, g, e3))


def field_to_rows(fld: ComplexField):
    """CSV rows (i, j, u, v, Re, Im) in row-major order."""
    us, vs = fld.u_coords(), fld.v_coords()
    for i in range(fld.shape[0]):
        for j in range(fld.shape[1]):
            val = fld.values[i, j]
            yield i, j, us[i], vs[j], val.real, val.imag
