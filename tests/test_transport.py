"""Sweep and closure-extraction checks against independent oracles."""
import dataclasses

import numpy as np
import pytest

from qdrom.materials import FrequencyGrid, MaterialModel, planck_spectrum
from qdrom.loqd import MomentSystem
from qdrom.mesh import SIDES, SpatialMesh
from qdrom.quadrature import QuadratureSpecError, build_quadrature
from qdrom.transport import (
    ClosureRecord,
    DegenerateIntensityError,
    ShapeError,
    TransportSolver,
    intensity_unknowns,
)

MAT = MaterialModel()
GRID2 = FrequencyGrid(np.array([0.0, 2.0, 1.0e7]))


def make_solver(nx=3, ny=3, per_quadrant=1, grid=GRID2, bc=None, dx=0.5, dy=0.5):
    mesh = SpatialMesh.uniform(nx, ny, dx, dy)
    quad = build_quadrature(per_quadrant)
    if bc is None:
        bc = np.zeros((grid.n_groups, len(SIDES)))
    return TransportSolver(mesh, quad, grid, bc)


def side_inflow(sol, name):
    """The solver's inflow per group through side `name`."""
    return sol.inflow[:, SIDES.index(name)]


def blackbody_bc(T_in, grid, sides=SIDES):
    """Isotropic B_g(T_in) inflow on the named sides, vacuum elsewhere: (n_g, side)."""
    b = planck_spectrum(T_in, grid, radiation_constant=MAT.radiation_constant,
                        light_speed=MAT.light_speed)
    return np.stack([b if side in sides else np.zeros(grid.n_groups) for side in SIDES],
                    axis=1)


#: a different inflow per side (left, bottom, right, top), so that a side
#: placed in another side's slot cannot match
SIDE_INFLOW = (0.9, 0.3, 0.6, 0.1)


def side_inflow_bc():
    scale = np.array([1.0, 0.5])  # per group of GRID2
    return np.outer(scale, SIDE_INFLOW)


def dense_corner_oracle(mu, eta, dx, dy, ktil, q_corners, in_w, in_e, in_s, in_n):
    """Assemble the 4x4 SCB corner system from subcell balances and solve.

    Corner order SW, SE, NW, NE.  in_w/in_e are (bottom, top) incoming traces
    on the west/east cell faces, in_s/in_n are (left, right) on south/north.
    """
    hx, hy = 0.5 * dy, 0.5 * dx  # face-segment lengths for x/y streaming
    corners = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    A = np.zeros((4, 4))
    b = np.array(q_corners, dtype=float) * dx * dy / 4.0
    for (cx, cy), c in corners.items():
        A[c, c] += ktil * dx * dy / 4.0
        # x faces of the subcell: west (normal -x), east (normal +x)
        for side, nrm in (("w", -1.0), ("e", 1.0)):
            interior = (side == "e" and cx == 0) or (side == "w" and cx == 1)
            upwind_own = (nrm * mu) > 0
            if interior:
                donor = corners[(1 - cx, cy)] if not upwind_own else c
                A[c, donor] += nrm * mu * hx
            else:
                if upwind_own:
                    A[c, c] += nrm * mu * hx
                else:
                    inc = in_w[cy] if side == "w" else in_e[cy]
                    b[c] -= nrm * mu * hx * inc
        for side, nrm in (("s", -1.0), ("n", 1.0)):
            interior = (side == "n" and cy == 0) or (side == "s" and cy == 1)
            upwind_own = (nrm * eta) > 0
            if interior:
                donor = corners[(cx, 1 - cy)] if not upwind_own else c
                A[c, donor] += nrm * eta * hy
            else:
                if upwind_own:
                    A[c, c] += nrm * eta * hy
                else:
                    inc = in_s[cx] if side == "s" else in_n[cx]
                    b[c] -= nrm * eta * hy * inc
    return np.linalg.solve(A, b)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_unknown_count_formula():
    assert intensity_unknowns(20, 20, 17, 144) == 3_916_800
    sol = make_solver(3, 2, per_quadrant=1)
    assert np.prod(sol.shape) == intensity_unknowns(3, 2, 2, 4)


@pytest.mark.parametrize("T_star", [0.001, 0.1, 1.0])
def test_infinite_medium_equilibrium(T_star):
    grid = FrequencyGrid(np.array([0.0, 0.7075, 2.83, 1.0e7]))
    bc = blackbody_bc(T_star, grid)
    sol = make_solver(4, 3, per_quadrant=3, grid=grid, bc=bc)
    I0 = sol.equilibrium_intensity(T_star)
    T_field = np.full((3, 4), T_star)
    kappa = np.moveaxis(MAT.group_opacity(T_field, grid)[0], -1, 0)
    emis = np.moveaxis(planck_spectrum(T_field, grid, radiation_constant=MAT.radiation_constant,
                                       light_speed=MAT.light_speed), -1, 0)
    out = sol.sweep(kappa, emis, I0, dt=0.02)
    assert np.max(np.abs(out - I0)) <= 1e-12 * np.max(I0)


def test_zero_opacity_vacuum_gives_zero():
    sol = make_solver(3, 3)
    kappa = np.zeros((2, 3, 3))
    emis = np.zeros((2, 3, 3))
    I0 = np.zeros(sol.shape)
    out = sol.sweep(kappa, emis, I0, dt=0.5)
    assert np.all(out == 0.0)


def test_single_cell_matches_dense_oracle():
    rng = np.random.default_rng(7)
    grid1 = FrequencyGrid(np.array([0.0, 1.0e7]))
    dx, dy, dt = 0.4, 0.7, 0.05
    mesh = SpatialMesh.uniform(1, 1, dx, dy)
    quad = build_quadrature(1)
    in_val = rng.uniform(0.5, 2.0, size=4)  # per-side isotropic incoming
    bc = in_val[None, :]
    sol = TransportSolver(mesh, quad, grid1, bc)
    kappa = rng.uniform(0.5, 3.0, size=(1, 1, 1))
    emis = rng.uniform(0.5, 3.0, size=(1, 1, 1))
    I_prev = rng.uniform(0.1, 1.0, size=sol.shape)
    out = sol.sweep(kappa, emis, I_prev, dt)
    cdt = MAT.light_speed * dt
    for m in range(quad.n_dirs):
        mu, eta = quad.mu[m], quad.eta[m]
        ktil = kappa[0, 0, 0] + 1.0 / cdt
        q = kappa[0, 0, 0] * emis[0, 0, 0] + I_prev[0, m, 0, 0, :] / cdt
        ref = dense_corner_oracle(
            mu, eta, dx, dy, ktil, q,
            in_w=[in_val[0]] * 2, in_e=[in_val[2]] * 2,
            in_s=[in_val[1]] * 2, in_n=[in_val[3]] * 2,
        )
        assert np.max(np.abs(out[0, m, 0, 0, :] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_multicell_subcell_balance_residual():
    # every subcell of the swept field satisfies its own balance equation
    rng = np.random.default_rng(3)
    sol = make_solver(4, 3, per_quadrant=3)
    dx, dy, dt = 0.5, 0.5, 0.1
    kappa = rng.uniform(0.2, 2.0, size=(2, 3, 4))
    emis = rng.uniform(0.2, 2.0, size=(2, 3, 4))
    I_prev = rng.uniform(0.1, 1.0, size=sol.shape)
    out = sol.sweep(kappa, emis, I_prev, dt)
    cdt = MAT.light_speed * dt
    quad = sol.quad
    corners = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}

    def face_value(g, m, iy, ix, cx, cy, axis):
        mu, eta = quad.mu[m], quad.eta[m]
        comp = mu if axis == 0 else eta
        if axis == 0:
            jx = ix + (1 if cx == 1 else -1)
            if comp > 0 and cx == 1 or comp < 0 and cx == 0:
                return out[g, m, iy, ix, corners[(cx, cy)]]
            if 0 <= jx < 4:
                return out[g, m, iy, jx, corners[(1 - cx, cy)]]
            return side_inflow(sol, "left" if jx < 0 else "right")[g]
        jy = iy + (1 if cy == 1 else -1)
        if comp > 0 and cy == 1 or comp < 0 and cy == 0:
            return out[g, m, iy, ix, corners[(cx, cy)]]
        if 0 <= jy < 3:
            return out[g, m, jy, ix, corners[(cx, 1 - cy)]]
        return side_inflow(sol, "bottom" if jy < 0 else "top")[g]

    def subcell_side_value(g, m, iy, ix, cx, cy, axis, plus_side):
        """Upwind trace on one side of the subcell (axis 0 = x, 1 = y)."""
        comp = quad.mu[m] if axis == 0 else quad.eta[m]
        cpos = cx if axis == 0 else cy
        interior = (plus_side and cpos == 0) or (not plus_side and cpos == 1)
        if interior:
            donor = 1 if comp < 0 else 0
            key = (donor, cy) if axis == 0 else (cx, donor)
            return out[g, m, iy, ix, corners[key]]
        outflow = (comp > 0) == plus_side
        if outflow:
            return out[g, m, iy, ix, corners[(cx, cy)]]
        return face_value(g, m, iy, ix, cx, cy, axis)

    worst = 0.0
    for g in range(2):
        for m in range(quad.n_dirs):
            mu, eta = quad.mu[m], quad.eta[m]
            for iy in range(3):
                for ix in range(4):
                    for (cx, cy), c in corners.items():
                        i_c = out[g, m, iy, ix, c]
                        x_plus = subcell_side_value(g, m, iy, ix, cx, cy, 0, True)
                        x_minus = subcell_side_value(g, m, iy, ix, cx, cy, 0, False)
                        y_plus = subcell_side_value(g, m, iy, ix, cx, cy, 1, True)
                        y_minus = subcell_side_value(g, m, iy, ix, cx, cy, 1, False)
                        flux_x = mu * 0.5 * dy * (x_plus - x_minus)
                        flux_y = eta * 0.5 * dx * (y_plus - y_minus)
                        ktil = kappa[g, iy, ix] + 1.0 / cdt
                        src = (kappa[g, iy, ix] * emis[g, iy, ix]
                               + I_prev[g, m, iy, ix, c] / cdt)
                        res = flux_x + flux_y + (ktil * i_c - src) * dx * dy / 4.0
                        scale = abs(src) * dx * dy / 4.0 + abs(i_c) * ktil * dx * dy / 4.0
                        worst = max(worst, abs(res) / scale)
    assert worst <= 1e-12


def per_cell_sweep(sol, kappa, emission, I_prev, dt, order):
    """Cell-by-cell SCB sweep; order(sx, sy, nx, ny) lists the (iy, ix) cells
    of a quadrant in an order respecting its upwind dependencies."""
    mesh, quad = sol.mesh, sol.quad
    nx, ny = mesh.nx, mesh.ny
    cdt = MAT.light_speed * dt
    ktil = kappa + 1.0 / cdt
    out = np.empty(sol.shape)
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        ms = np.nonzero((np.sign(quad.mu) == sx) & (np.sign(quad.eta) == sy))[0]
        amu, aeta = np.abs(quad.mu[ms])[None, :], np.abs(quad.eta[ms])[None, :]

        def corner(fx, fy):
            return 2 * (fy if sy > 0 else 1 - fy) + (fx if sx > 0 else 1 - fx)
        c00, c10, c01, c11 = corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)
        bx = side_inflow(sol, "left" if sx > 0 else "right")[:, None]
        by = side_inflow(sol, "bottom" if sy > 0 else "top")[:, None]
        for iy, ix in order(sx, sy, nx, ny):
            dx, dy = mesh.dx[ix], mesh.dy[iy]
            quarter = 0.25 * dx * dy
            wx, wy = 0.5 * amu * dy, 0.5 * aeta * dx
            denom = wx + wy + ktil[:, iy, ix, None] * quarter
            s = {c: (kappa[:, iy, ix, None] * emission[:, iy, ix, None]
                     + I_prev[:, ms, iy, ix, c] / cdt) * quarter
                 for c in (c00, c10, c01, c11)}
            jx, jy = ix - sx, iy - sy
            in_x0, in_x1 = ((out[:, ms, iy, jx, c10], out[:, ms, iy, jx, c11])
                            if 0 <= jx < nx else (bx, bx))
            in_y0, in_y1 = ((out[:, ms, jy, ix, c01], out[:, ms, jy, ix, c11])
                            if 0 <= jy < ny else (by, by))
            i00 = (s[c00] + wx * in_x0 + wy * in_y0) / denom
            i10 = (s[c10] + wx * i00 + wy * in_y1) / denom
            i01 = (s[c01] + wx * in_x1 + wy * i00) / denom
            i11 = (s[c11] + wx * i01 + wy * i10) / denom
            out[:, ms, iy, ix, c00] = i00
            out[:, ms, iy, ix, c10] = i10
            out[:, ms, iy, ix, c01] = i01
            out[:, ms, iy, ix, c11] = i11
    return out


def raster_order(sx, sy, nx, ny):
    return [(b if sy > 0 else ny - 1 - b, a if sx > 0 else nx - 1 - a)
            for b in range(ny) for a in range(nx)]


def wavefront_order(sx, sy, nx, ny):
    return [(b if sy > 0 else ny - 1 - b, a if sx > 0 else nx - 1 - a)
            for d in range(nx + ny - 1) for a in range(nx) for b in [d - a] if 0 <= b < ny]


def test_sweep_order_permutation_invariance():
    # the production sweep solves all quadrants by anti-diagonals of the
    # flow-frame corner grid; a per-cell sweep in any upwind-respecting
    # order performs the same operations per unknown, so the fields agree
    # bit for bit.  The anti-diagonal index ranges differ from the square
    # case only when nx != ny; the 10x10 case is the desk mesh and quadrature.
    rng = np.random.default_rng(11)
    for nx, ny, per_quadrant, inflow, uniform in (
            (4, 4, 3, (), True),
            (5, 3, 3, ("left",), True),
            (3, 6, 1, ("left", "bottom"), False),
            (1, 5, 6, ("right", "top"), False),
            (6, 1, 3, ("bottom", "right"), False),
            (10, 10, 4, ("left", "top"), False)):
        sol = make_solver(nx, ny, per_quadrant=per_quadrant,
                          bc=blackbody_bc(0.8, GRID2, inflow))
        if not uniform:
            mesh = SpatialMesh(nx, ny, rng.uniform(0.2, 1.0, nx), rng.uniform(0.2, 1.0, ny))
            sol = TransportSolver(mesh, sol.quad, sol.grid, sol.inflow)
        kappa = rng.uniform(0.2, 2.0, size=(2, ny, nx))
        emis = rng.uniform(0.2, 2.0, size=(2, ny, nx))
        I_prev = rng.uniform(0.1, 1.0, size=sol.shape)
        base = sol.sweep(kappa, emis, I_prev, 0.1)
        for order in (raster_order, wavefront_order):
            alt = per_cell_sweep(sol, kappa, emis, I_prev, 0.1, order)
            assert np.array_equal(alt, base), (nx, ny, order.__name__)


def test_sweep_input_validation():
    sol = make_solver(2, 2)
    with pytest.raises(ShapeError):
        sol.sweep(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((1, 4, 2, 2, 4)), 0.1)
    with pytest.raises(ShapeError):
        sol.sweep(np.zeros((2, 3, 2)), np.zeros((2, 2, 2)), np.zeros(sol.shape), 0.1)
    with pytest.raises(ValueError):
        sol.sweep(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros(sol.shape), -0.1)
    # an emission that would broadcast against kappa is still the wrong shape
    sol = make_solver(3, 3)
    for emis_shape in ((2, 1, 1), (3,)):
        with pytest.raises(ShapeError):
            sol.sweep(np.ones((2, 3, 3)), np.ones(emis_shape), np.ones(sol.shape), 0.1)
    with pytest.raises(ShapeError):
        sol.compute_eddington(np.ones((2, 4, 3, 3, 1)))


def test_solver_rejects_directions_outside_the_quadrants():
    quad = build_quadrature(3)
    # mu = 0 lies on a quadrant boundary: the sweep has no upwind side for it
    mu = quad.mu.copy()
    mu[0] = 0.0
    eta = quad.eta.copy()
    eta[5] = 0.0
    for bad in (dataclasses.replace(quad, mu=mu), dataclasses.replace(quad, eta=eta)):
        with pytest.raises(QuadratureSpecError, match="no quadrant"):
            TransportSolver(SpatialMesh.uniform(2, 2, 0.5, 0.5), bad, GRID2, np.zeros((2, 4)))
    # one direction moved into the next quadrant leaves the lanes unequal
    mu = quad.mu.copy()
    mu[0] = -mu[0]
    with pytest.raises(QuadratureSpecError, match="unequal"):
        TransportSolver(SpatialMesh.uniform(2, 2, 0.5, 0.5), dataclasses.replace(quad, mu=mu),
                        GRID2, np.zeros((2, 4)))


def test_inflow_must_hold_one_column_per_side():
    with pytest.raises(ShapeError, match="inflow shape"):
        make_solver(bc=np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="inflow shape"):
        make_solver(bc=np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

def eddington_ratios(quad, samples):
    """(fxx, fyy, fxy) of samples with the direction index on axis 1."""
    w, mu, eta = quad.weight, quad.mu, quad.eta
    phi = np.einsum("m,gm...->g...", w, samples)
    fxx = np.einsum("m,gm...->g...", w * mu * mu, samples) / phi
    fyy = np.einsum("m,gm...->g...", w * eta * eta, samples) / phi
    fxy = np.einsum("m,gm...->g...", w * mu * eta, samples) / phi
    return fxx, fyy, fxy


def half_range_factor(quad, samples, axis, outward):
    """Outgoing current over outgoing density; axis "x" or "y", outward +-1."""
    comp = quad.mu if axis == "x" else quad.eta
    out = comp * outward > 0.0
    num = np.einsum("m,gm...->g...", (quad.weight * np.abs(comp))[out], samples[:, out])
    return num / np.einsum("m,gm...->g...", quad.weight[out], samples[:, out])


def face_traces(sol, I):
    """Per-direction upwind traces on vertical and horizontal faces."""
    n_g, n_m, ny, nx, _ = I.shape
    mp, ep = sol.quad.mu > 0.0, sol.quad.eta > 0.0
    tv = np.empty((n_g, n_m, ny, nx + 1))
    th = np.empty((n_g, n_m, ny + 1, nx))
    tv[:, mp, :, 1:] = 0.5 * (I[..., 1][:, mp] + I[..., 3][:, mp])
    tv[:, mp, :, 0:1] = side_inflow(sol, "left")[:, None, None, None]
    tv[:, ~mp, :, :nx] = 0.5 * (I[..., 0][:, ~mp] + I[..., 2][:, ~mp])
    tv[:, ~mp, :, nx:] = side_inflow(sol, "right")[:, None, None, None]
    th[:, ep, 1:, :] = 0.5 * (I[..., 2][:, ep] + I[..., 3][:, ep])
    th[:, ep, 0:1, :] = side_inflow(sol, "bottom")[:, None, None, None]
    th[:, ~ep, :ny, :] = 0.5 * (I[..., 0][:, ~ep] + I[..., 1][:, ~ep])
    th[:, ~ep, ny:, :] = side_inflow(sol, "top")[:, None, None, None]
    return tv, th


def eddington_oracle(sol, I):
    """Closures direction by direction: upwind traces, then angular sums.

    Each field is built as (group, grid) and stored as its flat column.
    """
    fxx_c, fyy_c, _ = eddington_ratios(sol.quad, I.mean(axis=4))
    tv, th = face_traces(sol, I)
    fxx_v, _, fxy_v = eddington_ratios(sol.quad, tv)
    _, fyy_h, fxy_h = eddington_ratios(sol.quad, th)
    cb = np.concatenate([half_range_factor(sol.quad, tv[..., 0], "x", -1.0),
                         half_range_factor(sol.quad, th[:, :, 0], "y", -1.0),
                         half_range_factor(sol.quad, tv[..., -1], "x", 1.0),
                         half_range_factor(sol.quad, th[:, :, -1], "y", 1.0)], axis=1)
    return ClosureRecord(*(a.ravel() for a in (fxx_c, fxx_v, fyy_c, fyy_h, fxy_v, fxy_h, cb)))


def test_isotropic_eddington_is_third():
    sol = make_solver(3, 3, per_quadrant=6,
                      bc=np.full((2, 4), 1.7))
    I = np.full(sol.shape, 1.7)
    rec = sol.compute_eddington(I)
    for arr in (rec.fxx_c, rec.fyy_c, rec.fxx_v, rec.fyy_h):
        assert np.max(np.abs(arr - 1.0 / 3.0)) <= 1e-10
    for arr in (rec.fxy_v, rec.fxy_h):
        assert np.max(np.abs(arr)) <= 1e-10


def test_isotropic_boundary_factor_is_half():
    # needs a set with exact half-range currents (>= 2 azimuthal points)
    sol = make_solver(3, 3, per_quadrant=4,
                      bc=np.full((2, 4), 0.9))
    I = np.full(sol.shape, 0.9)
    rec = sol.compute_eddington(I)
    assert np.max(np.abs(rec.cb - 0.5)) <= 1e-10


def test_classic_four_point_boundary_factor():
    # the mandated 1-per-quadrant set has |mu| = 1/sqrt(3) on the half range
    sol = make_solver(2, 2, per_quadrant=1,
                      bc=np.full((2, 4), 1.0))
    I = np.full(sol.shape, 1.0)
    rec = sol.compute_eddington(I)
    assert np.max(np.abs(rec.cb - 1.0 / np.sqrt(3.0))) <= 1e-12


def test_beam_eddington_is_direction_product():
    quad = build_quadrature(3)
    m_sel = 4
    samples = np.zeros((2, quad.n_dirs, 5))
    samples[:, m_sel] = 1.0
    fxx, fyy, fxy = eddington_ratios(quad, samples)
    mu, eta = quad.mu[m_sel], quad.eta[m_sel]
    assert fxx == pytest.approx(mu * mu, rel=1e-14)
    assert fyy == pytest.approx(eta * eta, rel=1e-14)
    assert fxy == pytest.approx(mu * eta, rel=1e-14)


def test_grazing_single_direction_boundary_factor():
    quad = build_quadrature(3)
    m_sel = int(np.nonzero(quad.mu > 0)[0][0])
    samples = np.zeros((1, quad.n_dirs, 3))
    samples[:, m_sel] = 2.0
    cb = half_range_factor(quad, samples, "x", 1.0)
    assert cb == pytest.approx(quad.mu[m_sel], rel=1e-14)


def test_boundary_factors_in_boundary_face_order():
    # nx != ny and a different inflow per side, so a side placed in another
    # side's block of cb cannot match
    nx, ny = 3, 2
    sol = make_solver(nx, ny, per_quadrant=3,
                      bc=np.tile(SIDE_INFLOW, (2, 1)))
    I = sol.sweep(np.full((2, ny, nx), 0.8), np.full((2, ny, nx), 0.2),
                  np.full(sol.shape, 0.05), 0.1)
    rec = sol.compute_eddington(I)
    # outgoing traces from the boundary cells' corners (SW, SE, NW, NE)
    sides = {
        "left": (0.5 * (I[:, :, :, 0, 0] + I[:, :, :, 0, 2]), "x", -1.0),
        "bottom": (0.5 * (I[:, :, 0, :, 0] + I[:, :, 0, :, 1]), "y", -1.0),
        "right": (0.5 * (I[:, :, :, -1, 1] + I[:, :, :, -1, 3]), "x", 1.0),
        "top": (0.5 * (I[:, :, -1, :, 2] + I[:, :, -1, :, 3]), "y", 1.0),
    }
    face_side = MomentSystem(sol.mesh).boundary_side
    assert rec.cb.shape == (2 * face_side.size,) == (2 * 2 * (nx + ny),)
    cb = rec.cb.reshape(2, -1)  # group-major: one row of boundary faces per group
    for side, (trace, axis, outward) in sides.items():
        expected = half_range_factor(sol.quad, trace, axis, outward)
        np.testing.assert_allclose(cb[:, face_side == SIDES.index(side)], expected,
                                   rtol=1e-13, atol=0.0, err_msg=side)


def test_random_closure_matches_summation_oracle():
    rng = np.random.default_rng(5)
    sol = make_solver(2, 2, per_quadrant=3,
                      bc=rng.uniform(0.5, 1.0, (4, 2)).T)
    I = rng.uniform(0.1, 2.0, size=sol.shape)
    rec = sol.compute_eddington(I)
    w, mu, eta = sol.quad.weight, sol.quad.mu, sol.quad.eta
    # cell oracle by explicit loops, on the record's (group, y, x) grids
    fxx_c, cb = rec.fxx_c.reshape(2, 2, 2), rec.cb.reshape(2, -1)
    for iy in range(2):
        for ix in range(2):
            for g in range(2):
                ibar = I[g, :, iy, ix, :].mean(axis=1)
                num = sum(w[m] * mu[m] ** 2 * ibar[m] for m in range(sol.quad.n_dirs))
                den = sum(w[m] * ibar[m] for m in range(sol.quad.n_dirs))
                assert fxx_c[g, iy, ix] == pytest.approx(num / den, rel=1e-13)
    # boundary-factor oracle on the left side
    left = cb[:, MomentSystem(sol.mesh).boundary_side == SIDES.index("left")]
    for iy in range(2):
        for g in range(2):
            num = den = 0.0
            for m in range(sol.quad.n_dirs):
                if mu[m] < 0:
                    tr = 0.5 * (I[g, m, iy, 0, 0] + I[g, m, iy, 0, 2])
                    num += w[m] * (-mu[m]) * tr
                    den += w[m] * tr
            assert left[g, iy] == pytest.approx(num / den, rel=1e-13)


def test_eddington_trace_identity():
    rng = np.random.default_rng(9)
    sol = make_solver(2, 2, per_quadrant=6)
    I = rng.uniform(0.1, 2.0, size=sol.shape)
    w, xi = sol.quad.weight, sol.quad.xi
    ibar = I.mean(axis=4)
    phi = np.einsum("m,gmyx->gyx", w, ibar)
    fzz = np.einsum("m,gmyx->gyx", w * xi * xi, ibar) / phi
    rec = sol.compute_eddington(I)
    assert np.max(np.abs((rec.fxx_c + rec.fyy_c).reshape(fzz.shape) + fzz - 1.0)) <= 1e-12


def test_degenerate_intensity_raises():
    sol = make_solver(2, 2)
    with pytest.raises(DegenerateIntensityError):
        sol.compute_eddington(np.zeros(sol.shape))


@pytest.mark.parametrize("nx, ny, dx, dy, per_quadrant", [
    (3, 2, [0.5] * 3, [0.5] * 2, 3),
    (4, 3, [0.2, 0.5, 1.0, 0.3], [0.7, 0.1, 0.4], 6),
    (1, 3, [0.8], [0.3, 0.6, 0.2], 1),
], ids=["nx != ny", "nonuniform", "nx = 1"])
def test_closures_match_per_direction_oracle(nx, ny, dx, dy, per_quadrant):
    rng = np.random.default_rng(23)
    mesh = SpatialMesh(nx, ny, np.array(dx), np.array(dy))
    sol = TransportSolver(mesh, build_quadrature(per_quadrant), GRID2, side_inflow_bc())
    I = sol.sweep(rng.uniform(0.5, 3.0, (2, ny, nx)), rng.uniform(0.1, 1.0, (2, ny, nx)),
                  rng.uniform(0.05, 1.0, sol.shape), 0.1)
    rec, expected = sol.compute_eddington(I), eddington_oracle(sol, I)
    for f in dataclasses.fields(rec):
        # fxy is a cancelling sum that can sit near 0; |fxy| <= 1 sets its scale
        atol = 1e-15 if f.name.startswith("fxy") else 0.0
        np.testing.assert_allclose(getattr(rec, f.name), getattr(expected, f.name),
                                   rtol=1e-13, atol=atol, err_msg=f.name)


@pytest.mark.parametrize("where, message", [
    ("cell", "in a cell"), ("vface", "on a face"), ("hface", "on a face"),
    ("outgoing boundary", "outgoing current"),
])
def test_each_degenerate_check_raises(where, message):
    # each case zeroes only what its own check sees: the other angular
    # integrals stay positive, so the case fails if its check is removed
    sol = make_solver(3, 3, per_quadrant=3, bc=side_inflow_bc())
    I = np.ones(sol.shape)
    mp, ep = sol.quad.mu > 0.0, sol.quad.eta > 0.0
    if where == "cell":
        I[:, :, 1, 1] = 0.0
    elif where == "vface":
        # between the first two cells of the middle row: the left cell's
        # east corners for mu > 0, the right cell's west corners for mu < 0
        I[:, mp, 1, 0, 1::2] = 0.0
        I[:, ~mp, 1, 1, 0::2] = 0.0
    elif where == "hface":
        # between the first two cells of the middle column: the lower
        # cell's north corners for eta > 0, the upper cell's south ones for eta < 0
        I[:, ep, 0, 1, 2:] = 0.0
        I[:, ~ep, 1, 1, :2] = 0.0
    else:
        # the left side's outgoing half range on its outer corners; the
        # left inflow keeps the face's angular integral positive
        I[:, ~mp, 1, 0, 0::2] = 0.0
    with pytest.raises(DegenerateIntensityError, match=message):
        sol.compute_eddington(I)


def test_boundary_inflow_is_the_quadrature_half_range_sum():
    sol = make_solver(3, 2, per_quadrant=4, bc=side_inflow_bc())
    face_side = MomentSystem(sol.mesh).boundary_side
    e_in, f_in = sol.boundary_inflow(face_side)
    assert e_in.shape == f_in.shape == (2, face_side.size)
    w, mu, eta, c = sol.quad.weight, sol.quad.mu, sol.quad.eta, MAT.light_speed
    for name, comp, incoming in (("left", mu, mu > 0.0), ("bottom", eta, eta > 0.0),
                                 ("right", mu, mu < 0.0), ("top", eta, eta < 0.0)):
        on_side = face_side == SIDES.index(name)
        e, f = e_in[:, on_side], f_in[:, on_side]
        ivals = side_inflow(sol, name)[:, None]
        # bit for bit the quadrature's half-range sums, in the same order
        assert np.all(e == ivals * np.sum(w[incoming]) / c), name
        assert np.all(f == ivals * -np.sum(w[incoming] * np.abs(comp[incoming]))), name
        # isotropic half-range moments E = 2 pi I / c and n.F = -pi I
        assert np.allclose(e, 2.0 * np.pi * ivals / c, rtol=1e-12, atol=0.0), name
        assert np.allclose(f, -np.pi * ivals, rtol=1e-12, atol=0.0), name


def cell_moments(sol, I):
    """(E_g, Fx_g, Fy_g) on cells from corner-averaged intensities."""
    w, mu, eta = sol.quad.weight, sol.quad.mu, sol.quad.eta
    ibar = I.mean(axis=4)
    e = np.einsum("m,gmyx->gyx", w, ibar) / MAT.light_speed
    fx = np.einsum("m,gmyx->gyx", w * mu, ibar)
    fy = np.einsum("m,gmyx->gyx", w * eta, ibar)
    return e, fx, fy


def test_moment_balance_consistency():
    # zeroth angular moment of the sweep satisfies the cell balance built
    # from corner-average E and upwind-trace face fluxes
    rng = np.random.default_rng(13)
    grid = FrequencyGrid(np.array([0.0, 1.0e7]))
    bc = blackbody_bc(0.8, grid, ("left",))
    sol = make_solver(3, 3, per_quadrant=4, grid=grid, bc=bc)
    dt = 0.04
    kappa = rng.uniform(0.5, 2.0, size=(1, 3, 3))
    emis = rng.uniform(0.1, 1.0, size=(1, 3, 3))
    I_prev = rng.uniform(0.1, 1.0, size=sol.shape)
    out = sol.sweep(kappa, emis, I_prev, dt)
    c = MAT.light_speed
    e_new, _, _ = cell_moments(sol, out)
    e_prev, _, _ = cell_moments(sol, I_prev)
    w, mu, eta = sol.quad.weight, sol.quad.mu, sol.quad.eta
    tv, th = face_traces(sol, out)
    f_v = np.einsum("m,gmyx->gyx", w * mu, tv)
    f_h = np.einsum("m,gmyx->gyx", w * eta, th)
    area = sol.mesh.cell_area
    dx, dy = sol.mesh.dx, sol.mesh.dy
    res = area * (e_new - e_prev) / dt \
        + (f_v[:, :, 1:] - f_v[:, :, :-1]) * dy[None, :, None] \
        + (f_h[:, 1:, :] - f_h[:, :-1, :]) * dx[None, None, :] \
        + c * kappa * e_new * area \
        - 4.0 * np.pi * kappa * emis * area
    scale = np.abs(4.0 * np.pi * kappa * emis * area) + np.abs(c * kappa * e_new * area)
    assert np.max(np.abs(res) / scale) <= 1e-11


def test_first_moment_balance_consistency():
    # cell-integrated x-momentum balance of the sweep: time + removal on the
    # corner-average flux, streaming on the second moments of the face traces
    rng = np.random.default_rng(17)
    grid = FrequencyGrid(np.array([0.0, 1.0e7]))
    bc = blackbody_bc(0.9, grid, ("left",))
    sol = make_solver(3, 3, per_quadrant=4, grid=grid, bc=bc)
    dt = 0.03
    kappa = rng.uniform(0.5, 2.0, size=(1, 3, 3))
    emis = rng.uniform(0.1, 1.0, size=(1, 3, 3))
    I_prev = rng.uniform(0.1, 1.0, size=sol.shape)
    out = sol.sweep(kappa, emis, I_prev, dt)
    w, mu, eta = sol.quad.weight, sol.quad.mu, sol.quad.eta
    c = MAT.light_speed
    _, fx_new, _ = cell_moments(sol, out)
    _, fx_prev, _ = cell_moments(sol, I_prev)
    tv, th = face_traces(sol, out)
    pxx_v = np.einsum("m,gmyx->gyx", w * mu * mu, tv)
    pxy_h = np.einsum("m,gmyx->gyx", w * mu * eta, th)
    area = sol.mesh.cell_area
    dx, dy = sol.mesh.dx, sol.mesh.dy
    res = area / (c * dt) * (fx_new - fx_prev) \
        + (pxx_v[:, :, 1:] - pxx_v[:, :, :-1]) * dy[None, :, None] \
        + (pxy_h[:, 1:, :] - pxy_h[:, :-1, :]) * dx[None, None, :] \
        + kappa * fx_new * area
    scale = np.abs(pxx_v[:, :, 1:] * dy[None, :, None]) + np.abs(kappa * fx_new * area) \
        + np.abs(area / (c * dt) * fx_new)
    assert np.max(np.abs(res) / scale) <= 1e-11


def test_closure_bounds_for_positive_intensity():
    # diagonal entries in [0, 1], Cauchy-Schwarz on the cross entry,
    # boundary factors strictly inside (0, 1)
    rng = np.random.default_rng(19)
    sol = make_solver(3, 3, per_quadrant=6,
                      bc=rng.uniform(0.2, 1.0, (4, 2)).T)
    I = rng.uniform(1e-3, 5.0, size=sol.shape)
    rec = sol.compute_eddington(I)
    assert rec.bound_violations() == 0
    tv, _ = face_traces(sol, I)
    fxx_v, fyy_v, fxy_v = eddington_ratios(sol.quad, tv)
    assert np.all(fxy_v**2 <= fxx_v * fyy_v * (1.0 + 1e-12))
    assert np.all((rec.cb > 0.0) & (rec.cb < 1.0))
    # one count over every field: a diagonal entry above 1, a cross entry
    # (unbounded by the count) and a boundary factor at 0
    rec.fyy_h[3], rec.fxy_v[0], rec.cb[-1] = 1.5, 2.0, 0.0
    assert rec.bound_violations() == 2

