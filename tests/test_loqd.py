"""Multigroup and grey moment-solver checks against dense oracles."""
import dataclasses

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from qdrom.config import FC_GROUP_BOUNDS, preset
from qdrom.loqd import (
    DegenerateStateError,
    FluxCoeffs,
    GreyProblem,
    GreyState,
    MomentSystem,
    MultigroupLoqdSolver,
    MultigroupMoments,
    SolverError,
    SpectrumAveraged,
    compute_grey_coefficients,
    group_flux_coeffs,
)
from qdrom.materials import FrequencyGrid, MaterialModel, planck_spectrum, planck_spectrum_slope
from qdrom.mesh import SIDES, SpatialMesh
from qdrom.transport import ClosureRecord

MAT = MaterialModel()
GRID3 = FrequencyGrid(np.array([0.0, 0.7075, 2.83, 1.0e7]))


def spectral_fields(T, grid):
    """kappa, planck and their T-derivatives at T, each (n_g, ny, nx)."""
    kappa, dkappa = MAT.group_opacity(T, grid)
    planck = planck_spectrum(T, grid)
    dplanck = planck_spectrum_slope(T, planck, grid)
    return tuple(np.moveaxis(a, -1, 0) for a in (kappa, planck, dkappa, dplanck))


def isotropic_closure(n_g, ny, nx, cb=0.5):
    third = 1.0 / 3.0
    cells, vfaces, hfaces = n_g * ny * nx, n_g * ny * (nx + 1), n_g * (ny + 1) * nx
    return ClosureRecord(
        fxx_c=np.full(cells, third),
        fxx_v=np.full(vfaces, third),
        fyy_c=np.full(cells, third),
        fyy_h=np.full(hfaces, third),
        fxy_v=np.zeros(vfaces),
        fxy_h=np.zeros(hfaces),
        cb=np.full(n_g * 2 * (nx + ny), cb),
    )


def random_closure(rng, n_g, ny, nx):
    def diag(size):
        return rng.uniform(0.25, 0.45, size=size)
    cells, vfaces, hfaces = n_g * ny * nx, n_g * ny * (nx + 1), n_g * (ny + 1) * nx
    return ClosureRecord(
        fxx_c=diag(cells),
        fyy_c=diag(cells),
        fxx_v=diag(vfaces),
        fxy_v=rng.uniform(-0.05, 0.05, size=vfaces),
        fyy_h=diag(hfaces),
        fxy_h=rng.uniform(-0.05, 0.05, size=hfaces),
        # one draw per side, sides in the boundary-face order within each group
        cb=np.concatenate([rng.uniform(0.4, 0.7, size=(n_g, n)) for n in (ny, nx, ny, nx)],
                          axis=1).ravel(),
    )


def recover_fluxes(system, state, flux):
    """The state with the face fluxes of its energies and flux coefficients."""
    state.f_vface, state.f_hface = system.face_fluxes(state, flux)
    return state


def equilibrium_bc_tables(system, planck_groups, c):
    """Half-range isotropic E_in = 2 pi B / c and n.F_in = -pi B per side."""
    n_g = planck_groups.shape[0]
    e_in = np.empty((n_g, system.boundary_face.size))
    f_in = np.empty((n_g, system.boundary_face.size))
    e_in[:] = (2.0 * np.pi * planck_groups / c)[:, None]
    f_in[:] = (-np.pi * planck_groups)[:, None]
    return e_in, f_in


# ---------------------------------------------------------------------------
# multigroup system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T_star", [0.01, 1.0])
def test_multigroup_equilibrium_fixed_point(T_star):
    mesh = SpatialMesh.uniform(4, 3, 0.5, 0.4)
    system = MomentSystem(mesh)
    b_g = np.asarray(planck_spectrum(T_star, GRID3))
    c = MAT.light_speed
    e_in, f_in = equilibrium_bc_tables(system, b_g, c)
    solver = MultigroupLoqdSolver(system, e_in, f_in)
    closure = isotropic_closure(3, 3, 4)
    kappa = spectral_fields(np.full((3, 4), T_star), GRID3)[0]
    planck = np.repeat(b_g[:, None], 12, axis=1).reshape(3, 3, 4)
    prev = MultigroupMoments.equilibrium(planck, system, c)
    out = recover_fluxes(system, *solver.solve(solver.gather(closure), kappa, planck, prev,
                                               dt=0.02))
    e_star = 4.0 * np.pi * b_g / c
    assert np.max(np.abs(out.e_cell - e_star[:, None, None])) <= 1e-11 * e_star.max()
    assert np.max(np.abs(out.e_vface - e_star[:, None, None])) <= 1e-11 * e_star.max()
    assert np.max(np.abs(out.f_vface)) <= 1e-11 * c * e_star.max()
    assert np.max(np.abs(out.f_hface)) <= 1e-11 * c * e_star.max()


def test_single_cell_matches_dense_oracle():
    rng = np.random.default_rng(21)
    mesh = SpatialMesh.uniform(1, 1, 0.7, 0.4)
    system = MomentSystem(mesh)
    e_in = np.zeros((1, 4))
    f_in = np.zeros((1, 4))
    solver = MultigroupLoqdSolver(system, e_in, f_in)
    closure = random_closure(rng, 1, 1, 1)
    kappa = rng.uniform(0.5, 2.0, size=(1, 1, 1))
    planck = rng.uniform(0.5, 2.0, size=(1, 1, 1))
    prev = MultigroupMoments(
        rng.uniform(0.5, 1.0, (1, 1, 1)), rng.uniform(0.5, 1.0, (1, 1, 2)),
        rng.uniform(0.5, 1.0, (1, 2, 1)), rng.uniform(-0.2, 0.2, (1, 1, 2)),
        rng.uniform(-0.2, 0.2, (1, 2, 1)),
    )
    dt = 0.05
    out = recover_fluxes(system, *solver.solve(solver.gather(closure), kappa, planck, prev, dt))

    # independent dense assembly: unknowns [Ec, EvL, EvR, EhB, EhT, FvL, FvR, FhB, FhT]
    c = MAT.light_speed
    dx, dy = 0.7, 0.4
    A = dx * dy
    af = A / 2.0
    kap = kappa[0, 0, 0]
    M = np.zeros((9, 9))
    b = np.zeros(9)
    EC, EVL, EVR, EHB, EHT, FVL, FVR, FHB, FHT = range(9)
    # cell balance
    M[0, EC] = A / dt + c * kap * A
    M[0, FVR] = dy
    M[0, FVL] = -dy
    M[0, FHT] = dx
    M[0, FHB] = -dx
    b[0] = A / dt * prev.e_cell[0, 0, 0] + 4 * np.pi * kap * planck[0, 0, 0] * A
    # momentum rows: west face (sign -1), east face (+1); one group and one
    # cell, so each column lists its cell or its two faces
    fxxv, fyyh, fxyv, fxyh = closure.fxx_v, closure.fyy_h, closure.fxy_v, closure.fxy_h
    (fxxc,), (fyyc,) = closure.fxx_c, closure.fyy_c
    rows = [
        # (row, F col, E face col, sign, fxx_face, F_prev)
        (1, FVL, EVL, -1.0, fxxv[0], prev.f_vface[0, 0, 0]),
        (2, FVR, EVR, 1.0, fxxv[1], prev.f_vface[0, 0, 1]),
    ]
    for row, fcol, ecol, sgn, fface, fprev in rows:
        M[row, fcol] = af / (c * dt) + kap * af
        M[row, ecol] = sgn * c * fface * dy
        M[row, EC] = -sgn * c * fxxc * dy
        M[row, EHT] = 0.5 * c * dx * fxyh[1]
        M[row, EHB] = -0.5 * c * dx * fxyh[0]
        b[row] = af / (c * dt) * fprev
    rows = [
        (3, FHB, EHB, -1.0, fyyh[0], prev.f_hface[0, 0, 0]),
        (4, FHT, EHT, 1.0, fyyh[1], prev.f_hface[0, 1, 0]),
    ]
    for row, fcol, ecol, sgn, fface, fprev in rows:
        M[row, fcol] = af / (c * dt) + kap * af
        M[row, ecol] = sgn * c * fface * dx
        M[row, EC] = -sgn * c * fyyc * dx
        M[row, EVR] = 0.5 * c * dy * fxyv[1]
        M[row, EVL] = -0.5 * c * dy * fxyv[0]
        b[row] = af / (c * dt) * fprev
    # boundary rows, vacuum: sign*F - c*C*E_f = 0; one face per side
    cb_l, cb_b, cb_r, cb_t = closure.cb
    bc_rows = [
        (5, FVL, EVL, -1.0, cb_l),
        (6, FHB, EHB, -1.0, cb_b),
        (7, FVR, EVR, 1.0, cb_r),
        (8, FHT, EHT, 1.0, cb_t),
    ]
    for row, fcol, ecol, sgn, cb in bc_rows:
        M[row, fcol] = sgn
        M[row, ecol] = -c * cb
    x = np.linalg.solve(M, b)
    got = np.array([
        out.e_cell[0, 0, 0], out.e_vface[0, 0, 0], out.e_vface[0, 0, 1],
        out.e_hface[0, 0, 0], out.e_hface[0, 1, 0], out.f_vface[0, 0, 0],
        out.f_vface[0, 0, 1], out.f_hface[0, 0, 0], out.f_hface[0, 1, 0],
    ])
    assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))


def dense_multigroup_oracle(system, closure, kappa, planck, prev, dt, e_in, f_in):
    """Solve the full (E, F) system of every group densely, row by row.

    Unknowns per group are [E_cell, E_vface, E_hface, F_vface, F_hface]; the
    rows are the cell balances, one momentum balance per half cell (two per
    interior face) and one boundary condition per boundary face.
    """
    c = MAT.light_speed
    nc, nv, nh = system.n_cells, system.n_vfaces, system.mesh.n_hfaces
    n = nc + 2 * (nv + nh)
    col = {"ev": nc, "eh": nc + nv, "fv": nc + nv + nh, "fh": nc + 2 * nv + nh}
    area = system.mesh.cell_area.ravel()
    # each closure column as one row per group
    per_group = {k: v.reshape(kappa.shape[0], -1) for k, v in vars(closure).items()}
    cb = per_group["cb"]
    out = []
    for g in range(kappa.shape[0]):
        kap = kappa[g].ravel()
        M = np.zeros((n, n))
        b = np.zeros(n)
        for i in range(nc):
            M[i, i] = area[i] / dt + c * kap[i] * area[i]
            b[i] = area[i] / dt * prev.e_cell[g].ravel()[i] \
                + 4 * np.pi * kap[i] * planck[g].ravel()[i] * area[i]
        row = nc
        adj = system.adj
        # the vertical half cells come first, then the horizontal ones; face
        # ids are global, so each orientation's own grid starts at its offset
        for half_cells, e_face, f_col, e_perp, f_face, f_cell, f_perp, fprev, f0, p0 in (
            (range(2 * nc), "ev", "fv", "eh", *(per_group[k] for k in ("fxx_v", "fxx_c", "fxy_h")),
             prev.f_vface, 0, nv),
            (range(2 * nc, 4 * nc), "eh", "fh", "ev",
             *(per_group[k] for k in ("fyy_h", "fyy_c", "fxy_v")), prev.f_hface, nv, 0),
        ):
            for j in half_cells:
                f, i, s = adj.face[j] - f0, adj.cell[j], adj.sign[j]
                cp, cm = adj.cross_plus[j] - p0, adj.cross_minus[j] - p0
                lf, lp, af = adj.face_len[j], adj.cross_len[j], adj.half_area[j]
                M[i, col[f_col] + f] += s * lf
                M[row, col[f_col] + f] = af / (c * dt) + kap[i] * af
                M[row, col[e_face] + f] = s * c * f_face[g].ravel()[f] * lf
                M[row, i] = -s * c * f_cell[g].ravel()[i] * lf
                M[row, col[e_perp] + cp] += 0.5 * c * lp * f_perp[g].ravel()[cp]
                M[row, col[e_perp] + cm] -= 0.5 * c * lp * f_perp[g].ravel()[cm]
                b[row] = af / (c * dt) * fprev[g].ravel()[f]
                row += 1
        for k, side in enumerate(system.boundary_side):
            # sides left, bottom, right, top: horizontal faces on the odd
            # sides, the outward normal along -x or -y on the first two
            horizontal = side % 2
            e_col, f_col = ("eh", "fh") if horizontal else ("ev", "fv")
            face = system.boundary_face[k] - horizontal * nv
            M[row, col[f_col] + face] = -1.0 if side < 2 else 1.0
            M[row, col[e_col] + face] = -c * cb[g, k]
            b[row] = -c * cb[g, k] * e_in[g, k] + f_in[g, k]
            row += 1
        assert row == n
        out.append(np.linalg.solve(M, b))
    return np.array(out), nc + nv + nh


@pytest.mark.parametrize("nx, ny, n_g", [(1, 1, 1), (3, 2, 2)])
def test_multicell_matches_dense_oracle(nx, ny, n_g):
    # interior faces carry two momentum rows each in the full system; the
    # solver must reproduce it, fluxes included
    rng = np.random.default_rng(37)
    mesh = SpatialMesh(nx, ny, rng.uniform(0.3, 0.8, nx), rng.uniform(0.3, 0.8, ny))
    system = MomentSystem(mesh)
    e_in = rng.uniform(0.0, 0.5, (n_g, system.boundary_face.size))
    f_in = rng.uniform(-0.3, 0.0, (n_g, system.boundary_face.size))
    solver = MultigroupLoqdSolver(system, e_in, f_in)
    closure = random_closure(rng, n_g, ny, nx)
    kappa = rng.uniform(0.5, 2.0, size=(n_g, ny, nx))
    planck = rng.uniform(0.5, 2.0, size=(n_g, ny, nx))
    prev = MultigroupMoments(
        rng.uniform(0.5, 1.0, (n_g, ny, nx)), rng.uniform(0.5, 1.0, (n_g, ny, nx + 1)),
        rng.uniform(0.5, 1.0, (n_g, ny + 1, nx)), rng.uniform(-0.2, 0.2, (n_g, ny, nx + 1)),
        rng.uniform(-0.2, 0.2, (n_g, ny + 1, nx)),
    )
    dt = 0.05
    out = recover_fluxes(system, *solver.solve(solver.gather(closure), kappa, planck, prev, dt))
    x, n_e = dense_multigroup_oracle(system, closure, kappa, planck, prev, dt, e_in, f_in)
    got_e = np.concatenate([out.e_cell.reshape(n_g, -1), out.e_vface.reshape(n_g, -1),
                            out.e_hface.reshape(n_g, -1)], axis=1)
    got_f = np.concatenate([out.f_vface.reshape(n_g, -1), out.f_hface.reshape(n_g, -1)],
                           axis=1)
    assert np.max(np.abs(got_e - x[:, :n_e])) <= 1e-12 * np.max(np.abs(x[:, :n_e]))
    assert np.max(np.abs(got_f - x[:, n_e:])) <= 1e-12 * np.max(np.abs(x[:, n_e:]))


def test_source_linearity():
    rng = np.random.default_rng(4)
    mesh = SpatialMesh.uniform(3, 2, 0.5, 0.5)
    system = MomentSystem(mesh)
    solver = MultigroupLoqdSolver(system, np.zeros((1, 10)), np.zeros((1, 10)))
    closure = random_closure(rng, 1, 2, 3)
    kappa = rng.uniform(0.5, 2.0, size=(1, 2, 3))
    planck = rng.uniform(0.5, 2.0, size=(1, 2, 3))
    prev = MultigroupMoments(
        rng.uniform(0.5, 1.0, (1, 2, 3)), rng.uniform(0.5, 1.0, (1, 2, 4)),
        rng.uniform(0.5, 1.0, (1, 3, 3)), np.zeros((1, 2, 4)), np.zeros((1, 3, 3)),
    )
    zero = MultigroupMoments(*(np.zeros_like(a) for a in
                               (prev.e_cell, prev.e_vface, prev.e_hface,
                                prev.f_vface, prev.f_hface)))
    gathered = solver.gather(closure)
    hom, _ = solver.solve(gathered, kappa, np.zeros_like(planck), prev, 0.1)
    one, _ = solver.solve(gathered, kappa, planck, prev, 0.1)
    two, _ = solver.solve(gathered, kappa, 2.0 * planck, prev, 0.1)
    ref = np.abs(one.e_cell).max()
    assert np.max(np.abs((two.e_cell - hom.e_cell) - 2.0 * (one.e_cell - hom.e_cell))) \
        <= 1e-12 * ref
    del zero


def test_negative_dt_rejected():
    mesh = SpatialMesh.uniform(2, 2, 0.5, 0.5)
    system = MomentSystem(mesh)
    solver = MultigroupLoqdSolver(system, np.zeros((1, 8)), np.zeros((1, 8)))
    closure = isotropic_closure(1, 2, 2)
    prev = MultigroupMoments.equilibrium(np.ones((1, 2, 2)), system, MAT.light_speed)
    with pytest.raises(ValueError):
        solver.solve(solver.gather(closure), np.ones((1, 2, 2)), np.ones((1, 2, 2)), prev, -1.0)


def test_solver_and_equilibrium_check_the_system():
    # the moment system binds c and the mesh: the solver takes c from it, and
    # an emission grid of another mesh, or another c, is refused
    system = MomentSystem(SpatialMesh.uniform(3, 2, 0.5, 0.4))
    closure = isotropic_closure(3, 2, 3)
    gathered = MultigroupLoqdSolver(system, np.zeros((3, 10)), np.zeros((3, 10))).gather(closure)
    assert np.array_equal(gathered.boundary_diag,
                          -system.light_speed * closure.cb.reshape(3, -1))
    with pytest.raises(ValueError, match="mesh"):
        MultigroupMoments.equilibrium(np.ones((3, 3, 2)), system, MAT.light_speed)
    with pytest.raises(ValueError, match="light_speed"):
        MultigroupMoments.equilibrium(np.ones((3, 2, 3)), system, 2.0 * MAT.light_speed)
    e = MultigroupMoments.equilibrium(np.ones((3, 2, 3)), system, MAT.light_speed).e_cell
    assert np.array_equal(e, np.full((3, 2, 3), 4.0 * np.pi / MAT.light_speed))


# ---------------------------------------------------------------------------
# grey coefficients
# ---------------------------------------------------------------------------

def coeff_inputs(rng, n_g, ny, nx, system):
    mg = MultigroupMoments(
        rng.uniform(0.5, 2.0, (n_g, ny, nx)), rng.uniform(0.5, 2.0, (n_g, ny, nx + 1)),
        rng.uniform(0.5, 2.0, (n_g, ny + 1, nx)), rng.uniform(-0.5, 0.5, (n_g, ny, nx + 1)),
        rng.uniform(-0.5, 0.5, (n_g, ny + 1, nx)),
    )
    prev = MultigroupMoments(
        mg.e_cell.copy(), mg.e_vface.copy(), mg.e_hface.copy(),
        rng.uniform(-0.5, 0.5, (n_g, ny, nx + 1)), rng.uniform(-0.5, 0.5, (n_g, ny + 1, nx)),
    )
    kappa = rng.uniform(0.5, 3.0, (n_g, ny, nx))
    planck = rng.uniform(0.5, 3.0, (n_g, ny, nx))
    closure = random_closure(rng, n_g, ny, nx)
    e_in = np.zeros((n_g, system.boundary_face.size))
    f_in = np.zeros((n_g, system.boundary_face.size))
    return mg, prev, kappa, planck, closure, e_in, f_in


def grey_coefficients(mg, kappa, planck, closure, prev, dt, system, e_in, f_in):
    """Grey coefficients from the per-group flux coefficients of these inputs.

    The opacity and emission derivatives are those of T-independent fields: 0.
    """
    gathered = MultigroupLoqdSolver(system, e_in, f_in).gather(closure)
    group_flux = group_flux_coeffs(gathered, kappa.reshape(kappa.shape[0], -1), prev, dt, system)
    zero = np.zeros_like(kappa)
    return compute_grey_coefficients(mg, kappa, planck, zero, zero, gathered, group_flux,
                                     system, dt)


def test_single_group_averages_are_identity():
    rng = np.random.default_rng(8)
    mesh = SpatialMesh.uniform(3, 2, 0.5, 0.5)
    system = MomentSystem(mesh)
    mg, prev, kappa, planck, closure, e_in, f_in = coeff_inputs(rng, 1, 2, 3, system)
    co = grey_coefficients(mg, kappa, planck, closure, prev, 0.1, system, e_in, f_in)
    assert co.kbar_e == pytest.approx(kappa.reshape(-1), rel=1e-14)
    assert co.kbar_b == pytest.approx(kappa.reshape(-1), rel=1e-14)
    assert co.boundary_diag == pytest.approx(-MAT.light_speed * closure.cb, rel=1e-14)


def test_constant_opacity_averages():
    rng = np.random.default_rng(9)
    mesh = SpatialMesh.uniform(2, 2, 0.5, 0.5)
    system = MomentSystem(mesh)
    mg, prev, kappa, planck, closure, e_in, f_in = coeff_inputs(rng, 3, 2, 2, system)
    kappa[:] = 1.7
    co = grey_coefficients(mg, kappa, planck, closure, prev, 0.1, system, e_in, f_in)
    assert np.allclose(co.kbar_e, 1.7, rtol=1e-14)
    assert np.allclose(co.kbar_b, 1.7, rtol=1e-14)


def test_averages_match_summation_oracle():
    rng = np.random.default_rng(10)
    mesh = SpatialMesh.uniform(3, 3, 0.4, 0.4)
    system = MomentSystem(mesh)
    mg, prev, kappa, planck, closure, e_in, f_in = coeff_inputs(rng, 3, 3, 3, system)
    dt = 0.07
    nv, c = system.n_vfaces, MAT.light_speed
    # each boundary face's group energies, read from the face grids by face id
    e_bf = np.array([mg.e_vface.reshape(3, -1)[:, f] if f < nv
                     else mg.e_hface.reshape(3, -1)[:, f - nv] for f in system.boundary_face]).T
    e_in[:] = rng.uniform(0.5, 2.0, e_in.shape)
    f_in[:] = rng.uniform(-0.5, 0.5, f_in.shape)
    e_in[:, 4] = e_bf[:, 4]  # a face in equilibrium with its inflow: sum(E - E_in) = 0
    co = grey_coefficients(mg, kappa, planck, closure, prev, dt, system, e_in, f_in)
    # boundary rows: the E_g-weighted boundary factor and the summed right-hand side
    cb = closure.cb.reshape(3, -1)
    for k in range(system.boundary_face.size):
        expected = sum(-c * cb[g, k] * e_bf[g, k] for g in range(3)) / sum(e_bf[:, k])
        assert co.boundary_diag[k] == pytest.approx(expected, rel=1e-13)
        expected = sum(-c * cb[g, k] * e_in[g, k] + f_in[g, k] for g in range(3))
        assert co.boundary_rhs[k] == pytest.approx(expected, rel=1e-13)
    # absorption average, explicit loops
    for cell in range(9):
        iy, ix = divmod(cell, 3)
        num = sum(kappa[g, iy, ix] * mg.e_cell[g, iy, ix] for g in range(3))
        den = sum(mg.e_cell[g, iy, ix] for g in range(3))
        assert co.kbar_e[cell] == pytest.approx(num / den, rel=1e-13)
    # flux coefficient for one vertical half cell (the first 2 n_cells)
    j = 5
    adj = system.adj
    cell, face = adj.cell[j], adj.face[j]
    ktil = kappa.reshape(3, -1)[:, cell] + 1.0 / (MAT.light_speed * dt)
    ev = mg.e_vface.reshape(3, -1)[:, face]
    fxxv = closure.fxx_v.reshape(3, -1)[:, face]
    expected = np.sum(fxxv * ev / ktil) / np.sum(ev)
    assert co.flux.d[0, j] == pytest.approx(expected, rel=1e-13)
    # lag term
    fprev = prev.f_vface.reshape(3, -1)[:, face]
    kap_c = kappa.reshape(3, -1)[:, cell]
    expected_p = np.sum(fprev / (1.0 + MAT.light_speed * dt * kap_c))
    assert co.flux.p[j] == pytest.approx(expected_p, rel=1e-13)


def test_zero_energy_average_raises():
    rng = np.random.default_rng(13)
    mesh = SpatialMesh.uniform(2, 2, 0.5, 0.5)
    system = MomentSystem(mesh)
    mg, prev, kappa, planck, closure, e_in, f_in = coeff_inputs(rng, 2, 2, 2, system)
    mg.e_cell[:, 0, 0] = 0.0
    with pytest.raises(DegenerateStateError):
        grey_coefficients(mg, kappa, planck, closure, prev, 0.1, system, e_in, f_in)


# ---------------------------------------------------------------------------
# grey problem
# ---------------------------------------------------------------------------

def solve_grey_step(system, co, prev, dt):
    """One backward-Euler grey step, linearized about the previous temperature."""
    return GreyProblem(system, co, dt, prev.e_cell, prev.temperature,
                       t_star=prev.temperature).solve()


def grey_coeffs_uniform(system, kbar, dvals=1.0 / 3.0, cbar=0.5, p=0.0,
                        e_in=0.0, f_in=0.0):
    nbf, n_half = system.boundary_face.size, system.adj.face.size
    nc, c = system.n_cells, MAT.light_speed
    # T-independent grey opacities: no temperature derivatives
    return SpectrumAveraged(
        kbar_e=np.full(nc, kbar), kbar_b=np.full(nc, kbar), dkbar_e=np.zeros(nc),
        dkbar_b=np.zeros(nc), e_cell_total=np.zeros(nc),
        boundary_diag=np.full(nbf, -c * cbar),
        boundary_rhs=np.full(nbf, -c * cbar * e_in + f_in),
        flux=FluxCoeffs(np.full((4, n_half), dvals), np.full(n_half, p)),
    )


def moment_matrix(system, vals):
    """Sparse matrix of fill()'s entry values (n_entries,), duplicates summed."""
    n = system.n_unknowns
    return coo_matrix((vals, (system.rows, system.cols)), shape=(n, n)).tocsr()


def grey_radiation_system(system, co, dt, e_prev_cell):
    """Grey entry values and right-hand side, emission aside.

    The cell rows of the grey problem read G x = b + grey_emission(T).
    """
    c = MAT.light_speed
    area = system.mesh.cell_area.ravel()
    return system.fill(
        area / dt + c * co.kbar_e * area, (area / dt) * e_prev_cell.ravel(),
        co.flux, co.boundary_diag, co.boundary_rhs)


def grey_emission(system, co, T):
    """Emission c kbar_B a_R area T^4 per cell."""
    return MAT.light_speed * co.kbar_b * MAT.radiation_constant \
        * system.mesh.cell_area.ravel() * np.ravel(T)**4


def test_grey_equilibrium_fixed_point():
    mesh = SpatialMesh.uniform(3, 3, 0.5, 0.5)
    system = MomentSystem(mesh)
    T_star = 0.7
    e_star = MAT.radiation_constant * T_star**4
    # matching bc: half-range isotropic values keep the wall in balance
    co = grey_coeffs_uniform(system, kbar=2.0, cbar=0.5,
                             e_in=0.5 * e_star, f_in=-0.25 * MAT.light_speed * e_star)
    prev = GreyState(
        temperature=np.full((3, 3), T_star), e_cell=np.full((3, 3), e_star),
        e_vface=np.full((3, 4), e_star), e_hface=np.full((4, 3), e_star),
        f_vface=np.zeros((3, 4)), f_hface=np.zeros((4, 3)),
    )
    out = recover_fluxes(system, solve_grey_step(system, co, prev, dt=0.02), co.flux)
    assert np.max(np.abs(out.temperature - T_star)) <= 1e-12 * T_star
    assert np.max(np.abs(out.e_cell - e_star)) <= 1e-12 * e_star
    assert np.max(np.abs(out.f_vface)) <= 1e-12 * MAT.light_speed * e_star


def random_system_args(rng, system, lead=()):
    """solve()/fill() arguments with random coefficients and leading axis lead."""
    c = MAT.light_speed
    area = system.mesh.cell_area.ravel()

    shape = lead + system.adj.face.shape
    flux = FluxCoeffs(np.stack([rng.uniform(0.1, 0.5, shape) for _ in range(4)], axis=-2),
                      rng.uniform(-0.01, 0.01, shape))
    nbf = system.boundary_face.size
    return [area / 0.02 + c * rng.uniform(0.5, 2.0, lead + area.shape) * area,
            rng.uniform(0.5, 1.0, lead + area.shape), flux,
            -c * rng.uniform(0.4, 0.7, lead + (nbf,)), rng.uniform(-1.0, 1.0, lead + (nbf,))]


DESK = preset("fleck-cummings-desk")


@pytest.mark.parametrize("mesh", [SpatialMesh.uniform(DESK.nx, DESK.ny, DESK.dx, DESK.dy),
                                  SpatialMesh(3, 2, np.array([0.3, 0.7, 0.5]),
                                              np.array([0.45, 0.8]))], ids=["desk", "3x2"])
def test_fill_matches_per_orientation_oracle(mesh):
    # fill() multiplies the stacked d by one geometry row built per mesh;
    # the oracle forms each orientation's weights (P d) Q and multiplies
    # them by s l (cell rows) and s (face rows), in the entries' order:
    # cell rows, then face rows, each by column slot over every half cell
    rng = np.random.default_rng(59)
    system = MomentSystem(mesh)
    cell_diag, cell_rhs, flux, b_diag, b_rhs = args = random_system_args(rng, system, (4,))
    half = 2 * system.n_cells  # vertical half cells, then horizontal ones
    cell_rows, face_rows = [], []
    for orientation in (slice(0, half), slice(half, None)):
        sign, face_len, cross_len, half_area = (
            getattr(system.adj, name)[orientation]
            for name in ("sign", "face_len", "cross_len", "half_area"))
        k, one = MAT.light_speed / half_area, np.ones_like(face_len)
        P = np.stack([-k * sign, k * sign, -k * 0.5 * cross_len, k * 0.5 * cross_len])
        w = P * flux.d[..., orientation] * np.stack([face_len, face_len, one, one])
        cell_rows.append(sign * face_len * w)
        face_rows.append(sign * w)
    want = np.concatenate([cell_diag] + [np.concatenate(rows, axis=-1).reshape(4, -1)
                                         for rows in (cell_rows, face_rows)] + [b_diag], axis=-1)
    vals = system.fill(*args)[0]
    assert vals.shape == want.shape == (4, system.rows.size)
    assert np.all(np.abs(vals - want) <= 1e-15 * np.abs(want))


def test_cached_scatter_bins_follow_the_leading_shape():
    # the bins of each index table are built once per leading shape; every
    # shape, met in any order and again, sums like a per-row bincount
    rng = np.random.default_rng(61)
    system = MomentSystem(SpatialMesh.uniform(3, 2, 0.5, 0.4))
    n = system.n_unknowns
    tables = {"rows": (system.rows, n), "rhs_rows": (system.rhs_rows, n),
              "slot": (system.slot, n * system.ldab),
              "face": (system.adj.face, system.n_vfaces + system.mesh.n_hfaces)}
    for lead in [(), (1,), (4,), (17,), (4,), ()]:
        for name, (index, size) in tables.items():
            values = rng.standard_normal(lead + index.shape)
            want = np.array([np.bincount(index, v, minlength=size)
                             for v in values.reshape(-1, index.size)]).reshape(lead + (size,))
            assert np.array_equal(system._scatter(name, values), want), (name, lead)


@pytest.mark.parametrize("n_g", [None, 3])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (4, 1), (3, 2), (5, 3)])
def test_banded_solve_matches_dense_oracle(nx, ny, n_g):
    # one banded LU per group through MomentSystem.solve; the dense solve of
    # the natural-order matrix is the oracle
    rng = np.random.default_rng(41 + 7 * nx + ny)
    system = MomentSystem(SpatialMesh(nx, ny, rng.uniform(0.3, 0.8, nx),
                                      rng.uniform(0.3, 0.8, ny)))
    assert system.kl == system.ku == 2 * nx + 1
    lead = () if n_g is None else (n_g,)
    args = random_system_args(rng, system, lead)
    cases = [args]
    if (nx, ny) == (3, 2):
        # hface 0 comes first in the band order; a zero diagonal there makes
        # the factorisation interchange rows
        h0 = system.n_cells + system.n_vfaces
        k = int(np.flatnonzero(system.boundary_face == system.n_vfaces)[0])
        pivot = list(args)
        pivot[3] = args[3].copy()
        pivot[3][..., k] = 0.0
        vals = system.fill(*pivot)[0].reshape(-1, system.rows.size)
        pivot[3][..., k] = -np.array([moment_matrix(system, v)[h0, h0] for v in vals]).reshape(lead)
        for v in system.fill(*pivot)[0].reshape(-1, system.rows.size):
            assert moment_matrix(system, v)[h0, h0] == 0.0
        cases.append(pivot)
    for case in cases:
        vals, b = system.fill(*case)
        got = np.concatenate([e.reshape(lead + (-1,)) for e in system.solve(*case)], axis=-1)
        for v, bg, xg in zip(vals.reshape(-1, vals.shape[-1]), b.reshape(-1, b.shape[-1]),
                             got.reshape(-1, got.shape[-1])):
            x = np.linalg.solve(moment_matrix(system, v).toarray(), bg)
            assert np.max(np.abs(xg - x)) <= 1e-12 * np.max(np.abs(x))


def recorded_solves(monkeypatch, system):
    """List that collects the (arguments, result) of every system.solve call."""
    calls = []
    solve = system.solve

    def spy(*args):
        out = solve(*args)
        calls.append((args, out))
        return out
    monkeypatch.setattr(system, "solve", spy)
    return calls


def test_graded_system_backward_error(monkeypatch):
    # a 1 keV wall drives a graded 1 -> 0.001 keV slab of coarse cells: E
    # falls by over 40 decades in a cold group and the row scales span
    # ~17.  Unscaled pivoting in the band order reached a backward error of
    # 1.0 here; each componentwise error must stay at rounding level
    nx, ny = 12, 2
    grid = FrequencyGrid(np.array(FC_GROUP_BOUNDS[:5] + (1.0e7,)))
    n_g = grid.n_groups
    system = MomentSystem(SpatialMesh.uniform(nx, ny, 2.5, 2.5))
    calls = recorded_solves(monkeypatch, system)
    c = MAT.light_speed
    T = np.tile(np.geomspace(1.0, 1e-3, nx), (ny, 1))
    kappa, planck, _, _ = spectral_fields(T, grid)
    e_in, f_in = equilibrium_bc_tables(system, np.asarray(planck_spectrum(1.0, grid)), c)
    cold = system.boundary_side != SIDES.index("left")
    e_in[:, cold] = 0.0
    f_in[:, cold] = 0.0
    closure = isotropic_closure(n_g, ny, nx)
    prev = MultigroupMoments.equilibrium(planck, system, c)
    solver = MultigroupLoqdSolver(system, e_in, f_in)
    gathered = solver.gather(closure)
    mg, group_flux = solver.solve(gathered, kappa, planck, prev, 0.02)
    zero = np.zeros_like(kappa)  # no temperature response: the plain grey system
    co = compute_grey_coefficients(mg, kappa, planck, zero, zero, gathered, group_flux, system,
                                   0.02)
    GreyProblem(system, co, 0.02, prev.e_cell.sum(axis=0), T, t_star=T).solve()
    assert [np.ndim(args[0]) for args, _ in calls] == [2, 1]  # multigroup, then grey
    n = system.n_unknowns
    for args, out in calls:
        vals, b = system.fill(*args)
        x = np.concatenate([e.reshape(b.shape[:-1] + (-1,)) for e in out], axis=-1)
        if b.ndim == 2:
            assert np.log10(x.max(-1) / x.min(-1)).max() >= 40.0
        for v, bg, xg in zip(vals.reshape(-1, vals.shape[-1]), b.reshape(-1, n),
                             x.reshape(-1, n)):
            A = moment_matrix(system, v)
            berr = np.abs(A @ xg - bg) / (abs(A) @ np.abs(xg) + np.abs(bg))
            assert np.max(berr) <= 1e-14


def test_singular_system_raises_at_both_levels():
    # a zero boundary factor and zero Eddington factors leave the boundary
    # rows empty; the factorisation must report it, naming the group
    system = MomentSystem(SpatialMesh.uniform(3, 2, 0.5, 0.4))
    co = grey_coeffs_uniform(system, kbar=2.0, dvals=0.0, cbar=0.0)
    problem = GreyProblem(system, co, 0.02, np.full((2, 3), 1e-3),
                          np.full((2, 3), 0.5), t_star=np.full((2, 3), 0.6))
    with pytest.raises(SolverError, match="singular"):
        problem.solve()
    rng = np.random.default_rng(47)
    closure = isotropic_closure(3, 2, 3)
    for name in ("fxx_c", "fyy_c", "fxx_v", "fyy_h", "cb"):
        getattr(closure, name).reshape(3, -1)[1] = 0.0
    e_in = np.zeros((3, system.boundary_face.size))
    solver = MultigroupLoqdSolver(system, e_in, e_in)
    prev = MultigroupMoments.equilibrium(rng.uniform(0.5, 1.0, (3, 2, 3)), system,
                                         MAT.light_speed)
    with pytest.raises(SolverError, match="singular in group 1"):
        solver.solve(solver.gather(closure), rng.uniform(0.5, 2.0, (3, 2, 3)),
                     rng.uniform(0.5, 2.0, (3, 2, 3)), prev, 0.05)


def test_grey_zero_coupling_keeps_temperature():
    mesh = SpatialMesh.uniform(2, 3, 0.4, 0.6)
    system = MomentSystem(mesh)
    co = grey_coeffs_uniform(system, kbar=0.0, cbar=0.5, p=0.01)
    rng = np.random.default_rng(17)
    t_prev = rng.uniform(0.5, 1.0, (3, 2))
    prev = GreyState(
        temperature=t_prev, e_cell=rng.uniform(0.5, 1.0, (3, 2)),
        e_vface=rng.uniform(0.5, 1.0, (3, 3)), e_hface=rng.uniform(0.5, 1.0, (4, 2)),
        f_vface=np.zeros((3, 3)), f_hface=np.zeros((4, 2)),
    )
    out = solve_grey_step(system, co, prev, dt=0.05)
    assert np.array_equal(out.temperature, t_prev)
    assert np.all(np.isfinite(out.e_cell))


def bisection_grey_root(system, co, e_prev, t_prev, dt):
    """Root of the one-cell grey + MEB system, by bisection on T."""
    t_prev = t_prev[0, 0]
    data, b = grey_radiation_system(system, co, dt, e_prev)
    G = moment_matrix(system, data).toarray()

    def e_of_T(T):
        emis = np.zeros(b.size)
        emis[0] = grey_emission(system, co, T)[0]
        x = np.linalg.solve(G, b + emis)
        return x[0]

    def h(T):
        cv = MAT.heat_capacity
        return cv * (T - t_prev) / dt + MAT.light_speed * co.kbar_b[0] \
            * MAT.radiation_constant * T**4 - MAT.light_speed * co.kbar_e[0] * e_of_T(T)

    lo, hi = 1e-6, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def one_cell_grey_case():
    system = MomentSystem(SpatialMesh.uniform(1, 1, 0.5, 0.5))
    co = grey_coeffs_uniform(system, kbar=3.0, cbar=0.55, p=0.002)
    co.kbar_e[:] = 2.5
    e_prev, t_prev, dt = np.array([[0.003]]), np.array([[0.4]]), 0.03
    T_oracle = bisection_grey_root(system, co, e_prev, t_prev, dt)
    return system, co, e_prev, t_prev, dt, T_oracle


def test_grey_single_cell_matches_bisection_oracle():
    # repeating the linearized solve from its own temperature is Newton's
    # method on the grey + MEB system
    system, co, e_prev, t_prev, dt, T_oracle = one_cell_grey_case()
    T = t_prev
    for _ in range(8):
        T = GreyProblem(system, co, dt, e_prev, t_prev, t_star=T).solve().temperature
    assert T[0, 0] == pytest.approx(T_oracle, rel=1e-12)


def test_grey_linearized_at_root_returns_root():
    # a fixed point of the linearized solve is a root of the nonlinear system
    system, co, e_prev, t_prev, dt, T_oracle = one_cell_grey_case()
    out = GreyProblem(system, co, dt, e_prev, t_prev, np.array([[T_oracle]])).solve()
    assert out.temperature[0, 0] == pytest.approx(T_oracle, rel=1e-12)


def test_grey_response_guard_freezes_the_net_emission():
    # a response whose net-emission slope falls below -4 c kbar_b a_R t*^3
    # is clipped there: the denominator is cv/dt, and the material takes
    # up the absorption minus the emission at t_star
    system, co, e_prev, t_prev, dt, _ = one_cell_grey_case()
    t_star = np.array([[0.3]])
    bound = -4.0 * co.kbar_b / t_star.ravel()
    zero = np.zeros(1)

    def solve(dkbar_e, dkbar_b, e_cell):
        coeffs = dataclasses.replace(co, dkbar_e=dkbar_e, dkbar_b=dkbar_b, e_cell_total=e_cell)
        return GreyProblem(system, coeffs, dt, e_prev, t_prev, t_star=t_star).solve()

    clipped = solve(zero, 10.0 * bound, zero)
    for dkbar_e, dkbar_b, e_cell in ((zero, 100.0 * bound, zero),
                                     (np.array([1e6]), zero, np.array([0.01]))):
        again = solve(dkbar_e, dkbar_b, e_cell)
        assert np.array_equal(again.temperature, clipped.temperature)
        assert np.array_equal(again.e_cell, clipped.e_cell)
    c, a_r = MAT.light_speed, MAT.radiation_constant
    uptake = MAT.heat_capacity * (clipped.temperature - t_prev) / dt
    net = c * co.kbar_e * clipped.e_cell - c * co.kbar_b * a_r * t_star**4
    assert uptake[0, 0] == pytest.approx(net[0, 0], rel=1e-12)
    # inside the bound the response acts
    inside = solve(zero, 0.5 * bound, zero)
    assert inside.temperature[0, 0] != clipped.temperature[0, 0]


def test_temperature_response_matches_local_difference():
    # for group energies that solve their own cell rows (no transport),
    # E_g = (E_prev/dt + 4 pi kappa_g B_g) / (1/dt + c kappa_g), the grey
    # coefficients' derivatives are the T-derivatives of the two spectrum
    # averages
    rng = np.random.default_rng(53)
    system = MomentSystem(SpatialMesh.uniform(3, 2, 0.5, 0.4))
    c, dt = MAT.light_speed, 0.02
    T = rng.uniform(0.2, 1.5, (2, 3))
    e_prev = rng.uniform(1e-3, 2e-2, (3, 2, 3))

    def local_energies(kappa, planck):
        return (e_prev / dt + 4.0 * np.pi * kappa * planck) / (1.0 / dt + c * kappa)

    def averages(T):
        kappa, planck, _, _ = spectral_fields(T, GRID3)
        e = local_energies(kappa, planck)
        return ((kappa * e).sum(0) / e.sum(0)).ravel(), \
            ((kappa * planck).sum(0) / planck.sum(0)).ravel()

    kappa, planck, dkappa, dplanck = spectral_fields(T, GRID3)
    e = local_energies(kappa, planck)
    mg = MultigroupMoments.equilibrium(planck, system, c)
    mg.e_cell = e
    closure = isotropic_closure(3, 2, 3)
    e_in = np.zeros((3, system.boundary_face.size))
    gathered = MultigroupLoqdSolver(system, e_in, e_in).gather(closure)
    group_flux = group_flux_coeffs(gathered, kappa.reshape(3, -1), mg, dt, system)
    co = compute_grey_coefficients(mg, kappa, planck, dkappa, dplanck, gathered, group_flux,
                                   system, dt)
    h = 1e-6 * T
    (ke_hi, kb_hi), (ke_lo, kb_lo) = averages(T + h), averages(T - h)
    step = 2.0 * h.ravel()
    assert co.dkbar_e == pytest.approx((ke_hi - ke_lo) / step, rel=1e-6)
    assert co.dkbar_b == pytest.approx((kb_hi - kb_lo) / step, rel=1e-6)
    assert np.array_equal(co.e_cell_total, e.sum(0).ravel())
    # derivatives of T-independent fields give none
    zero = np.zeros_like(kappa)
    co = compute_grey_coefficients(mg, kappa, planck, zero, zero, gathered, group_flux,
                                   system, dt)
    assert not np.any(co.dkbar_e) and not np.any(co.dkbar_b)


def test_grey_matches_multigroup_sum():
    # the grey operator evaluated at the multigroup solution sums must vanish
    rng = np.random.default_rng(29)
    mesh = SpatialMesh.uniform(3, 3, 0.4, 0.4)
    system = MomentSystem(mesh)
    T_field = rng.uniform(0.3, 1.0, (3, 3))
    kappa, planck, dkappa, dplanck = spectral_fields(T_field, GRID3)
    closure = random_closure(rng, 3, 3, 3)
    prev = MultigroupMoments(
        rng.uniform(0.001, 0.005, (3, 3, 3)), rng.uniform(0.001, 0.005, (3, 3, 4)),
        rng.uniform(0.001, 0.005, (3, 4, 3)), rng.uniform(-0.001, 0.001, (3, 3, 4)),
        rng.uniform(-0.001, 0.001, (3, 4, 3)),
    )
    e_in = np.zeros((3, system.boundary_face.size))
    f_in = np.zeros((3, system.boundary_face.size))
    solver = MultigroupLoqdSolver(system, e_in, f_in)
    dt = 0.02
    gathered = solver.gather(closure)
    mg, group_flux = solver.solve(gathered, kappa, planck, prev, dt)
    co = compute_grey_coefficients(mg, kappa, planck, dkappa, dplanck, gathered, group_flux,
                                   system, dt)
    recover_fluxes(system, mg, group_flux)
    e_c, e_v, e_h, f_v, f_h = (a.sum(axis=0) for a in (
        mg.e_cell, mg.e_vface, mg.e_hface, mg.f_vface, mg.f_hface))
    data, b = grey_radiation_system(system, co, dt, prev.e_cell.sum(axis=0))
    x = np.concatenate([e_c.ravel(), e_v.ravel(), e_h.ravel()])
    emis = np.zeros(b.size)
    emis[:system.n_cells] = grey_emission(system, co, T_field)
    G = moment_matrix(system, data)
    r = G @ x - b - emis
    scale = abs(G) @ np.abs(x) + np.abs(b) + np.abs(emis)
    assert float(np.max(np.abs(r) / scale)) <= 1e-10
    # the one-sided flux expressions reproduce the summed multigroup fluxes
    fv, fh = system.face_fluxes(MultigroupMoments(e_c, e_v, e_h), co.flux)
    assert fv.ravel() == pytest.approx(f_v.ravel(), rel=1e-9, abs=1e-12 * np.abs(f_v).max())
    assert fh.ravel() == pytest.approx(f_h.ravel(), rel=1e-9, abs=1e-12 * np.abs(f_h).max())


@pytest.mark.parametrize("fault", ["nan lag term", "infinite incoming energy"])
@pytest.mark.parametrize("level", ["grey", "multigroup"])
def test_nonfinite_solution_raises(level, fault):
    # both levels share the solve's finiteness check; a poisoned coefficient
    # must raise, not return a NaN state
    rng = np.random.default_rng(43)
    system = MomentSystem(SpatialMesh.uniform(3, 2, 0.5, 0.4))
    if level == "grey":
        co = grey_coeffs_uniform(system, kbar=2.0, p=0.01)
        if fault == "nan lag term":
            co.flux.p[4] = np.nan
        else:
            co.boundary_rhs[1] = np.inf
        problem = GreyProblem(system, co, 0.02, np.full((2, 3), 1e-3),
                              np.full((2, 3), 0.5), t_star=np.full((2, 3), 0.6))
        with pytest.raises(SolverError, match="non-finite"):
            problem.solve()
        return
    e_in = np.zeros((3, system.boundary_face.size))
    f_in = np.zeros((3, system.boundary_face.size))
    prev = MultigroupMoments(
        rng.uniform(0.5, 1.0, (3, 2, 3)), rng.uniform(0.5, 1.0, (3, 2, 4)),
        rng.uniform(0.5, 1.0, (3, 3, 3)), rng.uniform(-0.2, 0.2, (3, 2, 4)),
        rng.uniform(-0.2, 0.2, (3, 3, 3)),
    )
    if fault == "nan lag term":
        prev.f_vface[1, 0, 2] = np.nan
    else:
        e_in[1, 1] = np.inf
    solver = MultigroupLoqdSolver(system, e_in, f_in)
    with pytest.raises(SolverError, match="non-finite values in group 1"):
        solver.solve(solver.gather(random_closure(rng, 3, 2, 3)), rng.uniform(0.5, 2.0, (3, 2, 3)),
                     rng.uniform(0.5, 2.0, (3, 2, 3)), prev, 0.05)
