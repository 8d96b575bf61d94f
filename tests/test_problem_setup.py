"""Mesh, quadrature, frequency grid, Planck and opacity checks."""
import hashlib

import numpy as np
import pytest

from qdrom import materials, quadrature
from qdrom.config import PRESETS, preset
from qdrom.materials import (
    A_RAD,
    C_LIGHT,
    FOUR_PI,
    FrequencyGrid,
    MaterialModel,
    TemperatureDomainError,
    planck_cumulative,
    planck_spectrum,
    planck_spectrum_slope,
)
from qdrom.loqd import MomentSystem
from qdrom.mesh import SIDES, SpatialMesh, build_adjacency
from qdrom.quadrature import QuadratureSpecError, azimuthal_counts, build_quadrature

FC_BOUNDS = np.array([0.0, 0.7075, 1.415, 2.123, 2.830, 3.538, 4.245, 5.129,
                      6.014, 6.898, 7.783, 8.667, 9.551, 10.44, 11.32, 12.20,
                      13.09, 1.0e7])


def series_band_integral(x_lo, x_hi, n_terms=400):
    """Independent oracle: integral of x^3/(e^x-1) over [x_lo, x_hi]."""
    def tail(x):
        if np.isinf(x):
            return 0.0
        if x == 0.0:
            return np.pi**4 / 15.0
        total = 0.0
        for n in range(1, n_terms + 1):
            total += np.exp(-n * x) * (x**3 / n + 3 * x**2 / n**2 + 6 * x / n**3 + 6 / n**4)
        return total
    return tail(x_lo) - tail(x_hi)


# ---------------------------------------------------------------------------
# Planck integrals
# ---------------------------------------------------------------------------

def test_single_group_recovers_stefan_boltzmann():
    grid = FrequencyGrid(np.array([0.0, 1.0e7]))
    for T in (0.37, 1.0, 2.5):
        b1 = planck_spectrum(T, grid)[0]
        assert b1 >= 0.0
        assert FOUR_PI * b1 == pytest.approx(A_RAD * C_LIGHT * T**4, rel=1e-12)


def test_planck_vanishes_at_low_temperature():
    grid = FrequencyGrid(np.array([0.0, 0.7075, 2.0]))
    b = planck_spectrum(1e-4, grid)
    assert b[1] < 1e-280
    assert np.all(b >= 0.0)


def test_first_group_fraction_matches_series_oracle():
    # T = 1 keV, group (0, 0.7075]: expected fraction from the independent series
    expected = series_band_integral(0.0, 0.7075) / (np.pi**4 / 15.0)
    assert expected == pytest.approx(1.381e-2, rel=2e-3)  # sanity on the oracle itself
    grid = FrequencyGrid(FC_BOUNDS)
    b1 = planck_spectrum(1.0, grid)[0]
    total = A_RAD * C_LIGHT
    assert FOUR_PI * b1 / total == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("T", [0.001, 0.1, 1.0])
def test_planck_normalization(T):
    grid = FrequencyGrid(FC_BOUNDS)
    b = planck_spectrum(T, grid)
    assert FOUR_PI * b.sum() == pytest.approx(A_RAD * C_LIGHT * T**4, rel=1e-10)


def test_planck_additivity_under_group_split():
    coarse = FrequencyGrid(np.array([0.0, 2.0, 8.0]))
    fine = FrequencyGrid(np.array([0.0, 2.0, 4.7, 8.0]))
    for T in (0.05, 1.0):
        b_c = planck_spectrum(T, coarse)
        b_f = planck_spectrum(T, fine)
        assert b_f[1] + b_f[2] == pytest.approx(b_c[1], rel=1e-12)


from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.02, 2.0))
def test_planck_additivity_property(frac, T):
    lo, hi = 0.4, 3.1
    mid = lo + frac * (hi - lo)
    whole = FrequencyGrid(np.array([0.0, lo, hi]))
    split = FrequencyGrid(np.array([0.0, lo, mid, hi]))
    b_w = planck_spectrum(T, whole)
    b_s = planck_spectrum(T, split)
    assert b_s[1] + b_s[2] == pytest.approx(b_w[1], rel=1e-12, abs=1e-300)


def test_planck_rejects_nonpositive_temperature():
    grid = FrequencyGrid(np.array([0.0, 1.0]))
    with pytest.raises(TemperatureDomainError):
        planck_spectrum(0.0, grid)
    with pytest.raises(TemperatureDomainError):
        planck_spectrum(-1.0, grid)


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
def test_nonfinite_temperature_rejected(T):
    grid = FrequencyGrid(np.array([0.0, 1.0, 1.0e7]))
    with pytest.raises(TemperatureDomainError):
        planck_spectrum(T, grid)
    with pytest.raises(TemperatureDomainError):
        planck_spectrum(np.array([0.5, T]), grid)
    with pytest.raises(TemperatureDomainError):
        MaterialModel().group_opacity(np.array([[0.5, T]]), grid)


def test_band_fraction_against_oracle():
    # at T = 1 keV the last group (lo, hi) of a grid with edges (0, lo, hi)
    # carries 4 pi B / (a_R c) = the band fraction of the Planck integral
    for edges, lo, hi in [((0.0, 0.5, 3.0), 0.5, 3.0), ((0.0, 1.0), 0.0, 1.0),
                          ((0.0, 2.0, 1.0e7), 2.0, np.inf)]:
        expected = series_band_integral(lo, hi) / (np.pi**4 / 15.0)
        b_last = planck_spectrum(1.0, FrequencyGrid(np.array(edges)))[-1]
        assert FOUR_PI * b_last / (A_RAD * C_LIGHT) \
            == pytest.approx(expected, rel=1e-12, abs=1e-15)


def polylog_planck_tail(x, mp):
    """Independent oracle: P(x) = x^3 Li_1(q) + 3x^2 Li_2(q) + 6x Li_3(q) + 6 Li_4(q).

    q = e^{-x}, in 40-digit arithmetic.  Li_1(q) is written as -log1p(-q):
    mpmath's polylog(1, q) returns 0 once q is below ~1e-300.
    """
    x = mp.mpf(x)
    q = mp.exp(-x)
    return (-x**3 * mp.log1p(-q) + 3 * x**2 * mp.polylog(2, q)
            + 6 * x * mp.polylog(3, q) + 6 * mp.polylog(4, q))


def test_planck_cumulative_matches_polylog_oracle():
    mp = pytest.importorskip("mpmath")
    # both sides of each regime limit: the last float below, the limit, the
    # first float above, and 1% either way
    limits = [materials._X_SERIES, materials._X_TAIL]
    edges = [v for lim in limits for v in (lim * 0.99, np.nextafter(lim, 0.0), lim,
                                             np.nextafter(lim, np.inf), lim * 1.01)]
    x = np.concatenate([np.geomspace(1e-6, 700.0, 121), edges])
    got = planck_cumulative(x)
    with mp.workdps(40):
        for xi, gi in zip(x, got):
            exact = polylog_planck_tail(xi, mp)
            assert abs(float((mp.mpf(gi) - exact) / exact)) <= 2e-15, xi


def test_group_fractions_match_polylog_oracle():
    # 4 pi B_g / (a_R c T^4) = [P(x_lo) - P(x_hi)] / (pi^4/15); a low group
    # at high T has both edges in the series regime, where the difference
    # P(x_lo) - P(x_hi) of two values near pi^4/15 lost ~1e-12
    mp = pytest.importorskip("mpmath")
    T = np.concatenate([np.geomspace(1e-3, 10.0, 31), [7.0, 8.58]])
    with mp.workdps(40):
        for bounds in (preset("fleck-cummings-desk").group_bounds, FC_BOUNDS):
            grid = FrequencyGrid(np.array(bounds))
            frac = FOUR_PI * planck_spectrum(T, grid) / (A_RAD * C_LIGHT * T[:, None]**4)
            for t, row in zip(T, frac):
                tails = [mp.pi**4 / 15 if e == 0.0 else mp.mpf(0) if e == np.inf
                         else polylog_planck_tail(e / t, mp) for e in grid.edges]
                for g, got in enumerate(row):
                    exact = (tails[g] - tails[g + 1]) / (mp.pi**4 / 15)
                    if exact < mp.mpf("1e-290"):  # below the double range
                        continue
                    assert abs(float((mp.mpf(got) - exact) / exact)) <= 3e-14, (t, g)


def test_planck_spectrum_evaluates_the_series_head_once(monkeypatch):
    # the cumulative values and the low-group differences share one
    # evaluation of the Bernoulli series, over every edge below _X_SERIES
    sizes = []
    head = materials._planck_head
    monkeypatch.setattr(materials, "_planck_head", lambda x: sizes.append(x.size) or head(x))
    T = np.geomspace(1e-3, 10.0, 31)
    grid = FrequencyGrid(np.array(preset("fleck-cummings-desk").group_bounds))
    planck_spectrum(T, grid)
    assert sizes == [np.sum(grid.edges / T[:, None] < materials._X_SERIES)]


def test_planck_cumulative_exact_ends_and_rejects_nan():
    assert planck_cumulative(0.0) == np.pi**4 / 15.0
    assert planck_cumulative(np.inf) == 0.0
    assert np.array_equal(planck_cumulative([np.inf, 0.0]), [0.0, np.pi**4 / 15.0])
    for bad in ([np.nan, 1.0], [-1e-300], -np.inf):
        with pytest.raises(ValueError):
            planck_cumulative(bad)


def test_grid_rejects_an_interior_infinite_edge():
    with pytest.raises(ValueError, match="only the last boundary"):
        FrequencyGrid(np.array([0.0, 1.0e7, 2.0e7]))


def test_grid_rejects_nan_edges_and_maps_an_infinite_last_edge_as_unbounded():
    for bounds in ([0.0, np.nan, 1e7], [0.0, 1.0, np.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            FrequencyGrid(np.array(bounds))
    # an inf last edge is the same grid as INFINITE_EDGE, built without NaN steps
    ref, grid = FrequencyGrid(np.array([0.0, 0.7075, 2.83, 1e7])), \
        FrequencyGrid(np.array([0.0, 0.7075, 2.83, np.inf]))
    for name in ("edges", "nodes", "node_weights", "nodes_cubed"):
        assert np.array_equal(getattr(grid, name), getattr(ref, name)), name


def test_material_constants_are_not_parameters():
    assert (MaterialModel.light_speed, MaterialModel.radiation_constant,
            MaterialModel.heat_capacity) == (C_LIGHT, A_RAD, 0.5917 * A_RAD)
    for kw in (dict(heat_capacity=1.0), dict(light_speed=1.0)):
        with pytest.raises(TypeError):
            MaterialModel(**kw)


# ---------------------------------------------------------------------------
# Opacity
# ---------------------------------------------------------------------------

def spectral_opacity(nu, T):
    """Oracle: the Fleck-Cummings opacity 27 (1 - e^{-nu/T}) / nu^3 in 1/cm, at nu > 0."""
    nu, T = np.asarray(nu, dtype=float), np.asarray(T, dtype=float)
    with np.errstate(under="ignore"):
        return 27.0 / nu**3 * (-np.expm1(-nu / T))


def test_spectral_opacity_direct_value():
    # nu = 3 keV, T = 1 keV: (27/27)(1 - e^-3)
    assert spectral_opacity(3.0, 1.0) == pytest.approx(1.0 - np.exp(-3.0), rel=1e-12)


def test_spectral_opacity_limits():
    assert spectral_opacity(1e6, 1.0) < 1e-16
    # T >> nu: (1 - e^{-nu/T}) ~ nu/T
    assert spectral_opacity(2.0, 1e6) == pytest.approx(27.0 / 8.0 * (2.0 / 1e6), rel=1e-5)


def test_group_opacity_positive_and_decreasing_at_high_frequency():
    m = MaterialModel()
    grid = FrequencyGrid(FC_BOUNDS)
    kap, _ = m.group_opacity(1.0, grid)
    assert kap.shape == (grid.n_groups,)
    assert np.all(kap > 0.0)
    assert np.all(np.diff(kap[2:]) < 0.0)


def test_group_opacity_matches_quadrature_oracle():
    m = MaterialModel()
    grid = FrequencyGrid(np.array([0.0, 1.0, 4.0, 1.0e7]))
    T = 0.8
    # independent 16-point Gauss-Legendre evaluation of the same collapse rule
    gx, gw = np.polynomial.legendre.leggauss(16)
    nu = 0.5 * 3.0 * gx + 2.5
    b = nu**3 / np.expm1(nu / T)
    k = spectral_opacity(nu, T)
    rule_value = np.sum(gw * k * b) / np.sum(gw * b)
    got = m.group_opacity(T, grid)[0][1]
    assert got == pytest.approx(rule_value, rel=1e-13)
    # and stays close to the exact Planck average (rule truncation ~1e-6 here)
    nu_f = np.linspace(1.0, 4.0, 200001)[1:-1]
    b_f = nu_f**3 / np.expm1(nu_f / T)
    exact = np.trapezoid(spectral_opacity(nu_f, T) * b_f, nu_f) / np.trapezoid(b_f, nu_f)
    assert got == pytest.approx(exact, rel=1e-4)


def test_group_opacity_cold_limit_stays_finite():
    m = MaterialModel()
    grid = FrequencyGrid(FC_BOUNDS)
    kap, dkap = m.group_opacity(0.001, grid)
    assert np.all(np.isfinite(kap)) and np.all(np.isfinite(dkap))
    assert np.all(kap > 0.0)


def test_opacity_rejects_nonpositive_temperature():
    m = MaterialModel()
    with pytest.raises(TemperatureDomainError):
        m.group_opacity(1e-12, FrequencyGrid(np.array([0.0, 1.0])))


def per_group_opacity(T, bounds):
    """Oracle: the Planck-weighted 16-point Gauss-Legendre average, one group
    at a time, in the same arithmetic order as the batched evaluation."""
    Tcol = np.asarray(T, dtype=float).reshape(-1, 1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    kbar = np.empty((Tcol.shape[0], len(bounds) - 1))
    for g in range(len(bounds) - 1):
        lo, hi = bounds[g], bounds[g + 1]
        if hi >= materials.INFINITE_EDGE and lo > 0.0:
            u = 0.5 * (gl_x + 1.0)
            nu, jac = (lo / u)[None, :], (lo / u**2)[None, :]
        elif hi >= materials.INFINITE_EDGE:
            # single group spanning (0, inf): nu = T u/(1-u), per-row grid
            u = 0.5 * (gl_x + 1.0) * (1.0 - 1e-8)
            nu = Tcol * (u / (1.0 - u))[None, :]
            jac = Tcol * (1.0 / (1.0 - u) ** 2)[None, :]
        else:
            nu = (0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo))[None, :]
            jac = np.full_like(nu, 0.5 * (hi - lo))
        x = nu / Tcol
        xmin = x.min(axis=1, keepdims=True)
        with np.errstate(under="ignore"):
            wgt = nu**3 * np.exp(-(x - xmin)) / (-np.expm1(-x))
        kap = spectral_opacity(nu, Tcol)
        kbar[:, g] = (np.sum(gl_w * jac * wgt * kap, axis=1)
                      / np.sum(gl_w * jac * wgt, axis=1))
    return kbar


OPACITY_T = np.geomspace(materials.TEMPERATURE_FLOOR, 10.0, 240).reshape(12, 20)


@pytest.mark.parametrize("name", PRESETS)
def test_group_opacity_equals_per_group_oracle(name):
    bounds = preset(name).group_bounds
    got, slope = MaterialModel().group_opacity(OPACITY_T, FrequencyGrid(np.array(bounds)))
    assert got.shape == slope.shape == OPACITY_T.shape + (len(bounds) - 1,)
    assert np.array_equal(got.reshape(-1, len(bounds) - 1), per_group_opacity(OPACITY_T, bounds))


def test_single_unbounded_group_opacity_matches_oracle():
    got, _ = MaterialModel().group_opacity(OPACITY_T, FrequencyGrid(np.array([0.0, 1.0e7])))
    want = per_group_opacity(OPACITY_T, (0.0, 1.0e7))
    np.testing.assert_allclose(got.reshape(-1, 1), want, rtol=1e-14, atol=0.0)


SLOPE_T = np.geomspace(1e-3, 10.0, 60)


@pytest.mark.parametrize("bounds", [preset("fleck-cummings-desk").group_bounds,
                                    tuple(FC_BOUNDS), (0.0, 1.0e7)],
                         ids=["desk", "fc2d", "single"])
def test_spectral_slopes_match_central_difference(bounds):
    m = MaterialModel()
    grid = FrequencyGrid(np.array(bounds))
    T, h = SLOPE_T, 1e-6 * SLOPE_T
    hc = h[:, None]
    kap, dkap = m.group_opacity(T, grid)
    fd = (m.group_opacity(T + h, grid)[0] - m.group_opacity(T - h, grid)[0]) / (2.0 * hc)
    # on the log scale: cold groups' opacities barely move with T
    assert np.max(np.abs(dkap - fd) * T[:, None] / kap) <= 1e-8
    slope = planck_spectrum_slope(T, planck_spectrum(T, grid), grid)
    fd = (planck_spectrum(T + h, grid) - planck_spectrum(T - h, grid)) / (2.0 * hc)
    floor = 1e-30 * np.abs(slope).max(axis=1, keepdims=True)  # underflowing groups
    assert np.all(np.abs(slope - fd) <= 1e-7 * np.abs(slope) + floor)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def check_quadrature(q, tol):
    """Unit directions, positive weights summing to 4 pi, and the moment
    identities: odd moments vanish, diagonal second moments are 4 pi / 3."""
    assert np.max(np.abs(q.mu**2 + q.eta**2 + q.xi**2 - 1.0)) <= 1e-12
    assert np.all(q.weight > 0.0)
    w = q.weight
    assert abs(w.sum() - FOUR_PI) <= tol
    for comp in (q.mu, q.eta):
        assert abs(np.sum(w * comp)) <= tol
        assert abs(np.sum(w * comp**2) - FOUR_PI / 3.0) <= tol
    assert abs(np.sum(w * q.xi**2) - FOUR_PI / 3.0) <= tol
    for a, b in ((q.mu, q.eta), (q.mu, q.xi), (q.eta, q.xi)):
        assert abs(np.sum(w * a * b)) <= tol


def test_four_point_set_is_the_symmetric_reference():
    q = build_quadrature(1)
    assert q.n_dirs == 4
    r = 1.0 / np.sqrt(3.0)
    assert np.allclose(np.abs(q.mu), r, atol=1e-15)
    assert np.allclose(np.abs(q.eta), r, atol=1e-15)
    assert np.allclose(q.xi, r, atol=1e-15)
    assert np.allclose(q.weight, np.pi, atol=1e-14)
    check_quadrature(q, 1e-12)


@pytest.mark.parametrize("per_quadrant,total", [(1, 4), (3, 12), (4, 16), (36, 144)])
def test_quadrature_counts_and_moments(per_quadrant, total):
    q = build_quadrature(per_quadrant)
    assert q.n_dirs == total
    check_quadrature(q, 1e-10)
    assert np.sum(q.weight * q.mu * q.mu) == pytest.approx(FOUR_PI / 3.0, abs=1e-10)


def test_quadrature_octant_symmetry():
    q = build_quadrature(4)
    key = np.sort(np.round(np.abs(q.mu) + 1j * np.abs(q.eta), 12))
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        sel = (np.sign(q.mu) == sx) & (np.sign(q.eta) == sy)
        assert sel.sum() == 4
        sub = np.sort(np.round(np.abs(q.mu[sel]) + 1j * np.abs(q.eta[sel]), 12))
        assert np.array_equal(sub, key[:4]) or len(set(np.round(q.weight, 14))) <= 2


def test_quadrature_rejects_unsupported_count():
    with pytest.raises(QuadratureSpecError):
        build_quadrature(5)
    with pytest.raises(QuadratureSpecError):
        build_quadrature(0)


# sha256 over the bytes of mu, eta, xi and weight, in that order, for every
# supported per-quadrant count up to 121 (numpy 2.4 on x86_64): the bisection's
# stopping rule must not move a single bit of any direction set
QUADRATURE_SHA256 = {
    1: "af16eb499c082e6191a7ab6318b4b0ae79db43946df5306fad3748fa3408f686",
    3: "656f386fd1600fe158750cc5668689e990891a7dceca31c1131e34e332e2a62d",
    4: "e73fa0f299f30cd1d0bf409d28f4fcccfad10c932423c09c41e32c36e3d7308d",
    6: "79be8275acc6d51213712b57b733d655fffacc819378a4819d65d02d86a68dd3",
    9: "a485122bd8626d58d8681e4552f0ab24a56f8de2ffa70088d7a5598d33cbb023",
    10: "945fba057a29219915fb4f5c9768727a270f81f6e6e68c38aabe19d23a38be4b",
    15: "41d448412e0850ddf5b9ef57d09ddb31f7a9af37a2fd6ecbffcc0c9a0d9b8660",
    16: "713432376390feef2b239c0a436e05359113ba7ef33c1ab2e848c4a91189b8cf",
    21: "44c2e2cedbef4ba0b732aa7a6bc8ead7f5bb49336d2f30273c71746c829bd4ba",
    25: "e0b288f3debfe0012537754b0657c7dcb29e2ef0a1d0db9d2abe2eccb9f7689c",
    28: "e7e68a0b4700fa65df6f35a3b13e233438032ad9b5403ed99d9736c11aab3a6a",
    36: "1dfffe491aeb80bcfccb45ad30f6dc72c340c494657dd98cfa9397dcd2fec049",
    45: "8cfb4eb70b8961009fafba87d5e6de06ae15732a3e751a5495371ec59ad922d0",
    49: "45e26cc63aec768e21ee9a169fdf85ca4513e7930d6b8ac04787ad09ffef56d9",
    55: "be03ad9689e8d3ae54b366295596cd57fa7afe276fa6328e35a985f55ead3b2b",
    64: "724334a3fd689458278879db9cb1262fba91d5250890c5aed89cce298b11f4da",
    66: "0fee64f64273e3fc657a8f39ff069aa7de8f5ecbbac3bd5551658f13bca565f9",
    78: "edf8477746e0f95dd491a278b323ca2276f5e87b8b93a8ab9b4481c9263dd017",
    81: "80d01dea236eb81dbde590d9edf90e0f372a98436758fb5485eb68a574cd6a28",
    91: "03dae4b612da89cf405cbbfd9562ec6a8efe35be665e226abfbfe0403719bdc5",
    100: "088201d32ebb59dc32e3fb84dc9d2ed798fcc046448fd64a493a7692e4467ecb",
    105: "615973f0e33c77f02b19562dcece110f064316ee56e26087cfeab12c3ca8e9dc",
    120: "14f41c538174bd309ddf8f1a265835113a7643bac0fc4d2206fe0be03473da4e",
    121: "63f449c5aa057deb8849922b7174c6a0edc573f8843f970cf1f168fcc75afe88",
}


def test_pinned_counts_are_every_supported_count():
    supported = []
    for q in range(1, 122):
        try:
            azimuthal_counts(q)
        except QuadratureSpecError:
            continue
        supported.append(q)
    assert supported == sorted(QUADRATURE_SHA256)


@pytest.mark.parametrize("per_quadrant", sorted(QUADRATURE_SHA256))
def test_quadrature_bytes_are_pinned(per_quadrant):
    q = build_quadrature(per_quadrant)
    digest = hashlib.sha256()
    for values in (q.mu, q.eta, q.xi, q.weight):
        assert values.dtype == np.float64 and values.shape == (4 * per_quadrant,)
        digest.update(values.tobytes())
    assert digest.hexdigest() == QUADRATURE_SHA256[per_quadrant]


@pytest.mark.parametrize("target", [5.0, 0.0])
def test_level_solve_rejects_an_infeasible_target(target):
    # three points give a cos sum between sqrt(1/2) + sqrt(2) cos(pi/4) = 1.707
    # (beta at pi/4) and sqrt(1/2) + sqrt(2) = 2.121 (beta 0)
    with pytest.raises(QuadratureSpecError, match="infeasible for 3 points"):
        quadrature._solve_level_angles(3, target)


class CosCounter:
    """numpy stand-in that counts np.cos calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x):
        self.calls += 1
        return np.cos(x)


def test_level_solve_takes_at_most_ten_evaluations(monkeypatch):
    # bisection of [0, pi/4) down to two adjacent doubles needs the two ends
    # plus at most 54 midpoints on every pinned set; from the Newton guess the
    # bracket closes in at most 10 evaluations, the ends included (measured
    # over the 164 levels of the pinned sets: 4 to 10)
    counter = CosCounter()
    solve = quadrature._solve_level_angles
    per_level = []

    def counted(a, target):
        before = counter.calls
        angles = solve(a, target)
        per_level.append(counter.calls - before)
        return angles

    monkeypatch.setattr(quadrature, "np", counter)
    monkeypatch.setattr(quadrature, "_solve_level_angles", counted)
    for q in QUADRATURE_SHA256:
        build_quadrature(q)
    assert len(per_level) > 100
    assert min(per_level) > 2 and max(per_level) <= 56
    assert max(per_level) <= 10


def level_cos_sum(a, beta):
    """sum_k cos(phi_k) over the a angles of a level at delta scale beta,
    summed as the level solve sums it."""
    p, odd = divmod(a, 2)
    steps = 2.0 * np.arange(1, p + 1) - (0 if odd else 1)
    total = np.sqrt(2.0) * np.cos(beta * steps / max(2 * p + odd - 1, 1)).sum()
    if odd:
        total += np.sqrt(0.5)
    return float(total)


def bisection_level_angles(a, cos_target):
    """Reference: the level solve by plain bisection of [0, pi/4) until the
    bracket is two adjacent doubles."""
    lo, hi = 0.0, 0.25 * np.pi * (1.0 - 1e-12)
    if level_cos_sum(a, lo) < cos_target or level_cos_sum(a, hi) > cos_target:
        raise QuadratureSpecError("infeasible")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if level_cos_sum(a, mid) >= cos_target:
            lo = mid
        else:
            hi = mid
    p, odd = divmod(a, 2)
    deltas = 0.5 * (lo + hi) * (2.0 * np.arange(1, p + 1) - (0 if odd else 1)) \
        / max(2 * p + odd - 1, 1)
    return np.array([0.25 * np.pi - d for d in deltas[::-1]]
                    + ([0.25 * np.pi] if odd else []) + [0.25 * np.pi + d for d in deltas])


@pytest.mark.parametrize("a", range(2, 22))
def test_level_solve_gives_the_bisections_doubles(a):
    # feasible targets span the cos sum from beta = pi/4 to beta = 0; the ends
    # are drawn too, and on whichever side of feasible an end rounds, the two
    # solves must agree
    ends = [level_cos_sum(a, beta) for beta in (0.25 * np.pi * (1.0 - 1e-12), 0.0)]
    frac = np.concatenate(([0.0, 1.0], np.random.default_rng(a).random(150)))
    for target in ends[0] + frac * (ends[1] - ends[0]):
        try:
            want = bisection_level_angles(a, target)
        except QuadratureSpecError:
            with pytest.raises(QuadratureSpecError):
                quadrature._solve_level_angles(a, target)
            continue
        assert quadrature._solve_level_angles(a, target).tobytes() == want.tobytes(), target


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

def test_mesh_counts_and_areas():
    mesh = SpatialMesh.uniform(20, 20, 0.3, 0.3)
    assert mesh.n_cells == 400
    assert mesh.n_vfaces == 21 * 20
    assert mesh.n_hfaces == 20 * 21
    assert np.all(mesh.cell_area > 0.0)
    assert mesh.cell_area.sum() == pytest.approx(mesh.dx.sum() * mesh.dy.sum(), rel=1e-14)


def test_adjacency_half_areas_and_counts():
    mesh = SpatialMesh(3, 2, np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6]))
    adj = build_adjacency(mesh)
    nc, nv = mesh.n_cells, mesh.n_vfaces
    assert adj.face.shape[0] == 4 * nc
    area = mesh.cell_area.ravel()
    assert np.allclose(adj.half_area, 0.5 * area[adj.cell])
    # west, east, south, north half cells of every cell: the first two
    # blocks on vertical faces, the last two on horizontal ones (ids from nv)
    assert np.array_equal(adj.cell, np.tile(np.arange(nc), 4))
    assert np.array_equal(adj.sign, np.repeat([-1.0, 1.0, -1.0, 1.0], nc))
    assert adj.face[:2 * nc].max() < nv <= adj.face[2 * nc:].min()
    # every interior face appears exactly twice, boundary faces once
    counts = np.bincount(adj.face, minlength=nv + mesh.n_hfaces)
    v_counts = counts[:nv].reshape(2, 4)
    assert set(v_counts[:, 1:-1].ravel()) == {2}
    assert set(v_counts[:, [0, -1]].ravel()) == {1}
    h_counts = counts[nv:].reshape(3, 3)
    assert set(h_counts[1:-1].ravel()) == {2}
    assert set(h_counts[[0, -1]].ravel()) == {1}


def side_slice(side, name):
    """The boundary faces of side `name`, given each face's index into SIDES."""
    idx = SIDES.index(name)
    return slice(int(np.searchsorted(side, idx, side="left")),
                 int(np.searchsorted(side, idx, side="right")))


def test_boundary_table_order_and_sizes():
    nx, ny = 4, 3
    mesh = SpatialMesh.uniform(nx, ny, 1.0, 1.0)
    system = MomentSystem(mesh)
    side, face = system.boundary_side, system.boundary_face
    assert side.size == face.size == 2 * (nx + ny)
    assert np.array_equal(side, np.repeat(np.arange(4), (ny, nx, ny, nx)))
    assert [side_slice(side, name) for name in SIDES] == \
        [slice(0, 3), slice(3, 7), slice(7, 10), slice(10, 14)]
    # global face ids, vfaces first: each side lists its own domain-boundary
    # faces in increasing y or x
    nv = mesh.n_vfaces
    vids = np.arange(nv).reshape(ny, nx + 1)
    hids = nv + np.arange(mesh.n_hfaces).reshape(ny + 1, nx)
    on_side = {"left": vids[:, 0], "bottom": hids[0], "right": vids[:, -1], "top": hids[-1]}
    for name in SIDES:
        assert np.array_equal(face[side_slice(side, name)], on_side[name]), name
    # the one half cell of each boundary face carries the outward normal's
    # sign: -x and -y on the left and bottom, +x and +y on the right and top
    for name, outward in zip(SIDES, (-1.0, -1.0, 1.0, 1.0)):
        for f in face[side_slice(side, name)]:
            assert system.adj.sign[system.adj.face == f].tolist() == [outward], name


def test_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        SpatialMesh.uniform(0, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        SpatialMesh(2, 2, np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    for width in (np.nan, np.inf):
        for dx, dy in ((width, 1.0), (1.0, width)):
            with pytest.raises(ValueError, match="positive and finite"):
                SpatialMesh.uniform(2, 2, dx, dy)
