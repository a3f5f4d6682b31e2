"""Constitutive laws: spot values, regularization splice, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condlab.constitutive import (
    PEC,
    PEI,
    REG_EPS_FACTOR,
    ConstitutiveError,
    EJPowerLaw,
    Linear,
    MaterialMap,
    PowerLaw,
    scale_reg_eps,
)
from condlab.mesh import DiskInclusion, build_disk_mesh
from condlab.solver import Problem
from reference import (check_flux_monotone, check_growth_bounds,
                       check_strong_monotonicity, default_e_grid,
                       outer_exponent)

# the superconducting petal material used throughout the wire study
EJ_WIRE = dict(jc=8e9, e0=1e-4, n=27.0)


def shipped_models():
    return [
        Linear(1.0),
        PowerLaw(sigma_bar=2.0, e0=1.0, p=4.0),
        PowerLaw(sigma_bar=1.0, e0=1.0, p=1.2),
        EJPowerLaw(**EJ_WIRE),
    ]


# ---------------------------------------------------------------------------
# spot values


def test_linear_basics():
    m = Linear(3.0)
    assert m.sigma(0.7) == 3.0
    assert m.flux(2.0) == 6.0
    assert m.dflux(5.0) == 3.0
    assert m.energy_density(2.0) == 6.0
    assert m.p == 2.0


def test_linear_rejects_nonpositive_sigma():
    for sigma in (0, 0.0, -1.0):
        with pytest.raises(ConstitutiveError,
                           match="linear conductivity must be positive"):
            Linear(sigma)


def test_power_law_energy_spot_value():
    # sigma_bar=2, e0=1, p=3: Q(E) = (2/3) E^3, so Q(2) = 16/3
    m = PowerLaw(sigma_bar=2.0, e0=1.0, p=3.0)
    assert abs(m.energy_density_raw(2.0) - 16.0 / 3.0) < 1e-14


def test_power_law_dflux_spot_value():
    # flux = E^3 above the floor, so dflux(1) = 3
    m = PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)
    assert abs(m.dflux(1.0) - 3.0) < 1e-14


def test_flux_vanishes_at_zero():
    for m in shipped_models():
        assert m.flux(0.0) == 0.0
        assert m.energy_density(0.0) == 0.0


def test_power_law_p2_matches_linear():
    # one kernel: the linear law is the p = 2 power law
    assert Linear(2.0) == PowerLaw(2.0, 1.0, 2.0)
    assert Linear(2.0) != Linear(3.0)
    m = PowerLaw(sigma_bar=4.0, e0=1.0, p=2.0)
    for e in (0.3, 1.0, 7.5):
        assert m.sigma(e) == 4.0
        assert m.energy_density(e) == pytest.approx(2.0 * e * e, rel=1e-15)


def test_power_law_parameter_validation():
    with pytest.raises(ConstitutiveError):
        PowerLaw(sigma_bar=-1.0, e0=1.0, p=3.0)
    with pytest.raises(ConstitutiveError):
        PowerLaw(sigma_bar=1.0, e0=1.0, p=1.0)
    with pytest.raises(ConstitutiveError):
        PowerLaw(sigma_bar=1.0, e0=1.0, p=3.0, reg_eps=0.0)


# ---------------------------------------------------------------------------
# regularization floor


def test_default_reg_eps():
    m = PowerLaw(sigma_bar=1.0, e0=2.5, p=4.0)
    assert m.reg_eps == REG_EPS_FACTOR * 2.5


def test_sigma_frozen_below_floor():
    m = PowerLaw(sigma_bar=1.0, e0=1.0, p=1.2)
    cap = m.sigma_raw(m.reg_eps)
    assert m.sigma(0.0) == cap
    assert m.sigma(0.5 * m.reg_eps) == cap
    assert np.isfinite(cap)
    # the raw law genuinely blows up there, so the floor is load-bearing
    assert m.sigma_raw(1e-12) > 100.0 * cap


def test_energy_and_flux_continuous_at_floor():
    for p in (1.2, 4.0):
        m = PowerLaw(sigma_bar=2.0, e0=1.0, p=p)
        lo, hi = m.reg_eps * (1 - 1e-9), m.reg_eps * (1 + 1e-9)
        assert abs(m.flux(hi) - m.flux(lo)) <= 1e-6 * abs(m.flux(hi))
        assert abs(m.energy_density(hi) - m.energy_density(lo)) \
            <= 1e-6 * abs(m.energy_density(hi))


def test_dflux_jump_factor_at_floor():
    # below the floor the flux is linear (slope sigma(reg_eps)); just above,
    # the power law's chain rule multiplies that slope by (p - 1)
    for p in (1.2, 4.0):
        m = PowerLaw(sigma_bar=1.0, e0=1.0, p=p)
        below = m.dflux(0.5 * m.reg_eps)
        above = m.dflux(m.reg_eps * (1 + 1e-12))
        assert abs(above / below - (p - 1.0)) < 1e-9


def test_with_reg_eps_moves_floor():
    m = PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)
    m2 = scale_reg_eps(m, 1e-3 / REG_EPS_FACTOR)
    assert m2.reg_eps == pytest.approx(1e-3, rel=1e-15)
    assert m.reg_eps == REG_EPS_FACTOR
    # below the moved floor sigma is frozen at its value on the new floor
    assert m2.sigma(0.5e-3) == pytest.approx(m.sigma_raw(m2.reg_eps),
                                             rel=1e-15)


def test_raw_and_regularized_agree_above_floor():
    m = PowerLaw(sigma_bar=2.0, e0=1.0, p=1.2)
    e = np.logspace(-5, 2, 40)
    assert np.allclose(m.sigma(e), m.sigma_raw(e), rtol=1e-14)
    assert np.allclose(m.flux(e), m.flux_raw(e), rtol=1e-14)


# ---------------------------------------------------------------------------
# differential consistency


def fd_matches(fn, dfn, e, rtol):
    h = 1e-4 * e
    num = (fn(e + h) - fn(e - h)) / (2.0 * h)
    return abs(num - dfn(e)) <= rtol * max(abs(dfn(e)), 1e-300)


def test_energy_derivative_is_flux():
    for m in shipped_models():
        for e in m.e0 * np.array([1e-3, 0.1, 1.0, 5.0]):
            if e < 4.0 * m.reg_eps:
                continue
            assert fd_matches(m.energy_density, m.flux, float(e), 1e-6), \
                (m.kind, e)


def test_dflux_matches_finite_differences():
    for m in shipped_models():
        for e in m.e0 * np.array([1e-2, 0.3, 1.0, 8.0]):
            assert fd_matches(m.flux, m.dflux, float(e), 1e-6), (m.kind, e)


# ---------------------------------------------------------------------------
# shape invariants: nonnegative, nondecreasing, convex energy; rising flux


def test_energy_density_shape():
    for m in shipped_models():
        grid = np.concatenate([[0.0], default_e_grid(m.e0)])
        q = np.asarray(m.energy_density(grid))
        assert np.all(q >= 0.0), m.kind
        assert np.all(np.diff(q) >= -1e-15 * q.max()), m.kind
        # convexity via slopes of secants on the (unevenly spaced) grid
        slopes = np.diff(q) / np.diff(grid)
        assert np.all(np.diff(slopes) >= -1e-9 * slopes.max()), m.kind


def test_flux_strictly_increasing():
    for m in shipped_models():
        grid = np.linspace(m.reg_eps, 1e3 * m.e0, 400)
        ok, witness = check_flux_monotone(m, grid)
        assert ok, (m.kind, witness)


# ---------------------------------------------------------------------------
# superconducting E-J form


def test_ej_flux_at_reference_field_is_jc():
    m = EJPowerLaw(**EJ_WIRE)
    jc, e0 = EJ_WIRE["jc"], EJ_WIRE["e0"]
    assert m == PowerLaw(jc / e0, e0, 28.0 / 27.0)
    assert abs(m.flux_raw(e0) - jc) <= 1e-12 * jc
    assert abs(m.sigma_raw(e0) - jc / e0) <= 1e-12 * jc / e0


def test_ej_exponent_mapping():
    m = EJPowerLaw(**EJ_WIRE)
    assert abs(m.p - 28.0 / 27.0) < 1e-15


def test_ej_equals_equivalent_power_law():
    ej = EJPowerLaw(**EJ_WIRE)
    pl = PowerLaw(sigma_bar=EJ_WIRE["jc"] / EJ_WIRE["e0"],
                  e0=EJ_WIRE["e0"], p=(EJ_WIRE["n"] + 1.0) / EJ_WIRE["n"])
    e = default_e_grid(EJ_WIRE["e0"])
    for attr in ("sigma", "flux", "energy_density",
                 "sigma_raw", "flux_raw", "energy_density_raw"):
        a = np.asarray(getattr(ej, attr)(e))
        b = np.asarray(getattr(pl, attr)(e))
        assert np.allclose(a, b, rtol=1e-12, atol=0.0), attr


def test_ej_parameter_validation():
    with pytest.raises(ConstitutiveError):
        EJPowerLaw(jc=-1.0, e0=1e-4, n=27.0)
    with pytest.raises(ConstitutiveError):
        EJPowerLaw(jc=8e9, e0=1e-4, n=0.5)


# ---------------------------------------------------------------------------
# structural markers


def test_structural_markers_refuse_pointwise_use():
    for m in (PEC(), PEI()):
        assert m.is_structural
        with pytest.raises(ConstitutiveError, match="never evaluated"):
            m.sigma(1.0)
        with pytest.raises(ConstitutiveError, match="never evaluated"):
            m.energy_density(1.0)


def test_structural_marker_identity():
    assert PEC() == PEC()
    assert PEI() == PEI()
    assert PEC() != PEI()
    assert len({PEC(), PEC(), PEI()}) == 2


# ---------------------------------------------------------------------------
# material maps


def test_material_map_requires_background():
    with pytest.raises(ConstitutiveError, match="cover region 0"):
        MaterialMap({1: Linear(1.0)})


def test_material_map_background_not_structural():
    with pytest.raises(ConstitutiveError, match="region 0 cannot"):
        MaterialMap({0: PEC()})


def test_material_map_lookup_and_coverage():
    mm = MaterialMap({0: Linear(1.0), 3: PEI()})
    assert mm.labels == [0, 3]
    assert mm.model_for(3) == PEI()
    with pytest.raises(ConstitutiveError, match="no material for region"):
        mm.model_for(2)
    mm.check_covers(np.array([0, 3, 3]))
    with pytest.raises(ConstitutiveError, match="without material"):
        mm.check_covers(np.array([0, 1]))


def test_material_map_outer_exponent_and_linearity():
    # linearity is read off the laws the mesh carries: a PEC region is no
    # law, and neither is a label that the map lists and no triangle has
    mesh = build_disk_mesh(1.0, 0.3, inclusions=[
        DiskInclusion((0.3, 0.0), 0.25, 1)])
    mm_lin = MaterialMap({0: Linear(1.0), 1: PEC()})
    assert outer_exponent(mm_lin) == 2.0
    assert Problem(mesh, mm_lin).is_linear
    assert Problem(mesh, mm_lin.replaced(2, PowerLaw(1.0, 1.0, 4.0))
                   ).is_linear
    mm_pow = MaterialMap({0: PowerLaw(1.0, 1.0, 4.0)})
    assert outer_exponent(mm_pow) == 4.0
    assert not Problem(mesh, mm_pow.replaced(1, PEC())).is_linear


def test_material_map_replaced_is_a_copy():
    mm = MaterialMap({0: Linear(1.0)})
    mm2 = mm.replaced(1, PEI())
    assert 1 not in mm.models
    assert mm2.model_for(1) == PEI()


def test_material_map_reg_eps_scaling():
    mm = MaterialMap({0: Linear(1.0), 1: PowerLaw(1.0, 1.0, 4.0)})
    scaled = {lab: scale_reg_eps(m, 10.0) for lab, m in mm.models.items()}
    assert scaled[1].reg_eps == 10.0 * REG_EPS_FACTOR
    # the law is frozen: scaling returns a new law with the rest kept
    assert mm.model_for(1).reg_eps == REG_EPS_FACTOR
    assert scaled[1].p == 4.0 and scaled[1].sigma_bar == 1.0
    # a floor leaves a constant sigma as it is, so the p = 2 law is kept
    assert scaled[0] is mm.model_for(0)


# ---------------------------------------------------------------------------
# certificates


def test_growth_bounds_linear_exact():
    res = check_growth_bounds(Linear(3.0), e0=1.0, p=2.0,
                              sigma_lo=3.0, sigma_hi=3.0)
    assert res.passed


def test_growth_bounds_ej_wire_constants():
    m = EJPowerLaw(**EJ_WIRE)
    sb = EJ_WIRE["jc"] / EJ_WIRE["e0"]
    res = check_growth_bounds(m, e0=EJ_WIRE["e0"], p=28.0 / 27.0,
                              sigma_lo=sb, sigma_hi=sb)
    assert res.passed


def test_growth_bounds_detects_exponent_mismatch():
    # a p=3 law tested against a declared p=1.5 corridor: on large fields
    # the upper bound decays while the law grows, so the check must fail
    res = check_growth_bounds(PowerLaw(1.0, 1.0, 3.0), e0=1.0, p=1.5,
                              sigma_lo=0.5, sigma_hi=2.0,
                              grid=np.logspace(0.5, 3.0, 31))
    assert not res.passed
    assert res.witness_side == "upper"
    assert res.witness_e > 1.0
    # on the full default grid it fails as well (small fields break the
    # lower bound first)
    assert not check_growth_bounds(PowerLaw(1.0, 1.0, 3.0), e0=1.0, p=1.5,
                                   sigma_lo=0.5, sigma_hi=2.0).passed


def test_growth_bounds_rejects_structural_and_bad_grid():
    with pytest.raises(ConstitutiveError):
        check_growth_bounds(PEC(), 1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ConstitutiveError, match="strictly positive"):
        check_growth_bounds(Linear(1.0), 1.0, 2.0, 1.0, 1.0,
                            grid=np.array([0.0, 1.0]))


def test_strong_monotonicity_linear_ratio_is_one():
    res = check_strong_monotonicity(Linear(1.0), p=2.0, kappa=1.0,
                                    n_pairs=500, seed=1)
    assert res.passed
    assert abs(res.kappa_best - 1.0) < 1e-9


def test_strong_monotonicity_power_four():
    res = check_strong_monotonicity(PowerLaw(1.0, 1.0, 4.0), p=4.0,
                                    kappa=2.0 ** (-3.0),
                                    n_pairs=10_000, seed=0)
    assert res.passed


def test_strong_monotonicity_flags_nonmonotone_law():
    # the p = 4 law is strongly monotone with constant 2^-3 (see above),
    # not with kappa = 1: the check fails and its witness pair attains
    # the smallest sampled ratio
    law = PowerLaw(1.0, 1.0, 4.0)
    res = check_strong_monotonicity(law, p=4.0, kappa=1.0,
                                    n_pairs=2_000, seed=0)
    assert not res.passed
    assert 2.0 ** (-3.0) <= res.kappa_best < 1.0
    a, b = (np.array(v) for v in res.witness)

    def current(v):
        return law.flux_raw(np.linalg.norm(v)) / np.linalg.norm(v) * v

    ratio = (current(b) - current(a)) @ (b - a) / np.linalg.norm(b - a) ** 4
    assert ratio == pytest.approx(res.kappa_best, rel=1e-9)


# ---------------------------------------------------------------------------
# properties over the law family


@settings(max_examples=25, deadline=None)
@given(sigma_bar=st.floats(0.1, 10.0), e0=st.floats(0.01, 100.0),
       p=st.floats(1.1, 6.0))
def test_power_law_family_shape(sigma_bar, e0, p):
    m = PowerLaw(sigma_bar=sigma_bar, e0=e0, p=p)
    grid = np.concatenate([[0.0], default_e_grid(e0, n=41)])
    q = np.asarray(m.energy_density(grid))
    f = np.asarray(m.flux(grid))
    assert np.all(q >= 0.0)
    assert np.all(np.diff(f) > 0.0)
    slopes = np.diff(q) / np.diff(grid)
    assert np.all(np.diff(slopes) >= -1e-9 * slopes.max())


@settings(max_examples=25, deadline=None)
@given(jc=st.floats(1.0, 1e10), e0=st.floats(1e-6, 1.0),
       n=st.floats(1.0, 60.0))
def test_ej_always_matches_declared_power_law(jc, e0, n):
    ej = EJPowerLaw(jc=jc, e0=e0, n=n)
    pl = PowerLaw(sigma_bar=jc / e0, e0=e0, p=(n + 1.0) / n)
    e = default_e_grid(e0, n=21)
    assert np.allclose(ej.flux(e), pl.flux(e), rtol=1e-12)
    assert np.allclose(ej.energy_density(e), pl.energy_density(e),
                       rtol=1e-12)
