"""Reference-solution oracles: radial annulus, layered strip, brute force."""

import numpy as np
import pytest
from scipy import integrate

from condlab.constitutive import Linear, MaterialMap, PowerLaw
from condlab.mesh import build_rect_mesh, boundary_mass
from condlab.oracle import OracleError, annulus_radial_solution
from condlab.solver import (
    DatumTerm,
    Point,
    Problem,
    make_datum,
    solve,
)
from reference import (brute_force_min, flux_raw, radial_du,
                       radial_flux_times_r, radial_u, two_layer_strip)


# ---------------------------------------------------------------------------
# radial annulus


@pytest.mark.parametrize("p", [1.2, 2.0, 4.0])
def test_radial_flux_times_r_is_constant(p):
    sol = annulus_radial_solution(p, sigma_bar=1.5, e0=1.0,
                                  r_inner=0.5, r_outer=1.0,
                                  u_inner=0.0, u_outer=1.0)
    r = np.linspace(0.5, 1.0, 50)
    fr = radial_flux_times_r(sol, r)
    assert np.all(np.abs(fr - fr[0]) <= 1e-12 * abs(fr[0]))


@pytest.mark.parametrize("p", [1.2, 2.0, 4.0])
def test_radial_traces_match_prescription(p):
    sol = annulus_radial_solution(p, 2.0, 1.0, 0.5, 1.0, -0.3, 0.7)
    assert abs(radial_u(sol, 0.5) - (-0.3)) < 1e-12
    assert abs(radial_u(sol, 1.0) - 0.7) < 1e-12


def test_radial_du_matches_finite_differences():
    sol = annulus_radial_solution(4.0, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0)
    for r in (0.55, 0.75, 0.95):
        h = 1e-6
        num = (radial_u(sol, r + h) - radial_u(sol, r - h)) / (2.0 * h)
        assert abs(num - radial_du(sol, r)) <= 1e-7 * abs(radial_du(sol, r))


def test_radial_p2_closed_form_energy():
    # sigma=1, radii 1..e, unit drop: u = ln r, energy = pi, power = 2 pi
    sol = annulus_radial_solution(2.0, 1.0, 1.0, 1.0, float(np.e), 0.0, 1.0)
    assert abs(sol.coef_a - 1.0) < 1e-12
    assert abs(sol.energy - np.pi) <= 1e-10 * np.pi
    assert abs(sol.power - 2.0 * np.pi) <= 1e-10 * np.pi


@pytest.mark.parametrize("p", [1.2, 2.0, 4.0])
def test_radial_power_is_p_times_energy(p):
    # for a pure power law, sigma E^2 = p * Q(E) pointwise, so the same
    # relation holds for the integrals
    sol = annulus_radial_solution(p, 1.3, 0.7, 0.4, 1.1, 0.0, 2.0)
    assert abs(sol.power - p * sol.energy) <= 1e-10 * sol.power


@pytest.mark.parametrize("traces", [(0.0, 2.0), (2.0, -0.5)],
                         ids=["inner below outer", "inner above outer"])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.3, 4.0])
def test_radial_closed_form_matches_quadrature(p, traces):
    # the 1D integrals of the closed form's energy and power densities by
    # adaptive quadrature, as the oracle computed them before it had the
    # antiderivative
    sigma_bar, e0, r_in, r_out = 1.3, 0.7, 0.4, 1.1
    sol = annulus_radial_solution(p, sigma_bar, e0, r_in, r_out, *traces)
    beta = 0.0 if p == 2.0 else (p - 2.0) / (p - 1.0)

    def field(r):
        if p == 2.0:
            return abs(sol.coef_a) / r
        return abs(sol.coef_a * beta) * r ** (beta - 1.0)

    def q_density(e):
        return sigma_bar * e0 ** 2 / p * (e / e0) ** p

    def sig(e):
        return sigma_bar * (e / e0) ** (p - 2.0)

    energy, _ = integrate.quad(
        lambda r: 2.0 * np.pi * r * q_density(field(r)),
        r_in, r_out, epsabs=0.0, epsrel=1e-12, limit=200)
    power, _ = integrate.quad(
        lambda r: 2.0 * np.pi * r * sig(field(r)) * field(r) ** 2,
        r_in, r_out, epsabs=0.0, epsrel=1e-12, limit=200)
    assert abs(sol.energy - energy) <= 1e-14 * energy
    assert abs(sol.power - power) <= 1e-14 * power


def test_radial_equal_traces_give_zero():
    sol = annulus_radial_solution(4.0, 1.0, 1.0, 0.5, 1.0, 0.4, 0.4)
    assert sol.energy == 0.0
    assert sol.power == 0.0


def test_radial_argument_validation():
    with pytest.raises(OracleError):
        annulus_radial_solution(2.0, 1.0, 1.0, 1.0, 0.5, 0.0, 1.0)
    with pytest.raises(OracleError):
        annulus_radial_solution(0.9, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("p", [1.2, 2.0, 4.0])
def test_radial_overflow_is_an_oracle_error(p):
    # Python floats raised OverflowError at p != 2 and numpy's warned at
    # p = 2; a sum that overflows quietly is refused as well
    with pytest.raises(OracleError, match=f"the exact solution at p = {p:g} "
                       f"overflows"):
        annulus_radial_solution(p, 1.0, 1.0, 0.5, 1.0, 0.0, 1e300)
    with pytest.raises(OracleError, match="overflows"):
        annulus_radial_solution(p, 1e308, 1.0, 0.5, 1.0, 0.0, 10.0)


# ---------------------------------------------------------------------------
# layered strip


def test_strip_linear_pair_closed_form():
    # sigma 1 | 2 in series, half-half, unit drop:
    # j = 4/3, e_left = 4/3, e_right = 2/3
    sol = two_layer_strip(Linear(1.0), Linear(2.0), split=0.5, voltage=1.0)
    assert abs(sol.j - 4.0 / 3.0) < 1e-9
    assert abs(sol.e_left - 4.0 / 3.0) < 1e-9
    assert abs(sol.e_right - 2.0 / 3.0) < 1e-9
    assert abs(sol.energy - 2.0 / 3.0) < 1e-9
    assert abs(sol.power - 4.0 / 3.0) < 1e-9


def test_strip_flux_continuity_nonlinear():
    left, right = Linear(2.0), PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)
    sol = two_layer_strip(left, right, split=0.4, voltage=1.5)
    assert abs(flux_raw(left, sol.e_left) - sol.j) <= 1e-9 * sol.j
    assert abs(flux_raw(right, sol.e_right) - sol.j) <= 1e-9 * sol.j


def test_strip_fields_reproduce_the_voltage():
    sol = two_layer_strip(PowerLaw(2.0, 1.0, 3.0), Linear(0.5),
                          split=0.3, voltage=2.0)
    drop = sol.split_x * sol.e_left + (sol.length - sol.split_x) * sol.e_right
    assert abs(drop - 2.0) <= 1e-9 * 2.0
    assert abs(sol.power - sol.width * sol.j * drop) <= 1e-12 * sol.power


def test_strip_potential_profile():
    sol = two_layer_strip(Linear(1.0), Linear(2.0), split=0.5, voltage=1.0)
    assert sol.u_at(0.0) == 0.0
    assert abs(sol.u_at(0.5) - 0.5 * sol.e_left) < 1e-12
    assert abs(sol.u_at(1.0) - 1.0) < 1e-9
    xs = np.linspace(0.0, 1.0, 21)
    assert np.all(np.diff(sol.u_at(xs)) > 0.0)


def test_strip_zero_voltage_is_trivial():
    sol = two_layer_strip(Linear(1.0), Linear(2.0), split=0.5, voltage=0.0)
    assert sol.j == 0.0 and sol.energy == 0.0 and sol.power == 0.0


def test_strip_argument_validation():
    with pytest.raises(OracleError):
        two_layer_strip(Linear(1.0), Linear(2.0), split=1.5, voltage=1.0)
    with pytest.raises(OracleError):
        two_layer_strip(Linear(1.0), Linear(2.0), split=0.5, voltage=-1.0)


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_agrees_with_newton_on_tiny_mesh():
    mesh = build_rect_mesh(1.0, 1.0, 0.34)
    materials = MaterialMap({0: PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)})
    datum = make_datum(mesh, [DatumTerm("linear-x", 1.0)], "ramp")
    ref = solve(mesh, materials, datum)
    bf = brute_force_min(mesh, materials, datum, seed=0)
    e_newton = Point.evaluate(Problem(mesh, materials), ref.u).energy
    assert abs(bf.energy - e_newton) <= 1e-6 * abs(e_newton)
    assert bf.n_free == (mesh.n_nodes - len(mesh.boundary_nodes))


def test_brute_force_refuses_large_meshes():
    mesh = build_rect_mesh(1.0, 1.0, 0.08)
    materials = MaterialMap({0: Linear(1.0)})
    datum = make_datum(mesh, [DatumTerm("linear-x", 1.0)], "ramp")
    with pytest.raises(OracleError, match="exceed the brute-force limit"):
        brute_force_min(mesh, materials, datum)


def test_brute_force_zero_datum_stays_at_zero():
    mesh = build_rect_mesh(1.0, 1.0, 0.34)
    materials = MaterialMap({0: Linear(1.0)})
    bm = boundary_mass(mesh)
    datum = make_datum(mesh, [DatumTerm("linear-x", 0.0)], "null", bm)
    bf = brute_force_min(mesh, materials, datum, seed=0, n_restarts=1)
    assert abs(bf.energy) < 1e-12
    assert np.max(np.abs(bf.u)) < 1e-6
