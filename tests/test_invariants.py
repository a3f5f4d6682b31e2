"""Solver invariants on random small meshes.

Each example meshes a disk of random size and resolution with one random
interior inclusion and drives it with a random trace, then checks a
property that every correct solve has, whatever the Newton loop did to
reach it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from condlab.constitutive import PEC, Linear, MaterialMap, PowerLaw
from condlab.dtn import average_dtn_power
from condlab.mesh import DiskInclusion, build_disk_mesh
from condlab.solver import DatumTerm, Problem, make_datum, solve
from reference import nodal_residual

EXITS = {"tol", "floor"}


@st.composite
def small_meshes(draw):
    """A disk with one inclusion (label 1) at least one mesh size away
    from the boundary."""
    radius = draw(st.floats(0.5, 2.0))
    h = draw(st.floats(0.2, 0.35)) * radius
    rho = draw(st.floats(0.0, 0.3)) * radius
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    r_inc = draw(st.floats(0.15, 0.3)) * radius
    inclusion = DiskInclusion((rho * np.cos(angle), rho * np.sin(angle)),
                              r_inc, 1)
    return build_disk_mesh(radius, h, inclusions=[inclusion])


@st.composite
def traces(draw):
    """Terms of a trace: a ramp plus one angular mode."""
    kind = draw(st.sampled_from(["sin", "cos"]))
    return [DatumTerm("linear-x", draw(st.floats(-1.0, 1.0))),
            DatumTerm(kind, draw(st.floats(0.1, 2.0)),
                      k=draw(st.integers(1, 3)))]


def power(sigma_bar, p):
    return PowerLaw(sigma_bar=sigma_bar, e0=1.0, p=p)


@settings(max_examples=8, deadline=None)
@given(mesh=small_meshes(), terms=traces(), p=st.floats(1.5, 4.0),
       sigma_bar=st.floats(0.5, 2.0), sigma_inc=st.floats(0.1, 10.0),
       scale=st.floats(1.0, 3.0), scale_inc=st.floats(1.0, 3.0))
def test_pointwise_ordered_laws_give_ordered_minimum_energies(
        mesh, terms, p, sigma_bar, sigma_inc, scale, scale_inc):
    # sigma_lo <= sigma_hi pointwise makes the energy densities ordered,
    # so min E_lo <= E_lo(u_hi) <= E_hi(u_hi) = min E_hi
    lo = MaterialMap({0: power(sigma_bar, p), 1: Linear(sigma_inc)})
    hi = MaterialMap({0: power(scale * sigma_bar, p),
                      1: Linear(scale_inc * sigma_inc)})
    datum = make_datum(mesh, terms, "f")
    f_lo = solve(mesh, lo, datum)
    f_hi = solve(mesh, hi, datum)
    # a warm start from the other map's solution reaches the same state
    f_warm = solve(mesh, hi, datum, initial_guess=f_lo.u)
    for fld in (f_lo, f_hi, f_warm):
        assert fld.info.exit_reason in EXITS
    assert 0.0 < f_lo.info.energy <= f_hi.info.energy * (1.0 + 1e-9)
    assert abs(f_warm.info.energy - f_hi.info.energy) <= \
        1e-9 * f_hi.info.energy


@settings(max_examples=8, deadline=None)
@given(mesh=small_meshes(), terms=traces(), p=st.floats(1.5, 4.0),
       sigma_bar=st.floats(0.5, 2.0))
def test_pec_net_flux_vanishes(mesh, terms, p, sigma_bar):
    mats = MaterialMap({0: power(sigma_bar, p), 1: PEC()})
    datum = make_datum(mesh, terms, "f")
    fld = solve(mesh, mats, datum)
    assert fld.info.exit_reason in EXITS
    # the net flux into the PEC body, against the current through the
    # outer boundary
    r = nodal_residual(Problem(mesh, mats), fld.u)
    through = np.abs(r[datum.node_ids]).sum()
    assert list(fld.info.pec_flux_balance) == [1]
    assert abs(fld.info.pec_flux_balance[1]) <= 1e-8 * through


@settings(max_examples=40, deadline=None)
@given(mesh=small_meshes(), terms=traces(), p=st.floats(1.02, 4.0),
       log_amp=st.floats(-4.0, 0.0), sigma_bar=st.floats(0.5, 2.0),
       sigma_inc=st.floats(0.1, 10.0))
def test_newton_descends_in_the_ej_regime(mesh, terms, p, log_amp,
                                          sigma_bar, sigma_inc):
    # growth exponents just above 1 (the E-J laws) and small traces make
    # the energy flat below float resolution near the minimizer; the
    # slope root is still accepted there, so no step is halved.  What a
    # line search costs is then the root finder's slopes: up to 6 per
    # step for p < 1.05 far from the minimizer (1.5 for p >= 2), where an
    # energy-decrease test with halving took up to 18
    mats = MaterialMap({0: power(sigma_bar, p), 1: Linear(sigma_inc)})
    datum = make_datum(mesh, terms, "f").scaled(10.0 ** log_amp)
    info = solve(mesh, mats, datum).info
    assert info.exit_reason in EXITS
    # within a stage the energy never rises past the acceptance slack
    for a, b in zip(info.log, info.log[1:]):
        if a["stage"] == b["stage"]:
            assert b["energy"] <= a["energy"] + 1e-10 * abs(a["energy"])
    assert info.line_search_evals <= 8 * info.n_iter


@settings(max_examples=4, deadline=None)
@given(mesh=small_meshes(), terms=traces(), p=st.floats(2.0, 4.0),
       p_inc=st.floats(2.0, 4.0), sigma_bar=st.floats(0.5, 2.0),
       sigma_inc=st.floats(0.1, 10.0))
def test_transfer_identity_at_high_quadrature_order(
        mesh, terms, p, p_inc, sigma_bar, sigma_inc):
    # integral_0^1 <Lambda(alpha f), f> d alpha = min E(u^f); the
    # 16-node Gauss rule resolves the alpha^(p-1) growth of the pairing
    # to a few 1e-7 (largest of 60 examples: 2.1e-7)
    mats = MaterialMap({0: power(sigma_bar, p), 1: power(sigma_inc, p_inc)})
    rep = average_dtn_power(Problem(mesh, mats),
                            make_datum(mesh, terms, "f"), 16)
    assert rep.transfer_residual <= 5e-6
