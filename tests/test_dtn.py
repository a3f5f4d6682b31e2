"""Boundary power pairings, averaged power, Gateaux difference checks."""

import logging

import numpy as np
import pytest

from condlab import dtn
from condlab.dtn import (
    _alpha_sweep,
    average_dtn_power,
    dtn_pairing,
    gateaux_check,
    gauss_on_unit,
)
from condlab import solver
from condlab.constitutive import PEC, PEI, EJPowerLaw, Linear, MaterialMap
from condlab.mesh import DiskInclusion, boundary_mass, build_disk_mesh
from condlab.solver import DatumTerm, Problem, make_datum, solve
import reference
from reference import (average_dtn_pairing, dtn_pairing_via_lift,
                       nodal_residual, ohmic_power)


def data_pair(mesh):
    # g carries a cos(theta) component so that the two data genuinely
    # overlap; a pure sin(2 theta) pairs with the ramp to a symmetry zero
    bm = boundary_mass(mesh)
    f = make_datum(mesh, [DatumTerm("linear-x", 1.0)], "f", bm)
    g = make_datum(mesh, [DatumTerm("cos", 0.5, k=1),
                          DatumTerm("sin", 1.0, k=2)], "g", bm)
    return f, g


# ---------------------------------------------------------------------------
# pairings


def test_own_pairing_is_twice_linear_energy(disk, linear_unit):
    f, _ = data_pair(disk)
    fld = solve(disk, linear_unit, f)
    power = ohmic_power(fld)
    assert abs(power - 2.0 * fld.info.energy) <= 1e-9 * power
    assert abs(power - disk.areas.sum()) <= 1e-6 * power


def test_pairing_equals_volumetric_lift_form(disk, power4):
    f, g = data_pair(disk)
    fld = solve(disk, power4, f)
    direct = dtn_pairing(fld, g)
    lifted = dtn_pairing_via_lift(fld, g)
    assert abs(direct - lifted) <= 1e-8 * max(abs(direct), 1e-12)


def test_pairings_read_the_residual_the_solve_kept(disk, power4,
                                                   monkeypatch):
    f, g = data_pair(disk)
    problem = Problem(disk, power4)
    fld = solve(disk, power4, f, problem=problem)
    assert np.array_equal(fld.residual, nodal_residual(problem, fld.u))
    lift = np.zeros(disk.n_nodes)
    lift[g.node_ids] = g.values
    passes = []
    grad_norms = Problem.grad_norms

    def counting_grad_norms(self, u):
        passes.append(1)
        return grad_norms(self, u)

    monkeypatch.setattr(Problem, "grad_norms", counting_grad_norms)
    dtn_pairing(fld, g)
    ohmic_power(fld)
    dtn_pairing_via_lift(fld, g, lift)
    assert passes == []


def test_pairing_independent_of_lift_choice(disk, power4, rng):
    f, g = data_pair(disk)
    fld = solve(disk, power4, f)
    lift = np.zeros(disk.n_nodes)
    lift[g.node_ids] = g.values
    interior = np.setdiff1d(np.arange(disk.n_nodes), disk.boundary_nodes)
    lift[interior] = rng.uniform(-1.0, 1.0, size=len(interior))
    a = dtn_pairing(fld, g)
    b = dtn_pairing_via_lift(fld, g, lift=lift)
    # the residual vanishes at free nodes only to solver tolerance, so an
    # arbitrary admissible lift agrees to that tolerance, not exactly
    assert abs(a - b) <= 1e-6 * max(abs(a), 1.0)


def test_linear_pairing_is_symmetric(disk, linear_unit):
    f, g = data_pair(disk)
    uf = solve(disk, linear_unit, f)
    ug = solve(disk, linear_unit, g)
    a = dtn_pairing(uf, g)
    b = dtn_pairing(ug, f)
    scale = max(abs(a), abs(b), 1e-12)
    assert abs(a - b) <= 1e-8 * scale


def test_own_pairing_nonnegative(disk, power4):
    for name, terms in [("f1", [DatumTerm("linear-x", 1.0)]),
                        ("f2", [DatumTerm("sin", 0.5, k=3)]),
                        ("f3", [DatumTerm("cos", 2.0, k=1)])]:
        d = make_datum(disk, terms, name)
        fld = solve(disk, power4, d)
        assert ohmic_power(fld) >= 0.0


# ---------------------------------------------------------------------------
# quadrature


def test_gauss_on_unit_weights():
    for order in (1, 4, 16):
        x, w = gauss_on_unit(order)
        assert len(x) == order
        assert np.all((x > 0.0) & (x < 1.0))
        assert np.all(np.diff(x) > 0.0)
        assert abs(w.sum() - 1.0) < 1e-14


def test_gauss_on_unit_degree_exactness():
    x, w = gauss_on_unit(4)  # exact through degree 7
    for k in range(8):
        assert abs(w @ x ** k - 1.0 / (k + 1)) < 1e-14


def test_gauss_on_unit_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_on_unit(0)


def test_gauss_on_unit_computes_each_rule_once():
    x, w = gauss_on_unit(7)
    again = gauss_on_unit(7)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.5


# ---------------------------------------------------------------------------
# averaged power


def test_avg_power_linear_is_half_power(disk, linear_unit):
    f, _ = data_pair(disk)
    rep = average_dtn_power(Problem(disk, linear_unit), f, quad_order=8)
    assert abs(rep.avg_power - 0.5 * rep.power) <= 1e-10 * rep.power


def test_avg_power_quartic_is_quarter_power(disk, power4):
    f, _ = data_pair(disk)
    rep = average_dtn_power(Problem(disk, power4), f, quad_order=8)
    assert abs(rep.avg_power - 0.25 * rep.power) <= 1e-6 * rep.power


def test_avg_power_reproduces_energy(disk, power4):
    # the alpha integrand is a polynomial of degree p - 1, so a handful of
    # Gauss nodes integrate it to solver accuracy
    f, _ = data_pair(disk)
    rep = average_dtn_power(Problem(disk, power4), f, quad_order=4)
    assert rep.transfer_residual <= 1e-7
    assert abs(rep.avg_power - rep.energy) <= 1e-7 * abs(rep.energy)


def test_power_report_structure(disk, linear_unit):
    f, _ = data_pair(disk)
    rep = average_dtn_power(Problem(disk, linear_unit), f, quad_order=6)
    assert rep.datum == "f"
    assert rep.quad_order == 6
    assert len(rep.nodes) == 6
    alphas = [a for a, _, _ in rep.nodes]
    assert alphas == sorted(alphas)
    assert all(w > 0 for _, w, _ in rep.nodes)
    assert all(pr >= 0.0 for _, _, pr in rep.nodes)


def test_avg_pairing_matches_avg_power_on_own_datum(disk, power4):
    f, _ = data_pair(disk)
    rep = average_dtn_power(Problem(disk, power4), f, quad_order=8)
    cross = average_dtn_pairing(disk, power4, f, f, quad_order=8)
    assert abs(cross - rep.avg_power) <= 1e-9 * max(abs(cross), 1e-12)


@pytest.mark.parametrize("mats_fixture", ["linear_unit", "power4"])
def test_averaged_map_is_monotone_in_the_datum(disk, mats_fixture, request):
    # <avg(f1) - avg(f2), f1 - f2> >= 0 up to solver tolerance
    mats = request.getfixturevalue(mats_fixture)
    f1, f2 = data_pair(disk)
    diff = f1.plus(f2, -1.0)
    lhs = average_dtn_pairing(disk, mats, f1, diff, quad_order=6) \
        - average_dtn_pairing(disk, mats, f2, diff, quad_order=6)
    scale = max(average_dtn_power(Problem(disk, mats), f1, quad_order=6)
                .power, 1e-12)
    assert lhs >= -1e-8 * scale


# ---------------------------------------------------------------------------
# Gateaux difference quotients


def test_gateaux_ladder_quartic(disk, power4):
    f = make_datum(disk, [DatumTerm("linear-x", 1.0)], "f")
    phi = make_datum(disk, [DatumTerm("sin", 1.0, k=1)], "phi")
    rep = gateaux_check(disk, power4, f, phi,
                        [1e-1, 1e-2, 1e-3, 1e-4])
    eps = [r.eps for r in rep.rows]
    assert eps == sorted(eps, reverse=True)
    res = [r.residual for r in rep.rows]
    assert res[0] > res[1] > res[2] > res[3]
    assert rep.final_residual <= 1e-3 * rep.scale


def test_gateaux_linear_residual_constant(disk, linear_unit):
    # for ohmic laws the quotient is exact up to (eps/2) <Lambda(phi), phi>
    f, phi = data_pair(disk)
    power_phi = ohmic_power(solve(disk, linear_unit, phi))
    rep = gateaux_check(disk, linear_unit, f, phi, [1e-1, 1e-2, 1e-3])
    for row in rep.rows:
        expected = 0.5 * row.eps * power_phi
        assert abs(row.residual - expected) <= 0.02 * expected


def test_gateaux_zero_direction(disk, linear_unit):
    f, _ = data_pair(disk)
    phi = make_datum(disk, [DatumTerm("linear-x", 0.0)], "null")
    rep = gateaux_check(disk, linear_unit, f, phi, [1e-1, 1e-2])
    assert rep.pairing == 0.0
    assert rep.final_residual <= 1e-12


def test_gateaux_on_a_linear_map_takes_no_newton_step(monkeypatch):
    # the perturbed solves pass the base field as a warm start; a map of
    # p = 2 laws starts at its minimizer all the same
    mesh = build_disk_mesh(1.0, 0.1)
    infos = []
    solve_ = dtn.solve

    def recording_solve(*args, **kwargs):
        fld = solve_(*args, **kwargs)
        infos.append(fld.info)
        return fld

    monkeypatch.setattr(dtn, "solve", recording_solve)
    f = make_datum(mesh, [DatumTerm("linear-x", 1.0)], "f")
    phi = make_datum(mesh, [DatumTerm("sin", 1.0, k=1)], "phi")
    gateaux_check(mesh, MaterialMap({0: Linear(1.0)}), f, phi,
                  [1e-1, 1e-2, 1e-3, 1e-4])
    assert [(i.n_iter, i.factorizations) for i in infos] == [(0, 0)] * 5


# ---------------------------------------------------------------------------
# one compiled problem per (mesh, material map)


def test_average_power_compiles_the_problem_once(monkeypatch):
    mesh = build_disk_mesh(1.0, 0.3, inclusions=[
        DiskInclusion((0.3, 0.0), 0.25, 1)])
    mats = MaterialMap({0: Linear(1.0), 1: PEI()})
    f = make_datum(mesh, [DatumTerm("linear-x", 1.0)], "f")
    builds, masses = [], []
    init, bmass = Problem.__init__, solver.boundary_mass

    def counting_init(self, *args):
        builds.append(1)
        init(self, *args)

    def counting_bmass(m):
        masses.append(1)
        return bmass(m)

    monkeypatch.setattr(Problem, "__init__", counting_init)
    monkeypatch.setattr(solver, "boundary_mass", counting_bmass)
    rep = average_dtn_power(Problem(mesh, mats), f, quad_order=8)
    assert len(rep.nodes) == 8
    assert len(builds) == 1
    assert len(masses) == 1


def test_equal_laws_under_distinct_labels_share_one_group():
    incs = [DiskInclusion((0.45 * np.cos(a), 0.45 * np.sin(a)), 0.2, lab)
            for lab, a in zip((1, 2, 3), (0.3, 2.4, 4.5))]
    mesh = build_disk_mesh(1.0, 0.2, inclusions=incs)
    split = MaterialMap({0: Linear(1.0),
                         **{lab: EJPowerLaw(2.0, 1.0, 3.0)
                            for lab in (1, 2, 3)}})
    merged_mesh = mesh.relabeled(np.minimum(mesh.labels, 1))
    merged = MaterialMap({0: Linear(1.0), 1: EJPowerLaw(2.0, 1.0, 3.0)})
    assert len(Problem(mesh, split).groups) == 2
    assert len(Problem(merged_mesh, merged).groups) == 2
    f, g = data_pair(mesh)
    results = []
    for m, mats in ((mesh, split), (merged_mesh, merged)):
        fld = solve(m, mats, f)
        results.append((fld.info.energy, dtn_pairing(fld, g),
                        average_dtn_power(Problem(m, mats), f, quad_order=4)
                        .avg_power))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# homogeneity on linear maps

LINEAR_MAPS = {
    "pei-cell": {0: Linear(1.0), 1: PEI()},
    "pec-cell": {0: Linear(1.0), 1: PEC()},
    "sigma-1-10": {0: Linear(1.0), 1: Linear(10.0)},
}
ORDER = 6


@pytest.fixture(scope="module")
def cell_disk():
    return build_disk_mesh(1.0, 0.2, inclusions=[
        DiskInclusion((0.3, 0.0), 0.25, 1)])


def sweep_pairing(mesh, mats, f, phi):
    """What the alpha sweep gives for the averaged pairing with phi: the
    weighted sum of the pairings at the Gauss nodes."""
    alphas, weights = gauss_on_unit(ORDER)
    fields = _alpha_sweep(Problem(mesh, mats), f, alphas)
    return float(weights @ [dtn_pairing(fld, phi) for fld in fields])


def assert_rel(a, b, rtol=1e-12):
    assert abs(a - b) <= rtol * abs(b), (a, b)


@pytest.mark.parametrize("name", sorted(LINEAR_MAPS))
def test_homogeneity_path_matches_full_sweep(cell_disk, name):
    # on p = 2 laws u^(alpha f) = alpha u^f, so the sweep's pairing at
    # node k is alpha_k <Lambda(f), f>, and the reference's averaged cross
    # pairing, which solves once and scales, is the sweep's
    mats = MaterialMap(LINEAR_MAPS[name])
    problem = Problem(cell_disk, mats)
    assert problem.is_linear
    f, g = data_pair(cell_disk)
    rep = average_dtn_power(problem, f, quad_order=ORDER)
    alphas, weights = gauss_on_unit(ORDER)
    assert [a for a, _, _ in rep.nodes] == list(alphas)
    assert [w for _, w, _ in rep.nodes] == list(weights)
    for alpha, _, pairing in rep.nodes:
        assert_rel(pairing, alpha * rep.power, 1e-14)
    assert_rel(average_dtn_pairing(cell_disk, mats, f, g, quad_order=ORDER),
               sweep_pairing(cell_disk, mats, f, g))


@pytest.fixture
def dtn_solves(monkeypatch):
    """Records each call of ``solve`` made from condlab.dtn or from the
    reference averaged pairing."""
    calls = []
    counted = dtn.solve

    def counting_solve(*args, **kw):
        calls.append(1)
        return counted(*args, **kw)

    monkeypatch.setattr(dtn, "solve", counting_solve)
    monkeypatch.setattr(reference, "solve", counting_solve)
    return calls


def test_linear_map_sweeps_every_node(cell_disk, dtn_solves, caplog):
    # the reference's averaged cross pairing solves once on a linear map
    mats = MaterialMap(LINEAR_MAPS["pei-cell"])
    f, g = data_pair(cell_disk)
    with caplog.at_level(logging.DEBUG, logger="condlab.dtn"):
        average_dtn_power(Problem(cell_disk, mats), f, quad_order=8)
        assert len(dtn_solves) == 9
        average_dtn_pairing(cell_disk, mats, f, g, quad_order=8)
        assert len(dtn_solves) == 10
    lines = [r.getMessage() for r in caplog.records
             if r.name == "condlab.dtn"]
    assert lines == ["averaged power 'f': quadrature order 8, 9 solves"]


def test_nonlinear_map_sweeps_every_node(disk, power4, dtn_solves, caplog):
    f, _ = data_pair(disk)
    with caplog.at_level(logging.DEBUG, logger="condlab.dtn"):
        average_dtn_power(Problem(disk, power4), f, quad_order=3)
    assert len(dtn_solves) == 4
    assert [r.getMessage() for r in caplog.records
            if r.name == "condlab.dtn"] == [
        "averaged power 'f': quadrature order 3, 4 solves"]


def test_shared_problem_gives_identical_reports(cell_disk):
    mats = MaterialMap(LINEAR_MAPS["sigma-1-10"])
    problem = Problem(cell_disk, mats)
    for datum in data_pair(cell_disk):
        shared = average_dtn_power(problem, datum, 4)
        assert shared == average_dtn_power(Problem(cell_disk, mats), datum, 4)
