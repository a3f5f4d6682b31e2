"""Dirichlet solver: data handling, exactness, optimality, structural regions."""

import gc
import json
import logging
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from condlab import cli, solver

from condlab.constitutive import (
    PEC,
    PEI,
    EJPowerLaw,
    Linear,
    MaterialMap,
    PowerLaw,
)
from condlab.dtn import dtn_pairing, ohmic_power
from condlab.imaging import build_cell_grid, make_cell_phantom
from condlab.mesh import (
    DiskInclusion,
    Mesh,
    boundary_mass,
    build_disk_mesh,
    build_rect_mesh,
)
from condlab.oracle import (
    dtn_pairing_via_lift,
    nodal_residual,
    prolongation,
    two_layer_strip,
)
from condlab.solver import (
    BoundaryDatum,
    DatumTerm,
    Problem,
    SolveError,
    _slope_root,
    boundary_data_continuity_study,
    datum_family,
    element_fields,
    harmonic_initial_guess,
    make_datum,
    project_zero_mean,
    solve,
)


def ramp(mesh, amplitude=1.0, name="ramp"):
    return make_datum(mesh, [DatumTerm("linear-x", amplitude)], name)


# ---------------------------------------------------------------------------
# boundary data


def test_constant_datum_is_exactly_zero(disk):
    for c in (1.0, -7.3, 1e5):
        datum = make_datum(disk, [DatumTerm("expr", c, expr="1")], "c")
        assert np.all(datum.values == 0.0)
    # a trace that varies is kept, however small
    tiny = make_datum(disk, [DatumTerm("expr", 1.0, expr="1 + 1e-12 * x")],
                      "tiny")
    assert tiny.amplitude > 0.0


def test_make_datum_is_zero_mean(disk):
    bm = boundary_mass(disk)
    for terms in ([DatumTerm("linear-x", 1.0)],
                  [DatumTerm("sin", 0.7, k=2)],
                  [DatumTerm("exp-x2-2y", 0.1)]):
        d = make_datum(disk, terms, "d", bm)
        mean = bm.weights @ d.values / bm.total
        assert abs(mean) <= 1e-12 * max(d.amplitude, 1e-300)


def test_expr_term_matches_builtin(disk):
    a = make_datum(disk, [DatumTerm("linear-x", 2.0)], "a")
    b = make_datum(disk, [DatumTerm("expr", 2.0, expr="r*cos(theta)")], "b")
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_unknown_term_kind_rejected(disk):
    with pytest.raises(ValueError, match="unknown datum term kind"):
        make_datum(disk, [DatumTerm("spiral", 1.0)], "bad")


def test_project_zero_mean_reports_shift(square):
    bm = boundary_mass(square)
    vals = np.full(len(bm.node_ids), 3.0)
    shifted, mean = project_zero_mean(vals, bm)
    assert abs(mean - 3.0) < 1e-14
    assert np.allclose(shifted, 0.0, atol=1e-14)
    with pytest.raises(ValueError, match="misaligned"):
        project_zero_mean(vals[:-1], bm)


def test_datum_algebra(disk):
    d = ramp(disk)
    assert np.allclose(d.scaled(2.0).values, 2.0 * d.values)
    s = d.plus(d, -1.0)
    assert np.allclose(s.values, 0.0, atol=1e-15)
    other = ramp(build_disk_mesh(1.0, 0.3))
    with pytest.raises(ValueError, match="different boundaries"):
        d.plus(other)


def test_datum_family_names(disk):
    fam = datum_family(disk, [("f1", [DatumTerm("linear-x", 1.0)]),
                              ("f2", [DatumTerm("sin", 1.0, k=1)])])
    assert [d.name for d in fam] == ["f1", "f2"]


# ---------------------------------------------------------------------------
# exactness on linear problems


def test_linear_disk_ramp_solution_is_affine(disk, linear_unit):
    fld = solve(disk, linear_unit, ramp(disk))
    # u must equal x up to the projection constant, exactly representable
    shift = fld.u - disk.nodes[:, 0]
    assert np.max(np.abs(shift - shift[0])) < 1e-7
    e, _, _ = element_fields(fld)
    assert np.allclose(e[:, 0], -1.0, atol=1e-7)
    assert np.allclose(e[:, 1], 0.0, atol=1e-7)


def test_linear_disk_ramp_energy(disk, linear_unit):
    fld = solve(disk, linear_unit, ramp(disk))
    # unit gradient: energy is half the (polygonal) domain area
    assert abs(fld.info.energy - 0.5 * disk.areas.sum()) < 1e-9
    assert abs(fld.info.energy - 0.5 * np.pi) < 0.02 * np.pi
    assert abs(Problem(disk, linear_unit).energy(fld.u)
               - fld.info.energy) < 1e-14


def test_zero_datum_gives_zero_field(disk, linear_unit):
    fld = solve(disk, linear_unit, ramp(disk, 0.0, "null"))
    assert np.max(np.abs(fld.u)) < 1e-10
    assert abs(fld.info.energy) < 1e-20


def test_linear_solve_is_quick(disk, linear_unit):
    fld = solve(disk, linear_unit, ramp(disk))
    assert fld.info.n_iter <= 3


# ---------------------------------------------------------------------------
# exit reporting


def test_linear_solve_exits_on_tolerance(disk, linear_unit, caplog):
    with caplog.at_level(logging.DEBUG, logger="condlab.solver"):
        fld = solve(disk, linear_unit, ramp(disk))
    assert fld.info.exit_reason == "tol"
    assert fld.info.linsolve_failures == 0
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 1 and "exit tol" in lines[0]


def ej_sin2_solve(amplitude, n=10.0):
    # an E-J law (p = 1 + 1/n) driven by a sin 2 theta trace; a small
    # trace sinks the energy decrease below float resolution near the
    # minimizer
    mesh = build_disk_mesh(1.0, 0.3)
    mats = MaterialMap({0: EJPowerLaw(1.0, 1.0, n)})
    datum = make_datum(mesh, [DatumTerm("sin", amplitude, k=2)], "small")
    return solve(mesh, mats, datum)


def test_small_trace_solve_exits_on_tolerance():
    # exact Newton directions and slope-root steps reach the default
    # relative tolerance before the energy stalls
    fld = ej_sin2_solve(1e-3)
    assert fld.info.exit_reason == "tol"
    assert fld.info.grad_norm <= fld.info.grad_tol


def test_solve_below_resolution_exits_at_roundoff_floor(monkeypatch):
    monkeypatch.setattr(solver, "_GRAD_RTOL", 1e-16)
    fld = ej_sin2_solve(1e-4)
    assert fld.info.exit_reason == "floor"
    assert fld.info.n_iter > 0
    assert fld.info.grad_tol < fld.info.grad_norm <= 32.0 * \
        fld.info.grad_floor


def test_float_resolution_solve_exits_on_tolerance(monkeypatch):
    # energy decreases sink below float resolution here; the slope root
    # is still accepted, so the exact steps go on down to the tolerance
    # (measured: 18 steps, 41 evaluations)
    monkeypatch.setattr(solver, "_GRAD_RTOL", 1e-16)
    info = ej_sin2_solve(1e-3).info
    assert info.exit_reason == "tol"
    assert 0 < info.n_iter <= 25
    assert info.line_search_evals <= 3 * info.n_iter
    assert info.grad_norm <= info.grad_tol


def test_spent_budget_is_bounded_by_the_roundoff_floor(monkeypatch):
    # a stage that runs out of steps is accepted only within the
    # round-off floor; a floor factor that no longer covers the final
    # gradient refuses it
    monkeypatch.setattr(solver, "_GRAD_RTOL", 1e-16)
    monkeypatch.setattr(solver, "_FLOOR_FACTOR", 0.01)
    monkeypatch.setattr(solver, "_MAX_ITER", 30)
    with pytest.raises(SolveError,
                       match=r"did not converge \(iteration budget spent\)"):
        ej_sin2_solve(1e-4)


def test_flat_ej_solve_takes_exact_steps():
    # a steep E-J law (p = 1.05) on a unit trace: near the minimizer its
    # energy is flat below float resolution, where an energy-decrease
    # test rejects the exact full step and halves it many times over
    # (measured here: 17 steps, 63 evaluations; 65 and 689 with that test)
    info = ej_sin2_solve(1.0, n=20.0).info
    assert info.exit_reason == "tol"
    assert info.n_iter <= 25
    assert info.line_search_evals <= 4 * info.n_iter


def test_solve_counts_its_work(caplog, monkeypatch):
    mesh = build_disk_mesh(1.0, 0.15,
                           inclusions=[DiskInclusion((0.2, 0.1), 0.35, 1)])
    mats = MaterialMap({0: PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0),
                        1: Linear(10.0)})
    datum = make_datum(mesh, [DatumTerm("sin", 1.0, k=2)], "sin2")
    passes = []
    grad_norms = Problem.grad_norms

    def counting_grad_norms(self, u):
        passes.append(1)
        return grad_norms(self, u)

    monkeypatch.setattr(Problem, "grad_norms", counting_grad_norms)
    with caplog.at_level(logging.DEBUG, logger="condlab.solver"):
        info = solve(mesh, mats, datum).info
    assert info.n_iter > 0
    assert info.factorizations == info.n_iter
    # mostly one slope at the full step, whose point is accepted as it
    # is (measured 1.4 points per step)
    assert info.line_search_evals <= 2.0 * info.n_iter
    # one element pass per evaluated point: the line-search points and
    # the start; later stages start at the point the one before stopped
    # at, and the closing state is the last point
    assert len(passes) == info.line_search_evals + 1
    line = caplog.records[-1].getMessage()
    assert f"{info.factorizations} factorizations" in line
    assert f"{info.line_search_evals} line-search evaluations" in line


@pytest.mark.parametrize("root", [0.03, 0.3, 0.9])
def test_slope_root_finds_the_ray_minimizer(root):
    calls = []

    def slope(t):
        # convex ray with a kink, overflowing past t = 0.95
        calls.append(t)
        if t > 0.95:
            return np.inf
        return (t - root) * (1.0 if t < root else 4.0)

    s0 = slope(0.0)
    calls.clear()
    t = _slope_root(slope, s0)
    assert len(calls) <= 12
    assert abs(slope(t)) <= 1e-2 * root


def test_slope_root_takes_the_full_step_when_still_descending():
    assert _slope_root(lambda t: t - 2.0, -2.0) == 1.0


def test_piecewise_linear_solve_takes_one_newton_step():
    # the exact Newton direction of a quadratic energy lands on the
    # minimizer, so the full step is taken and the tolerance met at once
    mesh = build_disk_mesh(1.0, 0.15,
                           inclusions=[DiskInclusion((0.2, 0.1), 0.35, 1)])
    mats = MaterialMap({0: Linear(1.0), 1: Linear(10.0)})
    info = solve(mesh, mats, ramp(mesh)).info
    assert info.exit_reason == "tol"
    assert info.n_iter <= 1
    assert info.linsolve_failures == 0


# ---------------------------------------------------------------------------
# input validation


def test_non_zero_mean_datum_rejected(disk, linear_unit):
    bm = boundary_mass(disk)
    vals = disk.nodes[bm.node_ids, 0] + 5.0
    bad = BoundaryDatum("offset", bm.node_ids, vals)
    with pytest.raises(SolveError, match="is not zero-mean"):
        solve(disk, linear_unit, bad)


def test_foreign_boundary_rejected(disk, linear_unit):
    other = build_disk_mesh(1.0, 0.3)
    with pytest.raises(SolveError, match="does not cover"):
        solve(disk, linear_unit, ramp(other))


def test_bad_initial_guess_shape_rejected(disk, linear_unit):
    with pytest.raises(SolveError, match="initial guess"):
        solve(disk, linear_unit, ramp(disk),
              initial_guess=np.zeros(3))


def test_problem_for_another_material_map_rejected(disk, linear_unit,
                                                   power4):
    with pytest.raises(ValueError, match="another mesh or material map"):
        solve(disk, linear_unit, ramp(disk), problem=Problem(disk, power4))


def test_field_helpers_read_the_solved_problem(disk, power4, problem_builds):
    problem = Problem(disk, power4)
    fld = solve(disk, power4, ramp(disk), problem=problem)
    assert fld.problem is problem
    phi = make_datum(disk, [DatumTerm("sin", 1.0, k=2)], "phi")
    dtn_pairing(fld, phi)
    ohmic_power(fld)
    dtn_pairing_via_lift(fld, phi)
    element_fields(fld)
    assert len(problem_builds) == 1


def test_all_structural_mesh_rejected(square):
    mats = MaterialMap({0: Linear(1.0), 1: PEI()})
    relabeled = square.relabeled(np.ones(square.n_triangles, dtype=int))
    with pytest.raises(SolveError, match="no conducting triangles"):
        solve(relabeled, mats, ramp(square))


# ---------------------------------------------------------------------------
# nonlinear consistency


def test_homogeneous_scaling(disk, power4):
    base = solve(disk, power4, ramp(disk))
    for alpha in (0.5, 2.0):
        scaled = solve(disk, power4, ramp(disk).scaled(alpha))
        amp = np.max(np.abs(base.u))
        assert np.max(np.abs(scaled.u - alpha * base.u)) <= 1e-6 * amp
        ratio = scaled.info.energy / base.info.energy
        assert abs(ratio - alpha ** 4.0) <= 1e-6 * alpha ** 4.0


def test_assembled_gradient_matches_finite_differences():
    mesh = build_rect_mesh(1.0, 1.0, 0.26)
    mats = MaterialMap({0: PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)})
    datum = ramp(mesh)
    problem = Problem(mesh, mats)
    u_fix = np.zeros(mesh.n_nodes)
    u_fix[datum.node_ids] = datum.values
    rng = np.random.default_rng(3)
    x = 0.3 * rng.standard_normal(problem.n_free)
    u = problem.nodal_state(u_fix, x)
    g = nodal_residual(problem, u)
    free_nodes = np.nonzero(problem.free_of_node >= 0)[0]
    h = 1e-6
    for node in free_nodes:
        up, dn = u.copy(), u.copy()
        up[node] += h
        dn[node] -= h
        num = (problem.energy(up) - problem.energy(dn)) / (2.0 * h)
        assert abs(num - g[node]) <= 1e-5 * max(np.abs(g).max(), 1e-12)


def test_energy_optimality_under_perturbations(disk, power4, rng):
    fld = solve(disk, power4, ramp(disk))
    e_star = fld.info.energy
    interior = np.setdiff1d(np.arange(disk.n_nodes), disk.boundary_nodes)
    scale = 1e-4 * np.linalg.norm(fld.u)
    problem = Problem(disk, power4)
    for _ in range(100):
        u_try = fld.u.copy()
        u_try[interior] += scale * rng.standard_normal(len(interior))
        assert problem.energy(u_try) \
            >= e_star - 1e-10 * max(abs(e_star), 1.0)


def test_solution_unique_across_initial_guesses(disk, power4, rng):
    datum = ramp(disk)
    a = solve(disk, power4, datum)
    guess = rng.uniform(-1.0, 1.0, size=disk.n_nodes)
    b = solve(disk, power4, datum, initial_guess=guess)
    amp = np.max(np.abs(a.u))
    assert np.max(np.abs(a.u - b.u)) <= 1e-6 * amp


def test_warm_start_reconverges_fast(disk, power4):
    datum = ramp(disk)
    a = solve(disk, power4, datum)
    b = solve(disk, power4, datum, initial_guess=a.u)
    assert b.info.n_iter <= a.info.n_iter
    assert np.max(np.abs(a.u - b.u)) <= 1e-8 * np.max(np.abs(a.u))


# ---------------------------------------------------------------------------
# layered strip against the series oracle


def strip_problem(model_left, model_right, voltage):
    mesh = build_rect_mesh(1.0, 1.0, 0.2, layer_split=0.5)
    mats = MaterialMap({0: model_left, 1: model_right})
    sol = two_layer_strip(model_left, model_right, split=0.5,
                          voltage=voltage)
    bm = boundary_mass(mesh)
    raw = sol.u_at(mesh.nodes[bm.node_ids, 0])
    vals, mean = project_zero_mean(raw, bm)
    datum = BoundaryDatum("strip", bm.node_ids, vals)
    return mesh, mats, sol, datum, mean


@pytest.mark.parametrize("right", [Linear(2.0),
                                   PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)])
def test_strip_profile_reproduced(right):
    mesh, mats, sol, datum, mean = strip_problem(Linear(1.0), right, 1.0)
    fld = solve(mesh, mats, datum)
    exact = sol.u_at(mesh.nodes[:, 0]) - mean
    assert np.max(np.abs(fld.u - exact)) <= 1e-7


@pytest.mark.parametrize("right", [Linear(2.0),
                                   PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)])
def test_strip_current_constant_across_layers(right):
    mesh, mats, sol, datum, _ = strip_problem(Linear(1.0), right, 1.0)
    fld = solve(mesh, mats, datum)
    j = np.linalg.norm(element_fields(fld)[1], axis=1)
    assert np.max(np.abs(j - sol.j)) <= 1e-7 * sol.j


def test_strip_energy_matches_oracle():
    mesh, mats, sol, datum, _ = strip_problem(
        Linear(1.0), PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0), 1.0)
    fld = solve(mesh, mats, datum)
    assert abs(fld.info.energy - sol.energy) <= 1e-8 * sol.energy


# ---------------------------------------------------------------------------
# structural regions


def pec_disk():
    mesh = build_disk_mesh(1.0, 0.15,
                           inclusions=[DiskInclusion((0.0, 0.0), 0.3, 1)])
    return mesh, MaterialMap({0: Linear(1.0), 1: PEC()})


@pytest.mark.parametrize("kinds", [("pec", "pei"), ("pei", "pec"),
                                   ("pec", "pec"), ("pei", "p4")])
def test_unknown_map_follows_the_kind_of_each_label(kinds):
    # reference: the masks built triangle by triangle; a structural label
    # of the map that no triangle carries changes nothing
    mesh = build_disk_mesh(1.0, 0.2,
                           inclusions=[DiskInclusion((-0.4, 0.0), 0.25, 1),
                                       DiskInclusion((0.4, 0.0), 0.25, 2)])
    model = {"pec": PEC(), "pei": PEI(), "p4": PowerLaw(2.0, 1.0, 4.0)}
    mats = MaterialMap({0: Linear(1.0), 1: model[kinds[0]],
                        2: model[kinds[1]], 9: PEC()})
    problem = Problem(mesh, mats)
    kind = [mats.model_for(lab).kind for lab in mesh.labels.tolist()]
    active = np.array([k not in ("pec", "pei") for k in kind])
    assert np.array_equal(problem.active_tris, np.nonzero(active)[0])
    pec_labels = [lab for lab, k in zip((1, 2), kinds) if k == "pec"]
    assert list(problem.pec_groups) == pec_labels
    for lab in pec_labels:
        assert np.array_equal(problem.pec_groups[lab],
                              np.unique(mesh.triangles[mesh.labels == lab]))
    # a node stays when it touches a conducting triangle, lies on the
    # boundary or joins a PEC unknown
    kept = np.zeros(mesh.n_nodes, dtype=bool)
    kept[np.unique(mesh.triangles[active])] = True
    kept[mesh.boundary_nodes] = True
    for lab in pec_labels:
        kept[problem.pec_groups[lab]] = True
    assert np.array_equal(problem.removed_nodes, np.nonzero(~kept)[0])


def test_pec_component_is_equipotential():
    mesh, mats = pec_disk()
    fld = solve(mesh, mats, ramp(mesh))
    pec_nodes = np.unique(mesh.triangles[mesh.labels == 1])
    vals = fld.u[pec_nodes]
    assert np.max(np.abs(vals - vals[0])) < 1e-12
    assert fld.pec_values[1] == pytest.approx(vals[0])


def test_pec_net_flux_balances():
    mesh, mats = pec_disk()
    fld = solve(mesh, mats, ramp(mesh))
    assert abs(fld.info.pec_flux_balance[1]) <= 1e-7


def test_pec_raises_energy_of_ramp():
    # upgrading the inclusion to a perfect conductor can only increase
    # the energy of a fixed Dirichlet datum; for the ramp it is strict
    mesh, mats = pec_disk()
    e_pec = solve(mesh, mats, ramp(mesh)).info.energy
    e_bg = solve(mesh, MaterialMap({0: Linear(1.0), 1: Linear(1.0)}),
                 ramp(mesh)).info.energy
    assert e_pec > e_bg


def test_pec_touching_boundary_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 0.25, layer_split=0.5)
    mats = MaterialMap({0: Linear(1.0), 1: PEC()})
    with pytest.raises(SolveError, match="PEC component .* touches"):
        solve(mesh, mats, ramp(mesh))


def test_pei_removes_interior_nodes_only():
    mesh = build_disk_mesh(1.0, 0.12,
                           inclusions=[DiskInclusion((0.0, 0.0), 0.35, 1)])
    mats = MaterialMap({0: Linear(1.0), 1: PEI()})
    fld = solve(mesh, mats, ramp(mesh))
    removed = ~fld.valid_mask
    assert removed.sum() > 0
    assert np.all(np.isnan(fld.u[removed]))
    assert not np.any(np.isnan(fld.u[fld.valid_mask]))
    # removed nodes belong to no conducting triangle
    active_nodes = np.unique(mesh.triangles[mesh.labels == 0])
    assert not np.any(fld.valid_mask[removed])
    assert len(np.intersect1d(np.nonzero(removed)[0], active_nodes)) == 0


def test_pei_lowers_energy_of_ramp():
    mesh = build_disk_mesh(1.0, 0.12,
                           inclusions=[DiskInclusion((0.0, 0.0), 0.35, 1)])
    e_pei = solve(mesh, MaterialMap({0: Linear(1.0), 1: PEI()}),
                  ramp(mesh)).info.energy
    e_bg = solve(mesh, MaterialMap({0: Linear(1.0), 1: Linear(1.0)}),
                 ramp(mesh)).info.energy
    assert e_pei < e_bg


def test_structural_regions_have_zero_field_rows():
    mesh, mats = pec_disk()
    fld = solve(mesh, mats, ramp(mesh))
    e, j, _ = element_fields(fld)
    pec_tris = mesh.labels == 1
    assert np.all(e[pec_tris] == 0.0)
    assert np.all(j[pec_tris] == 0.0)


# ---------------------------------------------------------------------------
# band assembly


def coo_reduced(problem, elem):
    """Element matrices summed through COO into the full nodal matrix K,
    and the reduced P^T K P."""
    tris = problem.triangles
    n = problem.mesh.n_nodes
    k = sparse.coo_matrix((elem.ravel(), (np.repeat(tris, 3, axis=1).ravel(),
                                          np.tile(tris, (1, 3)).ravel())),
                          shape=(n, n)).tocsr()
    p = prolongation(problem)
    return k, p.T @ k @ p


def einsum_hessian_elements(problem, u):
    """Element Hessians area * G^T h G with the 2x2 law Hessian h."""
    grads, norms = problem.grad_norms(u)
    sig = problem.per_tri(norms, "sigma")
    dfl = problem.per_tri(norms, "dflux")
    unit = np.where(norms[:, None] > 0.0,
                    grads / np.maximum(norms, 1e-300)[:, None], 0.0)
    h = sig[:, None, None] * np.eye(2) \
        + (dfl - sig)[:, None, None] * np.einsum("mi,mj->mij", unit, unit)
    return np.einsum("m,mki,mkl,mlj->mij", problem.areas, problem.grads, h,
                     problem.grads)


def band_to_dense(band, ab):
    """The symmetric matrix held in lower band storage, in unknown order."""
    n = band.n
    a = np.zeros((n, n))
    for r in range(band.width + 1):
        # the last r slots of band row r lie outside the matrix
        assert np.all(ab[r, n - r:] == 0.0)
        j = np.arange(n - r)
        a[j + r, j] = ab[r, :n - r]
    a += np.tril(a, -1).T
    out = np.empty_like(a)
    out[np.ix_(band.order, band.order)] = a
    return out


def band_case(kind):
    mesh = build_disk_mesh(1.0, 0.2,
                           inclusions=[DiskInclusion((0.1, -0.1), 0.35, 1)])
    p3 = PowerLaw(sigma_bar=1.0, e0=1.0, p=3.0)
    inclusion = {"pei": PEI(), "pec": PEC(),
                 "p4": PowerLaw(sigma_bar=2.0, e0=1.0, p=4.0)}[kind]
    background = Linear(1.0) if kind == "p4" else p3
    return mesh, MaterialMap({0: background, 1: inclusion})


@pytest.mark.parametrize("kind", ["pei", "pec", "p4"])
def test_band_hessian_matches_coo_assembly(kind, rng):
    mesh, mats = band_case(kind)
    problem = Problem(mesh, mats)
    if kind == "pec":
        # the collapsed PEC unknown is one column
        assert problem.n_free < np.sum(problem.free_of_node >= 0)
    u_fix = np.zeros(mesh.n_nodes)
    datum = make_datum(mesh, [DatumTerm("sin", 1.0, k=2)], "sin2")
    u_fix[datum.node_ids] = datum.values
    x = harmonic_initial_guess(problem, u_fix) \
        + 0.1 * rng.standard_normal(problem.n_free)
    u = problem.nodal_state(u_fix, x)
    grads, norms = problem.grad_norms(u)
    ab = problem.hessian(grads, norms, problem.per_tri(norms, "sigma"))
    dense = band_to_dense(problem.band, ab)
    ref = coo_reduced(problem, einsum_hessian_elements(problem, u))[1]
    ref = ref.toarray()
    assert np.abs(dense - ref).max() <= 1e-13 * np.abs(ref).max()

    rhs = -(prolongation(problem).T @ nodal_residual(problem, u))
    progress = solver._Progress()
    d, inv_diag = solver._newton_direction(problem.band, ab, rhs, progress)
    assert np.allclose(d, np.linalg.solve(ref, rhs), rtol=1e-10,
                       atol=1e-12 * np.abs(d).max())
    assert np.allclose(inv_diag, 1.0 / np.diag(ref), rtol=1e-13)
    assert progress.factorizations == 1 and progress.linsolve_failures == 0


@pytest.mark.parametrize("kind", ["pei", "pec"])
def test_index_maps_equal_the_sparse_prolongation(kind, rng):
    # fancy indexing and one bincount give the sums of the sparse
    # products, term by term in the same order
    mesh, mats = band_case(kind)
    problem = Problem(mesh, mats)
    u_fix = np.zeros(mesh.n_nodes)
    u_fix[mesh.boundary_nodes] = rng.standard_normal(
        len(mesh.boundary_nodes))
    x = rng.standard_normal(problem.n_free)
    p = prolongation(problem)
    u = u_fix + p @ x
    u[problem.removed_nodes] = np.nan
    assert np.array_equal(problem.nodal_state(u_fix, x), u, equal_nan=True)
    r = rng.standard_normal(mesh.n_nodes)
    assert np.array_equal(problem.reduce(r), p.T.tocsr() @ r)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def built_problems(monkeypatch):
    """Keeps each ``Problem`` built while the test runs."""
    problems = []
    init = Problem.__init__

    def keeping_init(self, *args):
        init(self, *args)
        problems.append(self)

    monkeypatch.setattr(Problem, "__init__", keeping_init)
    return problems


@pytest.mark.parametrize("command, config, structural", [
    ("monotonicity-suite", "battery.json", {"pec", "pei"}),
    ("mpm-image", "phantom_double.json", {"pei"}),
    ("reproduce-wire", "wire_tables.json", {"pei"})])
def test_band_order_is_scipys_on_the_shipped_configs(
        command, config, structural, tmp_path, built_problems):
    argv = [command, "--config", str(CONFIGS / config), "--out",
            str(tmp_path)]
    assert cli.main(argv + (["--workers", "1"]
                            if command == "mpm-image" else [])) == 0
    kinds = set()
    for problem in built_problems:
        cols = problem.free_of_node[problem.triangles]
        ci = np.repeat(cols, 3, axis=1).ravel()
        cj = np.tile(cols, (1, 3)).ravel()
        free = (ci >= 0) & (cj >= 0)
        n = problem.n_free
        graph = sparse.csr_matrix((np.ones(int(free.sum())),
                                   (ci[free], cj[free])), shape=(n, n))
        assert np.array_equal(
            problem.band.order,
            csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True))
        kinds |= {m.kind for m in problem.materials.models.values()
                  if m.is_structural}
    assert len(built_problems) > 1 and kinds == structural


def test_band_is_narrower_than_the_natural_order():
    mesh, mats = band_case("p4")
    problem = Problem(mesh, mats)
    a = coo_reduced(problem, problem.unit_elements)[1].tocoo()
    natural = int(np.max(np.abs(a.row - a.col)))
    assert problem.band.width < natural


def wire_healthy_problem():
    cfg = json.loads((CONFIGS / "wire_tables.json").read_text())["healthy"]
    mesh = cli.mesh_from_spec(cfg["mesh"], str(CONFIGS))
    return Problem(mesh, cli.materials_from_spec(cfg["materials"]))


@pytest.mark.parametrize("case", ["wire unit stiffness", "p4 hessian"])
def test_band_lapack_calls_equal_scipys_wrappers(case, rng):
    if case == "wire unit stiffness":
        problem = wire_healthy_problem()
        ab = problem.band.assemble(problem.unit_elements)
    else:
        mesh, mats = band_case("p4")
        problem = Problem(mesh, mats)
        u_fix = np.zeros(mesh.n_nodes)
        datum = make_datum(mesh, [DatumTerm("sin", 1.0, k=2)], "sin2")
        u_fix[datum.node_ids] = datum.values
        x = harmonic_initial_guess(problem, u_fix) \
            + 0.1 * rng.standard_normal(problem.n_free)
        grads, norms = problem.grad_norms(problem.nodal_state(u_fix, x))
        ab = problem.hessian(grads, norms, problem.per_tri(norms, "sigma"))
    band = problem.band
    ref = cholesky_banded(ab, lower=True)
    factor = band.factor(ab)
    assert np.array_equal(factor, ref)
    rhs = rng.standard_normal(band.n)
    x = np.empty(band.n)
    x[band.order] = cho_solve_banded((ref, True), rhs[band.order])
    assert np.array_equal(band.solve(factor, rhs), x)


def test_problem_builds_one_graph(monkeypatch):
    # the band's graph proves the boundary paths and gives the order the
    # solve factorizes in
    mesh = build_disk_mesh(1.0, 0.15)
    grid = build_cell_grid(mesh, 5, 5)
    calls = []
    graph = solver.adjacency

    def counting_adjacency(*args):
        calls.append(1)
        return graph(*args)

    monkeypatch.setattr(solver, "adjacency", counting_adjacency)
    for model in (PEC(), PEI()):
        calls.clear()
        cell_mesh, mats = make_cell_phantom(mesh, grid, [grid.n_cells // 2],
                                            MaterialMap({0: Linear(1.0)}),
                                            model)
        solve(cell_mesh, mats, ramp(cell_mesh))
        assert len(calls) == 1


def test_stranded_islands_report_their_summed_count():
    # island a: a PEC core in a PEI ring; island b: a PEC core in a
    # conducting ring in a PEI ring
    mesh = build_disk_mesh(1.0, 0.1)
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    ra = np.linalg.norm(cent - [-0.45, 0.0], axis=1)
    rb = np.linalg.norm(cent - [0.45, 0.0], axis=1)
    a = np.where(ra < 0.15, 2, np.where(ra < 0.3, 1, 0))
    b = np.where(rb < 0.1, 3, np.where((rb >= 0.25) & (rb < 0.4), 1, 0))
    mats = MaterialMap({0: Linear(1.0), 1: PEI(), 2: PEC(), 3: PEC()})

    def stranded(labels):
        with pytest.raises(SolveError, match="free unknowns have no "
                                             "conducting path") as exc:
            Problem(mesh.relabeled(labels), mats)
        return int(str(exc.value).split()[0])

    one, other = stranded(a), stranded(b)
    assert one == 1 and other > 1
    assert stranded(np.maximum(a, b)) == one + other


def test_non_positive_definite_hessian_takes_the_gradient_fallback(
        monkeypatch):
    mesh, mats = band_case("p4")
    problem = Problem(mesh, mats)
    datum = make_datum(mesh, [DatumTerm("sin", 1.0, k=2)], "sin2")
    # warm-started, so the first factorization is the first Newton step's
    start = solve(mesh, MaterialMap({0: Linear(1.0), 1: Linear(1.0)}),
                  datum).u
    ref = solve(mesh, mats, datum, initial_guess=start, problem=problem)
    dpbtrf = solver.dpbtrf
    calls = []

    def non_positive_once(ab, **kw):
        if not calls:
            ab = ab.copy()
            ab[0, 0] = -ab[0, 0]
        calls.append(1)
        return dpbtrf(ab, **kw)

    monkeypatch.setattr(solver, "dpbtrf", non_positive_once)
    info = solve(mesh, mats, datum, initial_guess=start,
                 problem=problem).info
    assert info.linsolve_failures == 1
    assert ref.info.linsolve_failures == 0
    assert info.log[0]["fallback"] and not ref.info.log[0]["fallback"]
    assert not any(row["fallback"] for row in info.log[1:])
    assert info.exit_reason == "tol"
    assert info.energy == pytest.approx(ref.info.energy, rel=1e-10)


# ---------------------------------------------------------------------------
# harmonic start


def test_harmonic_start_factorizes_once_per_problem(monkeypatch):
    mesh, mats = pec_disk()
    problem = Problem(mesh, mats)
    calls = []
    dpbtrf = solver.dpbtrf

    def counting_dpbtrf(*args, **kw):
        calls.append(1)
        return dpbtrf(*args, **kw)

    monkeypatch.setattr(solver, "dpbtrf", counting_dpbtrf)
    k, a = coo_reduced(problem, problem.unit_elements)
    for datum in (ramp(mesh),
                  make_datum(mesh, [DatumTerm("sin", 1.0, k=2)], "sin2")):
        u_fix = np.zeros(mesh.n_nodes)
        u_fix[datum.node_ids] = datum.values
        x = harmonic_initial_guess(problem, u_fix)
        ref = spsolve(a.tocsc(), -prolongation(problem).T @ (k @ u_fix))
        assert np.allclose(x, ref, rtol=1e-12, atol=1e-14)
        solve(mesh, mats, datum, problem=problem)
    assert len(calls) == 1


def test_continuation_stages_are_built_once_per_problem(disk, power4,
                                                        monkeypatch):
    problem = Problem(disk, power4)
    calls = []
    scale = solver.scale_reg_eps

    def counting_scale(model, factor):
        calls.append(factor)
        return scale(model, factor)

    monkeypatch.setattr(solver, "scale_reg_eps", counting_scale)
    for datum in (ramp(disk),
                  make_datum(disk, [DatumTerm("sin", 1.0, k=2)], "sin2")):
        solve(disk, power4, datum, problem=problem)
    assert calls == [1e3, 1e2, 1e1]
    stages = problem.stages
    assert all(a is b for a, b in zip(stages, problem.stages))
    floor = problem.groups[0][0].reg_eps
    assert [s.groups[0][0].reg_eps for s in stages[:-1]] == \
        [1e3 * floor, 1e2 * floor, 1e1 * floor]
    assert stages[-1] is problem
    assert all(s.band is problem.band for s in stages)


def test_stages_follow_the_laws(monkeypatch):
    # only a law with a floor (p != 2) makes continuation stages
    mesh = build_disk_mesh(1.0, 0.2,
                           inclusions=[DiskInclusion((0.2, 0.0), 0.3, 1)])
    maps = {"linear+pec": (MaterialMap({0: Linear(1.0), 1: PEC()}), 1),
            "contrast": (MaterialMap({0: Linear(1.0), 1: Linear(5.0)}), 1),
            "p=4": (MaterialMap({0: PowerLaw(2.0, 1.0, 4.0),
                                 1: Linear(1.0)}), 4)}
    datum = make_datum(mesh, [DatumTerm("sin", 1.5, k=2)], "sin2")
    stage_calls = []
    newton_stage = solver._newton_stage

    def counting_stage(*args):
        stage_calls.append(1)
        return newton_stage(*args)

    monkeypatch.setattr(solver, "_newton_stage", counting_stage)
    fields = {}
    for name, (mats, n_stages) in maps.items():
        stage_calls.clear()
        fields[name] = solve(mesh, mats, datum)
        assert len(stage_calls) == n_stages, name
        assert len(fields[name].problem.stages) == n_stages, name
    # four stages of one linear-contrast map end where one stage does:
    # the later ones start at a point that already meets the tolerance
    monkeypatch.setattr(Problem, "stages",
                        property(lambda problem: (problem,) * 4))
    four = solve(mesh, maps["contrast"][0], datum)
    one = fields["contrast"]
    assert four.info.n_iter == one.info.n_iter > 0
    assert four.info.energy == one.info.energy
    assert np.array_equal(four.u, one.u)


@pytest.mark.parametrize("floored", [False, True])
def test_solved_problem_is_freed_without_the_cycle_collector(disk, floored):
    # a Problem in a reference cycle keeps its arrays until the cycle
    # collector runs, which raises the peak memory of a scan that builds
    # one Problem per cell
    mats = MaterialMap({0: PowerLaw(2.0, 1.0, 4.0 if floored else 2.0)})
    gc.disable()
    try:
        problem = Problem(disk, mats)
        solve(disk, mats, ramp(disk), problem=problem)
        assert len(problem.stages) == (4 if floored else 1)
        ref = weakref.ref(problem)
        del problem
        assert ref() is None
    finally:
        gc.enable()


def test_linear_and_p2_power_law_share_one_group():
    mesh = build_disk_mesh(1.0, 0.3,
                           inclusions=[DiskInclusion((0.3, 0.0), 0.3, 1)])
    mats = MaterialMap({0: Linear(2.0), 1: PowerLaw(2.0, 1.0, 2.0)})
    problem = Problem(mesh, mats)
    assert len(problem.groups) == 1
    assert len(problem.groups[0][1]) == len(problem.active_tris)


def test_nonlinear_problem_factors_its_harmonic_start_once(disk, power4,
                                                          monkeypatch):
    # every cold start on a Problem, linear or not, back-solves against
    # the one kept factor of the unit stiffness
    problem = Problem(disk, power4)
    unit_assemblies = []
    assemble = solver.Band.assemble

    def spy(band, elem):
        if elem is problem.unit_elements:
            unit_assemblies.append(elem)
        return assemble(band, elem)

    monkeypatch.setattr(solver.Band, "assemble", spy)
    data = [make_datum(disk, [DatumTerm(kind, 1.0, k=k)], f"{kind}{k}")
            for kind, k in (("sin", 2), ("cos", 2), ("sin", 3))]
    for datum in data:
        fld = solve(disk, power4, datum, problem=problem)
        assert fld.info.n_iter > 0
    assert len(unit_assemblies) == 1
    assert "unit_factor" in vars(problem)


def test_harmonic_start_without_free_unknowns():
    # two triangles, every node on the boundary: nothing to factorize
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                [[0, 1, 2], [0, 2, 3]], [0, 0])
    mats = MaterialMap({0: Linear(2.0)})
    problem = Problem(mesh, mats)
    assert problem.n_free == 0
    assert harmonic_initial_guess(problem, mesh.nodes[:, 0]).shape == (0,)
    fld = solve(mesh, mats, ramp(mesh), problem=problem)
    assert fld.info.n_iter == 0
    # u = x - mean on the unit square: (sigma / 2) |grad u|^2 * area = 1
    assert fld.info.energy == pytest.approx(1.0, rel=1e-14)
    # a nonlinear map runs its continuation stages on the empty band
    power = MaterialMap({0: PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)})
    fld = solve(mesh, power, ramp(mesh))
    assert fld.info.n_iter == 0 and fld.info.exit_reason == "tol"


def test_pec_island_without_conducting_path_rejected():
    # a PEC core wrapped in a PEI ring has no conducting neighbour, so its
    # collapsed unknown leaves the harmonic-start stiffness singular
    mesh = build_disk_mesh(1.0, 0.1)
    r = np.linalg.norm(mesh.nodes[mesh.triangles].mean(axis=1), axis=1)
    mesh = mesh.relabeled(np.where(r < 0.25, 2, np.where(r < 0.5, 1, 0)))
    mats = MaterialMap({0: Linear(1.0), 1: PEI(), 2: PEC()})
    with pytest.raises(SolveError, match="unit stiffness is singular"):
        solve(mesh, mats, ramp(mesh))


def test_pec_island_rejected_before_a_warm_started_newton_step():
    # without the harmonic start, nothing but the unknown map can catch
    # the stranded PEC unknown: every Newton factorization would fail
    mesh = build_disk_mesh(1.0, 0.1)
    r = np.linalg.norm(mesh.nodes[mesh.triangles].mean(axis=1), axis=1)
    mesh = mesh.relabeled(np.where(r < 0.25, 2, np.where(r < 0.5, 1, 0)))
    mats = MaterialMap({0: PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0),
                        1: PEI(), 2: PEC()})
    with pytest.raises(SolveError, match="unit stiffness is singular"):
        solve(mesh, mats, ramp(mesh), initial_guess=np.zeros(mesh.n_nodes))
    with pytest.raises(SolveError, match="no conducting path"):
        Problem(mesh, mats)


# ---------------------------------------------------------------------------
# boundary-data continuity


def test_continuity_study_linear_rate(disk, linear_unit):
    datum = ramp(disk)
    phi = make_datum(disk, [DatumTerm("sin", 1.0, k=2)], "phi")
    study = boundary_data_continuity_study(
        disk, linear_unit, datum, phi, [1e-1, 1e-2, 1e-3])
    assert study.exponent == 2.0
    eps = [r.eps for r in study.rows]
    assert eps == sorted(eps, reverse=True)
    norms = [r.grad_diff_norm for r in study.rows]
    assert norms[0] > norms[1] > norms[2]
    # linear problem: exactly first order in the perturbation size
    assert abs(study.slope - 1.0) < 0.05
