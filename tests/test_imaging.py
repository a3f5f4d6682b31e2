"""Cell grids, phantoms, synthetic measurements, and the inclusion scan."""

import json
import logging

import numpy as np
import pytest

from condlab import dtn, output, solver
from condlab.constitutive import PEC, PEI, Linear, MaterialMap, PowerLaw
from condlab.dtn import average_dtn_power, minimum_energies
from condlab.imaging import (
    Cell,
    Measurements,
    MpmResult,
    _LinearBackground,
    build_cell_grid,
    cell_powers,
    contrast_model,
    fresh_label,
    make_cell_phantom,
    mask_metrics,
    mpm_scan,
    synth_measurements,
)
from condlab.mesh import DiskInclusion, build_disk_mesh
from condlab.output import write_mpm_json, write_mpm_svg
from condlab.solver import (DatumTerm, PotentialField, Problem, SolveError,
                            solve)
from reference import CellGrid, datum_family

QUAD = 3


@pytest.fixture(scope="module")
def scan_mesh():
    return build_disk_mesh(1.0, 0.2)


@pytest.fixture(scope="module")
def grid(scan_mesh):
    return build_cell_grid(scan_mesh, 4, 4)


@pytest.fixture(scope="module")
def bg():
    return MaterialMap({0: Linear(1.0)})


@pytest.fixture(scope="module")
def fam(scan_mesh):
    return datum_family(scan_mesh, [
        ("ramp", [DatumTerm("linear-x", 1.0)]),
        ("lift", [DatumTerm("linear-y", 1.0)]),
        ("sin2", [DatumTerm("sin", 1.0, k=2)]),
        ("cos3", [DatumTerm("cos", 1.0, k=3)]),
    ])


def center_cell(grid, x=0.0, y=0.0):
    centers = CellGrid(**vars(grid)).cell_centers()
    return int(np.argmin(np.hypot(centers[:, 0] - x, centers[:, 1] - y)))


# ---------------------------------------------------------------------------
# cell grids


def test_grid_cells_are_interior_and_disjoint(scan_mesh, grid):
    on_boundary = np.zeros(scan_mesh.n_nodes, dtype=bool)
    on_boundary[scan_mesh.boundary_nodes] = True
    seen = set()
    for cell in grid.cells:
        assert len(cell.tri_ids) > 0
        assert cell.area > 0.0
        for t in cell.tri_ids:
            assert not np.any(on_boundary[scan_mesh.triangles[t]])
            assert t not in seen
            seen.add(t)


def test_grid_ids_consecutive(grid):
    assert [c.id for c in grid.cells] == list(range(grid.n_cells))


def test_grid_area_below_mesh_area(scan_mesh, grid):
    total = sum(c.area for c in grid.cells)
    assert 0.0 < total < scan_mesh.areas.sum()


@pytest.mark.parametrize("nx, ny", [(0, 3), (3, 0), (-2, 2)])
def test_grid_rejects_empty_axis(scan_mesh, nx, ny):
    with pytest.raises(ValueError, match=f"nx={nx}, ny={ny}"):
        build_cell_grid(scan_mesh, nx, ny)


@pytest.mark.parametrize("nx, ny", [(1, 1), (4, 4), (5, 3), (2, 7)])
def test_grid_cells_are_the_nonempty_index_pairs_by_row(scan_mesh, nx, ny):
    # the nx * ny loop the grouping replaced, as the oracle
    interior = ~np.any(scan_mesh.on_boundary[scan_mesh.triangles], axis=1)
    cent = scan_mesh.nodes[scan_mesh.triangles].mean(axis=1)
    lo, hi = scan_mesh.nodes.min(axis=0), scan_mesh.nodes.max(axis=0)
    idx = np.clip(((cent - lo) / ((hi - lo) / (nx, ny))).astype(int), 0,
                  (nx - 1, ny - 1))
    expect = []
    for j in range(ny):
        for i in range(nx):
            tris = np.nonzero(interior & (idx[:, 0] == i)
                              & (idx[:, 1] == j))[0]
            if tris.size:
                expect.append(Cell(len(expect), i, j, tuple(tris.tolist()),
                                   float(scan_mesh.areas[tris].sum())))
    assert build_cell_grid(scan_mesh, nx, ny).cells == tuple(expect)


@pytest.mark.parametrize("nx, ny", [(100_000, 100_000), (10**30, 4)])
def test_grid_of_any_integer_size_builds_without_a_loop(scan_mesh, nx, ny):
    cells = build_cell_grid(scan_mesh, nx, ny).cells
    interior = ~np.any(scan_mesh.on_boundary[scan_mesh.triangles], axis=1)
    assert sorted(t for c in cells for t in c.tri_ids) \
        == np.flatnonzero(interior).tolist()
    keys = [(c.iy, c.ix) for c in cells]
    assert keys == sorted(set(keys))
    assert all(0 <= c.ix < nx and 0 <= c.iy < ny for c in cells)
    assert all(type(c.ix) is int and type(c.iy) is int for c in cells)


def test_grid_centers_inside_bbox(grid):
    xmin, xmax, ymin, ymax = grid.bbox
    centers = CellGrid(**vars(grid)).cell_centers()
    assert centers.shape == (grid.n_cells, 2)
    assert np.all((centers[:, 0] > xmin) & (centers[:, 0] < xmax))
    assert np.all((centers[:, 1] > ymin) & (centers[:, 1] < ymax))


# ---------------------------------------------------------------------------
# labels and phantoms


def test_fresh_label_skips_used_labels(scan_mesh, bg):
    assert fresh_label(scan_mesh, bg) == 1
    inc = build_disk_mesh(1.0, 0.2,
                          inclusions=[DiskInclusion((0.3, 0.0), 0.2, 1)])
    assert fresh_label(inc, bg) == 2
    wide = MaterialMap({0: Linear(1.0), 7: PEI()})
    assert fresh_label(scan_mesh, bg, wide) == 8


def test_make_cell_phantom_stamps_exact_cells(scan_mesh, grid, bg):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    lab = fresh_label(scan_mesh, bg)
    stamped = np.nonzero(mesh_p.labels == lab)[0]
    assert set(stamped.tolist()) == set(grid.cells[cid].tri_ids)
    assert mats_p.model_for(lab) == PEI()
    # the source mesh is untouched
    assert np.all(scan_mesh.labels == 0)


def test_make_cell_phantom_custom_model(scan_mesh, grid, bg):
    cid = center_cell(grid)
    _, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg, model=PEC())
    assert mats_p.model_for(fresh_label(scan_mesh, bg)) == PEC()


@pytest.mark.parametrize("offset", [-1, 0])
def test_make_cell_phantom_rejects_cells_outside_grid(scan_mesh, grid, bg,
                                                      offset):
    # -1 must not wrap round to the last cell, n_cells is one past it
    bad = -1 if offset < 0 else grid.n_cells
    with pytest.raises(ValueError, match=rf"\[{bad}\] outside range"):
        make_cell_phantom(scan_mesh, grid, [0, bad], bg)


# ---------------------------------------------------------------------------
# synthetic measurements


def test_noiseless_measurements_match_forward_model(scan_mesh, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam)
    assert np.array_equal(meas.powers, meas.clean)
    problem = Problem(scan_mesh, bg)
    direct = [average_dtn_power(problem, d, QUAD).energy for d in fam]
    assert np.allclose(meas.clean, direct, rtol=1e-12)
    assert meas.datum_names == tuple(d.name for d in fam)


def test_noise_is_bounded_and_seeded(scan_mesh, bg, fam):
    a = synth_measurements(scan_mesh, bg, fam, noise_rel=0.05, seed=11)
    b = synth_measurements(scan_mesh, bg, fam, noise_rel=0.05, seed=11)
    c = synth_measurements(scan_mesh, bg, fam, noise_rel=0.05, seed=12)
    assert np.array_equal(a.noisy, b.noisy)
    assert not np.array_equal(a.noisy, c.noisy)
    assert np.all(np.abs(a.noisy - a.clean) <= 0.05 * np.abs(a.clean)
                  + 1e-300)


# ---------------------------------------------------------------------------
# the scan


def test_scan_rejects_unknown_contrast(scan_mesh, grid, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam)
    with pytest.raises(ValueError, match="contrast"):
        mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="hole")


def test_scan_background_only_flags_nothing(scan_mesh, grid, bg, fam):
    # with anomaly-free measurements every insulating test perturbation
    # strictly lowers the averaged power, so no cell survives
    meas = synth_measurements(scan_mesh, bg, fam)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pei")
    assert res.flagged_cells == ()
    assert np.all(res.scores < 0.0)


def test_scan_contains_single_cell_pei_truth(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas = synth_measurements(mesh_p, mats_p, fam)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pei")
    metrics = mask_metrics(res, [cid])
    assert metrics.contained
    # stamping the truth cell reproduces the measured state exactly
    assert abs(res.scores[cid]) <= 1e-9


def test_scan_contains_pec_truth(scan_mesh, grid, bg, fam):
    cid = center_cell(grid, 0.3, 0.0)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg,
                                       model=PEC())
    meas = synth_measurements(mesh_p, mats_p, fam)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pec")
    assert mask_metrics(res, [cid]).contained


def test_scan_noisy_containment_with_matched_tol(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas = synth_measurements(mesh_p, mats_p, fam, noise_rel=0.01, seed=5)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pei",
                   tol=3.0 * 0.01)
    assert mask_metrics(res, [cid]).contained
    assert res.tol == pytest.approx(0.03)


def test_scan_default_tol_tracks_noise(scan_mesh, grid, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam, noise_rel=0.02)
    res = mpm_scan(scan_mesh, bg, grid, fam[:1], meas, contrast="pei")
    assert res.tol == pytest.approx(3.0 * 0.02 + 1e-9)


def test_scan_mask_shrinks_with_more_data(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas2 = synth_measurements(mesh_p, mats_p, fam[:2])
    meas4 = synth_measurements(mesh_p, mats_p, fam)
    res2 = mpm_scan(scan_mesh, bg, grid, fam[:2], meas2, contrast="pei")
    res4 = mpm_scan(scan_mesh, bg, grid, fam, meas4, contrast="pei")
    assert np.all(res2.mask[res4.mask])  # every 4-datum flag survives in 2
    assert res4.mask.sum() <= res2.mask.sum()


def test_scan_workers_do_not_change_results(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas = synth_measurements(mesh_p, mats_p, fam[:2])
    one = mpm_scan(scan_mesh, bg, grid, fam[:2], meas, contrast="pei",
                   workers=1)
    two = mpm_scan(scan_mesh, bg, grid, fam[:2], meas, contrast="pei",
                   workers=2)
    assert np.array_equal(one.margins, two.margins)
    assert np.array_equal(one.mask, two.mask)


def test_scan_is_deterministic(scan_mesh, grid, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam[:2])
    a = mpm_scan(scan_mesh, bg, grid, fam[:2], meas)
    b = mpm_scan(scan_mesh, bg, grid, fam[:2], meas)
    assert np.array_equal(a.margins, b.margins)


def count_builds_and_factors(monkeypatch) -> tuple[list, list]:
    """Lists that grow by one per ``Problem`` built and per ``dpbtrf``."""
    builds, factors = [], []
    init, dpbtrf = Problem.__init__, solver.dpbtrf

    def counting_init(self, *args):
        builds.append(1)
        init(self, *args)

    def counting_dpbtrf(ab):
        factors.append(1)
        return dpbtrf(ab)

    monkeypatch.setattr(Problem, "__init__", counting_init)
    monkeypatch.setattr(solver, "dpbtrf", counting_dpbtrf)
    return builds, factors


@pytest.mark.parametrize("contrast", ["pei", "pec"])
def test_linear_scan_compiles_and_factorizes_once(scan_mesh, grid, bg, fam,
                                                  monkeypatch, contrast):
    meas = synth_measurements(scan_mesh, bg, fam)
    builds, factors = count_builds_and_factors(monkeypatch)
    mpm_scan(scan_mesh, bg, grid, fam, meas, contrast=contrast, workers=1)
    assert len(builds) == 1
    assert len(factors) == 1


def test_scan_logs_its_path(scan_mesh, grid, bg, fam, caplog):
    meas = synth_measurements(scan_mesh, bg, fam)
    with caplog.at_level(logging.DEBUG, logger="condlab.imaging"):
        mpm_scan(scan_mesh, bg, grid, fam, meas)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "condlab.imaging"]
    assert len(lines) == 1
    assert lines[0].startswith(f"scan of {grid.n_cells} cells, Schur path: "
                               f"1 factorization, ")
    assert lines[0].endswith(f"in {grid.n_cells + 1} calls")


# ---------------------------------------------------------------------------
# the linear path against the stamped solves it replaces


def ring_cell(mesh, center, r_in, r_out):
    """A hand-built cell of the triangles whose centroids lie in a ring."""
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    r = np.hypot(cent[:, 0] - center[0], cent[:, 1] - center[1])
    tris = np.nonzero((r >= r_in) & (r < r_out))[0]
    return Cell(0, 0, 0, tuple(tris.tolist()), float(mesh.areas[tris].sum()))


def one_cell_grid(cell):
    return CellGrid(1, 1, (-1.0, 1.0, -1.0, 1.0), (cell,))


@pytest.fixture(scope="module")
def piecewise():
    mesh = build_disk_mesh(1.0, 0.2,
                           inclusions=[DiskInclusion((0.2, -0.1), 0.4, 1)])
    return mesh, MaterialMap({0: Linear(1.0), 1: Linear(0.2)})


@pytest.mark.parametrize("contrast", ["pei", "pec"])
@pytest.mark.parametrize("case", ["uniform", "piecewise"])
def test_linear_cell_powers_equal_stamped_minimum_energies(
        scan_mesh, bg, piecewise, case, contrast):
    mesh, background = (scan_mesh, bg) if case == "uniform" else piecewise
    grid = build_cell_grid(mesh, 4, 4)
    data = datum_family(mesh, [("ramp", [DatumTerm("linear-x", 1.0)]),
                               ("sin2", [DatumTerm("sin", 1.0, k=2)]),
                               ("exp", [DatumTerm("exp-x2-2y", 0.5)])])
    model = contrast_model(contrast)
    powers = cell_powers(mesh, background, grid.cells, model, data)
    for cell in grid.cells:
        stamped = make_cell_phantom(mesh, grid, [cell.id], background, model)
        assert np.allclose(powers[cell.id],
                           minimum_energies(*stamped, data),
                           rtol=1e-12, atol=0.0)


def test_linear_cell_powers_take_dirichlet_nodes_of_a_cell(scan_mesh, bg,
                                                           fam):
    # a hand-built insulating cell may reach the boundary; grid cells never
    # do
    cell = ring_cell(scan_mesh, (0.95, 0.0), 0.0, 0.3)
    assert np.any(scan_mesh.on_boundary[scan_mesh.triangles[
        list(cell.tri_ids)]])
    stamped = make_cell_phantom(scan_mesh, one_cell_grid(cell), [0], bg)
    assert np.allclose(cell_powers(scan_mesh, bg, [cell], PEI(), fam)[0],
                       minimum_energies(*stamped, fam), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sigma", [1e-3, 1e-1, 10.0, 1e3])
@pytest.mark.parametrize("contrast", [None, "pei", "pec"])
def test_piecewise_linear_maps_start_at_their_minimizer(sigma, contrast):
    # a map of p = 2 laws, with or without a structural cell, is solved by
    # its cold start: no Newton step, and the Schur path's powers
    mesh = build_disk_mesh(1.0, 0.2,
                           inclusions=[DiskInclusion((0.2, -0.1), 0.4, 1)])
    background = MaterialMap({0: Linear(1.0), 1: Linear(sigma)})
    data = datum_family(mesh, [("ramp", [DatumTerm("linear-x", 1.0)]),
                               ("sin2", [DatumTerm("sin", 1.0, k=2)])])
    grid = build_cell_grid(mesh, 4, 4)
    if contrast is None:
        cases = [((mesh, background),
                  _LinearBackground(mesh, background, data).e0)]
    else:
        model = contrast_model(contrast)
        powers = cell_powers(mesh, background, grid.cells, model, data)
        cases = [(make_cell_phantom(mesh, grid, [cell.id], background,
                                    model), powers[cell.id])
                 for cell in grid.cells]
    # the Schur path's PEI form subtracts quadratic forms that grow with
    # sigma: at sigma = 1e3 it is off by up to 5.7e-12 of a power that the
    # solve gets within 6e-14 (both against a long-double refinement)
    rtol = 1e-11 if sigma > 100.0 else 1e-12
    for (test_mesh, mats), expected in cases:
        problem = Problem(test_mesh, mats)
        for datum, power in zip(data, expected):
            info = solve(test_mesh, mats, datum, problem=problem).info
            assert info.exit_reason == "tol"
            assert info.n_iter == 0 and info.factorizations == 0
            assert info.energy == pytest.approx(power, rel=rtol, abs=0.0)


def union_cell(mesh, centers, radii):
    """A hand-built cell of the triangles whose centroids lie in one of
    the disks about ``centers`` with ``radii``."""
    tris = sorted({t for c, r in zip(centers, radii)
                   for t in ring_cell(mesh, c, 0.0, r).tri_ids})
    return Cell(0, 0, 0, tuple(tris), float(mesh.areas[tris].sum()))


@pytest.mark.parametrize("centers", [[(-0.45, 0.0), (0.45, 0.0)],
                                     [(-0.45, -0.2), (0.45, -0.2),
                                      (0.0, 0.5)]], ids=["two", "three"])
def test_linear_scan_gives_each_conductor_of_a_pec_cell_its_unknown(
        scan_mesh, bg, fam, centers):
    # disjoint disks in one PEC cell are as many conductors, on the Schur
    # path as in the stamped solve
    cell = union_cell(scan_mesh, centers, [0.2] * len(centers))
    stamped = make_cell_phantom(scan_mesh, one_cell_grid(cell), [0], bg,
                                PEC())
    assert len(Problem(*stamped).pec_groups) == len(centers)
    assert np.allclose(cell_powers(scan_mesh, bg, [cell], PEC(), fam)[0],
                       minimum_energies(*stamped, fam), rtol=1e-12, atol=0.0)


def powers_or_error(powers):
    """The powers that ``powers()`` gives, or the text of the
    ``SolveError`` it raises."""
    try:
        return powers()
    except SolveError as err:
        return str(err)


def test_linear_scan_matches_stamped_solves_on_seeded_cells(scan_mesh, bg,
                                                             fam):
    # rings and unions of disks, anywhere in the disk: the Schur path and
    # the stamped solve raise the same error or give the same powers
    rng = np.random.default_rng(7)
    outcomes = set()
    for k in range(40):
        if k % 2:
            n = 2 + k // 2 % 2
            cell = union_cell(scan_mesh, rng.uniform(-0.9, 0.9, (n, 2)),
                              rng.uniform(0.1, 0.35, n))
        else:
            r_in = rng.uniform(0.0, 0.4)
            cell = ring_cell(scan_mesh, rng.uniform(-0.6, 0.6, 2), r_in,
                             r_in + rng.uniform(0.1, 0.5))
        if not cell.tri_ids:
            continue
        for model in (PEI(), PEC()):
            schur = powers_or_error(
                lambda: cell_powers(scan_mesh, bg, [cell], model, fam)[0])
            stamped = powers_or_error(lambda: minimum_energies(
                *make_cell_phantom(scan_mesh, one_cell_grid(cell), [0], bg,
                                   model), fam))
            if isinstance(stamped, str):
                assert schur == stamped
                outcomes.add(stamped.split()[1])
            else:
                assert not isinstance(schur, str), schur
                assert np.allclose(schur, stamped, rtol=1e-12, atol=0.0)
                outcomes.add(model.kind)
    # both tests succeed somewhere, and both errors occur
    assert outcomes == {"pei", "pec", "free", "component"}


@pytest.mark.parametrize("background", ["linear", "p4"])
def test_cut_off_conductors_raise_on_both_paths(scan_mesh, bg, bg_p4, fam,
                                                background):
    # an insulating ring around conducting triangles strands them
    mats = bg if background == "linear" else bg_p4
    cell = ring_cell(scan_mesh, (0.1, 0.0), 0.2, 0.55)
    with pytest.raises(SolveError, match="no conducting path") as ref:
        Problem(*make_cell_phantom(scan_mesh, one_cell_grid(cell), [0],
                                   mats))
    with pytest.raises(SolveError) as got:
        cell_powers(scan_mesh, mats, [cell], PEI(), fam)
    assert str(got.value) == str(ref.value)
    # a conducting ring joins them to the rest
    powers = cell_powers(scan_mesh, mats, [cell], PEC(), fam)
    assert np.all(np.isfinite(powers))


@pytest.mark.parametrize("background", ["linear", "p4"])
def test_pec_cell_on_the_boundary_raises_on_both_paths(scan_mesh, bg, bg_p4,
                                                       fam, background):
    mats = bg if background == "linear" else bg_p4
    cell = ring_cell(scan_mesh, (0.95, 0.0), 0.0, 0.3)
    with pytest.raises(SolveError, match="touches the domain boundary"):
        cell_powers(scan_mesh, mats, [cell], PEC(), fam)


# ---------------------------------------------------------------------------
# a nonlinear background, the paper's central imaging case


@pytest.fixture(scope="module")
def bg_p4():
    return MaterialMap({0: PowerLaw(sigma_bar=1.0, e0=1.0, p=4.0)})


@pytest.fixture(scope="module")
def p4_phantom(scan_mesh, grid, bg_p4):
    cid = center_cell(grid)
    return (cid, *make_cell_phantom(scan_mesh, grid, [cid], bg_p4))


@pytest.fixture(scope="module")
def p4_scan(scan_mesh, grid, bg_p4, fam, p4_phantom):
    _, mesh_p, mats_p = p4_phantom
    meas = synth_measurements(mesh_p, mats_p, fam)
    return meas, mpm_scan(scan_mesh, bg_p4, grid, fam, meas)


@pytest.mark.parametrize("contrast", ["pei", "pec"])
def test_nonlinear_scan_compiles_and_factorizes_per_cell(
        scan_mesh, grid, bg_p4, fam, p4_phantom, monkeypatch, contrast):
    meas = synth_measurements(*p4_phantom[1:], fam[:2])
    builds, factors = count_builds_and_factors(monkeypatch)
    newton = []
    solve_ = dtn.solve

    def recording_solve(*args, **kwargs):
        fld = solve_(*args, **kwargs)
        newton.append(fld.info.factorizations)
        return fld

    monkeypatch.setattr(dtn, "solve", recording_solve)
    mpm_scan(scan_mesh, bg_p4, grid, fam[:2], meas, contrast=contrast,
             workers=1)
    assert len(builds) == grid.n_cells
    # one harmonic start per cell, then one per Newton step
    assert len(newton) == 2 * grid.n_cells
    assert len(factors) == grid.n_cells + sum(newton)


def test_nonlinear_scan_logs_its_path(scan_mesh, grid, bg_p4, fam,
                                      p4_phantom, caplog):
    meas = synth_measurements(*p4_phantom[1:], fam[:1])
    with caplog.at_level(logging.DEBUG, logger="condlab.imaging"):
        mpm_scan(scan_mesh, bg_p4, grid, fam[:1], meas, workers=1)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "condlab.imaging"]
    assert lines == [f"scan of {grid.n_cells} cells, per-cell path in 1 "
                     f"worker(s): {grid.n_cells} Problems, {grid.n_cells} "
                     f"solves, each Problem factorizing its harmonic start "
                     f"once and each Newton step once more"]


def test_nonlinear_scan_workers_do_not_change_results(scan_mesh, grid,
                                                      bg_p4, fam,
                                                      p4_phantom):
    meas = synth_measurements(*p4_phantom[1:], fam[:2])
    one = mpm_scan(scan_mesh, bg_p4, grid, fam[:2], meas, workers=1)
    two = mpm_scan(scan_mesh, bg_p4, grid, fam[:2], meas, workers=2)
    assert np.array_equal(one.margins, two.margins)
    assert np.array_equal(one.mask, two.mask)


def test_nonlinear_scan_solves_once_per_cell_and_datum(
        scan_mesh, grid, bg_p4, fam, p4_scan, monkeypatch):
    meas, _ = p4_scan
    solves = []
    init = PotentialField.__init__

    def counting_init(self, *args):
        solves.append(1)
        init(self, *args)

    monkeypatch.setattr(PotentialField, "__init__", counting_init)
    mpm_scan(scan_mesh, bg_p4, grid, fam, meas, workers=1)
    # an alpha sweep at order QUAD would make QUAD + 1 solves per datum
    assert len(solves) == grid.n_cells * len(fam)


def test_nonlinear_scan_powers_are_solve_energies(scan_mesh, grid, bg_p4,
                                                  fam, p4_scan):
    meas, res = p4_scan
    for cell in grid.cells:
        mesh_c, mats_c = make_cell_phantom(scan_mesh, grid, [cell.id], bg_p4)
        energies = np.array([solve(mesh_c, mats_c, d).info.energy
                             for d in fam])
        # the scan's PEI margin of each test power, bit for bit
        margins = (energies - meas.powers) / np.abs(meas.powers)
        assert np.array_equal(res.margins[cell.id], margins)


def test_nonlinear_scan_contains_pei_truth(p4_phantom, p4_scan):
    cid = p4_phantom[0]
    _, res = p4_scan
    assert mask_metrics(res, [cid]).contained
    assert abs(res.scores[cid]) <= 1e-9


def test_nonlinear_measurements_are_minimum_energies(tmp_path, fam,
                                                     p4_phantom, p4_scan):
    _, mesh_p, mats_p = p4_phantom
    meas, res = p4_scan
    assert np.array_equal(meas.clean, minimum_energies(mesh_p, mats_p, fam))
    # each is a cold solve, where the alpha sweep ends on a warm start:
    # the two energies agree at solver tolerance
    problem = Problem(mesh_p, mats_p)
    reports = [average_dtn_power(problem, d, QUAD) for d in fam]
    assert np.allclose(meas.clean, [r.energy for r in reports], rtol=1e-10,
                       atol=0.0)
    write_mpm_json(tmp_path / "mpm_result.json", res)
    out = json.loads((tmp_path / "mpm_result.json").read_text())
    assert "quad_order" not in out and "transfer_residual" not in out
    assert out["datum_names"] == [d.name for d in fam]


def test_heatmap_formats_each_triangle_once(tmp_path, scan_mesh, grid, bg,
                                           fam, monkeypatch):
    cid = center_cell(grid)
    meas = synth_measurements(*make_cell_phantom(scan_mesh, grid, [cid], bg),
                              fam)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas)
    calls = []
    tri_points = output._tri_points

    def counting(mesh, t, ytop):
        calls.append(t)
        return tri_points(mesh, t, ytop)

    monkeypatch.setattr(output, "_tri_points", counting)
    write_mpm_svg(tmp_path / "map.svg", scan_mesh, res)
    assert sorted(calls) == list(range(scan_mesh.n_triangles))
    polygons = (tmp_path / "map.svg").read_text().count("<polygon")
    scanned = sum(len(c.tri_ids) for c in grid.cells)
    flagged = sum(len(grid.cells[c].tri_ids) for c in res.flagged_cells)
    assert res.flagged_cells and polygons == (scan_mesh.n_triangles
                                              + scanned + flagged)


# ---------------------------------------------------------------------------
# mask metrics


def fake_result(grid, mask):
    n = grid.n_cells
    meas = Measurements(("f",), np.ones(1), np.ones(1), 0.0, 0)
    return MpmResult(grid, "pei", 1e-9, meas, np.zeros((n, 1)),
                     np.zeros(n), np.asarray(mask, dtype=bool))


def test_mask_metrics_exact_recovery(grid):
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[[2, 5]] = True
    m = mask_metrics(fake_result(grid, mask), [2, 5])
    assert m.contained and m.jaccard == 1.0 and m.n_excess == 0


def test_mask_metrics_full_mask(grid):
    mask = np.ones(grid.n_cells, dtype=bool)
    m = mask_metrics(fake_result(grid, mask), [0])
    assert m.contained
    assert m.jaccard == pytest.approx(1.0 / grid.n_cells)
    assert m.n_excess == grid.n_cells - 1


def test_mask_metrics_missed_truth(grid):
    mask = np.zeros(grid.n_cells, dtype=bool)
    m = mask_metrics(fake_result(grid, mask), [3])
    assert not m.contained
    assert m.jaccard == 0.0


def test_mask_metrics_empty_everything(grid):
    mask = np.zeros(grid.n_cells, dtype=bool)
    m = mask_metrics(fake_result(grid, mask), [])
    assert m.contained
    assert m.jaccard == 1.0
