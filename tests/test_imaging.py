"""Cell grids, phantoms, synthetic measurements, and the inclusion scan."""

import json

import numpy as np
import pytest

from condlab import solver
from condlab.constitutive import PEC, PEI, Linear, MaterialMap, PowerLaw
from condlab.dtn import average_dtn_power, average_dtn_powers
from condlab.imaging import (
    Measurements,
    MpmResult,
    build_cell_grid,
    fresh_label,
    make_cell_phantom,
    mask_metrics,
    mpm_scan,
    synth_measurements,
)
from condlab.mesh import DiskInclusion, build_disk_mesh
from condlab.output import write_mpm_json
from condlab.solver import (DatumTerm, PotentialField, Problem, datum_family,
                            solve)

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
    centers = grid.cell_centers()
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


def test_grid_centers_inside_bbox(grid):
    xmin, xmax, ymin, ymax = grid.bbox
    centers = grid.cell_centers()
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
    meas = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD)
    assert np.array_equal(meas.powers, meas.clean)
    problem = Problem(scan_mesh, bg)
    direct = [average_dtn_power(problem, d, QUAD).energy for d in fam]
    assert np.allclose(meas.clean, direct, rtol=1e-12)
    assert meas.datum_names == tuple(d.name for d in fam)


def test_noise_is_bounded_and_seeded(scan_mesh, bg, fam):
    a = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD,
                           noise_rel=0.05, seed=11)
    b = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD,
                           noise_rel=0.05, seed=11)
    c = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD,
                           noise_rel=0.05, seed=12)
    assert np.array_equal(a.noisy, b.noisy)
    assert not np.array_equal(a.noisy, c.noisy)
    assert np.all(np.abs(a.noisy - a.clean) <= 0.05 * np.abs(a.clean)
                  + 1e-300)


# ---------------------------------------------------------------------------
# the scan


def test_scan_rejects_unknown_contrast(scan_mesh, grid, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD)
    with pytest.raises(ValueError, match="contrast"):
        mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="hole")


def test_scan_background_only_flags_nothing(scan_mesh, grid, bg, fam):
    # with anomaly-free measurements every insulating test perturbation
    # strictly lowers the averaged power, so no cell survives
    meas = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pei")
    assert res.flagged_cells == ()
    assert np.all(res.scores < 0.0)


def test_scan_contains_single_cell_pei_truth(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas = synth_measurements(mesh_p, mats_p, fam, quad_order=QUAD)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pei")
    metrics = mask_metrics(res, [cid])
    assert metrics.contained
    # stamping the truth cell reproduces the measured state exactly
    assert abs(res.scores[cid]) <= 1e-9


def test_scan_contains_pec_truth(scan_mesh, grid, bg, fam):
    cid = center_cell(grid, 0.3, 0.0)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg,
                                       model=PEC())
    meas = synth_measurements(mesh_p, mats_p, fam, quad_order=QUAD)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pec")
    assert mask_metrics(res, [cid]).contained


def test_scan_noisy_containment_with_matched_tol(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas = synth_measurements(mesh_p, mats_p, fam, quad_order=QUAD,
                              noise_rel=0.01, seed=5)
    res = mpm_scan(scan_mesh, bg, grid, fam, meas, contrast="pei",
                   tol=3.0 * 0.01)
    assert mask_metrics(res, [cid]).contained
    assert res.tol == pytest.approx(0.03)


def test_scan_default_tol_tracks_noise(scan_mesh, grid, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD,
                              noise_rel=0.02)
    res = mpm_scan(scan_mesh, bg, grid, fam[:1], meas, contrast="pei")
    assert res.tol == pytest.approx(3.0 * 0.02 + 1e-9)


def test_scan_mask_shrinks_with_more_data(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas2 = synth_measurements(mesh_p, mats_p, fam[:2], quad_order=QUAD)
    meas4 = synth_measurements(mesh_p, mats_p, fam, quad_order=QUAD)
    res2 = mpm_scan(scan_mesh, bg, grid, fam[:2], meas2, contrast="pei")
    res4 = mpm_scan(scan_mesh, bg, grid, fam, meas4, contrast="pei")
    assert np.all(res2.mask[res4.mask])  # every 4-datum flag survives in 2
    assert res4.mask.sum() <= res2.mask.sum()


def test_scan_workers_do_not_change_results(scan_mesh, grid, bg, fam):
    cid = center_cell(grid)
    mesh_p, mats_p = make_cell_phantom(scan_mesh, grid, [cid], bg)
    meas = synth_measurements(mesh_p, mats_p, fam[:2], quad_order=QUAD)
    one = mpm_scan(scan_mesh, bg, grid, fam[:2], meas, contrast="pei",
                   workers=1)
    two = mpm_scan(scan_mesh, bg, grid, fam[:2], meas, contrast="pei",
                   workers=2)
    assert np.array_equal(one.margins, two.margins)
    assert np.array_equal(one.mask, two.mask)


def test_scan_is_deterministic(scan_mesh, grid, bg, fam):
    meas = synth_measurements(scan_mesh, bg, fam[:2], quad_order=QUAD)
    a = mpm_scan(scan_mesh, bg, grid, fam[:2], meas)
    b = mpm_scan(scan_mesh, bg, grid, fam[:2], meas)
    assert np.array_equal(a.margins, b.margins)


@pytest.mark.parametrize("contrast", ["pei", "pec"])
def test_scan_compiles_and_factorizes_once_per_cell(scan_mesh, grid, bg, fam,
                                                    monkeypatch, contrast):
    meas = synth_measurements(scan_mesh, bg, fam, quad_order=QUAD)
    builds, factors = [], []
    init, dpbtrf = Problem.__init__, solver.dpbtrf

    def counting_init(self, *args):
        builds.append(1)
        init(self, *args)

    def counting_dpbtrf(*args, **kw):
        factors.append(1)
        return dpbtrf(*args, **kw)

    monkeypatch.setattr(Problem, "__init__", counting_init)
    monkeypatch.setattr(solver, "dpbtrf", counting_dpbtrf)
    mpm_scan(scan_mesh, bg, grid, fam, meas, contrast=contrast, workers=1)
    assert len(builds) == grid.n_cells
    assert len(factors) == grid.n_cells


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
    meas = synth_measurements(mesh_p, mats_p, fam, quad_order=QUAD)
    return meas, mpm_scan(scan_mesh, bg_p4, grid, fam, meas)


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


def test_scan_result_records_the_quadrature_cross_check(tmp_path, fam,
                                                        p4_phantom, p4_scan):
    _, mesh_p, mats_p = p4_phantom
    meas, res = p4_scan
    reports = average_dtn_powers(mesh_p, mats_p, fam, QUAD)
    assert np.array_equal(meas.clean, [r.energy for r in reports])
    write_mpm_json(tmp_path / "mpm_result.json", res)
    out = json.loads((tmp_path / "mpm_result.json").read_text())
    assert out["quad_order"] == QUAD
    assert out["transfer_residual"] == [r.transfer_residual
                                        for r in reports]
    assert out["datum_names"] == [d.name for d in fam]


# ---------------------------------------------------------------------------
# mask metrics


def fake_result(grid, mask):
    n = grid.n_cells
    meas = Measurements(("f",), np.ones(1), np.ones(1), 0.0, 0, 1,
                        np.zeros(1))
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
