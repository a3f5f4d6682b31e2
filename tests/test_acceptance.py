"""Acceptance gate: the ten checks the package must pass to ship.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible
with ``pytest -s``) and then asserts, so a red run names exactly the
property that broke.  The checks exercise the library end to end:
oracle agreement, derivative and transfer identities, the comparison
battery, the wire reproduction, inclusion imaging and CLI determinism.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from condlab import cli
from condlab.constitutive import Linear, MaterialMap, PEI, PowerLaw
from condlab.dtn import average_dtn_power, gateaux_check
from condlab.mesh import (DiskInclusion, boundary_mass, build_annulus_mesh,
                          build_disk_mesh, build_rect_mesh)
from condlab.oracle import annulus_radial_solution
from condlab.solver import (BoundaryDatum, DatumTerm, Problem, make_datum,
                            project_zero_mean, solve)
from reference import boundary_data_continuity_study, brute_force_min

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


def run_cli(command, config, outdir, *extra):
    return cli.main([command, "--config", str(config), "--out",
                     str(outdir), *extra])


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def ramp_datum(mesh, bm=None):
    return make_datum(mesh, [DatumTerm("linear-x", 1.0)], "ramp", bm)


# ---------------------------------------------------------------------------
# 1. radial oracle convergence


def test_c01_radial_oracle_convergence():
    hs = (0.2, 0.1, 0.05)
    details = []
    ok = True
    for p in (1.2, 2.0, 4.0):
        exact = annulus_radial_solution(p, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0)
        errs = []
        for h in hs:
            mesh = build_annulus_mesh(0.5, 1.0, h)
            bm = boundary_mass(mesh)
            r = np.linalg.norm(mesh.nodes[bm.node_ids], axis=1)
            raw = np.where(r < 0.75, 0.0, 1.0)
            values, _ = project_zero_mean(raw, bm)
            fld = solve(mesh, MaterialMap({0: PowerLaw(1.0, 1.0, p)}),
                        BoundaryDatum(f"p{p:g}", bm.node_ids, values))
            errs.append(abs(fld.info.energy - exact.energy)
                        / abs(exact.energy))
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        ok &= order >= 1.0 and errs[-1] <= 1e-2
        details.append(f"p={p:g}: order {order:.2f}, "
                       f"finest err {errs[-1]:.2e}")
    line(1, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. brute-force equivalence on tiny meshes


def test_c02_brute_force_equivalence():
    rect = build_rect_mesh(1.0, 1.0, 0.34)
    rect2 = build_rect_mesh(1.0, 1.0, 0.34, layer_split=0.5)
    disk = build_disk_mesh(1.0, 0.45, [DiskInclusion((0.0, 0.0), 0.3, 1)])
    cases = [
        ("linear", rect, MaterialMap({0: Linear(1.0)})),
        ("p4", rect, MaterialMap({0: PowerLaw(2.0, 1.0, 4.0)})),
        ("p1.2", rect, MaterialMap({0: PowerLaw(1.0, 1.0, 1.2)})),
        ("two-phase", rect2, MaterialMap({0: Linear(1.0),
                                          1: PowerLaw(2.0, 1.0, 3.0)})),
        ("pei", disk, MaterialMap({0: Linear(1.0), 1: PEI()})),
    ]
    details = []
    ok = True
    for name, mesh, mats in cases:
        datum = ramp_datum(mesh)
        fld = solve(mesh, mats, datum)
        ref = brute_force_min(mesh, mats, datum)
        rel = abs(fld.info.energy - ref.energy) / abs(ref.energy)
        ok &= rel <= 1e-6
        details.append(f"{name} {rel:.1e}")
    line(2, ok, "newton vs derivative-free rel err: " + "; ".join(details))


# ---------------------------------------------------------------------------
# 3. derivative identity across regimes


def test_c03_gateaux_identity():
    mesh = build_disk_mesh(1.0, 0.15)
    bm = boundary_mass(mesh)
    f1 = ramp_datum(mesh, bm)
    phi1 = make_datum(mesh, [DatumTerm("cos", 0.5, 1)], "cos1", bm)
    f2 = make_datum(mesh, [DatumTerm("sin", 1.0, 2)], "sin2", bm)
    phi2 = make_datum(mesh, [DatumTerm("sin", 0.4, 2),
                             DatumTerm("cos", 0.2, 1)], "mix", bm)
    eps = (1e-1, 1e-2, 1e-3, 1e-4)
    regimes = (("linear", MaterialMap({0: Linear(2.0)})),
               ("p4", MaterialMap({0: PowerLaw(2.0, 1.0, 4.0)})),
               ("p1.2", MaterialMap({0: PowerLaw(1.0, 1.0, 1.2)})))
    worst = 0.0
    ok = True
    for rname, mats in regimes:
        for f, phi in ((f1, phi1), (f2, phi2)):
            rep = gateaux_check(mesh, mats, f, phi, eps)
            res = [r.residual for r in rep.rows]
            ok &= all(b < a for a, b in zip(res, res[1:]))
            rel = rep.final_residual / rep.scale
            worst = max(worst, rel)
            ok &= rel <= 1e-3
    line(3, ok, f"6 regime/datum combinations, worst final residual "
                f"{worst:.1e} of scale (limit 1e-3)")


# ---------------------------------------------------------------------------
# 4. averaged-map transfer identity on the wire


@pytest.fixture(scope="module")
def wire_problem():
    cfg = cli.load_config(str(CONFIGS / "wire_tables.json"))
    mesh = cli.mesh_from_spec(cfg["healthy"]["mesh"], str(CONFIGS))
    mats = cli.materials_from_spec(cfg["healthy"]["materials"])
    data = cli.data_from_spec(mesh, cfg["data"])
    return mesh, mats, data


def test_c04_transfer_identity(wire_problem):
    mesh, mats, data = wire_problem
    datum = next(d for d in data if d.name == "500x")
    resid = {}
    for order in (8, 16):
        rep = average_dtn_power(Problem(mesh, mats), datum, order)
        resid[order] = rep.transfer_residual
    shrink = resid[8] / resid[16]
    ok = resid[16] <= 1e-3 and shrink >= 4.0
    line(4, ok, f"transfer residual {resid[16]:.2e} at order 16 "
                f"(limit 1e-3), shrink x{shrink:.1f} from order 8 "
                f"(limit x4)")


# ---------------------------------------------------------------------------
# 5. homogeneity of the averaged pairing


def test_c05_homogeneity():
    mesh = build_disk_mesh(1.0, 0.15)
    datum = ramp_datum(mesh)
    rep_lin = average_dtn_power(Problem(mesh, MaterialMap({0: Linear(2.0)})),
                                datum, 8)
    rel_lin = abs(rep_lin.avg_power - 0.5 * rep_lin.power) \
        / abs(rep_lin.power)
    rep_p4 = average_dtn_power(
        Problem(mesh, MaterialMap({0: PowerLaw(2.0, 1.0, 4.0)})), datum, 8)
    rel_p4 = abs(rep_p4.avg_power - rep_p4.power / 4.0) \
        / abs(rep_p4.power)
    ok = rel_lin <= 1e-10 and rel_p4 <= 1e-6
    line(5, ok, f"linear avg=power/2 off by {rel_lin:.1e} (limit 1e-10); "
                f"p=4 avg=power/4 off by {rel_p4:.1e} (limit 1e-6)")


# ---------------------------------------------------------------------------
# 6. the comparison battery


def test_c06_monotonicity_battery(tmp_path):
    code = run_cli("monotonicity-suite", CONFIGS / "battery.json",
                   tmp_path)
    n_rows = 0
    pairs = set()
    violated = 0
    ladders = sorted(tmp_path.glob("ladder_h*.csv"))
    for path in ladders:
        _, rows = read_csv(path)
        n_rows += len(rows)
        pairs |= {r[0] for r in rows}
        violated += sum(r[6] != "0" for r in rows)
    rungs = {"insulating<=tenth", "tenth<=nominal", "nominal<=tenfold",
             "tenfold<=conducting"}
    ok = (code == 0 and len(ladders) == 3 and n_rows == 300
          and len(pairs) == 10 and violated == 0
          and rungs <= pairs)
    line(6, ok, f"exit {code}; {len(pairs)} certified pairs x 10 data x "
                f"{len(ladders)} resolutions, {violated} violations")


# ---------------------------------------------------------------------------
# 7. wire damage tables


def test_c07_wire_tables(tmp_path):
    code = run_cli("reproduce-wire", CONFIGS / "wire_tables.json",
                   tmp_path)
    ok = code == 0
    details = [f"exit {code}"]
    for case in ("matrix_crack", "petal_pei"):
        _, rows = read_csv(tmp_path / f"table_{case}.csv")
        diffs = np.array([float(r[3]) for r in rows])
        e0 = np.array([float(r[1]) for r in rows])
        ratios = diffs / e0
        ok &= len(rows) == 10 and np.all(diffs > 0)
        ok &= np.all(ratios > 1e-3) and np.all(ratios < 1e-1)
        details.append(f"{case}: 10 positive differences, ratios "
                       f"{ratios.min():.1e}..{ratios.max():.1e}")
    line(7, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. continuity in the boundary data


def test_c08_boundary_data_continuity():
    mesh = build_disk_mesh(1.0, 0.15)
    bm = boundary_mass(mesh)
    f = ramp_datum(mesh, bm)
    phi = make_datum(mesh, [DatumTerm("cos", 0.5, 1)], "cos1", bm)
    eps = (1e-1, 1e-2, 1e-3, 1e-4)
    details = []
    ok = True
    for p, floor in ((4.0, 1.0 / 4.0 - 0.1), (1.2, 0.4)):
        st = boundary_data_continuity_study(
            mesh, MaterialMap({0: PowerLaw(1.0, 1.0, p)}), f, phi, eps)
        norms = [r.grad_diff_norm for r in st.rows]
        ok &= all(b < a for a, b in zip(norms, norms[1:]))
        ok &= st.slope >= floor
        details.append(f"p={p:g}: slope {st.slope:.2f} (floor "
                       f"{floor:.2f})")
    line(8, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. inclusion scan containment


def _scan_contained(config, outdir):
    code = run_cli("mpm-image", config, outdir)
    metrics = json.loads((outdir / "mpm_metrics.json").read_text())
    return code == 0 and metrics["contained"], metrics


def test_c09_mpm_containment(tmp_path):
    ok1, m1 = _scan_contained(CONFIGS / "phantom_single.json",
                              tmp_path / "single")
    # the two-cell phantom, first without its shipped noise
    quiet = cli.load_config(str(CONFIGS / "phantom_double.json"))
    quiet["noise_rel"] = 0.0
    quiet_path = tmp_path / "phantom_double_quiet.json"
    quiet_path.write_text(json.dumps(quiet))
    ok2, m2 = _scan_contained(quiet_path, tmp_path / "double")
    # and as shipped: 1% noise with the widened tolerance
    ok3, m3 = _scan_contained(CONFIGS / "phantom_double.json",
                              tmp_path / "noisy")
    result = json.loads(
        (tmp_path / "noisy" / "mpm_result.json").read_text())
    ok = ok1 and ok2 and ok3 and result["tol"] >= 3.0 * 0.01
    line(9, ok, f"single noiseless jaccard {m1['jaccard']:.2f}; double "
                f"noiseless jaccard {m2['jaccard']:.2f}; double at 1% "
                f"noise (tol {result['tol']:.3f}) jaccard "
                f"{m3['jaccard']:.2f}; all contained")


# ---------------------------------------------------------------------------
# 10. CLI determinism


def _determinism_configs():
    disk = {"kind": "disk", "radius": 1.0, "target_h": 0.3}
    inc = {"kind": "disk", "radius": 1.0, "target_h": 0.3,
           "inclusions": [{"center": [0.3, 0.0], "radius": 0.25,
                           "label": 1}]}
    lin = {"regions": {"0": {"type": "linear", "sigma": 1.0}}}
    lin2 = {"regions": {"0": {"type": "linear", "sigma": 1.0},
                        "1": {"type": "linear", "sigma": 2.0}}}
    lin2_damaged = {"regions": {"0": {"type": "linear", "sigma": 1.0},
                                "1": {"type": "pei"}}}
    ramp = {"name": "ramp",
            "terms": [{"kind": "linear-x", "amplitude": 1.0}]}
    problem = {"mesh": disk, "materials": lin, "data": [ramp]}
    return {
        "mesh-gen": {"mesh": inc},
        "solve": problem,
        "power": problem,
        "avg-power": dict(problem, quad_order=4),
        "monotonicity-suite": {
            "mesh": inc, "data": [ramp], "quad_order": 3,
            "pairs": [{"name_lo": "a", "name_hi": "b",
                       "lo": {"regions":
                              {"0": {"type": "linear", "sigma": 1.0},
                               "1": {"type": "linear", "sigma": 1.0}}},
                       "hi": lin2}]},
        "gateaux-check": {
            "mesh": disk, "materials": lin, "datum": ramp,
            "direction": {"name": "cos1",
                          "terms": [{"kind": "cos", "amplitude": 0.5,
                                     "k": 1}]},
            "eps_list": [1e-1, 1e-2]},
        "convergence-study": {"p_values": [2.0], "target_h": [0.4, 0.3]},
        "mpm-image": {"mesh": disk, "background": lin,
                      "grid": {"nx": 2, "ny": 2}, "data": [ramp],
                      "quad_order": 2, "noise_rel": 0.02, "seed": 11,
                      "truth": {"cells": [0]}},
        "reproduce-wire": {
            "healthy": {"mesh": inc, "materials": lin2},
            "damaged": [{"name": "case",
                         "materials": lin2_damaged}],
            "data": [ramp], "quad_order": 3},
    }


def test_c10_cli_determinism(tmp_path):
    ok = True
    checked = 0
    for command, cfg in _determinism_configs().items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = run_cli(command, config, out, "--workers", "1")
            ok &= code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        ok &= names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name == "run_meta.json":
                continue
            same = (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()
            ok &= same
            checked += 1
    line(10, ok, f"9 subcommands re-run, {checked} output files "
                 f"byte-identical (timestamps confined to run_meta.json)")
