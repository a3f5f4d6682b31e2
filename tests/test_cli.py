"""End-to-end checks of the command line driver.

Every test goes through ``cli.main`` with a JSON config written to a
temporary directory, exactly as a shell invocation would, and then
inspects exit codes, files on disk and the printed summary lines.
Meshes are kept deliberately coarse; this file is about plumbing, not
accuracy.
"""

import copy
import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condlab import cli, monotonicity
from condlab.constitutive import PowerLaw
from condlab.imaging import build_cell_grid
from condlab.mesh import build_disk_mesh
from condlab.output import fmt, write_csv
from condlab.solver import Problem, solve
from reference import CellGrid, outer_exponent

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# ------------------------------------------------------------ config snippets

DISK = {"kind": "disk", "radius": 1.0, "target_h": 0.3}
INC_DISK = {"kind": "disk", "radius": 1.0, "target_h": 0.3,
            "inclusions": [{"center": [0.3, 0.0], "radius": 0.25,
                            "label": 1}]}

LIN = {"regions": {"0": {"type": "linear", "sigma": 1.0}}}
LIN2 = {"regions": {"0": {"type": "linear", "sigma": 1.0},
                    "1": {"type": "linear", "sigma": 1.0}}}

RAMP = {"name": "ramp", "terms": [{"kind": "linear-x", "amplitude": 1.0}]}
SIN2 = {"name": "sin2", "terms": [{"kind": "sin", "amplitude": 1.0,
                                   "k": 2}]}
COS1 = {"name": "cos1", "terms": [{"kind": "cos", "amplitude": 0.5,
                                   "k": 1}]}

PROBLEM = {"mesh": DISK, "materials": LIN, "data": [RAMP]}


def run(tmp_path, command, cfg, *extra, out="out"):
    """Write cfg to disk, invoke the CLI, return (exit code, out dir)."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / out
    code = cli.main([command, "--config", str(path), "--out", str(outdir),
                     *extra])
    return code, outdir


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def assert_same_data_files(a, b):
    """Output directories a and b hold the same files, byte for byte,
    except ``run_meta.json``."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name != "run_meta.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# -------------------------------------------------------------- mesh-gen

def test_mesh_gen_writes_mesh_and_report(tmp_path, capsys):
    code, out = run(tmp_path, "mesh-gen", {"mesh": INC_DISK})
    assert code == 0
    assert (out / "mesh.json").exists()
    assert (out / "run_meta.json").exists()
    report = json.loads((out / "mesh_report.json").read_text())
    # the mesh passed validate where it was made, so no issues key
    assert sorted(report) == ["labels", "n_boundary_nodes", "n_nodes",
                              "n_triangles"]
    assert report["labels"] == [0, 1]
    assert report["n_nodes"] > 0
    # the same report is printed for quick inspection
    assert json.loads(capsys.readouterr().out) == report


def test_mesh_gen_save_as(tmp_path):
    code, out = run(tmp_path, "mesh-gen", {"mesh": DISK,
                                           "save_as": "grid.json"})
    assert code == 0
    assert (out / "grid.json").exists()
    assert not (out / "mesh.json").exists()


def test_mesh_gen_saves_a_layered_rect_that_reloads(tmp_path):
    # a layer split to the boundary is a valid mesh: mesh-gen saves it,
    # and a solve on the saved file writes what a solve on the spec does
    rect = {"kind": "rect", "width": 1.0, "height": 0.5, "target_h": 0.1,
            "layer_split": 0.5}
    cfg = dict(PROBLEM, mesh=rect, materials={"regions": {
        "0": {"type": "linear", "sigma": 1.0},
        "1": {"type": "power", "sigma_bar": 1.0, "E0": 1.0, "p": 4.0}}})
    code, _ = run(tmp_path, "mesh-gen", cfg, out="m")
    assert code == 0
    code, spec = run(tmp_path, "solve", cfg, out="spec")
    assert code == 0
    code, saved = run(tmp_path, "solve",
                      dict(cfg, mesh={"path": "m/mesh.json"}), out="saved")
    assert code == 0
    assert_same_data_files(spec, saved)


def test_mesh_gen_check_only_writes_no_files(tmp_path):
    code, out = run(tmp_path, "mesh-gen", {"mesh": DISK}, "--check-only")
    assert code == 0
    assert not out.exists()


def test_mesh_gen_accepts_full_problem_config(tmp_path):
    code, out = run(tmp_path, "mesh-gen", PROBLEM)
    assert code == 0
    assert (out / "mesh.json").exists()


def test_saved_mesh_feeds_other_commands(tmp_path):
    code, _ = run(tmp_path, "mesh-gen", {"mesh": DISK}, out="m")
    assert code == 0
    cfg = {"mesh": {"path": "m/mesh.json"}, "materials": LIN,
           "data": [RAMP]}
    # the path is resolved relative to the config file
    code, out = run(tmp_path, "avg-power", cfg, out="p")
    assert code == 0
    assert (out / "power_batch.csv").exists()


# --------------------------------------------------------- config errors

def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    code = cli.main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", dict(PROBLEM, typo=1))
    assert code == 2
    assert "unknown keys in config: ['typo']" in capsys.readouterr().err


def test_unknown_material_type(tmp_path, capsys):
    bad = {"regions": {"0": {"type": "rubber"}}}
    code, _ = run(tmp_path, "solve", dict(PROBLEM, materials=bad))
    assert code == 2
    assert "unknown material type 'rubber'" in capsys.readouterr().err


def test_materials_must_cover_mesh_labels(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", dict(PROBLEM, mesh=INC_DISK))
    assert code == 2
    assert "mesh labels without material" in capsys.readouterr().err


def test_empty_datum_list(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", dict(PROBLEM, data=[]))
    assert code == 2
    assert "empty datum list" in capsys.readouterr().err


def test_unknown_solver_option(tmp_path, capsys):
    # the Newton controls are fixed, so a config has no solver section
    code, _ = run(tmp_path, "solve",
                  dict(PROBLEM, solver={"newton": True}))
    assert code == 2
    assert "unknown keys in config: ['solver']" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    {"cg_rtol": 1e-8}, {"cg_maxiter": 2000}, {"armijo_c": 1e-4},
    {"backtrack": 0.5}, {"max_backtracks": 40}, {"stall_window": 8}])
def test_retired_cg_solver_options_rejected(tmp_path, capsys, option):
    # the Newton systems are factorized directly, so there is no CG to
    # tune, and the line search accepts the slope root by the approximate
    # Wolfe test, so there is no backtracking or stall window either; the
    # section that held these options is gone with the other controls
    code, _ = run(tmp_path, "solve", dict(PROBLEM, solver=option))
    assert code == 2
    assert "unknown keys in config: ['solver']" in capsys.readouterr().err


@pytest.mark.parametrize("check_only", [True, False])
def test_retired_table_law_is_an_unknown_type(tmp_path, capsys, check_only):
    # every conducting law is a power law, so a sampled flux table is not
    # a material type, whether the config is only checked or run
    mats = {"regions": {"0": {"type": "linear", "sigma": 1.0},
                        "1": {"type": "tabulated", "E": [0.0, 1.0, 2.0],
                              "J": [0.0, 1.0, 3.0]}}}
    extra = ("--check-only",) if check_only else ()
    code, out = run(tmp_path, "solve", dict(PROBLEM, mesh=INC_DISK,
                                            materials=mats), *extra)
    assert code == 2
    assert "unknown material type 'tabulated'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, p", [
    ({"type": "linear", "sigma": 3.0}, 2.0),
    ({"type": "power", "sigma_bar": 2.0, "E0": 1.0, "p": 4.0}, 4.0),
    ({"type": "ej", "Jc": 8e9, "E0": 1e-4, "n": 27}, 28.0 / 27.0)])
def test_every_conducting_type_is_a_power_law(spec, p):
    mats = cli.materials_from_spec({"regions": {"0": spec, "1": {
        "type": "pec"}}})
    law = mats.model_for(0)
    assert isinstance(law, PowerLaw) and law.p == p
    assert outer_exponent(mats) == p
    mesh = cli.mesh_from_spec(INC_DISK, ".")
    assert Problem(mesh, mats).is_linear == (p == 2.0)


def test_rect_mesh_missing_dimensions(tmp_path, capsys):
    rect = {"kind": "rect", "target_h": 0.3}
    code, _ = run(tmp_path, "mesh-gen", {"mesh": rect})
    assert code == 2
    assert "missing keys in mesh(rect)" in capsys.readouterr().err


def test_bad_expr_term_is_a_config_error(tmp_path, capsys):
    datum = {"name": "bad", "terms": [{"kind": "expr", "amplitude": 1.0,
                                       "expr": "nonsense("}]}
    code, _ = run(tmp_path, "solve", dict(PROBLEM, data=[datum]))
    assert code == 2
    assert "datum 'bad'" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["().__class__.__mro__[1].__subclasses__()",
                                  "x.shape"])
def test_expr_term_cannot_reach_python_objects(tmp_path, capsys, expr):
    datum = {"name": "evil", "terms": [{"kind": "expr", "amplitude": 1.0,
                                        "expr": expr}]}
    code, out = run(tmp_path, "solve", dict(PROBLEM, data=[datum]))
    assert code == 2
    err = capsys.readouterr().err
    assert "datum 'evil'" in err and "not allowed" in err
    assert not out.exists() or not any(out.iterdir())


# ------------------------------------------------------------------ solve

def test_solve_outputs(tmp_path, capsys):
    code, out = run(tmp_path, "solve", PROBLEM)
    assert code == 0
    for name in ("u_ramp.csv", "elements_ramp.csv", "log_ramp.jsonl",
                 "qdensity_ramp.svg", "solve_report.json",
                 "run_meta.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "solve_report.json").read_text())
    (info,) = report["data"]
    assert info["datum"] == "ramp"
    assert info["converged"] is True
    # an affine datum is reproduced exactly: energy is half the mesh area
    mesh = build_disk_mesh(DISK["radius"], DISK["target_h"])
    exact = 0.5 * mesh.areas.sum()
    assert info["energy"] == pytest.approx(exact, rel=1e-9)
    # a linear map starts at its minimizer: no Newton step, no
    # factorization, no line search
    assert info["n_iter"] == 0
    assert info["exit_reason"] == "tol" and info["grad_floor"] == 0.0
    assert info["factorizations"] == info["line_search_evals"] \
        == info["linsolve_failures"] == 0
    assert "[solve] ramp: energy" in capsys.readouterr().out


def test_solve_one_file_set_per_datum(tmp_path):
    cfg = dict(PROBLEM, data=[RAMP, SIN2])
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert (out / "u_ramp.csv").exists()
    assert (out / "u_sin2.csv").exists()
    head, rows = read_csv(out / "u_ramp.csv")
    assert head == ["node_id", "x", "y", "u"]
    mesh = build_disk_mesh(DISK["radius"], DISK["target_h"])
    assert len(rows) == mesh.n_nodes


def test_solve_builds_one_problem_for_all_data(tmp_path, problem_builds):
    # the per-triangle fields read the problem each solved field keeps
    code, _ = run(tmp_path, "solve", dict(PROBLEM, data=[RAMP, SIN2]))
    assert code == 0
    assert len(problem_builds) == 1


def test_solve_makes_one_element_pass_per_datum_after_its_solve(
        tmp_path, monkeypatch):
    # the element CSV and the energy-density SVG share one pass per datum
    passes, starts, ends = [], [], []
    grad_norms, solve = Problem.grad_norms, cli.solve

    def counting_grad_norms(self, u):
        passes.append(1)
        return grad_norms(self, u)

    def marking_solve(*args, **kw):
        starts.append(len(passes))
        fld = solve(*args, **kw)
        ends.append(len(passes))
        return fld

    monkeypatch.setattr(Problem, "grad_norms", counting_grad_norms)
    monkeypatch.setattr(cli, "solve", marking_solve)
    code, _ = run(tmp_path, "solve", dict(PROBLEM, data=[RAMP, SIN2]))
    assert code == 0
    # passes between each solve's return and the next solve (or the end
    # of the run); the parent made 4 per datum
    nexts = starts[1:] + [len(passes)]
    assert [n - e for e, n in zip(ends, nexts)] == [1, 1]


def test_solve_datum_names_are_slugged(tmp_path):
    fancy = dict(RAMP, name="ramp (v2)")
    code, out = run(tmp_path, "solve", dict(PROBLEM, data=[fancy]))
    assert code == 0
    assert (out / "u_ramp__v2_.csv").exists()


def test_solver_failure_exit_code(tmp_path, capsys):
    # a perfectly conducting layer that reaches the boundary is rejected
    # by the solver, not the config loader
    rect = {"kind": "rect", "width": 1.0, "height": 1.0, "target_h": 0.4,
            "layer_split": 0.5}
    mats = {"regions": {"0": {"type": "linear", "sigma": 1.0},
                        "1": {"type": "pec"}}}
    cfg = {"mesh": rect, "materials": mats, "data": [RAMP]}
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 4
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("command, case", [
    ("solve", "sigma 1e308"), ("avg-power", "sigma 1e308"),
    ("avg-power", "p = 4 at E0 1e-300"), ("gateaux-check", "eps 1e300")])
def test_a_solve_that_overflows_is_a_solver_error(tmp_path, capsys, command,
                                                  case):
    # an infinite or NaN gradient norm met its own infinite tolerance and
    # exited "tol", or stalled the line search; the read cannot see it
    p4 = {"type": "power", "sigma_bar": 2.0, "E0": 1.0, "p": 4.0}
    cfg = {"sigma 1e308": dict(PROBLEM, materials={"regions": {"0": {
               "type": "linear", "sigma": 1e308}}}),
           "p = 4 at E0 1e-300": dict(PROBLEM, materials={"regions": {
               "0": dict(p4, E0=1e-300)}}),
           "eps 1e300": dict(GATEAUX, materials={"regions": {"0": p4}},
                             eps_list=[1e300])}[case]
    assert run(tmp_path, command, cfg, "--check-only", out="check")[0] == 0
    code, out = run(tmp_path, command, cfg)
    assert code == cli.EXIT_SOLVER
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver error: datum '")
    assert "is not finite" in err[0]


def test_check_only_validates_without_writing(tmp_path, capsys):
    code, out = run(tmp_path, "solve", PROBLEM, "--check-only")
    assert code == 0
    assert "[check] config ok" in capsys.readouterr().out
    assert not out.exists()


def test_check_only_still_rejects_bad_configs(tmp_path, capsys):
    bad = {"regions": {"0": {"type": "rubber"}}}
    code, out = run(tmp_path, "solve", dict(PROBLEM, materials=bad),
                    "--check-only")
    assert code == 2
    assert not out.exists()
    assert "rubber" in capsys.readouterr().err


# ------------------------------------------------------------ power reports

def test_power_batch_csv(tmp_path):
    cfg = dict(PROBLEM, data=[RAMP, SIN2], material_id="demo", quad_order=2)
    code, out = run(tmp_path, "avg-power", cfg)
    assert code == 0
    head, rows = read_csv(out / "power_batch.csv")
    assert head == ["datum_id", "material_id", "power", "avg_power",
                    "energy", "transfer_residual"]
    assert [r[0] for r in rows] == ["ramp", "sin2"]
    assert all(r[1] == "demo" for r in rows)
    for r in rows:
        # linear material: the boundary pairing is twice the energy, and
        # the averaged power, exact for a pairing linear in alpha, equals
        # the energy
        assert float(r[2]) == pytest.approx(2.0 * float(r[4]), rel=1e-8)
        assert float(r[3]) == pytest.approx(float(r[4]), rel=1e-8)
        assert abs(float(r[5])) < 1e-8
    # f = x on the unit disk with sigma = 1 dissipates the disk area
    assert float(rows[0][2]) == pytest.approx(np.pi, rel=0.02)


def test_power_batch_csv_quotes_names_with_commas(tmp_path):
    named = dict(RAMP, name='x,y "z"')
    code, out = run(tmp_path, "avg-power", dict(PROBLEM, data=[named],
                                                material_id="m,1",
                                                quad_order=1))
    assert code == 0
    with open(out / "power_batch.csv", newline="") as fh:
        head, *rows = csv.reader(fh)
    assert len(head) == 6 and [len(r) for r in rows] == [6]
    assert rows[0][:2] == ['x,y "z"', "m,1"]


def test_csv_cells_round_trip_through_a_csv_reader(tmp_path):
    rows = [("a,b", 'say "hi"', "two\nlines", 1.5, 3, True),
            ("plain", "", " pad ", float("nan"), -2, False)]
    write_csv(tmp_path / "t.csv", ["c0", "c1", "c2", "c3", "c4", "c5"], rows)
    with open(tmp_path / "t.csv", newline="") as fh:
        read = list(csv.reader(fh))
    assert read == [["c0", "c1", "c2", "c3", "c4", "c5"]] + [
        [fmt(c) for c in row] for row in rows]


def test_power_of_zero_datum_is_zero(tmp_path):
    off = {"name": "off", "terms": [{"kind": "linear-x",
                                     "amplitude": 0.0}]}
    code, out = run(tmp_path, "avg-power", dict(PROBLEM, data=[off],
                                                quad_order=2))
    assert code == 0
    _, rows = read_csv(out / "power_batch.csv")
    assert all(abs(float(c)) <= 1e-12 for c in rows[0][2:])


def test_constant_datum_solves_as_the_zero_datum(tmp_path):
    # a trace constant on the boundary projects to 0, not to round-off
    const = {"name": "z", "terms": [{"kind": "expr", "amplitude": 1,
                                     "expr": "1"}]}
    zero = {"name": "z", "terms": [{"kind": "linear-x", "amplitude": 0}]}
    outs = []
    for datum in (const, zero):
        code, out = run(tmp_path, "solve", dict(PROBLEM, data=[datum]),
                        out=f"out_{len(outs)}")
        assert code == 0
        outs.append(out)
    assert_same_data_files(*outs)


def test_avg_power_linear_is_half_power(tmp_path):
    cfg = dict(PROBLEM, quad_order=4)
    code, out = run(tmp_path, "avg-power", cfg)
    assert code == 0
    rep = json.loads((out / "avg_power_ramp.json").read_text())
    assert rep["quad_order"] == 4
    assert rep["avg_power"] == pytest.approx(0.5 * rep["power"], rel=1e-9)
    assert rep["transfer_residual"] < 1e-8
    assert [n["alpha"] for n in rep["alpha_nodes"]] == sorted(
        n["alpha"] for n in rep["alpha_nodes"])
    assert (out / "power_batch.csv").exists()


# ----------------------------------------------------- monotonicity-suite

def suite_cfg(**extra):
    base = {"mesh": INC_DISK, "data": [RAMP], "quad_order": 3}
    base.update(extra)
    return base


CONTRAST_PAIR = {
    "name_lo": "bg", "name_hi": "hot",
    "lo": LIN2,
    "hi": {"regions": {"0": {"type": "linear", "sigma": 1.0},
                       "1": {"type": "linear", "sigma": 3.0}}},
}

# power laws with exponents on opposite sides of 2 cross at E0, so
# neither direction of the pointwise order can be certified
CROSSING_PAIR = {
    "name_lo": "steep", "name_hi": "shallow",
    "lo": {"regions": {"0": {"type": "power", "sigma_bar": 1.0,
                             "E0": 1.0, "p": 3.0},
                       "1": {"type": "power", "sigma_bar": 1.0,
                             "E0": 1.0, "p": 3.0}}},
    "hi": {"regions": {"0": {"type": "power", "sigma_bar": 1.0,
                             "E0": 1.0, "p": 1.5},
                       "1": {"type": "power", "sigma_bar": 1.0,
                             "E0": 1.0, "p": 1.5}}},
}


def test_suite_certified_pair_passes(tmp_path, capsys):
    code, out = run(tmp_path, "monotonicity-suite",
                    suite_cfg(pairs=[CONTRAST_PAIR]))
    assert code == 0
    head, rows = read_csv(out / "pair_0.csv")
    assert head == ["pair", "datum", "value_lo", "value_hi", "delta",
                    "tolerance", "violated", "notes"]
    assert rows[0][0] == "bg<=hot"
    assert all(r[6] == "0" and r[7] == "" for r in rows)
    assert "[suite] pair bg<=hot: OK" in capsys.readouterr().out


def test_suite_uncertified_pair_fails_run(tmp_path, capsys):
    code, out = run(tmp_path, "monotonicity-suite",
                    suite_cfg(pairs=[CONTRAST_PAIR, CROSSING_PAIR]))
    assert code == 3
    captured = capsys.readouterr()
    assert "order certificate failed for pair steep<=shallow" \
        in captured.err
    assert "[suite] pair steep<=shallow: VIOLATED" in captured.out
    # both pairs are evaluated and written; the uncertified one's rows
    # are never marked violated
    assert (out / "pair_0.csv").exists()
    _, rows = read_csv(out / "pair_1.csv")
    assert [r[0] for r in rows] == ["steep<=shallow"]
    assert all(r[6] == "0" for r in rows)


def test_suite_pair_keeps_its_certificate_notes(tmp_path):
    # a pair that mixes regimes writes the same note as the chain pair
    pec = {"regions": {"0": LIN2["regions"]["0"], "1": {"type": "pec"}}}
    cfg = suite_cfg(pairs=[{"name_lo": "lin", "name_hi": "pec",
                            "lo": LIN2, "hi": pec}],
                    chain=[{"name": "lin", "materials": LIN2},
                           {"name": "pec", "materials": pec}])
    code, out = run(tmp_path, "monotonicity-suite", cfg)
    assert code == 0
    pair = (out / "pair_0.csv").read_text()
    assert "label 1: finite-p>=2 vs pec (beyond stated hypotheses)" in pair
    assert pair == (out / "ladder.csv").read_text()


def test_suite_chain_with_resolutions(tmp_path):
    chain = [{"name": n, "materials":
              {"regions": {"0": {"type": "linear", "sigma": s},
                           "1": {"type": "linear", "sigma": s}}}}
             for n, s in (("a", 1.0), ("b", 2.0), ("c", 4.0))]
    cfg = suite_cfg(chain=chain, resolutions=[0.35, 0.3])
    code, out = run(tmp_path, "monotonicity-suite", cfg)
    assert code == 0
    for suffix in ("_h0.35", "_h0.3"):
        head, rows = read_csv(out / f"ladder{suffix}.csv")
        assert head[:2] == ["pair", "datum"]
        # 3 names -> 3 ordered pairs, one datum each
        assert [r[0] for r in rows] == ["a<=b", "a<=c", "b<=c"]
        assert all(float(r[4]) > 0 for r in rows)


def test_suite_energy_comparison_mode(tmp_path):
    # the one comparison reads minimum energies: each pair value is the
    # energy of an independent solve
    cfg = suite_cfg(pairs=[CONTRAST_PAIR], data=[RAMP, SIN2])
    code, out = run(tmp_path, "monotonicity-suite", cfg)
    assert code == 0
    _, rows = read_csv(out / "pair_0.csv")
    assert all(float(r[4]) > 0 for r in rows)
    mesh = cli.mesh_from_spec(INC_DISK, str(tmp_path))
    data = cli.data_from_spec(mesh, [RAMP, SIN2])
    for side, col in (("lo", 2), ("hi", 3)):
        mats = cli.materials_from_spec(CONTRAST_PAIR[side])
        for datum, row in zip(data, rows):
            energy = solve(mesh, mats, datum).info.energy
            assert abs(float(row[col]) - energy) <= 1e-12 * energy


def test_suite_rejects_unknown_comparison(tmp_path, capsys):
    # one comparison path is left, so the key that chose one is unknown
    for compare in ("energy", "avg_power", "l2"):
        assert_fails_like_a_run(tmp_path, capsys, "monotonicity-suite",
                                suite_cfg(pairs=[CONTRAST_PAIR],
                                          compare=compare),
                                "unknown keys in config: ['compare']")


NONLINEAR_CHAIN = [
    {"name": n, "materials": {"regions": {
        "0": {"type": "linear", "sigma": 1.0},
        "1": {"type": "power", "sigma_bar": s, "E0": 1.0, "p": 4.0}}}}
    for n, s in (("a", 0.5), ("b", 1.0), ("c", 2.0))]


def test_suite_chain_solves_once_per_link_datum_and_resolution(
        tmp_path, solve_calls):
    cfg = suite_cfg(chain=NONLINEAR_CHAIN, data=[RAMP, SIN2],
                    resolutions=[0.35, 0.3], quad_order=8)
    code, out = run(tmp_path, "monotonicity-suite", cfg)
    assert code == 0
    # 3 links x 2 data x 2 resolutions, each (map, datum) solved once
    assert sum(solve_calls.values()) == 12
    assert set(solve_calls.values()) == {1}
    for suffix in ("_h0.35", "_h0.3"):
        _, rows = read_csv(out / f"ladder{suffix}.csv")
        assert len(rows) == 3 * 2 and all(r[6] == "0" for r in rows)


def test_suite_quad_order_key_has_no_effect(tmp_path):
    # the key is still read and checked, but no quadrature runs
    outs = []
    for order in (1, 7):
        cfg = suite_cfg(chain=NONLINEAR_CHAIN[:2], quad_order=order)
        code, out = run(tmp_path, "monotonicity-suite", cfg,
                        out=f"q{order}")
        assert code == 0
        outs.append((out / "ladder.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.fixture
def certificate_calls(monkeypatch):
    """Counts the ``pointwise_leq`` calls made while the test runs, under
    every name a ``condlab`` module bound it to."""
    calls = []
    orig = monotonicity.pointwise_leq

    def counting(lo, hi, labels):
        calls.append((lo, hi))
        return orig(lo, hi, labels)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "condlab" \
                and vars(mod).get("pointwise_leq") is orig:
            monkeypatch.setattr(mod, "pointwise_leq", counting)
    return calls


def test_suite_certifies_each_pair_once(tmp_path, certificate_calls):
    cooler = dict(CONTRAST_PAIR, name_lo="cool", lo={"regions": {
        "0": {"type": "linear", "sigma": 1.0},
        "1": {"type": "linear", "sigma": 0.5}}})
    code, out = run(tmp_path, "monotonicity-suite",
                    suite_cfg(pairs=[CONTRAST_PAIR, cooler]))
    assert code == 0 and len(certificate_calls) == 2
    assert (out / "pair_1.csv").exists()


def test_suite_certifies_each_pair_once_per_resolution(tmp_path, capsys,
                                                       certificate_calls):
    chain = NONLINEAR_CHAIN[:2]
    cfg = suite_cfg(pairs=[CONTRAST_PAIR, CROSSING_PAIR], chain=chain,
                    resolutions=[0.35, 0.3])
    code, out = run(tmp_path, "monotonicity-suite", cfg)
    assert code == 3
    # two pairs and one chain pair, each certified on each mesh's labels
    assert len(certificate_calls) == 3 * 2
    # the failed certificate is still reported once per resolution
    err = capsys.readouterr().err
    assert err.count("order certificate failed for pair steep<=shallow") \
        == 2
    for suffix in ("_h0.35", "_h0.3"):
        assert (out / f"pair_0{suffix}.csv").exists()
        assert (out / f"ladder{suffix}.csv").exists()


def test_suite_refuses_a_pair_that_crosses_at_large_fields(tmp_path,
                                                          capsys):
    # sigma_hi = 2.1 E^-0.1 falls below 1 for E > 1668: the certificate
    # is refused as E -> inf, so the reversed energies at amplitude 1e4
    # are not reported as violations of a certified pair
    big = {"name": "x", "terms": [{"kind": "linear-x", "amplitude": 1e4}]}
    pair = {"name_lo": "lin", "name_hi": "sub",
            "lo": {"regions": {"0": {"type": "linear", "sigma": 1.0}}},
            "hi": {"regions": {"0": {"type": "power", "sigma_bar": 2.1,
                                     "E0": 1.0, "p": 1.9}}}}
    code, out = run(tmp_path, "monotonicity-suite",
                    suite_cfg(mesh=DISK, data=[big], pairs=[pair]))
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["[suite] order certificate failed for pair lin<=sub "
                   "(label 0, E inf)"]
    _, rows = read_csv(out / "pair_0.csv")
    assert float(rows[0][4]) < 0 and rows[0][6] == "0"


def test_suite_ignores_a_law_under_a_label_no_triangle_has(tmp_path,
                                                            capsys):
    # one link also lists label 7, which the mesh does not carry: the
    # certificate reads the mesh's labels, so the run passes like the
    # config check, with the files of the chain without label 7
    chain = [dict(NONLINEAR_CHAIN[0]), NONLINEAR_CHAIN[1]]
    chain[0]["materials"] = {"regions": dict(
        NONLINEAR_CHAIN[0]["materials"]["regions"],
        **{"7": {"type": "power", "sigma_bar": 1.0, "E0": 1.0, "p": 4.0}})}
    for extra in (["--check-only"], []):
        code, out = run(tmp_path, "monotonicity-suite",
                        suite_cfg(chain=chain), *extra)
        assert code == 0
    assert capsys.readouterr().err == ""
    code, ref = run(tmp_path, "monotonicity-suite",
                    suite_cfg(chain=NONLINEAR_CHAIN[:2]), out="ref")
    assert code == 0
    assert (out / "ladder.csv").read_bytes() \
        == (ref / "ladder.csv").read_bytes()


def test_suite_needs_pairs_or_chain(tmp_path, capsys):
    code, _ = run(tmp_path, "monotonicity-suite", suite_cfg())
    assert code == 2
    assert "'pairs' and/or 'chain'" in capsys.readouterr().err


# --------------------------------------------------------- gateaux-check

GATEAUX = {"mesh": DISK, "materials": LIN, "datum": RAMP,
           "direction": COS1, "eps_list": [1e-1, 1e-2]}


def test_gateaux_outputs(tmp_path, capsys):
    code, out = run(tmp_path, "gateaux-check", GATEAUX)
    assert code == 0
    head, rows = read_csv(out / "gateaux.csv")
    assert head == ["eps", "quotient", "pairing", "residual",
                    "rel_residual"]
    assert [float(r[0]) for r in rows] == [1e-1, 1e-2]
    rep = json.loads((out / "gateaux.json").read_text())
    assert rep["pairing"] != 0.0
    # linear law: the residual is exactly linear in eps
    r1, r2 = (row["residual"] for row in rep["rows"])
    assert r2 == pytest.approx(0.1 * r1, rel=0.05)
    assert capsys.readouterr().out.count("[gateaux]") == 2


# ----------------------------------------------------- convergence-study

def test_convergence_study_linear(tmp_path, capsys):
    cfg = {"p_values": [2.0], "target_h": [0.4, 0.3]}
    code, out = run(tmp_path, "convergence-study", cfg)
    assert code == 0
    head, rows = read_csv(out / "convergence.csv")
    assert head == ["p", "target_h", "n_nodes", "energy_fem",
                    "energy_exact", "rel_error"]
    assert len(rows) == 2
    assert all(0 < float(r[5]) < 0.05 for r in rows)
    assert "observed order" in capsys.readouterr().out


# -------------------------------------------------------------- mpm-image

def mpm_cfg(**extra):
    mesh = {"kind": "disk", "radius": 1.0, "target_h": 0.28}
    base = {"mesh": mesh, "background": LIN,
            "grid": {"nx": 3, "ny": 3}, "data": [RAMP, SIN2],
            "quad_order": 2}
    base.update(extra)
    return base


def center_cell_id(n=3):
    mesh = build_disk_mesh(1.0, 0.28)
    grid = CellGrid(**vars(build_cell_grid(mesh, n, n)))
    centers = grid.cell_centers()
    return int(np.argmin(np.hypot(centers[:, 0], centers[:, 1])))


def test_mpm_image_outputs_and_containment(tmp_path, capsys):
    cid = center_cell_id()
    cfg = mpm_cfg(truth={"cells": [cid]})
    code, out = run(tmp_path, "mpm-image", cfg, "--workers", "1")
    assert code == 0
    for name in ("mpm_result.json", "mpm_heatmap.svg", "mpm_cells.csv",
                 "mpm_metrics.json"):
        assert (out / name).exists(), name
    result = json.loads((out / "mpm_result.json").read_text())
    assert result["datum_names"] == ["ramp", "sin2"]
    assert cid in result["flagged_cells"]
    metrics = json.loads((out / "mpm_metrics.json").read_text())
    assert metrics["contained"] is True
    assert metrics["n_truth"] == 1
    head, rows = read_csv(out / "mpm_cells.csv")
    assert head == ["cell_id", "ix", "iy", "score", "flagged"]
    assert len(rows) == result["grid"]["n_cells"]
    assert "containment: True" in capsys.readouterr().out


def test_mpm_image_truth_materials_no_anomaly(tmp_path):
    # ground truth identical to the background: nothing to flag, and no
    # containment metrics are produced without reference cells
    cfg = mpm_cfg(grid={"nx": 2, "ny": 2}, data=[RAMP],
                  truth={"materials": LIN})
    code, out = run(tmp_path, "mpm-image", cfg, "--workers", "1")
    assert code == 0
    result = json.loads((out / "mpm_result.json").read_text())
    assert result["flagged_cells"] == []
    assert not (out / "mpm_metrics.json").exists()


def test_mpm_run_meta_records_the_seed_it_scans_with(tmp_path):
    cid = center_cell_id(2)
    base = mpm_cfg(grid={"nx": 2, "ny": 2}, data=[RAMP],
                   truth={"cells": [cid]}, noise_rel=0.02)
    for out, cfg, seed in (("default", base, 0),
                           ("seven", dict(base, seed=7), 7)):
        code, outdir = run(tmp_path, "mpm-image", cfg, "--workers", "1",
                           out=out)
        assert code == 0
        meta = json.loads((outdir / "run_meta.json").read_text())
        assert meta["seed"] == seed


UNUSED_P4 = {"type": "power", "sigma_bar": 1.0, "E0": 1.0, "p": 4.0}


@pytest.mark.parametrize("command, config, section, logger, path", [
    ("mpm-image", "phantom_single", "background", "condlab.imaging",
     "Schur path: 1 factorization"),
    ("avg-power", "demo_disk", "materials", "condlab.dtn",
     "quadrature order 8, 9 solves")])
def test_an_unused_nonlinear_label_changes_no_byte(tmp_path, caplog, command,
                                                   config, section, logger,
                                                   path):
    # linearity is read off the laws the mesh carries: a p = 4 law under a
    # label that no triangle has changes neither the scan's path, the
    # solves of the alpha sweep nor the files
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    code, plain = run(tmp_path, command, cfg, out="plain")
    assert code == 0
    cfg[section]["regions"]["7"] = UNUSED_P4
    with caplog.at_level(logging.DEBUG, logger=logger):
        code, unused = run(tmp_path, command, cfg, out="unused")
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.name == logger]
    assert lines and all(path in line for line in lines)
    assert_same_data_files(plain, unused)


def test_log_level_sends_the_package_log_to_stderr(tmp_path, capsys):
    # the flag attaches one stderr handler for its run; without it the run
    # prints nothing to stderr, and the files are the same either way
    cfg = json.loads((CONFIGS / "phantom_single.json").read_text())
    code, logged = run(tmp_path, "mpm-image", cfg, "--log-level", "debug",
                       out="logged")
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("DEBUG condlab.imaging: ")
               and "Schur path: 1 factorization" in line for line in err)
    assert any(line.startswith("DEBUG condlab.mesh: built disk mesh")
               for line in err)
    code, quiet = run(tmp_path, "mpm-image", cfg, out="quiet")
    assert code == 0
    assert capsys.readouterr().err == ""
    assert_same_data_files(quiet, logged)


# --------------------------------------------------------- reproduce-wire

def wire_cfg(damage_type):
    return {
        "healthy": {"mesh": INC_DISK, "materials": LIN2},
        "damaged": [{"name": "case",
                     "materials": {"regions":
                                   {"0": {"type": "linear", "sigma": 1.0},
                                    "1": {"type": damage_type}}}}],
        "data": [RAMP],
        "quad_order": 3,
    }


def test_wire_insulating_damage_lowers_power(tmp_path, capsys):
    code, out = run(tmp_path, "reproduce-wire", wire_cfg("pei"))
    assert code == 0
    head, rows = read_csv(out / "table_case.csv")
    assert head == ["f", "E0", "E1", "difference"]
    assert all(float(r[3]) > 0 for r in rows)
    assert "[wire:case]" in capsys.readouterr().out


def test_wire_healthy_vs_healthy_differences_vanish(tmp_path, capsys):
    cfg = wire_cfg("pei")
    cfg["damaged"] = [{"name": "none", "materials": LIN2}]
    code, out = run(tmp_path, "reproduce-wire", cfg)
    _, rows = read_csv(out / "table_none.csv")
    e0 = [float(r[1]) for r in rows]
    diffs = [float(r[3]) for r in rows]
    assert all(abs(d) <= 1e-10 * abs(e) for d, e in zip(diffs, e0))
    # a zero difference is not a strictly positive one, and the command
    # says so through its exit code
    assert code == 3
    assert "not positive" in capsys.readouterr().err


NONLINEAR_WIRE = {
    "healthy": {"mesh": INC_DISK, "materials": {"regions": {
        "0": {"type": "linear", "sigma": 1.0},
        "1": {"type": "ej", "Jc": 2.0, "E0": 1.0, "n": 5}}}},
    "damaged": [
        {"name": "hole", "materials": {"regions": {
            "0": {"type": "linear", "sigma": 1.0}, "1": {"type": "pei"}}}},
        {"name": "weak", "materials": {"regions": {
            "0": {"type": "linear", "sigma": 1.0},
            "1": {"type": "ej", "Jc": 1.0, "E0": 1.0, "n": 5}}},
         "mesh": dict(INC_DISK, target_h=0.35)}],
    "data": [RAMP, SIN2],
    "quad_order": 8,
}


def test_wire_solves_once_per_map_and_datum(tmp_path, solve_calls):
    code, _ = run(tmp_path, "reproduce-wire", NONLINEAR_WIRE)
    assert code == 0
    # healthy and two damaged maps, two data each, each solved once
    assert sum(solve_calls.values()) == 6
    assert set(solve_calls.values()) == {1}


def test_wire_difference_is_the_energy_difference(tmp_path):
    code, out = run(tmp_path, "reproduce-wire", NONLINEAR_WIRE)
    assert code == 0

    def energies(spec):
        mesh = cli.mesh_from_spec(spec.get("mesh", INC_DISK), str(tmp_path))
        mats = cli.materials_from_spec(spec["materials"])
        return [solve(mesh, mats, d).info.energy
                for d in cli.data_from_spec(mesh, NONLINEAR_WIRE["data"])]

    healthy = energies(NONLINEAR_WIRE["healthy"])
    for case in NONLINEAR_WIRE["damaged"]:
        _, rows = read_csv(out / f"table_{case['name']}.csv")
        for e0, e1, row in zip(healthy, energies(case), rows):
            assert float(row[1]) == e0 and float(row[2]) == e1
            diff = float(row[3])
            assert abs(diff - (e0 - e1)) <= 1e-12 * abs(e0 - e1)


def test_wire_quad_order_key_is_checked_but_has_no_effect(tmp_path, capsys):
    tables = []
    for order in (2, 9):
        code, out = run(tmp_path, "reproduce-wire",
                        dict(NONLINEAR_WIRE, quad_order=order),
                        out=f"q{order}")
        assert code == 0
        tables.append([(out / f"table_{case}.csv").read_bytes()
                       for case in ("hole", "weak")])
    assert tables[0] == tables[1]
    assert_fails_like_a_run(tmp_path, capsys, "reproduce-wire",
                            dict(wire_cfg("pei"), quad_order=0),
                            "quadrature order must be >= 1")


def test_wire_flags_nonpositive_differences(tmp_path, capsys):
    # a perfectly conducting defect raises the transferred power, which
    # is the wrong sign for a loss-of-section diagnosis
    code, out = run(tmp_path, "reproduce-wire", wire_cfg("pec"))
    assert code == 3
    assert "not positive" in capsys.readouterr().err
    # the table is still written for inspection
    _, rows = read_csv(out / "table_case.csv")
    assert all(float(r[3]) < 0 for r in rows)


# ------------------------------------------- one config read, two exits

# Bad configs must be refused by the one config read that --check-only and
# a run share: exit 2, the same error line, and nothing written.
TRUTH = {"cells": [0]}


def nested_cfg(inner):
    """A disk mesh whose inclusion ``inner`` lies inside a disk of radius
    0.5 about the centre."""
    outer = {"center": [0.0, 0.0], "radius": 0.5, "label": 1}
    return {"mesh": {"kind": "disk", "radius": 1.0, "target_h": 0.1,
                     "inclusions": [outer, inner]}}


CONFIG_PROBES = [
    ("mpm-image", lambda: mpm_cfg(grid={"nx": 5}, truth=TRUTH),
     "missing keys in grid: ['ny']"),
    ("mpm-image", lambda: mpm_cfg(truth={"cells": [0], "shape": "box"}),
     "unknown keys in truth: ['shape']"),
    ("mpm-image", lambda: mpm_cfg(truth={"cells": [0],
                                         "model": {"type": "nope"}}),
     "unknown material type 'nope'"),
    ("mpm-image", lambda: mpm_cfg(truth=TRUTH, contrast="bogus"),
     "contrast must be 'pei' or 'pec'"),
    ("mpm-image", lambda: mpm_cfg(mesh=INC_DISK, truth=TRUTH),
     "mesh labels without material"),
    ("monotonicity-suite", lambda: suite_cfg(),
     "'pairs' and/or 'chain'"),
    ("monotonicity-suite",
     lambda: suite_cfg(pairs=[CONTRAST_PAIR], compare="bogus"),
     "unknown keys in config: ['compare']"),
    ("reproduce-wire",
     lambda: dict(wire_cfg("pei"), healthy={"mesh": INC_DISK,
                                            "materials": LIN2, "x": 1}),
     "unknown keys in healthy: ['x']"),
    ("reproduce-wire",
     lambda: dict(wire_cfg("pei"), damaged=[dict(
         wire_cfg("pei")["damaged"][0], x=1)]),
     "unknown keys in damaged[0]: ['x']"),
    # wrongly typed or out-of-range values
    ("solve", lambda: dict(PROBLEM, mesh=dict(DISK, target_h="abc")),
     "ValueError"),
    # a list-valued key, or an entry of one, of the wrong JSON type is
    # refused by its name, not iterated
    ("solve", lambda: dict(PROBLEM, mesh=dict(DISK, inclusions=[5])),
     "inclusion 0 must be a JSON object"),
    ("solve", lambda: dict(PROBLEM, materials={"regions": []}),
     "materials.regions must be a JSON object"),
    ("solve", lambda: dict(PROBLEM, data=[{"name": "r", "terms": 5}]),
     "datum 'r' terms must be a JSON list, got 5"),
    ("solve", lambda: dict(PROBLEM, mesh=dict(DISK, inclusions=3)),
     "mesh inclusions must be a JSON list, got 3"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(
        DISK, inclusions=INC_DISK["inclusions"][0])),
     "mesh inclusions must be a JSON list, got {'center': [0.3, 0.0], "
     "'radius': 0.25, 'label': 1}"),
    ("avg-power", lambda: dict(PROBLEM, data=5),
     "data must be a JSON list, got 5"),
    ("monotonicity-suite",
     lambda: suite_cfg(pairs=[CONTRAST_PAIR], resolutions=0.3),
     "resolutions must be a JSON list, got 0.3"),
    ("mpm-image", lambda: mpm_cfg(truth={"cells": 3}),
     "truth.cells must be a JSON list, got 3"),
    ("gateaux-check", lambda: dict(GATEAUX, eps_list=0.1),
     "eps_list must be a JSON list, got 0.1"),
    ("convergence-study", lambda: {"p_values": 2.0, "target_h": [0.4]},
     "p_values must be a JSON list, got 2.0"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": 0.4},
     "target_h must be a JSON list, got 0.4"),
    ("monotonicity-suite", lambda: suite_cfg(pairs={"name_lo": "a"}),
     "pairs must be a JSON list, got {'name_lo': 'a'}"),
    ("monotonicity-suite", lambda: suite_cfg(chain={"name": "a"}),
     "chain must be a JSON list, got {'name': 'a'}"),
    ("reproduce-wire", lambda: dict(wire_cfg("pei"), damaged={"name": "a"}),
     "damaged must be a JSON list, got {'name': 'a'}"),
    ("mpm-image", lambda: mpm_cfg(grid={"nx": 0, "ny": 3}, truth=TRUTH),
     "nx=0, ny=3"),
    ("mpm-image", lambda: mpm_cfg(truth={"cells": [999]}),
     "cell ids [999] outside range"),
    ("avg-power", lambda: dict(PROBLEM, quad_order=0),
     "quadrature order must be >= 1"),
    # the Gauss rule's companion matrix would take 728 TiB
    ("avg-power", lambda: dict(PROBLEM, quad_order=10**7),
     "quadrature order must be <= 1000, got 10000000"),
    ("mesh-gen", lambda: dict(PROBLEM, quad_order=1001),
     "quadrature order must be <= 1000, got 1001"),
    # solve reads the quad_order key it accepts; these ids differ from
    # the rows above only to stay unique
    ("solve", lambda: dict(PROBLEM, quad_order=0),
     "ValueError: quadrature order must be >= 1"),
    ("avg-power", lambda: dict(PROBLEM, quad_order=-3),
     "quadrature order must be >= 1)"),
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": 5},
     "save_as must be a file name"),
    # the mesh is saved directly in --out, next to the files mesh-gen
    # writes itself, and overwrites neither
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": ""},
     "save_as must be a bare file name, got ''"),
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": "/nonexistent/m.json"},
     "save_as must be a bare file name, got '/nonexistent/m.json'"),
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": "sub/m.json"},
     "save_as must be a bare file name, got 'sub/m.json'"),
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": "m\0.json"},
     "save_as must be a bare file name, got 'm\\x00.json'"),
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": "mesh_report.json"},
     "save_as 'mesh_report.json' names a file mesh-gen writes itself"),
    ("mesh-gen", lambda: {"mesh": DISK, "save_as": "run_meta.json"},
     "save_as 'run_meta.json' names a file mesh-gen writes itself"),
    # a material id labels power_batch.csv rows as written
    ("avg-power", lambda: dict(PROBLEM, material_id={"m": 1}),
     "material_id must be a string, got {'m': 1}"),
    ("avg-power", lambda: dict(PROBLEM, material_id=3),
     "material_id must be a string, got 3"),
    # mesh-gen reads the problem sections it accepts
    ("mesh-gen", lambda: dict(PROBLEM, materials={"regions": {
        "0": {"type": "rubber"}}}), "unknown material type 'rubber'"),
    ("mesh-gen", lambda: dict(PROBLEM, data=["x"]),
     "datum must be a JSON object"),
    ("mesh-gen", lambda: dict(PROBLEM, data="x"),
     "data must be a JSON list, got 'x'"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh=INC_DISK),
     "mesh labels without material: [1]"),
    ("mesh-gen", lambda: dict(PROBLEM, quad_order=0),
     "(ValueError: quadrature order must be >= 1)"),
    ("solve", lambda: dict(PROBLEM, mesh={"path": "no_such_mesh.json"}),
     "mesh file"),
    ("convergence-study", lambda: {"p_values": [0.5], "target_h": [0.4]},
     "exponent p must exceed 1"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": [0.4],
                                   "r_inner": 1.0, "r_outer": 0.5},
     "need 0 < r_inner < r_outer"),
    # two names that would write one file, or one row, are refused
    ("avg-power", lambda: dict(PROBLEM, data=[RAMP, dict(SIN2, name="ramp")]),
     "repeated datum name 'ramp'"),
    ("solve", lambda: dict(PROBLEM, data=[dict(RAMP, name="a+b"),
                                          dict(SIN2, name="a_b")]),
     "datum names 'a+b' and 'a_b' collide in file names as 'a_b'"),
    ("monotonicity-suite", lambda: suite_cfg(chain=[
        {"name": "a", "materials": LIN2}, {"name": "a", "materials": LIN2}]),
     "repeated chain link name 'a'"),
    ("monotonicity-suite", lambda: suite_cfg(pairs=[CONTRAST_PAIR],
                                             resolutions=[0.3, 0.30000001]),
     "resolutions 0.3 and 0.30000001 collide in file names as '_h0.3'"),
    ("reproduce-wire", lambda: dict(wire_cfg("pei"), damaged=[
        dict(wire_cfg("pei")["damaged"][0], name=n) for n in ("a b", "a_b")]),
     "damaged case names 'a b' and 'a_b' collide in file names as 'a_b'"),
    # integer keys are read strictly: no truncation, no bools or strings
    ("mpm-image", lambda: mpm_cfg(grid={"nx": 5.9, "ny": 5}, truth=TRUTH),
     "grid.nx must be an integer, got 5.9"),
    ("mpm-image", lambda: mpm_cfg(grid={"nx": 5, "ny": "5"}, truth=TRUTH),
     "grid.ny must be an integer, got '5'"),
    ("mpm-image", lambda: mpm_cfg(quad_order=True, truth=TRUTH),
     "quad_order must be an integer, got True"),
    ("mpm-image", lambda: mpm_cfg(seed=1.5, truth=TRUTH),
     "seed must be an integer, got 1.5"),
    ("mpm-image", lambda: mpm_cfg(truth={"cells": [0.5]}),
     "truth.cells entry must be an integer, got 0.5"),
    ("solve", lambda: dict(PROBLEM, materials=LIN2, mesh=dict(
        INC_DISK, inclusions=[dict(INC_DISK["inclusions"][0], label=1.5)])),
     "inclusion 0 label must be an integer, got 1.5"),
    ("solve", lambda: dict(PROBLEM, mesh={
        "kind": "rect", "width": 1.0, "height": 1.0, "target_h": 0.5,
        "layer_split": 0.5, "layer_label": "1"}),
     "mesh layer_label must be an integer, got '1'"),
    ("solve", lambda: dict(PROBLEM, data=[{"name": "s", "terms": [
        {"kind": "sin", "amplitude": 1.0, "k": 2.5}]}]),
     "datum 's' term 0 k must be an integer, got 2.5"),
    # a region key is a label written one way, so no two keys name the
    # same label
    ("solve", lambda: dict(PROBLEM, mesh=INC_DISK, materials={"regions": {
        "0": LIN["regions"]["0"], "1": {"type": "pei"},
        " 01": {"type": "pec"}}}),
     "region key ' 01' is not a plain decimal label"),
    ("solve", lambda: dict(PROBLEM, materials={"regions": {
        "0": LIN["regions"]["0"], "+1": {"type": "pei"}}}),
     "region key '+1' is not a plain decimal label"),
    ("avg-power", lambda: dict(PROBLEM, materials={"regions": {
        "0": LIN["regions"]["0"], "1_0": {"type": "pei"}}}),
     "region key '1_0' is not a plain decimal label"),
    ("mpm-image", lambda: mpm_cfg(truth=TRUTH, background={"regions": {
        "0": LIN["regions"]["0"], "01": {"type": "pei"}}}),
     "background: region key '01' is not a plain decimal label"),
    # steps a difference quotient cannot take
    ("gateaux-check", lambda: dict(GATEAUX, eps_list=[0.1, 0.0]),
     "eps_list must be a non-empty list of finite steps > 0, got [0.1, 0.0]"),
    ("gateaux-check", lambda: dict(GATEAUX, eps_list=[]),
     "eps_list must be a non-empty list of finite steps > 0, got []"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": [0.4, 0]},
     "target_h must be positive, got 0.0"),
    ("solve", lambda: dict(PROBLEM, materials=LIN2, mesh=dict(
        INC_DISK, inclusions=[dict(INC_DISK["inclusions"][0], radius=0)])),
     "inclusion label 1 needs a positive radius, got 0.0"),
    # data whose reference value is 0, so no relative margin or error is
    # defined
    ("mpm-image", lambda: mpm_cfg(truth=TRUTH, data=[RAMP, {
        "name": "zero", "terms": [{"kind": "linear-x", "amplitude": 0}]}]),
     "datum 'zero' is zero on the boundary"),
    ("mpm-image", lambda: mpm_cfg(truth=TRUTH, data=[{"name": "none",
                                                      "terms": []}]),
     "datum 'none' is zero on the boundary"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": [0.4],
                                   "u_inner": 1.0, "u_outer": 1.0},
     "u_inner and u_outer must differ, both are 1.0"),
    # a trace constant on the boundary is the zero datum
    ("mpm-image", lambda: mpm_cfg(truth=TRUTH, data=[{"name": "z", "terms": [
        {"kind": "expr", "amplitude": 1, "expr": "1"}]}]),
     "datum 'z' is zero on the boundary"),
    # float keys are read strictly: finite numbers only, no bools or
    # strings
    ("solve", lambda: dict(PROBLEM, materials={"regions": {
        "0": {"type": "linear", "sigma": float("nan")}}}),
     "materials.regions[0] sigma must be a finite number, got nan"),
    ("solve", lambda: dict(PROBLEM, materials={"regions": {
        "0": {"type": "linear", "sigma": True}}}),
     "materials.regions[0] sigma must be a finite number, got True"),
    ("solve", lambda: dict(PROBLEM, materials={"regions": {"0": {
        "type": "power", "sigma_bar": 1.0, "E0": 1.0, "p": float("inf")}}}),
     "materials.regions[0] p must be a finite number, got inf"),
    ("solve", lambda: dict(PROBLEM, data=[{"name": "r", "terms": [
        {"kind": "linear-x", "amplitude": float("nan")}]}]),
     "datum 'r' term 0 amplitude must be a finite number, got nan"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": [0.4],
                                   "u_inner": float("nan")},
     "u_inner must be a finite number, got nan"),
    ("convergence-study", lambda: {"p_values": [float("nan")],
                                   "target_h": [0.4]},
     "p_values entry must be a finite number, got nan"),
    # an exact solution that overflows, in Python floats (p = 4) or in
    # numpy's (p = 2)
    ("convergence-study", lambda: {"p_values": [4.0], "target_h": [0.4],
                                   "u_outer": 1e300},
     "the exact solution at p = 4 overflows: u_inner, u_outer, sigma_bar "
     "or E0 is too large"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": [0.4],
                                   "u_outer": 1e300},
     "the exact solution at p = 2 overflows"),
    # a spacing whose point count overflows or is too large to mesh is
    # refused before any point is made
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, target_h=1e-320)),
     "disk mesh would have about inf points, more than the 1000000 allowed"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, target_h=1e-9)),
     "disk mesh would have about 3.14e+18 points, more than the 1000000 "
     "allowed"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh={
        "kind": "rect", "width": 1.0, "height": 1.0, "target_h": 1e-320}),
     "rect mesh would have about inf points, more than the 1000000 allowed"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh={
        "kind": "annulus", "r_inner": 0.5, "r_outer": 1.0,
        "target_h": 1e-320}),
     "annulus mesh would have about inf points, more than the 1000000 "
     "allowed"),
    # a disk is the one inclusion shape
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, inclusions=[
        {"shape": "polygon", "label": 1, "vertices": [
            [0, 0], [0.3, 0], [0, 0.3]]}])),
     "inclusion 0: unknown shape 'polygon'"),
    # a label is stored in int64, as a mesh file's labels are read
    ("solve", lambda: dict(PROBLEM, materials=LIN2, mesh=dict(
        INC_DISK, inclusions=[dict(INC_DISK["inclusions"][0], label=2**70)])),
     "inclusion 0 label must be an integer in the int64 range, got "
     "1180591620717411303424"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh={
        "kind": "rect", "width": 1.0, "height": 1.0, "target_h": 0.5,
        "layer_split": 0.5, "layer_label": -2**70}),
     "mesh layer_label must be an integer in the int64 range, got "
     "-1180591620717411303424"),
    # mesh coordinates are read as pairs of finite numbers
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, center=[1e308, 0])),
     "disk mesh generation failed: points coincide in float"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, center=[
        float("inf"), 0])), "mesh center x must be a finite number, got inf"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, center=[True, False])),
     "mesh center x must be a finite number, got True"),
    ("mesh-gen", lambda: dict(PROBLEM, mesh=dict(DISK, center=[0, 0, 0])),
     "mesh center must be a pair [x, y], got [0, 0, 0]"),
    # geometry outside the float range: areas that overflow, and areas of
    # counterclockwise triangles that underflow to 0
    ("solve", lambda: dict(PROBLEM, mesh=dict(DISK, radius=1e300,
                                              target_h=2e299)),
     "triangle 0 has an area or gradient beyond the float range"),
    ("solve", lambda: dict(PROBLEM, mesh=dict(DISK, radius=1e-300,
                                              target_h=2e-301)),
     "degenerate (zero-area) triangle 0"),
    ("solve", lambda: dict(PROBLEM, materials=LIN2, mesh=dict(
        INC_DISK, inclusions=[dict(INC_DISK["inclusions"][0],
                                   center=[0.3, True])])),
     "inclusion 0 center y must be a finite number, got True"),
    # the scan's random generator takes non-negative seeds only
    ("mpm-image", lambda: mpm_cfg(seed=-1, truth=TRUTH),
     "seed must be a non-negative integer, got -1"),
    ("mpm-image", lambda: mpm_cfg(seed=-2.0, truth=TRUTH),
     "seed must be a non-negative integer, got -2"),
    # a negative noise level or flagging tolerance has no meaning
    ("mpm-image", lambda: mpm_cfg(noise_rel=-0.1, truth=TRUTH),
     "noise_rel must be >= 0, got -0.1"),
    # a noise factor 1 + noise_rel * u, u in [-1, 1), that can reach 0
    # makes a measured power 0, negative or not finite
    ("mpm-image", lambda: mpm_cfg(noise_rel=1.0, truth=TRUTH),
     "noise_rel must be < 1, got 1.0"),
    ("mpm-image", lambda: mpm_cfg(noise_rel=2.0, truth=TRUTH),
     "noise_rel must be < 1, got 2.0"),
    ("mpm-image", lambda: mpm_cfg(noise_rel=1e308, truth=TRUTH),
     "noise_rel must be < 1, got 1e+308"),
    ("mpm-image", lambda: mpm_cfg(tol=-0.5, truth=TRUTH),
     "tol must be >= 0, got -0.5"),
    # a grid whose every triangle touches the boundary has no cell to scan
    ("mpm-image", lambda: mpm_cfg(mesh={
        "kind": "rect", "width": 1.0, "height": 1.0, "target_h": 0.5},
        grid={"nx": 2, "ny": 2}, truth={"cells": []}),
     "cell grid has no cell: every triangle touches the outer boundary"),
    # a trace that overflows, in a term or in its zero-mean projection,
    # is a config error
    ("solve", lambda: dict(PROBLEM, data=[{"name": "steep", "terms": [
        {"kind": "expr", "amplitude": 1.0, "expr": "exp(1000*x)"}]}]),
     "datum 'steep': trace is not finite: overflow encountered in exp"),
    ("solve", lambda: dict(PROBLEM, data=[{"name": "huge", "terms": [
        {"kind": "exp-x2-2y", "amplitude": 1e307}]}]),
     "datum 'huge': trace is not finite"),
    ("solve", lambda: dict(PROBLEM, data=[{"name": "deep", "terms": [
        {"kind": "expr", "amplitude": 1.0, "expr": "-" * 100_000 + "x"}]}]),
     "datum 'deep': expr nests too deeply"),
    # an inclusion inside another, at its centre or off it
    ("mesh-gen", lambda: nested_cfg({"center": [0.0, 0.0], "radius": 0.1,
                                     "label": 2}),
     "inclusions 1 and 2 overlap or nearly touch"),
    ("mesh-gen", lambda: nested_cfg({"center": [0.17, 0.17], "radius": 0.05,
                                     "label": 2}),
     "inclusions 1 and 2 overlap or nearly touch"),
    # two disks 0.04 apart, against a gap of half of target_h, 0.05
    ("mesh-gen", lambda: {"mesh": {
        "kind": "disk", "radius": 1.0, "target_h": 0.1, "inclusions": [
            {"center": [-0.22, 0.0], "radius": 0.2, "label": 3},
            {"shape": "disk", "center": [0.22, 0.0], "radius": 0.2,
             "label": 4}]}},
     "inclusions 3 and 4 overlap or nearly touch"),
    # a study without a law or a mesh would write only a header
    ("convergence-study", lambda: {"p_values": [], "target_h": [0.4]},
     "empty p_values list"),
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": []},
     "empty target_h list"),
    # a repeated law or spacing would write its rows twice
    ("convergence-study", lambda: {"p_values": [2.0], "target_h": [0.4, 0.4]},
     "repeated target_h value 0.4"),
    ("convergence-study", lambda: {"p_values": [2, 2.0], "target_h": [0.4]},
     "repeated p value 2.0"),
    # a comparison with no pair, or a wire study with no damaged case,
    # would write header-only tables or none
    ("monotonicity-suite", lambda: suite_cfg(chain=[
        {"name": "a", "materials": LIN2}]),
     "chain needs at least 2 links, got 1"),
    ("monotonicity-suite", lambda: suite_cfg(chain=[]),
     "chain needs at least 2 links, got 0"),
    ("monotonicity-suite", lambda: suite_cfg(pairs=[]), "empty pairs list"),
    ("reproduce-wire", lambda: dict(wire_cfg("pei"), damaged=[]),
     "empty damaged list"),
]



@pytest.mark.parametrize("nx, ny", [(100_000, 100_000), (10**30, 4)])
def test_mpm_check_only_takes_a_grid_of_any_integer_size(tmp_path, capsys,
                                                         nx, ny):
    code, out = run(tmp_path, "mpm-image",
                    mpm_cfg(grid={"nx": nx, "ny": ny}, truth=TRUTH),
                    "--check-only")
    assert code == 0 and not out.exists()
    assert "[check] config ok" in capsys.readouterr().out


def assert_fails_like_a_run(tmp_path, capsys, command, cfg, message):
    errors = []
    for extra, out in ((["--check-only"], "check"), ([], "run")):
        code, outdir = run(tmp_path, command, cfg, *extra, out=out)
        assert code == 2
        assert not outdir.exists()
        captured = capsys.readouterr()
        assert "[check] config ok" not in captured.out
        errors.append([ln for ln in captured.err.splitlines()
                       if ln.startswith("error:")])
    assert len(errors[0]) == 1 and errors[0] == errors[1]
    assert message in errors[0][0]


@pytest.mark.parametrize("command, make_cfg, message", CONFIG_PROBES,
                         ids=[probe[2] for probe in CONFIG_PROBES])
def test_check_only_fails_like_a_run(tmp_path, capsys, command, make_cfg,
                                     message):
    assert_fails_like_a_run(tmp_path, capsys, command, make_cfg(), message)


# a mesh file's numbers are read as strictly as a config's, and its
# geometry must stay in the float range
@pytest.mark.parametrize("key, row, col, value, message", [
    ("nodes", 4, 0, float("nan"), "mesh file {path}: nodes must be [x, y] "
                                  "rows of finite numbers, got nan"),
    ("triangles", 0, 2, 0.5, "mesh file {path}: triangles must be "
                             "[i, j, k, label] rows of integers in the "
                             "int64 range, got 0.5"),
    ("triangles", 0, 3, 0.5, "mesh file {path}: triangles must be "
                             "[i, j, k, label] rows of integers in the "
                             "int64 range, got 0.5"),
    ("triangles", 0, 3, 2**70, "mesh file {path}: triangles must be "
                               "[i, j, k, label] rows of integers in the "
                               "int64 range, got 1180591620717411303424"),
    ("nodes", 4, 0, 1e308, "invalid mesh {path}: triangle 0 has an area or "
                           "gradient beyond the float range"),
    ("triangles", 0, 2, 5, "invalid mesh {path}: index 5 is out of bounds"),
    ("triangles", 0, 2, -1, "invalid mesh {path}: triangle index out of "
                            "range"),
    # the centre node moved out to (2, 0.5) folds the square
    ("nodes", 4, 0, 2.0, "invalid mesh {path}: the mesh folds over edge "
                         "(1, 4), whose two triangles lie on one side of it"),
], ids=["nan coordinate", "fractional index", "fractional label",
        "label past int64", "gradient past the float range",
        "index past the nodes", "negative index", "folded"])
def test_mesh_file_is_read_strictly(tmp_path, capsys, key, row, col, value,
                                    message):
    payload = {"nodes": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
               "triangles": [[0, 1, 4, 0], [1, 2, 4, 0], [2, 3, 4, 0],
                             [3, 0, 4, 0]]}
    payload[key][row][col] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert_fails_like_a_run(tmp_path, capsys, "solve",
                            dict(PROBLEM, mesh={"path": "m.json"}),
                            message.format(path=path))


# A valid config of each subcommand; the Newton controls are fixed, so
# each one refuses a solver section
VALID_CONFIGS = {
    "mesh-gen": PROBLEM,
    "solve": PROBLEM,
    "avg-power": PROBLEM,
    "monotonicity-suite": suite_cfg(pairs=[CONTRAST_PAIR]),
    "gateaux-check": GATEAUX,
    "convergence-study": {"p_values": [2.0], "target_h": [0.4]},
    "mpm-image": mpm_cfg(truth=TRUTH),
    "reproduce-wire": wire_cfg("pei"),
}


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_solver_section_is_refused(tmp_path, capsys, command):
    cfg = VALID_CONFIGS[command]
    assert run(tmp_path, command, cfg, "--check-only", out="base")[0] == 0
    capsys.readouterr()
    assert_fails_like_a_run(tmp_path, capsys, command,
                            dict(cfg, solver={"max_iter": 20}),
                            "unknown keys in config: ['solver']")


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys,
                                                       command):
    cfg = VALID_CONFIGS[command]
    # every config key is set in the config alone: no flag overrides one
    reads = {"--seed": False, "--quad-order": False, "--workers": True}
    for flag, read in reads.items():
        args = (flag, "3", "--check-only")
        if read:
            assert run(tmp_path, command, cfg, *args)[0] == 0
            continue
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, cfg, *args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
def test_negative_worker_count_is_a_usage_error(tmp_path, capsys, command):
    for extra in (["--check-only"], []):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, VALID_CONFIGS[command], "--workers", "-3",
                *extra)
        assert exc.value.code == 2
        assert "argument --workers: must be >= 0, got -3" in \
            capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_power_is_not_a_subcommand(tmp_path, capsys):
    # avg-power writes every column of power_batch.csv, the plain pairing
    # <Lambda(f), f> among them
    for extra in (["--check-only"], []):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "power", PROBLEM, *extra)
        assert exc.value.code == 2
        assert "invalid choice: 'power'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (-2, -2)])
def test_integer_reader_accepts_integral_numbers(value, expected):
    read = cli._int(value, "key")
    assert read == expected and type(read) is int


@pytest.mark.parametrize("value", [3, 2.5, -1e-300, 1.7976931348623157e308])
def test_float_reader_accepts_finite_numbers(value):
    read = cli._float(value, "key")
    assert read == value and type(read) is float


@pytest.mark.parametrize("value", [True, "1.5", None, float("-inf"),
                                   10 ** 400])
def test_float_reader_refuses_other_values(value):
    with pytest.raises(ValueError, match="key must be a finite number"):
        cli._float(value, "key")


# Fuzzed configs: one entry of a small, valid config is replaced by a JSON
# value of another type or deleted.  No new numbers are drawn, so no mesh
# or grid can grow and the read stays quick.
FUZZ_BASES = {
    "solve": {
        "mesh": INC_DISK,
        "materials": {"regions": {
            "0": {"type": "linear", "sigma": 1.0},
            "1": {"type": "ej", "Jc": 2.0, "E0": 1.0, "n": 3}}},
        "data": [RAMP, {"name": "xy", "terms": [
            {"kind": "expr", "amplitude": 1.0, "expr": "x * y"}]}]},
    "mpm-image": mpm_cfg(
        mesh={"kind": "disk", "radius": 1.0, "target_h": 0.4},
        grid={"nx": 2, "ny": 2}, data=[RAMP],
        truth={"cells": [0], "model": {"type": "pei"}}, contrast="pei",
        noise_rel=0.01, seed=3, tol=0.05),
    "monotonicity-suite": {
        "mesh": dict(INC_DISK, target_h=0.4), "data": [RAMP, SIN2],
        "quad_order": 2, "resolutions": [0.45, 0.4],
        "pairs": [CONTRAST_PAIR],
        "chain": [{"name": "lo", "materials": CONTRAST_PAIR["lo"]},
                  {"name": "hi", "materials": CONTRAST_PAIR["hi"]}]},
    "reproduce-wire": {
        "healthy": {"mesh": dict(INC_DISK, target_h=0.4), "materials": LIN2},
        "damaged": [
            {"name": "hole", "materials": {"regions": {
                "0": {"type": "linear", "sigma": 1.0},
                "1": {"type": "pei"}}}},
            {"name": "coarse", "materials": LIN2,
             "mesh": dict(INC_DISK, target_h=0.45)}],
        "data": [RAMP, SIN2], "quad_order": 2},
    "gateaux-check": {
        "mesh": dict(INC_DISK, target_h=0.4),
        "materials": {"regions": {
            "0": {"type": "power", "sigma_bar": 2.0, "E0": 1.0, "p": 4.0},
            "1": {"type": "power", "sigma_bar": 1.0, "E0": 1.0,
                  "p": 3.0}}},
        "datum": RAMP, "direction": COS1, "eps_list": [1e-1, 1e-2]},
    "convergence-study": {
        "p_values": [2.0, 4.0], "target_h": [0.4, 0.3], "sigma_bar": 1.0,
        "E0": 1.0, "r_inner": 0.5, "r_outer": 1.0, "u_inner": 0.0,
        "u_outer": 1.0},
}
DELETE = object()


def entry_paths(node, path=()):
    """Key/index paths to every entry below the root of a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


@st.composite
def mutated(draw, base):
    path = draw(st.sampled_from(list(entry_paths(base))))
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    choices = [v for v in ("x", 0, [], {}, None)
               if type(v) is not type(old) or v != old]
    if isinstance(parent, dict):
        choices.append(DELETE)
    new = draw(st.sampled_from(choices))
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(new)
    return cfg


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
def test_base_config_of_fuzzing_passes_check(tmp_path, command):
    code, _ = run(tmp_path, command, FUZZ_BASES[command], "--check-only")
    assert code == 0


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_config_check_exits_0_or_2(tmp_path_factory, command, data):
    cfg = data.draw(mutated(FUZZ_BASES[command]))
    path = tmp_path_factory.mktemp("fuzz") / "run.json"
    path.write_text(json.dumps(cfg))
    out = path.parent / "out"
    code = cli.main([command, "--config", str(path), "--out", str(out),
                     "--check-only"])
    assert code in (0, 2)
    assert not out.exists()


# ----------------------------------------------------------- determinism

def test_rerun_is_byte_identical_except_sidecar(tmp_path):
    cfg = dict(PROBLEM, quad_order=3)
    a, out_a = run(tmp_path, "avg-power", cfg, out="a")
    b, out_b = run(tmp_path, "avg-power", cfg, out="b")
    assert a == b == 0
    assert_same_data_files(out_a, out_b)


def test_timestamp_only_in_sidecar(tmp_path):
    code, out = run(tmp_path, "solve", PROBLEM)
    assert code == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert "written_at" in meta
    assert meta["command"] == "solve"
    year = meta["written_at"][:4]
    for p in out.iterdir():
        if p.name == "run_meta.json":
            continue
        assert year not in p.read_text(), p.name


# ------------------------------------------------------- output formatting

def test_fmt_is_17_significant_digits():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert fmt(1 / 3) == "0.33333333333333331"
    assert fmt(True) == "1"
    assert fmt(False) == "0"
    assert fmt(7) == "7"
    assert fmt("label") == "label"


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(3)
    for v in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(fmt(float(v))) == v


def test_write_csv_newline_discipline(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [(1.5, True), (2.5, False)])
    raw = path.read_bytes()
    assert raw == b"a,b\n1.5,1\n2.5,0\n"


# ---------------------------------------------------------------- start-up

def test_cli_import_leaves_out_the_oracle_scipy_modules():
    # the run-time path needs numpy alone; scipy is the tests' oracle and
    # the banded Cholesky's fallback where numpy's LAPACK lacks dpbtrf
    code = ("import sys, condlab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_without_scipy_or_numpy_lapack_a_solve_exits_4_naming_the_remedy(
        tmp_path):
    # a numpy whose LAPACK exports no dpbtrf, and no scipy to fall back on:
    # the import and a config check still work, and the first
    # factorization ends the solve with one line that says what to install
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(VALID_CONFIGS["solve"]))
    runs = [["solve", "--config", str(path), "--check-only"],
            ["solve", "--config", str(path), "--out", str(tmp_path / "o")]]
    code = ("import ctypes, sys, types; import numpy; "
            "sys.modules['scipy'] = None; "
            "ctypes.CDLL = lambda *args, **kwargs: types.SimpleNamespace(); "
            "import condlab.cli; "
            f"print([condlab.cli.main(a) for a in {runs!r}])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == f"[0, {cli.EXIT_SOLVER}]"
    assert out.stderr.splitlines() == [
        "solver error: numpy's LAPACK exports no banded Cholesky (dpbtrf): "
        "install scipy"]


def test_serial_scan_loads_no_sparse_graph_or_process_pool(tmp_path):
    # the mesher, the band order, the connectivity checks, the banded
    # Cholesky and the annulus oracle run in numpy, so no subcommand loads
    # a scipy module; only a scan with more than one worker starts the
    # process pool
    runs = []
    for command, cfg in sorted(VALID_CONFIGS.items()):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        runs.append([command, "--config", str(path), "--out",
                     str(tmp_path / command), "--workers", "1"])
    code = ("import sys, condlab.cli; "
            f"assert [condlab.cli.main(a) for a in {runs!r}] == "
            f"[0] * {len(runs)}; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy' "
            "or m == 'concurrent.futures.process'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
