"""Batch front-end: every workflow as a subcommand with JSON configs.

Outputs are deterministic for a fixed config and seed; data files carry
no timestamps (those live in ``run_meta.json``).  Exit codes: 0 ok,
2 config or validation error, 3 property violation, 4 solver failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .constitutive import (ConstitutiveError, EJPowerLaw, Linear,
                           MaterialMap, PEC, PEI, PowerLaw, Tabulated)
from .dtn import average_dtn_power, dtn_pairing, gateaux_check
from .imaging import (build_cell_grid, make_cell_phantom, mask_metrics,
                      mpm_scan, synth_measurements)
from .mesh import (DiskInclusion, Mesh, MeshError, PolygonInclusion,
                   boundary_mass, build_annulus_mesh, build_disk_mesh,
                   build_rect_mesh, load_mesh, save_mesh, validate)
from .monotonicity import (avg_dtn_compare, energy_compare, ladder_suite,
                           pointwise_leq)
from .oracle import annulus_radial_solution
from .output import (write_csv, write_element_csv, write_json,
                     write_ladder_csv, write_mpm_json, write_mpm_svg,
                     write_node_csv, write_pair_csv, write_power_batch_csv,
                     write_power_json, write_sidecar, write_solver_log,
                     write_tri_svg)
from .solver import (BoundaryDatum, DatumTerm, SolveError, SolveOptions,
                     energy_density_map, make_datum, project_zero_mean,
                     solve)


def _slug(name: str) -> str:
    """File-name-safe form of a datum name."""
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_SOLVER = 4


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _check_keys(d: dict, allowed: set[str], where: str,
                required: set[str] = frozenset()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


# ------------------------------------------------------------ config->objects

def mesh_from_spec(spec: dict, base_dir: str) -> Mesh:
    _check_keys(spec, {"path", "kind", "radius", "center", "target_h",
                       "inclusions", "r_inner", "r_outer", "width",
                       "height", "layer_split", "layer_label"}, "mesh")
    if "path" in spec:
        return load_mesh(os.path.join(base_dir, spec["path"]))
    kind = spec.get("kind")
    if kind == "disk":
        _check_keys(spec, {"kind", "radius", "center", "target_h",
                           "inclusions"}, "mesh(disk)",
                    {"radius", "target_h"})
        incs = []
        for k, inc in enumerate(spec.get("inclusions", [])):
            shape = inc.get("shape", "disk")
            if shape == "disk":
                _check_keys(inc, {"shape", "center", "radius", "label"},
                            f"inclusion {k}", {"center", "radius", "label"})
                incs.append(DiskInclusion(tuple(inc["center"]),
                                          float(inc["radius"]),
                                          int(inc["label"])))
            elif shape == "polygon":
                _check_keys(inc, {"shape", "vertices", "label"},
                            f"inclusion {k}", {"vertices", "label"})
                incs.append(PolygonInclusion(
                    np.asarray(inc["vertices"], dtype=float),
                    int(inc["label"])))
            else:
                raise ConfigError(f"inclusion {k}: unknown shape {shape!r}")
        return build_disk_mesh(float(spec["radius"]), float(spec["target_h"]),
                               incs, tuple(spec.get("center", (0.0, 0.0))))
    if kind == "annulus":
        _check_keys(spec, {"kind", "r_inner", "r_outer", "target_h"},
                    "mesh(annulus)", {"r_inner", "r_outer", "target_h"})
        return build_annulus_mesh(float(spec["r_inner"]),
                                  float(spec["r_outer"]),
                                  float(spec["target_h"]))
    if kind == "rect":
        _check_keys(spec, {"kind", "width", "height", "target_h",
                           "layer_split", "layer_label"}, "mesh(rect)",
                    {"width", "height", "target_h"})
        return build_rect_mesh(float(spec["width"]), float(spec["height"]),
                               float(spec["target_h"]),
                               spec.get("layer_split"),
                               int(spec.get("layer_label", 1)))
    raise ConfigError(f"mesh needs 'path' or kind in disk/annulus/rect, "
                      f"got {kind!r}")


def _model_from_spec(spec: dict, where: str):
    _check_keys(spec, {"type", "sigma", "Jc", "E0", "n", "sigma_bar", "p",
                       "E", "J"}, where, {"type"})
    t = spec["type"]
    if t == "linear":
        _check_keys(spec, {"type", "sigma"}, where, {"sigma"})
        return Linear(float(spec["sigma"]))
    if t == "ej":
        _check_keys(spec, {"type", "Jc", "E0", "n"}, where,
                    {"Jc", "E0", "n"})
        return EJPowerLaw(float(spec["Jc"]), float(spec["E0"]),
                          float(spec["n"]))
    if t == "power":
        _check_keys(spec, {"type", "sigma_bar", "E0", "p"}, where,
                    {"sigma_bar", "E0", "p"})
        return PowerLaw(float(spec["sigma_bar"]), float(spec["E0"]),
                        float(spec["p"]))
    if t == "tabulated":
        _check_keys(spec, {"type", "E", "J"}, where, {"E", "J"})
        return Tabulated(np.asarray(spec["E"], dtype=float),
                         np.asarray(spec["J"], dtype=float))
    if t == "pec":
        _check_keys(spec, {"type"}, where)
        return PEC()
    if t == "pei":
        _check_keys(spec, {"type"}, where)
        return PEI()
    raise ConfigError(f"{where}: unknown material type {t!r}")


def materials_from_spec(spec: dict, where: str = "materials") -> MaterialMap:
    _check_keys(spec, {"regions"}, where, {"regions"})
    models = {}
    for key, sub in spec["regions"].items():
        try:
            label = int(key)
        except ValueError:
            raise ConfigError(f"{where}: region key {key!r} is not an "
                              f"integer label") from None
        models[label] = _model_from_spec(sub, f"{where}.regions[{key}]")
    try:
        return MaterialMap(models)
    except ConstitutiveError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def datum_from_spec(mesh: Mesh, spec: dict, bmass=None) -> BoundaryDatum:
    _check_keys(spec, {"name", "terms"}, "datum", {"name", "terms"})
    terms = []
    for k, t in enumerate(spec["terms"]):
        _check_keys(t, {"kind", "amplitude", "k", "expr"},
                    f"datum {spec['name']!r} term {k}",
                    {"kind", "amplitude"})
        terms.append(DatumTerm(t["kind"], float(t["amplitude"]),
                               int(t.get("k", 1)), t.get("expr")))
    try:
        return make_datum(mesh, terms, str(spec["name"]), bmass)
    except (SolveError, ValueError, SyntaxError, NameError,
            TypeError) as exc:
        # expr terms funnel eval failures through here
        raise ConfigError(f"datum {spec['name']!r}: {exc}") from None


def data_from_spec(mesh: Mesh, specs: list) -> list[BoundaryDatum]:
    if not specs:
        raise ConfigError("empty datum list")
    bm = boundary_mass(mesh)
    return [datum_from_spec(mesh, s, bm) for s in specs]


def solver_opts_from_spec(spec: dict | None, **overrides) -> SolveOptions:
    spec = dict(spec or {})
    _check_keys(spec, {"grad_rtol", "max_iter", "armijo_c", "backtrack",
                       "max_backtracks", "reg_schedule", "floor_factor",
                       "stall_window", "collect_log"}, "solver")
    if "reg_schedule" in spec:
        spec["reg_schedule"] = tuple(float(v) for v in spec["reg_schedule"])
    spec.update(overrides)
    return SolveOptions(**spec)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


# ------------------------------------------------------------------ commands

def cmd_mesh_gen(cfg: dict, args) -> int:
    # tolerate the other problem-config sections so the same file can
    # drive mesh-gen and the compute subcommands
    _check_keys(cfg, {"mesh", "save_as", "materials", "data", "solver",
                      "quad_order"}, "config", {"mesh"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    issues = validate(mesh)
    report = {"n_nodes": mesh.n_nodes, "n_triangles": mesh.n_triangles,
              "n_boundary_nodes": int(len(mesh.boundary_nodes)),
              "labels": [int(v) for v in np.unique(mesh.labels)],
              "issues": issues}
    print(json.dumps(report, indent=2, sort_keys=True))
    if issues:
        return EXIT_CONFIG
    if not args.check_only:
        name = cfg.get("save_as", "mesh.json")
        save_mesh(mesh, os.path.join(args.out, name))
        write_json(os.path.join(args.out, "mesh_report.json"), report)
    return EXIT_OK


def _load_problem(cfg: dict, args, extra_keys: set[str] = frozenset()):
    _check_keys(cfg, {"mesh", "materials", "data", "solver",
                      "quad_order"} | extra_keys, "config",
                {"mesh", "materials", "data"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    materials = materials_from_spec(cfg["materials"])
    materials.check_covers(mesh.labels)
    data = data_from_spec(mesh, cfg["data"])
    return mesh, materials, data


def cmd_solve(cfg: dict, args) -> int:
    mesh, materials, data = _load_problem(cfg, args)
    opts = solver_opts_from_spec(cfg.get("solver"), collect_log=True)
    infos = []
    for datum in data:
        fld = solve(mesh, materials, datum, opts)
        tag = _slug(datum.name)
        write_node_csv(os.path.join(args.out, f"u_{tag}.csv"), fld)
        write_element_csv(os.path.join(args.out, f"elements_{tag}.csv"),
                          materials, fld)
        write_solver_log(os.path.join(args.out, f"log_{tag}.jsonl"), fld)
        write_tri_svg(os.path.join(args.out, f"qdensity_{tag}.svg"), mesh,
                      energy_density_map(mesh, materials, fld))
        infos.append({"datum": datum.name, "converged": fld.info.converged,
                      "n_iter": fld.info.n_iter, "energy": fld.info.energy,
                      "grad_norm": fld.info.grad_norm,
                      "grad_tol": fld.info.grad_tol,
                      "pec_flux_balance": {str(k): v for k, v in
                                           fld.info.pec_flux_balance
                                           .items()}})
        print(f"[solve] {datum.name}: energy "
              f"{fld.info.energy:.10e} ({fld.info.n_iter} iterations)")
    write_json(os.path.join(args.out, "solve_report.json"),
               {"data": infos})
    return EXIT_OK


def cmd_power(cfg: dict, args) -> int:
    mesh, materials, data = _load_problem(cfg, args,
                                          extra_keys={"material_id"})
    mat_id = cfg.get("material_id", "m0")
    opts = solver_opts_from_spec(cfg.get("solver"))
    rows = []
    for datum in data:
        fld = solve(mesh, materials, datum, opts)
        p = dtn_pairing(mesh, materials, fld, datum)
        rows.append((datum.name, mat_id, p, float("nan"), fld.info.energy,
                     float("nan")))
        print(f"[power] {datum.name}: <L f, f> = {p:.10e}")
    write_csv(os.path.join(args.out, "power_batch.csv"),
              ["datum_id", "material_id", "power", "avg_power", "energy",
               "transfer_residual"], rows)
    return EXIT_OK


def cmd_avg_power(cfg: dict, args) -> int:
    mesh, materials, data = _load_problem(cfg, args,
                                          extra_keys={"material_id"})
    mat_id = cfg.get("material_id", "m0")
    order = args.quad_order or int(cfg.get("quad_order", 16))
    opts = solver_opts_from_spec(cfg.get("solver"))
    reports = []
    for datum in data:
        rep = average_dtn_power(mesh, materials, datum, order, opts)
        reports.append((datum.name, mat_id, rep))
        write_power_json(os.path.join(args.out,
                                      f"avg_power_{_slug(datum.name)}.json"),
                         rep)
        print(f"[avg-power] {datum.name}: <avgL f, f> = "
              f"{rep.avg_power:.10e} transfer residual "
              f"{rep.transfer_residual:.3e}")
    write_power_batch_csv(os.path.join(args.out, "power_batch.csv"),
                          reports)
    return EXIT_OK


def cmd_monotonicity_suite(cfg: dict, args) -> int:
    _check_keys(cfg, {"mesh", "data", "quad_order", "compare", "pairs",
                      "chain", "resolutions", "solver"}, "config",
                {"mesh", "data"})
    if "pairs" not in cfg and "chain" not in cfg:
        raise ConfigError("config needs 'pairs' and/or 'chain'")
    order = args.quad_order or int(cfg.get("quad_order", 8))
    compare = cfg.get("compare", "avg_power")
    if compare not in ("avg_power", "energy"):
        raise ConfigError(f"compare must be avg_power or energy, "
                          f"got {compare!r}")
    opts = solver_opts_from_spec(cfg.get("solver"))
    resolutions = cfg.get("resolutions")
    failures: list[str] = []

    mesh_specs: list[tuple[str, dict]] = []
    if resolutions:
        for h in resolutions:
            spec = dict(cfg["mesh"])
            spec["target_h"] = float(h)
            mesh_specs.append((f"_h{h:g}", spec))
    else:
        mesh_specs.append(("", cfg["mesh"]))

    for suffix, mesh_spec in mesh_specs:
        mesh = mesh_from_spec(mesh_spec, args.base_dir)
        data = data_from_spec(mesh, cfg["data"])

        for k, pair in enumerate(cfg.get("pairs", [])):
            _check_keys(pair, {"name_lo", "name_hi", "lo", "hi"},
                        f"pairs[{k}]", {"name_lo", "name_hi", "lo", "hi"})
            lo = materials_from_spec(pair["lo"], f"pairs[{k}].lo")
            hi = materials_from_spec(pair["hi"], f"pairs[{k}].hi")
            lo.check_covers(mesh.labels)
            hi.check_covers(mesh.labels)
            name = f"{pair['name_lo']}<={pair['name_hi']}"
            cert = pointwise_leq(lo, hi)
            if not cert.ok:
                failures.append(f"order certificate failed for pair {name} "
                                f"(label {cert.witness_label}, "
                                f"E {cert.witness_e})")
                continue
            if compare == "energy":
                rep = energy_compare(mesh, lo, hi, data, opts)
            else:
                rep = avg_dtn_compare(mesh, lo, hi, data, order, opts)
            write_pair_csv(os.path.join(args.out, f"pair_{k}{suffix}.csv"),
                           pair["name_lo"], pair["name_hi"], rep)
            for row in rep.violations:
                failures.append(f"pair {name}, datum {row.datum}: delta "
                                f"{row.delta:.3e} below "
                                f"-{row.tolerance:.1e}")
            print(f"[suite{suffix}] pair {name}: "
                  f"{'OK' if not rep.violations else 'VIOLATED'}")

        if "chain" in cfg:
            chain = []
            for k, link in enumerate(cfg["chain"]):
                _check_keys(link, {"name", "materials"}, f"chain[{k}]",
                            {"name", "materials"})
                mats = materials_from_spec(link["materials"],
                                           f"chain[{k}].materials")
                mats.check_covers(mesh.labels)
                chain.append((str(link["name"]), mats))
            ladder = ladder_suite(mesh, chain, data, order, opts)
            write_ladder_csv(os.path.join(args.out, f"ladder{suffix}.csv"),
                             ladder)
            for i, j, rep in ladder.pair_reports:
                name = f"{ladder.names[i]}<={ladder.names[j]}"
                if not rep.certificate.ok:
                    failures.append(f"order certificate failed for chain "
                                    f"pair {name}")
                for row in rep.violations:
                    failures.append(f"chain pair {name}, datum "
                                    f"{row.datum}: delta {row.delta:.3e}")
            print(f"[suite{suffix}] chain: {len(ladder.pair_reports)} "
                  f"pairs, {'OK' if ladder.ok else 'VIOLATED'}")

    if failures:
        for msg in failures:
            print(f"[suite] {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_gateaux_check(cfg: dict, args) -> int:
    _check_keys(cfg, {"mesh", "materials", "datum", "direction",
                      "eps_list", "solver"}, "config",
                {"mesh", "materials", "datum", "direction"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    materials = materials_from_spec(cfg["materials"])
    materials.check_covers(mesh.labels)
    bm = boundary_mass(mesh)
    f = datum_from_spec(mesh, cfg["datum"], bm)
    phi = datum_from_spec(mesh, cfg["direction"], bm)
    eps = [float(e) for e in cfg.get("eps_list", (1e-1, 1e-2, 1e-3, 1e-4))]
    opts = solver_opts_from_spec(cfg.get("solver"))
    rep = gateaux_check(mesh, materials, f, phi, eps, opts)
    write_csv(os.path.join(args.out, "gateaux.csv"),
              ["eps", "quotient", "pairing", "residual", "rel_residual"],
              ((r.eps, r.quotient, rep.pairing, r.residual,
                r.residual / rep.scale) for r in rep.rows))
    write_json(os.path.join(args.out, "gateaux.json"),
               {"pairing": rep.pairing, "scale": rep.scale,
                "final_residual": rep.final_residual,
                "rows": [{"eps": r.eps, "quotient": r.quotient,
                          "residual": r.residual} for r in rep.rows]})
    for r in rep.rows:
        print(f"[gateaux] eps {r.eps:.1e}: quotient {r.quotient:.10e} "
              f"residual {r.residual / rep.scale:.3e} (relative)")
    return EXIT_OK


def cmd_convergence_study(cfg: dict, args) -> int:
    _check_keys(cfg, {"p_values", "sigma_bar", "E0", "r_inner", "r_outer",
                      "u_inner", "u_outer", "target_h", "solver"},
                "config", {"p_values", "target_h"})
    sigma_bar = float(cfg.get("sigma_bar", 1.0))
    e0 = float(cfg.get("E0", 1.0))
    r_in = float(cfg.get("r_inner", 0.5))
    r_out = float(cfg.get("r_outer", 1.0))
    u_in = float(cfg.get("u_inner", 0.0))
    u_out = float(cfg.get("u_outer", 1.0))
    hs = [float(h) for h in cfg["target_h"]]
    opts = solver_opts_from_spec(cfg.get("solver"))
    rows = []
    worst_order = np.inf
    for p in cfg["p_values"]:
        p = float(p)
        exact = annulus_radial_solution(p, sigma_bar, e0, r_in, r_out,
                                        u_in, u_out)
        errs = []
        for h in hs:
            mesh = build_annulus_mesh(r_in, r_out, h)
            bm = boundary_mass(mesh)
            r = np.linalg.norm(mesh.nodes[bm.node_ids], axis=1)
            raw = np.where(r < 0.5 * (r_in + r_out), u_in, u_out)
            values, _ = project_zero_mean(raw, bm)
            datum = BoundaryDatum(f"p{p:g}-h{h:g}", bm.node_ids, values)
            mats = MaterialMap({0: PowerLaw(sigma_bar, e0, p)})
            fld = solve(mesh, mats, datum, opts)
            err = abs(fld.info.energy - exact.energy) / abs(exact.energy)
            errs.append(err)
            rows.append((p, h, mesh.n_nodes, fld.info.energy, exact.energy,
                         err))
            print(f"[convergence] p={p:g} h={h:g}: rel energy error "
                  f"{err:.3e}")
        if len(errs) >= 2:
            fit = np.polyfit(np.log(hs), np.log(errs), 1)
            worst_order = min(worst_order, fit[0])
            print(f"[convergence] p={p:g}: observed order {fit[0]:.2f}")
    write_csv(os.path.join(args.out, "convergence.csv"),
              ["p", "target_h", "n_nodes", "energy_fem", "energy_exact",
               "rel_error"], rows)
    return EXIT_OK


def cmd_mpm_image(cfg: dict, args) -> int:
    _check_keys(cfg, {"mesh", "background", "truth", "grid", "data",
                      "contrast", "noise_rel", "seed", "quad_order",
                      "tol", "solver"}, "config",
                {"mesh", "background", "truth", "grid", "data"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    background = materials_from_spec(cfg["background"], "background")
    background.check_covers(mesh.labels)
    _check_keys(cfg["grid"], {"nx", "ny"}, "grid", {"nx", "ny"})
    grid = build_cell_grid(mesh, int(cfg["grid"]["nx"]),
                           int(cfg["grid"]["ny"]))
    data = data_from_spec(mesh, cfg["data"])
    contrast = cfg.get("contrast", "pei")
    order = args.quad_order or int(cfg.get("quad_order", 8))
    noise_rel = float(cfg.get("noise_rel", 0.0))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    opts = solver_opts_from_spec(cfg.get("solver"))

    truth = cfg["truth"]
    _check_keys(truth, {"cells", "model", "materials"}, "truth")
    truth_cells: list[int] = []
    if "materials" in truth:
        true_mats = materials_from_spec(truth["materials"],
                                        "truth.materials")
        true_mats.check_covers(mesh.labels)
        true_mesh = mesh
    elif "cells" in truth:
        truth_cells = [int(c) for c in truth["cells"]]
        model = _model_from_spec(truth.get("model", {"type": contrast}),
                                 "truth.model")
        true_mesh, true_mats = make_cell_phantom(mesh, grid, truth_cells,
                                                 background, model)
    else:
        raise ConfigError("truth needs 'materials' or 'cells'")

    meas = synth_measurements(true_mesh, true_mats, data, order, noise_rel,
                              seed, opts)
    workers = args.workers or (os.cpu_count() or 1)
    tol = float(cfg["tol"]) if "tol" in cfg else None
    result = mpm_scan(mesh, background, grid, data, meas, contrast, order,
                      tol, opts, workers)
    write_mpm_json(os.path.join(args.out, "mpm_result.json"), result)
    write_mpm_svg(os.path.join(args.out, "mpm_heatmap.svg"), mesh, result)
    write_csv(os.path.join(args.out, "mpm_cells.csv"),
              ["cell_id", "ix", "iy", "score", "flagged"],
              ((c.id, c.ix, c.iy, result.scores[c.id],
                bool(result.mask[c.id])) for c in grid.cells))
    print(f"[mpm] {grid.n_cells} cells scanned, "
          f"{int(result.mask.sum())} flagged (tol {result.tol:.3e})")
    if truth_cells:
        metrics = mask_metrics(result, truth_cells)
        write_json(os.path.join(args.out, "mpm_metrics.json"),
                   {"n_truth": metrics.n_truth,
                    "n_flagged": metrics.n_flagged,
                    "n_hit": metrics.n_hit, "n_excess": metrics.n_excess,
                    "contained": metrics.contained,
                    "jaccard": metrics.jaccard})
        print(f"[mpm] containment: {metrics.contained} "
              f"(jaccard {metrics.jaccard:.3f})")
    return EXIT_OK


def cmd_reproduce_wire(cfg: dict, args) -> int:
    _check_keys(cfg, {"healthy", "damaged", "data", "quad_order",
                      "solver"}, "config", {"healthy", "damaged", "data"})
    _check_keys(cfg["healthy"], {"mesh", "materials"}, "healthy",
                {"mesh", "materials"})
    healthy_mesh = mesh_from_spec(cfg["healthy"]["mesh"], args.base_dir)
    healthy_mats = materials_from_spec(cfg["healthy"]["materials"],
                                       "healthy.materials")
    healthy_mats.check_covers(healthy_mesh.labels)
    order = args.quad_order or int(cfg.get("quad_order", 16))
    opts = solver_opts_from_spec(cfg.get("solver"))

    healthy_powers: dict[str, float] = {}
    failures = []
    data = data_from_spec(healthy_mesh, cfg["data"])
    for datum in data:
        rep = average_dtn_power(healthy_mesh, healthy_mats, datum, order,
                                opts)
        healthy_powers[datum.name] = rep.avg_power

    for k, case in enumerate(cfg["damaged"]):
        _check_keys(case, {"name", "mesh", "materials"}, f"damaged[{k}]",
                    {"name", "materials"})
        name = str(case["name"])
        dmesh = (mesh_from_spec(case["mesh"], args.base_dir)
                 if "mesh" in case else healthy_mesh)
        dmats = materials_from_spec(case["materials"],
                                    f"damaged[{k}].materials")
        dmats.check_covers(dmesh.labels)
        ddata = (data if dmesh is healthy_mesh
                 else data_from_spec(dmesh, cfg["data"]))
        rows = []
        for datum in ddata:
            rep = average_dtn_power(dmesh, dmats, datum, order, opts)
            e0 = healthy_powers[datum.name]
            e1 = rep.avg_power
            diff = e0 - e1
            rows.append((datum.name, e0, e1, diff))
            ratio = diff / e0 if e0 else float("nan")
            print(f"[wire:{name}] {datum.name}: E0 {e0:.6e} E1 {e1:.6e} "
                  f"diff {diff:.6e} (ratio {ratio:.3e})")
            if diff <= 0:
                failures.append(f"{name}/{datum.name}: difference "
                                f"{diff:.3e} not positive")
        write_csv(os.path.join(args.out, f"table_{_slug(name)}.csv"),
                  ["f", "E0", "E1", "difference"], rows)

    if failures:
        for msg in failures:
            print(f"[wire] {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------- entry point

_COMMANDS = {
    "mesh-gen": cmd_mesh_gen,
    "solve": cmd_solve,
    "power": cmd_power,
    "avg-power": cmd_avg_power,
    "monotonicity-suite": cmd_monotonicity_suite,
    "gateaux-check": cmd_gateaux_check,
    "convergence-study": cmd_convergence_study,
    "mpm-image": cmd_mpm_image,
    "reproduce-wire": cmd_reproduce_wire,
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        prog="condlab",
        description="Forward solves, averaged boundary powers, "
                    "monotonicity suites and inclusion scans for "
                    "piecewise nonlinear conductors.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=0,
                       help="parallel workers (0 = all cores)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quad-order", type=int, default=0,
                       dest="quad_order",
                       help="override the config quadrature order")
        p.add_argument("--check-only", action="store_true",
                       help="validate config only, write nothing")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cfg = load_config(args.config)
        args.base_dir = os.path.dirname(os.path.abspath(args.config))
        if args.check_only and args.command != "mesh-gen":
            # every handler validates eagerly; dry-run by building inputs
            _validate_only(cfg, args)
            print("[check] config ok")
            return EXIT_OK
        os.makedirs(args.out, exist_ok=True)
        code = _COMMANDS[args.command](cfg, args)
        if not args.check_only:
            write_sidecar(os.path.join(args.out, "run_meta.json"),
                          command=args.command,
                          config=os.path.abspath(args.config),
                          seed=args.seed, version=__version__)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshError, ConstitutiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _validate_only(cfg: dict, args) -> None:
    """Build every object the command would use, without solving."""
    command = args.command
    if command in ("solve", "power", "avg-power"):
        extra = set() if command == "solve" else {"material_id"}
        _load_problem(cfg, args, extra)
    elif command == "monotonicity-suite":
        _check_keys(cfg, {"mesh", "data", "quad_order", "compare", "pairs",
                          "chain", "resolutions", "solver"}, "config",
                    {"mesh", "data"})
        mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
        data_from_spec(mesh, cfg["data"])
        for k, pair in enumerate(cfg.get("pairs", [])):
            _check_keys(pair, {"name_lo", "name_hi", "lo", "hi"},
                        f"pairs[{k}]", {"name_lo", "name_hi", "lo", "hi"})
            materials_from_spec(pair["lo"], f"pairs[{k}].lo")
            materials_from_spec(pair["hi"], f"pairs[{k}].hi")
        for k, link in enumerate(cfg.get("chain", [])):
            _check_keys(link, {"name", "materials"}, f"chain[{k}]",
                        {"name", "materials"})
            materials_from_spec(link["materials"], f"chain[{k}].materials")
    elif command == "gateaux-check":
        _check_keys(cfg, {"mesh", "materials", "datum", "direction",
                          "eps_list", "solver"}, "config",
                    {"mesh", "materials", "datum", "direction"})
        mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
        materials_from_spec(cfg["materials"])
        bm = boundary_mass(mesh)
        datum_from_spec(mesh, cfg["datum"], bm)
        datum_from_spec(mesh, cfg["direction"], bm)
    elif command == "convergence-study":
        _check_keys(cfg, {"p_values", "sigma_bar", "E0", "r_inner",
                          "r_outer", "u_inner", "u_outer", "target_h",
                          "solver"}, "config", {"p_values", "target_h"})
    elif command == "mpm-image":
        _check_keys(cfg, {"mesh", "background", "truth", "grid", "data",
                          "contrast", "noise_rel", "seed", "quad_order",
                          "tol", "solver"}, "config",
                    {"mesh", "background", "truth", "grid", "data"})
        mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
        materials_from_spec(cfg["background"], "background")
        data_from_spec(mesh, cfg["data"])
    elif command == "reproduce-wire":
        _check_keys(cfg, {"healthy", "damaged", "data", "quad_order",
                          "solver"}, "config",
                    {"healthy", "damaged", "data"})
        mesh = mesh_from_spec(cfg["healthy"]["mesh"], args.base_dir)
        materials_from_spec(cfg["healthy"]["materials"],
                            "healthy.materials")
        data_from_spec(mesh, cfg["data"])
    solver_opts_from_spec(cfg.get("solver"))


if __name__ == "__main__":
    sys.exit(main())
