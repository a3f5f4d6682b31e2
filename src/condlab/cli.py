"""Batch front-end: every workflow as a subcommand with JSON configs.

A command first reads its whole config: every key is checked and every
mesh, material map, datum and cell grid is built, but nothing is solved.
``--check-only`` stops after that read and writes nothing, not even the
output directory, so a bad config fails the same way with and without it.

Importing this module loads only what reading a config needs: the mesh,
constitutive and solver layers.  Each command's builder imports the
layers its run uses (``dtn``, ``imaging``, ``monotonicity``, ``oracle``
and ``output``), so a run loads no layer it does not run.

Outputs are deterministic for a fixed config and seed; data files carry
no timestamps (those live in ``run_meta.json``).  ``--log-level`` sends
the ``condlab`` loggers to stderr at that level; without it nothing is
logged.  Exit codes: 0 ok, 2 config or validation error, 3 property
violation, 4 solver failure.
"""
from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import asdict
from typing import Callable

import numpy as np

from . import __version__
from .constitutive import (ConstitutiveError, EJPowerLaw, Linear,
                           MaterialMap, PEC, PEI, PowerLaw)
from .mesh import (DiskInclusion, Mesh, MeshError, boundary_mass,
                   build_annulus_mesh, build_disk_mesh, build_rect_mesh,
                   distinct, load_mesh, save_mesh)
from .solver import (BoundaryDatum, DatumTerm, Problem, SolveError,
                     element_fields, make_datum, project_zero_mean, solve)


def _slug(name: str) -> str:
    """File-name-safe form of a datum name."""
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_SOLVER = 4


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _object(d: dict, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return d


def _list(value, where: str) -> list:
    """A list config value; an object, a string or a number is refused
    here, by its key, rather than iterated."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, got {value!r}")
    return value


def _int(value, where: str) -> int:
    """An integer config value; bools, strings and non-integral numbers
    are refused rather than truncated or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _label(value, where: str) -> int:
    """A region label: an ``_int`` in the int64 range that a mesh stores
    its labels in, as a mesh file's labels are read."""
    label = _int(value, where)
    if not -2**63 <= label < 2**63:
        raise ConfigError(f"{where} must be an integer in the int64 range, "
                          f"got {label}")
    return label


def _float(value, where: str) -> float:
    """A finite real config value.  Bools, strings, NaN and infinities are
    refused, not coerced, by a ValueError: the read reports it as a bad
    config value (exit 2)."""
    # NaN compares false, so this refuses it along with the infinities
    # and integers beyond the float range
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{where} must be a finite number, got {value!r}")


def _point(value, where: str) -> tuple[float, float]:
    """A point [x, y] whose coordinates ``_float`` reads."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{where} must be a pair [x, y], got {value!r}")
    return _float(value[0], f"{where} x"), _float(value[1], f"{where} y")


def _unique(names, what: str, key: Callable = str) -> None:
    """Refuse two ``names`` that are equal or share ``key``, the name of
    the file or row each one writes."""
    seen: dict = {}
    for name in names:
        k = key(name)
        if k in seen:
            if seen[k] == name:
                raise ConfigError(f"repeated {what} {name!r}")
            raise ConfigError(f"{what}s {seen[k]!r} and {name!r} collide "
                              f"in file names as {k!r}")
        seen[k] = name


def _check_keys(d: dict, where: str, required: set[str] = frozenset(),
                optional: set[str] = frozenset()) -> None:
    unknown = set(_object(d, where)) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


# ------------------------------------------------------------ config->objects

def mesh_from_spec(spec: dict, base_dir: str) -> Mesh:
    kind = _object(spec, "mesh").get("kind")
    if "path" in spec:
        _check_keys(spec, "mesh", {"path"})
        try:
            return load_mesh(os.path.join(base_dir, spec["path"]))
        except OSError as exc:
            raise ConfigError(f"mesh file: {exc}") from None
    if kind == "disk":
        _check_keys(spec, "mesh(disk)", {"radius", "target_h"},
                    {"kind", "center", "inclusions"})
        incs = []
        for k, inc in enumerate(_list(spec.get("inclusions", []),
                                      "mesh inclusions")):
            shape = _object(inc, f"inclusion {k}").get("shape", "disk")
            if shape != "disk":
                raise ConfigError(f"inclusion {k}: unknown shape {shape!r}")
            _check_keys(inc, f"inclusion {k}", {"center", "radius", "label"},
                        {"shape"})
            incs.append(DiskInclusion(_point(inc["center"],
                                             f"inclusion {k} center"),
                                      _float(inc["radius"],
                                             f"inclusion {k} radius"),
                                      _label(inc["label"],
                                             f"inclusion {k} label")))
        return build_disk_mesh(_float(spec["radius"], "mesh radius"),
                               _float(spec["target_h"], "mesh target_h"),
                               incs, _point(spec.get("center", (0.0, 0.0)),
                                            "mesh center"))
    if kind == "annulus":
        _check_keys(spec, "mesh(annulus)",
                    {"r_inner", "r_outer", "target_h"}, {"kind"})
        return build_annulus_mesh(_float(spec["r_inner"], "mesh r_inner"),
                                  _float(spec["r_outer"], "mesh r_outer"),
                                  _float(spec["target_h"], "mesh target_h"))
    if kind == "rect":
        _check_keys(spec, "mesh(rect)", {"width", "height", "target_h"},
                    {"kind", "layer_split", "layer_label"})
        return build_rect_mesh(_float(spec["width"], "mesh width"),
                               _float(spec["height"], "mesh height"),
                               _float(spec["target_h"], "mesh target_h"),
                               spec.get("layer_split"),
                               _label(spec.get("layer_label", 1),
                                      "mesh layer_label"))
    raise ConfigError(f"mesh needs 'path' or kind in disk/annulus/rect, "
                      f"got {kind!r}")


def _model_from_spec(spec: dict, where: str):
    t = _object(spec, where).get("type")
    if t == "linear":
        _check_keys(spec, where, {"type", "sigma"})
        return Linear(_float(spec["sigma"], f"{where} sigma"))
    if t == "ej":
        _check_keys(spec, where, {"type", "Jc", "E0", "n"})
        return EJPowerLaw(_float(spec["Jc"], f"{where} Jc"),
                          _float(spec["E0"], f"{where} E0"),
                          _float(spec["n"], f"{where} n"))
    if t == "power":
        _check_keys(spec, where, {"type", "sigma_bar", "E0", "p"})
        return PowerLaw(_float(spec["sigma_bar"], f"{where} sigma_bar"),
                        _float(spec["E0"], f"{where} E0"),
                        _float(spec["p"], f"{where} p"))
    if t in ("pec", "pei"):
        _check_keys(spec, where, {"type"})
        return PEC() if t == "pec" else PEI()
    raise ConfigError(f"{where}: unknown material type {t!r}")


def materials_from_spec(spec: dict, where: str = "materials") -> MaterialMap:
    _check_keys(spec, where, {"regions"})
    models = {}
    for key, sub in _object(spec["regions"], f"{where}.regions").items():
        try:
            label = int(key)
        except ValueError:
            label = None
        # one spelling per label, so two keys never name the same region
        if label is None or key != str(label):
            raise ConfigError(f"{where}: region key {key!r} is not a plain "
                              f"decimal label")
        models[label] = _model_from_spec(sub, f"{where}.regions[{key}]")
    try:
        return MaterialMap(models)
    except ConstitutiveError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def datum_from_spec(mesh: Mesh, spec: dict, bmass=None) -> BoundaryDatum:
    _check_keys(spec, "datum", {"name", "terms"})
    terms = []
    for k, t in enumerate(_list(spec["terms"],
                                f"datum {spec['name']!r} terms")):
        where = f"datum {spec['name']!r} term {k}"
        _check_keys(t, where, {"kind", "amplitude"}, {"k", "expr"})
        terms.append(DatumTerm(t["kind"],
                               _float(t["amplitude"], f"{where} amplitude"),
                               _int(t.get("k", 1), f"{where} k"),
                               t.get("expr")))
    try:
        return make_datum(mesh, terms, str(spec["name"]), bmass)
    except (SolveError, ValueError, SyntaxError, NameError,
            TypeError) as exc:
        # expr terms funnel eval failures through here
        raise ConfigError(f"datum {spec['name']!r}: {exc}") from None


def data_from_spec(mesh: Mesh, specs: list) -> list[BoundaryDatum]:
    if not _list(specs, "data"):
        raise ConfigError("empty datum list")
    bm = boundary_mass(mesh)
    data = [datum_from_spec(mesh, s, bm) for s in specs]
    _unique([d.name for d in data], "datum name", _slug)
    return data


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


# ------------------------------------------------------------------ commands
# Each command imports the layers its work runs, reads its whole config
# and returns that work as a zero-argument ``run`` closure that returns
# the exit code.

# The Gauss-Legendre rule of order n builds an n x n companion matrix, so
# the largest order takes 8 MB; perfbench and the shipped configs run 8 or
# less.
MAX_QUAD_ORDER = 1000


def _quad_order(cfg: dict) -> int:
    order = _int(cfg.get("quad_order", 16), "quad_order")
    # checked here, not by computing the rule: that imports numpy.polynomial
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be <= {MAX_QUAD_ORDER}, "
                         f"got {order}")
    return order


def _material_id(cfg: dict) -> str:
    """The ``material_id`` key that labels each power_batch.csv row."""
    mat_id = cfg.get("material_id", "m0")
    if not isinstance(mat_id, str):
        raise ConfigError(f"material_id must be a string, got {mat_id!r}")
    return mat_id


def cmd_mesh_gen(cfg: dict, args) -> Callable[[], int]:
    from .output import write_json
    # accept the other problem-config sections so the same file can drive
    # mesh-gen and the compute subcommands, and read each one present the
    # way those commands do, so a config passes here only if it would pass
    # there
    _check_keys(cfg, "config", {"mesh"}, {"save_as", "materials", "data",
                                          "quad_order"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    name = cfg.get("save_as", "mesh.json")
    if not isinstance(name, str):
        raise ConfigError(f"save_as must be a file name, got {name!r}")
    # a file directly in --out: no directory part, no "." or ".."
    if name in ("", ".", "..") or os.path.basename(name) != name \
            or "\0" in name:
        raise ConfigError(f"save_as must be a bare file name, got {name!r}")
    if name in ("mesh_report.json", "run_meta.json"):
        raise ConfigError(f"save_as {name!r} names a file mesh-gen writes "
                          f"itself")
    if "materials" in cfg:
        materials_from_spec(cfg["materials"]).check_covers(mesh.labels)
    if "data" in cfg:
        data_from_spec(mesh, cfg["data"])
    _quad_order(cfg)  # checked, though mesh-gen runs no quadrature
    # every mesh passed validate where it was made
    report = {"n_nodes": mesh.n_nodes, "n_triangles": mesh.n_triangles,
              "n_boundary_nodes": int(len(mesh.boundary_nodes)),
              "labels": distinct(mesh.labels).tolist()}
    print(json.dumps(report, indent=2, sort_keys=True))

    def run() -> int:
        save_mesh(mesh, os.path.join(args.out, name))
        write_json(os.path.join(args.out, "mesh_report.json"), report)
        return EXIT_OK
    return run


def _load_problem(cfg: dict, args, extra_keys: set[str] = frozenset()):
    _check_keys(cfg, "config", {"mesh", "materials", "data"},
                {"quad_order"} | extra_keys)
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    materials = materials_from_spec(cfg["materials"])
    materials.check_covers(mesh.labels)
    data = data_from_spec(mesh, cfg["data"])
    return mesh, materials, data, _quad_order(cfg)


def cmd_solve(cfg: dict, args) -> Callable[[], int]:
    from .output import (write_element_csv, write_json, write_node_csv,
                         write_solver_log, write_tri_svg)
    mesh, materials, data, _ = _load_problem(cfg, args)

    def run() -> int:
        problem = Problem(mesh, materials)
        infos = []
        for datum in data:
            fld = solve(mesh, materials, datum, problem=problem)
            tag = _slug(datum.name)
            write_node_csv(os.path.join(args.out, f"u_{tag}.csv"), fld)
            e, j, q = element_fields(fld)
            write_element_csv(os.path.join(args.out, f"elements_{tag}.csv"),
                              mesh, e, j, q)
            write_solver_log(os.path.join(args.out, f"log_{tag}.jsonl"),
                             fld)
            write_tri_svg(os.path.join(args.out, f"qdensity_{tag}.svg"),
                          mesh, q)
            # the record but its per-step log, which log_<datum>.jsonl holds
            info = fld.info
            report = {k: v for k, v in vars(info).items() if k != "log"}
            report["pec_flux_balance"] = {
                str(k): v for k, v in info.pec_flux_balance.items()}
            infos.append({"datum": datum.name, "converged": True, **report})
            print(f"[solve] {datum.name}: energy "
                  f"{info.energy:.10e} ({info.n_iter} iterations)")
        write_json(os.path.join(args.out, "solve_report.json"),
                   {"data": infos})
        return EXIT_OK
    return run


def cmd_avg_power(cfg: dict, args) -> Callable[[], int]:
    from .dtn import average_dtn_power
    from .output import write_power_batch_csv, write_power_json
    mesh, materials, data, order = _load_problem(cfg, args, {"material_id"})
    mat_id = _material_id(cfg)

    def run() -> int:
        problem = Problem(mesh, materials)
        rows = []
        for datum in data:
            rep = average_dtn_power(problem, datum, order)
            rows.append((datum.name, mat_id, rep.power, rep.avg_power,
                         rep.energy, rep.transfer_residual))
            write_power_json(os.path.join(
                args.out, f"avg_power_{_slug(datum.name)}.json"), rep)
            print(f"[avg-power] {datum.name}: <avgL f, f> = "
                  f"{rep.avg_power:.10e} transfer residual "
                  f"{rep.transfer_residual:.3e}")
        write_power_batch_csv(os.path.join(args.out, "power_batch.csv"),
                              rows)
        return EXIT_OK
    return run


def cmd_monotonicity_suite(cfg: dict, args) -> Callable[[], int]:
    """Each ``pairs`` entry k is a two-link chain written to
    ``pair_k.csv``, and ``chain``, if present, one more chain written to
    ``ladder.csv`` (a suffix ``_h<h>`` per resolution); every file has
    the ``write_ladder_csv`` layout."""
    from .monotonicity import ladder_suite
    from .output import write_ladder_csv
    _check_keys(cfg, "config", {"mesh", "data"},
                {"quad_order", "pairs", "chain", "resolutions"})
    if "pairs" not in cfg and "chain" not in cfg:
        raise ConfigError("config needs 'pairs' and/or 'chain'")
    pairs = _list(cfg.get("pairs", []), "pairs")
    if "pairs" in cfg and not pairs:
        raise ConfigError("empty pairs list")  # nothing would be compared
    _quad_order(cfg)  # checked, though no alpha quadrature runs here

    # (file stem, name of one comparison in messages, stdout heading, links)
    chains = []
    for k, pair in enumerate(pairs):
        _check_keys(pair, f"pairs[{k}]", {"name_lo", "name_hi", "lo", "hi"})
        links = [(pair[f"name_{s}"],
                  materials_from_spec(pair[s], f"pairs[{k}].{s}"))
                 for s in ("lo", "hi")]
        chains.append((f"pair_{k}", "pair",
                       f"pair {links[0][0]}<={links[1][0]}: ", links))
    if "chain" in cfg:
        links = []
        for k, link in enumerate(_list(cfg["chain"], "chain")):
            _check_keys(link, f"chain[{k}]", {"name", "materials"})
            links.append((str(link["name"]),
                          materials_from_spec(link["materials"],
                                              f"chain[{k}].materials")))
        _unique([name for name, _ in links], "chain link name")
        n = len(links)
        if n < 2:  # a chain of one link has no pair to compare
            raise ConfigError(f"chain needs at least 2 links, got {n}")
        chains.append(("ladder", "chain pair",
                       f"chain: {n * (n - 1) // 2} pairs, ", links))

    resolutions = [_float(h, "resolutions entry")
                   for h in _list(cfg.get("resolutions", []), "resolutions")]
    mesh_specs = ([(f"_h{h:g}", dict(cfg["mesh"], target_h=h))
                   for h in resolutions] if resolutions
                  else [("", cfg["mesh"])])
    _unique(resolutions, "resolution", lambda h: f"_h{h:g}")
    meshes = []
    for suffix, mesh_spec in mesh_specs:
        mesh = mesh_from_spec(mesh_spec, args.base_dir)
        for *_, links in chains:
            for _, mats in links:
                mats.check_covers(mesh.labels)
        meshes.append((suffix, mesh, data_from_spec(mesh, cfg["data"])))

    def run() -> int:
        failures: list[str] = []
        for suffix, mesh, data in meshes:
            for stem, kind, heading, links in chains:
                ladder = ladder_suite(mesh, links, data)
                write_ladder_csv(os.path.join(args.out,
                                              f"{stem}{suffix}.csv"), ladder)
                for i, j, rep in ladder.pair_reports:
                    name = f"{kind} {ladder.names[i]}<={ladder.names[j]}"
                    cert = rep.certificate
                    if not cert.ok:
                        failures.append(
                            f"order certificate failed for {name} (label "
                            f"{cert.witness_label}, E {cert.witness_e})")
                    for row in rep.violations:
                        failures.append(f"{name}, datum {row.datum}: delta "
                                        f"{row.delta:.3e} below "
                                        f"-{row.tolerance:.1e}")
                print(f"[suite{suffix}] {heading}"
                      f"{'OK' if ladder.ok else 'VIOLATED'}")

        if failures:
            for msg in failures:
                print(f"[suite] {msg}", file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    return run


def cmd_gateaux_check(cfg: dict, args) -> Callable[[], int]:
    from .dtn import gateaux_check
    from .output import write_csv, write_json
    _check_keys(cfg, "config", {"mesh", "materials", "datum", "direction"},
                {"eps_list"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    materials = materials_from_spec(cfg["materials"])
    materials.check_covers(mesh.labels)
    bm = boundary_mass(mesh)
    f = datum_from_spec(mesh, cfg["datum"], bm)
    phi = datum_from_spec(mesh, cfg["direction"], bm)
    eps = [_float(e, "eps_list entry")
           for e in _list(cfg.get("eps_list", [1e-1, 1e-2, 1e-3, 1e-4]),
                          "eps_list")]
    if not eps or not all(e > 0.0 for e in eps):
        raise ConfigError(f"eps_list must be a non-empty list of finite "
                          f"steps > 0, got {eps!r}")

    def run() -> int:
        rep = gateaux_check(mesh, materials, f, phi, eps)
        write_csv(os.path.join(args.out, "gateaux.csv"),
                  ["eps", "quotient", "pairing", "residual",
                   "rel_residual"],
                  ((r.eps, r.quotient, rep.pairing, r.residual,
                    r.residual / rep.scale) for r in rep.rows))
        write_json(os.path.join(args.out, "gateaux.json"),
                   {"pairing": rep.pairing, "scale": rep.scale,
                    "final_residual": rep.final_residual,
                    "rows": [{"eps": r.eps, "quotient": r.quotient,
                              "residual": r.residual} for r in rep.rows]})
        for r in rep.rows:
            print(f"[gateaux] eps {r.eps:.1e}: quotient "
                  f"{r.quotient:.10e} residual "
                  f"{r.residual / rep.scale:.3e} (relative)")
        return EXIT_OK
    return run


def cmd_convergence_study(cfg: dict, args) -> Callable[[], int]:
    from .oracle import OracleError, annulus_radial_solution
    from .output import write_csv
    _check_keys(cfg, "config", {"p_values", "target_h"},
                {"sigma_bar", "E0", "r_inner", "r_outer", "u_inner",
                 "u_outer"})
    sigma_bar = _float(cfg.get("sigma_bar", 1.0), "sigma_bar")
    e0 = _float(cfg.get("E0", 1.0), "E0")
    r_in = _float(cfg.get("r_inner", 0.5), "r_inner")
    r_out = _float(cfg.get("r_outer", 1.0), "r_outer")
    u_in = _float(cfg.get("u_inner", 0.0), "u_inner")
    u_out = _float(cfg.get("u_outer", 1.0), "u_outer")
    if u_in == u_out:
        # the exact energy is 0, so no relative error is defined
        raise ConfigError(f"u_inner and u_outer must differ, both are "
                          f"{u_in!r}")
    for key in ("p_values", "target_h"):
        if not _list(cfg[key], key):
            # no law or no mesh to study: the table would be its header
            raise ConfigError(f"empty {key} list")
    hs = [_float(h, "target_h entry") for h in cfg["target_h"]]
    ps = [_float(p, "p_values entry") for p in cfg["p_values"]]
    # a repeat writes its rows twice and fits the order over one abscissa
    _unique(hs, "target_h value")
    _unique(ps, "p value")
    laws = []
    for p in ps:
        # the law checks its parameters before the oracle evaluates it
        mats = MaterialMap({0: PowerLaw(sigma_bar, e0, p)})
        try:
            exact = annulus_radial_solution(p, sigma_bar, e0, r_in, r_out,
                                            u_in, u_out)
        except OracleError as exc:
            raise ConfigError(str(exc)) from None
        laws.append((p, exact, mats))
    meshes = []
    for h in hs:
        mesh = build_annulus_mesh(r_in, r_out, h)
        bm = boundary_mass(mesh)
        r = np.linalg.norm(mesh.nodes[bm.node_ids], axis=1)
        raw = np.where(r < 0.5 * (r_in + r_out), u_in, u_out)
        meshes.append((h, mesh, bm.node_ids, project_zero_mean(raw, bm)[0]))

    def run() -> int:
        rows = []
        for p, exact, mats in laws:
            errs = []
            for h, mesh, node_ids, values in meshes:
                datum = BoundaryDatum(f"p{p:g}-h{h:g}", node_ids, values)
                energy = solve(mesh, mats, datum).info.energy
                err = abs(energy - exact.energy) / abs(exact.energy)
                errs.append(err)
                rows.append((p, h, mesh.n_nodes, energy, exact.energy, err))
                print(f"[convergence] p={p:g} h={h:g}: rel energy error "
                      f"{err:.3e}")
            if len(errs) >= 2:
                fit = np.polyfit(np.log(hs), np.log(errs), 1)
                print(f"[convergence] p={p:g}: observed order {fit[0]:.2f}")
        write_csv(os.path.join(args.out, "convergence.csv"),
                  ["p", "target_h", "n_nodes", "energy_fem", "energy_exact",
                   "rel_error"], rows)
        return EXIT_OK
    return run


def cmd_mpm_image(cfg: dict, args) -> Callable[[], int]:
    from .imaging import (build_cell_grid, contrast_model, make_cell_phantom,
                          mask_metrics, mpm_scan, synth_measurements)
    from .output import write_csv, write_json, write_mpm_json, write_mpm_svg
    _check_keys(cfg, "config", {"mesh", "background", "truth", "grid", "data"},
                {"contrast", "noise_rel", "seed", "quad_order", "tol"})
    mesh = mesh_from_spec(cfg["mesh"], args.base_dir)
    background = materials_from_spec(cfg["background"], "background")
    background.check_covers(mesh.labels)
    _check_keys(cfg["grid"], "grid", {"nx", "ny"})
    grid = build_cell_grid(mesh, _int(cfg["grid"]["nx"], "grid.nx"),
                           _int(cfg["grid"]["ny"], "grid.ny"))
    data = data_from_spec(mesh, cfg["data"])
    for datum in data:
        if datum.amplitude == 0.0:
            # its measured power is 0, so no relative margin is defined
            raise ConfigError(f"datum {datum.name!r} is zero on the "
                              f"boundary")
    contrast = cfg.get("contrast", "pei")
    contrast_model(contrast)  # rejects anything but pei and pec
    _quad_order(cfg)  # checked, though no alpha quadrature runs here
    noise_rel = _float(cfg.get("noise_rel", 0.0), "noise_rel")
    if noise_rel < 0.0:
        raise ConfigError(f"noise_rel must be >= 0, got {noise_rel!r}")
    if noise_rel >= 1.0:  # 1 + noise_rel * u, u in [-1, 1), stays > 0
        raise ConfigError(f"noise_rel must be < 1, got {noise_rel!r}")
    seed = _int(cfg.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    args.seed = seed  # recorded in run_meta.json
    tol = _float(cfg["tol"], "tol") if "tol" in cfg else None
    if tol is not None and tol < 0.0:
        raise ConfigError(f"tol must be >= 0, got {tol!r}")
    workers = args.workers or (os.cpu_count() or 1)

    truth = cfg["truth"]
    _check_keys(truth, "truth", optional={"cells", "model", "materials"})
    truth_cells: list[int] = []
    if "materials" in truth:
        true_mats = materials_from_spec(truth["materials"],
                                        "truth.materials")
        true_mats.check_covers(mesh.labels)
        true_mesh = mesh
    elif "cells" in truth:
        truth_cells = [_int(c, "truth.cells entry")
                       for c in _list(truth["cells"], "truth.cells")]
        model = _model_from_spec(truth.get("model", {"type": contrast}),
                                 "truth.model")
        true_mesh, true_mats = make_cell_phantom(mesh, grid, truth_cells,
                                                 background, model)
    else:
        raise ConfigError("truth needs 'materials' or 'cells'")

    def run() -> int:
        meas = synth_measurements(true_mesh, true_mats, data, noise_rel,
                                  seed)
        result = mpm_scan(mesh, background, grid, data, meas, contrast,
                          tol, workers)
        write_mpm_json(os.path.join(args.out, "mpm_result.json"), result)
        write_mpm_svg(os.path.join(args.out, "mpm_heatmap.svg"), mesh,
                      result)
        write_csv(os.path.join(args.out, "mpm_cells.csv"),
                  ["cell_id", "ix", "iy", "score", "flagged"],
                  ((c.id, c.ix, c.iy, result.scores[c.id],
                    bool(result.mask[c.id])) for c in grid.cells))
        print(f"[mpm] {grid.n_cells} cells scanned, "
              f"{int(result.mask.sum())} flagged (tol {result.tol:.3e})")
        if truth_cells:
            metrics = mask_metrics(result, truth_cells)
            write_json(os.path.join(args.out, "mpm_metrics.json"),
                       asdict(metrics))
            print(f"[mpm] containment: {metrics.contained} "
                  f"(jaccard {metrics.jaccard:.3f})")
        return EXIT_OK
    return run


def cmd_reproduce_wire(cfg: dict, args) -> Callable[[], int]:
    from .dtn import minimum_energies
    from .output import write_csv
    _check_keys(cfg, "config", {"healthy", "damaged", "data"}, {"quad_order"})
    _check_keys(cfg["healthy"], "healthy", {"mesh", "materials"})
    healthy_mesh = mesh_from_spec(cfg["healthy"]["mesh"], args.base_dir)
    healthy_mats = materials_from_spec(cfg["healthy"]["materials"],
                                       "healthy.materials")
    healthy_mats.check_covers(healthy_mesh.labels)
    _quad_order(cfg)  # checked, though no alpha quadrature runs here
    data = data_from_spec(healthy_mesh, cfg["data"])
    damaged = _list(cfg["damaged"], "damaged")
    if not damaged:
        raise ConfigError("empty damaged list")  # no table would be written
    cases = []
    for k, case in enumerate(damaged):
        _check_keys(case, f"damaged[{k}]", {"name", "materials"}, {"mesh"})
        dmesh = (mesh_from_spec(case["mesh"], args.base_dir)
                 if "mesh" in case else healthy_mesh)
        dmats = materials_from_spec(case["materials"],
                                    f"damaged[{k}].materials")
        dmats.check_covers(dmesh.labels)
        ddata = (data if dmesh is healthy_mesh
                 else data_from_spec(dmesh, cfg["data"]))
        cases.append((str(case["name"]), dmesh, dmats, ddata))
    _unique([name for name, *_ in cases], "damaged case name", _slug)

    def run() -> int:
        healthy_powers = dict(zip((d.name for d in data), minimum_energies(
            healthy_mesh, healthy_mats, data)))
        failures = []
        for name, dmesh, dmats, ddata in cases:
            rows = []
            for datum, e1 in zip(ddata, minimum_energies(dmesh, dmats,
                                                         ddata)):
                e0 = healthy_powers[datum.name]
                diff = e0 - e1
                rows.append((datum.name, e0, e1, diff))
                ratio = diff / e0 if e0 else float("nan")
                print(f"[wire:{name}] {datum.name}: E0 {e0:.6e} "
                      f"E1 {e1:.6e} diff {diff:.6e} (ratio {ratio:.3e})")
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
    return run


# ---------------------------------------------------------------- entry point

_COMMANDS = {
    "mesh-gen": cmd_mesh_gen,
    "solve": cmd_solve,
    "avg-power": cmd_avg_power,
    "monotonicity-suite": cmd_monotonicity_suite,
    "gateaux-check": cmd_gateaux_check,
    "convergence-study": cmd_convergence_study,
    "mpm-image": cmd_mpm_image,
    "reproduce-wire": cmd_reproduce_wire,
}


# the comparisons read every averaged power as a minimum energy
_INERT_QUAD_ORDER = ("Every averaged power is a minimum energy, so no "
                     "alpha quadrature runs.  A config key quad_order is "
                     "read and checked but has no effect.")
_DESCRIPTIONS = {
    "monotonicity-suite": "Certified order comparisons of averaged "
                          "boundary powers. " + _INERT_QUAD_ORDER,
    "reproduce-wire": "Damage tables of averaged boundary powers, healthy "
                      "minus damaged. " + _INERT_QUAD_ORDER,
    "mpm-image": "Monotonicity scan of a cell grid against measured "
                 "averaged boundary powers. " + _INERT_QUAD_ORDER,
}


_LOG_LEVELS = ("warning", "info", "debug")


def parse_args(argv=None):
    import argparse
    ap = argparse.ArgumentParser(
        prog="condlab",
        description="Forward solves, averaged boundary powers, "
                    "monotonicity suites and inclusion scans for "
                    "piecewise nonlinear conductors.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, description=_DESCRIPTIONS.get(name))
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=0,
                       help="parallel workers (0 = all cores)")
        p.add_argument("--check-only", action="store_true",
                       help="read and check the whole config, then stop "
                            "without writing anything")
        p.add_argument("--log-level", choices=_LOG_LEVELS,
                       help="log the condlab layers to stderr at this "
                            "level (default: no logging)")
    args = ap.parse_args(argv)
    if args.workers < 0:
        ap.error(f"argument --workers: must be >= 0, got {args.workers}")
    return args


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        args.base_dir = os.path.dirname(os.path.abspath(args.config))
        args.seed = None  # mpm-image sets the seed it scans with
        try:
            run = _COMMANDS[args.command](cfg, args)
        except (ValueError, TypeError, AttributeError, KeyError,
                IndexError) as exc:
            # the read builds no Problem and solves nothing, so these can
            # only come from a malformed config value
            raise ConfigError(f"bad config value ({type(exc).__name__}: "
                              f"{exc})") from None
        if args.check_only:
            print("[check] config ok")
            return EXIT_OK
        os.makedirs(args.out, exist_ok=True)
        code = run()
        from .output import write_sidecar
        write_sidecar(os.path.join(args.out, "run_meta.json"),
                      command=args.command,
                      config=os.path.abspath(args.config),
                      seed=args.seed, version=__version__)
        return code
    except (ConfigError, MeshError, ConstitutiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.log_level is None:
        return _run(args)
    # one stderr handler on the package logger, for this run only
    logger = logging.getLogger("condlab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                           "%(message)s"))
    level = logger.level
    logger.setLevel(args.log_level.upper())
    logger.addHandler(handler)
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
