"""Fast self-check of the benchmark harness at tiny sizes.

Usage (from the repository root): python3 perfbench/selfcheck.py

It checks that BENCHMARK.json matches the harness, that the tracer
rebinds every alias, counts delegation once and reports a vanished name
as missing, that every output check fails on bad output, that each
workload runs end to end at tiny size with correct outputs, and that the
benchmark refuses to run outside a checkout.  Exit code 0 means all held.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        FAILURES.append(what)


def check_spec() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {k: unit for k, (unit, _) in tracing.METRICS.items()}
    traced["trace.overhead_pct"] = "%"
    expect(layers == traced, "per_layer metrics match the tracer's")
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "workloads and their reasons match workloads.py")
    expect([m["name"] for m in spec["end_to_end"]]
           == ["wall_s", "setup_s", "peak_rss_mb", "success_rate"],
           "end_to_end metrics are the four run.py reports")


def check_tracer() -> None:
    import numpy as np
    import condlab.cli
    import condlab.dtn
    import condlab.solver
    from condlab.constitutive import EJPowerLaw, Linear, MaterialMap
    from condlab.mesh import build_disk_mesh
    from condlab.solver import make_datum, DatumTerm

    original = condlab.solver.solve
    targets = tracing.TARGETS + (
        ("gone", "condlab.solver", "no_such_function"),
        ("gone", "condlab.no_such_module", "f"),
        ("gone", "condlab.constitutive", "NoSuchLaw.sigma"))
    tr = tracing.Tracer(targets)
    tr.install()
    try:
        expect(condlab.cli.solve is condlab.solver.solve
               is condlab.dtn.solve and condlab.solver.solve is not original,
               "solve is rebound in cli, dtn and solver alike")
        expect({"condlab.solver.no_such_function",
                "condlab.no_such_module.f",
                "condlab.constitutive.NoSuchLaw.sigma"} <= set(tr.missing),
               "vanished names read as missing")
        EJPowerLaw(8e9, 1e-4, 27.0).sigma(np.array([1.0, 2.0]))
        expect(tr.calls.get("constitutive.eval") == 1,
               "EJPowerLaw delegation counts as one law evaluation")
        mesh = build_disk_mesh(1.0, 0.3)
        datum = make_datum(mesh, [DatumTerm("sin", 1.0, 2)], "sin2")
        fld = condlab.cli.solve(
            mesh, MaterialMap({0: EJPowerLaw(1.0, 1.0, 3.0)}), datum)
        expect(tr.calls.get("solver.solve") == 1
               and tr.counts.get("solver.newton_iters") == fld.info.n_iter > 0
               and tr.counts.get("solver.cg_iters", 0) > 0,
               "solve, Newton and CG iterations are counted")
        condlab.cli.solve(mesh, MaterialMap({0: Linear(1.0)}), datum)
        m = tr.metrics()
        expect(m["solver.solve_calls"] == 2 and m["solver.solve_s"] > 0
               and m["solver.harmonic_calls"] == 2
               and m["mesh.boundary_mass_calls"] >= 3,
               "per-layer metrics read off the spans")
    finally:
        tr.uninstall()
    expect(condlab.cli.solve is original is condlab.solver.solve,
           "uninstall restores every binding")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def check_checks(tmp: str) -> None:
    """Each workload's check passes good output and fails bad output."""
    def verdict(name: str, expect_facts: dict) -> list[bool]:
        return [ok for _, ok, _ in WORKLOADS[name].check(tmp, expect_facts)]

    def case(name, facts, write_good, write_bad):
        write_good()
        good = verdict(name, facts)
        write_bad()
        bad = verdict(name, facts)
        for f in os.listdir(tmp):
            os.remove(os.path.join(tmp, f))
        missing = verdict(name, facts)
        expect(all(good) and not all(bad) and not any(missing),
               f"{name} check passes good, fails bad and missing output")

    hdr = ["f", "E0", "E1", "difference"]
    case("wire-500x", {"rows": [["crack", "500x"]]},
         lambda: _write_csv(f"{tmp}/table_crack.csv", hdr,
                            [["500x", 100.0, 99.0, 1.0]]),
         lambda: _write_csv(f"{tmp}/table_crack.csv", hdr,
                            [["500x", 100.0, 101.0, -1.0]]))
    hdr = ["cell_id", "ix", "iy", "score", "flagged"]
    case("phantom-scan", {"cells": 2, "truth": [1]},
         lambda: _write_csv(f"{tmp}/mpm_cells.csv", hdr,
                            [[0, 0, 0, -0.1, 0], [1, 1, 0, 0.0, 1]]),
         lambda: _write_csv(f"{tmp}/mpm_cells.csv", hdr,
                            [[0, 0, 0, -0.1, 1], [1, 1, 0, -0.1, 0]]))
    hdr = ["pair", "datum", "value_lo", "value_hi", "delta", "tolerance",
           "violated", "notes"]
    case("battery-coarse",
         {"pairs": ["a<=b"], "data": ["x"], "resolutions": [0.25]},
         lambda: _write_csv(f"{tmp}/ladder_h0.25.csv", hdr,
                            [["a<=b", "x", 1, 2, 1, 0, 0, ""]]),
         lambda: _write_csv(f"{tmp}/ladder_h0.25.csv", hdr,
                            [["a<=b", "x", 2, 1, -1, 0, 1, ""]]))


def run_bench(args: list[str], cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def check_tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = [(name, 1) for name in WORKLOADS] + [("phantom-scan", 0)]
    for name, trace in runs:
        code, out = run_bench(["--workload", name, "--seed", "1",
                               "--trace", str(trace), "--tiny"])
        lines = out.strip().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary = {}
        wanted = spec["per_layer" if trace else "end_to_end"]
        expect(code == 0 and summary.get("correct") is True
               and summary.get("failed") == 0
               and set(summary.get("metrics", {}))
               == {m["name"] for m in wanted},
               f"tiny {name} --trace {trace} runs correct with every metric")
        if name == "phantom-scan" and trace:
            m = summary.get("metrics", {})
            expect(m.get("solver.newton_iters", {}).get("value") == 0
                   and m.get("solver.cg_iters", {}).get("value") == 0
                   and m.get("imaging.cells", {}).get("value", 0) > 0,
                   "linear phantom scan needs no Newton or CG iterations")


def check_outside_checkout(tmp: str) -> None:
    """With only BENCHMARK.json and perfbench/, the run must fail fast."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    os.makedirs(os.path.join(tmp, "perfbench"))
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(tmp, "perfbench"))
    code, out = run_bench(["--workload", "phantom-scan"], cwd=tmp)
    expect(code != 0 and '"correct"' not in out,
           "outside a checkout the run exits nonzero without a result")


def main() -> int:
    tmp = os.path.join(HERE, "_work", f"selfcheck-{os.getpid()}")
    os.makedirs(tmp)
    try:
        check_spec()
        check_tracer()
        check_checks(tmp)
        check_outside_checkout(tmp)
        check_tiny_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
