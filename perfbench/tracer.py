"""Outside-in layer trace of condlab.

The tracer wraps condlab's public functions from the benchmark's own code;
nothing inside the library changes.  Modules such as ``cli``, ``dtn`` and
``imaging`` import names like ``solve`` directly, so each wrapper replaces
every ``condlab.*`` module attribute bound to the traced object, not only
the one in its home module.  A target that no longer exists is recorded
as missing and its metrics read 0.

Spans (name, start, end, parent) stay in memory and are written out at the
end.  The hot constitutive calls are aggregated per (name, parent) instead.
Times are self time: a span's duration minus that of its traced children.
"""
from __future__ import annotations

import fnmatch
import functools
import gzip
import importlib
import json
import os
import pkgutil
import sys
import time

LAWS = ("Linear", "PowerLaw", "EJPowerLaw", "Tabulated")
LAW_METHODS = ("sigma", "dflux", "energy_density", "flux")
LINSOLVERS = ("cg", "spsolve", "splu", "factorized")

# (layer, home module, attribute or pattern); "Class.method" patches a class.
TARGETS = tuple(
    [("mesh.build", "condlab.mesh", "build_*_mesh"),
     ("mesh.boundary_mass", "condlab.mesh", "boundary_mass"),
     ("mesh.relabel", "condlab.mesh", "Mesh.relabeled")]
    + [("constitutive.eval", "condlab.constitutive", f"{cls}.{meth}")
       for cls in LAWS for meth in LAW_METHODS]
    + [("solver.solve", "condlab.solver", "solve"),
       ("solver.harmonic", "condlab.solver", "harmonic_initial_guess")]
    + [("solver.linsolve", "scipy.sparse.linalg", name)
       for name in LINSOLVERS]
    + [("dtn.avg_power", "condlab.dtn", "average_dtn_power"),
       ("dtn.pairing", "condlab.dtn", "dtn_pairing"),
       ("monotonicity.ladder", "condlab.monotonicity", "ladder_suite"),
       ("monotonicity.certificate", "condlab.monotonicity", "pointwise_leq"),
       ("imaging.scan", "condlab.imaging", "mpm_scan"),
       ("imaging.synth", "condlab.imaging", "synth_measurements"),
       ("output.write", "condlab.output", "write_*"),
       ("cli.spec", "condlab.cli", "mesh_from_spec"),
       ("cli.spec", "condlab.cli", "materials_from_spec"),
       ("cli.spec", "condlab.cli", "data_from_spec")]
)

# Hot layers kept as per-(name, parent) aggregates rather than spans.
AGGREGATED = {"constitutive.eval"}
# Layers counted at the outermost call only, so delegation counts once.
OUTERMOST = {"constitutive.eval", "output.write"}

# Per-layer metric -> (unit, how it is read off the tracer).
METRICS = {
    "mesh.build_calls": ("count", ("calls", "mesh.build")),
    "mesh.build_s": ("s", ("self_s", "mesh.build")),
    "mesh.boundary_mass_calls": ("count", ("calls", "mesh.boundary_mass")),
    "mesh.relabel_calls": ("count", ("calls", "mesh.relabel")),
    "constitutive.eval_calls": ("count", ("calls", "constitutive.eval")),
    "constitutive.eval_s": ("s", ("self_s", "constitutive.eval")),
    "solver.solve_calls": ("count", ("calls", "solver.solve")),
    "solver.solve_s": ("s", ("self_s", "solver.solve")),
    "solver.newton_iters": ("count", ("counts", "solver.newton_iters")),
    "solver.errors": ("count", ("errors", "solver.solve")),
    "solver.harmonic_calls": ("count", ("calls", "solver.harmonic")),
    "solver.harmonic_s": ("s", ("self_s", "solver.harmonic")),
    "solver.linsolve_calls": ("count", ("calls", "solver.linsolve")),
    "solver.linsolve_s": ("s", ("self_s", "solver.linsolve")),
    "solver.cg_iters": ("count", ("counts", "solver.cg_iters")),
    "dtn.avg_power_calls": ("count", ("calls", "dtn.avg_power")),
    "dtn.avg_power_s": ("s", ("self_s", "dtn.avg_power")),
    "dtn.pairing_calls": ("count", ("calls", "dtn.pairing")),
    "dtn.pairing_s": ("s", ("self_s", "dtn.pairing")),
    "monotonicity.ladder_s": ("s", ("self_s", "monotonicity.ladder")),
    "monotonicity.certificate_calls": ("count",
                                       ("calls", "monotonicity.certificate")),
    "imaging.scan_s": ("s", ("self_s", "imaging.scan")),
    "imaging.synth_s": ("s", ("self_s", "imaging.synth")),
    "imaging.cells": ("count", ("counts", "imaging.cells")),
    "output.write_calls": ("count", ("calls", "output.write")),
    "output.write_s": ("s", ("self_s", "output.write")),
    "output.bytes": ("bytes", ("counts", "output.bytes")),
    "cli.spec_s": ("s", ("self_s", "cli.spec")),
}


def _condlab_modules() -> list:
    """Import every condlab submodule and return them all."""
    import condlab
    for info in pkgutil.iter_modules(condlab.__path__, "condlab."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "condlab"
                                  or name.startswith("condlab."))]


class _Frame:
    __slots__ = ("sid", "name", "layer", "start", "child")

    def __init__(self, sid, name, layer, start):
        self.sid, self.name, self.layer = sid, name, layer
        self.start, self.child = start, 0.0


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []      # (id, name, start, end, parent id)
        self.aggregates: dict = {}        # (name, parent) -> [n, total, self]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.bound: dict[str, int] = {}   # target name -> attributes rebound
        self._stack: list[_Frame] = []
        self._restore: list[tuple] = []
        self._next_id = 0

    # ------------------------------------------------------------- install
    def install(self) -> None:
        modules = _condlab_modules()
        seen: set[int] = set()
        for layer, home, pattern in self.targets:
            found = self._resolve(home, pattern)
            if not found:
                self.missing.append(f"{home}.{pattern}")
            for name, owner, attr, orig in found:
                if id(orig) in seen:
                    continue
                seen.add(id(orig))
                wrapper = self._wrap(layer, name, orig)
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapper)
                    self.bound[name] = 1
                else:
                    self.bound[name] = sum(
                        self._rebind(mod, key, wrapper)
                        for mod in modules
                        for key, val in list(vars(mod).items())
                        if val is orig)
                    if not self.bound[name]:
                        self.missing.append(name)

    @staticmethod
    def _resolve(home: str, pattern: str) -> list[tuple]:
        """(name, owner, attribute, object) for each match, or []."""
        mod = sys.modules.get(home)
        if mod is None:
            try:
                mod = importlib.import_module(home)
            except ImportError:
                return []
        if "." in pattern:
            cls_name, meth = pattern.split(".", 1)
            cls = vars(mod).get(cls_name)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if not callable(fn):
                return []
            return [(f"{home}.{pattern}", cls, meth, fn)]
        return [(f"{home}.{key}", mod, key, val)
                for key, val in sorted(vars(mod).items())
                if fnmatch.fnmatchcase(key, pattern) and callable(val)
                and not isinstance(val, type)]

    def _rebind(self, owner, attr: str, wrapper) -> int:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
        return 1

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------ wrapping
    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        short = name.rsplit(".", 1)[-1]
        label = f"{layer}:{short}"
        outermost = layer in OUTERMOST
        kind = short if layer == "solver.linsolve" else layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if outermost and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            if kind == "cg":
                kwargs["callback"] = tracer._cg_counter(kwargs.get("callback"))
            frame = tracer._enter(label, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._leave(frame, ok)
            tracer._after(kind, args, result)
            if kind == "factorized":
                return tracer._wrap("solver.linsolve", "factorized.solve",
                                    result)
            if kind == "splu":
                return _TracedLU(result, tracer)
            return result

        return wrapper

    def _cg_counter(self, user_callback):
        def callback(xk):
            self._count("solver.cg_iters", 1)
            if user_callback is not None:
                user_callback(xk)
        return callback

    def _after(self, kind: str, args: tuple, result) -> None:
        if kind == "solver.solve":
            n_iter = getattr(getattr(result, "info", None), "n_iter", None)
            if isinstance(n_iter, int):
                self._count("solver.newton_iters", n_iter)
        elif kind == "imaging.scan":
            scores = getattr(result, "scores", None)
            if scores is not None:
                self._count("imaging.cells", len(scores))
        elif kind == "output.write":
            if args and isinstance(args[0], str) and os.path.isfile(args[0]):
                self._count("output.bytes", os.path.getsize(args[0]))

    def _count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, label: str, layer: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, label, layer, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _leave(self, frame: _Frame, ok: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self_t = dur - frame.child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        layer = frame.layer
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + self_t
        if not ok:
            self.errors[layer] = self.errors.get(layer, 0) + 1
        if layer in AGGREGATED:
            key = (frame.name, parent.name if parent else "")
            agg = self.aggregates.setdefault(key, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_t
        else:
            self.spans.append((frame.sid, frame.name, frame.start, end,
                               parent.sid if parent else 0))

    # ------------------------------------------------------------- results
    def metrics(self) -> dict[str, float]:
        tables = {"calls": self.calls, "self_s": self.self_s,
                  "errors": self.errors, "counts": self.counts}
        return {metric: tables[table].get(key, 0)
                for metric, (_, (table, key)) in METRICS.items()}

    def dump(self, path: str) -> None:
        """Write spans and aggregates as gzipped JSON."""
        doc = {"span_fields": ["id", "name", "start", "end", "parent"],
               "spans": self.spans,
               "aggregates": [{"name": n, "parent": p, "calls": c,
                               "total_s": t, "self_s": s}
                              for (n, p), (c, t, s)
                              in sorted(self.aggregates.items())],
               "missing": self.missing, "bound": self.bound}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class _TracedLU:
    """Stand-in for a SuperLU factorization whose ``solve`` is traced."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer._wrap("solver.linsolve", "splu.solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)
