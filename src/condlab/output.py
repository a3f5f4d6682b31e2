"""Deterministic CSV/JSON/SVG writers for batch runs.

Every number is printed with 17 significant digits so re-runs diff
byte-for-byte; anything time-dependent goes into a metadata sidecar, never
into a data file.  SVG plots are linear color maps over triangles, written
as plain strings with fixed formatting.
"""
from __future__ import annotations

import csv
import json
import time
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # annotations only: a writer loads no other layer
    from .dtn import PowerReport
    from .imaging import MpmResult
    from .mesh import Mesh
    from .monotonicity import LadderReport
    from .solver import PotentialField


def fmt(x) -> str:
    """Render one CSV cell: floats at 17 significant digits."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """Write ``fmt``-rendered rows under ``header``; a cell holding a
    comma, a quote or a line break is quoted, so every row keeps the
    header's column count."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([fmt(c) for c in row] for row in rows)


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sidecar(path: str, **extra) -> None:
    """Run metadata (the only place a timestamp is allowed)."""
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    meta.update(extra)
    write_json(path, meta)


# ---------------------------------------------------------------- fields

def write_node_csv(path: str, fld: PotentialField) -> None:
    mesh = fld.problem.mesh
    rows = ((i, mesh.nodes[i, 0], mesh.nodes[i, 1], float(fld.u[i]))
            for i in range(mesh.n_nodes))
    write_csv(path, ["node_id", "x", "y", "u"], rows)


def write_element_csv(path: str, mesh: Mesh, e: np.ndarray, j: np.ndarray,
                      q: np.ndarray) -> None:
    rows = ((t, int(mesh.labels[t]), e[t, 0], e[t, 1], j[t, 0], j[t, 1],
             q[t]) for t in range(mesh.n_triangles))
    write_csv(path, ["tri_id", "label", "Ex", "Ey", "Jx", "Jy", "Qdensity"],
              rows)


def write_solver_log(path: str, fld: PotentialField) -> None:
    with open(path, "w", newline="") as fh:
        for row in fld.info.log:
            fh.write(json.dumps(row, sort_keys=True,
                                default=fmt) + "\n")


# ---------------------------------------------------------------- powers

def write_power_json(path: str, report: PowerReport) -> None:
    write_json(path, {
        "datum": report.datum,
        "power": report.power,
        "avg_power": report.avg_power,
        "energy": report.energy,
        "transfer_residual": report.transfer_residual,
        "quad_order": report.quad_order,
        "alpha_nodes": [{"alpha": a, "weight": w, "pairing": v}
                        for a, w, v in report.nodes],
    })


def write_power_batch_csv(path: str, rows: Iterable[Sequence]) -> None:
    """Rows of (datum_id, material_id, power, avg_power, energy,
    transfer_residual)."""
    write_csv(path, ["datum_id", "material_id", "power", "avg_power",
                     "energy", "transfer_residual"], rows)


# ---------------------------------------------------------- monotonicity

def write_ladder_csv(path: str, ladder: LadderReport) -> None:
    """One row per (ordered pair, datum) of a chain, a single pair being a
    two-link chain; ``notes`` holds the pair's certificate notes, joined
    by ``;``, and ``violated`` is 0 on an uncertified pair."""
    rows = []
    for i, j, rep in ladder.pair_reports:
        pair = f"{ladder.names[i]}<={ladder.names[j]}"
        note = ";".join(rep.certificate.notes)
        for r in rep.rows:
            rows.append((pair, r.datum, r.value_lo, r.value_hi, r.delta,
                         r.tolerance, r.violated, note))
    write_csv(path, ["pair", "datum", "value_lo", "value_hi", "delta",
                     "tolerance", "violated", "notes"], rows)


# --------------------------------------------------------------- imaging

def write_mpm_json(path: str, result: MpmResult) -> None:
    write_json(path, {
        "contrast": result.contrast,
        "tol": result.tol,
        "grid": {"nx": result.grid.nx, "ny": result.grid.ny,
                 "bbox": list(result.grid.bbox),
                 "n_cells": result.grid.n_cells},
        "datum_names": list(result.measurements.datum_names),
        "cells": [{"id": c.id, "ix": c.ix, "iy": c.iy,
                   "score": float(result.scores[c.id]),
                   "flagged": bool(result.mask[c.id]),
                   "margins": [float(v) for v in result.margins[c.id]]}
                  for c in result.grid.cells],
        "flagged_cells": list(result.flagged_cells),
    })


# ------------------------------------------------------------------- svg

_STOPS = np.array([
    [0.231, 0.298, 0.753],   # blue
    [0.552, 0.690, 0.996],
    [0.865, 0.865, 0.865],   # neutral
    [0.958, 0.603, 0.482],
    [0.706, 0.016, 0.150],   # red
])


def _color(v: float) -> str:
    """Linear 5-stop map of v in [0, 1] to an RGB hex string."""
    t = min(max(v, 0.0), 1.0) * (len(_STOPS) - 1)
    k = min(int(t), len(_STOPS) - 2)
    w = t - k
    rgb = (1 - w) * _STOPS[k] + w * _STOPS[k + 1]
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def _svg_open(mesh: Mesh) -> tuple[list[str], float]:
    width = 640  # pixels
    xmin, ymin = mesh.nodes.min(axis=0)
    xmax, ymax = mesh.nodes.max(axis=0)
    pad = 0.03 * max(xmax - xmin, ymax - ymin)
    x0, y0 = xmin - pad, ymin - pad
    w, h = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad
    height = int(round(width * h / w))
    # SVG y runs downward; flip by emitting y' = (y0 + h) - y
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}" '
             f'viewBox="{x0:.9g} {0:.9g} {w:.9g} {h:.9g}">']
    return lines, y0 + h


def _tri_points(mesh: Mesh, t: int, ytop: float) -> str:
    pts = mesh.nodes[mesh.triangles[t]]
    return " ".join(f"{p[0]:.9g},{ytop - p[1]:.9g}" for p in pts)


def write_tri_svg(path: str, mesh: Mesh, values: np.ndarray) -> None:
    """Linear color map of one value per triangle, spanning the finite
    values."""
    vals = np.asarray(values, dtype=float)
    finite = vals[np.isfinite(vals)]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo if hi > lo else 1.0
    lines, ytop = _svg_open(mesh)
    for t in range(mesh.n_triangles):
        if np.isfinite(vals[t]):
            fill = _color((vals[t] - lo) / span)
        else:
            fill = "#ffffff"
        lines.append(f'<polygon points="{_tri_points(mesh, t, ytop)}" '
                     f'fill="{fill}" stroke="none"/>')
    lines.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mpm_svg(path: str, mesh: Mesh, result: MpmResult) -> None:
    """Cell scores over the mesh: unscanned triangles light gray, flagged
    cells outlined."""
    scores = result.scores
    lo, hi = float(scores.min()), float(scores.max())
    span = hi - lo if hi > lo else 1.0
    lines, ytop = _svg_open(mesh)
    # each triangle's points are formatted once, for up to three polygons
    points = [_tri_points(mesh, t, ytop) for t in range(mesh.n_triangles)]
    for pts in points:
        lines.append(f'<polygon points="{pts}" fill="#f2f2f2" '
                     f'stroke="#d9d9d9" stroke-width="0.2%"/>')
    for c in result.grid.cells:
        fill = _color((scores[c.id] - lo) / span)
        for t in c.tri_ids:
            lines.append(f'<polygon points="{points[t]}" fill="{fill}" '
                         f'stroke="none"/>')
    for c in result.grid.cells:
        if result.mask[c.id]:
            for t in c.tri_ids:
                lines.append(f'<polygon points="{points[t]}" fill="none" '
                             f'stroke="#000000" stroke-width="0.3%"/>')
    lines.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
