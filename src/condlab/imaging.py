"""Inclusion detection by monotonicity tests on averaged boundary powers.

The scan overlays a rectangular cell grid on the interior of the mesh,
replaces one cell at a time with a structural extreme (perfectly
insulating or perfectly conducting), and compares the resulting averaged
boundary powers against measured ones datum by datum.  A cell is flagged
when every datum leaves the comparison on the anomaly side within a noise
tolerance.  Cells contained in an extreme anomaly are flagged by
construction: carving the test extreme into a region that already is one
cannot move the power past the measurement.

Each averaged power, measured or tested, is the minimum energy of one
solve (``dtn.minimum_energies``): on any map,
integral_0^1 <Lambda(alpha f), f> d alpha = E(u^f) (the transfer
identity), so neither side runs an alpha quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constitutive import PEC, PEI, MaterialMap
from .dtn import minimum_energies
from .mesh import Mesh, distinct
from .solver import BoundaryDatum


@dataclass(frozen=True)
class Cell:
    """One grid cell: its index pair and the triangles it owns."""

    id: int
    ix: int
    iy: int
    tri_ids: tuple[int, ...]
    area: float


@dataclass(frozen=True)
class CellGrid:
    nx: int
    ny: int
    bbox: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    cells: tuple[Cell, ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def build_cell_grid(mesh: Mesh, nx: int, ny: int) -> CellGrid:
    """Partition interior triangles into an nx-by-ny grid by centroid.

    Triangles with a vertex on the outer boundary are excluded so every
    tested perturbation stays compactly inside the domain; empty cells
    are dropped.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"cell grid needs nx, ny >= 1, got nx={nx}, "
                         f"ny={ny}")
    xmin, ymin = mesh.nodes.min(axis=0)
    xmax, ymax = mesh.nodes.max(axis=0)
    interior = ~np.any(mesh.on_boundary[mesh.triangles], axis=1)
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    ix = np.clip(((cent[:, 0] - xmin) / dx).astype(int), 0, nx - 1)
    iy = np.clip(((cent[:, 1] - ymin) / dy).astype(int), 0, ny - 1)
    cells = []
    for j in range(ny):
        for i in range(nx):
            tris = np.nonzero(interior & (ix == i) & (iy == j))[0]
            if tris.size == 0:
                continue
            cells.append(Cell(len(cells), i, j, tuple(int(t) for t in tris),
                              float(mesh.areas[tris].sum())))
    return CellGrid(nx, ny, (float(xmin), float(xmax), float(ymin),
                             float(ymax)), tuple(cells))


def fresh_label(mesh: Mesh, *maps: MaterialMap) -> int:
    used = set(distinct(mesh.labels).tolist())
    for m in maps:
        used.update(m.labels)
    return max(used) + 1


def _stamp(mesh: Mesh, background: MaterialMap, cells: Sequence[Cell],
           model) -> tuple[Mesh, MaterialMap]:
    """Relabel the triangles of ``cells`` to a fresh region label that
    ``model`` governs; returns the relabeled mesh and the extended map."""
    lab = fresh_label(mesh, background)
    labels = mesh.labels.copy()
    for cell in cells:
        labels[list(cell.tri_ids)] = lab
    return mesh.relabeled(labels), background.replaced(lab, model)


def make_cell_phantom(mesh: Mesh, grid: CellGrid, cell_ids: Sequence[int],
                      background: MaterialMap,
                      model=None) -> tuple[Mesh, MaterialMap]:
    """Stamp a model (default PEI) onto the union of the given cells.

    Returns a relabeled mesh plus the background map extended with the
    stamped model under a fresh region label.
    """
    bad = [c for c in cell_ids if not 0 <= c < grid.n_cells]
    if bad:
        raise ValueError(f"cell ids {bad} outside range({grid.n_cells})")
    return _stamp(mesh, background, [grid.cells[c] for c in cell_ids],
                  PEI() if model is None else model)


@dataclass(frozen=True)
class Measurements:
    """Averaged boundary powers per datum, optionally noise-corrupted."""

    datum_names: tuple[str, ...]
    clean: np.ndarray
    noisy: np.ndarray
    noise_rel: float
    seed: int

    @property
    def powers(self) -> np.ndarray:
        """The observed values the scan compares against."""
        return self.noisy


def synth_measurements(mesh: Mesh, materials: MaterialMap,
                       data: Sequence[BoundaryDatum],
                       noise_rel: float = 0.0,
                       seed: int = 0) -> Measurements:
    """Forward-model averaged powers (minimum energies) with multiplicative
    uniform noise.  Without noise nothing is drawn, and ``noisy`` is
    ``clean``, as the factor ``1 + 0 * u`` would leave it."""
    clean = np.array(minimum_energies(mesh, materials, data))
    noisy = clean
    if noise_rel > 0.0:
        rng = np.random.default_rng(seed)
        noisy = clean * (1.0 + noise_rel * rng.uniform(-1.0, 1.0, clean.size))
    return Measurements(tuple(d.name for d in data), clean, noisy,
                        noise_rel, seed)


@dataclass(frozen=True)
class MpmResult:
    grid: CellGrid
    contrast: str  # "pei" or "pec"
    tol: float
    measurements: Measurements
    margins: np.ndarray  # (n_cells, n_data)
    scores: np.ndarray   # (n_cells,) min over data
    mask: np.ndarray     # (n_cells,) bool, score >= -tol

    @property
    def flagged_cells(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.mask)[0])


def contrast_model(contrast: str):
    """The structural test extreme named by ``contrast``."""
    if contrast not in ("pei", "pec"):
        raise ValueError(f"contrast must be 'pei' or 'pec', got {contrast!r}")
    return PEI() if contrast == "pei" else PEC()


def _scan_task(args) -> tuple[int, np.ndarray]:
    """A cell's id and test powers: each datum's minimum energy with the
    test extreme stamped onto the cell."""
    mesh, background, cell, model, data = args
    test_mesh, test_mats = _stamp(mesh, background, [cell], model)
    return cell.id, np.array(minimum_energies(test_mesh, test_mats, data))


def mpm_scan(mesh: Mesh, background: MaterialMap, grid: CellGrid,
             data: Sequence[BoundaryDatum], measurements: Measurements,
             contrast: str = "pei", tol: float | None = None,
             workers: int = 1) -> MpmResult:
    """Flag grid cells whose structural test perturbation stays on the
    anomaly side of the measured powers for every datum.

    Margins are relative: with an insulating test the cell margin for
    datum f is (P_test - P_meas) / |P_meas|, with a conducting test the
    sign is mirrored.  The per-cell score is the minimum margin over the
    data and a cell is flagged when score >= -tol.  The default tol is
    3 * noise_rel plus a 1e-9 floor against solver round-off.  Test powers
    are minimum energies, one solve per (cell, datum) on any background.
    """
    model = contrast_model(contrast)
    if tol is None:
        tol = 3.0 * measurements.noise_rel + 1e-9
    meas = measurements.powers
    tasks = [(mesh, background, cell, model, data) for cell in grid.cells]
    test_powers = np.empty((grid.n_cells, len(data)))
    if workers > 1:
        # imported here: a serial scan never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cid, powers in pool.map(_scan_task, tasks, chunksize=1):
                test_powers[cid] = powers
    else:
        for task in tasks:
            cid, powers = _scan_task(task)
            test_powers[cid] = powers
    denom = np.abs(meas)[None, :]
    if contrast == "pei":
        margins = (test_powers - meas[None, :]) / denom
    else:
        margins = (meas[None, :] - test_powers) / denom
    scores = margins.min(axis=1)
    mask = scores >= -tol
    return MpmResult(grid, contrast, float(tol), measurements, margins,
                     scores, mask)


@dataclass(frozen=True)
class MaskMetrics:
    n_truth: int
    n_flagged: int
    n_hit: int        # truth cells that were flagged
    n_excess: int     # flagged cells outside the truth set
    contained: bool   # every truth cell flagged
    jaccard: float


def mask_metrics(result: MpmResult,
                 truth_cells: Sequence[int]) -> MaskMetrics:
    truth = np.zeros(result.grid.n_cells, dtype=bool)
    truth[list(truth_cells)] = True
    hit = truth & result.mask
    union = truth | result.mask
    return MaskMetrics(int(truth.sum()), int(result.mask.sum()),
                       int(hit.sum()), int((result.mask & ~truth).sum()),
                       bool(np.all(result.mask[truth])),
                       float(hit.sum() / union.sum()) if union.any() else 1.0)
