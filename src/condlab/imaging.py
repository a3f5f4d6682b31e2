"""Inclusion detection by monotonicity tests on averaged boundary powers.

The scan overlays a rectangular cell grid on the interior of the mesh,
replaces one cell at a time with a structural extreme (perfectly
insulating or perfectly conducting), and compares the resulting averaged
boundary powers against measured ones datum by datum.  A cell is flagged
when every datum leaves the comparison on the anomaly side within a noise
tolerance.  Cells contained in an extreme anomaly are flagged by
construction: carving the test extreme into a region that already is one
cannot move the power past the measurement.

Each averaged power, measured or tested, is a minimum energy: on any
map, integral_0^1 <Lambda(alpha f), f> d alpha = E(u^f) (the transfer
identity), so neither side runs an alpha quadrature.  The measurements
are one solve per datum (``dtn.minimum_energies``).  When every triangle
of the background conducts with a p = 2 law, each test power is a
quadratic form: ``cell_powers`` solves each datum once on the background
``Problem``, and ``_schur_powers`` reads every cell's powers off those
fields and the one factorization their solves share, with a Schur
complement on the cell's unknowns and no ``Problem`` or solve per cell.
On any other background each cell compiles its stamped ``Problem`` and
solves every datum on it, in a process pool when ``workers`` is above 1.
The path is read off the laws of the labels the mesh carries, so a law
that the map lists for no triangle does not change it.  Each scan logs
one debug line on ``condlab.imaging`` with the path it took, its cells
and the factorizations and back-substitutions it used.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constitutive import PEC, PEI, MaterialMap
from .dtn import minimum_energies
from .mesh import Mesh, adjacency, distinct, reach
from .solver import (BoundaryDatum, PotentialField, Problem, SolveError,
                     pec_conductors, solve, stranded_error)

logger = logging.getLogger(__name__)


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
    are dropped, and a grid left without cells raises ValueError.
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
    # floored in floats, so that a grid of any integer size converts
    ix = np.clip(np.floor((cent[:, 0] - xmin) / dx), 0, nx - 1)
    iy = np.clip(np.floor((cent[:, 1] - ymin) / dy), 0, ny - 1)
    # by row, then column; the sort is stable, so ids ascend within a cell
    tris = np.flatnonzero(interior)
    tris = tris[np.lexsort((ix[tris], iy[tris]))]
    cuts = 1 + np.flatnonzero(np.diff([ix[tris], iy[tris]]).any(axis=0))
    cells = tuple(Cell(k, int(ix[g[0]]), int(iy[g[0]]), tuple(g.tolist()),
                       float(mesh.areas[g].sum()))
                  for k, g in enumerate(np.split(tris, cuts)) if g.size)
    if not cells:
        raise ValueError("cell grid has no cell: every triangle touches "
                         "the outer boundary")
    return CellGrid(nx, ny, (float(xmin), float(xmax), float(ymin),
                             float(ymax)), cells)


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


def _scan_task(args) -> np.ndarray:
    """A cell's test powers: each datum's minimum energy with the test
    extreme stamped onto the cell."""
    mesh, background, cell, model, data = args
    test_mesh, test_mats = _stamp(mesh, background, [cell], model)
    return np.array(minimum_energies(test_mesh, test_mats, data))


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per column k, the inner product of column k of ``a`` and ``b``."""
    return np.einsum("ik,ik->k", a, b)


def _schur_powers(fields: Sequence[PotentialField], cells: Sequence[Cell],
                  pec: bool) -> np.ndarray:
    """Test powers, shape (len(cells), len(fields)), from each datum's
    field solved on one background ``Problem`` of p = 2 laws on every
    triangle: each cell's row is a Schur complement on the cell, against
    the ``start_factor`` those solves shared.  Raises the ``SolveError``
    that solving on a cell's stamped map raises.

    With K the sigma-weighted stiffness on the free unknowns, each field
    is its datum's minimizer u_bar, of energy E0.  The energy of any state
    is E0 + 1/2 (x - u_bar)^T K (x - u_bar), so minimizing over every
    unknown off a cell's free unknowns S leaves 1/2 (y - u_bar_S)^T A
    (y - u_bar_S) with A = ((K^-1)_SS)^-1, and (K^-1)_SS is |S| more
    back-substitutions against the same factor.  A test extreme on the
    cell removes the cell's element energy 1/2 [y; g]^T K_C [y; g] (K_C:
    the cell's sigma-weighted element matrices, g: the field at the cell's
    Dirichlet nodes) and ties y = P t to the unknowns t that the nodes
    take in the stamped map: the 0/1 matrix P has one column per conductor
    (``pec_conductors``) for PEC, and for PEI one per node with a triangle
    off the cell (the other nodes are removed).  Minimizing over t gives
    the test power E0 + 1/2 u_bar^T A u_bar - 1/2 g^T K_C g
    - 1/2 (P^T b)^T (P^T M P)^-1 (P^T b), with b = A u_bar + K_C g and
    M = A - K_C (Hager, SIAM Rev. 31, 1989).  The unknowns a PEI cell cuts
    off from the boundary are found by a search of the triangle graph near
    the cell (``_kept``), not from a pivot.
    """
    problem = fields[0].problem
    mesh = problem.mesh
    u = np.stack([f.u for f in fields], axis=1)
    e0 = np.array([f.info.energy for f in fields])
    label = fresh_label(mesh, problem.materials)
    rhs_solved = len(fields)
    powers = np.empty((len(cells), len(fields)))
    for i, cell in enumerate(cells):
        tris = distinct(cell.tri_ids)
        if len(tris) == mesh.n_triangles:
            raise SolveError("no conducting triangles")
        nodes = distinct(mesh.triangles[tris])
        local = np.searchsorted(nodes, mesh.triangles[tris])
        n = len(nodes)
        kc = np.bincount((local[:, :, None] * n + local[:, None, :]).ravel(),
                         weights=problem.start_elements[tris].ravel(),
                         minlength=n * n).reshape(n, n)
        cols = problem.free_of_node[nodes]
        s = cols >= 0
        if pec:
            conductors = pec_conductors(mesh, tris, np.full(len(tris), label))
            p = np.zeros((n, len(conductors)))
            for j, members in enumerate(conductors.values()):
                p[np.searchsorted(nodes, members), j] = 1.0
        else:
            p = np.eye(n)[:, s & _kept(mesh, tris, nodes)]
        p = p[s]
        unit = np.zeros((problem.n_free, int(s.sum())))
        unit[cols[s], np.arange(unit.shape[1])] = 1.0
        a = np.linalg.inv(problem.band.solve(problem.start_factor,
                                             unit)[cols[s]])
        rhs_solved += unit.shape[1]
        u_bar = u[nodes[s]]
        g = u[nodes[~s]]
        b = a @ u_bar
        energy = e0 + 0.5 * _column_dots(u_bar, b) \
            - 0.5 * _column_dots(g, kc[np.ix_(~s, ~s)] @ g)
        b = p.T @ (b + kc[np.ix_(s, ~s)] @ g)
        m = p.T @ (a - kc[np.ix_(s, s)]) @ p
        powers[i] = energy - 0.5 * _column_dots(b, np.linalg.solve(m, b))
    logger.debug("scan of %d cells, Schur path: 1 factorization, %d "
                 "back-substitutions in %d calls", len(cells), rhs_solved,
                 len(cells) + len(fields))
    return powers


def _kept(mesh: Mesh, tris: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Which of a cell's ``nodes`` keep a triangle off the cell's
    triangles ``tris``; raises ``stranded_error`` when, with the cell
    insulating, free unknowns lose every conducting path to the
    boundary.

    Such an unknown lies in a component inside the convex hull of
    the cell's nodes: a ray from a node outside it, pointing away from
    the hull, meets no cell triangle before the boundary, every other
    triangle conducts, and every boundary node is a Dirichlet node.
    So the search covers the triangles off the cell with a node in the
    cell nodes' bounding box, which hold every triangle at a cell
    node, and starts from their nodes on the boundary or outside the
    box; a node it does not reach is cut off.
    """
    xy = mesh.nodes
    in_box = np.all((xy >= xy[nodes].min(axis=0))
                    & (xy <= xy[nodes].max(axis=0)), axis=1)
    near = in_box[mesh.triangles].any(axis=1)
    near[tris] = False
    t = mesh.triangles[near]
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    touched[t] = True
    reached = reach(*adjacency(t.ravel(), t[:, [1, 2, 0]].ravel(),
                               mesh.n_nodes),
                    np.flatnonzero(touched & (mesh.on_boundary | ~in_box)))
    stranded = int(np.count_nonzero(touched & ~reached))
    if stranded:
        raise stranded_error(stranded)
    return touched[nodes]


def _linear_conducting(mesh: Mesh, background: MaterialMap) -> bool:
    """Whether every triangle of the mesh conducts with a p = 2 law: the
    laws of the labels the mesh carries, not every law the map lists."""
    models = map(background.model_for, distinct(mesh.labels).tolist())
    return all(not m.is_structural and m.p == 2.0 for m in models)


def cell_powers(mesh: Mesh, background: MaterialMap, cells: Sequence[Cell],
                model, data: Sequence[BoundaryDatum],
                workers: int = 1) -> np.ndarray:
    """Test powers, shape (len(cells), len(data)): row i holds each
    datum's minimum energy with ``model`` (PEI or PEC) stamped onto
    ``cells[i]``.

    When every triangle conducts with a p = 2 law, each datum is solved
    once on the background ``Problem`` and ``_schur_powers`` reads them
    all off those fields; ``workers`` is not read.  Otherwise each cell
    compiles its stamped ``Problem`` and solves every datum on it
    (``dtn.minimum_energies``), in ``workers`` processes when that is
    above 1.
    """
    if _linear_conducting(mesh, background):
        problem = Problem(mesh, background)
        return _schur_powers([solve(mesh, background, d, problem=problem)
                              for d in data], cells, model.kind == "pec")
    powers = np.empty((len(cells), len(data)))
    tasks = [(mesh, background, cell, model, data) for cell in cells]
    if workers > 1:
        # imported here: a serial scan never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, row in enumerate(pool.map(_scan_task, tasks,
                                             chunksize=1)):
                powers[i] = row
    else:
        for i, task in enumerate(tasks):
            powers[i] = _scan_task(task)
    logger.debug("scan of %d cells, per-cell path in %d worker(s): %d "
                 "Problems, %d solves, each Problem factorizing its "
                 "harmonic start once and each Newton step once more",
                 len(cells), max(workers, 1), len(cells),
                 len(cells) * len(data))
    return powers


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
    are minimum energies, from ``cell_powers``.
    """
    model = contrast_model(contrast)
    if tol is None:
        tol = 3.0 * measurements.noise_rel + 1e-9
    meas = measurements.noisy
    test_powers = cell_powers(mesh, background, grid.cells, model, data,
                              workers)
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
