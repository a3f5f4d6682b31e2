"""Triangle meshes for 2D conduction domains.

Plain P1 (linear triangle) geometry: node coordinates in meters, triangles as
index triples with an integer region label per triangle.  Label 0 is the
background phase, labels >= 1 mark inclusion components.  The boundary is not
stored; it is inferred as the set of edges incident to exactly one triangle,
which supports multiply connected domains (annulus meshes have two loops).

Disk meshes are built from staggered polar rings plus a Qhull Delaunay pass
(``scipy.spatial``); annulus and rectangle meshes are structured.
"""
from __future__ import annotations

import copy
import json
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

logger = logging.getLogger(__name__)


class MeshError(Exception):
    """Raised for malformed meshes or invalid generator geometry."""


@dataclass(frozen=True)
class DiskInclusion:
    """Circular inclusion: center (x, y), radius, region label >= 1."""

    center: tuple[float, float]
    radius: float
    label: int


@dataclass(frozen=True)
class PolygonInclusion:
    """Simple-polygon inclusion given by CCW vertices and a region label >= 1."""

    vertices: tuple[tuple[float, float], ...]
    label: int


Inclusion = DiskInclusion | PolygonInclusion


def _signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = nodes[triangles[:, 0]]
    b = nodes[triangles[:, 1]]
    c = nodes[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _orient_ccw(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Swap two vertices of every clockwise triangle; returns a copy."""
    tris = triangles.copy()
    neg = _signed_areas(nodes, tris) < 0.0
    tris[neg] = tris[neg][:, [0, 2, 1]]
    return tris


def _edge_keys(triangles: np.ndarray, n: int) -> np.ndarray:
    """Key ``lo * n + hi`` of every triangle side, for node ids below n;
    the (0, 1), (1, 2) and (2, 0) sides of all triangles in turn."""
    e = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                        triangles[:, [2, 0]]])
    e.sort(axis=1)
    return e[:, 0] * n + e[:, 1]


def _edge_incidence(triangles: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """All undirected edges (sorted pairs, in sorted order) among nodes
    below n and their triangle-incidence counts."""
    keys, counts = np.unique(_edge_keys(triangles, n), return_counts=True)
    return np.stack(np.divmod(keys, n), axis=1), counts


# ---------------------------------------------------------------------------
# graphs on index pairs


def adjacency(a: np.ndarray, b: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR structure ``(indptr, indices)`` of the undirected graph on n
    nodes with an edge (a[k], b[k]) for every k.  Each row lists its
    distinct neighbours in ascending order, as a canonical scipy CSR
    matrix does; a pair (i, i) puts i on its own row."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys = np.sort(np.concatenate([a * n + b, b * n + a]))
    # a sort and a mask drop the repeats faster than np.unique here
    keys = keys[np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]])]
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


def _neighbours(indptr: np.ndarray, indices: np.ndarray,
                nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``nodes`` one after another, and for each entry the
    position in ``nodes`` of the row it came from."""
    start = indptr[nodes]
    counts = indptr[nodes + 1] - start
    parent = np.repeat(np.arange(len(nodes)), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    return indices[start[parent] + offset], parent


def reach(indptr: np.ndarray, indices: np.ndarray, start) -> np.ndarray:
    """Mask of the nodes joined by a path to node ``start``, or to one of
    an array of them, found by a breadth-first search of the CSR graph."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[start] = True
    front = np.flatnonzero(seen)
    while len(front):
        new = np.zeros_like(seen)
        new[_neighbours(indptr, indices, front)[0]] = True
        new &= ~seen
        seen |= new
        front = np.flatnonzero(new)
    return seen


def reverse_cuthill_mckee(indptr: np.ndarray,
                          indices: np.ndarray) -> np.ndarray:
    """Reverse Cuthill-McKee order (Cuthill & McKee, 1969) of a symmetric
    CSR graph: the order that ``scipy.sparse.csgraph.reverse_cuthill_mckee(
    graph, symmetric_mode=True)`` returns.

    The degree of a node is its row length, plus 1 when the row holds the
    diagonal.  Each component starts at its first node in
    ``np.argsort(degree)`` order and is searched level by level: each
    parent's unvisited neighbours keep CSR order and are stably sorted by
    degree, and a node reached from two parents goes to the first.  The
    final order is reversed.
    """
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(n), lengths)
    # int32, like scipy's, so that argsort breaks ties the same way
    degree = lengths.astype(np.int32)
    degree[rows[indices == rows]] += 1
    seen = np.zeros(n, dtype=bool)
    levels = [np.zeros(0, dtype=np.int64)]
    for seed in np.argsort(degree).tolist():
        if seen[seed]:
            continue
        seen[seed] = True
        level = np.array([seed])
        while len(level):
            levels.append(level)
            nb, parent = _neighbours(indptr, indices, level)
            fresh = ~seen[nb]
            nb, parent = nb[fresh], parent[fresh]
            first = np.sort(np.unique(nb, return_index=True)[1])
            nb, parent = nb[first], parent[first]
            level = nb[np.lexsort((degree[nb], parent))]
            seen[level] = True
    return np.concatenate(levels)[::-1]


@dataclass
class Mesh:
    """Immutable-by-convention triangle mesh with derived P1 geometry.

    Attributes
    ----------
    nodes : (n, 2) float array
        Vertex coordinates in meters.
    triangles : (m, 3) int array
        CCW vertex index triples.
    labels : (m,) int array
        Region label per triangle (0 = background).

    Derived fields (filled in ``__post_init__``): signed areas, per-triangle
    P1 basis gradients ``grads[t, :, j]`` (gradient of the hat function of
    local vertex j), ``edges`` and ``edge_counts`` from ``_edge_incidence``,
    boundary edges, the sorted boundary nodes and their mask ``on_boundary``.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    labels: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)
    edge_counts: np.ndarray = field(init=False, repr=False)
    boundary_edges: np.ndarray = field(init=False, repr=False)
    boundary_nodes: np.ndarray = field(init=False, repr=False)
    on_boundary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if self.labels.shape != (self.triangles.shape[0],):
            raise MeshError("labels must have one entry per triangle")
        if self.triangles.min(initial=0) < 0 or \
                self.triangles.max(initial=-1) >= len(self.nodes):
            raise MeshError("triangle index out of range")
        areas = _signed_areas(self.nodes, self.triangles)
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshError(f"triangle {bad} has nonpositive area "
                            f"({areas[bad]:.3e}); orient CCW first")
        self.areas = areas
        self.grads = self._basis_gradients()
        self.edges, self.edge_counts = _edge_incidence(self.triangles,
                                                       self.n_nodes)
        self.boundary_edges = self.edges[self.edge_counts == 1]
        self.on_boundary = np.zeros(self.n_nodes, dtype=bool)
        self.on_boundary[self.boundary_edges] = True
        self.boundary_nodes = np.flatnonzero(self.on_boundary)

    def _basis_gradients(self) -> np.ndarray:
        a = self.nodes[self.triangles[:, 0]]
        b = self.nodes[self.triangles[:, 1]]
        c = self.nodes[self.triangles[:, 2]]
        # grad of hat_j is the rotated opposite edge over twice the area
        g = np.empty((len(self.triangles), 2, 3))
        two_a = (2.0 * self.areas)[:, None]
        g[:, :, 0] = np.stack([b[:, 1] - c[:, 1], c[:, 0] - b[:, 0]], axis=1) / two_a
        g[:, :, 1] = np.stack([c[:, 1] - a[:, 1], a[:, 0] - c[:, 0]], axis=1) / two_a
        g[:, :, 2] = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1) / two_a
        return g

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def relabeled(self, new_labels: np.ndarray) -> "Mesh":
        """Copy of the mesh with replaced region labels; the nodes,
        triangles and derived geometry are shared, not recomputed."""
        labels = np.asarray(new_labels, dtype=np.int64)
        if labels.shape != self.labels.shape:
            raise MeshError("labels must have one entry per triangle")
        out = copy.copy(self)
        out.labels = labels
        return out


@dataclass(frozen=True)
class BoundaryMass:
    """Trace mass weights: half the length of the adjacent boundary edges.

    ``node_ids`` is sorted and aligned with ``weights``; ``total`` is the
    polygonal perimeter of all boundary loops.
    """

    node_ids: np.ndarray
    weights: np.ndarray

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def boundary_mass(mesh: Mesh) -> BoundaryMass:
    """Lumped boundary mass per boundary node (trapezoid weights)."""
    p = mesh.nodes[mesh.boundary_edges[:, 0]]
    q = mesh.nodes[mesh.boundary_edges[:, 1]]
    lengths = np.linalg.norm(q - p, axis=1)
    weights = np.zeros(mesh.n_nodes)
    np.add.at(weights, mesh.boundary_edges[:, 0], 0.5 * lengths)
    np.add.at(weights, mesh.boundary_edges[:, 1], 0.5 * lengths)
    return BoundaryMass(mesh.boundary_nodes, weights[mesh.boundary_nodes])


def validate(mesh: Mesh) -> list[str]:
    """Structural diagnostics; an empty list means the mesh is clean.

    Checks: manifold edges, closed boundary loops, edge-connected background,
    inclusions strictly interior (no labeled triangle touches the boundary),
    no duplicate triangles, nonnegative labels.
    """
    problems: list[str] = []
    if np.any(mesh.edge_counts > 2):
        bad = mesh.edges[mesh.edge_counts > 2][0]
        problems.append(f"nonmanifold edge {tuple(bad)} shared by >2 triangles")
    # boundary loop closure: every boundary node has exactly two boundary edges
    deg = np.bincount(mesh.boundary_edges.ravel(), minlength=mesh.n_nodes)
    open_nodes = np.nonzero(deg == 1)[0]
    if len(open_nodes):
        problems.append(f"boundary not closed at node {int(open_nodes[0])}")
    if np.any(deg[mesh.boundary_nodes] > 2):
        pinch = int(mesh.boundary_nodes[np.argmax(deg[mesh.boundary_nodes])])
        problems.append(f"boundary pinches at node {pinch}")
    if np.any(mesh.labels < 0):
        problems.append("negative region label")
    # background connectivity through shared edges
    bg = np.nonzero(mesh.labels == 0)[0]
    if len(bg) == 0:
        problems.append("no background (label 0) triangles")
    elif not _edge_connected(mesh.triangles[bg]):
        problems.append("background (label 0) is not edge-connected")
    # inclusions compactly inside: no labeled triangle touches the boundary
    touching = mesh.on_boundary[mesh.triangles].any(axis=1)
    labeled = np.nonzero((mesh.labels >= 1) & touching)[0]
    if len(labeled):
        t = int(labeled[0])
        problems.append(f"inclusion touches boundary (triangle {t}, "
                        f"label {int(mesh.labels[t])})")
    # key each sorted triangle by the rank of its first side and its last
    # node, which stays below 2**63 where the key (i * n + j) * n + k may not
    n = mesh.n_nodes
    srt = np.sort(mesh.triangles, axis=1)
    side = np.unique(srt[:, 0] * n + srt[:, 1], return_inverse=True)[1]
    if len(np.unique(side * n + srt[:, 2])) != len(srt):
        problems.append("duplicate triangles present")
    return problems


def _edge_connected(triangles: np.ndarray) -> bool:
    """True if the triangle set is connected through shared edges."""
    m = len(triangles)
    if m <= 1:
        return True
    keys = _edge_keys(triangles, int(triangles.max()) + 1)
    order = np.argsort(keys, kind="stable")
    keys, tri_of = keys[order], order % m
    # equal neighbours in sorted order are one edge shared by two triangles
    k = np.nonzero(keys[1:] == keys[:-1])[0]
    graph = adjacency(tri_of[k], tri_of[k + 1], m)
    return bool(reach(*graph, 0).all())


# ---------------------------------------------------------------------------
# generators


def _ring_points(center: tuple[float, float], radius: float, n: int,
                 stagger: bool) -> np.ndarray:
    offs = 0.5 if stagger else 0.0
    th = 2.0 * np.pi * (np.arange(n) + offs) / n
    return np.stack([center[0] + radius * np.cos(th),
                     center[1] + radius * np.sin(th)], axis=1)


def _disk_cloud(center: tuple[float, float], radius: float,
                target_h: float) -> np.ndarray:
    n_rings = max(2, int(round(radius / target_h)))
    dr = radius / n_rings
    pts = [np.array([center], dtype=float)]
    for k in range(1, n_rings + 1):
        r = k * dr
        n_k = max(6, int(round(2.0 * np.pi * r / target_h)))
        pts.append(_ring_points(center, r, n_k, stagger=(k % 2 == 1)))
    return np.concatenate(pts)


def _point_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Crossing-number test, vectorized over points."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    nv = len(vertices)
    for i in range(nv):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % nv]
        crosses = ((y0 > y) != (y1 > y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xin, np.inf))
    return inside


def _dist_to_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Unsigned distance from points to the polygon boundary."""
    best = np.full(len(points), np.inf)
    nv = len(vertices)
    for i in range(nv):
        a = vertices[i]
        b = vertices[(i + 1) % nv]
        ab = b - a
        t = np.clip((points - a) @ ab / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        best = np.minimum(best, np.linalg.norm(points - proj, axis=1))
    return best


def _polygon_cloud(vertices: np.ndarray, target_h: float) -> np.ndarray:
    """Boundary samples plus a square interior lattice at spacing target_h."""
    pts = []
    nv = len(vertices)
    for i in range(nv):
        a, b = vertices[i], vertices[(i + 1) % nv]
        seg = np.linalg.norm(b - a)
        n = max(1, int(round(seg / target_h)))
        t = np.arange(n) / n
        pts.append(a + t[:, None] * (b - a))
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    xs = np.arange(lo[0] + 0.5 * target_h, hi[0], target_h)
    ys = np.arange(lo[1] + 0.5 * target_h, hi[1], target_h)
    if len(xs) and len(ys):
        gx, gy = np.meshgrid(xs, ys)
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        keep = _point_in_polygon(grid, vertices)
        keep &= _dist_to_polygon(grid, vertices) > 0.45 * target_h
        pts.append(grid[keep])
    return np.concatenate(pts)


def _inclusion_extent_ok(inc: Inclusion, radius: float,
                         center: tuple[float, float], clearance: float) -> bool:
    c = np.asarray(center)
    # a distance that overflows is inf or NaN, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(inc, DiskInclusion):
            d = np.linalg.norm(np.asarray(inc.center) - c)
            return d + inc.radius <= radius - clearance
        d = np.linalg.norm(np.asarray(inc.vertices) - c, axis=1)
        return bool(np.all(d <= radius - clearance))


def _inclusions_disjoint(a: Inclusion, b: Inclusion, gap: float) -> bool:
    def samples(inc: Inclusion) -> np.ndarray:
        if isinstance(inc, DiskInclusion):
            return _ring_points(inc.center, inc.radius, 64, stagger=False)
        return _polygon_cloud(np.asarray(inc.vertices, dtype=float),
                              _poly_h(inc))
    if isinstance(a, DiskInclusion) and isinstance(b, DiskInclusion):
        d = np.linalg.norm(np.asarray(a.center) - np.asarray(b.center))
        return d >= a.radius + b.radius + gap
    sa, sb = samples(a), samples(b)
    d = np.linalg.norm(sa[:, None, :] - sb[None, :, :], axis=2).min()
    return d >= gap


def _poly_h(inc: PolygonInclusion) -> float:
    verts = np.asarray(inc.vertices, dtype=float)
    edges = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    return float(edges.min() / 3.0)


def _built(kind: str, mesh: Mesh) -> Mesh:
    logger.debug("built %s mesh: %d nodes, %d triangles", kind, mesh.n_nodes,
                 mesh.n_triangles)
    return mesh


def build_disk_mesh(radius: float, target_h: float,
                    inclusions: Sequence[Inclusion] = (),
                    center: tuple[float, float] = (0.0, 0.0)) -> Mesh:
    """Mesh a disk with optional strictly interior inclusions.

    Parameters
    ----------
    radius : float
        Disk radius in meters.
    target_h : float
        Nominal edge length; inclusions are locally refined to
        ``min(target_h, inclusion_radius / 2)``.
    inclusions : sequence of DiskInclusion | PolygonInclusion
        Labeled subregions.  Each must keep a clearance of one ``target_h``
        from the outer boundary and half of one from every other inclusion;
        labels must be unique and >= 1.

    Returns
    -------
    Mesh
        CCW-oriented, labeled by centroid membership; ``validate`` is clean.

    Raises
    ------
    MeshError
        If an inclusion leaves the disk, overlaps another, or reuses a label.
    """
    if radius <= 0 or target_h <= 0:
        raise MeshError("radius and target_h must be positive")
    seen: set[int] = set()
    for inc in inclusions:
        if inc.label < 1:
            raise MeshError(f"inclusion label {inc.label} must be >= 1")
        if inc.label in seen:
            raise MeshError(f"duplicate inclusion label {inc.label}")
        seen.add(inc.label)
        if isinstance(inc, DiskInclusion) and not inc.radius > 0:
            raise MeshError(f"inclusion label {inc.label} needs a positive "
                            f"radius, got {inc.radius!r}")
        if not _inclusion_extent_ok(inc, radius, center, clearance=target_h):
            raise MeshError(f"inclusion label {inc.label} too close to or "
                            f"outside the outer boundary")
    for i, a in enumerate(inclusions):
        for b in inclusions[i + 1:]:
            if not _inclusions_disjoint(a, b, gap=0.5 * target_h):
                raise MeshError(f"inclusions {a.label} and {b.label} overlap "
                                f"or nearly touch")

    base = _disk_cloud(center, radius, target_h)
    keep = np.ones(len(base), dtype=bool)
    extra = []
    for inc in inclusions:
        if isinstance(inc, DiskInclusion):
            h_i = min(target_h, inc.radius / 2.0)
            extra.append(_disk_cloud(inc.center, inc.radius, h_i))
            d = np.linalg.norm(base - np.asarray(inc.center), axis=1)
            keep &= d > inc.radius + 0.6 * h_i
        else:
            verts = np.asarray(inc.vertices, dtype=float)
            h_i = min(target_h, _poly_h(inc))
            extra.append(_polygon_cloud(verts, h_i))
            near = _dist_to_polygon(base, verts) < 0.6 * h_i
            near |= _point_in_polygon(base, verts)
            keep &= ~near
    points = np.concatenate([base[keep]] + extra) if extra else base[keep]

    try:
        tri = Delaunay(points)
    except QhullError as exc:  # e.g. points that coincide in float
        detail = str(exc).strip().partition("\n")[0]
        raise MeshError(f"disk mesh generation failed: {detail}") from None
    triangles = _orient_ccw(points, tri.simplices.astype(np.int64))
    # drop degenerate slivers the hull pass may produce on cocircular points
    good = _signed_areas(points, triangles) > 1e-12 * target_h ** 2
    triangles = triangles[good]

    cent = points[triangles].mean(axis=1)
    labels = np.zeros(len(triangles), dtype=np.int64)
    for inc in inclusions:
        if isinstance(inc, DiskInclusion):
            inside = np.linalg.norm(cent - np.asarray(inc.center), axis=1) \
                < inc.radius
        else:
            inside = _point_in_polygon(cent, np.asarray(inc.vertices,
                                                        dtype=float))
        labels[inside] = inc.label

    mesh = Mesh(points, triangles, labels)
    problems = validate(mesh)
    if problems:
        raise MeshError("disk mesh generation failed: " + "; ".join(problems))
    return _built("disk", mesh)


def build_annulus_mesh(r_inner: float, r_outer: float,
                       target_h: float) -> Mesh:
    """Structured annulus mesh about the origin with two boundary loops,
    all label 0.

    Every ring carries the same node count, so the triangulation is a
    regular stitch of quads split into two triangles each.
    """
    if not 0 < r_inner < r_outer:
        raise MeshError("need 0 < r_inner < r_outer")
    if not target_h > 0:
        raise MeshError(f"target_h must be positive, got {target_h!r}")
    r_mid = 0.5 * (r_inner + r_outer)
    n_th = max(8, int(round(2.0 * np.pi * r_mid / target_h)))
    n_r = max(2, int(round((r_outer - r_inner) / target_h)))
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    rings = [_ring_points((0.0, 0.0), r, n_th, stagger=False)
             for r in radii]
    points = np.concatenate(rings)
    tris = []
    for k in range(n_r):
        a = k * n_th + np.arange(n_th)
        b = (k + 1) * n_th + np.arange(n_th)
        a1 = k * n_th + (np.arange(n_th) + 1) % n_th
        b1 = (k + 1) * n_th + (np.arange(n_th) + 1) % n_th
        tris.append(np.stack([a, b, b1], axis=1))
        tris.append(np.stack([a, b1, a1], axis=1))
    triangles = _orient_ccw(points, np.concatenate(tris).astype(np.int64))
    return _built("annulus", Mesh(points, triangles,
                                  np.zeros(len(triangles), dtype=np.int64)))


def build_rect_mesh(width: float, height: float, target_h: float,
                    layer_split: float | None = None,
                    layer_label: int = 1) -> Mesh:
    """Structured rectangle mesh on [0, width] x [0, height].

    With ``layer_split = a`` in (0, 1) a vertical material interface is
    inserted exactly at ``x = a * width`` and triangles right of it get
    ``layer_label``.  The layered variant is a 1D verification fixture: its
    second phase deliberately reaches the boundary, so it is exempt from the
    interior-inclusion rule that governs disk meshes with inclusions.
    """
    if width <= 0 or height <= 0 or target_h <= 0:
        raise MeshError("width, height and target_h must be positive")
    nx = max(2, int(round(width / target_h)))
    ny = max(2, int(round(height / target_h)))
    xs = np.linspace(0.0, width, nx + 1)
    if layer_split is not None:
        if not 0.0 < layer_split < 1.0:
            raise MeshError("layer_split must lie strictly inside (0, 1)")
        x_if = layer_split * width
        xs = np.unique(np.sort(np.append(xs, x_if)))
        # drop grid lines indistinguishable from the interface
        close = np.isclose(xs, x_if, rtol=0.0, atol=0.05 * target_h)
        xs = np.sort(np.append(xs[~close], x_if))
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    n_y = len(ys)

    def nid(i: int, j: int) -> int:
        return i * n_y + j

    tris = []
    for i in range(len(xs) - 1):
        for j in range(n_y - 1):
            tris.append([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1)])
            tris.append([nid(i, j), nid(i + 1, j + 1), nid(i, j + 1)])
    triangles = _orient_ccw(points, np.asarray(tris, dtype=np.int64))
    labels = np.zeros(len(triangles), dtype=np.int64)
    if layer_split is not None:
        cent_x = points[triangles].mean(axis=1)[:, 0]
        labels[cent_x > layer_split * width] = layer_label
    return _built("rect", Mesh(points, triangles, labels))


# ---------------------------------------------------------------------------
# file I/O


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write the JSON mesh format: nodes plus [i, j, k, label] rows."""
    payload = {
        "nodes": [[float(x), float(y)] for x, y in mesh.nodes],
        "triangles": [[int(a), int(b), int(c), int(l)]
                      for (a, b, c), l in zip(mesh.triangles, mesh.labels)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_mesh(path: str) -> Mesh:
    """Read the JSON mesh format and validate it.

    Clockwise triangles are reoriented silently; structural defects
    (nonmanifold edges, open boundary, boundary-touching inclusions,
    disconnected background) raise ``MeshError``.
    """
    with open(path) as fh:
        payload = json.load(fh)
    try:
        nodes = np.asarray(payload["nodes"], dtype=float)
        rows = np.asarray(payload["triangles"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from None
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise MeshError("triangles must be [i, j, k, label] rows")
    triangles = _orient_ccw(nodes, rows[:, :3])
    if np.any(_signed_areas(nodes, triangles) <= 0.0):
        raise MeshError("degenerate (zero-area) triangle in mesh file")
    mesh = Mesh(nodes, triangles, rows[:, 3])
    problems = validate(mesh)
    if problems:
        raise MeshError(f"invalid mesh {path}: " + "; ".join(problems))
    return mesh
