"""Triangle meshes for 2D conduction domains.

Plain P1 (linear triangle) geometry: node coordinates in meters, triangles as
index triples with an integer region label per triangle.  Label 0 is the
background phase, labels >= 1 mark inclusion components.  The boundary is not
stored; it is inferred as the set of edges incident to exactly one triangle,
which supports multiply connected domains (annulus meshes have two loops).

Disk meshes are the Delaunay triangulation of staggered polar rings plus
inclusion clouds, built by Bowyer-Watson insertion on exact predicates
(``delaunay``); annulus and rectangle meshes are structured, and one quad
split (``_quad_split``) cuts both grids into counterclockwise triangles.
"""
from __future__ import annotations

import copy
import json
import logging
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)


class MeshError(Exception):
    """Raised for malformed meshes or invalid generator geometry."""


@dataclass(frozen=True)
class DiskInclusion:
    """Circular inclusion: center (x, y), radius, region label >= 1."""

    center: tuple[float, float]
    radius: float
    label: int


def _signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas with the sign of the exact orientation: where the float
    filter of ``_orient`` leaves the sign open (a sliver, whose float area
    may round to 0 or flip), the exact area rounded once.  An area beyond
    the float range is an infinity or NaN, not an error."""
    a = nodes[triangles[:, 0]]
    b = nodes[triangles[:, 1]]
    c = nodes[triangles[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):
        left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        det = left - right
        unsure = np.abs(det) <= _ORIENT_BOUND * (np.abs(left)
                                                 + np.abs(right)) + _TINY
    for t in np.flatnonzero(unsure):
        xy = nodes[triangles[t]].ravel().tolist()
        ax, ay, bx, by, cx, cy = _exact(*xy)
        den = max(v.as_integer_ratio()[1] for v in xy)
        num = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        try:
            det[t] = num / den ** 2
        except OverflowError:
            det[t] = np.inf if num > 0 else -np.inf
    return 0.5 * det


def _orient_ccw(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Swap two vertices of every clockwise triangle; returns a copy."""
    tris = triangles.copy()
    neg = _signed_areas(nodes, tris) < 0.0
    tris[neg] = tris[neg][:, [0, 2, 1]]
    return tris


def _sides(triangles: np.ndarray) -> np.ndarray:
    """The (0, 1), (1, 2) and (2, 0) sides of all triangles in turn, each
    as the node pair it runs from and to."""
    return np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                           triangles[:, [2, 0]]])


def _edge_keys(triangles: np.ndarray, n: int) -> np.ndarray:
    """Key ``lo * n + hi`` of every triangle side in ``_sides`` order, for
    node ids below n."""
    e = _sides(triangles)
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


def distinct(values) -> np.ndarray:
    """The distinct entries of an array, flattened, in ascending order, as
    ``np.unique`` returns them.  A sort and a mask: a plain ``np.unique``
    call imports ``numpy.ma``, and it is slower on these sizes."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def adjacency(a: np.ndarray, b: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR structure ``(indptr, indices)`` of the undirected graph on n
    nodes with an edge (a[k], b[k]) for every k.  Each row lists its
    distinct neighbours in ascending order, as a canonical scipy CSR
    matrix does; a pair (i, i) puts i on its own row."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys = distinct(np.concatenate([a * n + b, b * n + a]))
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
            if areas[bad] == 0.0:
                raise MeshError(f"degenerate (zero-area) triangle {bad}")
            raise MeshError(f"triangle {bad} has nonpositive area "
                            f"({areas[bad]:.3e}); orient CCW first")
        self.areas = areas
        self.grads = self._basis_gradients()
        finite = np.isfinite(self.grads).all(axis=(1, 2)) \
            & np.isfinite(areas)
        if not finite.all():
            raise MeshError(f"triangle {int(np.argmin(finite))} has an area "
                            f"or gradient beyond the float range")
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
        # beyond the float range a gradient is an infinity or NaN, which
        # __post_init__ refuses
        with np.errstate(over="ignore", invalid="ignore"):
            two_a = (2.0 * self.areas)[:, None]
            for j, (p, q) in enumerate(((b, c), (c, a), (a, b))):
                g[:, :, j] = np.stack([p[:, 1] - q[:, 1],
                                       q[:, 0] - p[:, 0]], axis=1) / two_a
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

    Checks: manifold edges, closed and unpinched boundary loops,
    nonnegative labels, an edge-connected background, no duplicate
    triangles.  Where labels sit is each builder's own rule.
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
    # key each sorted triangle by the rank of its first side and its last
    # node, which stays below 2**63 where the key (i * n + j) * n + k may not
    n = mesh.n_nodes
    srt = np.sort(mesh.triangles, axis=1)
    side = np.unique(srt[:, 0] * n + srt[:, 1], return_inverse=True)[1]
    if len(distinct(side * n + srt[:, 2])) != len(srt):
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
# Delaunay triangulation

# Static error bounds of the float orientation and in-circle determinants
# relative to the sums of the absolute products they add (Shewchuk,
# Discrete Comput. Geom. 18, 1997); _TINY adds the error of products that
# underflow, on coordinates below 1 in magnitude.
_EPS = 2.0 ** -53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_TINY = 1e-300


def _exact(*coords: float) -> list[int]:
    """The floats as integers over one common power-of-two denominator:
    one positive scale for all, which keeps the sign of a determinant."""
    ratios = [c.as_integer_ratio() for c in coords]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios]


def _orient(x: list, y: list, a: int, b: int, c: int) -> int:
    """Exact sign of the turn a -> b -> c: 1 counterclockwise, -1
    clockwise, 0 collinear."""
    acx, bcx = x[a] - x[c], x[b] - x[c]
    acy, bcy = y[a] - y[c], y[b] - y[c]
    left, right = acx * bcy, acy * bcx
    det = left - right
    if abs(det) > _ORIENT_BOUND * (abs(left) + abs(right)) + _TINY:
        return 1 if det > 0 else -1
    ax, ay, bx, by, cx, cy = _exact(x[a], y[a], x[b], y[b], x[c], y[c])
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def _incircle(x: list, y: list, a: int, b: int, c: int, d: int) -> int:
    """Exact sign of d against the circumcircle of the counterclockwise
    triangle a, b, c: 1 inside, -1 outside, 0 on it."""
    adx, ady = x[a] - x[d], y[a] - y[d]
    bdx, bdy = x[b] - x[d], y[b] - y[d]
    cdx, cdy = x[c] - x[d], y[c] - y[d]
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    permanent = (abs(bc) + abs(cb)) * alift + (abs(ca) + abs(ac)) * blift \
        + (abs(ab) + abs(ba)) * clift
    if abs(det) > _INCIRCLE_BOUND * permanent + _TINY:
        return 1 if det > 0 else -1
    ax, ay, bx, by, cx, cy, dx, dy = _exact(x[a], y[a], x[b], y[b], x[c],
                                            y[c], x[d], y[d])
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, \
        cx - dx, cy - dy
    det = (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy) \
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy) \
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    return (det > 0) - (det < 0)


def delaunay(points: np.ndarray) -> np.ndarray:
    """Delaunay triangles of a planar point cloud: counterclockwise index
    triples, each starting at its smallest index, rows in sorted order.

    Bowyer-Watson insertion (Bowyer, Comput. J. 24, 1981; Watson, Comput.
    J. 24, 1981) in cloud order.  The triangles whose open circumdisk
    holds the new point form a cavity, which is replaced by the fan from
    the point to the cavity's boundary.  Ghost triangles join each hull
    edge to a vertex at infinity; the disk of a ghost is the open
    half-plane beyond its edge plus the open edge, so points outside the
    hull insert the same way.  The orientation and in-circle tests are
    exact: a float filter, then integer arithmetic, on the coordinates
    scaled by a power of two to below 1 in magnitude.  That scaling
    changes no sign, so a cloud and its power-of-two multiples get the
    same triangles.  A point exactly on a circumcircle leaves that
    triangle standing, so on cocircular points the triangles made first
    stay: the triangulation depends on the points and their order alone.
    Every triangle has positive exact orientation, and so a positive
    area in ``Mesh``, slivers included.

    The cavity search starts at one triangle of the cavity and grows
    through the sides whose far triangle's disk holds the point.  The
    triangles of a Delaunay triangulation whose open disks hold a point
    are joined through their sides, so the search finds all of them from
    any one, and the triangles that come out do not depend on the start.
    That start is one of the previous point's two ghosts when the new
    point lies in its disk, which holds for nearly every point of a ring
    cloud (each ring point lands just beyond the hull edge its
    predecessor made); else it is the triangle that a visibility walk
    from the last triangle made reaches.

    Raises ``MeshError`` when a coordinate is not finite, when points
    coincide in float, or when no three points span a triangle.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if not np.isfinite(pts).all():
        raise MeshError("point coordinates must be finite")
    xy = np.ldexp(pts, -np.frexp(np.abs(pts).max(initial=0.0))[1])
    # sorted by y, then x, a repeated point follows its twin
    srt = xy[np.lexsort(xy.T)]
    twins = int((srt[1:] == srt[:-1]).all(axis=1).sum())
    if twins:
        raise MeshError(f"points coincide in float ({twins} repeated)")
    x, y = xy[:, 0].tolist(), xy[:, 1].tolist()
    rest = list(range(2, n))
    for i, k in enumerate(rest):
        turn = _orient(x, y, 0, 1, k)
        if turn:
            break
    else:
        raise MeshError("no three points span a triangle")
    del rest[i]
    a, b = (1, k) if turn > 0 else (k, 1)
    ghost = n  # the vertex at infinity, never a triangle's first vertex
    # tri[t] holds the vertices of triangle t; nbr[t][j] is the triangle
    # across the side opposite vertex j.  Start: triangle (0, a, b) and the
    # ghosts on its sides (a, 0), (b, a) and (0, b).
    tri = [(0, a, b), (a, 0, ghost), (b, a, ghost), (0, b, ghost)]
    nbr = [[2, 3, 1], [3, 2, 0], [1, 3, 0], [2, 1, 0]]
    free: list[int] = []

    def in_disk(t: int, p: int) -> bool:
        # the float filters of _incircle and _orient, inlined; the calls
        # decide only what the filters leave open
        a, b, c = tri[t]
        px, py = x[p], y[p]
        if b != ghost and c != ghost:
            adx, ady = x[a] - px, y[a] - py
            bdx, bdy = x[b] - px, y[b] - py
            cdx, cdy = x[c] - px, y[c] - py
            bc, cb = bdx * cdy, cdx * bdy
            ca, ac = cdx * ady, adx * cdy
            ab, ba = adx * bdy, bdx * ady
            alift = adx * adx + ady * ady
            blift = bdx * bdx + bdy * bdy
            clift = cdx * cdx + cdy * cdy
            det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
            if abs(det) > _INCIRCLE_BOUND * (
                    (abs(bc) + abs(cb)) * alift + (abs(ca) + abs(ac)) * blift
                    + (abs(ab) + abs(ba)) * clift) + _TINY:
                return det > 0
            return _incircle(x, y, a, b, c, p) > 0
        # the hull edge (a, b) with the outside on its left
        if b == ghost:
            a, b = c, a
        acx, bcx = x[a] - px, x[b] - px
        acy, bcy = y[a] - py, y[b] - py
        left, right = acx * bcy, acy * bcx
        det = left - right
        if abs(det) > _ORIENT_BOUND * (abs(left) + abs(right)) + _TINY:
            return det > 0
        turn = _orient(x, y, a, b, p)
        if turn:
            return turn > 0
        # on the edge's line: in the disk strictly between its ends
        if x[a] != x[b]:
            return min(x[a], x[b]) < px < max(x[a], x[b])
        return min(y[a], y[b]) < py < max(y[a], y[b])

    last, hull = 0, []
    for p in rest:
        for t in hull:  # the previous point's ghosts
            if in_disk(t, p):
                break
        else:
            t = last
            # a visibility walk in a Delaunay triangulation enters no
            # triangle twice, so the bound only guards against a defect
            for _ in range(len(tri)):
                a, b, c = tri[t]
                if b == ghost or c == ghost:  # p lies beyond this hull edge
                    break
                if _orient(x, y, b, c, p) < 0:
                    t = nbr[t][0]
                elif _orient(x, y, c, a, p) < 0:
                    t = nbr[t][1]
                elif _orient(x, y, a, b, p) < 0:
                    t = nbr[t][2]
                else:  # p lies in the closed triangle t
                    break
            else:
                raise MeshError("point location did not terminate")
        cavity, seen, rim = [t], {t}, []
        for t in cavity:
            a, b, c = tri[t]
            n0, n1, n2 = nbr[t]
            for o, u, v in ((n0, b, c), (n1, c, a), (n2, a, b)):
                if o in seen:
                    continue
                if in_disk(o, p):
                    seen.add(o)
                    cavity.append(o)
                else:  # side (u, v) of t, and o's slot that points back
                    rim.append((u, v, o, nbr[o].index(t)))
        free += cavity
        # the fan: triangle (p, u, v) on each rim side (u, v)
        fan, hull = {}, []
        for u, v, o, slot in rim:
            if free:
                t = free.pop()
                tri[t] = (p, u, v)
                nbr[t][0] = o
            else:
                t = len(tri)
                tri.append((p, u, v))
                nbr.append([o, -1, -1])
            nbr[o][slot] = t
            fan[u] = t
            if u == ghost or v == ghost:
                hull.append(t)
            else:
                last = t
        for u, v, _, _ in rim:
            t, w = fan[u], fan[v]
            nbr[t][1] = w
            nbr[w][2] = t
    tris = np.array(tri, dtype=np.int64)
    live = (tris != ghost).all(axis=1)
    live[free] = False
    tris = tris[live]
    first = np.argmin(tris, axis=1)[:, None]
    tris = np.take_along_axis(tris, (first + np.arange(3)) % 3, axis=1)
    return tris[np.lexsort(tris.T[::-1])]


# ---------------------------------------------------------------------------
# generators

# A generator refuses a mesh of more points before it makes any.  The
# Bowyer-Watson insertion of a disk cloud took 20-55 us per point on a
# 2-core VM (126k points in 6.9 s), so this many take up to a minute.
MAX_POINTS = 10**6


def _steps(length: float, h: float) -> float:
    """``length / h`` in Python floats: inf, not an error, where the
    quotient overflows or h is not positive, and NaN stays NaN."""
    return float(length) / float(h) if h > 0 else float("inf")


def _check_size(kind: str, estimate: float) -> None:
    """Refuse a mesh whose estimated point count is not finite or exceeds
    ``MAX_POINTS``."""
    if not estimate <= MAX_POINTS:
        raise MeshError(f"{kind} mesh would have about {estimate:.3g} "
                        f"points, more than the {MAX_POINTS} allowed")


def _disk_size(radius: float, target_h: float) -> float:
    """Point count of ``_disk_cloud``, from above: about pi (r / h)^2."""
    n = _steps(radius, target_h)
    return 1.0 + np.pi * n * (n + 3.0) + 6.5 * (n + 2.0)


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


def _inclusion_extent_ok(inc: DiskInclusion, radius: float,
                         center: tuple[float, float], clearance: float) -> bool:
    # a distance that overflows is inf or NaN, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(np.asarray(inc.center) - np.asarray(center))
        return d + inc.radius <= radius - clearance


def _built(kind: str, mesh: Mesh) -> Mesh:
    problems = validate(mesh)
    if problems:
        raise MeshError(f"{kind} mesh generation failed: "
                        + "; ".join(problems))
    logger.debug("built %s mesh: %d nodes, %d triangles", kind, mesh.n_nodes,
                 mesh.n_triangles)
    return mesh


def build_disk_mesh(radius: float, target_h: float,
                    inclusions: Sequence[DiskInclusion] = (),
                    center: tuple[float, float] = (0.0, 0.0)) -> Mesh:
    """Mesh a disk with optional strictly interior inclusions.

    Parameters
    ----------
    radius : float
        Disk radius in meters.
    target_h : float
        Nominal edge length; inclusions are locally refined to
        ``min(target_h, inclusion_radius / 2)``.
    inclusions : sequence of DiskInclusion
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
        If an inclusion leaves the disk, overlaps another, or reuses a
        label, or if the mesh would have more than ``MAX_POINTS`` points.
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
        if not inc.radius > 0:
            raise MeshError(f"inclusion label {inc.label} needs a positive "
                            f"radius, got {inc.radius!r}")
        if not _inclusion_extent_ok(inc, radius, center, clearance=target_h):
            raise MeshError(f"inclusion label {inc.label} too close to or "
                            f"outside the outer boundary")
    # each inclusion's cloud is refined to its own spacing
    steps = [min(target_h, inc.radius / 2.0) for inc in inclusions]
    _check_size("disk", _disk_size(radius, target_h) + sum(
        _disk_size(inc.radius, h_i) for inc, h_i in zip(inclusions, steps)))
    for i, a in enumerate(inclusions):
        for b in inclusions[i + 1:]:
            d = np.linalg.norm(np.asarray(a.center) - np.asarray(b.center))
            if not d >= a.radius + b.radius + 0.5 * target_h:
                raise MeshError(f"inclusions {a.label} and {b.label} overlap "
                                f"or nearly touch")

    base = _disk_cloud(center, radius, target_h)
    keep = np.ones(len(base), dtype=bool)
    extra = []
    for inc, h_i in zip(inclusions, steps):
        extra.append(_disk_cloud(inc.center, inc.radius, h_i))
        d = np.linalg.norm(base - np.asarray(inc.center), axis=1)
        keep &= d > inc.radius + 0.6 * h_i
    points = np.concatenate([base[keep]] + extra) if extra else base[keep]

    try:
        triangles = delaunay(points)
    except MeshError as exc:
        raise MeshError(f"disk mesh generation failed: {exc}") from None

    cent = points[triangles].mean(axis=1)
    labels = np.zeros(len(triangles), dtype=np.int64)
    for inc in inclusions:
        inside = np.linalg.norm(cent - np.asarray(inc.center), axis=1) \
            < inc.radius
        labels[inside] = inc.label

    mesh = Mesh(points, triangles, labels)
    # the inclusions were placed strictly inside the disk
    at = np.flatnonzero((labels > 0) & mesh.on_boundary[triangles].any(1))
    if len(at):
        raise MeshError(f"disk mesh generation failed: inclusion touches "
                        f"boundary (triangle {at[0]}, label {labels[at[0]]})")
    return _built("disk", mesh)


def _quad_split(rows: int, n: int, wrap: bool) -> np.ndarray:
    """Two triangles (a, b, b1), (a, b1, a1) per quad of a grid whose row
    k holds nodes k * n to k * n + n - 1: a, a1 next in row k (``wrap``
    closes the row), b, b1 beside them in row k + 1.  Both are
    counterclockwise when the turn from a -> b to a -> a1 is.  Row by
    row, the first triangles come before the second ones."""
    j = np.arange(n if wrap else n - 1)
    row = n * np.arange(rows - 1)[:, None]
    a, a1 = row + j, row + (j + 1) % n
    b, b1 = a + n, a1 + n
    return np.stack([np.stack([a, b, b1], axis=-1),
                     np.stack([a, b1, a1], axis=-1)],
                    axis=1).reshape(-1, 3).astype(np.int64)


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
    _check_size("annulus", (_steps(2.0 * np.pi * r_mid, target_h) + 9.0)
                * (_steps(r_outer - r_inner, target_h) + 3.0))
    n_th = max(8, int(round(2.0 * np.pi * r_mid / target_h)))
    n_r = max(2, int(round((r_outer - r_inner) / target_h)))
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    points = np.concatenate([_ring_points((0.0, 0.0), r, n_th, stagger=False)
                             for r in radii])
    triangles = _quad_split(n_r + 1, n_th, wrap=True)
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
    _check_size("rect", (_steps(width, target_h) + 4.0)
                * (_steps(height, target_h) + 3.0))
    nx = max(2, int(round(width / target_h)))
    ny = max(2, int(round(height / target_h)))
    xs = np.linspace(0.0, width, nx + 1)
    if layer_split is not None:
        if not 0.0 < layer_split < 1.0:
            raise MeshError("layer_split must lie strictly inside (0, 1)")
        x_if = layer_split * width
        xs = distinct(np.append(xs, x_if))
        # drop grid lines indistinguishable from the interface
        close = np.isclose(xs, x_if, rtol=0.0, atol=0.05 * target_h)
        xs = np.sort(np.append(xs[~close], x_if))
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    triangles = _quad_split(len(xs), len(ys), wrap=False)
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


def _read_rows(path: str, payload: dict, key: str) -> np.ndarray:
    """The rows ``payload[key]`` of a mesh file, read as strictly as a
    config's numbers: node coordinates finite, triangle indices and labels
    integers in the int64 range (an integral float included).  Bools,
    strings and fractions are refused, not coerced."""
    integral = key == "triangles"
    width, form = (4, "[i, j, k, label] rows of integers in the int64 "
                      "range") if integral else \
        (2, "[x, y] rows of finite numbers")

    def fits(v) -> bool:
        if integral:
            return (type(v) is int or type(v) is float and v.is_integer()) \
                and -2**63 <= v < 2**63
        return type(v) in (int, float) and abs(v) <= sys.float_info.max

    rows = payload[key]
    for row in rows if isinstance(rows, list) else [rows]:
        shaped = isinstance(row, list) and len(row) == width
        for v in row if shaped else [row]:
            if not shaped or not fits(v):
                raise MeshError(f"mesh file {path}: {key} must be {form}, "
                                f"got {v!r}")
    return np.array(rows, dtype=np.int64 if integral else float) \
        .reshape(-1, width)


def load_mesh(path: str) -> Mesh:
    """Read the JSON mesh format and validate it.

    Its numbers are read as ``_read_rows`` reads them.  Clockwise
    triangles are reoriented silently; degenerate triangles, geometry
    beyond the float range, structural defects (nonmanifold edges, open
    boundary, disconnected background) and folds (two triangles on one
    side of their shared edge) raise ``MeshError``, which names the file.
    """
    with open(path) as fh:
        payload = json.load(fh)
    try:
        nodes = _read_rows(path, payload, "nodes")
        rows = _read_rows(path, payload, "triangles")
    except (KeyError, TypeError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from None
    try:  # an index past the nodes fails in _orient_ccw, before Mesh
        mesh = Mesh(nodes, _orient_ccw(nodes, rows[:, :3]), rows[:, 3])
    except (MeshError, IndexError) as exc:
        raise MeshError(f"invalid mesh {path}: {exc}") from None
    problems = validate(mesh)
    if problems:
        raise MeshError(f"invalid mesh {path}: " + "; ".join(problems))
    # each triangle now runs counterclockwise, so the two triangles of an
    # interior edge run along it in opposite directions; in the same
    # direction both lie on one side of it, one folded over the other
    sides, n = _sides(mesh.triangles), mesh.n_nodes
    keys = np.sort(sides[:, 0] * n + sides[:, 1])
    folded = keys[1:][keys[1:] == keys[:-1]]
    if len(folded):
        a, b = divmod(int(folded[0]), n)
        raise MeshError(f"invalid mesh {path}: the mesh folds over edge "
                        f"({a}, {b}), whose two triangles lie on one side "
                        f"of it")
    return mesh
