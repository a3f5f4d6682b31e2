"""Mesh construction, validation diagnostics, boundary mass, file I/O."""

import copy
import json
import logging
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import reference
from condlab import mesh as mesh_mod
from condlab.cli import mesh_from_spec
from condlab.mesh import (
    DiskInclusion,
    Mesh,
    MeshError,
    PolygonInclusion,
    adjacency,
    boundary_mass,
    build_annulus_mesh,
    build_disk_mesh,
    build_rect_mesh,
    delaunay,
    load_mesh,
    reach,
    reverse_cuthill_mckee,
    _disk_cloud,
    _edge_connected,
    _edge_incidence,
    _incircle,
    _orient,
    save_mesh,
    validate,
)


def square_mesh():
    """Unit square out of two triangles, all label 0."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(nodes, tris, np.zeros(2, dtype=int))


def bowtie_mesh():
    """Two triangles joined only through node 0 (pinched boundary)."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [-1.0, 0.0], [0.0, -1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    return Mesh(nodes, tris, np.zeros(2, dtype=int))


# ---------------------------------------------------------------------------
# areas and geometry


def test_disk_area_within_two_percent(disk):
    assert abs(disk.areas.sum() - np.pi) <= 0.02 * np.pi


def test_disk_area_error_decreases_with_refinement():
    errs = []
    for h in (0.4, 0.2, 0.1):
        m = build_disk_mesh(1.0, h)
        errs.append(abs(m.areas.sum() - np.pi))
    assert errs[0] > errs[1] > errs[2]


def test_annulus_area():
    m = build_annulus_mesh(0.5, 1.0, 0.1)
    exact = np.pi * (1.0 - 0.25)
    assert abs(m.areas.sum() - exact) <= 0.02 * exact


def test_rect_area_exact():
    m = build_rect_mesh(2.0, 1.0, 0.25)
    assert abs(m.areas.sum() - 2.0) < 1e-12


def test_all_areas_positive(disk):
    assert np.all(disk.areas > 0)


def test_gradient_of_linear_field(square):
    u = 2.0 * square.nodes[:, 0] + 3.0 * square.nodes[:, 1]
    g = np.einsum("mij,mj->mi", square.grads, u[square.triangles])
    assert np.allclose(g[:, 0], 2.0, atol=1e-12)
    assert np.allclose(g[:, 1], 3.0, atol=1e-12)


def test_hat_gradients_sum_to_zero(disk):
    # partition of unity: the three hat gradients cancel on every triangle
    assert np.allclose(disk.grads.sum(axis=2), 0.0, atol=1e-10)


def test_relabeled_shares_geometry(disk):
    new = np.ones(disk.n_triangles, dtype=int)
    m2 = disk.relabeled(new)
    assert m2.nodes is disk.nodes
    assert np.array_equal(m2.labels, new)
    assert np.array_equal(disk.labels, np.zeros(disk.n_triangles))


def test_relabeled_reuses_the_derived_geometry(disk):
    m2 = disk.relabeled(np.ones(disk.n_triangles, dtype=int))
    assert m2.grads is disk.grads
    assert m2.areas is disk.areas
    assert m2.boundary_edges is disk.boundary_edges
    assert m2.boundary_nodes is disk.boundary_nodes
    assert m2.labels.dtype == np.int64


def test_relabeled_checks_the_label_shape(disk):
    with pytest.raises(MeshError, match="one entry per triangle"):
        disk.relabeled(np.ones(disk.n_triangles + 1, dtype=int))


def edge_search(triangles):
    """Triangles reached from triangle 0 through shared edges, in
    breadth-first order."""
    by_edge = {}
    for t, tri in enumerate(triangles.tolist()):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            by_edge.setdefault(frozenset((tri[a], tri[b])), []).append(t)
    order = [0]
    for t in order:
        tri = triangles[t].tolist()
        for a, b in ((0, 1), (1, 2), (2, 0)):
            for u in by_edge[frozenset((tri[a], tri[b]))]:
                if u not in order:
                    order.append(u)
    return order


def test_edge_connectivity_matches_a_breadth_first_search(disk, rng):
    grown = edge_search(disk.triangles)
    assert len(grown) == disk.n_triangles and _edge_connected(disk.triangles)
    answers = set()
    for _ in range(10):
        # a breadth-first prefix is connected; a random half rarely is
        region = disk.triangles[grown[:rng.integers(2, disk.n_triangles)]]
        half = disk.triangles[rng.random(disk.n_triangles) < 0.5]
        for tris in (region, half):
            ours = _edge_connected(tris)
            assert ours == (len(edge_search(tris)) == len(tris))
            answers.add(ours)
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# validate: clean builders


def test_validate_clean_on_builders():
    for m in (
        build_disk_mesh(1.0, 0.2),
        build_disk_mesh(1.0, 0.15,
                        inclusions=[DiskInclusion((0.3, 0.0), 0.2, 1)]),
        build_annulus_mesh(0.5, 1.0, 0.15),
        build_rect_mesh(1.0, 1.0, 0.25),
    ):
        assert validate(m) == []


def test_layered_rect_validates_clean():
    # the layered rectangle is a 1D fixture whose second phase reaches the
    # boundary on purpose; where labels sit is no structural rule
    m = build_rect_mesh(1.0, 1.0, 0.25, layer_split=0.5)
    assert m.on_boundary[m.triangles[m.labels == 1]].any()
    assert validate(m) == []


def test_polygon_inclusion_builds_clean():
    tri = PolygonInclusion(((-0.2, -0.2), (0.2, -0.2), (0.0, 0.25)), 1)
    m = build_disk_mesh(1.0, 0.15, inclusions=[tri])
    assert validate(m) == []
    assert np.any(m.labels == 1)


# ---------------------------------------------------------------------------
# validate: crafted defects, one per diagnostic


def test_nonpositive_area_rejected_at_construction():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="nonpositive area"):
        Mesh(nodes, np.array([[0, 2, 1]]), np.zeros(1, dtype=int))


@pytest.mark.parametrize("nodes, message", [
    # counterclockwise, but its area underflows to 0
    ([[0.0, 0.0], [1e-300, 0.0], [0.0, 1e-300]],
     "degenerate (zero-area) triangle 0"),
    # its area overflows, in float and in the exact product
    ([[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]],
     "triangle 0 has an area or gradient beyond the float range"),
    # a finite area, 5e-11, and a gradient of about 2e310
    ([[0.0, 0.0], [1e300, 0.0], [0.0, 1e-310]],
     "triangle 0 has an area or gradient beyond the float range"),
])
def test_geometry_outside_the_float_range_is_refused(nodes, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        Mesh(np.array(nodes), np.array([[0, 1, 2]]), np.zeros(1, dtype=int))


def test_sliver_area_is_the_exact_area_rounded_once():
    # 1/7 is inexact in binary: the points are collinear on the lattice
    # but turn counterclockwise in float, and the plain float formula
    # rounds the area of the sliver they span to 0
    nodes = np.array([[0.0, 1.0], [1.0, 2.0], [4.0, 5.0]]) / 7
    (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in nodes.tolist())
    exact = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2
    assert exact > 0
    mesh = Mesh(nodes, np.array([[0, 1, 2]]), np.zeros(1, dtype=int))
    assert mesh.areas[0] == float(exact)
    assert np.isfinite(mesh.grads).all()
    with pytest.raises(MeshError, match="nonpositive area"):
        Mesh(nodes, np.array([[0, 2, 1]]), np.zeros(1, dtype=int))


def test_validate_nonmanifold_edge():
    # three triangles stacked on the same edge (0, 1)
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                      [0.5, 2.0], [0.5, 3.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    m = Mesh(nodes, tris, np.zeros(3, dtype=int))
    assert any("nonmanifold edge" in p for p in validate(m))


def test_validate_boundary_not_closed():
    # duplicating one triangle of a square swallows two boundary edges
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 1, 2]])
    m = Mesh(nodes, tris, np.zeros(3, dtype=int))
    assert any("boundary not closed at node" in p for p in validate(m))


def test_validate_boundary_pinch():
    assert any("boundary pinches at node 0" in p
               for p in validate(bowtie_mesh()))


def test_validate_background_disconnected():
    assert any("background (label 0) is not edge-connected" in p
               for p in validate(bowtie_mesh()))


def test_validate_negative_label():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(nodes, np.array([[0, 1, 2]]), np.array([-1]))
    assert any("negative region label" in p for p in validate(m))


def test_validate_no_background():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(nodes, np.array([[0, 1, 2]]), np.array([1]))
    assert any("no background (label 0)" in p for p in validate(m))


def test_disk_builder_refuses_an_inclusion_touching_the_boundary(
        monkeypatch):
    # validate has no rule on where labels sit; the disk builder, which
    # promises interior inclusions, keeps it even past its clearance test
    assert validate(square_mesh().relabeled(np.array([0, 1]))) == []
    monkeypatch.setattr(mesh_mod, "_inclusion_extent_ok",
                        lambda *args, **kwargs: True)
    with pytest.raises(MeshError, match=r"disk mesh generation failed: "
                       r"inclusion touches boundary \(triangle \d+, "
                       r"label 1\)"):
        build_disk_mesh(1.0, 0.3, [DiskInclusion((0.9, 0.0), 0.3, 1)])


def test_validate_duplicate_triangles():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [1, 2, 0]])  # same triple, rotated
    m = Mesh(nodes, tris, np.zeros(2, dtype=int))
    assert validate(m) == ["duplicate triangles present"]


def test_edge_incidence_matches_row_unique(disk):
    tris = disk.triangles
    e = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                tris[:, [2, 0]]]), axis=1)
    ref_edges, ref_counts = np.unique(e, axis=0, return_counts=True)
    edges, counts = _edge_incidence(tris, disk.n_nodes)
    assert edges.dtype == ref_edges.dtype
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(counts, ref_counts)


# ---------------------------------------------------------------------------
# generator argument errors


@pytest.mark.parametrize("kind, build", [
    ("disk", lambda: build_disk_mesh(1.0, 0.4)),
    ("annulus", lambda: build_annulus_mesh(0.5, 1.0, 0.25)),
    ("rect", lambda: build_rect_mesh(1.0, 1.0, 0.5)),
])
def test_each_build_logs_one_line(caplog, kind, build):
    with caplog.at_level(logging.DEBUG, logger="condlab.mesh"):
        mesh = build()
    lines = [r.getMessage() for r in caplog.records]
    assert lines == [f"built {kind} mesh: {mesh.n_nodes} nodes, "
                     f"{mesh.n_triangles} triangles"]


def test_inclusion_must_stay_inside():
    with pytest.raises(MeshError, match="outside the outer boundary"):
        build_disk_mesh(1.0, 0.2, inclusions=[DiskInclusion((0.9, 0.0),
                                                            0.3, 1)])


def test_inclusion_labels_unique():
    incs = [DiskInclusion((-0.4, 0.0), 0.15, 1),
            DiskInclusion((0.4, 0.0), 0.15, 1)]
    with pytest.raises(MeshError, match="duplicate inclusion label"):
        build_disk_mesh(1.0, 0.15, inclusions=incs)


def test_inclusion_label_positive():
    with pytest.raises(MeshError, match="must be >= 1"):
        build_disk_mesh(1.0, 0.2, inclusions=[DiskInclusion((0.0, 0.0),
                                                            0.2, 0)])


def test_inclusions_must_not_overlap():
    incs = [DiskInclusion((-0.1, 0.0), 0.2, 1),
            DiskInclusion((0.1, 0.0), 0.2, 2)]
    with pytest.raises(MeshError, match="overlap"):
        build_disk_mesh(1.0, 0.15, inclusions=incs)


# a square of side 1 about the origin: an inclusion of size 0.1 fits
# between the points of its cloud's interior lattice (spacing 1/3)
SQUARE = PolygonInclusion(((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5),
                           (-0.5, 0.5)), 1)


@pytest.mark.parametrize("inner", [
    DiskInclusion((0.0, 0.0), 0.1, 2),
    PolygonInclusion(((0.12, 0.12), (0.22, 0.12), (0.22, 0.22),
                      (0.12, 0.22)), 2)], ids=["disk", "square"])
def test_an_inclusion_inside_another_is_refused(inner):
    for incs in ([SQUARE, inner], [inner, SQUARE]):
        with pytest.raises(MeshError, match="overlap or nearly touch"):
            build_disk_mesh(1.0, 0.1, inclusions=incs)


@pytest.mark.parametrize("x, ok", [(0.655, True), (0.645, False)])
def test_a_disk_beside_a_square_keeps_the_gap(x, ok):
    # the disk's edge lies 0.055 or 0.045 from the square, against a
    # gap of 0.05
    incs = [SQUARE, DiskInclusion((x, 0.0), 0.1, 2)]
    if not ok:
        with pytest.raises(MeshError, match="overlap or nearly touch"):
            build_disk_mesh(1.0, 0.1, inclusions=incs)
        return
    mesh = build_disk_mesh(1.0, 0.1, inclusions=incs)
    assert validate(mesh) == []
    assert set(np.unique(mesh.labels).tolist()) == {0, 1, 2}


def test_crossing_polygons_are_refused():
    # a plus sign: neither bar holds a vertex of the other
    bar = ((-0.4, -0.1), (0.4, -0.1), (0.4, 0.1), (-0.4, 0.1))
    incs = [PolygonInclusion(bar, 1),
            PolygonInclusion(tuple((y, x) for x, y in bar[::-1]), 2)]
    with pytest.raises(MeshError, match="overlap or nearly touch"):
        build_disk_mesh(1.0, 0.1, inclusions=incs)


def squares_apart(gap, shift):
    """Two squares of side 0.4: the second starts ``gap`` to the right of
    the first and is shifted up by ``shift``."""
    def square(x, y, label):
        return PolygonInclusion(((x, y), (x + 0.4, y), (x + 0.4, y + 0.4),
                                 (x, y + 0.4)), label)
    return [square(-0.42, -0.2, 1), square(-0.02 + gap, -0.2 + shift, 2)]


@pytest.mark.parametrize("gap", [0.04, 0.03])
def test_two_polygons_closer_than_the_gap_are_refused(gap):
    # the required gap is half of target_h, 0.05
    with pytest.raises(MeshError, match="overlap or nearly touch"):
        build_disk_mesh(1.0, 0.1, inclusions=squares_apart(gap, 0.066))


@pytest.mark.parametrize("shift", [0.0, 0.066])
def test_two_polygons_beyond_the_gap_build(shift):
    mesh = build_disk_mesh(1.0, 0.1, inclusions=squares_apart(0.06, shift))
    assert validate(mesh) == []
    assert set(np.unique(mesh.labels).tolist()) == {0, 1, 2}


@pytest.mark.parametrize("vertices, fault", [
    ([[0.0, 0.0], [0.3, 0.0]], "needs at least 3 vertices, got 2"),
    ([[0.0, 0.0], [0.3, 0.0], [0.3, 0.0], [0.3, 0.3]],
     "has an edge of zero length"),
    ([[0.0, 0.0], [0.3, 0.0], [0.3, 0.3], [0.0, 0.0]],
     "has an edge of zero length"),
    ([[0.0, 0.0], [0.1, 0.1], [0.3, 0.3]], "has zero area"),
    ([[0.0, 0.0], [0.3, 0.3], [0.3, 0.0], [0.0, 0.3]], "has zero area"),
    ([[0.0, 0.0], [0.4, 0.35], [0.3, 0.0], [0.0, 0.3]],
     "has edges that cross"),
    ([[0.0, 0.0], [0.3, 0.0], [0.3, 0.3], [0.15, 0.0], [0.0, 0.3]],
     "has edges that cross")],
    ids=["two vertices", "repeated vertex", "closing vertex", "collinear",
         "symmetric bow-tie", "bow-tie", "touching"])
def test_a_degenerate_polygon_is_refused(vertices, fault):
    inc = PolygonInclusion(tuple(map(tuple, vertices)), 3)
    with pytest.raises(MeshError) as err:
        build_disk_mesh(1.0, 0.1, inclusions=[inc])
    assert str(err.value) == f"inclusion label 3: the polygon {fault}"


def test_a_clockwise_polygon_meshes_like_its_reverse():
    ccw = ((0.0, 0.0), (0.3, 0.0), (0.3, 0.3), (0.0, 0.3))
    a = build_disk_mesh(1.0, 0.1, inclusions=[PolygonInclusion(ccw, 1)])
    b = build_disk_mesh(1.0, 0.1,
                        inclusions=[PolygonInclusion(ccw[::-1], 1)])
    assert np.count_nonzero(a.labels == 1) > 0
    assert np.count_nonzero(b.labels == 1) == np.count_nonzero(a.labels == 1)
    # a U whose two collinear top edges do not meet is simple
    u = ((0.0, 0.0), (0.3, 0.0), (0.3, 0.2), (0.2, 0.2), (0.2, 0.1),
         (0.1, 0.1), (0.1, 0.2), (0.0, 0.2))
    assert validate(build_disk_mesh(1.0, 0.1,
                                    inclusions=[PolygonInclusion(u, 1)])) \
        == []


def test_annulus_radius_order():
    with pytest.raises(MeshError, match="r_inner < r_outer"):
        build_annulus_mesh(1.0, 0.5, 0.1)


def test_rect_layer_split_range():
    with pytest.raises(MeshError, match="layer_split"):
        build_rect_mesh(1.0, 1.0, 0.25, layer_split=1.5)


# ---------------------------------------------------------------------------
# boundary mass


def test_boundary_mass_unit_square():
    bm = boundary_mass(square_mesh())
    assert np.array_equal(bm.node_ids, [0, 1, 2, 3])
    assert np.allclose(bm.weights, 1.0, atol=1e-15)
    assert abs(bm.total - 4.0) < 1e-14


def test_boundary_mass_circle_perimeter(disk):
    assert abs(boundary_mass(disk).total - 2.0 * np.pi) <= 0.01 * 2.0 * np.pi


def test_boundary_mass_node_ids_sorted(disk):
    ids = boundary_mass(disk).node_ids
    assert np.all(np.diff(ids) > 0)


def test_boundary_mass_invariant_under_triangle_reorder(disk, rng):
    perm = rng.permutation(disk.n_triangles)
    shuffled = Mesh(disk.nodes, disk.triangles[perm], disk.labels[perm])
    a, b = boundary_mass(disk), boundary_mass(shuffled)
    assert np.array_equal(a.node_ids, b.node_ids)
    assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------------------------
# file I/O


def test_save_load_roundtrip(tmp_path):
    m = build_disk_mesh(1.0, 0.2,
                        inclusions=[DiskInclusion((0.0, 0.0), 0.3, 1)])
    path = tmp_path / "disk.json"
    save_mesh(m, str(path))
    m2 = load_mesh(str(path))
    assert np.allclose(m2.nodes, m.nodes, atol=0.0)
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.labels, m.labels)


def test_load_reorients_clockwise_rows(tmp_path):
    path = tmp_path / "cw.json"
    payload = {"nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
               "triangles": [[0, 2, 1, 0]]}
    path.write_text(json.dumps(payload))
    m = load_mesh(str(path))
    assert m.areas[0] > 0


def test_load_rejects_degenerate_triangle(tmp_path):
    path = tmp_path / "flat.json"
    payload = {"nodes": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
               "triangles": [[0, 1, 2, 0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(MeshError, match="degenerate"):
        load_mesh(str(path))


def test_load_rejects_invalid_structure(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
               "triangles": [[0, 1, 2, 0], [1, 2, 0, 0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(MeshError, match="invalid mesh .*: duplicate "
                                        "triangles present"):
        load_mesh(str(path))


# the five-node square: four triangles about its centre node
SQUARE5 = {"nodes": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
           "triangles": [[0, 1, 4, 0], [1, 2, 4, 0], [2, 3, 4, 0],
                         [3, 0, 4, 0]]}


@pytest.mark.parametrize("key, row, col, value, message", [
    ("nodes", 4, 0, float("nan"), "nodes must be [x, y] rows of finite "
                                  "numbers, got nan"),
    ("nodes", 4, 0, 10**400, "finite numbers, got 1000"),
    ("nodes", 4, 1, True, "finite numbers, got True"),
    ("nodes", 4, 1, "0.5", "finite numbers, got '0.5'"),
    ("triangles", 0, 2, 0.5, "triangles must be [i, j, k, label] rows of "
                             "integers in the int64 range, got 0.5"),
    ("triangles", 0, 3, 0.5, "in the int64 range, got 0.5"),
    ("triangles", 0, 3, 2**70,
     "in the int64 range, got 1180591620717411303424"),
    ("triangles", 0, 3, 2.0**63,
     "in the int64 range, got 9.223372036854776e+18"),
    ("triangles", 0, 3, False, "in the int64 range, got False"),
    ("triangles", 0, 3, None, "in the int64 range, got None"),
    ("triangles", 0, None, [0, 1, 4], "rows of integers in the int64 range, "
                                      "got [0, 1, 4]"),
], ids=["nan coordinate", "coordinate past the float range", "bool "
        "coordinate", "string coordinate", "fractional index", "fractional "
        "label", "label past int64", "float label past int64", "bool label",
        "null label", "three-column row"])
def test_load_reads_numbers_as_strictly_as_a_config(tmp_path, key, row, col,
                                                    value, message):
    payload = copy.deepcopy(SQUARE5)
    if col is None:
        payload[key][row] = value
    else:
        payload[key][row][col] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(MeshError) as info:
        load_mesh(str(path))
    assert str(info.value).startswith(f"mesh file {path}: {key} must be ")
    assert message in str(info.value)


def test_load_takes_integral_floats_as_integers(tmp_path):
    payload = copy.deepcopy(SQUARE5)
    payload["triangles"][0] = [0.0, 1, 4.0, -0.0]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    m = load_mesh(str(path))
    assert m.triangles.dtype == np.int64
    assert np.array_equal(m.triangles[0], [0, 1, 4])


def test_load_rejects_missing_key(tmp_path):
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps({"nodes": [[0.0, 0.0]]}))
    with pytest.raises(MeshError, match="malformed mesh file"):
        load_mesh(str(path))


def test_load_rejects_three_column_rows(tmp_path):
    path = tmp_path / "short.json"
    payload = {"nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
               "triangles": [[0, 1, 2]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(MeshError, match=r"\[i, j, k, label\]"):
        load_mesh(str(path))


# ---------------------------------------------------------------------------
# property: every generated disk is clean across sizes


@settings(max_examples=8, deadline=None)
@given(radius=st.floats(0.5, 2.0), rel_h=st.floats(0.12, 0.3))
def test_generated_disks_always_clean(radius, rel_h):
    m = build_disk_mesh(radius, rel_h * radius)
    assert validate(m) == []
    exact = np.pi * radius ** 2
    assert abs(m.areas.sum() - exact) <= 0.02 * exact


# ---------------------------------------------------------------------------
# the Delaunay mesher, with Qhull as the oracle of the hull


def exact_coords(points):
    """The coordinates as Python integers over one common denominator."""
    fr = [Fraction(v) for v in points.ravel().tolist()]
    den = math.lcm(*(f.denominator for f in fr))
    return np.array([int(f * den) for f in fr], dtype=object).reshape(-1, 2)


@st.composite
def delaunay_clouds(draw):
    """Distinct points that are not all on one line, of three kinds:
    points of a 7 x 7 lattice over 7, where the lattice's many collinear
    and cocircular sets are nearly, not exactly, so in float (1/7 is
    inexact in binary), points on a fine dyadic grid, and the staggered
    rings of the disk mesher (nearly cocircular).  Lattice and grid are
    scaled by a power of two, which changes no predicate."""
    kind = draw(st.sampled_from(["lattice", "grid", "rings"]))
    if kind == "rings":
        radius = draw(st.floats(1e-4, 10.0))
        center = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
        return _disk_cloud(center, radius, draw(st.floats(0.3, 0.8)) * radius)
    side = 7 if kind == "lattice" else 2 ** 20
    ints = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    pts = np.array(draw(st.lists(ints, min_size=3, max_size=40,
                                 unique=True)), dtype=float)
    d = pts[1:] - pts[0]
    assume(np.any(d[:, 0] * d[1, 1] != d[:, 1] * d[1, 0]))
    return np.ldexp(pts / side, draw(st.integers(-20, 20)))


def twice_hull_area(xy):
    """Twice the area of the convex hull of integer points, exactly: the
    shoelace sum over Andrew's monotone chain."""
    pts = sorted(map(tuple, xy))

    def half(seq):
        out = []
        for x, y in seq:
            while len(out) > 1:
                (ax, ay), (bx, by) = out[-2:]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append((x, y))
        return out[:-1]

    hull = half(pts) + half(reversed(pts))
    return sum(hull[k - 1][0] * hull[k][1] - hull[k][0] * hull[k - 1][1]
               for k in range(len(hull)))


def sign(v):
    return (v > 0) - (v < 0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4),
                 st.integers(1, 4)),
       st.permutations(range(4)),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=5, max_size=5),
       st.integers(-30, 0))
def test_predicates_are_exact_near_degenerate_points(box, order, ulps,
                                                     scale):
    # the corners of a lattice rectangle (cocircular) and the midpoint of
    # its diagonal (collinear with two corners), each moved by a few units
    # in the last place, where the float determinants lose their sign
    i0, j0, width, height = box
    i1, j1 = i0 + width, j0 + height
    corners = [(i0, j0), (i1, j0), (i1, j1), (i0, j1)]
    base = np.array([corners[k] for k in order]
                    + [((i0 + i1) / 2, (j0 + j1) / 2)]) / 16.0 + 0.25
    pts = np.ldexp(base + np.array(ulps) * np.spacing(base), scale)
    x, y = pts[:, 0].tolist(), pts[:, 1].tolist()
    exact = [(Fraction(u), Fraction(v)) for u, v in zip(x, y)]
    a, c = order.index(0), order.index(2)
    (ax, ay), (mx, my), (cx, cy) = exact[a], exact[4], exact[c]
    assert _orient(x, y, a, 4, c) == sign(
        (ax - cx) * (my - cy) - (ay - cy) * (mx - cx))
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = exact[:4]
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, \
        cx - dx, cy - dy
    assert _incircle(x, y, 0, 1, 2, 3) == sign(
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))


@settings(max_examples=60, deadline=None)
@given(delaunay_clouds())
@example(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 68914.0]]))
@example(np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 2.0], [4.0, 5.0]]) / 7.0)
@example(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 2.0], [4.0, 5.0]]) / 7.0)
def test_delaunay_is_delaunay_and_covers_the_hull(points):
    tris = delaunay(points)
    n = len(points)
    assert sorted(set(tris.ravel().tolist())) == list(range(n))
    xy = exact_coords(points)
    a, b, c = (xy[tris[:, j]] for j in range(3))
    orient = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assert all(orient > 0)
    # no vertex lies strictly inside a circumcircle, in exact arithmetic
    d = xy[None, :, :]
    ad, bd, cd = a[:, None, :] - d, b[:, None, :] - d, c[:, None, :] - d
    lift = [(v[..., 0] ** 2 + v[..., 1] ** 2) for v in (ad, bd, cd)]
    incircle = lift[0] * (bd[..., 0] * cd[..., 1] - cd[..., 0] * bd[..., 1]) \
        + lift[1] * (cd[..., 0] * ad[..., 1] - ad[..., 0] * cd[..., 1]) \
        + lift[2] * (ad[..., 0] * bd[..., 1] - bd[..., 0] * ad[..., 1])
    assert not (incircle > 0).any()
    mesh = Mesh(points, tris, np.zeros(len(tris), dtype=int))
    assert validate(mesh) == []
    # twice the areas against twice the hull's area, both exact: qhull's
    # float volume loses digits on slivers, and its vertices can miss a
    # hull point that is not collinear in float
    assert orient.sum() == twice_hull_area(xy)
    # a power-of-two scale and the repeat give the same triangles
    assert np.array_equal(delaunay(np.ldexp(points, -11)), tris)


def test_delaunay_refuses_coincident_and_collinear_points():
    with pytest.raises(MeshError,
                       match=r"points coincide in float \(1 repeated\)"):
        delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(MeshError, match="no three points span a triangle"):
        delaunay(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]))
    with pytest.raises(MeshError, match="must be finite"):
        delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]]))


def test_disk_with_coincident_points_fails_before_triangulating(monkeypatch):
    # far from the origin every ring point rounds onto the centre's x
    calls = []
    monkeypatch.setattr("condlab.mesh._orient", lambda *a: calls.append(a))
    with pytest.raises(MeshError, match="disk mesh generation failed: "
                                        "points coincide in float"):
        build_disk_mesh(1.0, 0.3, center=(1e308, 0.0))
    assert calls == []


def test_cocircular_quads_keep_the_first_diagonal():
    # a square's four corners are cocircular: the insertion order decides,
    # and the diagonal from the first point stays
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert delaunay(square).tolist() == [[0, 1, 2], [0, 2, 3]]
    assert delaunay(square[[1, 2, 3, 0]]).tolist() == [[0, 1, 2], [0, 2, 3]]


# ---------------------------------------------------------------------------
# the mesher against the one it replaced, which kept its triangles in flat
# vertex and neighbour lists and walked from the last triangle made


@settings(max_examples=200, deadline=None)
@given(delaunay_clouds())
def test_delaunay_equals_its_oracle(points):
    # the same insertion order, predicates and tie rule: the same triangles
    assert np.array_equal(delaunay(points), reference.delaunay(points))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_disk_clouds(config, monkeypatch):
    """The point cloud of every disk mesh that the config builds, one per
    resolution of a ladder, as the mesher receives it."""
    cfg = json.loads((CONFIGS / config).read_text())
    specs, todo = [], [cfg]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            if node.get("kind") == "disk":
                specs.append(node)
            todo.extend(node.values())
        elif isinstance(node, list):
            todo.extend(node)
    clouds = []

    def keeping(points):
        clouds.append(points)
        return delaunay(points)

    monkeypatch.setattr("condlab.mesh.delaunay", keeping)
    for spec in specs:
        for h in cfg.get("resolutions") or [spec["target_h"]]:
            mesh_from_spec(dict(spec, target_h=h), str(CONFIGS))
    return clouds


@pytest.mark.parametrize("config", sorted(p.name
                                          for p in CONFIGS.glob("*.json")))
def test_delaunay_equals_its_oracle_on_the_shipped_disks(config,
                                                         monkeypatch):
    for points in shipped_disk_clouds(config, monkeypatch):
        assert np.array_equal(delaunay(points), reference.delaunay(points))


def cocircular_sides(points, tris):
    """Interior sides whose two triangles have one circumcircle, exactly."""
    xy = np.ldexp(points, -np.frexp(np.abs(points).max())[1])
    x, y = xy[:, 0].tolist(), xy[:, 1].tolist()
    opposite, ties = {}, 0
    for a, b, c in tris.tolist():
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            side = (min(u, v), max(u, v))
            if side in opposite:
                ties += _incircle(x, y, a, b, c, opposite[side]) == 0
            opposite[side] = w
    return ties


@pytest.mark.parametrize("config", ["wire_tables.json",
                                    "wire_tables_unitscale.json"])
def test_shipped_wire_disks_hold_cocircular_ties(config, monkeypatch):
    # so the comparison above covers the tie rule: on each wire disk some
    # triangles made first stay against a point on their circumcircle
    for points in shipped_disk_clouds(config, monkeypatch):
        assert cocircular_sides(points, delaunay(points)) > 0


# ---------------------------------------------------------------------------
# graph helpers against scipy.sparse.csgraph


def scipy_graph(a, b, n):
    """The undirected graph of the pairs as a canonical scipy CSR matrix."""
    return sparse.csr_matrix((np.ones(2 * len(a)), (np.r_[a, b], np.r_[b, a])),
                             shape=(n, n))


@st.composite
def pair_graphs(draw):
    """Pairs within random blocks of shuffled nodes: several components,
    isolated nodes, some diagonal pairs and many tied degrees."""
    n = draw(st.integers(1, 30))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    a, b = [], []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        if hi > lo:
            k = draw(st.integers(0, 2 * (hi - lo)))
            nodes = st.lists(st.integers(lo, hi - 1), min_size=k, max_size=k)
            a += draw(nodes)
            b += draw(nodes)
    perm = np.array(draw(st.permutations(range(n))))
    return perm[np.array(a, dtype=int)], perm[np.array(b, dtype=int)], n


@settings(max_examples=150, deadline=None)
@given(pair_graphs())
def test_graph_helpers_match_scipy(graph):
    a, b, n = graph
    ref = scipy_graph(a, b, n)
    indptr, indices = adjacency(a, b, n)
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert np.array_equal(reverse_cuthill_mckee(indptr, indices),
                          csgraph.reverse_cuthill_mckee(ref,
                                                        symmetric_mode=True))
    _, comp = csgraph.connected_components(ref, directed=False)
    for start in range(n):
        assert np.array_equal(reach(indptr, indices, start),
                              comp == comp[start])


def test_empty_graph():
    indptr, indices = adjacency([], [], 0)
    assert indptr.tolist() == [0] and len(indices) == 0
    assert len(reverse_cuthill_mckee(indptr, indices)) == 0


@pytest.mark.parametrize("h", [0.3, 0.15, 0.08])
def test_rcm_matches_scipy_on_disk_meshes(h):
    mesh = build_disk_mesh(1.0, h, inclusions=[
        DiskInclusion((0.3, 0.1), 0.3, 1)])
    tris = mesh.triangles
    a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    ref = scipy_graph(a, b, mesh.n_nodes)
    assert np.array_equal(
        reverse_cuthill_mckee(*adjacency(a, b, mesh.n_nodes)),
        csgraph.reverse_cuthill_mckee(ref, symmetric_mode=True))
