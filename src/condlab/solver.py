"""Dirichlet solver for div(sigma(x, |grad u|) grad u) = 0 on P1 meshes.

The discrete problem minimizes the convex energy

    E(u) = sum_T area_T * Q_label(T)(|grad u|_T)

over nodal fields with prescribed boundary trace, with one-point gradient
quadrature (P1 gradients are constant per triangle, so this is exact for
the P1 energy).  Structural regions change the unknown structure instead
of entering the sum:

* PEI triangles are excluded and their interior nodes removed; interface
  nodes stay free, which realizes the natural zero-flux condition.
* PEC triangles are excluded and all nodes of a conductor (PEC triangles
  joined through shared nodes) share one unknown; stationarity in it is
  exactly the zero net-interface-flux constraint.

Everything that depends only on the (mesh, material map) pair is compiled
once into a ``Problem``: the unknown map, the active-triangle slices of the
mesh arrays, the active triangles grouped by distinct law, and the
``Band``, whose one graph of the free unknowns proves that each reaches
the boundary and orders them for LAPACK lower band storage.  Its
cold-start stiffness (sigma-weighted when every law is p = 2, unit
otherwise) is factorized once, on first use, by LAPACK ``dpbtrf`` (through
ctypes in the OpenBLAS that numpy's wheel links, or from
``scipy.linalg.lapack``), so every cold start on the pair is one
``dpbtrs`` back-substitution; on a map of p = 2 laws that start is the
minimizer, and every solve starts there and takes no Newton step.  A
``Problem`` holds no per-datum state: ``solve`` takes one so that solves
on the same pair share it.  ``Problem.stages`` holds each continuation
stage's laws on the same active slots.  The solved ``PotentialField``
keeps its ``Problem`` and the nodal residual of its last point, which the
pairings in ``dtn`` read.

A ``Point`` is the one evaluator of a state, by one element pass: the
tolerance and round-off floor checks, the Hessian and the line search
all read it; an accepted line-search point is the next step's start, each
continuation stage starts where the last one stopped, and the solve's
closing residual and energy are the last point's.  Nodal states and
reductions to the free unknowns use fancy indexing and ``np.bincount``.

Newton direction from the symmetrized flux linearization: each step sums
the closed-form element Hessians into the band and solves by one banded
Cholesky factorization, with a diagonally scaled gradient as the fallback
when the factorization fails.  The step length is the root of the convex
ray's slope, found by an Illinois (modified regula falsi) iteration on
(0, 1] and accepted by the approximate Wolfe test: the slope shrank a
hundredfold and the energy rose by at most 1e-10 of its size, a slack
above the float resolution where flat (E-J) energies stop decreasing near
the minimizer.  Power-law floors follow a warm-started continuation
schedule that shrinks reg_eps tenfold per stage.  The last stage's exit,
``tol`` or ``floor``, is logged with the solve's ``SolveInfo`` counters at
debug level; a gradient norm, tolerance or energy that is not finite
raises a ``SolveError``.
"""
from __future__ import annotations

import ast
import ctypes
import functools
import logging
import operator
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Sequence

import numpy as np

from .constitutive import MaterialMap, scale_reg_eps
from .mesh import (BoundaryMass, Mesh, adjacency, boundary_mass, distinct,
                   reach, reverse_cuthill_mckee)

logger = logging.getLogger(__name__)


class SolveError(Exception):
    """Raised when the energy minimization cannot be completed."""


# ---------------------------------------------------------------------------
# boundary data


@dataclass(frozen=True)
class BoundaryDatum:
    """Zero-mean Dirichlet trace sampled at the mesh boundary nodes."""

    name: str
    node_ids: np.ndarray
    values: np.ndarray

    def scaled(self, alpha: float) -> "BoundaryDatum":
        return BoundaryDatum(self.name, self.node_ids, alpha * self.values)

    def plus(self, other: "BoundaryDatum",
             eps: float = 1.0) -> "BoundaryDatum":
        if self.node_ids.shape != other.node_ids.shape or \
                np.any(self.node_ids != other.node_ids):
            raise ValueError("data live on different boundaries")
        return BoundaryDatum(f"{self.name}+{eps:g}*{other.name}",
                             self.node_ids, self.values + eps * other.values)

    @property
    def amplitude(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def project_zero_mean(values: np.ndarray,
                      bmass: BoundaryMass) -> tuple[np.ndarray, float]:
    """Remove the weighted boundary mean; returns (shifted values, mean)."""
    values = np.asarray(values, dtype=float)
    if values.shape != bmass.node_ids.shape:
        raise ValueError("trace values misaligned with boundary nodes")
    mean = float(bmass.weights @ values / bmass.total)
    return values - mean, mean


@dataclass(frozen=True)
class DatumTerm:
    """One additive term of a boundary datum: amplitude times an
    arithmetic expression in x, y, r, theta and pi over the functions of
    ``_EXPR_NAMES`` (kind "expr").  The other kinds are shorthands for
    expressions (``_KIND_EXPRS``): "linear-x" (x), "linear-y" (y), "sin"
    (sin(k*theta)), "cos" (cos(k*theta)) and "exp-x2-2y" (exp(x**2 + 2*y)).
    """

    kind: str
    amplitude: float
    k: int = 1
    expr: str | None = None


_KIND_EXPRS = {"linear-x": "x", "linear-y": "y", "sin": "sin(k*theta)",
               "cos": "cos(k*theta)", "exp-x2-2y": "exp(x**2 + 2*y)"}
_EXPR_NAMES = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
               "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi,
               "atan2": np.arctan2}
_EXPR_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}


def _eval_expr(node: ast.AST, names: dict):
    """Evaluate a whitelisted expression tree: the given names, calls of
    the ``_EXPR_NAMES`` functions, + - * / **, unary minus and numeric
    literals.  Anything else raises ValueError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        return _EXPR_BINOPS[type(node.op)](_eval_expr(node.left, names),
                                           _eval_expr(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_expr(node.operand, names)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # float literals keep pure-constant powers from growing huge ints
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and callable(_EXPR_NAMES.get(node.func.id)) and not node.keywords:
        return _EXPR_NAMES[node.func.id](*[_eval_expr(a, names)
                                           for a in node.args])
    raise ValueError(f"expr element not allowed: {ast.unparse(node)!r}")


def _term_values(term: DatumTerm, xy: np.ndarray) -> np.ndarray:
    if term.kind == "expr":
        if not term.expr:
            raise ValueError("expr term needs an expression string")
        text, names = term.expr, {}
    elif term.kind in _KIND_EXPRS:
        text, names = _KIND_EXPRS[term.kind], {"k": term.k}
    else:
        raise ValueError(f"unknown datum term kind {term.kind!r}")
    x, y = xy[:, 0], xy[:, 1]
    names.update(x=x, y=y, r=np.hypot(x, y), theta=np.arctan2(y, x),
                 pi=np.pi)
    out = _eval_expr(ast.parse(text, mode="eval").body, names)
    return term.amplitude * np.broadcast_to(out, x.shape)


def make_datum(mesh: Mesh, terms: Sequence[DatumTerm], name: str,
               bmass: BoundaryMass | None = None) -> BoundaryDatum:
    """Evaluate terms at the boundary nodes and project to zero mean.  A
    datum constant on the boundary comes back as exact zeros.  A term,
    their sum or the projection that overflows, divides by zero or leaves
    the reals raises ValueError."""
    bm = bmass if bmass is not None else boundary_mass(mesh)
    xy = mesh.nodes[bm.node_ids]
    raw = np.zeros(len(xy))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for term in terms:
                raw = raw + _term_values(term, xy)
            values, _ = project_zero_mean(raw, bm)
    except ArithmeticError as exc:
        raise ValueError(f"trace is not finite: {exc}") from None
    except (RecursionError, MemoryError):
        # the parser gives up on a deep nest with a bare MemoryError
        raise ValueError("expr nests too deeply") from None
    # a constant projects to the round-off of its weighted mean, at most
    # an ulp of the amplitude per boundary node
    if np.all(np.abs(values) <= len(raw) * np.finfo(float).eps
              * np.max(np.abs(raw), initial=0.0)):
        values = np.zeros_like(values)
    return BoundaryDatum(name, bm.node_ids, values)


# ---------------------------------------------------------------------------
# compiled problem

_DIRICHLET = -1
_REMOVED = -2


def pec_conductors(mesh: Mesh, tris: np.ndarray, labels: np.ndarray
                   ) -> dict[int | str, np.ndarray]:
    """The nodes of each conductor that the PEC triangles ``tris`` of
    ``mesh``, of region ``labels``, make: the triangles joined through
    shared nodes, whatever their labels, in the order of their smallest
    label, then their first node.  The one piece of its one label is keyed
    by that label; other keys join their labels with "+" and number the
    pieces of the same labels "#0", "#1", ...  Raises ``SolveError`` for
    the first conductor with a node on the domain boundary."""
    triangles = mesh.triangles[tris]
    nodes = distinct(triangles)
    local = np.searchsorted(nodes, triangles)
    # each node takes the lowest number on its triangles until none
    # changes; then every node holds the first node of its conductor
    comp, low = None, np.arange(len(nodes))
    while not np.array_equal(low, comp):
        comp = low.copy()
        np.minimum.at(low, local, comp[local].min(axis=1, keepdims=True))
    found = sorted(((tuple(distinct(labels[comp[local[:, 0]] == c]).tolist()),
                     nodes[comp == c]) for c in distinct(comp)),
                   key=lambda conductor: conductor[0][0])
    names = ["+".join(map(str, labs)) for labs, _ in found]
    conductors: dict[int | str, np.ndarray] = {}
    for i, ((labs, members), name) in enumerate(zip(found, names)):
        if names.count(name) > 1:
            name += f"#{names[:i].count(name)}"
        key = labs[0] if name == str(labs[0]) else name
        if np.any(mesh.on_boundary[members]):
            raise SolveError(f"PEC component {key} touches the domain "
                             f"boundary")
        conductors[key] = members
    return conductors


class Problem:
    """One (mesh, material map) pair compiled for repeated solves.

    Unknown map: node -> column in ``free_of_node`` (``_DIRICHLET`` on the
    boundary, ``_REMOVED`` inside PEI regions), ``n_free`` columns, the
    nodes that carry a column, ``free_nodes`` (ascending), with their
    columns ``free_cols``, ``removed_nodes`` and the nodes of each PEC
    conductor in ``pec_groups`` (``pec_conductors``).  ``nodal_state``
    prolongs free unknowns to a nodal state and ``reduce`` sums nodal
    vectors onto the free unknowns.  ``triangles``, ``grads`` and ``areas`` are the mesh arrays
    restricted to the active (conducting) triangles ``active_tris``, in
    that order; ``groups`` pairs each distinct law with the active slots
    it governs; ``band`` is their ``Band``.  Every free unknown must reach
    the boundary through conducting triangles (a PEC component counts as
    one node), else the problem is singular and construction raises
    ``SolveError``.  A ``Problem`` evaluates no state: a ``Point`` does.
    """

    def __init__(self, mesh: Mesh, materials: MaterialMap):
        materials.check_covers(mesh.labels)
        models = {lab: materials.model_for(lab)
                  for lab in distinct(mesh.labels).tolist()}
        pec_labels = [lab for lab, m in models.items() if m.kind == "pec"]
        active_ids = np.nonzero(~np.isin(mesh.labels, [
            lab for lab, m in models.items() if m.is_structural]))[0]
        if not len(active_ids):
            raise SolveError("no conducting triangles")

        free_of_node = np.full(mesh.n_nodes, _REMOVED, dtype=np.int64)
        # a node of an active triangle is free, numbered below
        free_of_node[mesh.triangles[active_ids]] = 0
        free_of_node[mesh.on_boundary] = _DIRICHLET

        # one shared column per PEC conductor, numbered first
        on = np.isin(mesh.labels, pec_labels)
        pec_groups = pec_conductors(mesh, on, mesh.labels[on])
        merged = np.zeros(mesh.n_nodes, dtype=bool)
        merged[mesh.triangles[on]] = True
        ids = np.nonzero((free_of_node == 0) & ~merged)[0]
        free_of_node[ids] = len(pec_groups) + np.arange(len(ids))
        for col, nodes in enumerate(pec_groups.values()):
            free_of_node[nodes] = col
        n_free = len(pec_groups) + len(ids)

        self.mesh, self.materials = mesh, materials
        self.free_of_node, self.n_free = free_of_node, n_free
        self.free_nodes = np.nonzero(free_of_node >= 0)[0]
        self.free_cols = free_of_node[self.free_nodes]
        self.removed_nodes = np.nonzero(free_of_node == _REMOVED)[0]
        self.pec_groups = pec_groups

        self.active_tris = active_ids
        self.triangles = mesh.triangles[active_ids]
        self.band = Band(free_of_node[self.triangles], n_free)
        self.grads = mesh.grads[active_ids]
        self.areas = mesh.areas[active_ids]
        # per-basis gradient norms for the round-off floor
        self._gnorm = np.linalg.norm(self.grads, axis=1)
        self._gmax = self._gnorm.max(axis=1)

        active_labels = mesh.labels[active_ids]
        members: dict[object, list[int]] = {}
        for lab in sorted(set(active_labels.tolist())):
            members.setdefault(models[lab], []).append(lab)
        self.groups = tuple((model, np.nonzero(np.isin(active_labels,
                                                       labs))[0])
                            for model, labs in members.items())

    @functools.cached_property
    def bmass(self) -> BoundaryMass:
        """Boundary mass of the mesh, built on first use."""
        return boundary_mass(self.mesh)

    @functools.cached_property
    def unit_elements(self) -> np.ndarray:
        """Element stiffness matrices with unit conductivity, area * G^T G
        per active triangle, shape (m, 3, 3); built on first use."""
        return self.areas[:, None, None] * (self.grads.transpose(0, 2, 1)
                                            @ self.grads)

    @property
    def is_linear(self) -> bool:
        """Whether every law on the active triangles is p = 2, so that
        sigma does not depend on the field."""
        return all(model.p == 2.0 for model, _ in self.groups)

    @functools.cached_property
    def start_elements(self) -> np.ndarray:
        """Element stiffness matrices of the cold start: sigma-weighted
        when ``is_linear`` (the start is then the minimizer), else
        ``unit_elements``."""
        if not self.is_linear:
            return self.unit_elements
        sig = self.per_tri(np.zeros(len(self.areas)), "sigma")
        return sig[:, None, None] * self.unit_elements

    @functools.cached_property
    def start_factor(self) -> np.ndarray:
        """Banded Cholesky factor of the reduced ``start_elements``
        stiffness, built on first use and kept."""
        factor = self.band.factor(self.band.assemble(self.start_elements))
        if factor is None:  # round-off: the band proved every path
            raise SolveError("harmonic start: the start stiffness is not "
                             "positive definite")
        return factor

    @functools.cached_property
    def stages(self) -> tuple[tuple, ...]:
        """The law groups of each continuation stage: ``groups`` with every
        law's floor scaled by each ``_REG_SCHEDULE`` entry, the last being
        ``groups`` itself; just ``(groups,)`` when ``is_linear``, since a
        floor leaves a p = 2 law as it is.  Built on first use and kept."""
        if self.is_linear:
            return (self.groups,)
        return (*(tuple((scale_reg_eps(model, factor), sel)
                        for model, sel in self.groups)
                  for factor in _REG_SCHEDULE[:-1]), self.groups)

    def nodal_state(self, u_fix: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Nodal state u_fix + P x, NaN at removed nodes, where P is the
        0/1 (n_nodes, n_free) prolongation."""
        # adding 0.0 both copies u_fix and gives each entry the sign of
        # zero that the sum u_fix + P x gives it
        u = u_fix + 0.0
        u[self.free_nodes] += x[self.free_cols]
        u[self.removed_nodes] = np.nan
        return u

    def reduce(self, r: np.ndarray) -> np.ndarray:
        """Sum a nodal vector onto the free unknowns (P^T r), node by node
        in ascending order."""
        return np.bincount(self.free_cols, weights=r[self.free_nodes],
                           minlength=self.n_free)

    def grad_norms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradients (per active triangle, in active order) and their
        norms."""
        g = np.einsum("mij,mj->mi", self.grads, u[self.triangles])
        return g, np.linalg.norm(g, axis=1)

    def per_tri(self, norms: np.ndarray, what: str,
                groups: Sequence | None = None) -> np.ndarray:
        """Evaluate a law quantity per active triangle (active order),
        under ``groups`` (a ``stages`` entry; default ``groups``)."""
        out = np.empty(len(self.active_tris))
        for model, sel in self.groups if groups is None else groups:
            out[sel] = getattr(model, what)(norms[sel])
        return out

    def assemble(self, contrib: np.ndarray) -> np.ndarray:
        """Sum per-triangle node contributions into a nodal vector, in
        triangle order."""
        return np.bincount(self.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_nodes)


def stranded_error(count: int) -> SolveError:
    """The error for ``count`` free unknowns without a conducting path to
    the boundary."""
    return SolveError(f"{count} free unknowns have no conducting path to "
                      f"the boundary: the unit stiffness is singular")


class Band:
    """Lower LAPACK band storage of a reduced symmetric matrix assembled
    from 3x3 element matrices.

    Construction builds one graph of the free unknowns, joined when they
    share a triangle, and raises ``SolveError`` unless a search from the
    unknowns next to a Dirichlet node reaches them all (else the unit
    stiffness and every Hessian are singular).  The unknowns are taken in
    its reverse Cuthill-McKee order ``order`` (band position -> free
    unknown), which keeps the band narrow; computed in numpy
    (``mesh.reverse_cuthill_mckee``), it equals scipy's
    ``reverse_cuthill_mckee(graph, symmetric_mode=True)``.  Band
    row r, column j holds entry (j + r, j) of the reordered matrix.
    ``slots`` sends every element entry, in (m, 3, 3) order, to its flat
    index in the band array; entries on Dirichlet nodes and above the
    diagonal go to one discard slot past the end.  The entries of a PEC
    group's nodes share the group's column, so they sum there.
    """

    def __init__(self, cols: np.ndarray, n: int):
        """``cols``: the free unknown of each triangle node, shape (m, 3),
        -1 on Dirichlet nodes."""
        ci = np.repeat(cols, 3, axis=1).ravel()
        cj = np.tile(cols, (1, 3)).ravel()
        free = (ci >= 0) & (cj >= 0)
        graph = adjacency(ci[free], cj[free], n)
        start = cols[(cols < 0).any(axis=1)]
        stranded = n - int(np.count_nonzero(reach(*graph, start[start >= 0])))
        if stranded:
            raise stranded_error(stranded)
        self.order = reverse_cuthill_mckee(*graph)
        # band position of each unknown; the extra last entry sends the
        # Dirichlet column -1 to position -1
        pos = np.full(n + 1, -1, dtype=np.int64)
        pos[self.order] = np.arange(n)
        ri, rj = pos[ci], pos[cj]
        keep = (rj >= 0) & (ri >= rj)
        self.width = int(np.max(ri[keep] - rj[keep], initial=0))
        self.n = n
        # column-major (width + 1, n) storage, so LAPACK reads it in place
        self.slots = np.where(keep, rj * (self.width + 1) + ri - rj,
                              (self.width + 1) * n)

    def assemble(self, elem: np.ndarray) -> np.ndarray:
        """Sum element matrices (m, 3, 3) into the band array."""
        size = (self.width + 1) * self.n
        flat = np.bincount(self.slots, weights=elem.ravel(),
                           minlength=size + 1)
        return flat[:size].reshape(self.n, self.width + 1).T

    def diagonal(self, ab: np.ndarray) -> np.ndarray:
        """The matrix diagonal of band array ``ab``, in unknown order."""
        d = np.empty(self.n)
        d[self.order] = ab[0]
        return d

    def factor(self, ab: np.ndarray) -> np.ndarray | None:
        """Cholesky factor of band array ``ab``, computed in place by
        LAPACK ``dpbtrf``; None when the matrix is not positive
        definite."""
        return None if dpbtrf(ab) else ab

    def solve(self, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve with a factor that ``factor`` returned, by one LAPACK
        ``dpbtrs`` call; ``rhs`` is a vector or an (n, k) block of k
        right-hand sides, and it and the result are in unknown order."""
        b = np.asfortranarray(np.asarray(rhs, dtype=float)[self.order])
        dpbtrs(factor, b)
        x = np.empty_like(b)
        x[self.order] = b
        return x


# The banded Cholesky pair on lower band storage.  ``dpbtrf(ab)``
# overwrites the Fortran-ordered (kd + 1, n) float array ``ab`` with its
# factor and returns LAPACK's ``info`` (nonzero: not positive definite);
# ``dpbtrs(factor, b)`` overwrites ``b``, a float vector or a Fortran-ordered
# (n, k) block of k right-hand sides, with the solution.
BandCholesky = tuple[Callable[[np.ndarray], int],
                     Callable[[np.ndarray, np.ndarray], None]]


def _checked(a: np.ndarray, *ndims: int) -> np.ndarray:
    """``a`` itself, once it is a writeable Fortran-ordered float array,
    of one of ``ndims`` dimensions, that LAPACK may overwrite in place."""
    if a.dtype != np.float64 or a.ndim not in ndims \
            or not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError("LAPACK needs a writeable Fortran-ordered float64 "
                         f"array of {' or '.join(map(str, ndims))} "
                         f"dimensions")
    return a


def _numpy_band_cholesky() -> BandCholesky | None:
    """The pair from the OpenBLAS that numpy's wheel links, called
    through ctypes; None where that library exports no such symbols.

    ``dlsym`` on the handle of numpy's own ``_umath_linalg`` searches the
    libraries it links, so no library file is looked up by name.  The
    routines take the ILP64 Fortran interface: 64-bit integers by
    reference and a hidden length argument for the ``uplo`` string.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        trf, trs = lib.scipy_dpbtrf_64_, lib.scipy_dpbtrs_64_
    except AttributeError:
        return None
    ref = ctypes.POINTER(ctypes.c_int64)
    ptr = ctypes.c_void_p
    trf.argtypes = [ctypes.c_char_p, ref, ref, ptr, ref, ref, ctypes.c_size_t]
    trs.argtypes = [ctypes.c_char_p, ref, ref, ref, ptr, ref, ptr, ref, ref,
                    ctypes.c_size_t]
    trf.restype = trs.restype = None
    i64 = ctypes.c_int64

    def factor(ab: np.ndarray) -> int:
        rows, n = _checked(ab, 2).shape
        info = i64()
        trf(b"L", i64(n), i64(rows - 1), ab.ctypes.data, i64(rows), info, 1)
        return info.value

    def solve(cb: np.ndarray, b: np.ndarray) -> None:
        rows, n = _checked(cb, 2).shape
        if len(_checked(b, 1, 2)) != n:
            raise ValueError(f"right-hand side of {len(b)} rows for {n}")
        nrhs = b.shape[1] if b.ndim == 2 else 1
        info = i64()
        trs(b"L", i64(n), i64(rows - 1), i64(nrhs), cb.ctypes.data,
            i64(rows), b.ctypes.data, i64(max(n, 1)), info, 1)

    return factor, solve


def _scipy_band_cholesky() -> BandCholesky:
    """The pair from ``scipy.linalg.lapack``, the fallback where numpy's
    wheel exports no LAPACK symbols.  Where scipy is missing too, each
    call raises a ``SolveError`` that names the remedy."""
    try:
        from scipy.linalg import lapack
    except ImportError:
        def missing(*_) -> NoReturn:
            raise SolveError("numpy's LAPACK exports no banded Cholesky "
                             "(dpbtrf): install scipy")
        return missing, missing

    def factor(ab: np.ndarray) -> int:
        c, info = lapack.dpbtrf(_checked(ab, 2), lower=1, overwrite_ab=1)
        ab[...] = c  # a no-op where the wrapper worked in place
        return info

    def solve(cb: np.ndarray, b: np.ndarray) -> None:
        b[...] = lapack.dpbtrs(cb, _checked(b, 1, 2), lower=1,
                               overwrite_b=1)[0]

    return factor, solve


dpbtrf, dpbtrs = _numpy_band_cholesky() or _scipy_band_cholesky()


def harmonic_initial_guess(problem: Problem,
                           u_fix: np.ndarray) -> np.ndarray:
    """The Newton start: the minimizer of the ``start_elements`` stiffness
    with the trace of the nodal state ``u_fix``, by one back-solve against
    the ``Problem``'s ``start_factor``; the harmonic extension, or on a
    map of p = 2 laws the solution."""
    flux = np.einsum("mij,mj->mi", problem.start_elements,
                     u_fix[problem.triangles])
    return problem.band.solve(problem.start_factor,
                              -problem.reduce(problem.assemble(flux)))


# ---------------------------------------------------------------------------
# solve


def fixed_state(problem: Problem, datum: BoundaryDatum) -> np.ndarray:
    """The nodal state that carries ``datum`` on the boundary and 0
    elsewhere.  Raises ``SolveError`` unless the datum covers the boundary
    nodes of the problem's mesh, is finite and has zero weighted mean."""
    bm = problem.bmass
    if datum.node_ids.shape != bm.node_ids.shape or \
            np.any(np.sort(datum.node_ids) != bm.node_ids):
        raise SolveError("datum does not cover the mesh boundary nodes")
    if not np.all(np.isfinite(datum.values)):
        raise SolveError(f"datum {datum.name!r} is not finite")
    _, mean = project_zero_mean(datum.values[np.argsort(datum.node_ids)], bm)
    if abs(mean) > 1e-9 * max(datum.amplitude, 1e-300):
        raise SolveError(f"datum {datum.name!r} is not zero-mean "
                         f"(weighted mean {mean:.3e})")
    u_fix = np.zeros(problem.mesh.n_nodes)
    u_fix[datum.node_ids] = datum.values
    return u_fix


# Newton/continuation controls.  The tolerance is relative to the
# cancellation-free flux norm at the first point of the first stage;
# _MAX_ITER bounds each stage's Newton steps; continuation multiplies every
# power-law reg_eps by the schedule entries in turn (the last one is 1); a
# gradient within _FLOOR_FACTOR times the round-off floor is stationary.
_GRAD_RTOL = 1e-10
_MAX_ITER = 150
_REG_SCHEDULE = (1e3, 1e2, 1e1, 1.0)
_FLOOR_FACTOR = 32.0


@dataclass
class SolveInfo:
    """The one record of a solve, which its Newton stages fill in.

    ``grad_tol`` is fixed at the first point; ``grad_norm``,
    ``grad_floor`` (the round-off floor, 0 after a ``tol`` exit), the
    ``energy`` and the net flux into each PEC conductor are the last
    point's.  ``exit_reason`` says how the last stage stopped: ``"tol"``
    (gradient within the relative tolerance) or ``"floor"`` (within the
    round-off floor, stationary to working precision, also when the last
    stage spent its iteration budget there; a budget spent above both
    bounds raises).  ``factorizations`` counts the banded Cholesky
    factorizations of Newton steps, ``linsolve_failures`` those that
    failed or gave a non-finite direction, ``line_search_evals`` the
    points the line searches evaluated (one element pass each).  ``log``
    holds one row per Newton step, ``n_iter`` of them: its stage and
    iteration, the energy and gradient norm of the point it started from,
    the step length and whether the scaled-gradient fallback was taken."""

    n_iter: int = 0
    grad_norm: float = float("nan")
    grad_tol: float | None = None
    energy: float = float("nan")
    grad_floor: float = 0.0
    pec_flux_balance: dict[int | str, float] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)
    exit_reason: str | None = None
    linsolve_failures: int = 0
    factorizations: int = 0
    line_search_evals: int = 0


@dataclass
class PotentialField:
    """Nodal solution on the ``Problem`` it was solved on: ``u`` with NaN
    at removed (PEI-interior) nodes and each PEC conductor's constant at
    its nodes, ``residual`` the energy gradient at every node of the last
    Newton point (what the pairings read)."""

    problem: Problem
    u: np.ndarray
    datum: BoundaryDatum
    info: SolveInfo
    residual: np.ndarray


def _newton_direction(band: Band, h: np.ndarray, rhs: np.ndarray,
                      info: SolveInfo) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``H d = rhs`` for the reduced Hessian H, given as the band
    array ``h``, by one banded Cholesky factorization; returns (d, inverse
    diagonal of H).

    Strong monotonicity makes H positive definite.  A failed factorization
    or a non-finite direction counts as a failure and comes back as NaN,
    which sends the caller to the scaled-gradient fallback.  Both are
    counted in ``info``.
    """
    inv_diag = 1.0 / np.maximum(band.diagonal(h), 1e-300)
    info.factorizations += 1
    factor = band.factor(h)
    d = np.full_like(rhs, np.nan) if factor is None \
        else band.solve(factor, rhs)
    if not np.all(np.isfinite(d)):
        info.linsolve_failures += 1
    return d, inv_diag


_SLOPE_RTOL = 1e-2   # accept |phi'(t)| <= _SLOPE_RTOL * |phi'(0)|
_SLOPE_EVALS = 12    # slope evaluations per line search, t = 1 included
# accept phi(t) <= phi(0) + _ENERGY_SLACK * |phi(0)|: near the minimizer
# the energy decrease falls below float resolution, where a decrease
# test would reject exact steps (Hager & Zhang, SIAM J. Optim. 16, 2005)
_ENERGY_SLACK = 1e-10


def _slope_root(slope, s0: float) -> float:
    """Step t in (0, 1] where the slope of a convex ray function vanishes.

    ``slope(t)`` is phi'(t) and ``s0 = phi'(0) < 0``.  Returns 1 when
    phi'(1) <= 0 (the minimizer lies at or beyond the full step);
    otherwise runs an Illinois iteration on the bracket [0, 1] until
    |phi'(t)| <= _SLOPE_RTOL * |s0| or _SLOPE_EVALS slopes were taken, and
    returns the last estimate.  A non-finite slope at t makes t the upper
    end of the bracket and the next estimate its midpoint.
    """
    tol = _SLOPE_RTOL * abs(s0)
    s_hi = slope(1.0)
    if s_hi <= tol:
        return 1.0
    lo, s_lo, hi = 0.0, s0, 1.0
    kept = 0  # +1 / -1 when the last update moved the upper / lower end

    def estimate() -> float:
        if not np.isfinite(s_hi):
            return 0.5 * (lo + hi)
        return lo - s_lo * (hi - lo) / (s_hi - s_lo)

    for _ in range(_SLOPE_EVALS - 1):
        t = estimate()
        s = slope(t)
        if abs(s) <= tol:
            return t
        if not np.isfinite(s):
            hi, s_hi, kept = t, s, 0
        elif s < 0.0:
            lo, s_lo = t, s
            if kept == -1:
                s_hi *= 0.5
            kept = -1
        else:
            hi, s_hi = t, s
            if kept == 1:
                s_lo *= 0.5
            kept = 1
    return estimate()


class Point:
    """One evaluated state of a ``Problem``: its nodal state ``u`` (with
    its free unknowns ``x`` when Newton made it), element gradients
    ``grads`` and their ``norms`` from its one element pass, and from
    those on first use, under the law ``groups`` (a ``stages`` entry):
    ``sig``, the energy ``density`` and ``energy``, the element fluxes
    ``contrib``, the nodal ``residual`` and the reduced gradient ``g``;
    ``hessian()`` and ``roundoff_floor()`` on each call."""

    def __init__(self, problem: Problem, groups: Sequence, x: np.ndarray,
                 u: np.ndarray, grads: np.ndarray, norms: np.ndarray):
        self.problem, self.groups, self.x, self.u = problem, groups, x, u
        self.grads, self.norms = grads, norms

    @classmethod
    def evaluate(cls, problem: Problem, u: np.ndarray, x=None,
                 groups: Sequence | None = None) -> "Point":
        """The point of nodal state ``u``; ``groups`` default to the map's."""
        return cls(problem, problem.groups if groups is None else groups,
                   x, u, *problem.grad_norms(u))

    def on(self, groups: Sequence) -> "Point":
        """The same point under another stage's laws: no element pass."""
        return Point(self.problem, groups, self.x, self.u, self.grads,
                     self.norms)

    @functools.cached_property
    def sig(self) -> np.ndarray:
        return self.problem.per_tri(self.norms, "sigma", self.groups)

    @functools.cached_property
    def density(self) -> np.ndarray:
        return self.problem.per_tri(self.norms, "energy_density", self.groups)

    @functools.cached_property
    def energy(self) -> float:
        return float(self.problem.areas @ self.density)

    @functools.cached_property
    def contrib(self) -> np.ndarray:
        """Energy-gradient contributions to each triangle's nodes, (m, 3)."""
        w = (self.problem.areas * self.sig)[:, None] * self.grads
        return np.einsum("mi,mij->mj", w, self.problem.grads)

    @functools.cached_property
    def residual(self) -> np.ndarray:
        return self.problem.assemble(self.contrib)

    @functools.cached_property
    def g(self) -> np.ndarray:
        return self.problem.reduce(self.residual)

    def hessian(self) -> np.ndarray:
        """Reduced Hessian of the energy in the problem's ``band``
        storage."""
        problem, sig, norms = self.problem, self.sig, self.norms
        # the law's slope d(sigma E)/dE: (p - 1) sigma above the floor and
        # the scalar sigma(reg_eps) below it, of which an array power, as
        # in sig, may differ in the last bit
        slope = np.empty_like(sig)
        for model, sel in self.groups:
            slope[sel] = np.where(norms[sel] < model.reg_eps,
                                  model.sigma_raw(model.reg_eps),
                                  (model.p - 1.0) * sig[sel])
        # d^2 Q / d(grad u)^2 = sigma * I + (slope - sigma) * unit unit^T,
        # so the element matrix is sigma * K0 + (slope - sigma) * area *
        # v v^T, with v = G^T unit the basis slopes along the field
        v = np.einsum("mik,mi->mk", problem.grads, self.grads) \
            / np.maximum(norms, 1e-300)[:, None]
        elem = sig[:, None, None] * problem.unit_elements \
            + ((slope - sig) * problem.areas)[:, None, None] \
            * (v[:, :, None] * v[:, None, :])
        return problem.band.assemble(elem)

    def roundoff_floor(self) -> float:
        """Assembly round-off bound on the gradient: element gradients are
        differences of nodal values, so each residual term carries a float
        error of order eps sigma max|u| |grad phi_i| max_j|grad phi_j| area.
        Regularized p<2 laws driven to the field floor make sigma huge while
        the true fields vanish below float granularity; there the assembled
        gradient cannot fall under this bound."""
        problem = self.problem
        u_mag = np.max(np.abs(self.u[problem.triangles]), axis=1)
        w = self.sig * u_mag * problem._gmax * problem.areas
        r = problem.assemble(w[:, None] * problem._gnorm)
        return float(np.finfo(float).eps * np.linalg.norm(problem.reduce(r)))


def _newton_stage(point: Point, u_fix: np.ndarray, info: SolveInfo,
                  stage: int, name: str) -> Point:
    """Newton iterations on one continuation stage, the laws ``point``
    carries, of datum ``name``, from ``point``, checking each point up to
    the one after step ``_MAX_ITER``; returns the last point.  Its gradient
    norm, round-off floor (0 after ``tol``) and exit reason, None when it
    meets neither bound, go to ``info``, with the steps and counters."""
    problem, groups = point.problem, point.groups

    def evaluate(x_try: np.ndarray) -> Point:
        info.line_search_evals += 1
        return Point.evaluate(problem, problem.nodal_state(u_fix, x_try),
                              x_try, groups)

    def line_search(p0: Point, d: np.ndarray,
                    gd: float) -> tuple[float, Point | None]:
        """Step to the minimizer of the energy along the ray, which is
        convex there, located as the root of its slope g(x0 + t d).d.
        The root is accepted when its energy is finite and at most
        ``_ENERGY_SLACK * |E(x0)|`` above the start: the approximate Wolfe
        test, whose slope half is the root finder's own stop.  Returns the
        step and its point, or (0, None).  A root whose slope was taken
        reuses that point."""
        tried: dict[float, Point] = {}

        def slope(t: float) -> float:
            tried[t] = p = evaluate(p0.x + t * d)
            return float(p.g @ d)

        t = _slope_root(slope, gd)
        p = tried[t] if t in tried else evaluate(p0.x + t * d)
        if np.isfinite(p.energy) and \
                p.energy <= p0.energy + _ENERGY_SLACK * abs(p0.energy):
            return t, p
        return 0.0, None

    for it in range(_MAX_ITER + 1):
        g = point.g
        gn = info.grad_norm = float(np.linalg.norm(g))
        if info.grad_tol is None:
            # reference scale: norm of the cancellation-free assembly,
            # the natural flux magnitude of the first iterate
            scale = float(np.linalg.norm(
                problem.reduce(problem.assemble(np.abs(point.contrib)))))
            info.grad_tol = _GRAD_RTOL * scale
        if not np.isfinite(gn + info.grad_tol):
            raise SolveError(f"datum {name!r}: grad norm {gn:.3e} or its "
                             f"tolerance {info.grad_tol:.3e} is not finite")
        if gn <= info.grad_tol or gn == 0.0:
            info.grad_floor, info.exit_reason = 0.0, "tol"
            return point
        floor = info.grad_floor = point.roundoff_floor()
        # a gradient indistinguishable from assembly round-off is
        # stationary to working precision
        info.exit_reason = "floor" if gn <= _FLOOR_FACTOR * floor else None
        if info.exit_reason or it == _MAX_ITER:
            return point
        d, inv_diag = _newton_direction(problem.band, point.hessian(), -g,
                                        info)
        gd = float(g @ d)
        nxt = None
        fell_back = not np.isfinite(gd) or gd >= 0.0
        if not fell_back:
            t, nxt = line_search(point, d, gd)
        if nxt is None:
            # not a descent direction, or its root was refused: search
            # along the diagonally scaled gradient instead
            fell_back = True
            d = -g * inv_diag
            t, nxt = line_search(point, d, float(g @ d))
        if nxt is None:
            raise SolveError(f"line search stalled at stage {stage}, "
                             f"iteration {it} (grad norm {gn:.3e}, "
                             f"round-off floor {floor:.3e})")
        info.log.append({"stage": stage, "iter": it, "energy": point.energy,
                         "grad_norm": gn, "step": t, "fallback": fell_back})
        info.n_iter += 1
        point = nxt


# an overflow leaves a norm or energy that is not finite: refused, not warned
@np.errstate(over="ignore", invalid="ignore")
def solve(mesh: Mesh, materials: MaterialMap, datum: BoundaryDatum,
          initial_guess: np.ndarray | None = None,
          problem: Problem | None = None) -> PotentialField:
    """Minimize the Dirichlet energy for one zero-mean boundary datum.

    The Newton controls are fixed: a gradient tolerance of ``_GRAD_RTOL``
    (1e-10) relative to the flux scale of the first point, at most
    ``_MAX_ITER`` (150) steps per continuation stage, the reg_eps
    multipliers ``_REG_SCHEDULE`` (1e3, 1e2, 1e1, 1) when a law has a
    floor (p != 2; a map of p = 2 laws runs the last stage only),
    and stationarity within ``_FLOOR_FACTOR`` (32) times the round-off
    floor.

    ``initial_guess``, a full nodal state (e.g. a scaled previous
    solution), warm-starts the solve; without one, and always on a map of
    p = 2 laws (``Problem.is_linear``), where it is the minimizer, the
    solve starts at ``harmonic_initial_guess``.  ``problem`` is the
    ``Problem(mesh, materials)`` that repeated solves on the pair share,
    built here when omitted; the returned ``PotentialField`` keeps it and
    the solve's record, ``info``.  Raises
    ``SolveError`` on a line-search stall, when the point after the last
    stage's last step is above both the tolerance and the round-off floor,
    or when a gradient norm, its tolerance or the energy is not finite.
    """
    if problem is None:
        problem = Problem(mesh, materials)
    elif problem.mesh is not mesh or problem.materials is not materials:
        raise ValueError("problem was compiled for another mesh or "
                         "material map")
    u_fix = fixed_state(problem, datum)

    if initial_guess is not None:
        ig = np.asarray(initial_guess, dtype=float)
        if ig.shape != (mesh.n_nodes,):
            raise SolveError("initial guess must be a full nodal array")
    if initial_guess is None or problem.is_linear:
        x = harmonic_initial_guess(problem, u_fix)
    else:
        start = ig[problem.free_nodes]
        x = np.zeros(problem.n_free)
        x[problem.free_cols] = np.where(np.isfinite(start), start, 0.0)

    info = SolveInfo()
    point = Point.evaluate(problem, problem.nodal_state(u_fix, x), x)
    for stage, groups in enumerate(problem.stages):
        # each stage starts where the last one stopped, on its own laws
        point = _newton_stage(point.on(groups), u_fix, info, stage,
                              datum.name)
    # the last stage's laws are ``problem.groups``, the map's own
    if info.exit_reason is None:
        raise SolveError(f"Newton did not converge (iteration budget "
                         f"spent): grad norm {info.grad_norm:.3e} above "
                         f"tolerance {info.grad_tol:.3e} and round-off floor "
                         f"{info.grad_floor:.3e}")

    r = point.residual
    info.energy = point.energy
    if not np.isfinite(info.energy):
        raise SolveError(f"datum {datum.name!r}: the energy is not finite")
    info.pec_flux_balance = {key: float(r[nodes].sum())
                             for key, nodes in problem.pec_groups.items()}
    logger.debug("solve %r: exit %s after %d Newton iterations, grad norm "
                 "%.3e (tol %.3e), %d factorizations, %d linear-solve "
                 "failures, %d line-search evaluations", datum.name,
                 info.exit_reason, info.n_iter, info.grad_norm,
                 info.grad_tol, info.factorizations, info.linsolve_failures,
                 info.line_search_evals)
    return PotentialField(problem, point.u, datum, info, r)


# ---------------------------------------------------------------------------
# derived quantities


def element_fields(fld: PotentialField
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle field E = -grad u and current density
    J = -sigma(|grad u|) grad u, shape (m, 2) each, and energy density
    Q(|grad u|), shape (m,), from one element pass; zero on PEI and PEC
    triangles, where the local field is not represented."""
    problem, point = fld.problem, Point.evaluate(fld.problem, fld.u)
    m = problem.mesh.n_triangles
    e, j, q = np.zeros((m, 2)), np.zeros((m, 2)), np.zeros(m)
    e[problem.active_tris] = -point.grads
    j[problem.active_tris] = -point.sig[:, None] * point.grads
    q[problem.active_tris] = point.density
    return e, j, q
