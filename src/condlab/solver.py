"""Dirichlet solver for div(sigma(x, |grad u|) grad u) = 0 on P1 meshes.

The discrete problem minimizes the convex energy

    E(u) = sum_T area_T * Q_label(T)(|grad u|_T)

over nodal fields with prescribed boundary trace, with one-point gradient
quadrature (P1 gradients are constant per triangle, so this is exact for
the P1 energy).  Structural regions change the unknown structure instead
of entering the sum:

* PEI triangles are excluded and their interior nodes removed; interface
  nodes stay free, which realizes the natural zero-flux condition.
* PEC triangles are excluded and all nodes of a PEC component collapse to
  one shared unknown; stationarity in that unknown is exactly the zero
  net-interface-flux constraint.

Everything that depends only on the (mesh, material map) pair is compiled
once into a ``Problem``: the unknown map, the active-triangle slices of the
mesh arrays, the active triangles grouped by distinct model (equal laws
under different labels are evaluated in one call) and the ``Band``, the
one graph of the free unknowns: it proves that each reaches the boundary
and gives their reverse Cuthill-McKee order (``mesh.reverse_cuthill_mckee``,
the same as scipy's) and each element matrix entry's slot in LAPACK lower
band storage.  The boundary mass, the unit element stiffness matrices and
the banded Cholesky factor (LAPACK ``dpbtrf``) of the unit stiffness are
built on first use and kept, so the harmonic start of every solve on the
pair is one back-substitution against a factor computed once per
``Problem``.  A ``Problem`` holds no per-datum state.
``solve`` accepts one so that every solve on the same pair shares it, and
builds its own when none is given.  The solved ``PotentialField`` keeps
the ``Problem`` it was solved on and the nodal residual of its last Newton
point; the pairings in ``dtn`` read that residual, and the per-triangle E,
J and energy density maps come from one element pass on the field's
``Problem``.  ``Problem.stages`` reuse the structure and only swap each
group's law for its rescaled-floor version (none without a floored law);
each stage is built once per ``Problem`` and kept.

Every point the Newton iteration visits is evaluated by one element pass:
the nodal state, the element gradients and their norms, from which the
conductivity, the element fluxes, the reduced gradient and, on demand,
the energy and the Hessian follow.  The tolerance and round-off floor
checks, the Hessian and the line search all read that one evaluation; a
line-search point that is accepted becomes the next step's start, each
continuation stage starts from the point the stage before stopped at,
and the solve's closing residual and energy are the last point's.
Nodal states and reductions to the free unknowns use fancy indexing and
one ``np.bincount``, not sparse products.

Newton direction from the symmetrized flux linearization: each step sums
the closed-form element Hessians into the band with one ``np.bincount``
and solves by one banded Cholesky factorization, with a diagonally scaled
gradient as the fallback when the factorization fails.  The step length is
the root of the convex ray's slope, found by an Illinois (modified regula
falsi) iteration on (0, 1] and accepted by the approximate Wolfe test:
the slope shrank a hundredfold and the energy rose by at most 1e-10 of
its size, a slack above the float resolution where flat (E-J) energies
stop decreasing near the minimizer.  Power-law floors follow a
warm-started continuation schedule that shrinks reg_eps tenfold per
stage.  The last stage's exit, ``tol`` or ``floor``, is the solve's and
is logged with its counters at debug level; every accepted exit has its
gradient within the tolerance or the round-off floor.
"""
from __future__ import annotations

import ast
import copy
import functools
import logging
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .constitutive import MaterialMap, scale_reg_eps
from .mesh import (BoundaryMass, Mesh, adjacency, boundary_mass, reach,
                   reverse_cuthill_mckee)

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

    def plus(self, other: "BoundaryDatum", eps: float = 1.0,
             name: str | None = None) -> "BoundaryDatum":
        if self.node_ids.shape != other.node_ids.shape or \
                np.any(self.node_ids != other.node_ids):
            raise ValueError("data live on different boundaries")
        return BoundaryDatum(name or f"{self.name}+{eps:g}*{other.name}",
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
    """One additive term of a boundary datum.

    kinds: "linear-x" (a*x), "linear-y" (a*y), "sin" (a*sin(k*theta)),
    "cos" (a*cos(k*theta)), "exp-x2-2y" (a*exp(x^2 + 2*y)), "expr"
    (amplitude times an arithmetic expression in x, y, r, theta and pi
    over the functions of ``_EXPR_NAMES``).
    """

    kind: str
    amplitude: float
    k: int = 1
    expr: str | None = None


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
    x, y = xy[:, 0], xy[:, 1]
    theta = np.arctan2(y, x)
    if term.kind == "linear-x":
        return term.amplitude * x
    if term.kind == "linear-y":
        return term.amplitude * y
    if term.kind == "sin":
        return term.amplitude * np.sin(term.k * theta)
    if term.kind == "cos":
        return term.amplitude * np.cos(term.k * theta)
    if term.kind == "exp-x2-2y":
        return term.amplitude * np.exp(x ** 2 + 2.0 * y)
    if term.kind == "expr":
        if not term.expr:
            raise ValueError("expr term needs an expression string")
        names = {"x": x, "y": y, "r": np.hypot(x, y), "theta": theta,
                 "pi": np.pi}
        tree = ast.parse(term.expr, mode="eval")
        try:
            out = _eval_expr(tree.body, names)
        except (ArithmeticError, RecursionError) as exc:
            raise ValueError(f"expr {term.expr!r}: {exc}") from None
        return term.amplitude * np.broadcast_to(out, x.shape)
    raise ValueError(f"unknown datum term kind {term.kind!r}")


def make_datum(mesh: Mesh, terms: Sequence[DatumTerm], name: str,
               bmass: BoundaryMass | None = None) -> BoundaryDatum:
    """Evaluate terms at the boundary nodes and project to zero mean.  A
    datum constant on the boundary comes back as exact zeros."""
    bm = bmass if bmass is not None else boundary_mass(mesh)
    xy = mesh.nodes[bm.node_ids]
    raw = np.zeros(len(xy))
    for term in terms:
        raw = raw + _term_values(term, xy)
    values, _ = project_zero_mean(raw, bm)
    # a constant projects to the round-off of its weighted mean, at most
    # an ulp of the amplitude per boundary node
    if np.all(np.abs(values) <= len(raw) * np.finfo(float).eps
              * np.max(np.abs(raw), initial=0.0)):
        values = np.zeros_like(values)
    return BoundaryDatum(name, bm.node_ids, values)


def datum_family(mesh: Mesh,
                 specs: Sequence[tuple[str, Sequence[DatumTerm]]]
                 ) -> list[BoundaryDatum]:
    """Build a named family of zero-mean data on one mesh."""
    bm = boundary_mass(mesh)
    return [make_datum(mesh, terms, name, bm) for name, terms in specs]


# ---------------------------------------------------------------------------
# compiled problem

_DIRICHLET = -1
_REMOVED = -2


class Problem:
    """One (mesh, material map) pair compiled for repeated solves.

    Unknown map: node -> column in ``free_of_node`` (``_DIRICHLET`` on the
    boundary, ``_REMOVED`` inside PEI regions), ``n_free`` columns, the
    nodes that carry a column, ``free_nodes`` (ascending), with their
    columns ``free_cols``, ``removed_nodes`` and the nodes of each PEC
    component in ``pec_groups``.  ``nodal_state`` prolongs free unknowns
    to a nodal state and ``reduce`` sums nodal vectors onto the free
    unknowns.  ``triangles``, ``grads`` and ``areas`` are the mesh arrays
    restricted to the active (conducting) triangles ``active_tris``, in
    that order; ``groups`` pairs each distinct law with the active slots
    it governs; ``band`` is their ``Band``.  Every free unknown must reach
    the boundary through conducting triangles (a PEC component counts as
    one node), else the problem is singular and construction raises
    ``SolveError``.
    """

    def __init__(self, mesh: Mesh, materials: MaterialMap):
        materials.check_covers(mesh.labels)
        models = {lab: materials.model_for(lab)
                  for lab in np.unique(mesh.labels).tolist()}
        pec_labels = [lab for lab, m in models.items() if m.kind == "pec"]
        active_ids = np.nonzero(~np.isin(mesh.labels, [
            lab for lab, m in models.items() if m.is_structural]))[0]
        if not len(active_ids):
            raise SolveError("no conducting triangles")

        free_of_node = np.full(mesh.n_nodes, _REMOVED, dtype=np.int64)
        # a node of an active triangle is free, numbered below
        free_of_node[mesh.triangles[active_ids]] = 0
        free_of_node[mesh.on_boundary] = _DIRICHLET

        # one shared column per PEC label, numbered first
        pec_groups = {lab: np.unique(mesh.triangles[mesh.labels == lab])
                      for lab in pec_labels}
        pec_col_of_node = np.full(mesh.n_nodes, -1, dtype=np.int64)
        for col, (lab, nodes) in enumerate(pec_groups.items()):
            if np.any(mesh.on_boundary[nodes]):
                raise SolveError(f"PEC component {lab} touches the domain "
                                 f"boundary")
            pec_col_of_node[nodes] = col
        merged = pec_col_of_node >= 0
        ids = np.nonzero((free_of_node == 0) & ~merged)[0]
        free_of_node[ids] = len(pec_groups) + np.arange(len(ids))
        free_of_node[merged] = pec_col_of_node[merged]
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

    @functools.cached_property
    def unit_factor(self) -> np.ndarray:
        """Banded Cholesky factor of the reduced unit stiffness, built on
        first use and kept."""
        factor = self.band.factor(self.band.assemble(self.unit_elements))
        if factor is None:  # a zero pivot: the unit stiffness is singular
            raise SolveError("harmonic start: the unit stiffness is singular "
                             "(conducting nodes without a path to the "
                             "boundary)")
        return factor

    @property
    def stages(self) -> tuple["Problem", ...]:
        """The continuation stages: the structure with every group's floor
        scaled by each ``_REG_SCHEDULE`` entry, the last being ``self``;
        just ``(self,)`` when no group's law has a floor."""
        # a tuple kept on self would hold self in a reference cycle, which
        # keeps every Problem's arrays until the cycle collector runs
        return (*self._floor_stages, self)

    @functools.cached_property
    def _floor_stages(self) -> tuple["Problem", ...]:
        """The stages before the last, built on first use and kept."""
        stages = []
        for factor in _REG_SCHEDULE[:-1]:
            groups = tuple((scale_reg_eps(model, factor), sel)
                           for model, sel in self.groups)
            if all(a is b for (a, _), (b, _) in zip(groups, self.groups)):
                return ()
            self.unit_elements  # built here, so stages share it
            staged = copy.copy(self)
            staged.groups = groups
            stages.append(staged)
        return tuple(stages)

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

    def per_tri(self, norms: np.ndarray, what: str) -> np.ndarray:
        """Evaluate a law quantity per active triangle (active order)."""
        out = np.empty(len(self.active_tris))
        for model, sel in self.groups:
            out[sel] = getattr(model, what)(norms[sel])
        return out

    def energy_of(self, norms: np.ndarray) -> float:
        """Energy of a state whose element gradients have these norms."""
        return float(self.areas @ self.per_tri(norms, "energy_density"))

    def energy(self, u: np.ndarray) -> float:
        return self.energy_of(self.grad_norms(u)[1])

    def element_flux(self, grads: np.ndarray, sig: np.ndarray) -> np.ndarray:
        """Per active triangle, the energy-gradient contributions to its
        three nodes, shape (m, 3), given the element gradients and the
        conductivity sigma."""
        w = (self.areas * sig)[:, None] * grads
        return np.einsum("mi,mij->mj", w, self.grads)

    def assemble(self, contrib: np.ndarray) -> np.ndarray:
        """Sum per-triangle node contributions into a nodal vector, in
        triangle order."""
        return np.bincount(self.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_nodes)

    def roundoff_floor(self, u: np.ndarray, sig: np.ndarray) -> float:
        """Assembly round-off bound on the gradient at ``u``, where the
        active triangles carry conductivity ``sig``.

        Element gradients are differences of nodal values, so each residual
        term carries an absolute float error of order
        eps * sigma * max|u| * |grad phi_i| * max_j|grad phi_j| * area.
        Regularized p<2 laws driven to the field floor make sigma huge
        while the true fields vanish below float granularity; there the
        assembled gradient cannot fall under this bound, and stationarity
        is declared once it is reached.
        """
        u_mag = np.max(np.abs(u[self.triangles]), axis=1)
        w = sig * u_mag * self._gmax * self.areas
        r = self.assemble(w[:, None] * self._gnorm)
        return float(np.finfo(float).eps * np.linalg.norm(self.reduce(r)))

    def hessian(self, grads: np.ndarray, norms: np.ndarray,
                sig: np.ndarray) -> np.ndarray:
        """Reduced Hessian of the energy in ``band`` storage, at the state
        with element gradients ``grads``, their norms and conductivity
        ``sig`` (as ``grad_norms`` and ``per_tri`` give them)."""
        dfl = self.per_tri(norms, "dflux")
        # d^2 Q / d(grad u)^2 = sigma * I + (dflux - sigma) * unit unit^T,
        # so the element matrix is sigma * K0 + (dflux - sigma) * area *
        # v v^T, with v = G^T unit the basis slopes along the field
        v = np.einsum("mik,mi->mk", self.grads, grads) \
            / np.maximum(norms, 1e-300)[:, None]
        elem = sig[:, None, None] * self.unit_elements \
            + ((dfl - sig) * self.areas)[:, None, None] \
            * (v[:, :, None] * v[:, None, :])
        return self.band.assemble(elem)


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
            raise SolveError(f"{stranded} free unknowns have no conducting "
                             f"path to the boundary: the unit stiffness is "
                             f"singular")
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
        """Cholesky factor of band array ``ab``, which it overwrites, by
        LAPACK ``dpbtrf``; None when the matrix is not positive
        definite."""
        c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        return None if info else c

    def solve(self, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve with a factor that ``factor`` returned, by LAPACK
        ``dpbtrs``; ``rhs`` and the result are in unknown order."""
        x = np.empty(self.n)
        x[self.order] = dpbtrs(factor, rhs[self.order], lower=1)[0]
        return x


def harmonic_initial_guess(problem: Problem,
                           u_fix: np.ndarray) -> np.ndarray:
    """Discrete harmonic extension (unit conductivity) of the trace,
    respecting the PEC/PEI unknown structure; used as the Newton start.
    The back-solve uses the problem's ``unit_factor``, so every cold start
    on one ``Problem`` shares one factorization.
    """
    flux = np.einsum("mij,mj->mi", problem.unit_elements,
                     u_fix[problem.triangles])
    return problem.band.solve(problem.unit_factor,
                              -problem.reduce(problem.assemble(flux)))


# ---------------------------------------------------------------------------
# solve


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
    """``grad_floor`` is nonzero when the iteration stopped at the
    assembly round-off floor instead of the relative tolerance; the
    gradient cannot be driven below roughly machine epsilon times the
    stiffest material scale, so that state is stationary to working
    precision.

    ``exit_reason`` says how the last stage stopped: ``"tol"`` (gradient
    within the relative tolerance) or ``"floor"`` (gradient within the
    round-off floor, also when the last stage spent its iteration budget
    there; a budget spent above both bounds raises).
    ``linsolve_failures`` counts Newton systems whose banded Cholesky
    factorization failed (the reduced Hessian was not positive definite)
    or gave a non-finite direction, ``factorizations`` the banded Cholesky
    factorizations of Newton steps, and ``line_search_evals`` the points
    the line searches evaluated (one element pass each; accepting a slope
    root whose slope was taken evaluates nothing new).  ``log`` holds one
    row per Newton step: its stage and iteration, the energy and gradient
    norm of the point it started from, the step length and whether the
    scaled-gradient fallback was taken."""

    n_iter: int
    grad_norm: float
    grad_tol: float
    energy: float
    grad_floor: float = 0.0
    pec_flux_balance: dict[int, float] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)
    exit_reason: str = "tol"
    linsolve_failures: int = 0
    factorizations: int = 0
    line_search_evals: int = 0


@dataclass
class PotentialField:
    """Nodal solution on the ``Problem`` it was solved on: ``u`` with NaN
    at removed (PEI-interior) nodes, ``valid_mask`` marking carried values,
    ``residual`` the energy gradient at every node of the last Newton
    point (what the pairings read), PEC component constants in
    ``info.pec_flux_balance``'s companion ``pec_values``."""

    problem: Problem
    u: np.ndarray
    valid_mask: np.ndarray
    datum: BoundaryDatum
    info: SolveInfo
    residual: np.ndarray
    pec_values: dict[int, float] = field(default_factory=dict)


@dataclass
class _Progress:
    """State one solve carries across its continuation stages."""

    tol: float | None = None  # fixed once, at the very first iterate
    linsolve_failures: int = 0
    factorizations: int = 0
    line_search_evals: int = 0


def _newton_direction(band: Band, h: np.ndarray, rhs: np.ndarray,
                      progress: _Progress) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``H d = rhs`` for the reduced Hessian H, given as the band
    array ``h``, by one banded Cholesky factorization; returns (d, inverse
    diagonal of H).

    Strong monotonicity makes H positive definite.  A failed factorization
    or a non-finite direction counts as a failure and comes back as NaN,
    which sends the caller to the scaled-gradient fallback.
    """
    inv_diag = 1.0 / np.maximum(band.diagonal(h), 1e-300)
    progress.factorizations += 1
    factor = band.factor(h)
    d = np.full_like(rhs, np.nan) if factor is None \
        else band.solve(factor, rhs)
    if not np.all(np.isfinite(d)):
        progress.linsolve_failures += 1
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


class _Point:
    """One evaluated point x of a Newton stage.

    Building it is the point's one element pass: the nodal state ``u``,
    the element gradients ``grads`` and their ``norms``.  The rest comes
    from those on first use, with the laws of ``problem``: the
    conductivity ``sig``, the element flux contributions ``contrib``, the
    nodal residual ``residual``, the reduced gradient ``g``, the
    ``energy`` and the reduced ``hessian``.
    """

    def __init__(self, problem: Problem, x: np.ndarray, u: np.ndarray,
                 grads: np.ndarray, norms: np.ndarray):
        self.problem, self.x, self.u = problem, x, u
        self.grads, self.norms = grads, norms

    @classmethod
    def evaluate(cls, problem: Problem, u_fix: np.ndarray,
                 x: np.ndarray) -> "_Point":
        u = problem.nodal_state(u_fix, x)
        return cls(problem, x, u, *problem.grad_norms(u))

    def on(self, problem: Problem) -> "_Point":
        """The same point under another stage's laws, without a new
        element pass."""
        return _Point(problem, self.x, self.u, self.grads, self.norms)

    @functools.cached_property
    def sig(self) -> np.ndarray:
        return self.problem.per_tri(self.norms, "sigma")

    @functools.cached_property
    def contrib(self) -> np.ndarray:
        return self.problem.element_flux(self.grads, self.sig)

    @functools.cached_property
    def residual(self) -> np.ndarray:
        return self.problem.assemble(self.contrib)

    @functools.cached_property
    def g(self) -> np.ndarray:
        return self.problem.reduce(self.residual)

    @functools.cached_property
    def energy(self) -> float:
        return self.problem.energy_of(self.norms)

    def hessian(self) -> np.ndarray:
        return self.problem.hessian(self.grads, self.norms, self.sig)


def _newton_stage(problem: Problem, u_fix: np.ndarray, point: _Point,
                  progress: _Progress, stage: int,
                  log: list[dict]
                  ) -> tuple[_Point, float, float, int, str | None]:
    """Newton iterations on one continuation stage from ``point``, which
    carries ``problem``'s laws, checking each point up to the one after step
    ``_MAX_ITER``; returns the last point, its gradient norm and round-off
    floor (0 after ``tol``), the steps taken and the exit reason, None when
    that point meets neither bound."""

    def evaluate(x_try: np.ndarray) -> _Point:
        progress.line_search_evals += 1
        return _Point.evaluate(problem, u_fix, x_try)

    def line_search(p0: _Point, d: np.ndarray,
                    gd: float) -> tuple[float, _Point | None]:
        """Step to the minimizer of the energy along the ray, which is
        convex there, located as the root of its slope g(x0 + t d).d.
        The root is accepted when its energy is finite and at most
        ``_ENERGY_SLACK * |E(x0)|`` above the start: the approximate Wolfe
        test, whose slope half is the root finder's own stop.  Returns the
        step and its point, or (0, None).  A root whose slope was taken
        reuses that point."""
        tried: dict[float, _Point] = {}

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
        gn = float(np.linalg.norm(g))
        if progress.tol is None:
            # reference scale: norm of the cancellation-free assembly,
            # the natural flux magnitude of the first iterate
            scale = float(np.linalg.norm(
                problem.reduce(problem.assemble(np.abs(point.contrib)))))
            progress.tol = _GRAD_RTOL * scale
        if gn <= progress.tol or gn == 0.0:
            return point, gn, 0.0, it, "tol"
        floor = problem.roundoff_floor(point.u, point.sig)
        if gn <= _FLOOR_FACTOR * floor:
            # gradient indistinguishable from assembly round-off:
            # stationary to working precision
            return point, gn, floor, it, "floor"
        if it == _MAX_ITER:
            return point, gn, floor, it, None
        d, inv_diag = _newton_direction(problem.band, point.hessian(), -g,
                                        progress)
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
        log.append({"stage": stage, "iter": it, "energy": point.energy,
                    "grad_norm": gn, "step": t, "fallback": fell_back})
        point = nxt


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

    Parameters
    ----------
    initial_guess : optional nodal array
        Full nodal state to warm-start from (e.g. a scaled previous
        solution); defaults to the discrete harmonic extension.
    problem : optional Problem
        ``Problem(mesh, materials)`` shared by repeated solves on the same
        pair; built here when omitted.  The returned field keeps it.

    Returns
    -------
    PotentialField
        Converged state; ``info`` carries iteration counts, the final
        gradient norm/tolerance, the exit reason, per-PEC-component net
        flux and the per-step log.

    Raises
    ------
    SolveError
        On line-search stall, or when the point after the last stage's
        last step is above both the tolerance and the round-off floor.
    """
    if problem is None:
        problem = Problem(mesh, materials)
    elif problem.mesh is not mesh or problem.materials is not materials:
        raise ValueError("problem was compiled for another mesh or "
                         "material map")
    bm = problem.bmass
    vals_sorted = datum.values[np.argsort(datum.node_ids)]
    if datum.node_ids.shape != bm.node_ids.shape or \
            np.any(np.sort(datum.node_ids) != bm.node_ids):
        raise SolveError("datum does not cover the mesh boundary nodes")
    mean = float(bm.weights @ vals_sorted / bm.total)
    amp = max(float(np.max(np.abs(datum.values))), 1e-300) \
        if len(datum.values) else 1e-300
    if abs(mean) > 1e-9 * amp:
        raise SolveError(f"datum {datum.name!r} is not zero-mean "
                         f"(weighted mean {mean:.3e})")

    u_fix = np.zeros(mesh.n_nodes)
    u_fix[datum.node_ids] = datum.values

    if initial_guess is not None:
        ig = np.asarray(initial_guess, dtype=float)
        if ig.shape != (mesh.n_nodes,):
            raise SolveError("initial guess must be a full nodal array")
        start = ig[problem.free_nodes]
        x = np.zeros(problem.n_free)
        x[problem.free_cols] = np.where(np.isfinite(start), start, 0.0)
    else:
        x = harmonic_initial_guess(problem, u_fix)

    progress = _Progress()
    log: list[dict] = []
    total_iter = 0
    point = None
    for stage, staged in enumerate(problem.stages):
        # each stage starts where the last one stopped, on its own laws
        point = _Point.evaluate(staged, u_fix, x) if point is None \
            else point.on(staged)
        point, gn, floor, n_it, reason = _newton_stage(staged, u_fix, point,
                                                       progress, stage, log)
        total_iter += n_it
    # the last stage is ``problem``, so the last point carries its laws
    tol = progress.tol
    if reason is None:
        raise SolveError(f"Newton did not converge (iteration budget "
                         f"spent): grad norm {gn:.3e} above tolerance "
                         f"{tol:.3e} and round-off floor {floor:.3e}")

    u, r = point.u, point.residual
    balance = {lab: float(r[nodes].sum())
               for lab, nodes in problem.pec_groups.items()}
    pec_values = {lab: float(u[nodes[0]])
                  for lab, nodes in problem.pec_groups.items()}
    energy = point.energy
    valid = np.ones(mesh.n_nodes, dtype=bool)
    valid[problem.removed_nodes] = False
    logger.debug("solve %r: exit %s after %d Newton iterations, grad norm "
                 "%.3e (tol %.3e), %d factorizations, %d linear-solve "
                 "failures, %d line-search evaluations", datum.name, reason,
                 total_iter, gn, tol, progress.factorizations,
                 progress.linsolve_failures, progress.line_search_evals)
    info = SolveInfo(total_iter, gn, tol, energy, floor, balance, log,
                     reason, progress.linsolve_failures,
                     progress.factorizations, progress.line_search_evals)
    return PotentialField(problem, u, valid, datum, info, r, pec_values)


# ---------------------------------------------------------------------------
# derived quantities


def element_fields(fld: PotentialField
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle field E = -grad u and current density
    J = -sigma(|grad u|) grad u, shape (m, 2) each, and energy density
    Q(|grad u|), shape (m,), from one element pass; zero on PEI and PEC
    triangles, where the local field is not represented."""
    problem = fld.problem
    grads, norms = problem.grad_norms(fld.u)
    m = problem.mesh.n_triangles
    e, j, q = np.zeros((m, 2)), np.zeros((m, 2)), np.zeros(m)
    e[problem.active_tris] = -grads
    sig = problem.per_tri(norms, "sigma")
    j[problem.active_tris] = -sig[:, None] * grads
    q[problem.active_tris] = problem.per_tri(norms, "energy_density")
    return e, j, q


@dataclass(frozen=True)
class ContinuityRow:
    eps: float
    grad_diff_norm: float


@dataclass(frozen=True)
class ContinuityStudy:
    rows: tuple[ContinuityRow, ...]
    slope: float
    exponent: float


def boundary_data_continuity_study(mesh: Mesh, materials: MaterialMap,
                                   datum: BoundaryDatum,
                                   direction: BoundaryDatum,
                                   eps_list: Sequence[float]
                                   ) -> ContinuityStudy:
    """Gradient-difference decay under boundary perturbations f + eps*phi.

    Reports || grad u^(f + eps phi) - grad u^f ||_{L^p} over the conducting
    triangles with p the declared background exponent, plus the fitted
    log-log slope (least squares over the given eps ladder).
    """
    p = materials.outer_exponent
    problem = Problem(mesh, materials)
    base = solve(mesh, materials, datum, problem=problem)
    g_base, _ = problem.grad_norms(base.u)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        fld = solve(mesh, materials, datum.plus(direction, eps),
                    initial_guess=base.u, problem=problem)
        g_eps, _ = problem.grad_norms(fld.u)
        d = np.linalg.norm(g_eps - g_base, axis=1)
        norm = float((problem.areas @ d ** p) ** (1.0 / p))
        rows.append(ContinuityRow(float(eps), norm))
    le = np.log([r.eps for r in rows])
    ln = np.log([max(r.grad_diff_norm, 1e-300) for r in rows])
    slope = float(np.polyfit(le, ln, 1)[0])
    return ContinuityStudy(tuple(rows), slope, p)
