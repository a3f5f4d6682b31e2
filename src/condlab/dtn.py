"""Boundary power pairings and the averaged power functional.

The Dirichlet-to-current map sends a zero-mean trace f to the boundary
current functional of the solved state u^f.  Its pairing with a trace phi
is evaluated through the assembled energy gradient:

    <Lambda(f), phi> = sum_{boundary nodes b} phi_b * r_b(u^f)

which equals the volumetric form sum_T area sigma grad u . grad Phi for
every admissible discrete lift Phi of phi (the residual vanishes at free
unknowns, and sums to zero over each PEC component);
``oracle.dtn_pairing_via_lift`` evaluates that form as a cross-check.
At the discrete level this pairing is the exact derivative of the
minimized energy with respect to the trace, so the averaged pairing

    avg_power(f) = integral_0^1 <Lambda(alpha f), f> d alpha

reproduces the Dirichlet energy up to quadrature error in alpha; the
mismatch is reported as ``transfer_residual``.  Gauss-Legendre nodes on
(0, 1) are solved in ascending order, each warm-started from the previous
solution scaled by the node ratio.

When every finite region of the map is linear (``MaterialMap.is_linear``:
p = 2 power laws, which ``Linear`` builds, PEI and PEC), the solution is homogeneous of
degree one in the datum, u^(alpha f) = alpha u^f, so every node's pairing
is alpha_k <Lambda(f), phi>.  The averaged power and pairing then solve
once, at alpha = 1, instead of once per node (the homogeneity path).  The
map alone selects it, in the one helper both averages share.

A pairing reads the residual its solved field keeps, so it assembles
none and builds no ``solver.Problem``.  ``average_dtn_power`` solves on
the ``Problem`` it is given; every other function here that solves on
one (mesh, material map) pair compiles a single ``Problem`` and drops it
on return.
``average_dtn_powers`` runs a list of data on one shared problem, so a
caller that loops over data on one pair compiles it, and on a linear map
factorizes its harmonic start, once.  Each averaged power or pairing logs
one debug line on ``condlab.dtn`` with its datum, quadrature order,
number of solves and whether the homogeneity path was taken.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constitutive import MaterialMap
from .mesh import Mesh
from .solver import BoundaryDatum, PotentialField, Problem, solve

logger = logging.getLogger(__name__)


def dtn_pairing(fld: PotentialField, phi: BoundaryDatum) -> float:
    """Pairing of the boundary current of a solved state with a trace."""
    return float(phi.values @ fld.residual[phi.node_ids])


def ohmic_power(fld: PotentialField) -> float:
    """<Lambda(f), f> for the state's own datum."""
    return dtn_pairing(fld, fld.datum)


@functools.lru_cache(maxsize=None, typed=True)
def gauss_on_unit(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to (0, 1); each
    order's rule is computed once and returned as read-only arrays."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _alpha_sweep(problem: Problem, datum: BoundaryDatum,
                 alphas: np.ndarray) -> list[PotentialField]:
    """Solve the datum scaled by each alpha (ascending), warm-starting each
    node from the previous solution scaled by the node ratio."""
    fields: list[PotentialField] = []
    prev_alpha = None
    prev_u = None
    for alpha in alphas:
        guess = None
        if prev_u is not None and prev_alpha not in (None, 0.0):
            guess = prev_u * (alpha / prev_alpha)
        fld = solve(problem.mesh, problem.materials,
                    datum.scaled(float(alpha)), initial_guess=guess,
                    problem=problem)
        fields.append(fld)
        prev_alpha, prev_u = float(alpha), fld.u
    return fields


@dataclass(frozen=True)
class PowerReport:
    """Boundary power summary for one datum and material map."""

    datum: str
    power: float
    avg_power: float
    energy: float
    transfer_residual: float
    quad_order: int
    nodes: tuple[tuple[float, float, float], ...]  # (alpha, weight, pairing)


def _node_pairings(what: str, problem: Problem, datum: BoundaryDatum,
                   phi: BoundaryDatum, alphas: np.ndarray,
                   quad_order: int) -> tuple[np.ndarray, PotentialField]:
    """Pairings <Lambda(alpha_k f), phi> at the ascending ``alphas`` and
    the last field solved: one solve at alpha = 1 on a linear map (the
    homogeneity path), else ``_alpha_sweep``.  Logs the averaged ``what``.
    """
    linear = problem.materials.is_linear
    if linear:
        fld = solve(problem.mesh, problem.materials, datum, problem=problem)
        pairings = alphas * dtn_pairing(fld, phi)
    else:
        fields = _alpha_sweep(problem, datum, alphas)
        fld = fields[-1]
        pairings = np.array([dtn_pairing(f, phi) for f in fields])
    logger.debug("averaged %s %r: quadrature order %d, %d solves, %s",
                 what, datum.name, quad_order, 1 if linear else len(alphas),
                 "homogeneity path" if linear else "alpha sweep")
    return pairings, fld


def average_dtn_power(problem: Problem, datum: BoundaryDatum,
                      quad_order: int = 16) -> PowerReport:
    """Averaged boundary power of one datum, with the transfer mismatch.

    Solves at each Gauss-Legendre alpha node plus alpha = 1, or only at
    alpha = 1 on a linear map; reports
    avg_power = sum_k w_k <Lambda(alpha_k f), f>, the full power
    <Lambda(f), f>, the Dirichlet energy of u^f, and
    |avg_power - energy| / max(|energy|, tiny) as ``transfer_residual``.
    Every solve runs on ``problem``.
    """
    alphas, weights = gauss_on_unit(quad_order)
    pairings, full = _node_pairings("power", problem, datum, datum,
                                    np.concatenate([alphas, [1.0]]),
                                    quad_order)
    power = pairings[-1]
    avg = float(weights @ pairings[:-1])
    energy = full.info.energy
    residual = abs(avg - energy) / max(abs(energy), 1e-300)
    nodes = tuple((float(a), float(w), float(pr))
                  for a, w, pr in zip(alphas, weights, pairings))
    return PowerReport(datum.name, float(power), avg, float(energy),
                       float(residual), quad_order, nodes)


def average_dtn_powers(mesh: Mesh, materials: MaterialMap,
                       data: Sequence[BoundaryDatum], quad_order: int = 16
                       ) -> list[PowerReport]:
    """``average_dtn_power`` of each datum, all sharing one compiled
    ``Problem(mesh, materials)`` that is dropped on return."""
    problem = Problem(mesh, materials)
    return [average_dtn_power(problem, d, quad_order) for d in data]


def average_dtn_pairing(mesh: Mesh, materials: MaterialMap,
                        datum: BoundaryDatum, phi: BoundaryDatum,
                        quad_order: int = 16) -> float:
    """Averaged cross pairing integral_0^1 <Lambda(alpha f), phi> d alpha;
    one solve on a linear map, one per alpha node otherwise."""
    alphas, weights = gauss_on_unit(quad_order)
    pairings, _ = _node_pairings("pairing", Problem(mesh, materials), datum,
                                 phi, alphas, quad_order)
    return float(weights @ pairings)


@dataclass(frozen=True)
class GateauxRow:
    eps: float
    quotient: float
    residual: float


@dataclass(frozen=True)
class GateauxReport:
    """Finite-difference check of d/d eps E(u^(f + eps phi)) at eps = 0
    against the boundary pairing <Lambda(f), phi>."""

    pairing: float
    scale: float
    rows: tuple[GateauxRow, ...]

    @property
    def final_residual(self) -> float:
        return self.rows[-1].residual


def gateaux_check(mesh: Mesh, materials: MaterialMap, datum: BoundaryDatum,
                  phi: BoundaryDatum,
                  eps_list: Sequence[float]) -> GateauxReport:
    """One-sided difference quotients of the energy along a trace direction.

    Rows are ordered by decreasing eps; each residual is
    |(E(f + eps phi) - E(f))/eps - <Lambda(f), phi>|.  For smooth laws the
    residual decreases ~linearly in eps until the solver floor.
    """
    problem = Problem(mesh, materials)
    base = solve(mesh, materials, datum, problem=problem)
    pairing = dtn_pairing(base, phi)
    rows = []
    quotients = []
    for eps in sorted(eps_list, reverse=True):
        fld = solve(mesh, materials, datum.plus(phi, eps),
                    initial_guess=base.u, problem=problem)
        quotient = (fld.info.energy - base.info.energy) / eps
        quotients.append(abs(quotient))
        rows.append(GateauxRow(float(eps), float(quotient),
                               float(abs(quotient - pairing))))
    # degenerate pairings (symmetry zeros) fall back to the quotient size
    scale = max(abs(pairing), max(quotients, default=0.0), 1e-300)
    return GateauxReport(float(pairing), float(scale), tuple(rows))
