"""Boundary power pairings and the averaged power functional.

The Dirichlet-to-current map sends a zero-mean trace f to the boundary
current functional of the solved state u^f.  Its pairing with a trace phi
is evaluated through the assembled energy gradient:

    <Lambda(f), phi> = sum_{boundary nodes b} phi_b * r_b(u^f)

which equals the volumetric form sum_T area sigma grad u . grad Phi for
every admissible discrete lift Phi of phi (the residual vanishes at free
unknowns, and sums to zero over each PEC component).  At the discrete
level this pairing is the exact derivative of the minimized energy with
respect to the trace, so the averaged power

    avg_power(f) = integral_0^1 <Lambda(alpha f), f> d alpha

equals the Dirichlet energy of u^f (the transfer identity).

Every averaged power a comparison uses is read as that minimum energy,
with no quadrature error: ``minimum_energies`` makes one cold solve per
datum for ``reproduce-wire``, ``monotonicity.ladder_suite`` and
``mpm-image`` (``imaging.cell_powers`` solves on the background instead
when its laws are all p = 2).  The alpha quadrature serves only
``avg-power``, the command that shows the identity, on every map:
``average_dtn_power`` solves at Gauss-Legendre nodes on (0, 1) in
ascending order, each warm-started from the previous solution scaled by
the node ratio, and reports the mismatch to the energy as
``transfer_residual``.

A pairing reads the residual its solved field keeps, so it assembles
none and builds no ``solver.Problem``.  ``average_dtn_power`` solves on
the ``Problem`` it is given, so ``avg-power`` compiles one per (mesh,
material map) pair; every other function here that solves on one pair
compiles a single ``Problem`` and drops it on return.  Each averaged
power logs one debug line on ``condlab.dtn`` with its datum, quadrature
order and number of solves.
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
    """Solve the datum scaled by each alpha (ascending, positive),
    warm-starting each node from the previous solution scaled by the node
    ratio."""
    fields: list[PotentialField] = []
    for k, alpha in enumerate(alphas):
        guess = fields[-1].u * (alpha / alphas[k - 1]) if k else None
        fields.append(solve(problem.mesh, problem.materials,
                            datum.scaled(float(alpha)), initial_guess=guess,
                            problem=problem))
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


def average_dtn_power(problem: Problem, datum: BoundaryDatum,
                      quad_order: int = 16) -> PowerReport:
    """Averaged boundary power of one datum, with the transfer mismatch.

    Solves at each Gauss-Legendre alpha node plus alpha = 1; reports
    avg_power = sum_k w_k <Lambda(alpha_k f), f>, the full power
    <Lambda(f), f>, the Dirichlet energy of u^f, and
    |avg_power - energy| / max(|energy|, tiny) as ``transfer_residual``.
    Every solve runs on ``problem``.
    """
    alphas, weights = gauss_on_unit(quad_order)
    fields = _alpha_sweep(problem, datum, np.append(alphas, 1.0))
    pairings = np.array([dtn_pairing(f, datum) for f in fields])
    logger.debug("averaged power %r: quadrature order %d, %d solves",
                 datum.name, quad_order, len(fields))
    power = pairings[-1]
    avg = float(weights @ pairings[:-1])
    energy = fields[-1].info.energy
    residual = abs(avg - energy) / max(abs(energy), 1e-300)
    nodes = tuple((float(a), float(w), float(pr))
                  for a, w, pr in zip(alphas, weights, pairings))
    return PowerReport(datum.name, float(power), avg, float(energy),
                       float(residual), quad_order, nodes)


def minimum_energies(mesh: Mesh, materials: MaterialMap,
                     data: Sequence[BoundaryDatum]) -> list[float]:
    """The averaged power of each datum, read as the Dirichlet energy of
    its minimizer (the transfer identity): one cold solve per datum, all
    on one ``Problem(mesh, materials)`` that is dropped on return."""
    problem = Problem(mesh, materials)
    return [solve(mesh, materials, d, problem=problem).info.energy
            for d in data]


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
