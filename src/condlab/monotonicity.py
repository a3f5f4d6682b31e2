"""Ordering certificates and energy/power monotonicity comparisons.

A pointwise certificate establishes sigma_1(x, E) <= sigma_2(x, E) for
every E on each region label a mesh carries, in closed form on the floored
laws the solver minimizes, ranking the structural extremes as
PEI <= finite <= PEC.  For certified pairs the minimized Dirichlet energy
and the averaged boundary power are ordered the same way for every
zero-mean datum.  By the transfer identity the averaged power of a datum
is the minimum energy of its solve, so ``ladder_suite`` reads each side as
``solve(...).info.energy`` (one solve per map and datum) and reports
per-datum margins against a tolerance of 1e-8 relative to the larger one.

Pairs that mix structural and finite regimes (or the two growth branches)
are certified with a ``beyond stated hypotheses`` note: the ordering still
holds discretely by the admissible-state argument, but the regimes differ.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .constitutive import MaterialMap
from .dtn import minimum_energies
from .mesh import Mesh, distinct
from .solver import BoundaryDatum


def _regime(model) -> str:
    if model.is_structural:
        return model.kind  # "pec" or "pei"
    return "finite-p>=2" if model.p >= 2.0 else "finite-p<2"


# slack of the pointwise sigma comparison, relative to sigma_hi
_CERT_RTOL = 1e-12
# floor of every comparison tolerance, relative to the larger value
_TOL_REL = 1e-8


@dataclass(frozen=True)
class PointwiseCertificate:
    """Result of the per-region sigma ordering check."""

    ok: bool
    witness_label: int | None
    witness_e: float | None
    notes: tuple[str, ...]


def pointwise_leq(lo: MaterialMap, hi: MaterialMap,
                  labels: Iterable[int]) -> PointwiseCertificate:
    """Certify sigma_lo(E) <= sigma_hi(E) for every E >= 0 on each label.

    Structural markers are ranked PEI <= finite <= PEC.  Finite laws are
    compared as the solver solves them, with sigma frozen below
    ``reg_eps``.  Between the breakpoints 0, the two floors and infinity,
    log sigma_hi - log sigma_lo is affine in log E, so the laws are
    ordered everywhere iff they are ordered at the two floors (within a
    relative slack of 1e-12) and as E -> inf, where the larger exponent
    wins.  Returns the first offending (label, E) as witness, E = inf for
    the limit.
    """
    notes: list[str] = []
    for lab in labels:
        a = lo.model_for(lab)
        b = hi.model_for(lab)
        ra, rb = _regime(a), _regime(b)
        if ra != rb:
            notes.append(f"label {lab}: {ra} vs {rb} "
                         f"(beyond stated hypotheses)")
        if ra == "pei" or rb == "pec":
            continue  # ranked below / above everything
        if ra == "pec" or rb == "pei":
            return PointwiseCertificate(False, lab, None, tuple(notes))
        for e in sorted({a.reg_eps, b.reg_eps}):
            if a.sigma(e) > b.sigma(e) * (1.0 + _CERT_RTOL):
                return PointwiseCertificate(False, lab, e, tuple(notes))
        if a.p > b.p:
            return PointwiseCertificate(False, lab, math.inf, tuple(notes))
    return PointwiseCertificate(True, None, None, tuple(notes))


@dataclass(frozen=True)
class ComparisonRow:
    datum: str
    value_lo: float
    value_hi: float
    delta: float
    tolerance: float
    violated: bool


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-datum ordered comparison between two material maps."""

    certificate: PointwiseCertificate
    rows: tuple[ComparisonRow, ...]

    @property
    def violations(self) -> tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.violated)

    @property
    def ok(self) -> bool:
        return self.certificate.ok and not self.violations


def _power_row(name: str, lo: float, hi: float,
               cert: PointwiseCertificate) -> ComparisonRow:
    """One comparison row of the two maps' averaged powers: violated when
    ``delta = hi - lo`` is below -1e-8 * max(|lo|, |hi|) on a certified
    pair."""
    tol = _TOL_REL * max(abs(lo), abs(hi), 1e-300)
    delta = hi - lo
    return ComparisonRow(name, lo, hi, delta, tol,
                         bool(cert.ok and delta < -tol))


@dataclass(frozen=True)
class LadderReport:
    """All ordered pair comparisons along a material chain."""

    names: tuple[str, ...]
    pair_reports: tuple[tuple[int, int, MonotonicityReport], ...]

    @property
    def ok(self) -> bool:
        return all(rep.ok for _, _, rep in self.pair_reports)


def ladder_suite(mesh: Mesh, chain: Sequence[tuple[str, MaterialMap]],
                 data: Sequence[BoundaryDatum]) -> LadderReport:
    """Averaged-power monotonicity along an increasing material chain.

    Each map's averaged powers are its minimum energies
    (``dtn.minimum_energies``: one ``Problem`` per map, one solve per
    datum), and all ordered pairs (i < j) are compared, so a chain of
    length 5 yields 10 certified comparisons per datum; a two-link chain
    is one pair.  Powers are matched by chain and datum position, so
    repeated names never share a row's values.  Each pair is certified by
    ``pointwise_leq`` on the labels the mesh carries.
    """
    labels = distinct(mesh.labels).tolist()
    powers = [minimum_energies(mesh, mats, data) for _, mats in chain]
    pair_reports = []
    for i, j in itertools.combinations(range(len(chain)), 2):
        cert = pointwise_leq(chain[i][1], chain[j][1], labels)
        rows = [_power_row(d.name, lo, hi, cert)
                for d, lo, hi in zip(data, powers[i], powers[j])]
        pair_reports.append((i, j, MonotonicityReport(cert, tuple(rows))))
    return LadderReport(tuple(name for name, _ in chain), tuple(pair_reports))
