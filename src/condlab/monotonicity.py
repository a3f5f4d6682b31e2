"""Ordering certificates and energy/power monotonicity comparisons.

A pointwise certificate establishes sigma_1(x, E) <= sigma_2(x, E) region
by region on a field grid, ranking the structural extremes as
PEI <= finite <= PEC.  For certified pairs the minimized Dirichlet energy
and the averaged boundary power are ordered the same way for every
zero-mean datum; the comparisons here evaluate both sides and report
per-datum margins with tolerances tied to solver and quadrature accuracy.

Pairs that mix structural and finite regimes (or the two growth branches)
are certified with a ``beyond stated hypotheses`` note: the ordering still
holds discretely by the admissible-state argument, but the regimes differ.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constitutive import MaterialMap, default_e_grid
from .dtn import average_dtn_powers
from .mesh import Mesh
from .solver import BoundaryDatum, Problem, solve


def _regime(model) -> str:
    if model.is_structural:
        return model.kind  # "pec" or "pei"
    p = model.effective_p
    if p is None:
        return "tabulated"
    return "finite-p>=2" if p >= 2.0 else "finite-p<2"


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

    def __bool__(self) -> bool:
        return self.ok


def pointwise_leq(lo: MaterialMap, hi: MaterialMap) -> PointwiseCertificate:
    """Certify sigma_lo(x, E) <= sigma_hi(x, E) on a shared field grid.

    Structural markers are ranked PEI <= finite <= PEC; finite laws are
    compared by their ideal (unfloored) conductivities at every point of
    ``default_e_grid`` around the scale ``e0`` of the first law with
    p != 2 found (else 1), within a relative slack of 1e-12.  Returns the
    first offending (label, E) as witness.
    """
    labels = sorted(set(lo.models) | set(hi.models))
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
        # a p = 2 law's sigma is constant, so its e0 carries no field scale
        scale = next((m.e0 for m in (a, b)
                      if getattr(m, "p", 2.0) != 2.0), 1.0)
        g = default_e_grid(scale)
        sa = np.asarray(a.sigma_raw(g), dtype=float)
        sb = np.asarray(b.sigma_raw(g), dtype=float)
        bad = sa > sb * (1.0 + _CERT_RTOL)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            return PointwiseCertificate(False, lab, float(g[k]),
                                        tuple(notes))
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

    kind: str  # "energy" or "avg_power"
    certificate: PointwiseCertificate
    rows: tuple[ComparisonRow, ...]

    @property
    def violations(self) -> tuple[ComparisonRow, ...]:
        return tuple(r for r in self.rows if r.violated)

    @property
    def ok(self) -> bool:
        return self.certificate.ok and not self.violations


def energy_compare(mesh: Mesh, lo: MaterialMap, hi: MaterialMap,
                   data: Sequence[BoundaryDatum]) -> MonotonicityReport:
    """Dirichlet energies of a certified pair across a datum family.

    ``delta = E_hi - E_lo`` must be >= -tol with
    tol = 1e-8 * max(|E_hi|, |E_lo|); each row carries its margin.
    """
    cert = pointwise_leq(lo, hi)
    p_lo, p_hi = Problem(mesh, lo), Problem(mesh, hi)
    rows = []
    for datum in data:
        e_lo = solve(mesh, lo, datum, problem=p_lo).info.energy
        e_hi = solve(mesh, hi, datum, problem=p_hi).info.energy
        tol = _TOL_REL * max(abs(e_lo), abs(e_hi), 1e-300)
        delta = e_hi - e_lo
        rows.append(ComparisonRow(datum.name, e_lo, e_hi, delta, tol,
                                  bool(cert.ok and delta < -tol)))
    return MonotonicityReport("energy", cert, tuple(rows))


def _power_row(name: str, rep_lo, rep_hi,
               cert: PointwiseCertificate) -> ComparisonRow:
    """One averaged-power comparison row from the two maps' reports.

    The tolerance widens with the reported transfer residuals:
    tol = max(1e-8, 3 * (res_lo + res_hi)) * scale, so quadrature error
    on nearly singular alpha-integrands is never misread as a violation.
    """
    scale = max(abs(rep_lo.avg_power), abs(rep_hi.avg_power), 1e-300)
    tol = max(_TOL_REL, 3.0 * (rep_lo.transfer_residual
                               + rep_hi.transfer_residual)) * scale
    delta = rep_hi.avg_power - rep_lo.avg_power
    return ComparisonRow(name, rep_lo.avg_power, rep_hi.avg_power, delta, tol,
                         bool(cert.ok and delta < -tol))


@dataclass(frozen=True)
class LadderReport:
    """All ordered pair comparisons along a material chain."""

    names: tuple[str, ...]
    pair_reports: tuple[tuple[int, int, MonotonicityReport], ...]

    @property
    def ok(self) -> bool:
        return all(rep.ok for _, _, rep in self.pair_reports)

    @property
    def n_certified_pairs(self) -> int:
        return sum(1 for _, _, rep in self.pair_reports
                   if rep.certificate.ok)


def ladder_suite(mesh: Mesh, chain: Sequence[tuple[str, MaterialMap]],
                 data: Sequence[BoundaryDatum],
                 quad_order: int = 8) -> LadderReport:
    """Averaged-power monotonicity along an increasing material chain.

    Every map's powers are computed once per datum and all ordered pairs
    (i < j) are compared, so a chain of length 5 yields 10 certified
    comparisons per datum; a two-link chain is one pair.  Reports are
    matched by chain and datum position, so repeated names never share a
    row's values.
    """
    reports = [average_dtn_powers(mesh, mats, data, quad_order)
               for _, mats in chain]
    pair_reports = []
    for i, j in itertools.combinations(range(len(chain)), 2):
        cert = pointwise_leq(chain[i][1], chain[j][1])
        rows = [_power_row(d.name, lo, hi, cert)
                for d, lo, hi in zip(data, reports[i], reports[j])]
        pair_reports.append((i, j, MonotonicityReport("avg_power", cert,
                                                      tuple(rows))))
    return LadderReport(tuple(name for name, _ in chain), tuple(pair_reports))
