"""Ordering certificates and energy/power monotonicity comparisons.

A pointwise certificate establishes sigma_1(x, E) <= sigma_2(x, E) region
by region on a field grid, ranking the structural extremes as
PEI <= finite <= PEC.  For certified pairs the minimized Dirichlet energy
and the averaged boundary power are ordered the same way for every
zero-mean datum.  By the transfer identity the averaged power of a datum
is the minimum energy of its solve, so the one comparison here,
``ladder_suite``, reads each side as ``solve(...).info.energy`` (one solve
per map and datum, no alpha quadrature) and reports per-datum margins
against a fixed tolerance of 1e-8 relative to the larger value.

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
from .dtn import minimum_energies
from .mesh import Mesh
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
        scale = next((m.e0 for m in (a, b) if m.p != 2.0), 1.0)
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


def chain_certificates(chain: Sequence[tuple[str, MaterialMap]]
                       ) -> tuple[PointwiseCertificate, ...]:
    """``pointwise_leq`` of every ordered pair (i < j) of the chain, in
    ``itertools.combinations`` order."""
    return tuple(pointwise_leq(chain[i][1], chain[j][1])
                 for i, j in itertools.combinations(range(len(chain)), 2))


def ladder_suite(mesh: Mesh, chain: Sequence[tuple[str, MaterialMap]],
                 data: Sequence[BoundaryDatum],
                 certificates: Sequence[PointwiseCertificate]
                 ) -> LadderReport:
    """Averaged-power monotonicity along an increasing material chain.

    Each map's averaged powers are its minimum energies
    (``dtn.minimum_energies``: one ``Problem`` per map, one solve per
    datum), and all ordered pairs (i < j) are compared, so a chain of
    length 5 yields 10 certified comparisons per datum; a two-link chain
    is one pair.  Powers are matched by chain and datum position, so
    repeated names never share a row's values.  ``certificates`` are the
    chain's ``chain_certificates``, which depend only on the maps, so a
    chain compared on several meshes is certified once.
    """
    powers = [minimum_energies(mesh, mats, data) for _, mats in chain]
    pair_reports = []
    for (i, j), cert in zip(itertools.combinations(range(len(chain)), 2),
                            certificates, strict=True):
        rows = [_power_row(d.name, lo, hi, cert)
                for d, lo, hi in zip(data, powers[i], powers[j])]
        pair_reports.append((i, j, MonotonicityReport(cert, tuple(rows))))
    return LadderReport(tuple(name for name, _ in chain), tuple(pair_reports))
