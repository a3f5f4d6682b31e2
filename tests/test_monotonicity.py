"""Ordering certificates and energy/averaged-power comparisons."""

import numpy as np
import pytest

from condlab.constitutive import (
    PEC,
    PEI,
    EJPowerLaw,
    Linear,
    MaterialMap,
    PowerLaw,
)
from condlab.mesh import DiskInclusion, build_disk_mesh
from condlab.monotonicity import (
    energy_compare,
    ladder_suite,
    pointwise_leq,
)
from condlab.solver import BoundaryDatum, DatumTerm, datum_family


@pytest.fixture(scope="module")
def inc_disk():
    return build_disk_mesh(1.0, 0.2,
                           inclusions=[DiskInclusion((0.3, 0.0), 0.25, 1)])


@pytest.fixture(scope="module")
def family(inc_disk):
    return datum_family(inc_disk, [
        ("ramp", [DatumTerm("linear-x", 1.0)]),
        ("sin2", [DatumTerm("sin", 1.0, k=2)]),
        ("mix", [DatumTerm("cos", 1.0, k=1), DatumTerm("sin", 0.5, k=3)]),
    ])


def pair_compare(mesh, lo, hi, data, quad_order):
    """The averaged-power comparison of one pair: a two-link ladder."""
    return ladder_suite(mesh, [("lo", lo), ("hi", hi)], data,
                        quad_order).pair_reports[0][2]


def lin_maps(lo_sigma, hi_sigma):
    return (MaterialMap({0: Linear(1.0), 1: Linear(lo_sigma)}),
            MaterialMap({0: Linear(1.0), 1: Linear(hi_sigma)}))


# ---------------------------------------------------------------------------
# pointwise certificates


def test_identical_maps_certify():
    mm = MaterialMap({0: Linear(1.0), 1: PowerLaw(1.0, 1.0, 4.0)})
    cert = pointwise_leq(mm, mm)
    assert cert.ok
    assert cert.notes == ()


def test_scaled_linear_certifies():
    lo, hi = lin_maps(1.0, 2.0)
    assert pointwise_leq(lo, hi).ok
    cert = pointwise_leq(hi, lo)
    assert not cert.ok
    assert cert.witness_label == 1
    assert cert.witness_e is not None


def test_crossing_power_laws_fail_both_ways():
    # p=1.5 vs p=3 at equal sigma_bar cross exactly at E = e0: each is
    # larger than the other on one side of the crossing
    a = MaterialMap({0: PowerLaw(1.0, 1.0, 1.5)})
    b = MaterialMap({0: PowerLaw(1.0, 1.0, 3.0)})
    ab = pointwise_leq(a, b)
    ba = pointwise_leq(b, a)
    assert not ab.ok and not ba.ok
    # witnesses sit on opposite sides of the crossing
    assert (ab.witness_e - 1.0) * (ba.witness_e - 1.0) < 0.0


def test_structural_extremes_rank_everything():
    fin = MaterialMap({0: Linear(1.0), 1: PowerLaw(2.0, 1.0, 4.0)})
    pei = MaterialMap({0: Linear(1.0), 1: PEI()})
    pec = MaterialMap({0: Linear(1.0), 1: PEC()})
    assert pointwise_leq(pei, fin).ok
    assert pointwise_leq(fin, pec).ok
    assert pointwise_leq(pei, pec).ok
    assert not pointwise_leq(pec, fin).ok
    assert not pointwise_leq(fin, pei).ok


def test_mixed_regime_pairs_carry_a_note():
    fin = MaterialMap({0: Linear(1.0), 1: Linear(5.0)})
    pec = MaterialMap({0: Linear(1.0), 1: PEC()})
    cert = pointwise_leq(fin, pec)
    assert cert.ok
    assert any("beyond stated hypotheses" in n for n in cert.notes)


def test_linear_law_leaves_the_certificate_grid_at_the_other_scale():
    # a p = 2 law has no field scale, so the grid centres on the E-J law's
    # e0 = 1e-4, where 1e9 < sigma; centred on 1 it would find E > 10
    # with sigma below 1e9
    lo = MaterialMap({0: Linear(1e9)})
    hi = MaterialMap({0: EJPowerLaw(8e9, 1e-4, 27)})
    assert pointwise_leq(lo, hi).ok
    cert = pointwise_leq(hi, lo)
    assert not cert.ok and cert.witness_e < 1e-4


def test_certificate_is_transitive_on_a_chain():
    maps = [MaterialMap({0: Linear(s)}) for s in (0.5, 1.0, 2.0, 4.0)]
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            assert pointwise_leq(maps[i], maps[j]).ok


# ---------------------------------------------------------------------------
# energy comparisons


def test_energy_compare_scaled_linear(inc_disk, family):
    lo, hi = lin_maps(1.0, 3.0)
    rep = energy_compare(inc_disk, lo, hi, family)
    assert rep.kind == "energy"
    assert rep.ok
    for row in rep.rows:
        assert row.delta > 0.0
        assert not row.violated


def test_energy_compare_uniform_doubling(inc_disk, family):
    # doubling sigma everywhere exactly doubles every energy
    lo = MaterialMap({0: Linear(1.0), 1: Linear(1.0)})
    hi = MaterialMap({0: Linear(2.0), 1: Linear(2.0)})
    rep = energy_compare(inc_disk, lo, hi, family)
    for row in rep.rows:
        assert abs(row.value_hi - 2.0 * row.value_lo) <= 1e-8 * row.value_hi


def test_energy_compare_identical_pair_has_zero_delta(inc_disk, family):
    mm, _ = lin_maps(2.0, 2.0)
    rep = energy_compare(inc_disk, mm, mm, family[:1])
    assert abs(rep.rows[0].delta) <= rep.rows[0].tolerance


def test_energy_compare_uncertified_pair_never_violates(inc_disk, family):
    lo, hi = lin_maps(1.0, 3.0)
    rep = energy_compare(inc_disk, hi, lo, family[:1])  # deliberately reversed
    assert not rep.certificate.ok
    assert not rep.ok
    # deltas go the wrong way, but violations require a certificate
    assert rep.rows[0].delta < 0.0
    assert not rep.rows[0].violated


# ---------------------------------------------------------------------------
# averaged-power comparisons


def test_avg_power_compare_scaled_linear(inc_disk, family):
    lo, hi = lin_maps(1.0, 3.0)
    rep = pair_compare(inc_disk, lo, hi, family, quad_order=4)
    assert rep.kind == "avg_power"
    assert rep.ok
    assert all(row.delta > 0.0 for row in rep.rows)


def test_avg_power_compare_nonlinear_inclusion(inc_disk, family):
    lo = MaterialMap({0: Linear(1.0), 1: PowerLaw(0.5, 1.0, 4.0)})
    hi = MaterialMap({0: Linear(1.0), 1: PowerLaw(2.0, 1.0, 4.0)})
    rep = pair_compare(inc_disk, lo, hi, family, quad_order=6)
    assert rep.ok


def test_avg_power_structural_bracket(inc_disk, family):
    pei = MaterialMap({0: Linear(1.0), 1: PEI()})
    fin = MaterialMap({0: Linear(1.0), 1: Linear(1.0)})
    pec = MaterialMap({0: Linear(1.0), 1: PEC()})
    lo_rep = pair_compare(inc_disk, pei, fin, family, quad_order=4)
    hi_rep = pair_compare(inc_disk, fin, pec, family, quad_order=4)
    assert lo_rep.ok and hi_rep.ok
    # the bracket is strict for data that drive current through the
    # inclusion: a ramp across a sizeable hole versus a short circuit
    ramp_lo = lo_rep.rows[0]
    ramp_hi = hi_rep.rows[0]
    assert ramp_lo.delta > 0.01 * ramp_lo.value_hi
    assert ramp_hi.delta > 0.01 * ramp_hi.value_hi


# ---------------------------------------------------------------------------
# ladder suite


def test_ladder_all_pairs_certified_and_ordered(inc_disk, family):
    chain = [
        ("insulating", MaterialMap({0: Linear(1.0), 1: PEI()})),
        ("tenth", MaterialMap({0: Linear(1.0), 1: Linear(0.1)})),
        ("nominal", MaterialMap({0: Linear(1.0), 1: Linear(1.0)})),
        ("tenfold", MaterialMap({0: Linear(1.0), 1: Linear(10.0)})),
        ("conducting", MaterialMap({0: Linear(1.0), 1: PEC()})),
    ]
    rep = ladder_suite(inc_disk, chain, family, quad_order=4)
    assert rep.names == ("insulating", "tenth", "nominal", "tenfold",
                         "conducting")
    assert len(rep.pair_reports) == 10
    assert rep.n_certified_pairs == 10
    assert rep.ok
    for _, _, pair in rep.pair_reports:
        assert not pair.violations


def test_ladder_rows_keep_their_own_datum_under_shared_names(inc_disk,
                                                            family):
    # reports are matched by position: two data named alike, and two
    # links named alike, still give each row its own datum's powers
    lo = MaterialMap({0: Linear(1.0), 1: PowerLaw(0.5, 1.0, 4.0)})
    hi = MaterialMap({0: Linear(1.0), 1: PowerLaw(2.0, 1.0, 4.0)})
    same = [BoundaryDatum("same", d.node_ids, d.values) for d in family[:2]]
    ref = ladder_suite(inc_disk, [("lo", lo), ("hi", hi)], family[:2],
                       quad_order=3)
    rep = ladder_suite(inc_disk, [("m", lo), ("m", hi)], same, quad_order=3)
    (_, _, ref_pair), = ref.pair_reports
    (_, _, pair), = rep.pair_reports
    assert ref_pair.rows[0].value_lo != ref_pair.rows[1].value_lo
    for r, row in zip(ref_pair.rows, pair.rows):
        assert (row.value_lo, row.value_hi) == (r.value_lo, r.value_hi)


def test_ladder_single_link_is_vacuous(inc_disk, family):
    rep = ladder_suite(inc_disk, [("only", lin_maps(1.0, 1.0)[0])],
                       family[:1], quad_order=2)
    assert rep.pair_reports == ()
    assert rep.ok
    assert rep.n_certified_pairs == 0


def test_ladder_refinement_keeps_signs(family):
    # the same physical chain on a finer mesh must not flip any ordering
    chain = [
        ("tenth", None), ("nominal", None), ("tenfold", None),
    ]
    for h in (0.25, 0.16):
        mesh = build_disk_mesh(1.0, h,
                               inclusions=[DiskInclusion((0.3, 0.0),
                                                         0.25, 1)])
        fam = datum_family(mesh, [
            ("ramp", [DatumTerm("linear-x", 1.0)]),
            ("sin2", [DatumTerm("sin", 1.0, k=2)]),
        ])
        chain_h = [(name, MaterialMap({0: Linear(1.0), 1: Linear(s)}))
                   for (name, _), s in zip(chain, (0.1, 1.0, 10.0))]
        rep = ladder_suite(mesh, chain_h, fam, quad_order=4)
        assert rep.ok
        for _, _, pair in rep.pair_reports:
            assert all(row.delta > 0.0 for row in pair.rows)
