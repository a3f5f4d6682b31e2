#!/usr/bin/env python3
"""Damage tables for the composite wire cross-section.

Compares averaged boundary powers (minimum energies) of the healthy wire
against a cracked matrix and an insulated petal, for ten boundary data
each.  Runs both the physical-units config (0.6 mm section, MS/m matrix,
A/mm^2 petals; about 2 s on a 2-core VM) and a unit-scale variant of the
same geometry, since the physical one drives the solver through nine
orders of magnitude of contrast.

Each damage case writes one table: datum, healthy power, damaged power,
difference.  All differences must come out strictly positive.
"""
import argparse
import sys
from pathlib import Path

from condlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("wire_tables", "wire_tables_unitscale")

ap = argparse.ArgumentParser()
ap.add_argument("--out", default="out/wire")
ap.add_argument("--only", choices=VARIANTS, default=None,
                help="run a single variant instead of both")
args = ap.parse_args()

worst = 0
for name in (args.only,) if args.only else VARIANTS:
    print(f"== {name} ==")
    code = main(["reproduce-wire",
                 "--config", str(ROOT / "configs" / f"{name}.json"),
                 "--out", f"{args.out}/{name}"])
    worst = max(worst, code)
sys.exit(worst)
