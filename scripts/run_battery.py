#!/usr/bin/env python3
"""Run the five-rung comparison ladder at three mesh resolutions.

The ladder stamps insulating / 0.1x / nominal / 10x / conducting models
onto an off-center inclusion and checks every ordered pair of averaged
boundary powers over ten data.  Exit code 3 means a violated pair;
the per-pair tables land in the output directory either way.
"""
import argparse
import sys
from pathlib import Path

from condlab.cli import main

ROOT = Path(__file__).resolve().parents[1]

ap = argparse.ArgumentParser()
ap.add_argument("--config", default=str(ROOT / "configs" / "battery.json"))
ap.add_argument("--out", default="out/battery")
args = ap.parse_args()

sys.exit(main(["monotonicity-suite", "--config", args.config,
               "--out", args.out]))
