#!/usr/bin/env python3
"""Descend from a square with masses (1, 1, 3, 5) to a convex central
configuration and write the trajectory plus the final rescaled CC."""

import argparse
import os
import tempfile

from twistcc.cli import main as cli_main
from twistcc.geometry import PlanarConfig, PotentialParams, save_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--masses", default="1,1,3,5")
    ap.add_argument("--A", type=float, default=3.0)
    ap.add_argument("--traj", default="square_descent.csv")
    ap.add_argument("--final", default="square_descent_final.json")
    args = ap.parse_args()

    masses = [float(v) for v in args.masses.split(",")]
    square = PlanarConfig.from_points(
        [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)], masses)
    with tempfile.TemporaryDirectory() as tmp:
        start = os.path.join(tmp, "square_start.json")
        save_config(start, square, PotentialParams(args.A))
        return cli_main(["descend", start, "--traj", args.traj, "--final", args.final])


if __name__ == "__main__":
    raise SystemExit(main())
