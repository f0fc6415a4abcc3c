#!/usr/bin/env python3
"""Certify kite Hessian indices over a shape box, subdividing until most
sub-boxes decide.  Boxes that straddle a bifurcation stay Unknown."""

import argparse

from twistcc.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--z3", default="1.99,2.01")
    ap.add_argument("--z4", default="0.79,0.81")
    ap.add_argument("--A", type=float, default=3.0)
    ap.add_argument("--subdivide", type=int, default=5,
                    help="both blocks decide at box widths of about 6e-4; "
                         "5 levels fully certify the default window")
    ap.add_argument("--csv", default="certified_boxes.csv")
    args = ap.parse_args()
    return cli_main([
        "certify",
        "--z3", args.z3,
        "--z4", args.z4,
        "--A", str(args.A),
        "--subdivide", str(args.subdivide),
        "--csv", args.csv,
    ])


if __name__ == "__main__":
    raise SystemExit(main())
