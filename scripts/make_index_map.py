#!/usr/bin/env python3
"""Produce the Newtonian concave-kite Morse-index map (CSV + PGM raster).

The default window covers the whole admissible region: tall kites up to
the band's tip near z3 ~ 2.19 and wide kites down to z3 ~ 1.  The map is
evaluated on arrays; at the default 300x300 resolution a run takes about
1.5 s on a 2-core x86-64 machine, most of it writing the 90000-row CSV.
"""

import argparse

from twistcc.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=300)
    ap.add_argument("--A", type=float, default=3.0)
    ap.add_argument("--csv", default="kite_index_map.csv")
    ap.add_argument("--pgm", default="kite_index_map.pgm")
    args = ap.parse_args()
    n = args.resolution
    return cli_main([
        "kite-map",
        "--z3", f"1.0:2.2:{n}",
        "--z4", f"0.01:0.87:{n}",
        "--A", str(args.A),
        "--csv", args.csv,
        "--pgm", args.pgm,
    ])


if __name__ == "__main__":
    raise SystemExit(main())
