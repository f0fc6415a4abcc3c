#!/usr/bin/env python3
"""Record the kite-map and certify reference outputs the oracles compare against.

    python3 perfbench/record_refs.py

Run from the repository root on the code whose outputs define "correct";
the files in perfbench/ref/ were recorded from the initial library import.
Only the columns the oracles compare are kept, gzip-compressed with a
fixed timestamp so that re-recording the same outputs gives the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from twistcc.cli import main as cli_main  # noqa: E402
from workloads import REF_DIR, Certify, KiteMap  # noqa: E402

CERT_COLUMNS = ("z3_lo", "z3_hi", "z4_lo", "z4_hi", "idx_Hs", "idx_Ha")


def record(argv, produced: Path, name: str, columns) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
    with open(produced, newline="") as fh:
        rows = list(csv.DictReader(fh))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([row[c] for c in columns])
    with open(REF_DIR / name, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as gz:
        gz.write(buf.getvalue().encode())
    print(f"{REF_DIR / name}: {len(rows)} rows")


def main() -> None:
    tmp = ROOT / "perfbench" / ".out" / "record_refs"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    REF_DIR.mkdir(exist_ok=True)
    km, ce = KiteMap(), Certify()
    record(km.plan(0).resolve("", str(tmp)).items[0].calls[0], tmp / "map.csv",
           km.ref_name, km.ref_columns)
    record(ce.plan(0).resolve("", str(tmp)).items[0].calls[0], tmp / "cert.csv",
           ce.ref_name, CERT_COLUMNS)
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
