"""Command-line interface.

Subcommands: eval, descend, flow, hessian, kite-map, certify, lagrange.
All file outputs are written atomically (write-then-rename), all numbers
with 17 significant digits so they re-read losslessly, and every run that
produces files also emits a JSON manifest next to its first output.
`main` owns a run's outputs: each subparser declares its output flags in
the order its command writes them, they and the manifest must name
distinct files, none the `.tmp` file another is written through (else
exit 2 before any work), and the manifest, written last, lists them with
the run's `wall_s`.  An output that cannot be written is an error (exit
status 2), like bad input, and takes back the run's outputs already
written: none is left without its manifest.
Body and pair indices are 1-based on the command line.

Each CSV table is built as columns of field texts, and `write_csv_atomic`
joins them row by row and writes the table in one piece; the twist-matrix
table of `hessian` and `lagrange` is instead one text, joined once from a
flat list of row pieces (`_matrix_table`).  Numbers are formatted with
`.17g` from `.tolist()` values.  Kite-map cell coordinates, mass ratios
and scales and certify box edges repeat across rows, so each distinct
value is formatted once (`_formatted`, NaN as an empty field); columns of
all-distinct values (residuals, trajectories, matrix entries) are
formatted value by value (`_texts`).  Columns of codes (classes,
flags, block labels, certify outcomes, indices) look their texts up in a
short table.  Free-text fields (certificates, kite-map errors and
labels) go through `csv_field`, which quotes them as the csv module's
minimal quoting does, so any CSV reader parses them back.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from . import __version__
from .certify import NOT_ADMISSIBLE, OUTCOMES, Certificates, certify_boxes
# unused here; perfbench/tracing.py install() looks the name up on this module
from .certify import certify_box  # noqa: F401
from .geometry import (ExponentRangeError, GeometryError, PlanarConfig, PotentialParams,
                       _row_pass, build_pair_table, config_to_json, load_config)
# unused here (eval reads f, I and U from one row pass); perfbench/tracing.py
# counts calls through these names on this module
from .geometry import moment_of_inertia, potential_u  # noqa: F401
from .hessian import assemble_twist_hessian, lagrange_char_poly_coeffs, signature
# unused here (the subcommands count their own eigenvalues); perfbench/tracing.py
# looks the name up on this module
from .hessian import morse_index  # noqa: F401
from .intervals import Interval, IntervalArray
from .kite import _BLOCK_LABELS, KITE_CLASSES, IndexMap, KiteError, kite_index_map
from .solver import FlowSpec, descend, flow_fixed_combo, rescale_to_cc_size
from .twist import cc_residual, twist_span_basis


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _formatted(values) -> list[str]:
    """`f"{v:.17g}"` of each element of the 1-D float array `values`, with
    each distinct value formatted once, and "" for a NaN (an empty CSV
    field).  Values are told apart by their bits, so -0.0 and 0.0 keep
    their own text."""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([f"{v:.17g}" if v == v else "" for v in distinct.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def _texts(values):
    """`f"{v:.17g}"` of each element of the 1-D float array `values` ("nan"
    for a NaN), formatted as the rows are joined, so that no column of a
    long trajectory is held as texts.  For columns whose values are all
    distinct, where `_formatted`'s sort costs more than it saves."""
    return map("{:.17g}".format, values.tolist())


def _coded(texts, codes) -> list[str]:
    """`texts[c]` for each element c of the 1-D int array `codes`."""
    return np.array(texts, dtype=object)[codes].tolist()


def _indices(values, missing: str) -> list[str]:
    """The decimal text of each element of the 1-D array `values` of
    integers >= -1, and `missing` for -1."""
    return _coded([missing, *map(str, range(int(values.max(initial=-1)) + 1))], values + 1)


def write_atomic(path: str, data: str | bytes) -> None:
    """Write `data` to `path.tmp` and rename it to `path`.  A failure removes
    the `.tmp` and raises an OSError that names `path`."""
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc


_NEEDS_QUOTES = re.compile('[,"\n\r]').search


def csv_field(text: str) -> str:
    """`text` as one CSV field: in double quotes with each quote doubled when
    it holds a comma, a quote, a newline or a carriage return, else as is
    (the csv module's minimal quoting)."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv_atomic(path: str, header, columns) -> None:
    """Write the header fields and then the rows of `columns`, joined with
    commas, one row per line.  `columns` is an iterable of columns, each an
    iterable of texts of one field, or of adjacent fields already joined
    with commas (free text already quoted by `csv_field`).  Columns of
    different lengths raise ValueError before anything is written.  Given
    as a generator, each column is freed once its rows are joined, before
    the table's text is built."""
    rows = map(",".join, zip(*columns, strict=True))
    write_atomic(path, "\n".join([",".join(map(csv_field, header)), *rows, ""]))


@dataclass
class RunManifest:
    subcommand: str
    arguments: dict
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None
    version: str = __version__
    timestamp_utc: str = ""
    wall_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def write(self, path: str) -> None:
        self.timestamp_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        # wall_s in fixed-width exponent form, so the manifest of a rerun
        # has the same size (a float's repr varies in length); json escapes
        # newlines and quotes, so no string value holds the top-level line
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["wall_s"] = "<wall_s>"
        text = json.dumps(doc, indent=2).replace('\n  "wall_s": "<wall_s>"',
                                                  f'\n  "wall_s": {self.wall_s:.6e}')
        write_atomic(path, text + "\n")


def _load(path: str) -> tuple[PlanarConfig, PotentialParams]:
    try:
        return load_config(path)
    except json.JSONDecodeError as exc:
        raise SystemExitError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise SystemExitError(f"{path}: {exc}")
    except (GeometryError, ExponentRangeError) as exc:
        raise SystemExitError(f"{path}: {exc}")


class SystemExitError(Exception):
    """Input error: reported on stderr with exit status 2."""


def _parse_pairs(text: str, n: int):
    terms = []
    try:
        for chunk in text.split(","):
            pair, _, coeff = chunk.partition(":")
            a, _, b = pair.partition("-")
            i, j = int(a) - 1, int(b) - 1
            c = float(coeff) if coeff else 1.0
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"pair {pair} out of range")
            terms.append((c, (i, j)))
    except ValueError as exc:
        raise SystemExitError(f"bad --pairs value {text!r}: {exc}")
    return tuple(terms)


def _parse_range(text: str):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo and count > 0):
            raise ValueError
        return lo, hi, count
    except ValueError:
        raise SystemExitError(f"bad range {text!r}, expected lo:hi:count")


def _parse_interval(text: str) -> Interval:
    try:
        a, b = (float(v) for v in text.split(","))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError
        return Interval(min(a, b), max(a, b))
    except ValueError:
        raise SystemExitError(f"bad interval {text!r}, expected a,b")


# --- subcommands -----------------------------------------------------------------

def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise SystemExitError(f"--tol needs a finite value > 0, got {tol}")


def cmd_eval(args) -> tuple[int, RunManifest]:
    _check_tol(args.tol)
    config, params = _load(args.config)
    res = cc_residual(config, params, tol=args.tol)
    # one row pass: f, I and U bit for bit those of f_value, moment_of_inertia
    # and potential_u, so U - M*I is euler_residual's
    _, f, _, I, U = _row_pass(config.positions[None], config.masses, params.A)
    f, I, U = float(f[0]), float(I[0]), float(U[0])
    print(f"f = {fmt(f)}")
    print(f"U = {fmt(U)}")
    print(f"I = {fmt(I)}")
    print(f"euler_residual = {fmt(U - float(config.masses.sum()) * I)}")
    print(f"max_la = {fmt(res.max_la)}")
    print(f"max_ac = {fmt(res.max_ac)}")
    print(f"is_cc = {res.is_cc} (tol = {fmt(args.tol)})")
    if args.csv:
        write_csv_atomic(args.csv, ["i", "j", "la", "b_ij", "b_ji"], _eval_columns(config.n, res))
    manifest = RunManifest("eval", {"config": args.config}, [args.config],
                           tolerances={"tol": args.tol})
    return (0 if res.is_cc else 1), manifest


def _eval_columns(n: int, res) -> list:
    """The residual CSV columns of `n` bodies, one row per pair i < j."""
    i, j = np.triu_indices(n, 1)
    return [_indices(i + 1, ""), _indices(j + 1, ""),
            *map(_texts, (res.la, res.b[i, j], res.b[j, i]))]


def _trajectory_columns(positions, masses, params) -> list:
    """Trajectory CSV columns of the (K, 2n) stacked positions, I and f from one row pass."""
    _, f, _, inertia, _ = _row_pass(positions, masses, params.A)
    return [map(str, range(f.size)), *map(_texts, np.column_stack([positions, inertia, f]).T)]


def _trajectory_header(n):
    cols = ["step"]
    for i in range(1, n + 1):
        cols += [f"x{i}", f"y{i}"]
    return cols + ["I", "f"]


# descend --random: bodies uniform in [-1, 1]^2, every pair farther apart than
# RANDOM_MIN_SEP, drawn by rejection at most RANDOM_MAX_DRAWS times, in batches.
# Such bodies centre disjoint disks of diameter RANDOM_MIN_SEP inside the square
# of side 2 + RANDOM_MIN_SEP, so no draw of more bodies than their areas allow
# can succeed, and none is attempted.
RANDOM_MIN_SEP = 0.2
RANDOM_MAX_DRAWS = 100_000
RANDOM_BATCH = 250


def _random_start(n: int, seed) -> PlanarConfig:
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    for _ in range(RANDOM_MAX_DRAWS // RANDOM_BATCH):
        # one batch draws the numbers of RANDOM_BATCH draws in turn
        pts = rng.uniform(-1, 1, (RANDOM_BATCH, n, 2))
        dx = pts[:, i, 0] - pts[:, j, 0]
        dy = pts[:, i, 1] - pts[:, j, 1]
        # the squared distances pass over the draws that cannot qualify
        near = (dx * dx + dy * dy).min(axis=1) > (0.999 * RANDOM_MIN_SEP) ** 2
        for k in np.flatnonzero(near).tolist():
            if np.hypot(dx[k], dy[k]).min() > RANDOM_MIN_SEP:
                return PlanarConfig.from_points(pts[k], np.ones(n))
    raise SystemExitError(
        f"descend --random {n}: no draw of {n} bodies in [-1, 1]^2 with every pair more "
        f"than {RANDOM_MIN_SEP} apart within {RANDOM_MAX_DRAWS} draws")


def cmd_descend(args) -> tuple[int, RunManifest]:
    if args.config and args.random is not None:
        raise SystemExitError("descend takes a config file or --random N, not both")
    for flag, value in (("--A", args.A), ("--seed", args.seed)):
        if args.config and value is not None:
            raise SystemExitError(f"descend {flag} applies to --random starts only: a "
                                  "configuration file carries its own A and draws nothing")
    _check_tol(args.tol)
    if args.max_iter < 0:
        raise SystemExitError(f"--max-iter needs a value >= 0, got {args.max_iter}")
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise SystemExitError(f"--seed needs a value >= 0, got {seed}")
    if args.config:
        config, params = _load(args.config)
        inputs = [args.config]
    elif args.random is not None:
        n = args.random
        if n < 2:
            raise SystemExitError(f"descend --random needs N >= 2, got {n}")
        if n * math.pi * (RANDOM_MIN_SEP / 2) ** 2 > (2 + RANDOM_MIN_SEP) ** 2:
            raise SystemExitError(
                f"descend --random {n}: {n} disjoint disks of diameter {RANDOM_MIN_SEP} "
                f"do not fit in a square of side {2 + RANDOM_MIN_SEP}, so no draw of {n} "
                f"bodies in [-1, 1]^2 has every pair more than {RANDOM_MIN_SEP} apart")
        params = PotentialParams() if args.A is None else PotentialParams(args.A)
        config = _random_start(n, seed)
        inputs = []
    else:
        raise SystemExitError("descend needs a config file or --random N")
    report = descend(config, params, tol=args.tol, max_iter=args.max_iter,
                     record=bool(args.traj))
    final = rescale_to_cc_size(report.config, params)
    print(f"converged = {report.converged}")
    print(f"iterations = {report.iterations}")
    print(f"max_la_residual = {fmt(report.max_la_residual)}")
    print(f"f = {fmt(report.f_value)}")
    print(f"collinear_collapse = {report.collinear_collapse}")
    print(f"reason = {report.reason}")
    print(f"newton_steps = {report.newton_steps}")
    print(f"i_drift = {fmt(report.i_drift)}")
    if args.traj:
        positions = np.array([pos for _, pos, _, _ in report.history])
        write_csv_atomic(args.traj, _trajectory_header(config.n),
                         _trajectory_columns(positions, config.masses, params))
    if args.final:
        write_atomic(args.final, config_to_json(final, params) + "\n")
    drawn = args.random is not None
    manifest = RunManifest("descend", {"config": args.config, "random": args.random,
                                       "A": params.A if drawn else None}, inputs,
                           tolerances={"tol": args.tol, "max_iter": args.max_iter},
                           seed=seed if drawn else None,
                           counts={"iterations": report.iterations,
                                   "newton_steps": report.newton_steps,
                                   "newton_rejected": report.newton_rejected,
                                   "reason": report.reason,
                                   "i_drift": report.i_drift,
                                   "max_step_i_drift": report.max_step_i_drift})
    return (0 if report.converged else 1), manifest


def cmd_flow(args) -> tuple[int, RunManifest]:
    config, params = _load(args.config)
    terms = _parse_pairs(args.pairs, config.n)
    if (args.steps + 1) * 2 * config.n > 8 * MAX_CELLS:
        raise SystemExitError(f"flow --steps {args.steps}: {args.steps + 1} rows of {config.n} "
                              f"bodies exceed the limit of {8 * MAX_CELLS} coordinates per run")
    spec = FlowSpec(terms=terms, dt=args.dt, steps=args.steps)
    traj = flow_fixed_combo(config, spec)
    positions = np.array([c.positions for c in traj])
    write_csv_atomic(args.traj, _trajectory_header(config.n),
                     _trajectory_columns(positions, config.masses, params))
    completed = len(traj) - 1
    print(f"steps_completed = {completed}")
    return 0, RunManifest("flow", {"config": args.config, "pairs": args.pairs,
                                   "dt": args.dt, "steps": args.steps},
                          [args.config], counts={"steps_completed": completed})


MATRIX_CSV_HEADER = "kind,row,col,dir_row,dir_col,value\n"


def _matrix_table(tm, eigenvalues) -> str:
    """The twist-matrix CSV table as text: the header, the "entry" rows of
    the matrix in row-major order, then one "eigenvalue" row each.

    The entry rows are one flat list of pieces, six a row, filled by slice:
    "entry,a,", "b,", the direction names of a and b each with its comma,
    the value and the line break.  `assemble_twist_hessian` makes the
    matrix exactly symmetric, so each entry of the upper triangle is
    formatted once and mirrored.
    """
    k = len(tm.directions)
    names = [csv_field(d.name) + "," for d in tm.directions]
    upper = np.triu_indices(k)
    # entry (a, b) and its mirror (b, a) read the text of the same upper entry
    twin = np.empty((k, k), np.intp)
    twin[upper] = twin[upper[::-1]] = np.arange(upper[0].size)
    row = np.arange(k).repeat(k)
    pieces = ["\n"] * (1 + 6 * k * k)
    pieces[0] = MATRIX_CSV_HEADER
    pieces[1::6] = _coded([f"entry,{a}," for a in range(k)], row)
    pieces[2::6] = [f"{b}," for b in range(k)] * k
    pieces[3::6] = _coded(names, row)
    pieces[4::6] = names * k
    pieces[5::6] = _coded(list(_texts(tm.matrix[upper])), twin.ravel())
    pieces += [f"eigenvalue,{a},,,,{v}\n" for a, v in enumerate(_texts(eigenvalues))]
    return "".join(pieces)


def cmd_hessian(args) -> tuple[int, RunManifest]:
    config, params = _load(args.config)
    table = build_pair_table(config, params)
    basis, dim = twist_span_basis(table)
    tm = assemble_twist_hessian(table, basis, normalized=args.normalized)
    w = np.linalg.eigvalsh(tm.matrix)     # ascending
    neg, zero, pos = signature(w)
    print(f"span_dimension = {dim}")
    print(f"signature = ({neg} neg, {zero} zero, {pos} pos)")
    if args.csv:
        write_atomic(args.csv, _matrix_table(tm, w))
    return 0, RunManifest("hessian", {"config": args.config, "normalized": args.normalized},
                          [args.config])


# The most kite-map cells or certify boxes one run computes: 4^11, a 2048 x 2048
# map or certify at --subdivide 11.  A larger request exits 2 before any
# allocation, instead of failing in numpy once its arrays do not fit.  A flow's
# trajectory holds at most 8 * MAX_CELLS coordinates, 4^11 rows of four bodies.
MAX_CELLS = 4 ** 11

MAP_CSV_COLUMNS = ["z3", "z4", "class", "mu31", "mu41", "x2", "idx_Hs", "idx_Ha",
                   "idx_total", "degenerate_flag", "which_block_changed", "error"]


def _map_columns(m: IndexMap):
    """The kite-map CSV columns in turn, one row per cell; mu31, mu41 and x2
    are empty where NaN, and the indices unless the cell passes every check.
    One column holds the three index fields, idx_Hs,idx_Ha,idx_total."""
    yield from map(_formatted, (m.z3, m.z4))
    yield _coded(KITE_CLASSES, m.klass)
    yield from map(_formatted, (m.mu31, m.mu41, m.x2))
    hs, ha = m.idx_hs + 1, m.idx_ha + 1     # -1 (unchecked) to 0
    width = int(ha.max(initial=0)) + 1
    yield _coded([f"{a - 1},{b - 1},{a + b - 2}" if a else ",,"
                  for a in range(int(hs.max(initial=0)) + 1) for b in range(width)],
                 hs * width + ha)
    yield _coded(("0", "1"), m.degenerate.astype(np.intp))
    yield _coded([csv_field(label) for label in _BLOCK_LABELS], m.changed)
    yield [error and csv_field(error) for error in m.errors]


def write_pgm(index_map: IndexMap, n3: int, n4: int, path) -> None:
    """8-bit P5 raster of the index map: 255 for index 0, 128 for the next
    observed index, 0 for higher ones, 64 for every cell not computed.
    Top image row is the highest z4."""
    computed = index_map.computed
    total = index_map.idx_hs + index_map.idx_ha
    observed = sorted(set(total[computed].tolist()))
    higher = [v for v in observed if v != 0]
    img = np.full(total.size, 64, dtype=np.uint8)
    for v in observed:
        img[computed & (total == v)] = 255 if v == 0 else 128 if v == higher[0] else 0
    header = f"P5\n{n3} {n4}\n255\n".encode("ascii")
    write_atomic(path, header + img.reshape(n4, n3)[::-1].tobytes())


def cmd_kite_map(args) -> tuple[int, RunManifest]:
    z3_lo, z3_hi, n3 = _parse_range(args.z3)
    z4_lo, z4_hi, n4 = _parse_range(args.z4)
    if n3 * n4 > MAX_CELLS:
        raise SystemExitError(
            f"kite-map --z3 {args.z3} --z4 {args.z4}: {n3} x {n4} cells exceed the "
            f"limit of {MAX_CELLS} per run")
    params = PotentialParams(args.A)
    m = kite_index_map(z3_lo, z3_hi, n3, z4_lo, z4_hi, n4, params)
    write_csv_atomic(args.csv, MAP_CSV_COLUMNS, _map_columns(m))
    if args.pgm:
        write_pgm(m, n3, n4, args.pgm)
    computed = int(m.computed.sum())
    totals = sorted(set((m.idx_hs + m.idx_ha)[m.computed].tolist()))
    print(f"cells = {m.klass.size}, admissible_computed = {computed}")
    print(f"observed_total_indices = {totals}")
    counts = {
        "cells": m.klass.size,
        "admissible": int(m.admissible.sum()),
        "computed": computed,
        "degenerate": int(m.degenerate.sum()),
        "errors": dict(sorted(Counter(e.partition(":")[0] for e in m.errors if e).items())),
    }
    return 0, RunManifest("kite-map", {"z3": args.z3, "z4": args.z4, "A": args.A},
                          counts=counts)


def _certify_columns(certs: Certificates, total: np.ndarray):
    """The certify CSV columns in turn, one row per box in lane order; total
    is -1 where a block is Unknown.  One column holds a block's two fields,
    its index and its certificate."""
    yield from map(_formatted, (certs.z3.lo, certs.z3.hi, certs.z4.lo, certs.z4.hi))
    outcomes = [f"{'Unknown' if o.value is None else o.value},{csv_field(o.certificate)}"
                for o in OUTCOMES]
    yield _coded(outcomes, certs.hs)
    yield _coded(outcomes, certs.ha)
    yield _indices(total, "Unknown")


def cmd_certify(args) -> tuple[int, RunManifest]:
    params = PotentialParams(args.A)
    z3 = _parse_interval(args.z3)
    z4 = _parse_interval(args.z4)
    if args.subdivide < 0:
        raise SystemExitError(f"certify --subdivide needs k >= 0, got {args.subdivide}")
    # k is capped before the power, so that a huge k builds no huge integer
    if 4 ** min(args.subdivide, 32) > MAX_CELLS:
        raise SystemExitError(
            f"certify --subdivide {args.subdivide}: 4^{args.subdivide} boxes exceed the "
            f"limit of {MAX_CELLS} per run")
    parts = 2 ** args.subdivide
    # boxes in row order: z3 part a, then z4 part b, at lane a * parts + b
    e3, e4 = (iv.lo + np.arange(parts + 1) * ((iv.hi - iv.lo) / parts) for iv in (z3, z4))
    certs = certify_boxes(IntervalArray(np.repeat(e3[:-1], parts), np.repeat(e3[1:], parts)),
                          IntervalArray(np.tile(e4[:-1], parts), np.tile(e4[1:], parts)), params)
    value = np.array([-1 if o.value is None else o.value for o in OUTCOMES])
    hs, ha = value[certs.hs], value[certs.ha]
    total = np.where((hs >= 0) & (ha >= 0), hs + ha, -1)
    write_csv_atomic(args.csv, ["z3_lo", "z3_hi", "z4_lo", "z4_hi", "idx_Hs", "cert_Hs",
                                "idx_Ha", "cert_Ha", "idx_total"], _certify_columns(certs, total))
    decided = int((total >= 0).sum())
    print(f"boxes = {total.size}, certified = {decided}, coverage = {decided / total.size:.3f}")
    # both blocks get NOT_ADMISSIBLE or neither; nan when no box is admissible
    admissible = int((certs.hs != OUTCOMES.index(NOT_ADMISSIBLE)).sum())
    print(f"admissible = {admissible}, "
          f"admissible_coverage = {decided / admissible if admissible else math.nan:.3f}")
    counts = {"boxes": total.size, "admissible": admissible, "decided": {}, "unknown": {}}
    for block, codes in (("Hs", certs.hs), ("Ha", certs.ha)):
        n = np.bincount(codes, minlength=len(OUTCOMES))
        unknown = Counter()
        for o, k in zip(OUTCOMES, n.tolist()):
            if k and not o.known:
                unknown[o.certificate.partition(":")[0]] += k
        counts["decided"][block] = int(n[value >= 0].sum())
        counts["unknown"][block] = dict(sorted(unknown.items()))
    return 0, RunManifest("certify", {"z3": args.z3, "z4": args.z4, "A": args.A,
                                      "subdivide": args.subdivide}, counts=counts)


def cmd_lagrange(args) -> tuple[int, RunManifest]:
    try:
        masses = tuple(float(v) for v in args.masses.split(","))
    except ValueError:
        raise SystemExitError(f"bad --masses value {args.masses!r}")
    if len(masses) != 3 or min(masses) <= 0:
        raise SystemExitError("--masses needs three positive values m1,m2,m3")
    params = PotentialParams(args.A)
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    config = PlanarConfig.from_points(pts, masses)
    tm = assemble_twist_hessian(build_pair_table(config, params), [(0, 1), (0, 2), (1, 2)],
                                normalized=True)
    a0, a1, a2 = lagrange_char_poly_coeffs(masses)
    w = np.linalg.eigvalsh(tm.matrix)     # ascending
    neg, zero, pos = signature(w)
    print(f"signature = ({neg} neg, {zero} zero, {pos} pos)")
    print(f"eigenvalues = {', '.join(fmt(v) for v in w)}")
    print(f"char_poly_coeffs (a0, a1, a2) = {fmt(a0)}, {fmt(a1)}, {fmt(a2)}")
    if args.csv:
        charpoly = "".join(f"charpoly,a{c},,,,{fmt(v)}\n" for c, v in enumerate((a0, a1, a2)))
        write_atomic(args.csv, _matrix_table(tm, w) + charpoly)
    return 0, RunManifest("lagrange", {"masses": args.masses, "A": args.A})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twistcc",
        description="Planar central configurations: residuals, descent, twist "
                    "Hessians, kite index maps, and certified indices.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="first-order residual report for a configuration")
    q.add_argument("config")
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--csv")
    q.set_defaults(func=cmd_eval, outputs=("csv",))

    q = sub.add_parser("descend", help="gradient descent to a central configuration")
    q.add_argument("config", nargs="?")
    q.add_argument("--random", type=int, help="random start with N bodies")
    # no defaults: a file run refuses both, so a given value must show
    q.add_argument("--seed", type=int, help="seed of the --random draw (default 0)")
    q.add_argument("--A", type=float, help="exponent of a --random start (default 3)")
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--max-iter", type=int, default=50000)
    q.add_argument("--traj", help="trajectory CSV output")
    q.add_argument("--final", help="final rescaled configuration JSON")
    q.set_defaults(func=cmd_descend, outputs=("traj", "final"))

    q = sub.add_parser("flow", help="integrate a fixed twist combination")
    q.add_argument("config")
    q.add_argument("--pairs", required=True,
                   help="e.g. 1-2:1.0,1-3:1.0,1-4:1.0 (1-based bodies)")
    q.add_argument("--dt", type=float, default=1e-3)
    q.add_argument("--steps", type=int, default=1000)
    q.add_argument("--traj", required=True)
    q.set_defaults(func=cmd_flow, outputs=("traj",))

    q = sub.add_parser("hessian", help="twist-basis Hessian and eigenvalues")
    q.add_argument("config")
    q.add_argument("--normalized", action="store_true")
    q.add_argument("--csv")
    q.set_defaults(func=cmd_hessian, outputs=("csv",))

    q = sub.add_parser("kite-map", help="Morse-index map over kite shapes")
    q.add_argument("--z3", required=True, help="lo:hi:n")
    q.add_argument("--z4", required=True, help="lo:hi:n")
    q.add_argument("--A", type=float, default=3.0)
    q.add_argument("--csv", required=True)
    q.add_argument("--pgm")
    q.set_defaults(func=cmd_kite_map, outputs=("csv", "pgm"))

    q = sub.add_parser("certify", help="rigorous index certification over a shape box")
    q.add_argument("--z3", required=True, help="a,b")
    q.add_argument("--z4", required=True, help="c,d")
    q.add_argument("--A", type=float, default=3.0)
    q.add_argument("--subdivide", type=int, default=0)
    q.add_argument("--csv", required=True)
    q.set_defaults(func=cmd_certify, outputs=("csv",))

    q = sub.add_parser("lagrange", help="3-body equilateral Hessian analysis")
    q.add_argument("--masses", required=True, help="m1,m2,m3")
    q.add_argument("--A", type=float, default=3.0)
    q.add_argument("--csv")
    q.set_defaults(func=cmd_lagrange, outputs=("csv",))
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in a process: `parse_args` keeps no
    state on it between calls."""
    return build_parser()


def _run_files(args) -> list[str]:
    """The run's given outputs in the order its command writes them, then the
    manifest beside the first; an input error unless all name distinct files,
    none the `.tmp` file that `write_atomic` writes another one through."""
    files = [path for path in (getattr(args, name) for name in args.outputs) if path]
    files += [files[0] + ".manifest.json"] if files else []
    dirs = {}

    def resolved(path: str) -> str:
        # os.path.realpath(path), which is the real directory joined with the
        # last name unless that is empty, ".", ".." or a link (or the path
        # holds a NUL, on which realpath may raise): each directory once
        head, name = os.path.split(path)
        if name in ("", os.curdir, os.pardir) or "\0" in path or os.path.islink(path):
            return os.path.realpath(path)
        if head not in dirs:
            dirs[head] = os.path.realpath(head or os.curdir)
        return os.path.join(dirs[head], name)

    real = {resolved(path) for path in files}
    if len(real) < len(files) or real & {resolved(f"{path}.tmp") for path in files}:
        raise SystemExitError("outputs must name distinct files, none another's .tmp file: "
                              + ", ".join(files))
    return files


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    files = []
    try:
        files = _run_files(args)
        t0 = time.perf_counter()
        status, manifest = args.func(args)
        if files:
            manifest.outputs = files[:-1]
            manifest.wall_s = time.perf_counter() - t0
            manifest.write(files[-1])
        return status
    except (SystemExitError, GeometryError, KiteError, OSError, ValueError) as exc:
        if isinstance(exc, OSError) and exc.filename in files:
            # the files are written in order, so those before the one that
            # failed are taken back: no output is left without its manifest
            for path in files[:files.index(exc.filename)]:
                with contextlib.suppress(OSError):
                    os.remove(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
