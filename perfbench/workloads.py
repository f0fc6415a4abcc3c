"""The four benchmark workloads: inputs made from a seed, and output oracles.

A workload is a fixed list of items; an item is one or more twistcc CLI
calls (argv lists, paths relative to the repository root).  The seed only
reorders items, draws coordinates whose cost depends on n alone, or picks
the points an oracle spot-checks, so the work does not depend on it.

Each oracle runs outside the timed body and returns an `Outcome`:
`failed` counts correctness failures (an error exit, an exception or a
mismatch against the oracle), `undecided` counts sound but indefinite
answers (an Unknown certificate, a descent that did not converge, a
degenerate or errored map cell).
"""

from __future__ import annotations

import csv
import gzip
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twistcc.geometry import PlanarConfig, PotentialParams, config_to_json, load_config
from twistcc.hessian import cartesian_hessian, morse_index
from twistcc.kite import (ROTATION_ZERO_RTOL, KiteError, KiteShape, build_kite,
                          kite_blocks)
from twistcc.twist import cc_residual, twist_vector

REF_DIR = Path(__file__).resolve().parent / "ref"
PARAMS = PotentialParams(3.0)

# kite-map: the ROADMAP full window at R x R cell centers
KITE_R = 100
KITE_Z3 = f"1.0:2.2:{KITE_R}"
KITE_Z4 = f"0.01:0.87:{KITE_R}"
KITE_SAMPLES = 32            # cells recomputed through build_kite + kite_blocks
MU_RTOL = 1e-9

# certify: 4^5 = 1024 boxes straddling the H_a bifurcation near (2.0, 0.8)
CERT_Z3 = "1.99,2.01"
CERT_Z4 = "0.79,0.81"
CERT_SUBDIVIDE = 5

# descend: the bundled square plus the first seeds of the ROADMAP start suite
DESCEND_NS = (4, 5, 6, 8)
DESCEND_SEEDS = (0, 1, 2)
DESCEND_MAX_ITER = 300
DESCEND_TOL = 1e-10
# A claimed convergence must re-check with cc_residual (both LA and AC
# residuals) on the rescaled --final configuration within this tolerance.
# descend stops on the Laura-Andoyer residual before the final rescale, so
# the rescaled residuals can exceed DESCEND_TOL slightly: on the 40-start
# suite two converged starts re-check at 1.1e-10 and 2.1e-10.
RECHECK_TOL = 10 * DESCEND_TOL

# nbody-hessian: equal counts of seeded random configurations per n
NBODY_NS = (10, 20, 40)
NBODY_PER_N = 5
MIN_SEPARATION = 0.2
HESSIAN_RTOL = 1e-9


@dataclass
class Item:
    key: str
    calls: list[list[str]]


@dataclass
class Plan:
    items: list[Item]
    inputs: dict[str, str] = field(default_factory=dict)   # path -> file text
    oracle_seed: int = 0

    def resolve(self, work: str, out: str) -> "Plan":
        """The plan with {work} and {out} replaced by directories."""
        def sub(text: str) -> str:
            return text.replace("{work}", work).replace("{out}", out)

        items = [Item(it.key, [[sub(a) for a in call] for call in it.calls])
                 for it in self.items]
        return Plan(items, {sub(p): t for p, t in self.inputs.items()}, self.oracle_seed)


@dataclass
class Outcome:
    """Oracle verdict over the items of one repetition, keyed by item."""

    attempted: int
    bad: set = field(default_factory=set)
    undecided: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, key, msg: str) -> None:
        if key not in self.bad and len(self.problems) < 20:
            self.problems.append(msg)
        self.bad.add(key)

    def fail_all(self, msg: str) -> "Outcome":
        self.problems.append(msg)
        self.bad.update(range(self.attempted))
        return self

    @property
    def failed(self) -> int:
        return len(self.bad)

    @property
    def decided_frac(self) -> float:
        return 1.0 - len(self.bad | self.undecided) / self.attempted

    def fail_frac(self, undecided_fails: bool) -> float:
        failed = self.bad | self.undecided if undecided_fails else self.bad
        return len(failed) / self.attempted


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_ref(name) -> list[dict]:
    with gzip.open(REF_DIR / name, "rt", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: str, b: str, rtol: float) -> bool:
    if a == "" or b == "":
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def float_indices(kite) -> tuple[int, int, bool]:
    """(idx_Hs, deflated idx_Ha, degenerate) of a kite from its float blocks."""
    blocks = kite_blocks(kite, PARAMS)
    ws = np.linalg.eigvalsh(blocks.h_s)
    wa = np.linalg.eigvalsh(blocks.h_a)
    rot = int(np.argmin(np.abs(wa)))
    degenerate = abs(wa[rot]) >= ROTATION_ZERO_RTOL * float(np.abs(wa).max())
    ha = sum(1 for t, w in enumerate(wa) if t != rot and w < 0)
    return int((ws < 0).sum()), ha, bool(degenerate)


class KiteMap:
    name = "kite-map"
    undecided_fails = True      # a degenerate or errored admissible cell is a failure
    ref_name = "kite_map.csv.gz"
    ref_columns = ("class", "mu31", "mu41", "x2", "idx_Hs", "idx_Ha", "idx_total",
                   "degenerate_flag", "which_block_changed", "error")

    def plan(self, seed: int) -> Plan:
        return Plan([Item("map", [self.argv(KITE_Z3, KITE_Z4, "{out}")])], oracle_seed=seed)

    @staticmethod
    def argv(z3, z4, out):
        return ["kite-map", "--z3", z3, "--z4", z4,
                "--csv", f"{out}/map.csv", "--pgm", f"{out}/map.pgm"]

    def warmup(self, out: str) -> list[list[str]]:
        return [self.argv("1.0:2.2:8", "0.01:0.87:8", out)]

    def work_units(self) -> int:
        return KITE_R * KITE_R

    def load_reference(self):
        return _read_ref(self.ref_name)

    def check(self, plan: Plan, ref, out: Path, results) -> Outcome:
        res = Outcome(self.work_units())
        if results[0][0].rc != 0:
            return res.fail_all(f"kite-map exit {results[0][0].rc}")
        rows = _read_csv(out / "map.csv")
        if len(rows) != len(ref):
            return res.fail_all(f"{len(rows)} map rows, reference has {len(ref)}")
        for k, (row, want) in enumerate(zip(rows, ref)):
            if row["class"] in ("tall", "wide") and (row["error"] or row["degenerate_flag"] == "1"):
                res.undecided.add(k)
            for col in self.ref_columns:
                same = (_close(row[col], want[col], MU_RTOL) if col in ("mu31", "mu41", "x2")
                        else row[col] == want[col])
                if not same:
                    res.fail(k, f"cell {k}: {col} = {row[col]!r}, reference {want[col]!r}")
        rng = np.random.default_rng(plan.oracle_seed)
        admissible = [k for k, r in enumerate(rows) if r["class"] in ("tall", "wide")]
        for k in rng.choice(admissible, size=min(KITE_SAMPLES, len(admissible)), replace=False):
            row = rows[k]
            kite = build_kite(KiteShape(float(row["z3"]), float(row["z4"])), PARAMS)
            hs, ha, _ = float_indices(kite)
            same = (str(hs) == row["idx_Hs"] and str(ha) == row["idx_Ha"]
                    and all(_close(row[c], repr(getattr(kite, c)), MU_RTOL)
                            for c in ("mu31", "mu41", "x2")))
            if not same:
                res.fail(k, f"cell {k}: recomputed ({hs}, {ha}) differs from the map")
        self._check_pgm(rows, out / "map.pgm", res)
        counts = Counter(r["idx_total"] for r in rows if r["idx_total"])
        res.details = {"admissible": len(admissible), "index_counts": dict(sorted(counts.items()))}
        return res

    @staticmethod
    def _check_pgm(rows, path: Path, res: Outcome) -> None:
        data = path.read_bytes()
        header = f"P5\n{KITE_R} {KITE_R}\n255\n".encode()
        if not data.startswith(header) or len(data) != len(header) + KITE_R * KITE_R:
            res.fail("pgm", "PGM header or size wrong")
            return
        img = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(KITE_R, KITE_R)
        shades = {}
        for k, row in enumerate(rows):
            computed = row["idx_total"] != "" and row["degenerate_flag"] == "0"
            px = int(img[KITE_R - 1 - k // KITE_R, k % KITE_R])
            key = row["idx_total"] if computed else "-"
            if shades.setdefault(key, px) != px:
                res.fail("pgm", f"PGM pixel of cell {k} is {px}, other cells of index {key} are "
                         f"{shades[key]}")
                return
        if shades.get("-", 64) != 64 or len(set(shades.values())) != len(shades):
            res.fail("pgm", f"PGM shades {shades} do not separate the indices")


class Certify:
    name = "certify"
    undecided_fails = False     # Unknown is a sound answer, never a failure
    ref_name = "certify.csv.gz"

    def plan(self, seed: int) -> Plan:
        return Plan([Item("cert", [self.argv(CERT_SUBDIVIDE, "{out}")])], oracle_seed=seed)

    @staticmethod
    def argv(subdivide, out):
        return ["certify", "--z3", CERT_Z3, "--z4", CERT_Z4,
                "--subdivide", str(subdivide), "--csv", f"{out}/cert.csv"]

    def warmup(self, out: str) -> list[list[str]]:
        return [self.argv(0, out)]

    def work_units(self) -> int:
        return 4 ** CERT_SUBDIVIDE

    def load_reference(self):
        return _read_ref(self.ref_name)

    def check(self, plan: Plan, ref, out: Path, results) -> Outcome:
        res = Outcome(self.work_units())
        if results[0][0].rc != 0:
            return res.fail_all(f"certify exit {results[0][0].rc}")
        rows = _read_csv(out / "cert.csv")
        if len(rows) != len(ref):
            return res.fail_all(f"{len(rows)} boxes, reference has {len(ref)}")
        rng = np.random.default_rng(plan.oracle_seed)
        decided = {"Hs": 0, "Ha": 0}
        for k, (row, want) in enumerate(zip(rows, ref)):
            box = [float(row[c]) for c in ("z3_lo", "z3_hi", "z4_lo", "z4_hi")]
            if box != [float(want[c]) for c in ("z3_lo", "z3_hi", "z4_lo", "z4_hi")]:
                res.fail(k, f"box {k} bounds differ from the reference")
                continue
            u = rng.uniform(size=2)     # drawn for every box, so picks do not shift
            got = {b: row[f"idx_{b}"] for b in ("Hs", "Ha")}
            known = {b: v for b, v in got.items() if v != "Unknown"}
            if len(known) < 2:
                res.undecided.add(k)
            if not known:
                continue
            points = [(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3])),
                      (box[0] + u[0] * (box[1] - box[0]), box[2] + u[1] * (box[3] - box[2]))]
            floats = []
            for z3, z4 in points:
                try:
                    hs, ha, degenerate = float_indices(build_kite(KiteShape(z3, z4), PARAMS))
                except KiteError as exc:
                    res.fail(k, f"box {k}: decided, but the float path fails inside: {exc}")
                    break
                # a degenerate float H_a has no trustworthy deflated index
                floats.append({"Hs": str(hs), "Ha": None if degenerate else str(ha)})
            else:
                for b, v in known.items():
                    decided[b] += 1
                    if want[f"idx_{b}"] not in ("Unknown", v):
                        res.fail(k, f"box {k}: idx_{b} = {v} contradicts reference "
                                 f"{want[f'idx_{b}']}")
                    elif any(f[b] not in (None, v) for f in floats):
                        res.fail(k, f"box {k}: idx_{b} = {v}, float index "
                                 f"{[f[b] for f in floats]}")
                if len(known) == 2 and row["idx_total"] != str(int(got["Hs"]) + int(got["Ha"])):
                    res.fail(k, f"box {k}: idx_total {row['idx_total']} is not idx_Hs + idx_Ha")
        res.details = {"hs_decided": decided["Hs"], "ha_decided": decided["Ha"]}
        return res


def _descend_argv(n, s, out):
    return ["descend", "--random", str(n), "--seed", str(s), "--max-iter",
            str(DESCEND_MAX_ITER), "--final", f"{out}/n{n}-s{s}.json"]


class Descend:
    name = "descend"
    undecided_fails = True      # a start that does not converge is a failure

    def plan(self, seed: int) -> Plan:
        items = [Item("square", [["descend", "data/square_1135.json", "--max-iter",
                                  str(DESCEND_MAX_ITER), "--final", "{out}/square.json"]])]
        items += [Item(f"n{n}-s{s}", [_descend_argv(n, s, "{out}")])
                  for n in DESCEND_NS for s in DESCEND_SEEDS]
        order = np.random.default_rng(seed).permutation(len(items))
        return Plan([items[k] for k in order], oracle_seed=seed)

    def warmup(self, out: str) -> list[list[str]]:
        return [["descend", "--random", "4", "--seed", "0", "--max-iter", "5",
                 "--final", f"{out}/warmup.json"]]

    def work_units(self) -> int:
        return 1 + len(DESCEND_NS) * len(DESCEND_SEEDS)

    def load_reference(self):
        return None

    def check(self, plan: Plan, ref, out: Path, results) -> Outcome:
        res = Outcome(len(plan.items))
        worst = 0.0
        for item, (r,) in zip(plan.items, results):
            if r.rc not in (0, 1) or r.error:
                res.fail(item.key, f"{item.key}: exit {r.rc} {r.error}")
                continue
            if ("converged = True" in r.stdout) != (r.rc == 0):
                res.fail(item.key, f"{item.key}: exit {r.rc} disagrees with its report")
                continue
            if r.rc == 1:
                res.undecided.add(item.key)
                continue
            config, params = load_config(out / f"{item.key}.json")
            check = cc_residual(config, params, tol=RECHECK_TOL)
            worst = max(worst, check.max_la, check.max_ac)
            if not check.is_cc:
                res.fail(item.key, f"{item.key}: claims convergence, cc_residual gives "
                         f"la {check.max_la:.3e} ac {check.max_ac:.3e}")
        res.details = {"converged": res.attempted - len(res.bad | res.undecided),
                       "recheck_worst_residual": worst}
        return res


def random_config(rng, n: int) -> PlanarConfig:
    """Equal masses, uniform in a square of area n (the density of cmd_descend's
    n = 4 draws), redrawn until every pair is farther apart than 0.2."""
    half = math.sqrt(n) / 2
    while True:
        pts = rng.uniform(-half, half, (n, 2))
        d = pts[:, None, :] - pts[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        if r[np.triu_indices(n, 1)].min() > MIN_SEPARATION:
            return PlanarConfig.from_points(pts, np.ones(n))


class NbodyHessian:
    name = "nbody-hessian"
    undecided_fails = True

    def plan(self, seed: int) -> Plan:
        rng = np.random.default_rng(seed)
        items, inputs = [], {}
        for n in NBODY_NS:
            for c in range(NBODY_PER_N):
                key = f"n{n}-c{c}"
                path = f"{{work}}/{key}.json"
                inputs[path] = config_to_json(random_config(rng, n), PARAMS) + "\n"
                items.append(Item(key, [["eval", path, "--csv", f"{{out}}/{key}.eval.csv"],
                                        ["hessian", path, "--csv", f"{{out}}/{key}.hess.csv"]]))
        order = rng.permutation(len(items))
        return Plan([items[k] for k in order], inputs, seed)

    def warmup(self, out: str) -> list[list[str]]:
        return [["eval", "data/square_1135.json"], ["hessian", "data/square_1135.json"]]

    def work_units(self) -> int:
        return len(NBODY_NS) * NBODY_PER_N

    def load_reference(self):
        return None

    def check(self, plan: Plan, ref, out: Path, results) -> Outcome:
        res = Outcome(len(plan.items))
        worst = 0.0
        for item, (ev, he) in zip(plan.items, results):
            if ev.rc == 2 or he.rc != 0 or ev.error or he.error:
                res.fail(item.key, f"{item.key}: exits {ev.rc}/{he.rc} {ev.error}{he.error}")
                continue
            config, params = load_config(item.calls[0][1])
            n = config.n
            if len(_read_csv(out / f"{item.key}.eval.csv")) != n * (n - 1) // 2:
                res.fail(item.key, f"{item.key}: eval CSV does not hold one row per pair")
                continue
            err = self._check_hessian(config, params, out / f"{item.key}.hess.csv", he.stdout)
            if isinstance(err, str):
                res.fail(item.key, f"{item.key}: {err}")
            else:
                worst = max(worst, err)
        res.details = {"hessian_worst_rel_diff": worst}
        return res

    @staticmethod
    def _check_hessian(config, params, path: Path, stdout: str):
        rows = _read_csv(path)
        entries = [r for r in rows if r["kind"] == "entry"]
        dim = math.isqrt(len(entries))
        names = [r["dir_col"] for r in entries[:dim]]
        pairs = [tuple(int(v) for v in re.fullmatch(r"v(\d+)-(\d+)", s).groups()) for s in names]
        V = np.column_stack([twist_vector(config, p) for p in pairs])
        ref = V.T @ cartesian_hessian(config, params) @ V
        got = np.zeros((dim, dim))
        for r in entries:
            got[int(r["row"]), int(r["col"])] = float(r["value"])
        scale = float(np.abs(ref).max())
        rel = float(np.abs(got - ref).max()) / scale
        if dim != 2 * config.n - 3 or rel > HESSIAN_RTOL:
            return f"dimension {dim}, relative difference {rel:.3e} from V^T H V"
        w_ref = np.linalg.eigvalsh(ref)
        w_got = np.array([float(r["value"]) for r in rows if r["kind"] == "eigenvalue"])
        if float(np.abs(np.sort(w_got) - w_ref).max()) > HESSIAN_RTOL * float(np.abs(w_ref).max()):
            return "eigenvalues differ from those of V^T H V"
        neg, zero, pos = morse_index(ref)
        if f"signature = ({neg} neg, {zero} zero, {pos} pos)" not in stdout:
            return f"signature differs from ({neg}, {zero}, {pos}) of V^T H V"
        return rel


WORKLOADS = {w.name: w for w in (KiteMap(), Certify(), Descend(), NbodyHessian())}
