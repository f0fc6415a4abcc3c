#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --traced 2 \
        --out perfbench/steadiness.json

Runs BENCHMARK.json's command once per (workload, seed), one at a time, from
the repository root: `--sets` sets of `--runs` runs per workload, each set
over new seeds (1-10, then 11-20), then `--traced` runs with `--trace 1`.
For every end-to-end metric it reports the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, the
measure the benchmark's bounds are checked against, and the same for
set-up, wall and CPU times before they were scaled to the reference host
speed.  With two sets it reports by how much the second set's medians are
worse than the first's.  It also records the host's CPU tick counters from
/proc/stat (user, system, idle and steal) before and after each run, so
that runs disturbed by other tenants of the host can be recognised.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_ticks() -> dict:
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return {"user": fields[0], "system": fields[2], "idle": fields[3], "steal": fields[7]}


def host() -> str:
    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), "unknown CPU")
    return f"{os.cpu_count()} CPUs, {model}"


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    before = cpu_ticks()
    t0 = time.perf_counter()
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    after = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "elapsed_s": elapsed, "result": result,
            "details": json.loads(lines[-2]) if len(lines) > 1 else {},
            "ticks": {k: after[k] - before[k] for k in before}}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def measure_set(spec, names, seeds, trace: int) -> dict:
    """Runs every workload once per seed; per-workload spreads and raw data."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = {"seeds": list(seeds), "run_seconds": spec["run_seconds"], "trace": trace,
           "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec["command"], name, seed, spec["run_seconds"], trace))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{name} seed {seed}: {values} steal {runs[-1]['ticks']['steal']}", flush=True)
        metrics = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {**spread(values), "bound": bounds.get(metric), "values": values}
        # the same quantities before scaling to the reference host speed
        raw = {"raw_setup_s": [statistics.median(r["details"]["raw_setup_s_samples"])
                               for r in runs],
               "raw_wall_s": [statistics.fmean(r["details"]["raw_rep_wall_s"]) for r in runs],
               "raw_cpu_s": [statistics.fmean(r["details"]["raw_rep_cpu_s"]) for r in runs]}
        out["workloads"][name] = {
            "runs": len(runs),
            "elapsed_s": [round(r["elapsed_s"], 2) for r in runs],
            "ticks": [r["ticks"] for r in runs],
            "rep_wall_s": [r["details"].get("rep_wall_s") for r in runs],
            "rep_cpu_s": [r["details"].get("rep_cpu_s") for r in runs],
            "raw_rep_wall_s": [r["details"].get("raw_rep_wall_s") for r in runs],
            "rep_speed": [r["details"].get("rep_speed") for r in runs],
            "unscaled": {k: {**spread(v), "values": v} for k, v in raw.items()},
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics,
        }
        for metric, m in [*metrics.items(), *out["workloads"][name]["unscaled"].items()]:
            print(f"{name:14s} {metric:24s} median {m['median']:.6g}  spread {m['spread']:.4f}"
                  f"  bound {m.get('bound')}", flush=True)
    return out


def compare(spec, first: dict, second: dict) -> dict:
    """Per workload and end-to-end metric: both medians and spreads, and by how
    much the second median is worse than the first (negative: better)."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    table = {}
    for name, w1 in first["workloads"].items():
        table[name] = {}
        for metric, m1 in w1["metrics"].items():
            m2 = second["workloads"][name]["metrics"][metric]
            a, b = m1["median"], m2["median"]
            worse = (b - a if better[metric] == "lower" else a - b) / a if a else 0.0
            table[name][metric] = {"median_1": a, "median_2": b, "worse_by": round(worse, 4),
                                   "bound": m1["bound"], "spread_1": m1["spread"],
                                   "spread_2": m2["spread"]}
    return table


def traced(spec, names, seeds) -> dict:
    """--trace 1 runs: every per-layer count must be the same for each seed."""
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    out = {}
    for name in names:
        runs = [run_once(spec["command"], name, seed, spec["run_seconds"], 1) for seed in seeds]
        metrics = [{k: v["value"] for k, v in r["result"]["metrics"].items()} for r in runs]
        out[name] = {"seeds": list(seeds),
                     "correct": [r["result"]["correct"] for r in runs],
                     "counts_identical": all({k: m[k] for k in counted} ==
                                             {k: metrics[0][k] for k in counted}
                                             for m in metrics),
                     "trace_overhead_frac": [round(m["trace_overhead_frac"], 4) for m in metrics],
                     "metrics": metrics}
        print(f"{name} traced: correct {out[name]['correct']} counts identical "
              f"{out[name]['counts_identical']} overhead {out[name]['trace_overhead_frac']}",
              flush=True)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=2,
                    help="sets of runs, each over new seeds; with 2, also compare them")
    ap.add_argument("--traced", type=int, default=0, help="--trace 1 runs per workload")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {"host": host(), "sets": []}
    for k in range(args.sets):
        seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
        summary["sets"].append(measure_set(spec, names, seeds, 0))
        if args.sets == 2 and k == 1:
            summary["comparison"] = compare(spec, *summary["sets"])
        if args.out:
            Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.traced:
        summary["traced_runs"] = traced(spec, names, range(1, 1 + args.traced))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
