#!/usr/bin/env python3
"""twistcc benchmark: one workload per run, through the CLI, called in-process.

    python3 perfbench/run.py --workload kite-map --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run sets up several times (a fresh
interpreter importing twistcc, input generation, reference loading and an
untimed warm-up call) and reports the median as `setup_s`.  It then
repeats the workload's fixed list of CLI calls until `--seconds` of timed
work are spent, checks the first repetition against the workload's oracle
and every later one for byte-identical outputs, and prints one JSON object
as the last line of standard output.

Set-up and untraced repetitions are timed with `hostspeed`'s reference
kernel running between their bytecodes, and their times are scaled to a
fixed host speed (see hostspeed.py); the unscaled times are printed on the
line before the result.  Times per repetition are the mean over the run's
repetitions.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json.
With `--trace 1` the untraced repetitions are followed by `--seconds`/2 of
untraced and traced (`tracing.Tracer`) repetitions in turn, and the metrics
are the per-layer ones: span times (per traced repetition), counts (from the
first traced repetition; they repeat exactly) and the tracing overhead.
These times are not scaled.  Spans of the first traced repetition are
written to perfbench/.out/<workload>.spans.jsonl.

The exit status is 0 when every check passed, 1 when a check failed and 2
when the benchmark could not run (for example without the twistcc sources).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import Sampler, probe_speed, scaled

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench/.out")
# BLAS/OpenMP threads; BENCHMARK.json's command sets them, this is the fallback
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
MIN_REPS = 3
HARD_LIMIT_S = 150.0    # stop starting repetitions past this, whatever --seconds says
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import twistcc.cli"
SAMPLER = Sampler()     # active during set-up and untraced repetitions only


def fatal(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
        if not os.environ[var].isdigit() or not 1 <= int(os.environ[var]) <= os.cpu_count():
            fatal(f"{var}={os.environ[var]} must be between 1 and {os.cpu_count()}")
    return {var: int(os.environ[var]) for var in THREAD_VARS}


@dataclass
class CallResult:
    rc: int
    stdout: str
    error: str
    wall: float
    cpu: float


def call(main, argv) -> CallResult:
    """One CLI call; its times leave out the reference kernel's."""
    out, err = io.StringIO(), io.StringIO()
    k0 = SAMPLER.mark()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:       # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:        # a crash is a failed item, not a failed benchmark
        rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    kernel = SAMPLER.mark()[0] - k0[0]
    return CallResult(rc, out.getvalue(), err.getvalue().strip(), wall - kernel, cpu - kernel)


def digest(plan, results, out: Path) -> str:
    """Hash of every call's exit code and stdout and every output file except
    the manifests, which carry a timestamp."""
    h = hashlib.sha256()
    for item, calls in zip(plan.items, results):
        for r in calls:
            h.update(f"{item.key}\0{r.rc}\0{r.stdout}\0".encode())
    for path in sorted(out.iterdir()):
        if not path.name.endswith(".manifest.json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least 10 samples above it."""
    s = sorted(samples)
    j = len(s) - 11
    if j < 0:
        return 0.0, 0.0
    return s[j], 100.0 * (j + 1) / len(s)


class Runner:
    def __init__(self, workload, seed: int):
        from twistcc import cli
        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.work = OUT / workload.name
        self.out = self.work / "out"
        self.reps: list[tuple[float, float]] = []     # untraced scaled (wall, cpu)
        self.raw_reps: list[tuple[float, float, float]] = []   # (wall, cpu, speed)
        self.item_walls: list[float] = []
        self.first_digest = None
        self.outcome = None

    def setup_once(self) -> tuple[float, float]:
        """(scaled, raw) set-up time.  The sampler is off while the fresh
        interpreter starts (its start-up slows the kernel in this process);
        that time is scaled by the kernel's speed just before and after."""
        before = probe_speed()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
        t_fresh = time.perf_counter() - t0
        after = probe_speed()
        with SAMPLER:
            k0, t0 = SAMPLER.mark(), time.perf_counter()
            self._prepare()
            t_rest, k1 = time.perf_counter() - t0, SAMPLER.mark()
        return (t_fresh / (0.5 * (before + after)) + scaled(t_rest, 0.0, k0, k1)[0],
                t_fresh + t_rest)

    def _prepare(self) -> None:
        """Inputs, reference and warm-up: the in-process part of the set-up."""
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "warmup").mkdir(parents=True)
        self.out.mkdir()
        self.plan = self.wl.plan(self.seed).resolve(str(self.work), str(self.out))
        for path, text in self.plan.inputs.items():
            Path(path).write_text(text)
        self.ref = self.wl.load_reference()
        for argv in self.wl.warmup(str(self.work / "warmup")):
            r = call(self.cli.main, argv)
            if r.rc not in (0, 1):
                fatal(f"warm-up call {argv} exited {r.rc}: {r.error}")

    def rep(self, main) -> tuple[float, float, list, tuple, tuple]:
        """Raw (wall, cpu), results, and sampler marks around the repetition."""
        k0 = SAMPLER.mark()
        t0, c0 = time.perf_counter(), time.process_time()
        results = [[call(main, argv) for argv in item.calls] for item in self.plan.items]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return wall, cpu, results, k0, SAMPLER.mark()

    def check(self, results) -> None:
        """Oracle on the first repetition, identical outputs on the others."""
        d = digest(self.plan, results, self.out)
        if self.first_digest is None:
            self.first_digest = d
            self.outcome = self.wl.check(self.plan, self.ref, self.out, results)
        elif d != self.first_digest:
            self.outcome.fail("determinism", "outputs differ between repetitions")

    def measure(self, budget: float, min_reps: int, main, record) -> None:
        """Repeat until at least `budget` seconds and `min_reps` repetitions are
        spent, handing each repetition to `record` and to the checks."""
        walls: list[float] = []
        while len(walls) < min_reps or sum(walls) < budget:
            if walls and time.perf_counter() - T_START + max(walls) > HARD_LIMIT_S:
                break
            wall, cpu, results, k0, k1 = self.rep(main)
            walls.append(wall)
            record(wall, cpu, results, k0, k1)
            self.check(results)

    def untraced(self, budget: float) -> None:
        def record(wall, cpu, results, k0, k1):
            s_wall, s_cpu, speed = scaled(wall, cpu, k0, k1)
            self.reps.append((s_wall, s_cpu))
            self.raw_reps.append((wall, cpu, speed))
            self.item_walls.extend(sum(r.wall for r in calls) / speed for calls in results)

        with SAMPLER:
            self.measure(budget, MIN_REPS, self.cli.main, record)

    def traced(self, budget: float) -> tuple[dict, dict, float]:
        """Per-layer (times, counts) per traced repetition, and the tracing
        overhead.  Untraced and traced repetitions alternate, so that both
        halves of the overhead ratio see the same host speed."""
        from tracing import Tracer
        tracer = Tracer()
        main = tracer.span("cli.main", self.cli.main)
        times, counts, traced, plain = [], [], [], []
        while not traced or sum(traced) + sum(plain) < budget:
            if traced and time.perf_counter() - T_START + traced[-1] + plain[-1] > HARD_LIMIT_S:
                break
            wall, _, results, _, _ = self.rep(self.cli.main)
            plain.append(wall)
            self.check(results)
            tracer.install()
            try:
                wall, _, results, _, _ = self.rep(main)
            finally:
                tracer.uninstall()
            traced.append(wall)
            self.check(results)
            t, c = tracer.summary()
            times.append(t)
            counts.append(c)
            if len(traced) == 1:
                tracer.write_spans(OUT / f"{self.wl.name}.spans.jsonl")
            tracer.reset()
        if any(c != counts[0] for c in counts):
            self.outcome.fail("trace", "traced counts differ between repetitions")
        mean_times = {k: statistics.fmean(t[k] for t in times) for k in times[0]}
        return mean_times, counts[0], sum(traced) / sum(plain) - 1.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    threads = pin_threads()
    os.chdir(ROOT)
    if not (Path("src/twistcc/__init__.py").is_file() and Path("BENCHMARK.json").is_file()):
        fatal(f"no twistcc sources or BENCHMARK.json under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fatal(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(Path("BENCHMARK.json").read_text())

    runner = Runner(WORKLOADS[args.workload], args.seed)
    try:
        setup, raw_setup = zip(*(runner.setup_once() for _ in range(SETUP_REPS)))
        runner.untraced(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = runner.traced(args.seconds / 2) if args.trace else None
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    wl, outcome = runner.wl, runner.outcome
    wall = statistics.fmean(w for w, _ in runner.reps)
    cpu = statistics.fmean(c for _, c in runner.reps)
    units = wl.work_units()
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": cpu,
        "items_per_s": units / wall,
        "peak_rss_mb": peak_rss_mb,
        "decided_frac": outcome.decided_frac,
    }
    details = {"workload": wl.name, "seed": args.seed, "threads": threads,
               "setup_s_samples": setup, "raw_setup_s_samples": raw_setup,
               "rep_wall_s": [w for w, _ in runner.reps],
               "rep_cpu_s": [c for _, c in runner.reps],
               "raw_rep_wall_s": [w for w, _, _ in runner.raw_reps],
               "raw_rep_cpu_s": [c for _, c, _ in runner.raw_reps],
               "rep_speed": [v for _, _, v in runner.raw_reps], "items": units,
               "failed": outcome.failed, "undecided": len(outcome.undecided),
               "problems": outcome.problems, **outcome.details}
    if args.trace:
        times, counts, overhead = traced
        # per-item latency only where an item is its own CLI call or calls
        samples = runner.item_walls if len(runner.plan.items) > 1 else []
        tail, pct = percentile_tail(samples)
        values = {**times, **counts,
                  "trace_overhead_frac": overhead,
                  "fail_frac": outcome.fail_frac(wl.undecided_fails),
                  "item_s_p50": statistics.median(samples) if samples else 0.0,
                  "item_s_tail": tail,
                  "item_tail_pct": pct,
                  "item_samples": len(samples)}
        wanted = spec["per_layer"]
    else:
        wanted, values = spec["end_to_end"], end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(details))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
