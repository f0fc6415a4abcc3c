"""Out-of-library tracing: spans and counters around twistcc's public functions.

Nothing in the library is instrumented.  `Tracer.install()` replaces each
traced name in every module that looks it up at call time (for example
both `kite.kite_blocks` and `certify.kite_blocks`) with a wrapper, and
`uninstall()` puts the originals back.  Spans are kept in memory as
`[name, start, end, parent, tag]` rows with parent links; self time is a
span's duration minus the time covered by its direct children.

Two kinds of wrapper exist: spans, which time a call and record its
parent, and counters, which only count calls.  Counters are used where a
span per call would dominate the cost being measured (interval arithmetic,
twist-entry evaluation, configuration construction).
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from twistcc import certify, cli, geometry, hessian, intervals, kite, solver, twist

# (span name, function name, modules where the name is looked up)
SPANS = (
    ("kite.kite_index_map", "kite_index_map", (cli,)),
    ("kite.build_kite", "build_kite", (kite, certify)),
    ("kite.kite_blocks", "kite_blocks", (kite, certify)),
    ("kite.write_pgm", "write_pgm", (cli,)),
    ("hessian.assemble_twist_hessian", "assemble_twist_hessian", (cli, kite)),
    ("hessian.morse_index", "morse_index", (cli,)),
    ("geometry.build_pair_table", "build_pair_table", (cli, geometry, hessian, twist)),
    ("cli.write_csv_atomic", "write_csv_atomic", (cli,)),
    ("certify.certify_box", "certify_box", (cli,)),
    ("certify.certify_hs_index", "certify_hs_index", (certify,)),
    ("certify.certify_ha_index", "certify_ha_index", (certify,)),
    ("certify.certify_kite_scale", "certify_kite_scale", (certify,)),
    ("certify.interval_kite_quantities", "interval_kite_quantities", (certify,)),
    ("certify.interval_ha_matrix", "interval_ha_matrix", (certify,)),
    ("solver.descend", "descend", (cli,)),
    ("twist.twist_span_basis", "twist_span_basis", (cli, solver)),
    ("twist.cc_residual", "cc_residual", (cli,)),
)

# (counter name, function name, modules where the name is looked up)
COUNTERS = (
    ("hessian.generic_entry", "generic_entry", (hessian,)),
    ("geometry.moment_of_inertia", "moment_of_inertia", (cli, geometry, solver)),
    ("geometry.potential_u", "potential_u", (cli, geometry, solver)),
)

# Interval methods counted as one interval operation per call.
INTERVAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__", "sq", "pow_real",
                "sqrt", "intersect", "hull", "widened")

# Unknown-certificate reasons, keyed by the start of the certificate text.
UNKNOWN_REASONS = (
    ("box not verified inside one admissible class", "not_admissible"),
    ("no verified scale enclosure", "no_scale"),
    ("interval evaluation failed", "interval_failed"),
    ("sign of det/tr undecided", "hs_sign_undecided"),
    ("midpoint evaluation failed", "midpoint_failed"),
    ("pivot enclosure does not contain", "pivot_excludes_zero"),
    ("deflated eigenvalue enclosure straddles zero", "ha_straddles_zero"),
)
UNKNOWN_KEYS = tuple(key for _, key in UNKNOWN_REASONS) + ("other",)
STOP_KEYS = ("converged", "collapse", "max_iter", "other")
HESSIAN_SIZES = (4, 10, 20, 40)


def unknown_reason(text: str) -> str:
    for prefix, key in UNKNOWN_REASONS:
        if text.startswith(prefix):
            return key
    return "other"


class Tracer:
    """Spans and counters for one traced repetition at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.drift_max = 0.0
        self._saved: list[tuple[object, str, object]] = []
        self._moment = geometry.moment_of_inertia

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.drift_max = 0.0

    # --- wrappers -------------------------------------------------------------
    def span(self, name, fn, tag=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # --- result hooks ---------------------------------------------------------
    def _after_certify_box(self, args, kwargs, cert) -> None:
        for block in ("hs", "ha"):
            c = getattr(cert, block)
            if c.known:
                self.counts[f"certify.{block}_decided"] += 1
            else:
                self.counts[f"certify.unknown.{unknown_reason(c.certificate)}"] += 1

    def _after_descend(self, args, kwargs, report) -> None:
        if report.converged:
            reason = "converged"
        elif report.collinear_collapse:
            reason = "collapse"
        elif report.iterations >= kwargs.get("max_iter", 50000):
            reason = "max_iter"
        else:
            reason = "other"
        self.counts[f"solver.stop.{reason}"] += 1
        self.counts["solver.iterations"] += report.iterations
        i0 = self._moment(args[0])
        drift = abs(self._moment(report.config) / i0 - 1.0)
        self.drift_max = max(self.drift_max, drift)

    def _after_write_atomic(self, args, kwargs, out) -> None:
        data = args[1]
        self.counts["cli.bytes_written"] += len(data.encode() if isinstance(data, str) else data)

    def _after_write_pgm(self, args, kwargs, out) -> None:
        self.counts["cli.bytes_written"] += os.path.getsize(args[3])

    # --- install / uninstall --------------------------------------------------
    def install(self) -> None:
        hooks = {
            "certify.certify_box": {"after": self._after_certify_box},
            "solver.descend": {"after": self._after_descend},
            "kite.write_pgm": {"after": self._after_write_pgm},
            "hessian.assemble_twist_hessian": {"tag": lambda a: a[0].n},
        }
        for name, attr, modules in SPANS:
            for mod in modules:
                self._patch(mod, attr, self.span(name, getattr(mod, attr), **hooks.get(name, {})))
        for name, attr, modules in COUNTERS:
            for mod in modules:
                self._patch(mod, attr, self.counter(name, getattr(mod, attr)))
        self._patch(cli, "write_atomic",
                    self.span("cli.write_atomic", cli.write_atomic,
                              after=self._after_write_atomic))
        self._patch(np.linalg, "eigvalsh", self.span("linalg.eigvalsh", np.linalg.eigvalsh))
        self._patch(geometry.PlanarConfig, "__post_init__",
                    self.counter("geometry.PlanarConfig", geometry.PlanarConfig.__post_init__))
        for op in INTERVAL_OPS:
            self._patch(intervals.Interval, op,
                        self.counter("intervals.ops", getattr(intervals.Interval, op)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # --- aggregation ----------------------------------------------------------
    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """(times, counts) of the spans and counters since the last reset.

        Times vary from run to run; counts repeat exactly for the same work.
        """
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, t0, t1, parent, tag in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if tag is not None:
                total[f"{name}.n{tag}.s"] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[idx]
        times: dict[str, float] = {}
        counts: dict[str, float] = dict(self.counts)
        for name in [n for n, _, _ in SPANS] + ["cli.main", "linalg.eigvalsh"]:
            times[f"{name}.s"] = total[name]
            times[f"{name}.self_s"] = self_s[name]
            counts[f"{name}.calls"] = calls[name]
        for n in HESSIAN_SIZES:
            key = f"hessian.assemble_twist_hessian.n{n}.s"
            times[key] = total[key]
        for name in [n for n, _, _ in COUNTERS] + ["geometry.PlanarConfig"]:
            counts[f"{name}.calls"] = self.counts[name]
        for key in ("intervals.ops", "cli.bytes_written", "solver.iterations",
                    "certify.hs_decided", "certify.ha_decided"):
            counts[key] = self.counts[key]
        for key in UNKNOWN_KEYS:
            counts[f"certify.unknown.{key}"] = self.counts[f"certify.unknown.{key}"]
        for key in STOP_KEYS:
            counts[f"solver.stop.{key}"] = self.counts[f"solver.stop.{key}"]
        boxes = counts["certify.certify_box.calls"]
        counts["intervals.ops_per_box"] = counts["intervals.ops"] / boxes if boxes else 0.0
        iters = counts["solver.iterations"]
        times["solver.s_per_iter"] = times["solver.descend.s"] / iters if iters else 0.0
        counts["solver.I_drift_max"] = self.drift_max
        return times, counts

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "tag": tag}) + "\n")
