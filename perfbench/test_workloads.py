"""Tests of the benchmark itself: python3 -m pytest -q perfbench

The seed may reorder items, draw coordinates whose cost depends on n
alone, or pick oracle spot checks; it must never change the work.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import percentile_tail  # noqa: E402
from twistcc.geometry import config_from_json  # noqa: E402
from workloads import MIN_SEPARATION, NBODY_NS, NBODY_PER_N, WORKLOADS  # noqa: E402


def work_counts(workload, seed: int) -> dict:
    plan = workload.plan(seed).resolve("w", "o")
    sizes = Counter()
    for text in plan.inputs.values():
        config, _ = config_from_json(text)
        sizes[config.n] += 1
    return {"work_units": workload.work_units(),
            "items": sorted((it.key, tuple(map(tuple, it.calls))) for it in plan.items),
            "configs_per_n": dict(sizes)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_does_not_depend_on_seed(name):
    wl = WORKLOADS[name]
    assert work_counts(wl, 1) == work_counts(wl, 2)


def test_work_counts():
    counts = {name: work_counts(wl, 7) for name, wl in WORKLOADS.items()}
    assert counts["kite-map"]["work_units"] == 100 * 100
    assert counts["certify"]["work_units"] == 4 ** 5
    assert counts["descend"]["work_units"] == len(counts["descend"]["items"]) == 13
    assert counts["nbody-hessian"]["configs_per_n"] == {n: NBODY_PER_N for n in NBODY_NS}


def test_seed_changes_order_and_coordinates():
    d1, d2 = WORKLOADS["descend"].plan(1), WORKLOADS["descend"].plan(2)
    assert [it.key for it in d1.items] != [it.key for it in d2.items]
    n1, n2 = WORKLOADS["nbody-hessian"].plan(1), WORKLOADS["nbody-hessian"].plan(2)
    assert n1.inputs.keys() == n2.inputs.keys() and n1.inputs != n2.inputs


def test_random_configs_keep_min_separation():
    for text in WORKLOADS["nbody-hessian"].plan(3).inputs.values():
        pts = json.loads(text)["positions"]
        assert min(((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5
                   for k, a in enumerate(pts) for b in pts[:k]) > MIN_SEPARATION


def test_tail_has_ten_samples_beyond_it():
    samples = [float(v) for v in range(52)]
    value, pct = percentile_tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 42 / 52)
    assert percentile_tail(samples[:10]) == (0.0, 0.0)


def test_scaled_takes_off_the_kernel_and_divides_by_speed():
    from hostspeed import REF_KERNEL_S, scaled
    before = (1.0, 0.5, 10)
    after = (1.0 + 0.04, 0.5 + 20 * 2 * REF_KERNEL_S, 30)    # 20 ticks at half speed
    wall, cpu, speed = scaled(2.04, 1.84, before, after)
    assert speed == pytest.approx(2.0)
    assert wall == pytest.approx(1.0) and cpu == pytest.approx(0.9)
    assert scaled(1.5, 1.2, after, after) == (1.5, 1.2, 1.0)
