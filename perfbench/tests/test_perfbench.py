"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import host, run  # noqa: E402
from perfbench.stats import median  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    MixQueue,
    Phase,
    ServiceLight,
)


def test_smoke_every_workload_reports_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--seconds", "0.5"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 2 * len(WORKLOADS)


def test_self_time_subtracts_children_and_keeps_waits_apart():
    tracer = Tracer()
    tracer.record("loadsim.handle_async", 0, 100_000, 1, None)
    parent = tracer.spans[-1][0]
    tracer.record("aio.call", 10_000, 60_000, 1, parent)
    call = tracer.spans[-1][0]
    tracer.record("active.submit_nowait", 20_000, 30_000, 1, call)
    tracer.record("active.complete", 30_000, 50_000, 1, call)
    busy, wait = tracer.layer_times_us()
    assert busy["loadsim"] == pytest.approx(50.0)
    assert busy["aio"] == pytest.approx(20.0)
    assert busy["active"] == pytest.approx(10.0)
    assert wait["active"] == pytest.approx(20.0)
    assert busy["core"] == 0.0


def test_mix_never_leaves_its_band():
    queue = MixQueue(mode="async")
    try:
        for i in range(MixQueue.CAPACITY // 2):
            queue.put(i).get(timeout=5.0)
        rng = random.Random(3)
        coins = [True] * 300 + [False] * 300 + [
            rng.random() < 0.5 for _ in range(1_000)]
        seen = set()
        for i, coin in enumerate(coins):
            queue.submit_nowait("mix", coin, i).get(timeout=5.0)
            assert MixQueue.LOW <= queue.count <= MixQueue.HIGH
            seen.add(queue.count)
        assert {MixQueue.LOW, MixQueue.HIGH} <= seen
    finally:
        queue.shutdown()


def test_windows_are_scaled_to_the_reference_host_speed():
    # 12 one-second windows, one calibration burst in each.  From window 6
    # on the host runs at half speed: bursts, op latencies and the gaps
    # between ops all double.  Window 0 is ramp-up; in window 11 the
    # hypervisor took the CPU.
    ref = run.REF_BURST_US
    done, lat, samples = [], [], []
    for k in range(12):
        slow = 2 if k >= 6 else 1
        n = 20 // slow
        done += [k + (j + 0.5) / n for j in range(n)]
        lat += [{0: 5.0, 11: 999.0}.get(k, 100.0 * slow)] * n
        samples.append(host.Sample(100.0 + k + 0.5, ref * slow,
                                   50.0 if k == 11 else 0.0))
    phase = Phase(ops=len(done), attempted=len(done), failed=0,
                  elapsed_s=12.0, cpu_s=1.0, lat_us=lat, done_s=done,
                  start_s=100.0, counters={})
    assert run.windowed(phase, 12.0, samples, True) == (20.0, 100.0, 100.0)
    # unscaled: five fast windows and five slow ones
    assert run.windowed(phase, 12.0, samples, False) == (15.0, 150.0, 150.0)


def test_failed_check_reports_failure_not_numbers(monkeypatch):
    class Broken:
        name = "broken"

        def __init__(self, seed):
            pass

        def setup(self):
            return None

        def teardown(self, state):
            pass

        def phase(self, state, seconds, tracer):
            return Phase(ops=1, attempted=1, failed=0, elapsed_s=1.0,
                         cpu_s=1.0, lat_us=[1.0], done_s=[0.5],
                         start_s=0.0, counters={}, checks=["lost an item"])

        def finish(self, state):
            return []

    monkeypatch.setitem(WORKLOADS, "broken", Broken)
    result, context = run.measure("broken", 1, 1.0, False, 0, 1)
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert context["checks"] == ["lost an item"]


def _median_self_us(delay_s: float) -> dict:
    load = ServiceLight(5, rate=50.0)
    service = load.setup()
    try:
        service.queue._submit_delay_s = delay_s
        tracer = Tracer()
        phase = load.phase(service, 4.0, tracer)
    finally:
        load.teardown(service)
    assert not phase.checks
    return {name: median(tracer.self_times_us(name)) for name in
            ("active.submit_nowait", "aio.call", "aio.wait_until",
             "loadsim.handle_async")}


def test_injected_submit_delay_is_charged_to_active():
    delay_us = 500.0
    base = _median_self_us(0.0)
    slow = _median_self_us(delay_us / 1e6)
    assert slow["active.submit_nowait"] - base["active.submit_nowait"] \
        >= 0.8 * delay_us
    for name in ("aio.call", "loadsim.handle_async"):
        assert slow[name] - base[name] < 0.2 * delay_us, (name, base, slow)
