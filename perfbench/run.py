"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload buffer_handoff --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The process pins itself to one CPU, keeps that CPU from idling with an
idle-priority spinner process (stopped before exit), sets the workload up
``SETUP_REPEATS`` times (``setup_s`` is the median), times short bursts
of a calibration loop throughout so that times can be reported at a
reference host speed (see :func:`host_factor`), checks the program's
outputs and prints every metric with its unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A run that fails a check prints ``correct: false`` with
no metrics and exits 1.

``--trace 1`` measures an untraced phase and then a traced phase of the
same length and seed; per-layer numbers come from the traced phase's
spans and counters, and ``trace.*`` is the traced minus the untraced
result.  The spans are written to ``.perfbench_out/`` when the run ends.

``--smoke`` runs every workload briefly in both modes, each in its own
process, and checks that the printed metric names and units are exactly
those ``BENCHMARK.json`` declares.  ``BENCHMARK.json`` gates a subset of
the workloads; the others run the same way (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import host  # noqa: E402
from perfbench.stats import median, quantile  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: width of the windows whose median rate and latencies are reported (s)
WINDOW_S = 1.0

#: wall time of one calibration burst (``host.BURST_ITERATIONS``) on a
#: quiet host (us); times are reported as they would read at that speed
REF_BURST_US = 150.0

#: share of the phase's wall time the process must spend on the CPU for
#: its figures to be scaled to the reference speed
CPU_BOUND_SHARE = 0.5

#: end-to-end metrics (reported with --trace 0) and their units
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "completed_frac": "ratio",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics (reported with --trace 1) and their units
PER_LAYER = {
    "core.predicate_evals_per_op": "count",
    "core.tag_checks_per_op": "count",
    "core.waits_per_op": "count",
    "core.wakeups_per_op": "count",
    "core.futile_wakeups_per_op": "count",
    "core.self_us_per_op": "us",
    "active.pre_evals_per_task": "count",
    "active.complete_lag_us_p50": "us",
    "active.complete_lag_us_p99": "us",
    "active.submit_us_p50": "us",
    "active.steal_items_per_batch": "count",
    "active.self_us_per_op": "us",
    "aio.call_us_p50": "us",
    "aio.call_us_p99": "us",
    "aio.loop_lag_ms_max": "ms",
    "aio.self_us_per_op": "us",
    "aio.wait_us_per_op": "us",
    "loadsim.handle_us_p50": "us",
    "loadsim.harness_share": "ratio",
    "loadsim.send_lag_us_p99": "us",
    "loadsim.shed_frac": "ratio",
    "loadsim.timeout_frac": "ratio",
    "loadsim.self_us_per_op": "us",
    "host.calib_ms": "ms",
    "host.steal_ms": "ms",
    "trace.overhead_ops_frac": "ratio",
    "trace.overhead_p50_us": "us",
    "trace.spans_per_op": "count",
}


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def host_factor(samples: list, start: float, end: float) -> float:
    """``REF_BURST_US`` over the median burst taken in ``[start, end)``.

    Falls back to the bursts of the whole run when none fell in the
    interval, and to 1 when there are none at all.
    """
    bursts = [x.burst_us for x in samples if start <= x.at < end]
    bursts = bursts or [x.burst_us for x in samples]
    return REF_BURST_US / median(bursts) if bursts else 1.0


def windowed(phase, seconds: float, samples: list,
             scale: bool) -> tuple[float, float, float]:
    """(ops per second, p50, p99), with ``scale`` at the reference speed.

    The run is cut into ``WINDOW_S`` windows by completion time.  The
    first window (ramp-up: an open loop's queues are still filling) is
    left out, and so is every window whose steal time is above the
    median window's: the hypervisor takes the CPU in bursts, and an op in
    flight during one is late by the burst.  Each remaining window's rate
    and latencies are scaled by its own :func:`host_factor` when
    ``scale`` is set, and the medians over windows are reported.
    """
    n = max(1, round(seconds / WINDOW_S))
    width = seconds / n
    buckets: list = [[] for _ in range(n)]
    for t, lat in zip(phase.done_s, phase.lat_us):
        i = int(t / width)
        if 0 <= i < n:
            buckets[i].append(lat)
    edges = [phase.start_s + i * width for i in range(n + 1)]
    steal = [0.0] * n
    for a, b in zip(samples, samples[1:]):
        i = int((b.at - phase.start_s) / width)
        if 0 <= i < n:
            steal[i] += b.steal_ms - a.steal_ms
    limit = median(steal)
    rates, p50s, p99s = [], [], []
    for i, lat in enumerate(buckets):
        if (i == 0 and n > 1) or steal[i] > limit or not lat:
            continue
        f = host_factor(samples, edges[i], edges[i + 1]) if scale else 1.0
        rates.append(len(lat) / width / f)
        p50s.append(median(lat) * f)
        p99s.append(quantile(lat, 0.99) * f)
    return median(rates), median(p50s), median(p99s)


def end_to_end(setups: list, phase, seconds: float, samples: list,
               rss_mb: float) -> dict:
    # set-ups are back-to-back work and CPU time is work: both ran at the
    # host's speed.  Wall-clock figures did only where the program kept
    # the CPU busy; a phase that left it mostly idle waited on arrivals
    # and wake-ups, which a slower host does not stretch in proportion.
    scale = phase.cpu_s >= CPU_BOUND_SHARE * phase.elapsed_s
    ops_per_s, p50, p99 = windowed(phase, seconds, samples, scale)
    setup_f = host_factor(samples, setups[0][0], setups[-1][1])
    run_f = host_factor(samples, phase.start_s,
                        phase.start_s + phase.elapsed_s)
    completed_frac = _per_op(phase.ops, phase.attempted)
    if scale and phase.ops < phase.attempted:
        # requests missed for want of capacity: completions scale with it
        completed_frac = min(1.0, completed_frac / run_f)
    return {
        "setup_s": median([b - a for a, b in setups]) * setup_f,
        "ops_per_s": ops_per_s,
        "op_p50_us": p50,
        "op_p99_us": p99,
        "completed_frac": completed_frac,
        "cpu_us_per_op": _per_op(phase.cpu_s * 1e6, phase.ops) * run_f,
        "peak_rss_mb": rss_mb,
    }


def per_layer(untraced, traced, tracer, host_metrics: dict) -> dict:
    ops = traced.ops
    c = traced.counters
    c_ops = traced.counter_ops or ops
    busy, wait = tracer.layer_times_us()
    complete = tracer.durations_us("active.complete")
    calls = tracer.durations_us("aio.call")
    handle = tracer.durations_us("loadsim.handle_async")
    e2e_p50 = median(traced.lat_us)
    handle_p50 = median(handle)
    out = {
        "core.predicate_evals_per_op": _per_op(c["predicate_evals"], c_ops),
        "core.tag_checks_per_op": _per_op(c["tag_checks"], c_ops),
        "core.waits_per_op": _per_op(c["waits"], c_ops),
        "core.wakeups_per_op": _per_op(c["wakeups"], c_ops),
        "core.futile_wakeups_per_op": _per_op(c["futile_wakeups"], c_ops),
        "core.self_us_per_op": _per_op(busy["core"], ops),
        "active.pre_evals_per_task": _per_op(traced.pre_evals, traced.tasks),
        "active.complete_lag_us_p50": median(complete),
        "active.complete_lag_us_p99": quantile(complete, 0.99),
        "active.submit_us_p50": median(
            tracer.durations_us("active.submit_nowait")),
        "active.steal_items_per_batch": _per_op(c["steal_items"],
                                                c["steal_batches"]),
        "active.self_us_per_op": _per_op(busy["active"], ops),
        "aio.call_us_p50": median(calls),
        "aio.call_us_p99": quantile(calls, 0.99),
        "aio.loop_lag_ms_max": traced.loop_lag_ms_max,
        "aio.self_us_per_op": _per_op(busy["aio"], ops),
        "aio.wait_us_per_op": _per_op(wait["aio"], ops),
        "loadsim.handle_us_p50": handle_p50,
        "loadsim.harness_share": (1.0 - handle_p50 / e2e_p50
                                  if handle and e2e_p50 else 0.0),
        "loadsim.send_lag_us_p99": quantile(traced.send_lag_us, 0.99),
        "loadsim.shed_frac": _per_op(traced.shed, traced.attempted),
        "loadsim.timeout_frac": _per_op(traced.timed_out, traced.attempted),
        "loadsim.self_us_per_op": _per_op(busy["loadsim"], ops),
        "trace.overhead_ops_frac": (
            1.0 - _per_op(traced.ops, traced.elapsed_s)
            / _per_op(untraced.ops, untraced.elapsed_s)
            if untraced.ops else 0.0),
        "trace.overhead_p50_us": e2e_p50 - median(untraced.lat_us),
        "trace.spans_per_op": _per_op(len(tracer.spans), ops),
    }
    out.update(host_metrics)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            cpu: int, nproc: int) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, context)."""
    from repro.runtime.atomics import build_info

    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    probe = host.HostProbe(cpu)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            t0 = time.monotonic()
            state = workload.setup()
            setups.append((t0, time.monotonic()))
            if i < SETUP_REPEATS - 1:
                workload.teardown(state)
        try:
            untraced = workload.phase(state, seconds, None)
            samples = probe.stop()
            phases = [untraced]
            if trace:
                tracer = Tracer()
                traced = workload.phase(state, seconds, tracer)
                phases.append(traced)
            host_metrics = probe.finish()
            checks = [c for p in phases for c in p.checks]
            checks += workload.finish(state)
        finally:
            workload.teardown(state)
    finally:
        probe.stop()

    if trace:
        metrics = per_layer(untraced, traced, tracer, host_metrics)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz")
    else:
        metrics = end_to_end(setups, untraced, seconds, samples,
                             host.peak_rss_mb())
        units = END_TO_END
    result = {
        "correct": not checks,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {} if checks else {
            k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    context = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "pinned_cpu": cpu, "nproc": nproc,
        "build": build_info(), "samples": len(untraced.lat_us),
        "setup_s": [b - a for a, b in setups], "checks": checks,
        "burst_us": [round(x.burst_us, 1) for x in samples],
        **host_metrics,
    }
    return result, context


def _smoke_one(name: str, trace: int, seconds: float, units: dict):
    """Run one workload briefly; return a problem description or None."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if not result["correct"] or got != units:
        return f"correct={result['correct']}, metrics {sorted(got.items())}"
    zeros = [k for k, v in result["metrics"].items() if v["value"] == 0]
    if trace == 0 and zeros:
        return f"end-to-end metrics read 0: {zeros}"
    return None


def smoke(seconds: float) -> int:
    """Run every workload briefly in both modes; check names and units."""
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    missing = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    failed = bool(missing)
    if failed:
        print(f"BENCHMARK.json names unknown workloads {sorted(missing)}",
              file=sys.stderr)
    for name in WORKLOADS:
        for trace in (0, 1):
            problem = _smoke_one(name, trace, seconds, units[trace])
            print(f"smoke {name} --trace {trace}: {problem or 'ok'}")
            failed = failed or problem is not None
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check metric "
                             "names and units")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(min(args.seconds, 0.5))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    cpu, nproc = host.pin_to_one_cpu()
    with host.KeepCpuBusy():
        result, context = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), cpu, nproc)
    for key, metric in result["metrics"].items():
        print(f"{key:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
