"""Locate the capacity knee of the async buffer service on one pinned CPU.

Usage (from the repository root)::

    python3 perfbench/knee.py [--seconds 4] [--seed 1] [--rates 1000 2000]

Drives the ``service_light``/``service_overload`` request path (the same
service, op mix, frontend and deadline) at each offered rate of a ladder,
one fresh process per rung, and prints offered rate, goodput, completed
fraction and latency.  The knee is the highest rung whose completed
fraction is at least ``MIN_COMPLETED`` and whose p99 stays within
``P99_LIMIT_MS``; ``workloads.KNEE_RPS`` records it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

#: a rung is below the knee when this share of requests completes ...
MIN_COMPLETED = 0.99
#: ... and p99 from scheduled arrival stays within a tenth of the deadline
P99_LIMIT_MS = 50.0

DEFAULT_RATES = (1000, 2000, 3000, 4000, 4500, 5000, 5500, 6000, 8000, 10000)


def rung(rate: float, seconds: float, seed: int) -> dict:
    from perfbench import host
    from perfbench.stats import median, quantile
    from perfbench.workloads import ServiceLoad

    host.pin_to_one_cpu()
    load = ServiceLoad(seed, rate=rate)
    with host.KeepCpuBusy():
        service = load.setup()
        try:
            phase = load.phase(service, seconds, None)
        finally:
            load.teardown(service)
    return {
        "offered_rps": rate,
        "goodput_rps": phase.ops / phase.elapsed_s,
        "completed_frac": phase.ops / phase.attempted,
        "shed_frac": phase.shed / phase.attempted,
        "p50_ms": median(phase.lat_us) / 1e3,
        "p99_ms": quantile(phase.lat_us, 0.99) / 1e3,
        "checks": phase.checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rates", type=float, nargs="+",
                        default=DEFAULT_RATES)
    parser.add_argument("--rung", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung is not None:
        print(json.dumps(rung(args.rung, args.seconds, args.seed)))
        return 0
    knee = None
    print(f"{'offered':>8} {'goodput':>8} {'done':>6} {'shed':>6} "
          f"{'p50_ms':>8} {'p99_ms':>8}")
    for rate in args.rates:
        proc = subprocess.run(
            [sys.executable, __file__, "--rung", str(rate),
             "--seconds", str(args.seconds), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True, timeout=180)
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{r['offered_rps']:8.0f} {r['goodput_rps']:8.0f} "
              f"{r['completed_frac']:6.3f} {r['shed_frac']:6.3f} "
              f"{r['p50_ms']:8.2f} {r['p99_ms']:8.2f} "
              f"{'; '.join(r['checks'])}")
        if (r["completed_frac"] >= MIN_COMPLETED
                and r["p99_ms"] <= P99_LIMIT_MS and not r["checks"]):
            knee = rate
    print(f"knee: {knee} rps (completed >= {MIN_COMPLETED}, "
          f"p99 <= {P99_LIMIT_MS} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
