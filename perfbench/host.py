"""Host facts and controls: CPU pinning, calibration loop, steal time, RSS.

GIL-bound threads placed by the OS across several CPUs hand the
interpreter lock back and forth between cores, and that placement differs
from run to run; pinning the whole process to one CPU removes that
source of spread.  On a virtual machine a CPU that goes idle halts, and
the hypervisor may take a while to run it again when a timer or a wakeup
arrives; :class:`KeepCpuBusy` keeps the pinned CPU from halting.  The
calibration loop, also timed in short bursts while the program runs,
measures how fast the host is running Python; the steal-time delta shows
how much CPU the hypervisor took.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process (and threads it starts later) to one allowed CPU.

    Returns ``(cpu, nproc)`` where ``nproc`` counts the CPUs allowed
    before pinning.  The highest-numbered allowed CPU is chosen so that
    repeated runs land on the same core.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu, len(allowed)


#: runs at idle priority until its parent is gone, even if the parent
#: dies without stopping it
_SPIN = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    pass
"""


class KeepCpuBusy:
    """Context manager: an idle-priority process spins on the pinned CPU.

    A ``SCHED_IDLE`` task runs only when nothing else on the CPU wants to,
    and yields at once when a benchmark thread wakes, so the program under
    test keeps the CPU; but the CPU never halts, and an open-loop request
    arriving at an idle moment no longer waits for the hypervisor to
    resume a halted virtual CPU.  The child inherits this process's CPU
    affinity; it is terminated and waited for on exit.
    """

    def __enter__(self) -> "KeepCpuBusy":
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SPIN, str(os.getpid())])
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()


def _calib_loop(n: int = 200_000) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def calib_ms(reps: int = 3) -> list[float]:
    """Wall time of a fixed pure-Python loop, ``reps`` samples in ms."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _calib_loop()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def steal_ms(cpu: int) -> float:
    """Cumulative steal time of ``cpu`` from ``/proc/stat``, in ms."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) * 1e3 / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: calibration-loop iterations in one burst (about 0.15 ms on a quiet host)
BURST_ITERATIONS = 2_000

#: interval between bursts (s)
BURST_EVERY_S = 0.1


class Sample(NamedTuple):
    """One burst of the calibration loop, taken while the program runs."""

    at: float        #: ``time.monotonic()`` when the burst ended
    burst_us: float  #: wall time of the burst
    steal_ms: float  #: cumulative steal of the pinned CPU


class HostProbe:
    """Measures the host's speed and steal while the program runs.

    Calibration readings bracket the run.  In between, a thread runs a
    short burst of the calibration loop every ``BURST_EVERY_S`` seconds
    (about 0.15% of the CPU) and reads the pinned CPU's steal time, so
    every stretch of the run knows how fast the host ran it: on a shared
    host the same Python code runs up to 1.5 times slower for seconds to
    minutes at a time, and the bursts slow down with it.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self._calib = calib_ms()
        self._steal0 = steal_ms(cpu)
        self._samples: list[Sample] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="host-probe")
        self._thread.start()

    def _sample(self) -> None:
        start = time.monotonic()
        k = 1
        while not self._stop.wait(
                max(0.0, start + k * BURST_EVERY_S - time.monotonic())):
            t0 = time.perf_counter()
            _calib_loop(BURST_ITERATIONS)
            burst = time.perf_counter() - t0
            self._samples.append(Sample(time.monotonic(), burst * 1e6,
                                        steal_ms(self.cpu)))
            k += 1

    def stop(self) -> list[Sample]:
        """Stop sampling; the samples taken so far, oldest first."""
        self._stop.set()
        self._thread.join()
        return self._samples

    def finish(self) -> dict[str, float]:
        self._calib += calib_ms()
        return {
            "host.calib_ms": statistics.median(self._calib),
            "host.steal_ms": steal_ms(self.cpu) - self._steal0,
        }
