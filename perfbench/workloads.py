"""The benchmark's five workloads, driven through ``repro``'s public API.

Each workload builds its inputs from the seed, times its set-up
(:meth:`setup`), measures phases of a fixed length (:meth:`phase`), and
checks the program's outputs (phase checks plus :meth:`finish`).  With a
:class:`~perfbench.tracing.Tracer` a phase also records spans around the
public calls it makes:

* ``core``    — ``Monitor`` methods (``AutoBoundedQueue.put``/``take``);
* ``active``  — ``ActiveMonitor.submit_nowait``, the ``@synchronous`` take,
  ``LightFuture.get`` and, through ``LightFuture.add_done_callback``, the
  lag from submission to completion;
* ``aio``     — ``AsyncMonitorClient.wait_until`` and ``call``;
* ``loadsim`` — ``Service.handle_async`` under ``AsyncLoadSimulator``.

Why these workloads: ``buffer_handoff`` is the only one where OS threads
park on and wake from condition variables; ``wake_fanout`` parks 256
waiters so the relay's tag index and untagged scan do real work;
``delegate_backlog`` keeps ~1,024 delegated puts pending so the server's
precondition rescan dominates; ``service_light`` and ``service_overload``
drive the open-loop request path below and past its capacity knee.
``BENCHMARK.json`` gates every workload but ``delegate_backlog``.
"""

from __future__ import annotations

import asyncio
import random
from array import array
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from repro.active import ActiveMonitor, asynchronous
from repro.aio import AsyncMonitorClient
from repro.core import S, compiled
from repro.core.predicates import Predicate
from repro.loadsim import AsyncLoadSimulator, PoissonArrivals
from repro.loadsim.services import BufferService
from repro.problems.bounded_buffer import ActiveBoundedQueue, AutoBoundedQueue
from repro.runtime.errors import TaskQueueFull, WaitTimeoutError

from perfbench.tracing import Tracer

_now = time.perf_counter_ns

#: counters read from ``Metrics.snapshot()`` around every phase
CORE_COUNTERS = ("predicate_evals", "tag_checks", "waits", "wakeups",
                 "futile_wakeups", "steal_batches", "steal_items")

#: open-loop per-request deadline (s), the harness default
DEADLINE_S = 0.5

#: capacity knee of the async buffer service, measured on one pinned CPU
#: with ``python3 perfbench/knee.py`` (see perfbench/README.md)
KNEE_RPS = 6000.0


@dataclass
class Phase:
    """What one measured phase produced.

    The closed loops keep their per-op samples in ``array`` s, 8 bytes an
    op: their op count follows the host's speed, and as lists of float
    objects the samples alone moved ``peak_rss_mb`` by 10% between runs.
    """

    ops: int                      #: completed operations
    attempted: int
    failed: int                   #: operations that raised an error
    elapsed_s: float
    cpu_s: float
    lat_us: list                  #: one latency per completed op
    done_s: list                  #: its completion, seconds into the phase
    start_s: float                #: ``time.monotonic()`` at done_s == 0
    counters: dict                #: CORE_COUNTERS deltas ...
    counter_ops: int = 0          #: ... over this many ops (0: all of them)
    pre_evals: int = 0            #: benchmark-guard evaluations
    tasks: int = 0                #: delegated tasks executed
    shed: int = 0
    timed_out: int = 0
    loop_lag_ms_max: float = 0.0
    send_lag_us: list = field(default_factory=list)
    checks: list = field(default_factory=list)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _counters(monitor) -> dict:
    snap = monitor.metrics.snapshot()
    return {k: snap[k] for k in CORE_COUNTERS}


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in before}


# ----------------------------------------------------------------- wrappers
class SubmitProbe:
    """Mixin wrapping ``ActiveMonitor.submit_nowait`` in spans.

    With a tracer attached, the call is an ``active.submit_nowait`` span
    and a done callback records ``active.complete`` from the end of the
    submission to the future's completion.  ``_submit_delay_s`` busy-waits
    inside the span; tests use it to check the trace's attribution.
    """

    _tracer: Optional[Tracer] = None
    _submit_delay_s = 0.0

    def submit_nowait(self, method, /, *args, **kwargs):
        tracer = self._tracer
        if tracer is None:
            return super().submit_nowait(method, *args, **kwargs)
        handle = tracer.start("active.submit_nowait")
        try:
            if self._submit_delay_s:
                _spin(self._submit_delay_s)
            future = super().submit_nowait(method, *args, **kwargs)
        finally:
            tracer.end(handle)
        req, parent = handle[2], handle[3]
        t_submitted = _now()
        future.add_done_callback(lambda _f: tracer.record(
            "active.complete", t_submitted, _now(), req, parent))
        return future


def _counted_room(self, item) -> bool:
    self._pre_evals += 1
    return self.count < self.capacity


def _counted_nonempty(self) -> bool:
    self._pre_evals += 1
    return self.count > 0


def _counted_always(self, *args) -> bool:
    self._pre_evals += 1
    return True


class BenchQueue(SubmitProbe, ActiveBoundedQueue):
    """``ActiveBoundedQueue`` whose delegated guards count evaluations.

    Same guards and bodies as the parent's ``put`` and ``take_async``; the
    count is what ``active.pre_evals_per_task`` reports.
    """

    _pre_evals = 0

    put = asynchronous(pre=_counted_room)(ActiveBoundedQueue.put.__wrapped__)
    take_async = asynchronous(pre=_counted_nonempty)(
        ActiveBoundedQueue.take_async.__wrapped__)


class BenchClient(AsyncMonitorClient):
    """``AsyncMonitorClient`` whose calls open ``aio.*`` spans.

    ``req`` names the request a span belongs to when no enclosing span
    does.
    """

    def __init__(self, monitor, tracer: Optional[Tracer] = None):
        super().__init__(monitor)
        self.tracer = tracer

    async def wait_until(self, condition, *, req=None, **kwargs):
        tracer = self.tracer
        if tracer is None:
            return await super().wait_until(condition, **kwargs)
        handle = tracer.start("aio.wait_until", req)
        try:
            return await super().wait_until(condition, **kwargs)
        finally:
            tracer.end(handle)

    async def call(self, method, /, *args, req=None, **kwargs):
        tracer = self.tracer
        if tracer is None:
            return await super().call(method, *args, **kwargs)
        handle = tracer.start("aio.call", req)
        try:
            return await super().call(method, *args, **kwargs)
        finally:
            tracer.end(handle)


async def _loop_lag_probe(stop: asyncio.Event, lags: list,
                          period: float = 0.02) -> None:
    expected = time.monotonic() + period
    while not stop.is_set():
        await asyncio.sleep(max(0.0, expected - time.monotonic()))
        now = time.monotonic()
        lags.append(max(0.0, now - expected))
        expected = now + period


# ----------------------------------------------------------- buffer_handoff
class BufferHandoff:
    """Closed loop: one producer and one consumer thread, capacity 1.

    An op is one item handed over; its latency runs from the start of the
    producer's ``put`` to the return of the consumer's ``take``.
    """

    name = "buffer_handoff"
    capacity = 1
    warmup_items = 2000

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.values = [rng.getrandbits(32) for _ in range(4096)]

    def setup(self):
        compiled.clear_cache()
        queue = AutoBoundedQueue(self.capacity)
        phase = self._handoff(queue, None, None, self.warmup_items)
        if phase.checks:
            raise RuntimeError("warm-up failed: " + "; ".join(phase.checks))
        return queue

    def teardown(self, queue) -> None:
        pass

    def phase(self, queue, seconds: float, tracer: Optional[Tracer]) -> Phase:
        return self._handoff(queue, tracer, seconds, None)

    def finish(self, queue) -> list:
        return [] if queue.count == 0 else [f"{queue.count} items left over"]

    def _handoff(self, queue, tracer, seconds, items) -> Phase:
        values = self.values
        mask = len(values) - 1
        starts = array("q")
        ends = array("q")
        bad = [0]

        if tracer is None:
            put, take = queue.put, queue.take
        else:
            def put(x, _k=[0]):
                handle = tracer.start("core.put", _k[0])
                _k[0] += 1
                queue.put(x)
                tracer.end(handle)

            def take(_k=[0]):
                handle = tracer.start("core.take", _k[0])
                _k[0] += 1
                x = queue.take()
                tracer.end(handle)
                return x

        def producer():
            clock = time.perf_counter
            end_at = None if seconds is None else clock() + seconds
            k = 0
            while (k < items) if end_at is None else (clock() < end_at):
                starts.append(_now())
                put(values[k & mask])
                k += 1
            put(None)

        def consumer():
            k = 0
            while True:
                x = take()
                if x is None:
                    return
                ends.append(_now())
                if x != values[k & mask]:
                    bad[0] += 1
                k += 1

        before = _counters(queue)
        cpu0, t0 = time.process_time(), time.perf_counter()
        t0_ns = _now()
        start_s = time.monotonic()
        threads = [threading.Thread(target=producer, name="producer"),
                   threading.Thread(target=consumer, name="consumer")]
        for t in threads:
            t.start()
        for t in threads:
            t.join((seconds or 0) + 60)
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        checks = []
        if any(t.is_alive() for t in threads):
            checks.append("producer/consumer did not finish")
        if bad[0]:
            checks.append(f"{bad[0]} items out of FIFO order or lost")
        if len(ends) != len(starts):
            checks.append(f"put {len(starts)} items, took {len(ends)}")
        lat = array("d", ((e - s) / 1e3 for s, e in zip(starts, ends)))
        done = array("d", ((e - t0_ns) / 1e9 for e in ends))
        return Phase(ops=len(ends), attempted=len(starts), failed=0,
                     elapsed_s=elapsed, cpu_s=cpu, lat_us=lat, done_s=done,
                     start_s=start_s, counters=_delta(before, _counters(queue)),
                     checks=checks)


# -------------------------------------------------------------- wake_fanout
class TokenRing(SubmitProbe, ActiveMonitor):
    """``turn`` passes around ``n`` clients; ``advance`` is delegated."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.turn = 0
        self.steps = 0

    @asynchronous()
    def advance(self) -> None:
        self.turn = (self.turn + 1) % self.n
        self.steps += 1


class WakeFanout:
    """Closed loop: 256 coroutine clients in a token ring on one loop.

    Client ``i`` awaits ``wait_until(turn == i)`` then ``call("advance")``.
    A seeded half of the clients use tagged ``S.turn == i`` predicates, the
    rest untagged closures.  An op is one turn; its latency is the time
    between two consecutive clients' ``wait_until`` returns.
    """

    name = "wake_fanout"
    clients = 256
    warmup_rounds = 2

    def __init__(self, seed: int):
        self.tagged = frozenset(
            random.Random(seed).sample(range(self.clients), self.clients // 2))

    def setup(self):
        compiled.clear_cache()
        ring = TokenRing(self.clients)
        preds = [Predicate(S.turn == i) if i in self.tagged
                 else Predicate(lambda m, i=i: m.turn == i)
                 for i in range(self.clients)]
        state = (ring, preds)
        phase = self._rounds(state, None, None, self.warmup_rounds)
        if phase.checks:
            raise RuntimeError("warm-up failed: " + "; ".join(phase.checks))
        return state

    def teardown(self, state) -> None:
        state[0].shutdown()

    def phase(self, state, seconds: float, tracer: Optional[Tracer]) -> Phase:
        return self._rounds(state, tracer, seconds, None)

    def finish(self, state) -> list:
        ring = state[0]
        return [] if ring.turn == 0 else [f"ring stopped at turn {ring.turn}"]

    def _rounds(self, state, tracer, seconds, rounds) -> Phase:
        ring, preds = state
        n = self.clients
        ring._tracer = tracer
        turns = [0] * n
        stamps = array("q")
        final = [rounds]
        lags: list = []
        steady: list = []

        async def client(aclient, i, parked):
            pred = preds[i]
            while True:
                await aclient.wait_until(pred, req=len(stamps))
                turns_taken = len(stamps)
                stamps.append(_now())
                turns[i] += 1
                if i == 0:
                    if final[0] is None and time.perf_counter() >= end_at:
                        final[0] = turns[0]
                    if turns[0] in (2, final[0]):
                        steady.append(_counters(ring))
                # advance only once the previous holder is parked again (or
                # gone), so every relay searches the same waiter list
                await parked.wait()
                parked.clear()
                await aclient.call("advance", req=turns_taken)
                parked.set()
                if final[0] is not None and turns[i] >= final[0]:
                    return

        async def drive():
            aclient = BenchClient(ring, tracer)
            parked = asyncio.Event()
            parked.set()
            stop = asyncio.Event()
            probe = asyncio.ensure_future(_loop_lag_probe(stop, lags)) \
                if tracer is not None else None
            await asyncio.wait_for(
                asyncio.gather(*(client(aclient, i, parked)
                                 for i in range(n))),
                timeout=(seconds or 0) + 60)
            if probe is not None:
                stop.set()
                await probe

        before = _counters(ring)
        steps0 = ring.steps
        cpu0, t0 = time.process_time(), time.perf_counter()
        t0_ns = _now()
        start_s = time.monotonic()
        end_at = t0 + (seconds or 0)
        checks = []
        try:
            asyncio.run(drive())
        except asyncio.TimeoutError:
            checks.append("token ring did not finish")
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        ring._tracer = None
        steps = ring.steps - steps0
        done_rounds = final[0] or 0
        if any(t != done_rounds for t in turns):
            checks.append(f"unequal turns per client: {sorted(set(turns))}")
        if steps != done_rounds * n or len(stamps) != steps:
            checks.append(f"{steps} steps, {len(stamps)} turns, "
                          f"expected {done_rounds} rounds x {n}")
        lat = array("d", ((b - a) / 1e3 for a, b in zip(stamps, stamps[1:])))
        done = array("d", ((b - t0_ns) / 1e9 for b in stamps[1:]))
        if len(steady) == 2 and done_rounds > 2:
            # whole rounds between the second and the last: the first round
            # registers every client and the last one re-registers none
            counters = _delta(*steady)
            counter_ops = (done_rounds - 2) * n
        else:
            counters = _delta(before, _counters(ring))
            counter_ops = len(stamps)
        return Phase(ops=len(stamps), attempted=len(stamps), failed=0,
                     elapsed_s=elapsed, cpu_s=cpu, lat_us=lat, done_s=done,
                     start_s=start_s, counters=counters,
                     counter_ops=counter_ops,
                     tasks=steps, checks=checks,
                     loop_lag_ms_max=max(lags, default=0.0) * 1e3)


# --------------------------------------------------------- delegate_backlog
class _Backlog:
    """Puts not yet collected, in submission order, and the item balance.

    Memory stays proportional to the backlog, not to the run's length:
    a collected future is dropped and an item's count is deleted once
    every put of it has been taken.
    """

    def __init__(self, queue, seed: int):
        self.queue = queue
        self.rng = random.Random(seed)
        self.pending: deque = deque()
        self.balance: Counter = Counter()   # item -> puts minus takes

    def submit(self) -> None:
        item = self.rng.getrandbits(32)
        while True:
            try:
                future = self.queue.submit_nowait("put", item)
                break
            except TaskQueueFull:
                time.sleep(0.0005)
        self.pending.append(future)
        self.balance[item] += 1

    def take(self) -> None:
        item = self.queue.take()
        self.balance[item] -= 1
        if not self.balance[item]:
            del self.balance[item]

    def collect(self) -> None:
        """Wait for the oldest put; raises if it failed or never ran."""
        self.pending.popleft().get(timeout=10.0)


class DelegateBacklog:
    """Closed loop: one client thread against ~1,024 parked puts.

    Each step submits one put (``submit_nowait``: the blocking ``put``
    allows one outstanding task per thread), takes one item synchronously,
    and waits for the oldest put, which that take unblocked.  The server
    thread finishes its whole batch, including the rescan of the backlog,
    before it completes that future, so steps do not overlap.
    """

    name = "delegate_backlog"
    capacity = 16
    backlog = 1024
    warmup_steps = 256

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        compiled.clear_cache()
        backlog = _Backlog(BenchQueue(self.capacity, mode="async"), self.seed)
        for _ in range(self.capacity + self.backlog):
            backlog.submit()
        for _ in range(self.capacity):
            backlog.collect()
        phase = self._steps(backlog, None, None, self.warmup_steps)
        if phase.checks:
            raise RuntimeError("warm-up failed: " + "; ".join(phase.checks))
        return backlog

    def teardown(self, backlog) -> None:
        backlog.queue.shutdown()

    def phase(self, backlog, seconds: float,
              tracer: Optional[Tracer]) -> Phase:
        return self._steps(backlog, tracer, seconds, None)

    def finish(self, backlog) -> list:
        """Drain: every put future resolves and items are conserved."""
        checks = []
        try:
            while backlog.pending:
                backlog.take()
                backlog.collect()
            while backlog.queue.count:
                backlog.take()
        except Exception as exc:  # noqa: BLE001 — reported as a check
            checks.append(f"drain failed: {type(exc).__name__}: {exc}")
        if backlog.balance:
            checks.append(f"{len(backlog.balance)} items not conserved "
                          f"between puts and takes")
        return checks

    def _steps(self, backlog, tracer, seconds, steps) -> Phase:
        queue = backlog.queue
        queue._tracer = tracer
        lat = array("d")
        done = array("d")
        before = _counters(queue)
        pre0 = queue._pre_evals
        cpu0, t0 = time.process_time(), time.perf_counter()
        t0_ns = _now()
        start_s = time.monotonic()
        end_at = t0 + (seconds or 0)
        clock = time.perf_counter
        checks = []
        k = 0
        try:
            while (k < steps) if seconds is None else (clock() < end_at):
                start = _now()
                backlog.submit()
                if tracer is None:
                    backlog.take()
                    backlog.collect()
                else:
                    handle = tracer.start("active.take", k)
                    backlog.take()
                    tracer.end(handle)
                    handle = tracer.start("active.get", k)
                    backlog.collect()
                    tracer.end(handle)
                end = _now()
                lat.append((end - start) / 1e3)
                done.append((end - t0_ns) / 1e9)
                k += 1
        except Exception as exc:  # noqa: BLE001 — reported as a check
            checks.append(f"step failed: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        queue._tracer = None
        return Phase(ops=k, attempted=k, failed=0, elapsed_s=elapsed,
                     cpu_s=cpu, lat_us=lat, done_s=done, start_s=start_s,
                     counters=_delta(before, _counters(queue)),
                     pre_evals=queue._pre_evals - pre0,
                     tasks=k, checks=checks)


# ------------------------------------------------------------ open loop
class MixQueue(BenchQueue):
    """``BenchQueue`` with one delegated op that never waits.

    ``mix`` puts or takes as a seeded coin says, unless the occupancy it
    finds on the server has reached ``HIGH`` (then it takes) or ``LOW``
    (then it puts).  The choice is made where the op executes, so shed,
    timed-out and reordered requests cannot push the buffer out of the
    band: it never fills or empties, and a missed deadline is the
    program's miss.
    """

    CAPACITY = 256
    LOW = 64
    HIGH = 192

    def __init__(self, **kwargs):
        super().__init__(self.CAPACITY, **kwargs)

    @asynchronous(pre=_counted_always)
    def mix(self, coin: bool, item: int) -> None:
        if self.count <= self.LOW or (coin and self.count < self.HIGH):
            self.items[self.put_ptr] = item
            self.put_ptr = (self.put_ptr + 1) % self.capacity
            self.count += 1
        else:
            self.take_ptr = (self.take_ptr + 1) % self.capacity
            self.count -= 1


class BoundedMixService(BufferService):
    """``BufferService`` whose requests are ``MixQueue.mix`` ops, with spans.

    A request is one delegated ``mix`` through ``AsyncMonitorClient.call``
    under the request deadline; its coin and item come from the seeded
    op sequence.
    """

    def __init__(self, seed: int):
        super().__init__(seed, capacity=MixQueue.CAPACITY,
                         prefill=MixQueue.CAPACITY // 2)
        self.op_index = 0
        self.tracer: Optional[Tracer] = None
        self.latencies_us: list = []
        self.done_at: list = []
        self.send_lag_us: list = []

    def start(self) -> None:
        self.queue = MixQueue(mode="async")
        for i in range(self.prefill):
            self.queue.put(i).get(timeout=5.0)
        self.started = True

    def bind(self, tracer: Optional[Tracer]) -> None:
        """Reset per-phase state: samples and tracer."""
        self.op_index = 0
        self.tracer = tracer
        self.queue._tracer = tracer
        self._aio_client = BenchClient(self.queue, tracer)
        self.latencies_us = []
        self.done_at = []
        self.send_lag_us = []

    def make_op(self, rng: random.Random) -> tuple:
        self.op_index += 1
        return (rng.random() < 0.5, rng.randrange(1 << 16), self.op_index)

    async def handle_async(self, op: tuple, deadline: float,
                           cancel=None) -> None:
        coin, item, req = op
        scheduled = deadline - DEADLINE_S
        tracer = self.tracer
        if tracer is not None:
            self.send_lag_us.append((time.monotonic() - scheduled) * 1e6)
            handle = tracer.start("loadsim.handle_async", req)
        try:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WaitTimeoutError("mix deadline expired before submit")
            await asyncio.wait_for(
                self._aio_client.call("mix", coin, item), remaining)
        except asyncio.TimeoutError:
            raise WaitTimeoutError("mix not completed within deadline") \
                from None
        finally:
            if tracer is not None:
                tracer.end(handle)
        now = time.monotonic()
        self.latencies_us.append((now - scheduled) * 1e6)
        self.done_at.append(now)


class ServiceLoad:
    """Open loop: Poisson arrivals through ``AsyncLoadSimulator``."""

    name = "service"
    warmup_ops = 512
    rate = 0.0

    def __init__(self, seed: int, rate: Optional[float] = None):
        self.seed = seed
        if rate is not None:
            self.rate = rate

    def setup(self):
        compiled.clear_cache()
        service = BoundedMixService(self.seed)
        service.start()
        service.bind(None)
        rng = random.Random(self.seed)

        async def warm():
            for _ in range(self.warmup_ops):
                deadline = time.monotonic() + DEADLINE_S
                await service.handle_async(service.make_op(rng), deadline)

        asyncio.run(warm())
        return service

    def teardown(self, service) -> None:
        service.stop()

    def phase(self, service, seconds: float,
              tracer: Optional[Tracer]) -> Phase:
        service.bind(tracer)
        queue = service.queue
        sim = AsyncLoadSimulator(
            service, PoissonArrivals(self.rate, seconds, self.seed),
            scenario=self.name, deadline=DEADLINE_S, diagnose=False)
        before = _counters(queue)
        pre0 = queue._pre_evals
        cpu0, t0 = time.process_time(), time.monotonic()
        report = sim.run(params={"rate": self.rate})
        cpu = time.process_time() - cpu0
        lat, send_lag = service.latencies_us, service.send_lag_us
        done = [t - t0 for t in service.done_at]
        service.bind(None)
        outcomes = {o: report.total(o) for o in (
            "completed", "timed_out", "failed_fast", "errors", "shed")}
        offered = len(sim.arrivals.schedule())
        checks = []
        if offered != sum(outcomes.values()) or report.in_flight:
            checks.append(f"accounting: offered {offered} != {outcomes} "
                          f"with in_flight {report.in_flight}")
        checks += report.accounting_errors()
        completed = outcomes["completed"]
        if len(lat) != completed:
            checks.append(f"{len(lat)} latency samples for {completed} "
                          f"completed requests")
        counters = _delta(before, _counters(queue))
        return Phase(
            ops=completed, attempted=offered,
            failed=outcomes["failed_fast"] + outcomes["errors"],
            elapsed_s=report.elapsed, cpu_s=cpu, lat_us=lat, done_s=done,
            start_s=t0, counters=counters, pre_evals=queue._pre_evals - pre0,
            tasks=counters["steal_items"],
            shed=outcomes["shed"], timed_out=outcomes["timed_out"],
            loop_lag_ms_max=report.extra["loop_probe"]["max_drift_ms"],
            send_lag_us=send_lag, checks=checks)

    def finish(self, service) -> list:
        count = service.queue.count
        if MixQueue.LOW <= count <= MixQueue.HIGH:
            return []
        return [f"buffer left its band: {count} items"]


class ServiceLight(ServiceLoad):
    name = "service_light"
    rate = 0.2 * KNEE_RPS


class ServiceOverload(ServiceLoad):
    name = "service_overload"
    rate = 2.0 * KNEE_RPS


WORKLOADS = {w.name: w for w in (BufferHandoff, WakeFanout, DelegateBacklog,
                                 ServiceLight, ServiceOverload)}

