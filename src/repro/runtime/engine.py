"""The discrete-event simulation core.

One event loop (:class:`Simulation`), one bounded queue
(:class:`SimQueue`), one core scheduler (:class:`CoreScheduler`) and one
fair-share disk (:class:`FairShareDisk`). Pipeline workers
(:mod:`repro.runtime.vector`) are state machines whose continuations are
plain callables: a queue, core or timer wakes a worker by calling the
continuation with one value — the item, ``None``, or the :data:`EOS`
sentinel once a queue is closed and drained (the end-of-stream protocol
between stages).

The engine is single-threaded and deterministic; its ordering contract:

* same-timestamp wakes run first-in first-out from a ready deque, as
  ``(callback, value)`` entries, without touching the heap;
* a queue handoff wakes two continuations back to back, so it is
  appended *fused* as one ``(cb1, v1, cb2, v2)`` entry;
* timed entries due at an instant run before the ready entries created
  at that instant (they were pushed earlier);
* a timer whose strictly positive delay vanishes below one ulp of the
  clock (``now + d <= now``, e.g. a 1e-18 s timer at t=100) runs after
  the callback that pushed it returns and before the next ready entry —
  even between the halves of a fused pair; several run first-in
  first-out (:meth:`Simulation._collapsed`).

Those rules are the ones a plain loop gets by probing the heap before
every ready entry and waking every process through ``schedule(0.0,
...)``. That scalar generator engine is kept in the test suite
(``tests/reference_engine.py``) as the oracle: the golden corpus
(``tests/golden/``) is captured from it, and the golden and hypothesis
suites assert this engine reproduces it byte for byte.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional

_push = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for engine protocol violations (put-after-close, etc.)."""


class _EndOfStream:
    """Singleton sentinel signalling a closed, drained queue."""

    _instance: Optional["_EndOfStream"] = None

    def __new__(cls) -> "_EndOfStream":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "EOS"


#: End-of-stream sentinel a closed, drained queue wakes getters with.
EOS = _EndOfStream()


class Simulation:
    """Event loop with a virtual clock and cohort draining.

    Each clock advance runs the timed entries due at the new instant,
    then drains the whole same-timestamp ready cohort in one inner loop
    with no per-event heap probe. That is exact because nothing on the
    heap can become due mid-cohort: every push is strictly in the future
    except a collapsed one, which :meth:`_collapsed` queues at the front
    of the ready deque instead. Ready depth and ``events_processed`` are
    sampled once per cohort (telemetry, not part of the equivalence
    contract).

    Worker and resource hot paths push timers inline — the expression
    :meth:`schedule` uses, minus the call — and append wakes to
    ``_ready`` directly.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List = []
        #: same-timestamp wakes: ``(cb, value)`` or fused ``(cb1, v1, cb2, v2)``
        self._ready: Deque = deque()
        #: collapsed timers awaiting their flush entry, in push order
        self._pending: Deque = deque()
        self._seq = 0
        #: set by the executor; serve ``submit`` calls from workers
        self.cores: Optional["CoreScheduler"] = None
        self.disk: Optional["FairShareDisk"] = None
        #: telemetry, updated once per ``run()``: callbacks fired and the
        #: deepest the ready deque got
        self.events_processed = 0
        self.peak_ready_depth = 0

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` virtual seconds.

        A zero delay joins the ready deque, which carries at most one
        value per wake; a timed entry may carry any number of args.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if delay == 0.0:
            (value,) = args or (None,)
            self._ready.append((callback, value))
            return
        t = self.now + delay
        if t <= self.now:
            self._collapsed(callback, args)
            return
        self._seq += 1
        _push(self._heap, (t, self._seq, callback, args))

    def _collapsed(self, callback: Callable, args: tuple) -> None:
        """Cold path for a timer pushed with ``now + delay <= now``.

        On a heap-probing loop such an entry is due at once: it runs
        after the current callback returns and before the next ready
        entry, in push order with any other collapsed entry. The first
        one queues a flush entry at the *front* of the ready deque; the
        rest join :attr:`_pending` behind it. ``run`` drains the flush
        between the halves of a fused pair too, because the first half
        (e.g. a getter's continuation) may be the one that pushed.
        """
        pending = self._pending
        if not pending:
            self._ready.appendleft((self._flush_collapsed, None))
        pending.append((callback, args))

    def _flush_collapsed(self, _value: Any = None) -> None:
        # An entry stays queued while it runs, so one it pushes in turn
        # joins this flush instead of queueing another.
        pending = self._pending
        while pending:
            callback, args = pending[0]
            callback(*args)
            pending.popleft()

    def run(self, until: float) -> float:
        """Run events until the clock reaches ``until`` or no event is
        left (e.g. a single-epoch pipeline finished early). Returns the
        final clock value; a stop at ``until`` parks the clock there."""
        heap = self._heap
        ready = self._ready
        pending = self._pending
        pop = heapq.heappop
        popleft = ready.popleft
        events = 0
        peak_ready = self.peak_ready_depth
        now = self.now
        try:
            while True:
                if ready:
                    depth = len(ready)
                    if depth > peak_ready:
                        peak_ready = depth
                    events += depth
                    while ready:
                        e = popleft()
                        if len(e) == 2:
                            e[0](e[1])
                        else:
                            e[0](e[1])
                            if pending:
                                # the first half collapsed a timer: its
                                # flush entry is at the front of ready
                                f = popleft()
                                f[0](f[1])
                            e[2](e[3])
                if not heap:
                    break
                time = heap[0][0]
                if time > until:
                    self.now = until
                    return until
                # Callbacks never move the clock, so it is mirrored in a
                # local and written only here.
                now = time
                self.now = time
                # Later heap entries can share this timestamp (pushed
                # from earlier instants), so this is a loop.
                while heap and heap[0][0] <= now:
                    _t, _s, cb, args = pop(heap)
                    events += 1
                    cb(*args)
            return now
        finally:
            self.events_processed += events
            self.peak_ready_depth = peak_ready


class SimQueue:
    """Bounded FIFO queue with blocking put/get and a close protocol.

    ``_put(resume, item)`` and ``_get(resume)`` take the continuation to
    wake. A put wakes its ``resume`` with ``None`` once the item is in
    (or handed to a waiting getter); a get wakes with the item. Closing
    wakes blocked getters with :data:`EOS`, and blocked *putters* with
    :data:`EOS` too (their pending item is discarded — nothing will
    consume it); once closed and drained every get wakes with
    :data:`EOS`, and a put raises :class:`SimulationError`.
    """

    __slots__ = (
        "sim", "capacity", "name", "items", "_n", "_putters", "_getters",
        "closed", "_occ_integral", "_occ_last_t", "_created_t",
        "total_puts", "total_gets", "peak_occupancy",
    )

    def __init__(self, sim: Simulation, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        #: mirrors ``len(self.items)`` so the hot paths read one slot
        self._n = 0
        self._putters: Deque = deque()  # (resume, item)
        self._getters: Deque = deque()  # resume
        self.closed = False
        # Telemetry for the prefetch planner and the batch service's
        # queue report: time-integrated occupancy plus cheap counters.
        self._occ_integral = 0.0
        self._occ_last_t = sim.now
        self._created_t = sim.now
        self.total_puts = 0
        self.total_gets = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    def _track(self) -> None:
        now = self.sim.now
        last = self._occ_last_t
        if now != last:  # bursts at one timestamp dominate; skip the math
            self._occ_integral += len(self.items) * (now - last)
            self._occ_last_t = now

    def mean_occupancy(self) -> float:
        """Time-averaged queue length since the queue was created.

        The integral is divided by *elapsed* time (``now - created``),
        not the absolute clock, so a queue created mid-run does not
        under-report to the prefetch planner. The window up to the
        current clock is folded in first, so a ``run(until=)`` that
        stops mid-window agrees with one stopping on an event boundary
        at the same instant.
        """
        self._track()
        elapsed = self.sim.now - self._created_t
        if elapsed <= 0:
            return 0.0
        return self._occ_integral / elapsed

    # ------------------------------------------------------------------
    def _put(self, resume: Callable, item: Any) -> None:
        if self.closed:
            raise SimulationError(f"put on closed queue {self.name!r}")
        sim = self.sim
        now = sim.now
        n = self._n
        last = self._occ_last_t
        if now != last:
            self._occ_integral += n * (now - last)
            self._occ_last_t = now
        self.total_puts += 1
        getters = self._getters
        if getters:
            sim._ready.append((getters.popleft(), item, resume, None))
        elif n < self.capacity:
            self.items.append(item)
            n += 1
            self._n = n
            if n > self.peak_occupancy:
                self.peak_occupancy = n
            sim._ready.append((resume, None))
        else:
            self._putters.append((resume, item))

    def _get(self, resume: Callable) -> None:
        sim = self.sim
        now = sim.now
        items = self.items
        last = self._occ_last_t
        if now != last:
            self._occ_integral += self._n * (now - last)
            self._occ_last_t = now
        self.total_gets += 1
        if items:
            item = items.popleft()
            putters = self._putters
            if putters:
                putter, pending = putters.popleft()
                items.append(pending)
                sim._ready.append((putter, None, resume, item))
            else:
                self._n -= 1
                sim._ready.append((resume, item))
        elif self._putters:
            # capacity reached with direct handoff pending
            putter, pending = self._putters.popleft()
            sim._ready.append((putter, None, resume, pending))
        elif self.closed:
            sim._ready.append((resume, EOS))
        else:
            self._getters.append(resume)

    def close(self) -> None:
        """Mark the stream ended; wake blocked getters *and putters* with
        :data:`EOS`, getters first."""
        if self.closed:
            return
        self.closed = True
        ready = self.sim._ready
        getters = self._getters
        while getters:
            ready.append((getters.popleft(), EOS))
        putters = self._putters
        while putters:
            putter, _pending = putters.popleft()
            ready.append((putter, EOS))

    def __len__(self) -> int:
        return len(self.items)


class CoreScheduler:
    """FCFS core allocation with an oversubscription penalty.

    ``submit(resume, seconds, width)`` waits for ``width`` free cores
    (UDF-internal threads), holds them for the service time inflated by
    the static oversubscription factor — the mechanism behind the
    paper's RCNN over-allocation cliff (Obs. 5) — then wakes ``resume``.
    """

    __slots__ = (
        "sim", "capacity", "free", "_waiting", "penalty",
        "_busy_integral", "_busy_last_t", "_created_t", "_k_finish",
    )

    def __init__(
        self,
        sim: Simulation,
        capacity: float,
        oversubscription_penalty: float = 0.0,
        total_threads: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"core capacity must be > 0, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.free = float(capacity)
        self._waiting: Deque = deque()  # (resume, seconds, width)
        self.penalty = self._penalty_factor(oversubscription_penalty, total_threads)
        # Telemetry: integral of busy cores over time (CPU utilization).
        self._busy_integral = 0.0
        self._busy_last_t = sim.now
        self._created_t = sim.now
        self._k_finish = self._finish

    def _penalty_factor(self, slope: float, threads: float) -> float:
        if threads <= self.capacity or slope <= 0:
            return 1.0
        return 1.0 + slope * (threads / self.capacity - 1.0)

    def _track(self) -> None:
        now = self.sim.now
        last = self._busy_last_t
        if now != last:
            self._busy_integral += (self.capacity - self.free) * (now - last)
            self._busy_last_t = now

    def utilization(self, duration: Optional[float] = None) -> float:
        """Mean fraction of cores busy over ``duration``.

        With ``duration=None`` the busy integral is divided by elapsed
        time since the scheduler was created — the convention
        :meth:`SimQueue.mean_occupancy` uses, with the partial window up
        to the current clock folded in the same way. An explicit
        ``duration`` normalizes against a caller-chosen window (the
        executor passes the run's final clock value).
        """
        self._track()
        if duration is None:
            duration = self.sim.now - self._created_t
        if duration <= 0:
            return 0.0
        return self._busy_integral / (self.capacity * duration)

    # ------------------------------------------------------------------
    def submit(self, resume: Callable, seconds: float, width: float) -> None:
        if width > self.capacity:
            width = self.capacity
        if seconds < 0:
            raise SimulationError(f"negative compute time {seconds}")
        if seconds == 0:
            self.sim._ready.append((resume, None))
            return
        if self.free >= width and not self._waiting:
            # _start inlined (the no-contention fast path)
            sim = self.sim
            now = sim.now
            last = self._busy_last_t
            if now != last:
                self._busy_integral += (self.capacity - self.free) * (now - last)
                self._busy_last_t = now
            self.free -= width
            t = now + seconds * self.penalty
            if t <= now:
                sim._collapsed(self._k_finish, (resume, width))
                return
            sim._seq += 1
            _push(sim._heap, (t, sim._seq, self._k_finish, (resume, width)))
        else:
            self._waiting.append((resume, seconds, width))

    def _start(self, resume: Callable, seconds: float, width: float) -> None:
        sim = self.sim
        now = sim.now
        last = self._busy_last_t
        if now != last:
            self._busy_integral += (self.capacity - self.free) * (now - last)
            self._busy_last_t = now
        self.free -= width
        t = now + seconds * self.penalty
        if t <= now:
            sim._collapsed(self._k_finish, (resume, width))
            return
        sim._seq += 1
        _push(sim._heap, (t, sim._seq, self._k_finish, (resume, width)))

    def _finish(self, resume: Callable, width: float) -> None:
        sim = self.sim
        now = sim.now
        last = self._busy_last_t
        if now != last:
            self._busy_integral += (self.capacity - self.free) * (now - last)
            self._busy_last_t = now
        self.free += width
        sim._ready.append((resume, None))
        waiting = self._waiting
        while waiting and self.free >= waiting[0][2]:
            self._start(*waiting.popleft())


class FairShareDisk:
    """Fair-share disk server driven by a :class:`~repro.host.disk.DiskSpec`.

    Active reads share aggregate bandwidth ``B(k)`` equally, where ``k``
    is the number of concurrent streams; the aggregate follows the
    spec's parallelism curve. Per-read fixed latency models seek/request
    setup. A reader is any object with a ``resume`` continuation; the
    disk reads it when the read completes.
    """

    #: reads with fewer remaining bytes than this are considered done
    #: (guards against float underflow livelock at a single timestamp)
    _EPS_BYTES = 1e-3

    __slots__ = ("sim", "spec", "_active", "_last_t", "_version", "total_bytes")

    def __init__(self, sim: Simulation, spec) -> None:
        self.sim = sim
        self.spec = spec
        self._active: dict = {}  # proc -> remaining bytes
        self._last_t = sim.now
        self._version = 0
        self.total_bytes = 0.0

    # ------------------------------------------------------------------
    def submit(self, proc: Any, nbytes: float) -> None:
        if nbytes < 0:
            raise SimulationError(f"negative read size {nbytes}")
        if nbytes == 0:
            self.sim.schedule(0.0, proc.resume, None)
            return
        self.total_bytes += nbytes
        if self.spec.read_latency > 0:
            self.sim.schedule(self.spec.read_latency, self._admit, proc, nbytes)
        else:
            self._admit(proc, nbytes)

    def _admit(self, proc: Any, nbytes: float) -> None:
        self._advance()
        self._active[proc] = nbytes
        self._reschedule()

    def _per_stream_rate(self) -> float:
        k = len(self._active)
        if k == 0:
            return 0.0
        return self.spec.bandwidth(k) / k

    def _advance(self) -> None:
        """Account progress since the last disk event."""
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt <= 0 or not self._active:
            return
        rate = self._per_stream_rate()
        done = dt * rate
        for proc in list(self._active):
            self._active[proc] = max(0.0, self._active[proc] - done)

    def _reschedule(self) -> None:
        self._version += 1
        if not self._active:
            return
        rate = self._per_stream_rate()
        if rate <= 0:
            raise SimulationError("disk has active reads but zero bandwidth")
        min_remaining = min(self._active.values())
        delay = 0.0 if min_remaining <= self._EPS_BYTES else min_remaining / rate
        self.sim.schedule(delay, self._complete, self._version)

    def _complete(self, version: int) -> None:
        if version != self._version:
            return  # stale completion event
        self._advance()
        finished = [
            p for p, rem in self._active.items() if rem <= self._EPS_BYTES
        ]
        if not finished and self._active:
            # Float rounding left the soonest read marginally above the
            # epsilon at the scheduled completion time; force it done.
            soonest = min(self._active, key=self._active.get)
            finished = [soonest]
        for proc in finished:
            del self._active[proc]
            self.sim.schedule(0.0, proc.resume, None)
        self._reschedule()

