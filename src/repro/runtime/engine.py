"""The discrete-event simulation core.

A process is a Python generator that ``yield``s request objects:

* :class:`Timeout` — advance the virtual clock for this process,
* :class:`Compute` — occupy CPU cores via the core scheduler,
* :class:`Read` — pull bytes through the fair-share disk server,
* :class:`Put` / :class:`Get` — blocking bounded-queue operations.

The engine is single-threaded and deterministic: events at equal times
are ordered by insertion sequence. ``Get`` returns either an item or the
:data:`EOS` sentinel once the queue is closed and drained — that is the
end-of-stream protocol between pipeline stages.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Generator, List, Optional


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


#: End-of-stream sentinel returned by ``Get`` on a closed, empty queue.
EOS = _EndOfStream()


# ----------------------------------------------------------------------
# Request objects yielded by processes.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Timeout:
    """Sleep for ``delay`` virtual seconds (does not occupy a core)."""

    delay: float


@dataclass(frozen=True)
class Compute:
    """Occupy ``width`` cores for ``seconds`` of service time."""

    seconds: float
    width: float = 1.0


@dataclass(frozen=True)
class Read:
    """Read ``nbytes`` through the disk server."""

    nbytes: float


@dataclass(frozen=True)
class Put:
    """Put ``item`` into ``queue``, blocking while full."""

    queue: "SimQueue"
    item: Any


@dataclass(frozen=True)
class Get:
    """Take one item from ``queue``, blocking while empty.

    Resumes with the item, or :data:`EOS` if the queue is closed and
    drained.
    """

    queue: "SimQueue"


class Process:
    """A running generator inside the simulation."""

    __slots__ = ("sim", "gen", "name", "finished")

    def __init__(self, sim: "Simulation", gen: Generator, name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = False

    def resume(self, value: Any = None) -> None:
        """Advance the generator with ``value`` and dispatch its next
        request. Called only by the engine."""
        try:
            request = self.gen.send(value)
        except StopIteration:
            self.finished = True
            return
        self.sim._dispatch(self, request)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "live"
        return f"Process({self.name!r}, {state})"


class Simulation:
    """Event loop with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List = []
        #: same-timestamp resumes, drained FIFO without touching the heap
        self._ready: Deque = deque()
        self._seq = 0
        self._handlers = {
            Timeout: self._handle_timeout,
            Put: self._handle_put,
            Get: self._handle_get,
        }
        #: set by the executor; handles Compute requests
        self.cores: Optional["CoreScheduler"] = None
        #: set by the executor; handles Read requests
        self.disk: Optional[Any] = None
        #: telemetry, updated once per ``run()``: total callbacks fired
        #: and the deepest the same-timestamp ready deque ever got
        self.events_processed = 0
        self.peak_ready_depth = 0

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` virtual seconds.

        Zero-delay events — the overwhelming majority (every queue
        handoff and core grant resumes a process "now") — bypass the
        heap entirely and join a FIFO ready list. Ordering stays
        identical to the all-heap implementation: a heap entry due at
        the current timestamp was necessarily pushed *before* the clock
        reached it, so it precedes every ready entry created *at* the
        timestamp, and the FIFO preserves insertion order among ready
        entries themselves.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if delay == 0.0:
            self._ready.append((callback, args))
            return
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Register a new process and start it at the current time."""
        proc = Process(self, gen, name)
        self.schedule(0.0, proc.resume, None)
        return proc

    def run(self, until: float) -> float:
        """Run events until the clock reaches ``until`` or the event heap
        drains (e.g. a single-epoch pipeline finished early). Returns the
        final clock value.

        The loop is the simulator's hottest path (batch optimization runs
        millions of events per trace). Two structural optimizations:

        * **batched resume scheduling** — all processes ready at the
          current timestamp live in a FIFO deque and are drained in one
          pass, so the common put→get→resume chains never pay
          ``heappush``/``heappop``;
        * timed entries are popped exactly once — an entry beyond
          ``until`` is pushed back rather than peeked-then-popped.

        Event ordering is deterministic and identical to a pure-heap
        loop: timed entries due at the current instant run first (they
        carry earlier insertion sequence numbers by construction), then
        ready entries in insertion order. A ready callback can only
        append to the ready deque or schedule strictly-future heap
        entries, so the drain terminates per timestamp.
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        # Telemetry stays in locals inside the hot loop (one add / one
        # compare per event) and is flushed to the instance on exit.
        events = 0
        peak_ready = self.peak_ready_depth
        try:
            while heap or ready:
                # Timed events due exactly now (scheduled before the clock
                # reached this instant) precede any same-timestamp resume.
                while heap and heap[0][0] <= self.now:
                    entry = pop(heap)
                    events += 1
                    entry[2](*entry[3])
                if ready:
                    depth = len(ready)
                    if depth > peak_ready:
                        peak_ready = depth
                    callback, args = ready.popleft()
                    events += 1
                    callback(*args)
                    continue
                if not heap:
                    break
                time = heap[0][0]
                if time > until:
                    self.now = until
                    return self.now
                self.now = time
                entry = pop(heap)
                events += 1
                entry[2](*entry[3])
            return self.now
        finally:
            self.events_processed += events
            self.peak_ready_depth = peak_ready

    # ------------------------------------------------------------------
    def _dispatch(self, proc: Process, request: Any) -> None:
        handler = self._handlers.get(type(request))
        if handler is not None:
            handler(proc, request)
        elif isinstance(request, Compute):
            if self.cores is None:
                raise SimulationError("Compute yielded but no CoreScheduler set")
            self.cores.submit(proc, request.seconds, request.width)
        elif isinstance(request, Read):
            if self.disk is None:
                raise SimulationError("Read yielded but no disk server set")
            self.disk.submit(proc, request.nbytes)
        else:
            raise SimulationError(f"unknown request {request!r} from {proc!r}")

    def _handle_timeout(self, proc: Process, request: Timeout) -> None:
        self.schedule(request.delay, proc.resume, None)

    def _handle_put(self, proc: Process, request: Put) -> None:
        request.queue._put(proc, request.item)

    def _handle_get(self, proc: Process, request: Get) -> None:
        request.queue._get(proc)


class SimQueue:
    """Bounded FIFO queue with blocking put/get and a close protocol.

    Closing wakes all blocked getters with :data:`EOS`, and wakes blocked
    *putters* by resuming their ``Put`` with :data:`EOS` (the pending item
    is discarded — the stream has ended, so nothing will consume it); once
    closed and drained, every ``Get`` resumes immediately with
    :data:`EOS`.
    """

    __slots__ = (
        "sim", "capacity", "name", "items", "_putters", "_getters",
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
        self._putters: Deque = deque()  # (proc, item)
        self._getters: Deque[Process] = deque()
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
        if now == last:  # bursts at one timestamp dominate; skip the math
            return
        self._occ_integral += len(self.items) * (now - last)
        self._occ_last_t = now

    def mean_occupancy(self) -> float:
        """Time-averaged queue length since the queue was created.

        The occupancy integral is divided by *elapsed* time
        (``now - created``), not the absolute clock — a queue created
        mid-run would otherwise under-report occupancy to the prefetch
        planner.

        ``_track`` folds the window up to the current clock into the
        integral first, so a ``run(until=)`` that stops mid-window (the
        engine advances the clock to ``until`` before returning) yields
        the same answer as one stopping on an event boundary at the
        same instant.
        """
        self._track()
        elapsed = self.sim.now - self._created_t
        if elapsed <= 0:
            return 0.0
        return self._occ_integral / elapsed

    # ------------------------------------------------------------------
    def _put(self, proc: Process, item: Any) -> None:
        if self.closed:
            raise SimulationError(f"put on closed queue {self.name!r}")
        self._track()
        self.total_puts += 1
        if self._getters:
            getter = self._getters.popleft()
            self.sim.schedule(0.0, getter.resume, item)
            self.sim.schedule(0.0, proc.resume, None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            if len(self.items) > self.peak_occupancy:
                self.peak_occupancy = len(self.items)
            self.sim.schedule(0.0, proc.resume, None)
        else:
            self._putters.append((proc, item))

    def _get(self, proc: Process) -> None:
        self._track()
        self.total_gets += 1
        if self.items:
            item = self.items.popleft()
            if self._putters:
                putter, pending = self._putters.popleft()
                self.items.append(pending)
                self.sim.schedule(0.0, putter.resume, None)
            self.sim.schedule(0.0, proc.resume, item)
        elif self._putters:
            # capacity reached with direct handoff pending
            putter, pending = self._putters.popleft()
            self.sim.schedule(0.0, putter.resume, None)
            self.sim.schedule(0.0, proc.resume, pending)
        elif self.closed:
            self.sim.schedule(0.0, proc.resume, EOS)
        else:
            self._getters.append(proc)

    def close(self) -> None:
        """Mark the stream ended; wake blocked getters *and putters*.

        Getters resume with :data:`EOS` as usual. A producer parked in
        ``_putters`` when the queue closes must not be leaked: it is
        resumed with :data:`EOS` (instead of the usual ``None``) so it can
        observe the closure, and its pending item is discarded. A producer
        that ignores the sentinel and puts again hits the explicit
        put-after-close :class:`SimulationError` rather than hanging.
        """
        if self.closed:
            return
        self.closed = True
        while self._getters:
            getter = self._getters.popleft()
            self.sim.schedule(0.0, getter.resume, EOS)
        while self._putters:
            putter, _pending = self._putters.popleft()
            self.sim.schedule(0.0, putter.resume, EOS)

    def __len__(self) -> int:
        return len(self.items)


class CoreScheduler:
    """FCFS core allocation with an oversubscription penalty.

    A :class:`Compute` request of width ``w`` (UDF-internal threads)
    waits for ``w`` free cores, then holds them for the service time
    inflated by the static oversubscription factor — the mechanism behind
    the paper's RCNN over-allocation cliff (Obs. 5).
    """

    __slots__ = (
        "sim", "capacity", "free", "_waiting", "penalty",
        "_busy_integral", "_busy_last_t", "_created_t",
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
        self._waiting: Deque = deque()  # (proc, seconds, width)
        self.penalty = self._penalty_factor(oversubscription_penalty, total_threads)
        # Telemetry: integral of busy cores over time (CPU utilization).
        self._busy_integral = 0.0
        self._busy_last_t = sim.now
        self._created_t = sim.now

    def _penalty_factor(self, slope: float, threads: float) -> float:
        if threads <= self.capacity or slope <= 0:
            return 1.0
        return 1.0 + slope * (threads / self.capacity - 1.0)

    def _track(self) -> None:
        now = self.sim.now
        last = self._busy_last_t
        if now == last:
            return
        self._busy_integral += (self.capacity - self.free) * (now - last)
        self._busy_last_t = now

    def utilization(self, duration: Optional[float] = None) -> float:
        """Mean fraction of cores busy over ``duration``.

        With ``duration=None`` the busy integral is divided by elapsed
        time since the scheduler was created (``sim.now - created``) —
        the same convention :meth:`SimQueue.mean_occupancy` uses, so the
        two telemetry surfaces agree whether ``run(until=)`` stopped at
        an event boundary or mid-window (``run`` advances the clock to
        ``until`` on a mid-window stop, and ``_track`` folds the partial
        window into the integral at the current busy level).

        Passing an explicit ``duration`` keeps the historical behavior
        of normalizing against a caller-chosen window (the executor
        passes the run's final clock value).
        """
        self._track()
        if duration is None:
            duration = self.sim.now - self._created_t
        if duration <= 0:
            return 0.0
        return self._busy_integral / (self.capacity * duration)

    # ------------------------------------------------------------------
    def submit(self, proc: Process, seconds: float, width: float) -> None:
        width = min(width, self.capacity)
        if seconds < 0:
            raise SimulationError(f"negative compute time {seconds}")
        if seconds == 0:
            self.sim.schedule(0.0, proc.resume, None)
            return
        if self.free >= width and not self._waiting:
            self._start(proc, seconds, width)
        else:
            self._waiting.append((proc, seconds, width))

    def _start(self, proc: Process, seconds: float, width: float) -> None:
        self._track()
        self.free -= width
        self.sim.schedule(seconds * self.penalty, self._finish, proc, width)

    def _finish(self, proc: Process, width: float) -> None:
        self._track()
        self.free += width
        self.sim.schedule(0.0, proc.resume, None)
        while self._waiting and self.free >= self._waiting[0][2]:
            waiting_proc, seconds, w = self._waiting.popleft()
            self._start(waiting_proc, seconds, w)


class FairShareDisk:
    """Fair-share disk server driven by a :class:`~repro.host.disk.DiskSpec`.

    Active reads share aggregate bandwidth ``B(k)`` equally, where ``k``
    is the number of concurrent streams; the aggregate follows the
    spec's parallelism curve. Per-read fixed latency models seek/request
    setup.
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
    def submit(self, proc: Process, nbytes: float) -> None:
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

    def _admit(self, proc: Process, nbytes: float) -> None:
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

