"""The reference generator engine: the equivalence oracle for the simulator.

This is the scalar engine the golden corpus (``tests/golden/``) is
captured from and the hypothesis ``fast == reference`` properties run
against. Every worker is a Python generator that ``yield``s a request
object:

* :class:`Timeout` — advance the virtual clock for this process,
* :class:`Compute` — occupy CPU cores via the core scheduler,
* :class:`Read` — pull bytes through the fair-share disk server,
* :class:`Put` / :class:`Get` — blocking bounded-queue operations.

The event loop probes the heap before *every* ready entry, and every
wake goes through ``schedule(0.0, ...)``. That is slow, and it is the
point: the ordering rules the shipped engine
(:mod:`repro.runtime.engine`) reaches by construction — cohort draining,
fused wake pairs, the collapsed-timer path — fall out of this loop
directly, so the two are checkable against each other.

Only the engine mechanics live here. The run wiring (queue sizing,
warmup window, measurement) is the shipped executor's, reached through
:func:`run_pipeline`; the resource telemetry (occupancy and
utilization integrals) and the fair-share disk are inherited from
:mod:`repro.runtime.engine`.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Generator, List

from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    FilterNode,
    InterleaveDatasetsNode,
    InterleaveSourceNode,
    MapNode,
    PrefetchNode,
    RepeatNode,
    ShuffleNode,
    TakeNode,
    ZipNode,
)
from repro.runtime import engine, executor
from repro.runtime.engine import EOS, SimulationError
from repro.runtime.iterators import READ_BLOCK_BYTES, StageState


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

    queue: Any
    item: Any


@dataclass(frozen=True)
class Get:
    """Take one item from ``queue``; resumes with the item, or
    :data:`EOS` once the queue is closed and drained."""

    queue: Any


class Process:
    """A running generator. ``resume`` sends a value in and dispatches
    the next request; queues and cores get ``resume`` as the callable to
    wake, so a process drives either engine's resources."""

    def __init__(self, sim, gen: Generator, name: str = "proc") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = False

    def resume(self, value: Any = None) -> None:
        try:
            request = self.gen.send(value)
        except StopIteration:
            self.finished = True
            return
        kind = type(request)
        if kind is Timeout:
            self.sim.schedule(request.delay, self.resume, None)
        elif kind is Put:
            request.queue._put(self.resume, request.item)
        elif kind is Get:
            request.queue._get(self.resume)
        elif kind is Compute:
            self.sim.cores.submit(self.resume, request.seconds, request.width)
        elif kind is Read:
            self.sim.disk.submit(self, request.nbytes)
        else:
            raise SimulationError(f"unknown request {request!r} from {self.name}")

    #: the executor starts every stage task through ``start``
    start = resume


def spawn(sim, gen: Generator, name: str = "proc") -> Process:
    """Start a generator process at the current time on either engine."""
    proc = Process(sim, gen, name)
    sim.schedule(0.0, proc.resume, None)
    return proc


# ----------------------------------------------------------------------
# The scalar event loop and resources.
# ----------------------------------------------------------------------
class Simulation:
    """Event loop with a virtual clock: the heap is probed before every
    ready entry, so a timer that collapses onto the current instant runs
    before the next ready entry by construction."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List = []
        self._ready = deque()
        self._seq = 0
        self.cores = None
        self.disk = None
        self.events_processed = 0
        self.peak_ready_depth = 0

    def schedule(self, delay: float, callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` virtual seconds; zero
        delays join the same-timestamp FIFO instead of the heap."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if delay == 0.0:
            self._ready.append((callback, args))
            return
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))

    def run(self, until: float) -> float:
        """Run until the clock reaches ``until`` or no event is left.
        Timed entries due now precede same-timestamp ready entries."""
        heap = self._heap
        ready = self._ready
        while heap or ready:
            while heap and heap[0][0] <= self.now:
                entry = heapq.heappop(heap)
                self.events_processed += 1
                entry[2](*entry[3])
            if ready:
                self.peak_ready_depth = max(self.peak_ready_depth, len(ready))
                callback, args = ready.popleft()
                self.events_processed += 1
                callback(*args)
                continue
            if not heap:
                break
            if heap[0][0] > until:
                self.now = until
                return until
            self.now = heap[0][0]
        return self.now


class SimQueue(engine.SimQueue):
    """Bounded FIFO whose every wake goes through ``schedule(0.0, ...)``."""

    def _put(self, resume, item) -> None:
        if self.closed:
            raise SimulationError(f"put on closed queue {self.name!r}")
        self._track()
        self.total_puts += 1
        if self._getters:
            self.sim.schedule(0.0, self._getters.popleft(), item)
            self.sim.schedule(0.0, resume, None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            self.peak_occupancy = max(self.peak_occupancy, len(self.items))
            self.sim.schedule(0.0, resume, None)
        else:
            self._putters.append((resume, item))

    def _get(self, resume) -> None:
        self._track()
        self.total_gets += 1
        if self.items:
            item = self.items.popleft()
            if self._putters:
                putter, pending = self._putters.popleft()
                self.items.append(pending)
                self.sim.schedule(0.0, putter, None)
            self.sim.schedule(0.0, resume, item)
        elif self._putters:
            putter, pending = self._putters.popleft()
            self.sim.schedule(0.0, putter, None)
            self.sim.schedule(0.0, resume, pending)
        elif self.closed:
            self.sim.schedule(0.0, resume, EOS)
        else:
            self._getters.append(resume)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        while self._getters:
            self.sim.schedule(0.0, self._getters.popleft(), EOS)
        while self._putters:
            putter, _pending = self._putters.popleft()
            self.sim.schedule(0.0, putter, EOS)


class CoreScheduler(engine.CoreScheduler):
    """FCFS cores whose grants and completions go through ``schedule``."""

    def submit(self, resume, seconds: float, width: float) -> None:
        width = min(width, self.capacity)
        if seconds < 0:
            raise SimulationError(f"negative compute time {seconds}")
        if seconds == 0:
            self.sim.schedule(0.0, resume, None)
        elif self.free >= width and not self._waiting:
            self._start(resume, seconds, width)
        else:
            self._waiting.append((resume, seconds, width))

    def _start(self, resume, seconds: float, width: float) -> None:
        self._track()
        self.free -= width
        self.sim.schedule(seconds * self.penalty, self._finish, resume, width)

    def _finish(self, resume, width: float) -> None:
        self._track()
        self.free += width
        self.sim.schedule(0.0, resume, None)
        while self._waiting and self.free >= self._waiting[0][2]:
            self._start(*self._waiting.popleft())


# ----------------------------------------------------------------------
# Worker generators. Each chunk: Get (starvation), framework overhead
# (Timeout: holds the worker, no core, invisible to CPU tracing), CPU
# cost (Compute), Put (backpressure).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Item:
    """A chunk of ``count`` elements totalling ``nbytes`` bytes."""

    count: float
    nbytes: float

    @property
    def bytes_per_element(self) -> float:
        return self.nbytes / self.count if self.count > 0 else 0.0


def _cpu(ctx, per_element: float, count: float, width: float = 1.0):
    """The ``(seconds, width)`` core request for ``count`` elements at
    ``per_element`` reference-core seconds, or ``None`` when free."""
    if per_element > 0:
        return (per_element * count / ctx.machine.core_speed, width)
    return None


def _step(ctx, stats, out_q, count, compute, out):
    """Framework overhead for ``count`` elements, the optional core
    request ``compute``, then put ``out`` downstream (``None`` drops)."""
    o = ctx.overhead_per_element * count
    if o > 0:
        stats.on_overhead(o)
        yield Timeout(o)
    if compute is not None:
        svc, width = compute
        yield Compute(svc, width=width)
        stats.on_cpu(svc * width * ctx.penalty)
    if out is not None:
        yield Put(out_q, out)
        stats.on_produce(out.count, out.nbytes, ctx.sim.now)


def source_worker(node, cursor, out_q, state, ctx, stats, granularity):
    """One interleave stream: block-buffered reads, chunked record emit."""
    try:
        while True:
            f = cursor.next_file()
            if f is None:
                return
            stats.on_file_done(f.size_bytes)
            remaining = f.num_records
            unread = f.size_bytes
            buffered = 0.0
            while remaining > 0:
                n = min(granularity, remaining)
                remaining -= n
                nbytes = n * f.bytes_per_record
                if buffered < nbytes and unread > 0:
                    block = min(max(nbytes, READ_BLOCK_BYTES), unread)
                    t_read = ctx.sim.now
                    yield Read(block)
                    stats.on_io(ctx.sim.now - t_read)
                    stats.on_read(block)
                    unread -= block
                    buffered += block
                buffered -= nbytes
                yield from _step(ctx, stats, out_q, n, None, None)
                compute = _cpu(ctx, node.read_cpu_seconds_per_record, n)
                yield from _step(ctx, stats, out_q, 0.0, compute, None)
                # counted consumed once read and decoded, before the put
                stats.on_consume(n)
                item = Item(count=float(n), nbytes=nbytes)
                yield from _step(ctx, stats, out_q, 0.0, None, item)
    finally:
        state.worker_done()


def _unary_transform(node, ctx):
    """Per-chunk ``(overhead count, core request, output or None)`` of a
    one-in/one-out operator."""
    if isinstance(node, MapNode):
        udf = node.udf

        def transform(item):
            out_count = item.count * udf.examples_ratio
            out = None
            if out_count > 0:
                out_bytes = udf.output_size(item.bytes_per_element) * out_count
                out = Item(count=out_count, nbytes=out_bytes)
            return (item.count, _cpu(ctx, udf.cost.cpu_seconds, item.count,
                                     udf.cost.internal_parallelism), out)
    elif isinstance(node, FilterNode):

        def transform(item):
            out = Item(count=item.count * node.keep_fraction,
                       nbytes=item.nbytes * node.keep_fraction)
            return (item.count, _cpu(ctx, node.udf.cost.cpu_seconds, item.count),
                    out if out.count > 0 else None)
    elif isinstance(node, BatchNode):

        def transform(item):
            # Overhead is paid per *output* element (one Next per batch).
            out_count = item.count / node.batch_size
            return (out_count,
                    _cpu(ctx, node.cpu_seconds_per_example, item.count),
                    Item(count=out_count, nbytes=item.nbytes))
    elif isinstance(node, ShuffleNode):  # includes ShuffleAndRepeatNode

        def transform(item):
            return (item.count,
                    _cpu(ctx, node.cpu_seconds_per_element, item.count), item)
    else:  # repeat / prefetch: forward, paying only overhead

        def transform(item):
            return (item.count, None, item)
    return transform


def unary_worker(transform, in_q, out_q, state, ctx, stats):
    """Get → overhead → optional compute → put, per chunk."""
    try:
        while True:
            item = yield Get(in_q)
            if item is EOS:
                return
            stats.on_consume(item.count)
            yield from _step(ctx, stats, out_q, *transform(item))
    finally:
        state.worker_done()


def take_worker(node, in_q, out_q, state, ctx, stats):
    """Forward until ``count`` elements are emitted, splitting the final
    chunk, then end the stream early."""
    remaining = float(node.count)
    try:
        while remaining > 0:
            item = yield Get(in_q)
            if item is EOS:
                return
            stats.on_consume(item.count)
            emit = min(item.count, remaining)
            remaining -= emit
            frac = emit / item.count if item.count > 0 else 0.0
            out = Item(count=emit, nbytes=item.nbytes * frac)
            yield from _step(ctx, stats, out_q, emit, None, out)
    finally:
        state.worker_done()


def cache_worker(node, in_q, out_q, state, ctx, stats, serve_epochs):
    """Materialize the first pass (raising past the memory limit), then
    serve ``serve_epochs`` more passes from memory."""
    stored: List[Item] = []
    stored_bytes = 0.0
    try:
        while True:
            item = yield Get(in_q)
            if item is EOS:
                break
            stats.on_consume(item.count)
            stored.append(item)
            stored_bytes += item.nbytes
            ctx.cache_bytes[node.name] = stored_bytes
            if stored_bytes > ctx.memory_limit_bytes:
                raise SimulationError(
                    f"cache {node.name!r} exceeded memory limit: "
                    f"{stored_bytes / 1e9:.1f} GB > "
                    f"{ctx.memory_limit_bytes / 1e9:.1f} GB"
                )
            yield from _step(ctx, stats, out_q, item.count, None, item)
        epoch = 0.0
        while epoch < serve_epochs and stored:
            epoch += 1.0
            for item in stored:
                compute = _cpu(ctx, node.read_cpu_seconds_per_element,
                               item.count)
                yield from _step(ctx, stats, out_q, item.count, compute, item)
    finally:
        state.worker_done()


def zip_worker(node, in_qs, out_q, state, ctx, stats):
    """Lockstep merge: per-branch carry buffers, emit min-across-branches,
    end at the first exhausted branch (tf.data zip truncation)."""
    k = len(in_qs)
    buf_count = [0.0] * k
    buf_bytes = [0.0] * k
    try:
        while True:
            for i in range(k):
                while buf_count[i] <= 0:
                    item = yield Get(in_qs[i])
                    if item is EOS:
                        return
                    stats.on_consume(item.count)
                    buf_count[i] += item.count
                    buf_bytes[i] += item.nbytes
            emit = min(buf_count)
            out_bytes = 0.0
            for i in range(k):
                share = emit / buf_count[i]
                out_bytes += buf_bytes[i] * share
                buf_bytes[i] -= buf_bytes[i] * share
                buf_count[i] -= emit
            compute = _cpu(ctx, node.cpu_seconds_per_element, emit)
            out = Item(count=emit, nbytes=out_bytes)
            yield from _step(ctx, stats, out_q, emit, compute, out)
    finally:
        state.worker_done()


def interleave_worker(node, in_qs, out_q, state, ctx, stats):
    """Weighted round-robin: forward whole chunks from the branch with
    the least served-per-weight; end when the first branch runs dry."""
    k = len(in_qs)
    served = [0.0] * k
    try:
        while True:
            best = min(range(k), key=lambda i: served[i] / node.weights[i])
            item = yield Get(in_qs[best])
            if item is EOS:
                return
            stats.on_consume(item.count)
            served[best] += item.count
            compute = _cpu(ctx, node.cpu_seconds_per_element, item.count)
            yield from _step(ctx, stats, out_q, item.count, compute, item)
    finally:
        state.worker_done()


def build_stage(node, in_qs, out_q, ctx, stats, *, cursor=None,
                granularity=1, serve_epochs=0.0) -> List[Process]:
    """Unstarted worker processes for ``node`` (same worker counts and
    queue fan-in as :func:`repro.runtime.vector.build_stage`)."""
    if isinstance(node, InterleaveSourceNode):
        gens = [
            lambda s: source_worker(node, cursor, out_q, s, ctx, stats,
                                    granularity)
        ] * node.effective_parallelism
    elif isinstance(node, ZipNode):
        gens = [lambda s: zip_worker(node, in_qs, out_q, s, ctx, stats)]
    elif isinstance(node, InterleaveDatasetsNode):
        gens = [lambda s: interleave_worker(node, in_qs, out_q, s, ctx, stats)]
    elif isinstance(node, TakeNode):
        gens = [lambda s: take_worker(node, in_qs[0], out_q, s, ctx, stats)]
    elif isinstance(node, CacheNode):
        gens = [lambda s: cache_worker(node, in_qs[0], out_q, s, ctx, stats,
                                       serve_epochs)]
    elif isinstance(node, (MapNode, FilterNode, BatchNode, ShuffleNode,
                           RepeatNode, PrefetchNode)):
        workers = (node.effective_parallelism
                   if isinstance(node, (MapNode, BatchNode)) else 1)
        transform = _unary_transform(node, ctx)
        gens = [
            lambda s: unary_worker(transform, in_qs[0], out_q, s, ctx, stats)
        ] * workers
    else:
        raise TypeError(f"no runtime implementation for node kind {node.kind!r}")
    state = StageState(out_q, len(gens))
    return [Process(ctx.sim, make(state), f"{node.name}[{i}]")
            for i, make in enumerate(gens)]


class Consumer:
    """Root-queue puller recording minibatch counts and Next latency."""

    def __init__(self, sim, root_q, step_per_element: float) -> None:
        self.sim = sim
        self.root_q = root_q
        self.step_per_element = step_per_element
        self.elements = 0.0
        self.wait_seconds = 0.0
        self.drained_at = None

    def start(self, value=None) -> None:
        Process(self.sim, self._run(), "consumer").resume(None)

    def _run(self):
        while True:
            t0 = self.sim.now
            item = yield Get(self.root_q)
            if item is EOS:
                self.drained_at = self.sim.now
                return
            self.wait_seconds += self.sim.now - t0
            self.elements += item.count
            if self.step_per_element > 0:
                yield Timeout(self.step_per_element * item.count)

    def snapshot(self) -> tuple:
        return (self.elements, self.wait_seconds)


def run_pipeline(pipeline, machine, config) -> executor.RunResult:
    """One run of the shipped executor's wiring on this engine."""
    return executor._execute(pipeline, machine, config, sys.modules[__name__])
