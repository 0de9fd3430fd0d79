"""The pipeline workers: compiled state machines for the dataset operators.

Every worker follows the same shape per chunk:

1. get from the input queue (blocked time = upstream starvation),
2. pay framework overhead (a timer — occupies the worker thread but no
   core, and is invisible to CPU-time tracing; see Fig. 9 / §C.3),
3. pay CPU cost (a core-scheduler request — visible to tracing),
4. put downstream (blocked time = downstream backpressure).

One class, :class:`_Worker`, runs that loop for every single-input
stage — map, filter, batch, shuffle (and shuffle_and_repeat), repeat
and prefetch — with what differs per kind bound once at construction.
Sources, take, cache, zip and interleave have loops of another shape
(file reads, an early end, a populate-then-serve pass, several inputs)
and keep a class each.

A worker is an object whose continuations (``k_*`` slots) are bound once
at construction; each step calls the next resource with the continuation
to wake, so no generator frame or request object is allocated per
event. Items travel as plain ``(count, nbytes)`` tuples, and the
per-node counter updates are the :class:`~repro.runtime.stats.NodeStats`
method bodies inlined. Timers are pushed inline with the expression
:meth:`Simulation.schedule <repro.runtime.engine.Simulation.schedule>`
uses; a push whose delay collapses onto the current instant goes to the
engine's cold path (:meth:`~repro.runtime.engine.Simulation._collapsed`).

A steady-state cache replays an identical chunk pattern, so
:class:`_CacheTask` computes each serve chunk's overhead/service/CPU
deltas once per run of equal-sized chunks and replays them from cached
floats; products of identical floats are identical, so fast-forwarding
through the pattern is exact.

The workers' float operations and resource calls are in the order of
the generator workers of the test oracle (``tests/reference_engine.py``),
so the event stream — and every counter, timestamp, and trace byte — is
identical to the oracle's; the golden corpus and the hypothesis
properties check it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    DatasetNode,
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
from repro.runtime.engine import (  # noqa: F401 - the executor's runtime
    EOS,
    CoreScheduler,
    SimQueue,
    Simulation,
    SimulationError,
)
from repro.runtime.iterators import (
    READ_BLOCK_BYTES,
    ExecContext,
    FileCursor,
    StageState,
)
from repro.runtime.stats import NodeStats

_push = heapq.heappush


# ----------------------------------------------------------------------
# Worker tasks: the source streams, the single-input _Worker, then take,
# cache, zip and interleave. Queues and cores receive the continuation
# *callable* to wake — ``q._put(self.k_after_put, item)`` — so no
# ``.resume`` attribute is read per wake. Only the disk still wakes through
# ``task.resume``, so the ``resume`` slot is kept and set before every
# disk call. Continuations are bound once in __init__ (``k_*`` slots) so
# parking a task is an attribute copy, not a bound-method allocation;
# items are ``(count, nbytes)`` tuples; NodeStats updates are the method
# bodies from repro.runtime.stats inlined unchanged.
# ----------------------------------------------------------------------
class _SourceTask:
    """One interleave stream: block-buffered reads, chunked record emit.

    File size is known at open (a filesystem stat), which is how
    Plumber's tracer sees "bytes read until end of file".
    """

    __slots__ = (
        "resume", "sim", "stats", "state", "cursor", "granularity",
        "read_cpu", "ov", "core_speed", "penalty", "remaining",
        "per_record", "unread", "buffered", "n", "nbytes", "t_read",
        "block", "svc", "item", "out_put", "disk_submit", "cores_submit",
        "k_after_read", "k_after_overhead", "k_after_compute",
        "k_after_put",
    )

    def __init__(self, node, cursor, out_q, state, ctx, stats, granularity):
        sim = ctx.sim
        self.sim = sim
        self.stats = stats
        self.state = state
        self.cursor = cursor
        self.granularity = granularity
        self.read_cpu = node.read_cpu_seconds_per_record
        self.ov = ctx.overhead_per_element
        self.core_speed = ctx.machine.core_speed
        self.penalty = ctx.penalty
        self.out_put = out_q._put
        self.disk_submit = sim.disk.submit
        self.cores_submit = sim.cores.submit
        self.remaining = 0
        self.k_after_read = self._after_read
        self.k_after_overhead = self._after_overhead
        self.k_after_compute = self._after_compute
        self.k_after_put = self._after_put
        self.resume = self.start

    def start(self, value=None):
        self._chunk_loop()

    def _chunk_loop(self):
        while self.remaining <= 0:
            f = self.cursor.next_file()
            if f is None:
                self.state.worker_done()
                return
            st = self.stats
            size = f.size_bytes
            if st.files_seen_count < st.files_seen_cap:
                st.files_seen_sizes.append(size)
            st.files_seen_count += 1
            st.files_seen_bytes += size
            self.remaining = f.num_records
            self.per_record = f.bytes_per_record
            self.unread = size
            self.buffered = 0.0
        n = min(self.granularity, self.remaining)
        self.remaining -= n
        nbytes = n * self.per_record
        self.n = n
        self.nbytes = nbytes
        if self.buffered < nbytes and self.unread > 0:
            block = min(max(nbytes, READ_BLOCK_BYTES), self.unread)
            self.block = block
            self.t_read = self.sim.now
            self.resume = self.k_after_read
            self.disk_submit(self, block)
            return
        self._post_read()

    def _after_read(self, value=None):
        st = self.stats
        st.io_seconds += self.sim.now - self.t_read
        block = self.block
        st.bytes_read += block
        self.unread -= block
        self.buffered += block
        self._post_read()

    def _post_read(self):
        self.buffered -= self.nbytes
        o = self.ov * self.n
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_after_overhead, ()))
            return
        self._after_overhead()

    def _after_overhead(self, value=None):
        if self.read_cpu > 0:
            svc = self.read_cpu * self.n / self.core_speed
            self.svc = svc
            self.cores_submit(self.k_after_compute, svc, 1.0)
            return
        n = self.n
        self.stats.elements_consumed += n
        item = (float(n), self.nbytes)
        self.item = item
        self.out_put(self.k_after_put, item)

    def _after_compute(self, value=None):
        self.stats.cpu_core_seconds += self.svc * self.penalty
        n = self.n
        self.stats.elements_consumed += n
        item = (float(n), self.nbytes)
        self.item = item
        self.out_put(self.k_after_put, item)

    def _after_put(self, value=None):
        item = self.item
        st = self.stats
        now = self.sim.now
        st.elements_produced += item[0]
        st.bytes_produced += item[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        self._chunk_loop()


class _Worker:
    """One worker of a single-input stage: map, filter, batch, shuffle
    (and shuffle_and_repeat), repeat or prefetch.

    Every kind runs the same loop — get, pay overhead, pay CPU, put —
    and differs only in what is bound in ``__init__``: the CPU seconds
    and core width per element, the ``emit`` step that turns the input
    chunk into the output chunk (forward, map, filter or batch), and,
    for batch, an ``_on_item`` that charges overhead per *output*
    element (one Next per batch). A kind without CPU cost wakes
    ``emit`` straight from the overhead timer. ``emit`` stores the
    output chunk in ``item``, so ``_after_put`` reads one slot for every
    kind. It is one class rather than a base with subclasses: CPython
    specializes attribute and method lookups per call site for a single
    type, and methods shared across several types lose that.
    """

    __slots__ = (
        "resume", "sim", "stats", "state", "in_get", "out_put",
        "cores_submit", "cpu_seconds", "width", "ov", "core_speed",
        "penalty", "ratio", "fixed_out", "size_ratio", "keep", "batch",
        "item", "out_count", "svc", "emit", "k_on_item",
        "k_after_overhead", "k_after_compute", "k_after_put",
    )

    def __init__(self, node, in_q, out_q, state, ctx, stats):
        sim = ctx.sim
        self.sim = sim
        self.stats = stats
        self.state = state
        self.in_get = in_q._get
        self.out_put = out_q._put
        self.cores_submit = sim.cores.submit
        self.ov = ctx.overhead_per_element
        self.core_speed = ctx.machine.core_speed
        self.penalty = ctx.penalty
        self.width = 1.0
        self.k_on_item = self._on_item
        self.k_after_compute = self._after_compute
        self.k_after_put = self._after_put
        if isinstance(node, MapNode):
            udf = node.udf
            cpu = udf.cost.cpu_seconds
            self.width = udf.cost.internal_parallelism
            self.ratio = udf.examples_ratio
            out_b = udf.output_bytes
            self.fixed_out = float(out_b) if out_b is not None else None
            self.size_ratio = udf.size_ratio
            self.emit = self._map
        elif isinstance(node, FilterNode):
            cpu = node.udf.cost.cpu_seconds
            self.keep = node.keep_fraction
            self.emit = self._filter
        elif isinstance(node, BatchNode):
            cpu = node.cpu_seconds_per_example
            self.batch = node.batch_size
            self.emit = self._batch
            self.k_on_item = self._on_batch_item
        else:
            # Shuffle: a pass-through with a per-element CPU cost (order
            # is irrelevant to the simulation); repeat and prefetch pay
            # only overhead.
            cpu = (node.cpu_seconds_per_element
                   if isinstance(node, ShuffleNode) else 0.0)
            self.emit = self._forward
            self.k_after_compute = self._after_compute_forward
        self.cpu_seconds = cpu
        self.k_after_overhead = self._after_overhead if cpu > 0 else self.emit
        self.resume = self.start

    def start(self, value=None):
        self.in_get(self.k_on_item)

    def _on_item(self, item):
        if item is EOS:
            self.state.worker_done()
            return
        count = item[0]
        self.stats.elements_consumed += count
        self.item = item
        o = self.ov * count
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_after_overhead, ()))
            return
        self.k_after_overhead()

    def _on_batch_item(self, item):
        if item is EOS:
            self.state.worker_done()
            return
        count = item[0]
        self.stats.elements_consumed += count
        self.item = item
        out_count = count / self.batch
        self.out_count = out_count
        o = self.ov * out_count
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_after_overhead, ()))
            return
        self.k_after_overhead()

    def _after_overhead(self, value=None):
        svc = self.cpu_seconds * self.item[0] / self.core_speed
        self.svc = svc
        self.cores_submit(self.k_after_compute, svc, self.width)

    def _after_compute(self, value=None):
        self.stats.cpu_core_seconds += self.svc * self.width * self.penalty
        self.emit()

    def _after_compute_forward(self, value=None):
        # _after_compute with the forward step unrolled: one call fewer
        # per shuffled chunk
        self.stats.cpu_core_seconds += self.svc * self.width * self.penalty
        self.out_put(self.k_after_put, self.item)

    # -- emit steps: the input chunk in ``item`` becomes the output ------
    def _forward(self, value=None):
        self.out_put(self.k_after_put, self.item)

    def _map(self, value=None):
        item = self.item
        count = item[0]
        out_count = count * self.ratio
        # udf.output_size(item.bytes_per_element), properties unrolled
        bpe = item[1] / count if count > 0 else 0.0
        fixed = self.fixed_out
        ob = fixed if fixed is not None else bpe * self.size_ratio
        if out_count > 0:
            out = (out_count, ob * out_count)
            self.item = out
            self.out_put(self.k_after_put, out)
            return
        self.in_get(self.k_on_item)

    def _filter(self, value=None):
        item = self.item
        keep = self.keep
        out_count = item[0] * keep
        if out_count > 0:
            out = (out_count, item[1] * keep)
            self.item = out
            self.out_put(self.k_after_put, out)
            return
        self.in_get(self.k_on_item)

    def _batch(self, value=None):
        out = (self.out_count, self.item[1])
        self.item = out
        self.out_put(self.k_after_put, out)

    def _after_put(self, value=None):
        item = self.item
        st = self.stats
        now = self.sim.now
        st.elements_produced += item[0]
        st.bytes_produced += item[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        self.in_get(self.k_on_item)


class _TakeTask:
    """Forward until ``count`` elements have been emitted, then end the
    stream early (splitting the final chunk if needed)."""

    __slots__ = (
        "resume", "sim", "stats", "state", "in_get", "out_put",
        "remaining", "ov", "item", "emit", "out", "k_on_item",
        "k_after_overhead", "k_after_put",
    )

    def __init__(self, node, in_q, out_q, state, ctx, stats):
        self.sim = ctx.sim
        self.stats = stats
        self.state = state
        self.in_get = in_q._get
        self.out_put = out_q._put
        self.remaining = float(node.count)
        self.ov = ctx.overhead_per_element
        self.k_on_item = self._on_item
        self.k_after_overhead = self._after_overhead
        self.k_after_put = self._after_put
        self.resume = self.start

    def start(self, value=None):
        self._next()

    def _next(self):
        if self.remaining > 0:
            self.in_get(self.k_on_item)
            return
        self.state.worker_done()

    def _on_item(self, item):
        if item is EOS:
            self.state.worker_done()
            return
        count = item[0]
        self.stats.elements_consumed += count
        emit = min(count, self.remaining)
        self.remaining -= emit
        self.item = item
        self.emit = emit
        o = self.ov * emit
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_after_overhead, ()))
            return
        self._after_overhead()

    def _after_overhead(self, value=None):
        item = self.item
        emit = self.emit
        frac = emit / item[0] if item[0] > 0 else 0.0
        out = (emit, item[1] * frac)
        self.out = out
        self.out_put(self.k_after_put, out)

    def _after_put(self, value=None):
        out = self.out
        st = self.stats
        now = self.sim.now
        st.elements_produced += out[0]
        st.bytes_produced += out[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        self._next()


class _CacheTask:
    """Materialize the first pass, then serve ``serve_epochs`` more
    passes from memory (``inf`` under an unbounded repeat).

    Raises :class:`SimulationError` if materialization exceeds the host
    memory limit — the failure Plumber's planner exists to avoid.

    The serve phase is where the chunk-replay optimization lives: at
    steady state every pass replays the same chunk pattern, so the
    per-chunk deltas (framework overhead, scaled service time, the CPU
    counter increment) are computed in closed form once per run of
    equal-sized chunks and replayed from cached floats. Multiplication
    of identical operands is deterministic, so the replayed pattern is
    bit-identical to recomputing it chunk by chunk.
    """

    __slots__ = (
        "resume", "sim", "stats", "state", "in_get", "out_put",
        "cores_submit", "cache_bytes_map", "memory_limit", "name",
        "read_cpu", "ov", "core_speed", "penalty", "serve_epochs",
        "stored", "stored_bytes", "item", "epoch", "idx",
        "_rl_count", "_rl_o", "_rl_svc", "_rl_cpu",
        "k_on_populate_item", "k_populate_forward", "k_after_populate_put",
        "k_serve_after_overhead", "k_serve_after_compute",
        "k_serve_after_put",
    )

    def __init__(self, node, in_q, out_q, state, ctx, stats, serve_epochs):
        sim = ctx.sim
        self.sim = sim
        self.stats = stats
        self.state = state
        self.in_get = in_q._get
        self.out_put = out_q._put
        self.cores_submit = sim.cores.submit
        self.cache_bytes_map = ctx.cache_bytes
        self.memory_limit = ctx.memory_limit_bytes
        self.name = node.name
        self.read_cpu = node.read_cpu_seconds_per_element
        self.ov = ctx.overhead_per_element
        self.core_speed = ctx.machine.core_speed
        self.penalty = ctx.penalty
        self.serve_epochs = serve_epochs
        self.stored: list = []
        self.stored_bytes = 0.0
        self._rl_count = -1.0  # sentinel: no chunk size cached yet
        self._rl_o = 0.0
        self._rl_svc = 0.0
        self._rl_cpu = 0.0
        self.k_on_populate_item = self._on_populate_item
        self.k_populate_forward = self._populate_forward
        self.k_after_populate_put = self._after_populate_put
        self.k_serve_after_overhead = self._serve_after_overhead
        self.k_serve_after_compute = self._serve_after_compute
        self.k_serve_after_put = self._serve_after_put
        self.resume = self.start

    # -- populate pass: forward while recording -------------------------
    def start(self, value=None):
        self.in_get(self.k_on_populate_item)

    def _on_populate_item(self, item):
        if item is EOS:
            self._begin_serve()
            return
        count = item[0]
        self.stats.elements_consumed += count
        self.stored.append(item)
        self.stored_bytes += item[1]
        self.cache_bytes_map[self.name] = self.stored_bytes
        if self.stored_bytes > self.memory_limit:
            # The stage still closes its output before the error
            # propagates.
            self.state.worker_done()
            raise SimulationError(
                f"cache {self.name!r} exceeded memory limit: "
                f"{self.stored_bytes / 1e9:.1f} GB > "
                f"{self.memory_limit / 1e9:.1f} GB"
            )
        self.item = item
        o = self.ov * count
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_populate_forward, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_populate_forward, ()))
            return
        self._populate_forward()

    def _populate_forward(self, value=None):
        self.out_put(self.k_after_populate_put, self.item)

    def _after_populate_put(self, value=None):
        item = self.item
        st = self.stats
        now = self.sim.now
        st.elements_produced += item[0]
        st.bytes_produced += item[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        self.in_get(self.k_on_populate_item)

    # -- serve passes: replay from memory at memory-copy cost -----------
    def _begin_serve(self):
        self.epoch = 0.0
        self._next_pass()

    def _next_pass(self):
        if self.epoch < self.serve_epochs and self.stored:
            self.epoch += 1.0
            self.idx = 0
            self._serve_chunk()
            return
        self.state.worker_done()

    def _serve_chunk(self):
        item = self.stored[self.idx]
        count = item[0]
        if count != self._rl_count:
            # Closed-form per-chunk deltas for this run of chunk sizes.
            self._rl_count = count
            self._rl_o = self.ov * count
            if self.read_cpu > 0:
                svc = self.read_cpu * count / self.core_speed
                self._rl_svc = svc
                self._rl_cpu = svc * self.penalty
        self.item = item
        o = self._rl_o
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_serve_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_serve_after_overhead, ()))
            return
        self._serve_after_overhead()

    def _serve_after_overhead(self, value=None):
        if self.read_cpu > 0:
            self.cores_submit(self.k_serve_after_compute, self._rl_svc, 1.0)
            return
        self.out_put(self.k_serve_after_put, self.item)

    def _serve_after_compute(self, value=None):
        self.stats.cpu_core_seconds += self._rl_cpu
        self.out_put(self.k_serve_after_put, self.item)

    def _serve_after_put(self, value=None):
        item = self.item
        st = self.stats
        now = self.sim.now
        st.elements_produced += item[0]
        st.bytes_produced += item[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        idx = self.idx + 1
        self.idx = idx
        if idx < len(self.stored):
            self._serve_chunk()
            return
        self._next_pass()


class _ZipTask:
    """Lockstep merge: buffer each input, emit min-across-branches.

    Chunks from different branches rarely align, so per-input carry
    buffers track leftover counts/bytes; each emitted chunk pairs
    ``emit`` elements from *every* branch (output bytes = sum of the
    branches' proportional shares). The stream ends the moment any
    input is exhausted — leftover elements on longer branches are
    dropped, exactly tf.data's zip truncation.
    """

    __slots__ = (
        "resume", "sim", "stats", "state", "in_gets", "out_put",
        "cores_submit", "k", "cpu_seconds", "ov", "core_speed",
        "penalty", "buf_count", "buf_bytes", "i", "emit", "out_bytes",
        "svc", "out", "k_on_refill", "k_after_overhead",
        "k_after_compute", "k_after_put",
    )

    def __init__(self, node, in_qs, out_q, state, ctx, stats):
        sim = ctx.sim
        self.sim = sim
        self.stats = stats
        self.state = state
        self.in_gets = [q._get for q in in_qs]
        self.out_put = out_q._put
        self.cores_submit = sim.cores.submit
        self.k = len(in_qs)
        self.cpu_seconds = node.cpu_seconds_per_element
        self.ov = ctx.overhead_per_element
        self.core_speed = ctx.machine.core_speed
        self.penalty = ctx.penalty
        self.buf_count = [0.0] * self.k
        self.buf_bytes = [0.0] * self.k
        self.i = 0
        self.k_on_refill = self._on_refill
        self.k_after_overhead = self._after_overhead
        self.k_after_compute = self._after_compute
        self.k_after_put = self._after_put
        self.resume = self.start

    def start(self, value=None):
        self.i = 0
        self._refill_loop()

    def _refill_loop(self):
        # Refill every drained branch; first EOS ends the stream.
        i = self.i
        buf_count = self.buf_count
        while i < self.k:
            if buf_count[i] <= 0:
                self.i = i
                self.in_gets[i](self.k_on_refill)
                return
            i += 1
        self._emit_phase()

    def _on_refill(self, item):
        if item is EOS:
            self.state.worker_done()
            return
        count = item[0]
        self.stats.elements_consumed += count
        i = self.i
        self.buf_count[i] += count
        self.buf_bytes[i] += item[1]
        self._refill_loop()

    def _emit_phase(self):
        buf_count = self.buf_count
        buf_bytes = self.buf_bytes
        emit = min(buf_count)
        out_bytes = 0.0
        for i in range(self.k):
            share = emit / buf_count[i]
            out_bytes += buf_bytes[i] * share
            buf_bytes[i] -= buf_bytes[i] * share
            buf_count[i] -= emit
        self.emit = emit
        self.out_bytes = out_bytes
        o = self.ov * emit
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_after_overhead, ()))
            return
        self._after_overhead()

    def _after_overhead(self, value=None):
        if self.cpu_seconds > 0:
            svc = self.cpu_seconds * self.emit / self.core_speed
            self.svc = svc
            self.cores_submit(self.k_after_compute, svc, 1.0)
            return
        self._emit()

    def _after_compute(self, value=None):
        self.stats.cpu_core_seconds += self.svc * self.penalty
        self._emit()

    def _emit(self):
        out = (self.emit, self.out_bytes)
        self.out = out
        self.out_put(self.k_after_put, out)

    def _after_put(self, value=None):
        out = self.out
        st = self.stats
        now = self.sim.now
        st.elements_produced += out[0]
        st.bytes_produced += out[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        self.i = 0
        self._refill_loop()


class _InterleaveTask:
    """Weighted round-robin mix: forward whole chunks, branch picked by
    smooth weighted scheduling (least served-per-weight first), so the
    emitted mix tracks the declared weights at chunk granularity. The
    stream ends when the first branch is exhausted, keeping the mix
    exact for the whole run."""

    __slots__ = (
        "resume", "sim", "stats", "state", "in_gets", "out_put",
        "cores_submit", "k", "weights", "cpu_seconds", "ov",
        "core_speed", "penalty", "served", "best", "item", "svc",
        "k_on_item", "k_after_overhead", "k_after_compute",
        "k_after_put",
    )

    def __init__(self, node, in_qs, out_q, state, ctx, stats):
        sim = ctx.sim
        self.sim = sim
        self.stats = stats
        self.state = state
        self.in_gets = [q._get for q in in_qs]
        self.out_put = out_q._put
        self.cores_submit = sim.cores.submit
        self.k = len(in_qs)
        self.weights = node.weights
        self.cpu_seconds = node.cpu_seconds_per_element
        self.ov = ctx.overhead_per_element
        self.core_speed = ctx.machine.core_speed
        self.penalty = ctx.penalty
        self.served = [0.0] * self.k
        self.k_on_item = self._on_item
        self.k_after_overhead = self._after_overhead
        self.k_after_compute = self._after_compute
        self.k_after_put = self._after_put
        self.resume = self.start

    def start(self, value=None):
        self._pick()

    def _pick(self):
        served = self.served
        weights = self.weights
        best = min(range(self.k), key=lambda i: served[i] / weights[i])
        self.best = best
        self.in_gets[best](self.k_on_item)

    def _on_item(self, item):
        if item is EOS:
            self.state.worker_done()
            return
        count = item[0]
        self.stats.elements_consumed += count
        self.served[self.best] += count
        self.item = item
        o = self.ov * count
        if o > 0:
            self.stats.overhead_seconds += o
            sim = self.sim
            t = sim.now + o
            if t <= sim.now:
                sim._collapsed(self.k_after_overhead, ())
            else:
                sim._seq += 1
                _push(sim._heap, (t, sim._seq, self.k_after_overhead, ()))
            return
        self._after_overhead()

    def _after_overhead(self, value=None):
        if self.cpu_seconds > 0:
            svc = self.cpu_seconds * self.item[0] / self.core_speed
            self.svc = svc
            self.cores_submit(self.k_after_compute, svc, 1.0)
            return
        self.out_put(self.k_after_put, self.item)

    def _after_compute(self, value=None):
        self.stats.cpu_core_seconds += self.svc * self.penalty
        self.out_put(self.k_after_put, self.item)

    def _after_put(self, value=None):
        item = self.item
        st = self.stats
        now = self.sim.now
        st.elements_produced += item[0]
        st.bytes_produced += item[1]
        if st.first_output_time is None:
            st.first_output_time = now
        st.last_output_time = now
        self._pick()


class Consumer:
    """Root-queue puller that records minibatch counts, Next latency,
    and the instant the stream drained (``drained_at``)."""

    __slots__ = (
        "resume", "sim", "root_get", "step_per_element", "elements",
        "wait_seconds", "drained_at", "t0", "k_on_item", "k_next",
    )

    def __init__(self, sim, root_q, step_per_element: float):
        self.sim = sim
        self.root_get = root_q._get
        self.step_per_element = step_per_element
        self.elements = 0.0
        self.wait_seconds = 0.0
        self.drained_at = None
        self.k_on_item = self._on_item
        self.k_next = self._next
        self.resume = self.start

    def start(self, value=None):
        self._next()

    def _next(self, value=None):
        self.t0 = self.sim.now
        self.root_get(self.k_on_item)

    def _on_item(self, item):
        if item is EOS:
            self.drained_at = self.sim.now
            return
        sim = self.sim
        now = sim.now
        self.wait_seconds += now - self.t0
        count = item[0]
        self.elements += count
        step = self.step_per_element
        if step > 0:
            d = step * count
            # mirror schedule(): a zero delay joins the ready FIFO
            if d == 0.0:
                sim._ready.append((self.k_next, None))
            else:
                t = now + d
                if t <= now:
                    sim._collapsed(self.k_next, ())
                else:
                    sim._seq += 1
                    _push(sim._heap, (t, sim._seq, self.k_next, ()))
            return
        self.t0 = now
        self.root_get(self.k_on_item)

    def snapshot(self) -> tuple:
        return (self.elements, self.wait_seconds)


def build_stage(
    node: DatasetNode,
    in_qs: Optional[List[SimQueue]],
    out_q: SimQueue,
    ctx: ExecContext,
    stats: NodeStats,
    *,
    cursor: Optional[FileCursor] = None,
    granularity: int = 1,
    serve_epochs: float = 0.0,
) -> list:
    """Instantiate the worker tasks for ``node``; the executor schedules
    each task's ``start``.

    ``in_qs`` carries one input queue per graph edge, in ``node.inputs``
    order (``None`` for sources); single-input workers read from
    ``in_qs[0]``.
    """
    if isinstance(node, InterleaveSourceNode):
        workers = node.effective_parallelism
        state = StageState(out_q, workers)
        assert cursor is not None
        return [
            _SourceTask(node, cursor, out_q, state, ctx, stats, granularity)
            for _ in range(workers)
        ]
    assert in_qs is not None
    if isinstance(node, ZipNode):
        state = StageState(out_q, 1)
        return [_ZipTask(node, list(in_qs), out_q, state, ctx, stats)]
    if isinstance(node, InterleaveDatasetsNode):
        state = StageState(out_q, 1)
        return [_InterleaveTask(node, list(in_qs), out_q, state, ctx, stats)]
    in_q = in_qs[0]
    if isinstance(node, TakeNode):
        state = StageState(out_q, 1)
        return [_TakeTask(node, in_q, out_q, state, ctx, stats)]
    if isinstance(node, CacheNode):
        state = StageState(out_q, 1)
        return [
            _CacheTask(node, in_q, out_q, state, ctx, stats, serve_epochs)
        ]
    if isinstance(node, (MapNode, FilterNode, BatchNode, ShuffleNode,
                         RepeatNode, PrefetchNode)):
        # map and batch run ``parallelism`` workers, the rest one
        workers = (node.effective_parallelism
                   if isinstance(node, (MapNode, BatchNode)) else 1)
        state = StageState(out_q, workers)
        return [
            _Worker(node, in_q, out_q, state, ctx, stats)
            for _ in range(workers)
        ]
    raise TypeError(f"no runtime implementation for node kind {node.kind!r}")
