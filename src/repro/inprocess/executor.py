"""Pull-based execution of a pipeline over real Python objects.

The element source is a ``record_fn(file_index, record_index) -> object``
callable (defaults to returning ``(file_index, record_index)`` tuples),
iterated per the catalog's layout. Each node becomes a Python iterator
following the Open/Next/Close model of §2.1; UDFs must carry a real
``fn`` to participate.

This executor is intentionally sequential and deterministic — it is the
semantics oracle the simulator's ratio arithmetic is tested against, and
the engine behind the quickstart example.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.core.trace import HostInfo, PipelineTrace
from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    DatasetNode,
    FilterNode,
    InterleaveSourceNode,
    MapNode,
    Pipeline,
    PrefetchNode,
    RepeatNode,
    ShuffleAndRepeatNode,
    ShuffleNode,
    TakeNode,
)
from repro.host.machine import Machine
from repro.runtime.stats import NodeStats


class InProcessError(RuntimeError):
    """Raised when a pipeline cannot execute in-process (e.g. a UDF has
    no Python callable attached)."""


def _default_record_fn(file_index: int, record_index: int) -> tuple:
    return (file_index, record_index)


class _Tracer:
    """Wall-clock per-node counters with the simulator's stats shape."""

    def __init__(self) -> None:
        self.stats: Dict[str, NodeStats] = {}
        self.start = time.perf_counter()

    def for_node(self, node: DatasetNode) -> NodeStats:
        if node.name not in self.stats:
            self.stats[node.name] = NodeStats(
                name=node.name,
                kind=node.kind,
                parallelism=node.effective_parallelism,
                sequential=node.sequential,
            )
        return self.stats[node.name]

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _approx_nbytes(value: Any) -> float:
    """Best-effort byte size of an element for the tracer."""
    if isinstance(value, np.ndarray):
        return float(value.nbytes)
    if isinstance(value, (bytes, bytearray, str)):
        return float(len(value))
    if isinstance(value, (list, tuple)):
        return float(sum(_approx_nbytes(v) for v in value))
    return 8.0


def _timed(tracer: Optional[_Tracer], node: DatasetNode, fn: Callable, *args):
    """Call ``fn`` recording CPU time against ``node``."""
    if tracer is None:
        return fn(*args)
    t0 = time.process_time()
    out = fn(*args)
    stats = tracer.for_node(node)
    stats.on_cpu(time.process_time() - t0)
    return out


def _node_iter(
    node: DatasetNode,
    record_fn: Callable[[int, int], Any],
    tracer: Optional[_Tracer],
) -> Iterator[Any]:
    """Instantiate the iterator tree for ``node`` (Open), recursively."""
    if isinstance(node, InterleaveSourceNode):
        yield from _source_iter(node, record_fn, tracer)
        return

    child = node.inputs[0]

    if isinstance(node, MapNode):
        udf = node.udf
        if udf.fn is None:
            raise InProcessError(
                f"map node {node.name!r} UDF {udf.name!r} has no Python fn"
            )
        for item in _node_iter(child, record_fn, tracer):
            out = _timed(tracer, node, udf.fn, item)
            _record(tracer, node, out)
            yield out
        return

    if isinstance(node, FilterNode):
        udf = node.udf
        if udf.fn is None:
            raise InProcessError(
                f"filter node {node.name!r} UDF {udf.name!r} has no Python fn"
            )
        for item in _node_iter(child, record_fn, tracer):
            if _timed(tracer, node, udf.fn, item):
                _record(tracer, node, item)
                yield item
        return

    if isinstance(node, BatchNode):
        batch: List[Any] = []
        for item in _node_iter(child, record_fn, tracer):
            batch.append(item)
            if len(batch) == node.batch_size:
                out = _stack(batch)
                _record(tracer, node, out)
                yield out
                batch = []
        if batch and not node.drop_remainder:
            out = _stack(batch)
            _record(tracer, node, out)
            yield out
        return

    if isinstance(node, (ShuffleNode, ShuffleAndRepeatNode)):
        repeat_forever = isinstance(node, ShuffleAndRepeatNode)
        rng = np.random.default_rng(node.seed)
        while True:
            buffer: List[Any] = []
            for item in _node_iter(child, record_fn, tracer):
                if len(buffer) < node.buffer_size:
                    buffer.append(item)
                    continue
                idx = int(rng.integers(len(buffer)))
                out = buffer[idx]
                buffer[idx] = item
                _record(tracer, node, out)
                yield out
            while buffer:
                idx = int(rng.integers(len(buffer)))
                out = buffer.pop(idx)
                _record(tracer, node, out)
                yield out
            if not repeat_forever:
                return

    if isinstance(node, RepeatNode):
        epoch = 0
        while node.count is None or epoch < node.count:
            emitted = False
            for item in _node_iter(child, record_fn, tracer):
                emitted = True
                _record(tracer, node, item)
                yield item
            if not emitted:
                return  # empty child: avoid spinning forever
            epoch += 1
        return

    if isinstance(node, TakeNode):
        emitted = 0
        for item in _node_iter(child, record_fn, tracer):
            if emitted >= node.count:
                return
            emitted += 1
            _record(tracer, node, item)
            yield item
        return

    if isinstance(node, PrefetchNode):
        # In-process execution is single-threaded; prefetch is a no-op
        # pass-through preserving semantics.
        for item in _node_iter(child, record_fn, tracer):
            _record(tracer, node, item)
            yield item
        return

    if isinstance(node, CacheNode):
        stored: List[Any] = []
        for item in _node_iter(child, record_fn, tracer):
            stored.append(item)
            _record(tracer, node, item)
            yield item
        while True:
            # Subsequent pulls replay the materialized pass; the iterator
            # is infinite only if a repeat above keeps pulling.
            return

    raise InProcessError(f"no in-process implementation for {node.kind!r}")


def _source_iter(
    node: InterleaveSourceNode,
    record_fn: Callable[[int, int], Any],
    tracer: Optional[_Tracer],
) -> Iterator[Any]:
    """Round-robin interleave over ``cycle_length`` file readers."""
    catalog = node.catalog
    cycle = max(1, node.effective_parallelism)
    files = list(range(catalog.num_files))
    readers: List[Iterator[Any]] = []
    next_file = 0

    def file_reader(fi: int) -> Iterator[Any]:
        n = catalog.files[fi].num_records
        for ri in range(n):
            yield record_fn(fi, ri)
        if tracer is not None:
            tracer.for_node(node).on_file_done(catalog.files[fi].size_bytes)

    while next_file < len(files) and len(readers) < cycle:
        readers.append(file_reader(files[next_file]))
        next_file += 1
    idx = 0
    while readers:
        reader = readers[idx % len(readers)]
        try:
            item = next(reader)
        except StopIteration:
            readers.remove(reader)
            if next_file < len(files):
                readers.append(file_reader(files[next_file]))
                next_file += 1
            continue
        _record(tracer, node, item)
        yield item
        idx += 1


def _record(tracer: Optional[_Tracer], node: DatasetNode, item: Any) -> None:
    if tracer is None:
        return
    tracer.for_node(node).on_produce(1.0, _approx_nbytes(item), tracer.elapsed())


def _stack(batch: List[Any]) -> Any:
    if batch and isinstance(batch[0], np.ndarray):
        return np.stack(batch)
    return list(batch)


def iterate(
    pipeline: Pipeline,
    record_fn: Callable[[int, int], Any] = _default_record_fn,
    tracer: Optional[_Tracer] = None,
) -> Iterator[Any]:
    """Iterate the pipeline's root elements (possibly infinite)."""
    return _node_iter(pipeline.root, record_fn, tracer)


def materialize(
    pipeline: Pipeline,
    record_fn: Callable[[int, int], Any] = _default_record_fn,
    limit: Optional[int] = None,
) -> List[Any]:
    """Collect up to ``limit`` root elements into a list."""
    out: List[Any] = []
    for item in iterate(pipeline, record_fn):
        out.append(item)
        if limit is not None and len(out) >= limit:
            break
    return out


def trace_real_run(
    pipeline: Pipeline,
    machine: Machine,
    record_fn: Callable[[int, int], Any] = _default_record_fn,
    limit: int = 1000,
) -> PipelineTrace:
    """Execute for real with wall-clock tracing; return a Plumber trace.

    The returned trace has the same shape as a simulated one, so
    :func:`repro.core.build_model` and the planners work on real runs.
    """
    tracer = _Tracer()
    count = 0.0
    for _ in iterate(pipeline, record_fn, tracer):
        count += 1
        if count >= limit:
            break
    elapsed = max(tracer.elapsed(), 1e-9)
    # Nodes that never produced still need stats entries.
    for node in pipeline.topological_order():
        tracer.for_node(node)
    return PipelineTrace(
        pipeline=pipeline,
        stats=tracer.stats,
        host=HostInfo.from_machine(machine),
        measured_seconds=elapsed,
        root_throughput=count / elapsed,
        backend="inprocess",
    )
