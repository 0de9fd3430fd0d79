"""Pull-based execution of a pipeline over real Python objects.

The element source is a ``record_fn(file_index, record_index) -> object``
callable (defaults to returning ``(file_index, record_index)`` tuples),
iterated per the catalog's layout. Each node becomes a Python iterator
following the Open/Next/Close model of §2.1; UDFs must carry a real
``fn`` to participate.

This executor is intentionally sequential and deterministic; it is the
engine behind the quickstart example.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

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


class InProcessError(RuntimeError):
    """Raised when a pipeline cannot execute in-process (e.g. a UDF has
    no Python callable attached)."""


def _default_record_fn(file_index: int, record_index: int) -> tuple:
    return (file_index, record_index)


def _node_iter(
    node: DatasetNode,
    record_fn: Callable[[int, int], Any],
    caches: Dict[str, List[Any]],
) -> Iterator[Any]:
    """Instantiate the iterator tree for ``node`` (Open), recursively.

    ``caches`` is the run's state: each cache node's stored pass, by
    node name, once that pass has run to completion.
    """
    if isinstance(node, InterleaveSourceNode):
        yield from _source_iter(node, record_fn)
        return

    child = node.inputs[0]

    if isinstance(node, MapNode):
        udf = node.udf
        if udf.fn is None:
            raise InProcessError(
                f"map node {node.name!r} UDF {udf.name!r} has no Python fn"
            )
        for item in _node_iter(child, record_fn, caches):
            yield udf.fn(item)
        return

    if isinstance(node, FilterNode):
        udf = node.udf
        if udf.fn is None:
            raise InProcessError(
                f"filter node {node.name!r} UDF {udf.name!r} has no Python fn"
            )
        for item in _node_iter(child, record_fn, caches):
            if udf.fn(item):
                yield item
        return

    if isinstance(node, BatchNode):
        batch: List[Any] = []
        for item in _node_iter(child, record_fn, caches):
            batch.append(item)
            if len(batch) == node.batch_size:
                yield _stack(batch)
                batch = []
        if batch and not node.drop_remainder:
            yield _stack(batch)
        return

    if isinstance(node, (ShuffleNode, ShuffleAndRepeatNode)):
        repeat_forever = isinstance(node, ShuffleAndRepeatNode)
        rng = np.random.default_rng(node.seed)
        while True:
            buffer: List[Any] = []
            for item in _node_iter(child, record_fn, caches):
                if len(buffer) < node.buffer_size:
                    buffer.append(item)
                    continue
                idx = int(rng.integers(len(buffer)))
                out = buffer[idx]
                buffer[idx] = item
                yield out
            while buffer:
                idx = int(rng.integers(len(buffer)))
                yield buffer.pop(idx)
            if not repeat_forever:
                return

    if isinstance(node, RepeatNode):
        epoch = 0
        while node.count is None or epoch < node.count:
            emitted = False
            for item in _node_iter(child, record_fn, caches):
                emitted = True
                yield item
            if not emitted:
                return  # empty child: avoid spinning forever
            epoch += 1
        return

    if isinstance(node, TakeNode):
        emitted = 0
        for item in _node_iter(child, record_fn, caches):
            if emitted >= node.count:
                return
            emitted += 1
            yield item
        return

    if isinstance(node, PrefetchNode):
        # In-process execution is single-threaded; prefetch is a no-op
        # pass-through preserving semantics.
        yield from _node_iter(child, record_fn, caches)
        return

    if isinstance(node, CacheNode):
        # The first open runs the subtree and stores its pass; once that
        # pass is complete, every later open (a repeat above re-opening
        # this node) replays it without running the subtree again.
        if node.name in caches:
            yield from caches[node.name]
            return
        stored: List[Any] = []
        for item in _node_iter(child, record_fn, caches):
            stored.append(item)
            yield item
        caches[node.name] = stored
        return

    raise InProcessError(f"no in-process implementation for {node.kind!r}")


def _source_iter(
    node: InterleaveSourceNode,
    record_fn: Callable[[int, int], Any],
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
        yield item
        idx += 1


def _stack(batch: List[Any]) -> Any:
    if batch and isinstance(batch[0], np.ndarray):
        return np.stack(batch)
    return list(batch)


def materialize(
    pipeline: Pipeline,
    record_fn: Callable[[int, int], Any] = _default_record_fn,
    limit: Optional[int] = None,
) -> List[Any]:
    """Collect up to ``limit`` root elements into a list."""
    out: List[Any] = []
    for item in _node_iter(pipeline.root, record_fn, {}):
        out.append(item)
        if limit is not None and len(out) >= limit:
            break
    return out
