"""Run-scoped pieces the stage workers share.

Elements flow between stages as chunks of a float ``count`` (elements,
in the producing node's own units — minibatches after a batch node) and
total ``nbytes``. Chunking (the ``granularity`` knob) trades simulation
event count for timing resolution without changing any rate: all costs,
overheads, and counters scale with ``count``. The workers themselves
live in :mod:`repro.runtime.vector`; this module holds the per-run
constants (:class:`ExecContext`), the per-stage close bookkeeping
(:class:`StageState`), the shared source file iterator
(:class:`FileCursor`), and the chunk-size arithmetic the executor and
the analytic backend both use.
"""

from __future__ import annotations

from repro.graph.datasets import (
    InterleaveDatasetsNode,
    InterleaveSourceNode,
    ZipNode,
)
from repro.runtime.engine import SimQueue


class ExecContext:
    """Per-run constants shared by all workers."""

    def __init__(
        self,
        sim,
        machine,
        penalty: float,
        overhead_per_element: float,
        memory_limit_bytes: float,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.penalty = penalty
        self.overhead_per_element = overhead_per_element
        self.memory_limit_bytes = memory_limit_bytes
        self.cache_bytes: dict = {}


class StageState:
    """Shared bookkeeping for one stage's worker pool: closes the output
    queue when the last worker finishes."""

    def __init__(self, out_q: SimQueue, workers: int) -> None:
        self.out_q = out_q
        self.live = workers

    def worker_done(self) -> None:
        self.live -= 1
        if self.live == 0:
            self.out_q.close()


class FileCursor:
    """Shared file iterator for interleave source workers.

    Hands out files round-robin across ``epochs`` passes (``inf`` for an
    unbounded repeat).
    """

    def __init__(self, files, epochs: float) -> None:
        self.files = list(files)
        self.epochs = epochs
        self._index = 0
        self._epoch = 0

    def next_file(self):
        """The next file to read, or ``None`` when all epochs are done."""
        if not self.files:
            return None
        if self._index >= len(self.files):
            self._index = 0
            self._epoch += 1
        if self._epoch >= self.epochs:
            return None
        f = self.files[self._index]
        self._index += 1
        return f


#: buffered readers fetch at least this much per storage request, so
#: per-request latency is amortized for tiny-record (text) datasets
READ_BLOCK_BYTES = 1e6


def expected_elements_per_chunk(pipeline, node_name: str, granularity: int) -> float:
    """Expected chunk ``count`` at a node's output, from structural
    ratios — used to size prefetch buffers given in elements."""
    order = pipeline.topological_order()
    ratios = {}
    for node in order:
        if isinstance(node, InterleaveSourceNode):
            ratios[node.name] = float(granularity)
        elif isinstance(node, ZipNode):
            # Emitted chunks are min-across-branches of the buffers.
            ratios[node.name] = min(ratios[c.name] for c in node.inputs)
        elif isinstance(node, InterleaveDatasetsNode):
            # Whole chunks are forwarded; expect the weighted mean size.
            ratios[node.name] = sum(
                w * ratios[c.name]
                for w, c in zip(node.weights, node.inputs)
            )
        else:
            child = ratios[node.inputs[0].name]
            ratios[node.name] = child * node.elements_ratio()
        if node.name == node_name:
            return max(ratios[node.name], 1e-12)
    raise KeyError(f"node {node_name!r} not in pipeline")
