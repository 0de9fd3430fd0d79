"""Resource-accounted rates (§4.4 and Appendix A).

From one :class:`~repro.core.trace.PipelineTrace` this module derives:

1. **Work completion rates** — observed visit ratios ``V_i = C_i / C_0``
   and resource-accounted rates ``R_i = (C_i / cpu_i) / V_i``
   (minibatches per second per core), the inputs to the LP.
2. **Disk accounting** — bytes read per minibatch at each source, which
   joined with a bandwidth figure gives the I/O throughput bound.
3. **Cache amplification rates** — cardinality ``n_i`` and byte-ratio
   ``b_i`` propagated source→root, giving the materialized size of every
   cache candidate; source sizes come from the (possibly subsampled)
   observed file sizes, rescaled by ``m/n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.randomness import tainted_nodes
from repro.core.trace import PipelineTrace
from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    DatasetNode,
    InterleaveDatasetsNode,
    InterleaveSourceNode,
    Pipeline,
    RepeatNode,
    TakeNode,
    ZipNode,
)


@dataclass
class SourceSizeEstimate:
    """Subsampled estimate of one source dataset's size (§A)."""

    source: str
    observed_files: int
    total_files: int
    observed_bytes: float
    estimated_bytes: float
    estimated_records: float

    @property
    def sample_fraction(self) -> float:
        """Fraction of files observed during tracing."""
        if self.total_files == 0:
            return 0.0
        return self.observed_files / self.total_files


@dataclass
class NodeRates:
    """Per-node derived quantities."""

    name: str
    kind: str
    parallelism: int
    sequential: bool
    visit_ratio: float           # V_i: node completions per minibatch
    rate_per_core: float         # R_i: minibatches / second / core
    effective_rate_per_core: float  # like R_i but accounting I/O wait
    local_rate: float            # r_i: node elements / cpu-second
    cpu_core_seconds: float
    elements_produced: float
    bytes_per_element: float     # b_i
    cardinality: float           # n_i (inf if repeated/random upstream)
    materialized_bytes: float    # n_i * b_i
    cacheable: bool
    udf_internal_parallelism: float = 1.0

    @property
    def scaled_rate(self) -> float:
        """Parallelism-scaled aggregate rate p_i * R_i (the bottleneck
        ranking statistic of §5.1), using the I/O-accounted rate so that
        starved interleave streams rank as bottlenecks too (§4.4's
        "resource accounted" includes disk time)."""
        return self.parallelism * self.effective_rate_per_core


@dataclass
class PipelineModel:
    """Everything the optimizer needs, derived from one trace."""

    pipeline: Pipeline
    trace: PipelineTrace
    rates: Dict[str, NodeRates]
    source_estimates: Dict[str, SourceSizeEstimate]
    bytes_per_minibatch: float          # disk I/O per root element
    observed_throughput: float
    tainted: Set[str] = field(default_factory=set)

    def node(self, name: str) -> NodeRates:
        """Rates for one node."""
        return self.rates[name]

    def cpu_nodes(self) -> List[NodeRates]:
        """Nodes that consumed CPU during tracing (LP variables)."""
        return [
            r for r in self.rates.values()
            if r.cpu_core_seconds > 0 and math.isfinite(r.rate_per_core)
        ]

    def tunable_cpu_nodes(self) -> List[NodeRates]:
        """CPU-consuming nodes whose parallelism can be rewritten."""
        tunable_names = {n.name for n in self.pipeline.tunables()}
        return [r for r in self.cpu_nodes() if r.name in tunable_names]

    def cache_candidates(self) -> List[NodeRates]:
        """Cacheable nodes ordered closest-to-root first (§4.3 Memory)."""
        order = [n.name for n in self.pipeline.topological_order()]
        candidates = [
            self.rates[name]
            for name in reversed(order)
            if self.rates[name].cacheable
        ]
        return candidates


def build_model(trace: PipelineTrace) -> PipelineModel:
    """Derive the full operational model from a trace."""
    pipeline = trace.pipeline
    root_name = pipeline.root.name
    stats = trace.stats
    root_completions = stats[root_name].elements_produced
    duration = max(trace.measured_seconds, 1e-12)

    tainted = tainted_nodes(pipeline)
    source_estimates = {
        s.name: estimate_source_size(s, stats[s.name]) for s in pipeline.sources()
    }
    cardinalities = _propagate_cardinality(pipeline, stats, source_estimates)

    rates: Dict[str, NodeRates] = {}
    total_read = 0.0
    for node in pipeline.topological_order():
        st = stats[node.name]
        total_read += st.bytes_read
        if root_completions > 0:
            visit = st.elements_produced / root_completions
        else:
            visit = math.inf
        local = st.elements_per_cpu_second
        if st.cpu_core_seconds > 0 and visit > 0 and math.isfinite(visit):
            rate_per_core = local / visit
        else:
            rate_per_core = math.inf
        # Thread busy time: CPU + storage waits + per-Next dispatch
        # overhead. This is what bounds a worker pool's completion rate,
        # so the *ranking* statistic uses it; the LP's R_i stays pure
        # CPU-time (which is exactly why its NLP predictions overshoot,
        # Fig. 9).
        busy_seconds = (
            st.cpu_core_seconds + st.io_seconds + st.overhead_seconds
        )
        if busy_seconds > 0 and visit > 0 and math.isfinite(visit):
            effective_rate = st.elements_produced / busy_seconds / visit
        else:
            effective_rate = rate_per_core
        n_i = cardinalities[node.name]
        b_i = st.bytes_per_element
        cacheable = (
            node.name not in tainted
            and math.isfinite(n_i)
            and n_i > 0
            and not isinstance(node, RepeatNode)
            and node.kind not in ("shuffle_and_repeat", "prefetch")
            and not isinstance(node, CacheNode)
        )
        rates[node.name] = NodeRates(
            name=node.name,
            kind=node.kind,
            parallelism=node.effective_parallelism,
            sequential=node.sequential,
            visit_ratio=visit,
            rate_per_core=rate_per_core,
            effective_rate_per_core=effective_rate,
            local_rate=local,
            cpu_core_seconds=st.cpu_core_seconds,
            elements_produced=st.elements_produced,
            bytes_per_element=b_i,
            cardinality=n_i,
            materialized_bytes=(n_i * b_i) if math.isfinite(n_i) else math.inf,
            cacheable=cacheable,
            udf_internal_parallelism=st.udf_internal_parallelism,
        )

    bytes_per_minibatch = (
        total_read / root_completions if root_completions > 0 else math.inf
    )

    return PipelineModel(
        pipeline=pipeline,
        trace=trace,
        rates=rates,
        source_estimates=source_estimates,
        bytes_per_minibatch=bytes_per_minibatch,
        observed_throughput=trace.root_throughput,
        tainted=tainted,
    )


def estimate_source_size(
    source: InterleaveSourceNode, stats
) -> SourceSizeEstimate:
    """Rescale observed file sizes by ``m/n`` to estimate dataset size.

    "If we have n of m samples, we can simply rescale the subsampled
    size by m/n" (§A). Records are estimated from the observed mean
    record size.
    """
    total_files = source.catalog.num_files
    observed_files = min(stats.files_seen_count, total_files)
    observed_bytes = stats.files_seen_bytes
    if observed_files > 0:
        # Each file may be visited multiple times under repeat; average
        # per observation, then scale to the catalog.
        per_file = observed_bytes / stats.files_seen_count
        estimated_bytes = per_file * total_files
    else:
        estimated_bytes = 0.0
    bytes_per_record = stats.bytes_per_element
    estimated_records = (
        estimated_bytes / bytes_per_record if bytes_per_record > 0 else 0.0
    )
    return SourceSizeEstimate(
        source=source.name,
        observed_files=observed_files,
        total_files=total_files,
        observed_bytes=observed_bytes,
        estimated_bytes=estimated_bytes,
        estimated_records=estimated_records,
    )


def _propagate_cardinality(
    pipeline: Pipeline,
    stats,
    source_estimates: Dict[str, SourceSizeEstimate],
) -> Dict[str, float]:
    """n_i propagation source→root using observed local ratios (§A).

    ``n_j = r_j * n_i`` where ``r_j`` is the observed input→output
    completion ratio; repeat and shuffle_and_repeat make cardinality
    infinite (uncacheable above them).
    """
    out: Dict[str, float] = {}
    for node in pipeline.topological_order():
        if isinstance(node, InterleaveSourceNode):
            out[node.name] = source_estimates[node.name].estimated_records
            continue
        if isinstance(node, ZipNode):
            # Lockstep: the stream ends with the shortest branch.
            out[node.name] = min(out[c.name] for c in node.inputs)
            continue
        if isinstance(node, InterleaveDatasetsNode):
            # The mix ends when branch i runs dry after n_i / w_i outputs.
            out[node.name] = min(
                out[c.name] / w
                for w, c in zip(node.weights, node.inputs)
            )
            continue
        child = node.inputs[0]
        n_child = out[child.name]
        if isinstance(node, RepeatNode):
            if node.count is None:
                out[node.name] = math.inf if n_child > 0 else 0.0
            else:
                out[node.name] = n_child * node.count
            continue
        if node.kind == "shuffle_and_repeat":
            out[node.name] = math.inf if n_child > 0 else 0.0
            continue
        if isinstance(node, TakeNode):
            out[node.name] = min(n_child, float(node.count))
            continue
        st = stats[node.name]
        child_st = stats[child.name]
        if child_st.elements_produced > 0:
            local_ratio = st.elements_produced / child_st.elements_produced
        else:
            local_ratio = node.elements_ratio()
        out[node.name] = n_child * local_ratio
    return out
