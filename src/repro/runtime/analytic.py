"""Analytic fast-path trace backend.

Plumber's whole premise (§4.1) is that a trace is nothing but per-node
counters plus the serialized program — the optimizer never looks at an
individual event. This module produces that artifact *without running
the discrete-event simulator*: every counter the tracer would record is
computed in closed form from structural ratios, UDF cost models, the
disk bandwidth curve, and operational-analysis rate math. That rate
math is the library's one closed-form rate model: :func:`fill_caps`
exposes its whole-chain caps to chunk sizing and the §3 fleet study.

The steady-state equilibrium is the minimum of

* per-stage capacities ``p_i / (V_i x worker-occupancy per element)``
  (occupancy = framework overhead + penalty-inflated compute + storage
  wait, exactly what one simulated worker pays per element),
* the aggregate CPU bound ``cores / Σ V_i x core-seconds_i``,
* the disk bound at the sources' stream parallelism, and
* the consumer's own step rate.

Two transients are corrected explicitly rather than simulated away:

* **pipeline fill** — the first element must traverse every stage, so
  production starts after a fill latency (one chunk's service time per
  stage, summed). Deep, slow pipelines therefore do not need long
  warmups to yield non-degenerate traces; the correction is exact where
  the simulator needs ``trace_duration >= 3s`` to wash the transient
  out.
* **cache fill** — with a :class:`~repro.graph.datasets.CacheNode`
  under a repeat, the run has two regimes: a populate epoch at the
  rate of the *whole* chain, then serving at the rate of the cached
  suffix. The trace window is split across both, so counters (and the
  sub-cache nodes' one-epoch production) match what a simulated trace
  of the same window observes.

Wallclock cost is O(nodes) per trace, independent of element rate —
this is what makes µs-cost NLP jobs and whole-fleet optimization cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.trace import PipelineTrace

from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    DatasetNode,
    FilterNode,
    InterleaveDatasetsNode,
    InterleaveSourceNode,
    MapNode,
    Pipeline,
    ShuffleNode,
    TakeNode,
    ZipNode,
)
from repro.graph.validate import validate_pipeline
from repro.host.machine import Machine
from repro.runtime.executor import (
    RunConfig,
    _granularity_floor,
    _pipeline_epochs,
    _total_threads,
    size_chunks,
)
from repro.runtime.iterators import READ_BLOCK_BYTES
from repro.runtime.stats import NodeStats

#: clamp for structurally unbounded rates (a pipeline with zero cost and
#: zero overhead); keeps synthesized counters finite
_RATE_CLAMP = 1e12


@dataclass
class _NodeModel:
    """Closed-form per-node quantities, all per *output* element.

    The per-element overhead and the sources' storage latency depend on
    the run (traced or not, chunk size); :func:`_price` sets them, so
    models built for one run can be re-priced for another.
    """

    node: DatasetNode
    visit: float                 # V_i: node completions per root element
    workers: int                 # worker pool width p_i
    compute_seconds: float       # penalty-inflated worker compute
    core_seconds: float          # what on_cpu would record
    bytes_per_element: float     # b_i, propagated source -> root
    #: output elements per input element (the overhead is paid per input)
    outputs_per_input: float = 1.0
    transfer_seconds: float = 0.0     # disk transfer (sources only)
    bytes_read: float = 0.0      # storage bytes (sources only)
    below_cache: bool = False    # produces only during the fill epoch
    serve_core_seconds: float = 0.0   # cache node: extra serve-side CPU
    overhead_seconds: float = 0.0     # what on_overhead would record
    io_seconds: float = 0.0      # storage wait (sources only)

    @property
    def wall_seconds(self) -> float:
        """Worker occupancy (overhead + compute + io)."""
        return self.overhead_seconds + self.compute_seconds + self.io_seconds

    @property
    def serve_wall_seconds(self) -> float:
        """Cache node: serve-side occupancy."""
        return self.overhead_seconds + self.serve_core_seconds


def _penalty_factor(machine: Machine, threads: float) -> float:
    """Mirror of :class:`CoreScheduler`'s oversubscription inflation."""
    slope = machine.oversubscription_penalty
    if threads <= machine.cores or slope <= 0:
        return 1.0
    return 1.0 + slope * (threads / machine.cores - 1.0)


def _build_node_models(
    pipeline: Pipeline,
    machine: Machine,
    overhead: float,
    granularity: int,
) -> List[_NodeModel]:
    """Per-node closed-form costs, mirroring the simulator's workers in
    :mod:`repro.runtime.vector` (same accounting, no events), priced
    for a run with ``overhead`` per element and ``granularity``."""
    ratios = pipeline.visit_ratios()
    below = pipeline.below_cache_names()
    penalty = _penalty_factor(machine, _total_threads(pipeline))
    speed = machine.core_speed

    streams = sum(s.effective_parallelism for s in pipeline.sources())
    if streams > 0:
        per_stream_bw = machine.disk.bandwidth(streams) / streams
    else:
        per_stream_bw = math.inf

    models: List[_NodeModel] = []
    bytes_at: Dict[str, float] = {}
    for node in pipeline.topological_order():
        v = ratios[node.name]
        workers = node.effective_parallelism
        out_per_in = 1.0
        transfer = 0.0
        read = 0.0
        serve_core = 0.0
        if isinstance(node, InterleaveSourceNode):
            bpr = node.catalog.mean_bytes_per_record
            transfer = bpr / per_stream_bw
            read = bpr
            compute = node.read_cpu_seconds_per_record / speed * penalty
            core = compute
            b = bpr
        elif isinstance(node, MapNode):
            udf = node.udf
            out_per_in = max(udf.examples_ratio, 1e-12)
            compute_in = udf.cost.cpu_seconds / speed * penalty
            compute = compute_in / out_per_in
            core = compute_in * udf.cost.internal_parallelism / out_per_in
            b = udf.output_size(bytes_at[node.inputs[0].name])
        elif isinstance(node, FilterNode):
            out_per_in = max(node.keep_fraction, 1e-12)
            compute_in = node.udf.cost.cpu_seconds / speed * penalty
            compute = compute_in / out_per_in
            core = compute_in / out_per_in
            b = bytes_at[node.inputs[0].name]
        elif isinstance(node, BatchNode):
            # The overhead is paid per *output* element (one Next/batch).
            per_example = node.cpu_seconds_per_example / speed * penalty
            compute = per_example * node.batch_size
            core = compute
            b = bytes_at[node.inputs[0].name] * node.batch_size
        elif isinstance(node, ShuffleNode):  # includes shuffle_and_repeat
            compute = node.cpu_seconds_per_element / speed * penalty
            core = compute
            b = bytes_at[node.inputs[0].name]
        elif isinstance(node, CacheNode):
            # Populate pass forwards at overhead-only cost; serving adds
            # the memory-copy read cost.
            compute = 0.0
            core = 0.0
            serve_core = node.read_cpu_seconds_per_element / speed * penalty
            b = bytes_at[node.inputs[0].name]
        elif isinstance(node, ZipNode):
            # One output pairs one element from every branch: bytes add.
            compute = node.cpu_seconds_per_element / speed * penalty
            core = compute
            b = sum(bytes_at[c.name] for c in node.inputs)
        elif isinstance(node, InterleaveDatasetsNode):
            # Weighted mix: expected output bytes are the weighted mean
            # of the branch element sizes.
            compute = node.cpu_seconds_per_element / speed * penalty
            core = compute
            b = sum(
                w * bytes_at[c.name]
                for w, c in zip(node.weights, node.inputs)
            )
        else:  # repeat / prefetch / take: pure forwarding
            compute = 0.0
            core = 0.0
            b = bytes_at[node.inputs[0].name]
        bytes_at[node.name] = b
        models.append(
            _NodeModel(
                node=node,
                visit=v,
                workers=workers,
                compute_seconds=compute,
                core_seconds=core,
                bytes_per_element=b,
                outputs_per_input=out_per_in,
                transfer_seconds=transfer,
                bytes_read=read,
                below_cache=node.name in below,
                serve_core_seconds=serve_core,
            )
        )
    _price(models, machine, overhead, granularity)
    return models


def _price(
    models: List[_NodeModel],
    machine: Machine,
    overhead: float,
    granularity: int,
) -> None:
    """Set the run-dependent terms of ``models`` in place: the
    per-element overhead and each source's storage wait."""
    latency = machine.disk.read_latency
    for m in models:
        m.overhead_seconds = overhead / m.outputs_per_input
        if isinstance(m.node, InterleaveSourceNode):
            # Block-buffered reads: per-request latency is amortized over
            # the larger of the chunk and the read-ahead block.
            bpr = m.bytes_read
            block = max(granularity * bpr, READ_BLOCK_BYTES)
            m.io_seconds = m.transfer_seconds + latency * bpr / block


def _cache_subtrees(models: List[_NodeModel]) -> Dict[str, set]:
    """Per-cache name set of the nodes strictly below it."""
    subtrees: Dict[str, set] = {}
    for m in models:
        if not isinstance(m.node, CacheNode):
            continue
        names: set = set()
        stack = list(m.node.inputs)
        while stack:
            n = stack.pop()
            names.add(n.name)
            stack.extend(n.inputs)
        subtrees[m.node.name] = names
    return subtrees


def _equilibrium_caps(
    models: List[_NodeModel],
    machine: Machine,
    consumer_step: float,
    served_caches: AbstractSet[str] = frozenset(),
) -> Dict[str, float]:
    """Labelled root-throughput bounds: stage, CPU, disk, consumer caps.

    ``served_caches`` names the caches that have finished populating and
    serve: their subtrees are free and each pays its serve-side cost,
    while every other cache still populates at the whole chain's rate.
    Empty (the default) is the fill or cache-free regime; a partial set
    is how multi-source graphs behave while their branch caches finish
    filling at different times. Labels are ``stage:<node>``, ``cpu``,
    ``disk`` and ``consumer``.
    """
    free: set = set()
    if served_caches:
        subtrees = _cache_subtrees(models)
        for cache_name in served_caches:
            free |= subtrees.get(cache_name, set())
    caps: Dict[str, float] = {}
    cpu_demand = 0.0
    disk_bytes = 0.0
    streams = 0
    for m in models:
        if m.node.name in free:
            continue
        wall = m.wall_seconds
        core = m.core_seconds
        if m.node.name in served_caches:
            wall = m.serve_wall_seconds
            core = m.serve_core_seconds
        if wall > 0 and m.visit > 0:
            caps[f"stage:{m.node.name}"] = m.workers / (m.visit * wall)
        cpu_demand += m.visit * core
        if isinstance(m.node, InterleaveSourceNode):
            disk_bytes += m.visit * m.bytes_read
            streams += m.workers
    if cpu_demand > 0:
        caps["cpu"] = machine.cores / cpu_demand
    if disk_bytes > 0 and streams > 0:
        caps["disk"] = machine.disk.bandwidth(streams) / disk_bytes
    if consumer_step > 0:
        caps["consumer"] = 1.0 / consumer_step
    return caps


def _equilibrium_rate(
    models: List[_NodeModel],
    machine: Machine,
    consumer_step: float,
    served_caches: AbstractSet[str],
) -> float:
    """Root throughput bound: the min over :func:`_equilibrium_caps`."""
    caps = _equilibrium_caps(models, machine, consumer_step, served_caches)
    rate = min(caps.values()) if caps else math.inf
    return min(rate, _RATE_CLAMP)


def fill_caps(
    pipeline: Pipeline,
    machine: Machine,
    consumer_step_seconds: float = 0.0,
) -> Dict[str, float]:
    """Labelled whole-chain root-throughput caps of ``pipeline``.

    The fill regime: every node, caches included, pays its populate
    cost, so no cache frees its subtree. Costs include the traced
    per-element overhead, the oversubscription penalty and storage
    latency at the batch-size chunk floor. The predicted root rate is
    ``min(caps.values())``; an empty dict means nothing bounds it.
    Chunk sizing (:func:`~repro.runtime.executor.size_chunks`) and the
    §3 fleet study read their rates here.
    """
    return _equilibrium_caps(
        _fill_models(pipeline, machine), machine, consumer_step_seconds
    )


def _fill_models(pipeline: Pipeline, machine: Machine) -> List[_NodeModel]:
    """The node models behind :func:`fill_caps`: a traced run's overhead
    at the chunk floor."""
    return _build_node_models(
        pipeline,
        machine,
        machine.iterator_overhead + machine.tracer_overhead,
        _granularity_floor(pipeline),
    )


@dataclass(frozen=True)
class _Prepared:
    """Shared setup for one analytic run: validated pipeline, resolved
    granularity, node models, and regime facts."""

    config: RunConfig
    models: List[_NodeModel]
    granularity: int
    consumer_step: float
    epochs: float


def _prepare(
    pipeline: Pipeline,
    machine: Machine,
    config: Optional[RunConfig],
    config_overrides: dict,
) -> _Prepared:
    if config is None:
        config = RunConfig(**config_overrides)
    elif config_overrides:
        raise TypeError("pass either a RunConfig or keyword overrides, not both")
    validate_pipeline(pipeline)
    overhead = machine.iterator_overhead + (
        machine.tracer_overhead if config.trace else 0.0
    )
    granularity, models = size_chunks(pipeline, machine, config)
    if models is None:
        models = _build_node_models(pipeline, machine, overhead, granularity)
    else:
        _price(models, machine, overhead, granularity)
    epochs = (
        config.epochs if config.epochs is not None
        else _pipeline_epochs(pipeline)
    )
    return _Prepared(
        config=config,
        models=models,
        granularity=granularity,
        consumer_step=config.consumer.step_seconds_per_element,
        epochs=epochs,
    )


def _fill_latency(models: List[_NodeModel], granularity: int) -> float:
    """Time for the first chunk to traverse the pipeline (queue fill).

    Chunk sizes follow the structural ratios (the chunk entering node i
    carries ``granularity x V_i / V_src`` of its elements), so the
    latency is the sum over stages of one chunk's single-worker service
    time. This is the transient the simulator has to warm through; here
    it is an explicit correction term.
    """
    v_src = max(
        (m.visit for m in models if isinstance(m.node, InterleaveSourceNode)),
        default=0.0,
    )
    if v_src <= 0:
        return 0.0
    latency = 0.0
    for m in models:
        chunk = granularity * m.visit / v_src
        latency += chunk * m.wall_seconds
    return latency


def _epoch_root_elements(pipeline: Pipeline, models: List[_NodeModel]) -> float:
    """Root elements produced by one full pass over the sources."""
    ratios = {m.node.name: m.visit for m in models}
    per_epoch = math.inf
    for source in pipeline.sources():
        records = source.catalog.total_records
        v = ratios[source.name]
        if v > 0:
            per_epoch = min(per_epoch, records / v)
    for m in models:
        if isinstance(m.node, TakeNode) and m.visit > 0:
            per_epoch = min(per_epoch, m.node.count / m.visit)
    return per_epoch


def analytic_trace(
    pipeline: Pipeline,
    machine: Machine,
    config: Optional[RunConfig] = None,
    **config_overrides,
) -> "PipelineTrace":
    """Produce a :class:`PipelineTrace` analytically (no simulation).

    Accepts the same configuration surface as
    :func:`repro.runtime.executor.run_pipeline`; the trace window
    ``[warmup, duration]`` and the consumer model are honoured so that
    analytic and simulated traces of the same run are comparable
    artifacts.
    """
    return _trace_from(
        _prepare(pipeline, machine, config, config_overrides),
        pipeline, machine,
    )


def _trace_from(
    prepared: _Prepared, pipeline: Pipeline, machine: Machine
) -> "PipelineTrace":
    """Synthesize the trace artifact from prepared node models."""
    # Imported here: repro.core.trace itself imports the runtime package,
    # so a module-level import would be circular.
    from repro.core.trace import HostInfo, PipelineTrace

    config = prepared.config
    models = prepared.models
    granularity = prepared.granularity
    consumer_step = prepared.consumer_step
    epochs = prepared.epochs

    per_epoch = _epoch_root_elements(pipeline, models)
    total_root = epochs * per_epoch if math.isfinite(per_epoch) else math.inf
    pipe_fill = _fill_latency(models, granularity)

    # Per-cache populate completion, in cumulative root elements: cache
    # ``c`` finishes materializing once the sources below it are
    # exhausted, and their consumption per root element is their visit
    # ratio. On a chain this is the familiar single fill→serve boundary;
    # on a multi-source DAG each branch cache completes at its own root
    # count and flips only *its* subtree to the serve regime while the
    # other branches keep populating. With ``epochs <= 1`` nothing ever
    # serves — the whole run is the fill regime.
    subtrees = _cache_subtrees(models)
    visits = {m.node.name: m.visit for m in models}
    source_records = {
        s.name: s.catalog.total_records for s in pipeline.sources()
    }
    populate_at: Dict[str, float] = {}
    for cache_name, below in subtrees.items():
        if epochs <= 1:
            populate_at[cache_name] = math.inf
            continue
        need = math.inf
        for src, records in source_records.items():
            if src in below and visits.get(src, 0.0) > 0:
                need = min(need, records / visits[src])
        populate_at[cache_name] = need

    # Piecewise regimes over cumulative root elements: phase ``k`` begins
    # when the ``k``-th cache (ordered by completion) starts serving.
    boundaries = sorted(
        {n for n in populate_at.values() if math.isfinite(n) and n > 0}
    )
    phase_starts = [0.0] + boundaries
    phase_rates = []
    for start in phase_starts:
        served = {c for c, n in populate_at.items() if n <= start}
        phase_rates.append(
            _equilibrium_rate(models, machine, consumer_step, served)
        )
    phase_times = [pipe_fill]
    for k in range(len(boundaries)):
        span = phase_starts[k + 1] - phase_starts[k]
        phase_times.append(
            phase_times[-1] + span / max(phase_rates[k], 1e-12)
        )

    def _root_produced(t: float) -> float:
        """Cumulative root elements by virtual time ``t``."""
        made = 0.0
        for k, rate in enumerate(phase_rates):
            lo = phase_times[k]
            hi = phase_times[k + 1] if k + 1 < len(phase_times) else math.inf
            made += rate * max(0.0, min(t, hi) - lo)
        return min(made, total_root) if math.isfinite(total_root) else made

    def _time_of_root(n: float) -> float:
        """Virtual time at which ``n`` cumulative root elements exist."""
        remaining = n
        t = phase_times[0]
        for k, rate in enumerate(phase_rates):
            lo = phase_starts[k]
            hi = (
                phase_starts[k + 1]
                if k + 1 < len(phase_starts)
                else math.inf
            )
            span = hi - lo
            if remaining <= span or not math.isfinite(span):
                return t + remaining / max(rate, 1e-12)
            remaining -= span
            t = phase_times[k + 1]
        return t

    # End of the run: the configured duration, or stream exhaustion.
    end = config.duration
    if math.isfinite(total_root):
        drain = _time_of_root(total_root)
        if math.isfinite(drain):
            end = min(end, max(drain, pipe_fill))

    warmup = config.warmup
    root_total_end = _root_produced(end)
    root_at_warmup = _root_produced(warmup)
    root_in_window = root_total_end - root_at_warmup
    if root_in_window > 0:
        measured = max(end - warmup, 1e-12)
    else:
        # Drained before warmup ended (or produced nothing): mirror the
        # simulator and measure the whole run.
        measured = max(end, 1e-12)
        root_in_window = root_total_end
        root_at_warmup = 0.0
        warmup = 0.0

    def _windowed(cut: float) -> tuple:
        """(window, total) root elements produced before the ``cut``
        boundary — production under a cache stops once that cache
        completes its populate pass. Sub-populate residues of ~1e-13
        root elements are snapped to the boundary: a residue times a
        serve-side CPU cost would otherwise give the cache node a
        ~1e-19 core-second charge and a finite ~1e20 rate-per-core —
        where the simulator records exactly zero and an infinite rate —
        putting a spurious node into the LP that the simulator's model
        does not have.
        """
        window = min(root_total_end, cut) - min(root_at_warmup, cut)
        total = min(root_total_end, cut)
        eps = 1e-9 * max(root_in_window, 1.0)
        if root_in_window - window <= eps:
            window = root_in_window
        if root_total_end - total <= eps:
            total = root_total_end
        return window, total

    # The populate boundary governing each node: the earliest-completing
    # cache above it (first-EOS semantics — a cache's input stream ends
    # with its shortest source).
    cut_for: Dict[str, float] = {}
    for cache_name, below in subtrees.items():
        n_c = populate_at[cache_name]
        for name in below:
            cut_for[name] = min(cut_for.get(name, math.inf), n_c)

    stats: Dict[str, NodeStats] = {}
    produced_by_name: Dict[str, float] = {}
    busy_core_seconds = 0.0
    for m in models:
        node = m.node
        cut = cut_for.get(node.name, math.inf)
        fill_window, fill_total = _windowed(cut)
        produced = m.visit * fill_window
        produced_total = m.visit * fill_total
        core = m.core_seconds * produced
        if isinstance(node, CacheNode):
            own_fill, _ = _windowed(populate_at[node.name])
            serve_window = max(0.0, fill_window - own_fill)
            core = (
                m.core_seconds * m.visit * own_fill
                + m.serve_core_seconds * m.visit * serve_window
            )
        st = NodeStats(
            name=node.name,
            kind=node.kind,
            parallelism=node.effective_parallelism,
            sequential=node.sequential,
            udf_internal_parallelism=(
                node.udf.cost.internal_parallelism if node.udf else 1.0
            ),
        )
        st.elements_produced = produced
        st.bytes_produced = produced * m.bytes_per_element
        st.cpu_core_seconds = core
        st.overhead_seconds = produced * m.overhead_seconds
        st.io_seconds = produced * m.io_seconds
        st.bytes_read = produced * m.bytes_read
        if node.inputs:
            # Merge nodes consume from every branch; chains reduce to
            # the single input's production.
            st.elements_consumed = sum(
                produced_by_name.get(c.name, 0.0) for c in node.inputs
            )
        else:
            st.elements_consumed = produced
        if isinstance(node, InterleaveSourceNode):
            # File observations are cumulative over the whole run (the
            # tracer's size estimator wants every file seen, §A); one
            # "observation" is one mean-sized file, so the rescaled
            # estimate recovers the catalog size.
            catalog = node.catalog
            mean_file = catalog.total_bytes / max(catalog.num_files, 1)
            files = produced_total / max(catalog.records_per_file, 1e-12)
            count = int(round(files)) if files > 0 else 0
            if produced_total > 0:
                count = max(count, 1)
            st.files_seen_count = count
            st.files_seen_bytes = count * mean_file
        stats[node.name] = st
        produced_by_name[node.name] = produced
        busy_core_seconds += core

    throughput = root_in_window / measured
    cpu_utilization = busy_core_seconds / (machine.cores * measured)

    return PipelineTrace(
        pipeline=pipeline,
        stats=stats,
        host=HostInfo.from_machine(machine),
        measured_seconds=measured,
        root_throughput=throughput,
        cpu_utilization=min(1.0, cpu_utilization),
        backend="analytic",
    )
