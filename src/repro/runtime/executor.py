"""Top-level simulated execution: build, run, and measure a pipeline.

:func:`run_pipeline` wires the stage workers (:mod:`repro.runtime.vector`)
together on a simulated :class:`~repro.host.machine.Machine`, runs for a
virtual duration with a warmup window trimmed, and returns a
:class:`RunResult` carrying the throughput, per-node counter deltas,
consumer ``Next``-latency, and resource utilization — everything
Plumber's tracer and the fleet analysis consume.

The wiring (:func:`_execute`) reads the engine classes, stage builder
and consumer from one module. Only the equivalence tests pass another
one: the reference generator engine in ``tests/reference_engine.py``,
so the oracle and the shipped engine run under identical wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.graph.datasets import (
    CacheNode,
    InterleaveSourceNode,
    Pipeline,
    PrefetchNode,
    RepeatNode,
)
from repro.graph.validate import validate_pipeline
from repro.host.machine import Machine
from repro.obs import global_registry
from repro.runtime import vector
from repro.runtime.engine import FairShareDisk, SimQueue
from repro.runtime.iterators import (
    ExecContext,
    FileCursor,
    expected_elements_per_chunk,
)
from repro.runtime.stats import NodeStats, StatsBoard


@dataclass
class ModelConsumer:
    """Pulls at the model's training-step rate (end-to-end mode, §5.4).

    ``step_seconds_per_element`` is seconds of accelerator time per root
    element (minibatch); ``0.0`` pulls as fast as possible
    (microbenchmark mode, §5.1), the default.
    """

    step_seconds_per_element: float

    def __post_init__(self) -> None:
        if self.step_seconds_per_element < 0:
            raise ValueError("step time must be >= 0")


@dataclass
class RunConfig:
    """Knobs for one simulated run."""

    duration: float = 5.0
    warmup: float = 1.0
    trace: bool = True
    granularity: Optional[int] = None
    consumer: ModelConsumer = field(
        default_factory=lambda: ModelConsumer(0.0))
    epochs: Optional[float] = None
    #: cap on simulation events per run when ``granularity`` is unset;
    #: the auto-tuner coarsens chunks until the estimate fits
    event_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must be in [0, duration)")
        if self.granularity is not None and self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if self.event_budget is not None and self.event_budget < 1:
            raise ValueError("event_budget must be >= 1")


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    pipeline: Pipeline
    machine: Machine
    config: RunConfig
    stats: Dict[str, NodeStats]            # measurement-window deltas
    cumulative_stats: Dict[str, NodeStats]  # full-run counters
    minibatches: float
    measured_seconds: float
    throughput: float                       # root elements / second
    next_latency: float                     # mean blocked time per element
    cpu_utilization: float
    disk_bytes: float
    cache_bytes: Dict[str, float]
    completed: bool                         # stream drained before time limit
    events_processed: int = 0               # engine callbacks fired
    peak_ready_depth: int = 0               # deepest same-timestamp deque
    #: per-node output-queue telemetry (puts/gets/peak/mean occupancy),
    #: part of the engine-equivalence contract the golden corpus pins
    queue_stats: Dict[str, dict] = field(default_factory=dict)

    @property
    def examples_per_second(self) -> float:
        """Throughput in examples (images/sentences) per second."""
        return self.throughput * self.pipeline.batch_size()


def _pipeline_epochs(pipeline: Pipeline) -> float:
    """Total passes over the data implied by repeat nodes."""
    epochs = 1.0
    for node in pipeline.iter_nodes():
        if isinstance(node, RepeatNode):
            epochs *= math.inf if node.count is None else node.count
        elif node.kind == "shuffle_and_repeat":
            epochs *= math.inf
    return epochs


#: default event budget per trace — a few hundred ms of simulator time
DEFAULT_EVENT_BUDGET = 300_000
#: queue/overhead/compute/resume events one chunk costs per stage
_EVENTS_PER_CHUNK = 6.0
#: coarsest chunk the tuner will pick (beyond this, timing resolution
#: degrades with no meaningful event-count win)
_MAX_GRANULARITY = 65_536


def _granularity_floor(pipeline: Pipeline) -> int:
    """The legacy batch-size heuristic, kept as the fine-grained floor."""
    batch = pipeline.batch_size()
    return int(min(64, max(1, batch // 8)))


def auto_granularity(
    pipeline: Pipeline,
    machine: Machine,
    duration: float = 5.0,
    event_budget: int = DEFAULT_EVENT_BUDGET,
    consumer_step_seconds: float = 0.0,
) -> int:
    """The event-budget chunk size (see :func:`size_chunks`) for a run
    of ``duration`` virtual seconds."""
    config = RunConfig(
        duration=duration,
        warmup=0.0,
        event_budget=event_budget,
        consumer=ModelConsumer(consumer_step_seconds),
    )
    return size_chunks(pipeline, machine, config)[0]


def resolve_granularity(
    pipeline: Pipeline, machine: Machine, config: RunConfig
) -> int:
    """The chunk size one run configuration resolves to (see
    :func:`size_chunks`)."""
    return size_chunks(pipeline, machine, config)[0]


def size_chunks(
    pipeline: Pipeline, machine: Machine, config: RunConfig
) -> Tuple[int, Optional[list]]:
    """The chunk size ``config`` resolves to, and the analytic node
    models that priced it.

    An explicit ``granularity`` is taken as is. Otherwise chunks are
    sized so one trace emits a bounded number of events. Chunking
    scales every stage's chunk count together, so the event rate of the
    whole simulation is ``~ stages x events_per_chunk x (element rate
    at the source) / granularity`` — independent of which stage a chunk
    is at. Predicting the element rate with the analytic model's caps
    therefore lets us solve for the granularity that lands the run
    inside the event budget regardless of per-op cost: µs-cost NLP
    pipelines (huge element rates) get coarse chunks automatically,
    while low-rate vision pipelines keep the legacy batch-size
    heuristic as a floor.

    The rate comes from the fill-regime caps, never the serve regime: a
    pipeline that gained a cache serves at the cached suffix's (much
    faster) rate, and chunks sized for that rate are so coarse the
    populate pass cannot push one through the chain within the trace
    window, so the trace reads throughput 0.

    The models are :func:`~repro.runtime.analytic.fill_caps`'s (traced
    overhead, chunk floor); the analytic backend re-prices them for its
    run instead of building its own. The floor and the visit ratios (the
    models' ``visit``) are computed once here. The models are ``None``
    for an explicit granularity or an unmodellable structure. Both
    backends size chunks here, so a given :class:`RunConfig` always
    means the same chunking regardless of how the trace is acquired.
    """
    if config.granularity:
        return config.granularity, None
    # Imported here: the analytic backend imports this module.
    from repro.runtime.analytic import _build_node_models, _equilibrium_caps

    floor = _granularity_floor(pipeline)
    try:
        models = _build_node_models(
            pipeline, machine,
            machine.iterator_overhead + machine.tracer_overhead, floor,
        )
        caps = _equilibrium_caps(
            models, machine, config.consumer.step_seconds_per_element
        )
    except (ValueError, KeyError):  # unmodellable structure: keep floor
        return floor, None
    rate = min(caps.values(), default=math.inf)
    source_elements = sum(
        m.visit for m in models
        if isinstance(m.node, InterleaveSourceNode) and math.isfinite(m.visit)
    )
    if not (math.isfinite(rate) and rate > 0 and source_elements > 0):
        return floor, models
    produced = config.duration * rate * source_elements
    stages = len(models) + 1  # +1 for the consumer
    events = produced * stages * _EVENTS_PER_CHUNK
    need = math.ceil(events / (config.event_budget or DEFAULT_EVENT_BUDGET))
    # Timing-resolution cap: at least ~8 chunks must reach the root per
    # trace window, or the measurement is one burst and the fill
    # transient swallows the run. The floor wins when the two conflict
    # (very low-rate pipelines).
    resolution_cap = math.floor(produced / 8.0)
    need = min(need, max(floor, resolution_cap))
    return int(min(_MAX_GRANULARITY, max(floor, need))), models


def _total_threads(pipeline: Pipeline) -> float:
    """Worker threads the pipeline spawns (for the oversubscription
    penalty): parallelism x UDF-internal threads, +1 per sequential op."""
    total = 0.0
    for node in pipeline.topological_order():
        internal = 1.0
        if node.udf is not None:
            internal = node.udf.cost.internal_parallelism
        total += node.effective_parallelism * internal
    return total


def run_pipeline(
    pipeline: Pipeline,
    machine: Machine,
    config: Optional[RunConfig] = None,
    **config_overrides,
) -> RunResult:
    """Simulate ``pipeline`` on ``machine`` and measure it.

    Any :class:`RunConfig` field can be passed as a keyword override,
    e.g. ``run_pipeline(pipe, machine, duration=3.0, trace=False)``.
    """
    if config is None:
        config = RunConfig(**config_overrides)
    elif config_overrides:
        raise TypeError("pass either a RunConfig or keyword overrides, not both")
    validate_pipeline(pipeline)
    return _execute(pipeline, machine, config)


def _execute(
    pipeline: Pipeline,
    machine: Machine,
    config: RunConfig,
    runtime=vector,
) -> RunResult:
    """One simulated run (see :func:`run_pipeline`).

    ``runtime`` is the module providing ``Simulation``, ``SimQueue``,
    ``CoreScheduler``, ``build_stage`` and ``Consumer``.
    """
    sim = runtime.Simulation()
    sim.cores = runtime.CoreScheduler(
        sim,
        capacity=machine.cores,
        oversubscription_penalty=machine.oversubscription_penalty,
        total_threads=_total_threads(pipeline),
    )
    sim.disk = FairShareDisk(sim, machine.disk)

    overhead = machine.iterator_overhead + (
        machine.tracer_overhead if config.trace else 0.0
    )
    ctx = ExecContext(
        sim=sim,
        machine=machine,
        penalty=sim.cores.penalty,
        overhead_per_element=overhead,
        memory_limit_bytes=machine.memory_bytes * 0.9,
    )

    granularity = resolve_granularity(pipeline, machine, config)
    epochs = config.epochs if config.epochs is not None else _pipeline_epochs(pipeline)

    order = pipeline.topological_order()
    has_cache = any(isinstance(n, CacheNode) for n in order)
    # Only sources *below* a cache stop after the populate pass; in a
    # multi-branch graph a cache in one branch must not throttle the
    # sources of the others.
    below_cache = pipeline.below_cache_names() if has_cache else set()
    cache_serve_epochs = (epochs - 1.0) if has_cache else 0.0

    board = StatsBoard()
    queues: Dict[str, SimQueue] = {}
    for node in order:
        stats = board.register(
            NodeStats(
                name=node.name,
                kind=node.kind,
                parallelism=node.effective_parallelism,
                sequential=node.sequential,
                udf_internal_parallelism=(
                    node.udf.cost.internal_parallelism if node.udf else 1.0
                ),
            )
        )
        if isinstance(node, PrefetchNode):
            per_chunk = expected_elements_per_chunk(pipeline, node.name, granularity)
            capacity = max(1, int(math.ceil(node.buffer_size / per_chunk)))
        else:
            capacity = max(2, node.effective_parallelism)
        out_q = runtime.SimQueue(sim, capacity, name=node.name)
        queues[node.name] = out_q

        if isinstance(node, InterleaveSourceNode):
            source_epochs = 1.0 if node.name in below_cache else epochs
            cursor = FileCursor(node.catalog.files, epochs=source_epochs)
            in_qs = None
        else:
            cursor = None
            in_qs = [queues[c.name] for c in node.inputs]
        tasks = runtime.build_stage(
            node, in_qs, out_q, ctx, stats,
            cursor=cursor, granularity=granularity,
            serve_epochs=cache_serve_epochs,
        )
        for task in tasks:
            sim.schedule(0.0, task.start)

    consumer = runtime.Consumer(
        sim, queues[pipeline.root.name],
        config.consumer.step_seconds_per_element,
    )
    sim.schedule(0.0, consumer.start)

    # Warmup snapshot taken mid-run. The timer fires even after the
    # stream has drained, so it checks for that itself.
    warm: dict = {}

    def take_warm_snapshot() -> None:
        if consumer.drained_at is None:
            warm["stats"] = board.snapshot()
            warm["consumer"] = consumer.snapshot()
            warm["disk_bytes"] = sim.disk.total_bytes

    if config.warmup > 0:
        sim.schedule(config.warmup, take_warm_snapshot)
    else:
        take_warm_snapshot()

    end_time = sim.run(config.duration)
    completed = consumer.drained_at is not None

    if "stats" not in warm:
        # Drained before warmup ended: measure [0, drain instant].
        warm["stats"] = {
            name: NodeStats(name=name, kind=board[name].kind)
            for name in board.names()
        }
        warm["consumer"] = (0.0, 0.0)
        warm["disk_bytes"] = 0.0
        measured = max(consumer.drained_at, 1e-12)
    else:
        measured = max(end_time - config.warmup, 1e-12)

    deltas = {
        name: board[name].delta(warm["stats"][name]) for name in board.names()
    }
    elements = consumer.elements - warm["consumer"][0]
    wait = consumer.wait_seconds - warm["consumer"][1]

    registry = global_registry()
    registry.counter(
        "repro_sim_events_total",
        "Simulation engine callbacks fired across all runs",
    ).inc(sim.events_processed)
    registry.histogram(
        "repro_sim_ready_depth",
        "Peak same-timestamp ready-deque depth per simulated run",
    ).observe(sim.peak_ready_depth)

    # Queue telemetry is part of the equivalence contract the golden
    # corpus pins.
    queue_stats = {
        name: {
            "total_puts": q.total_puts,
            "total_gets": q.total_gets,
            "peak_occupancy": q.peak_occupancy,
            "mean_occupancy": q.mean_occupancy(),
        }
        for name, q in queues.items()
    }

    return RunResult(
        pipeline=pipeline,
        machine=machine,
        config=config,
        stats=deltas,
        cumulative_stats=board.snapshot(),
        minibatches=elements,
        measured_seconds=measured,
        throughput=elements / measured,
        next_latency=(wait / elements) if elements > 0 else float("inf"),
        cpu_utilization=sim.cores.utilization(end_time),
        disk_bytes=sim.disk.total_bytes - warm["disk_bytes"],
        cache_bytes=dict(ctx.cache_bytes),
        completed=completed,
        events_processed=sim.events_processed,
        peak_ready_depth=sim.peak_ready_depth,
        queue_stats=queue_stats,
    )
