"""Analytic steady-state throughput model.

A closed-form version of what the simulator computes by event replay:
operational analysis (Denning & Buzen 1978) over the declared pipeline.
Every node contributes

* a *stage capacity* ``p_i / (V_i * (overhead + service_i))`` — it cannot
  complete elements faster than its workers turn them around, and
* a *CPU demand* ``V_i * core_seconds_i`` per root element.

Root throughput is the minimum of stage capacities, the aggregate CPU
capacity, the disk bound at the source's stream parallelism, and the
consumer's own rate. Used by the fleet analysis (§3) where simulating
two million jobs event-by-event would be wasteful, and as an oracle the
simulator is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

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
    ZipNode,
)
from repro.host.machine import Machine


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Predicted equilibrium for one pipeline on one machine."""

    throughput: float                 # root elements / second
    bottleneck: str                   # binding constraint description
    stage_caps: Dict[str, float]      # per-node capacity in root units
    cpu_cap: float
    disk_cap: float
    consumer_cap: float
    cpu_demand_per_element: float     # core-seconds per root element

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the CPU bound actually consumed at equilibrium."""
        if self.cpu_cap <= 0 or not math.isfinite(self.cpu_cap):
            return 0.0
        return min(1.0, self.throughput / self.cpu_cap)


def node_service(node: DatasetNode, machine: Machine) -> tuple:
    """Per-element (wallclock service seconds, core-seconds) for a node.

    Wallclock service is the time one worker is occupied by one element
    (CPU duration at the machine's core speed); core-seconds additionally
    multiply by UDF internal width.
    """
    if isinstance(node, InterleaveSourceNode):
        cpu = node.read_cpu_seconds_per_record / machine.core_speed
        return cpu, cpu
    if isinstance(node, MapNode):
        udf = node.udf
        duration = udf.cost.cpu_seconds / machine.core_speed
        return duration, duration * udf.cost.internal_parallelism
    if isinstance(node, FilterNode):
        duration = node.udf.cost.cpu_seconds / machine.core_speed
        return duration, duration
    if isinstance(node, BatchNode):
        # Cost is per consumed example; one output element consumes
        # ``batch_size`` examples.
        duration = node.cpu_seconds_per_example * node.batch_size
        duration /= machine.core_speed
        return duration, duration
    if isinstance(node, ShuffleNode):
        duration = node.cpu_seconds_per_element / machine.core_speed
        return duration, duration
    if isinstance(node, CacheNode):
        duration = node.read_cpu_seconds_per_element / machine.core_speed
        return duration, duration
    if isinstance(node, (ZipNode, InterleaveDatasetsNode)):
        duration = node.cpu_seconds_per_element / machine.core_speed
        return duration, duration
    return 0.0, 0.0


def predict_throughput(
    pipeline: Pipeline,
    machine: Machine,
    consumer_step_seconds: float = 0.0,
    cached: bool = True,
) -> SteadyStatePrediction:
    """Predict equilibrium root throughput.

    Parameters
    ----------
    cached:
        If True (default), nodes strictly below a :class:`CacheNode` are
        treated as having no steady-state cost (the paper's post-first-
        epoch regime); the disk bound is likewise waived.
    """
    ratios = pipeline.visit_ratios()
    overhead = machine.iterator_overhead + machine.tracer_overhead

    # Nodes upstream of a cache have no steady-state cost.
    free_nodes: set = pipeline.below_cache_names() if cached else set()

    stage_caps: Dict[str, float] = {}
    cpu_demand = 0.0
    disk_bytes_per_root = 0.0

    for node in pipeline.topological_order():
        v = ratios[node.name]
        if node.name in free_nodes:
            stage_caps[node.name] = math.inf
            continue
        duration, core_seconds = node_service(node, machine)
        per_element = overhead + duration
        p = node.effective_parallelism
        if per_element > 0 and v > 0:
            stage_caps[node.name] = p / (v * per_element)
        else:
            stage_caps[node.name] = math.inf
        cpu_demand += v * core_seconds
        if isinstance(node, InterleaveSourceNode):
            disk_bytes_per_root += v * node.catalog.mean_bytes_per_record

    cpu_cap = machine.cores / cpu_demand if cpu_demand > 0 else math.inf

    if disk_bytes_per_root > 0:
        streams = sum(
            s.effective_parallelism
            for s in pipeline.sources()
            if s.name not in free_nodes
        )
        disk_cap = (
            machine.disk.bandwidth(streams) / disk_bytes_per_root
            if streams > 0
            else math.inf
        )
    else:
        disk_cap = math.inf

    consumer_cap = (
        1.0 / consumer_step_seconds if consumer_step_seconds > 0 else math.inf
    )

    candidates = {
        "cpu": cpu_cap,
        "disk": disk_cap,
        "consumer": consumer_cap,
    }
    for name, cap in stage_caps.items():
        candidates[f"stage:{name}"] = cap

    bottleneck = min(candidates, key=candidates.get)
    throughput = candidates[bottleneck]

    return SteadyStatePrediction(
        throughput=throughput,
        bottleneck=bottleneck,
        stage_caps=stage_caps,
        cpu_cap=cpu_cap,
        disk_cap=disk_cap,
        consumer_cap=consumer_cap,
        cpu_demand_per_element=cpu_demand,
    )
