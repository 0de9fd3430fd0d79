"""The trace file format: serialized program + counter snapshot.

"Plumber periodically dumps these statistics into a file along with the
entire serialized pipeline program. Joining the Datasets with their
program counterpart enables building an in-memory model of the pipeline
dataflow." (§4.1)

A :class:`PipelineTrace` is exactly that artifact: node counters, the
program, host facts, and the measurement window. It is JSON round-trip
serializable so traces can be saved and analyzed offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict

from repro.graph.datasets import Pipeline
from repro.graph.serialize import pipeline_from_dict, pipeline_to_dict
from repro.host.disk import DiskSpec
from repro.host.machine import Machine
from repro.runtime.executor import RunResult
from repro.runtime.stats import NodeStats


@dataclass
class HostInfo:
    """Host facts a trace carries for offline optimization."""

    cores: int
    core_speed: float
    memory_bytes: float
    disk: DiskSpec
    iterator_overhead: float

    @classmethod
    def from_machine(cls, machine: Machine) -> "HostInfo":
        """Extract the optimizer-relevant facts from a machine."""
        return cls(
            cores=machine.cores,
            core_speed=machine.core_speed,
            memory_bytes=machine.memory_bytes,
            disk=machine.disk,
            iterator_overhead=machine.iterator_overhead,
        )

    def to_dict(self) -> dict:
        return {
            "cores": self.cores,
            "core_speed": self.core_speed,
            "memory_bytes": self.memory_bytes,
            "disk": self.disk.to_dict(),
            "iterator_overhead": self.iterator_overhead,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HostInfo":
        return cls(
            cores=data["cores"],
            core_speed=data["core_speed"],
            memory_bytes=data["memory_bytes"],
            disk=DiskSpec.from_dict(data["disk"]),
            iterator_overhead=data["iterator_overhead"],
        )


@dataclass
class PipelineTrace:
    """One tracing session's output.

    ``backend`` names the acquisition method ("simulate" for the
    discrete-event simulator, "analytic" for the closed-form fast path)
    and is part of a trace's identity:
    two traces of the same program acquired through different backends
    are different artifacts and must not share cache entries downstream.
    """

    pipeline: Pipeline                # the traced program
    stats: Dict[str, NodeStats]       # measurement-window counters
    host: HostInfo
    measured_seconds: float
    root_throughput: float            # observed minibatches/second
    cpu_utilization: float = 0.0
    backend: str = "simulate"         # how the trace was acquired

    @classmethod
    def from_run(cls, result: RunResult) -> "PipelineTrace":
        """Build a trace from a simulated run."""
        return cls(
            pipeline=result.pipeline,
            stats=result.stats,
            host=HostInfo.from_machine(result.machine),
            measured_seconds=result.measured_seconds,
            root_throughput=result.throughput,
            cpu_utilization=result.cpu_utilization,
            backend="simulate",
        )

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the whole trace to JSON."""
        return json.dumps(
            {
                "program": pipeline_to_dict(self.pipeline),
                "stats": {k: v.to_dict() for k, v in self.stats.items()},
                "host": self.host.to_dict(),
                "measured_seconds": self.measured_seconds,
                "root_throughput": self.root_throughput,
                "cpu_utilization": self.cpu_utilization,
                "backend": self.backend,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PipelineTrace":
        """Inverse of :meth:`to_json`: the program is rebuilt (a trace
        is a valid program, §4.2)."""
        data = json.loads(text)
        return cls(
            pipeline=pipeline_from_dict(data["program"]),
            stats={
                k: NodeStats.from_dict(v) for k, v in data["stats"].items()
            },
            host=HostInfo.from_dict(data["host"]),
            measured_seconds=data["measured_seconds"],
            root_throughput=data["root_throughput"],
            cpu_utilization=data.get("cpu_utilization", 0.0),
            backend=data.get("backend", "simulate"),
        )
