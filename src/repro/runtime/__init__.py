"""Discrete-event simulated executor for dataset pipelines.

This is the ``tf.data`` runtime substitute: a virtual-clock simulation of
worker threads, bounded inter-stage queues, an FCFS core scheduler with
an oversubscription penalty, and a fair-share disk. It exposes exactly
the per-iterator counters Plumber's tracer reads (§4.1: counts, active
CPU-time, bytes — "less than 144 bytes per Dataset").
"""

from repro.runtime.engine import Compute, Get, Put, Read, Simulation, Timeout
from repro.runtime.executor import (
    DEFAULT_EVENT_BUDGET,
    BenchmarkConsumer,
    ModelConsumer,
    RunConfig,
    RunResult,
    auto_granularity,
    run_pipeline,
)
from repro.runtime.stats import NodeStats, StatsBoard

# Backends import core.trace (which imports the executor above), so they
# must come after the executor to keep package initialization acyclic.
from repro.runtime.adaptive import AdaptiveBackend, AdaptiveDecision
from repro.runtime.analytic import (
    EquilibriumDiagnostics,
    analytic_trace,
    equilibrium_diagnostics,
)
from repro.runtime.backends import (
    AnalyticBackend,
    SimulateBackend,
    TraceBackend,
    available_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "AdaptiveBackend",
    "AdaptiveDecision",
    "AnalyticBackend",
    "EquilibriumDiagnostics",
    "BenchmarkConsumer",
    "Compute",
    "DEFAULT_EVENT_BUDGET",
    "Get",
    "ModelConsumer",
    "NodeStats",
    "Put",
    "Read",
    "RunConfig",
    "RunResult",
    "SimulateBackend",
    "Simulation",
    "StatsBoard",
    "Timeout",
    "TraceBackend",
    "analytic_trace",
    "auto_granularity",
    "available_backends",
    "equilibrium_diagnostics",
    "register_backend",
    "resolve_backend",
    "run_pipeline",
]
