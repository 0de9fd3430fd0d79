"""Pluggable trace backends.

A *trace backend* turns ``(pipeline, machine, config)`` into a
:class:`~repro.core.trace.PipelineTrace`. Everything downstream of a
trace — :func:`repro.core.rates.build_model`, the LP, the planners, the
batch service — is backend-agnostic, which is the point: the trace file
format is the interface (§4.1), and how the counters were acquired is a
quality/latency tradeoff the caller picks per job:

* ``"simulate"`` — the discrete-event simulator
  (:func:`repro.runtime.executor.run_pipeline`). Highest fidelity;
  wallclock scales with the pipeline's element rate.
* ``"analytic"`` — the closed-form steady-state model
  (:func:`repro.runtime.analytic.analytic_trace`). O(nodes) per trace
  regardless of element rate; exact for steady-state rate accounting,
  approximate for queueing transients. The optimizer always plans
  against it; a spec's backend measures the input and certifies the
  final program (:meth:`repro.core.plumber.Plumber.optimize`).

``resolve_backend`` accepts a name or any object implementing the
:class:`TraceBackend` protocol, and :func:`register_backend` adds new
named backends, so callers can inject custom acquisition methods (e.g.
replaying recorded traces) without touching this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Protocol, Union, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.trace import PipelineTrace

import time

from repro.graph.datasets import Pipeline
from repro.host.machine import Machine
from repro.obs import global_registry
from repro.runtime.analytic import analytic_trace
from repro.runtime.executor import RunConfig, run_pipeline


def record_trace_wallclock(backend_name: str, seconds: float) -> None:
    """Account one trace acquisition in the process-global registry.

    Every backend (including custom registered ones that opt in) funnels
    through here so ``repro_trace_seconds{backend=...}`` is comparable
    across acquisition methods — the simulate-vs-analytic wallclock gap
    the ROADMAP tracks becomes a quantile read instead of a benchmark
    run.
    """
    registry = global_registry()
    registry.counter(
        "repro_trace_total", "Traces acquired, by backend",
    ).labels(backend=backend_name).inc()
    registry.histogram(
        "repro_trace_seconds", "Trace acquisition wallclock, by backend",
    ).labels(backend=backend_name).observe(seconds)


@runtime_checkable
class TraceBackend(Protocol):
    """Anything that can acquire a trace for ``(pipeline, machine)``."""

    name: str

    def trace(
        self, pipeline: Pipeline, machine: Machine, config: RunConfig
    ) -> PipelineTrace:
        """Produce a trace for one run configuration."""
        ...  # pragma: no cover - protocol body


class SimulateBackend:
    """Discrete-event simulation (the original tracer)."""

    name = "simulate"

    def trace(
        self, pipeline: Pipeline, machine: Machine, config: RunConfig
    ) -> PipelineTrace:
        from repro.core.trace import PipelineTrace

        start = time.monotonic()
        result = run_pipeline(pipeline, machine, config)
        record_trace_wallclock(self.name, time.monotonic() - start)
        return PipelineTrace.from_run(result)


class AnalyticBackend:
    """Closed-form steady-state counters (the fast path)."""

    name = "analytic"

    def trace(
        self, pipeline: Pipeline, machine: Machine, config: RunConfig
    ) -> PipelineTrace:
        start = time.monotonic()
        trace = analytic_trace(pipeline, machine, config)
        record_trace_wallclock(self.name, time.monotonic() - start)
        return trace


_BACKENDS: Dict[str, TraceBackend] = {
    "simulate": SimulateBackend(),
    "analytic": AnalyticBackend(),
}

#: the spec types ``resolve_backend`` accepts
BackendSpec = Union[str, TraceBackend, None]


def available_backends() -> tuple:
    """Registered backend names."""
    return tuple(sorted(_BACKENDS))


def register_backend(backend: TraceBackend, replace: bool = False) -> None:
    """Register a backend under its ``name`` for lookup by string.

    Named registration is what lets the batch service key its result
    cache on a backend.
    Re-registering an existing name raises unless ``replace=True``.
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise TypeError(
            "a trace backend must expose a non-empty string `name`"
        )
    if not isinstance(backend, TraceBackend):
        raise TypeError(f"backend {name!r} must implement trace(...)")
    if name in _BACKENDS and not replace:
        raise ValueError(
            f"trace backend {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _BACKENDS[name] = backend


def resolve_backend(spec: BackendSpec) -> TraceBackend:
    """Turn a backend name (or backend object, or ``None``) into a
    :class:`TraceBackend`. ``None`` means the default simulator."""
    if spec is None:
        return _BACKENDS["simulate"]
    if isinstance(spec, str):
        try:
            return _BACKENDS[spec]
        except KeyError:
            raise ValueError(
                f"unknown trace backend {spec!r}; "
                f"available: {list(available_backends())}"
            ) from None
    if isinstance(spec, TraceBackend):
        return spec
    raise TypeError(
        f"backend must be a name or TraceBackend, got {type(spec).__name__}"
    )
