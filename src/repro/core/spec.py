"""The unified optimizer configuration: :class:`OptimizeSpec`.

Every knob that shapes one trace→analyze→optimize run — which passes to
run and for how many iterations, which trace backend acquires the
counters, the trace window, chunk granularity, the event budget, and the
memory ceiling for cache planning — lives in one frozen dataclass. A
spec is constructed once and flows unchanged through
:class:`~repro.core.plumber.Plumber`, the batch service
(:class:`repro.service.BatchOptimizer` / ``OptimizationJob.spec``), and
the fleet generator (``FleetConfig.optimize_spec``); none of those
layers has a configuration knob of its own.

Because the spec is the *whole* optimizer configuration, it is also the
optimizer's contribution to cache identity: :meth:`OptimizeSpec.cache_token`
renders it as a canonical JSON-compatible mapping, and the service's
result-cache key is ``hash(signature, machine fingerprint, cache_token)``
— two jobs share a cache entry iff nothing that could change the result
differs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

#: default optimization passes, in order (the paper's three logical
#: passes; resolved through the registry in :mod:`repro.core.passes`)
DEFAULT_PASSES = ("parallelism", "prefetch", "cache")

#: Version of the persisted result-store schema (the entry layout
#: :mod:`repro.service.store` writes to disk *and* the worker result
#: mapping it wraps). It is part of :meth:`OptimizeSpec.cache_token`, so
#: bumping it invalidates every existing cache key at once — a disk
#: store populated by an older schema can never serve an entry whose
#: layout this code no longer understands.
STORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OptimizeSpec:
    """One optimization run's full configuration.

    Parameters
    ----------
    passes:
        Optimizer passes, in order. Entries are registry names
        (strings) or :class:`~repro.core.passes.OptimizerPass` objects;
        the batch service requires names (specs travel to worker
        processes as JSON).
    iterations:
        Pass-pipeline iterations (the paper runs two "so that the
        estimated rates more closely reflect the final pipeline's
        performance").
    backend:
        Trace acquisition backend: a registered name (``"simulate"``,
        ``"analytic"``, ``"adaptive"``) or a backend object. The service
        requires a name for the same serialization reason as passes.
    granularity / event_budget:
        Chunk size per source request, or (when unset) the event budget
        the granularity auto-tuner targets.
    trace_duration / trace_warmup:
        Virtual seconds of tracing per iteration and the warmup window
        trimmed from measurements.
    memory_bytes:
        Ceiling for the cache planner's :class:`~repro.host.memory.
        MemoryBudget` (``None`` = the traced machine's memory).
    allocate_remaining:
        Whether the parallelism pass pushes leftover cores onto the
        bottleneck node (§5.4 behaviour).
    sim_engine:
        Simulation engine for simulate-backend traces: ``"vectorized"``
        (default) or ``"reference"``. The engines emit byte-identical
        traces (the golden corpus enforces it), so this is a
        speed/auditability knob, not a fidelity one.
    """

    passes: Tuple = DEFAULT_PASSES
    iterations: int = 2
    backend: object = "simulate"
    granularity: Optional[int] = None
    event_budget: Optional[int] = None
    trace_duration: float = 3.0
    trace_warmup: float = 0.5
    memory_bytes: Optional[float] = None
    allocate_remaining: bool = True
    sim_engine: str = "vectorized"

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.granularity is not None and self.granularity < 1:
            raise ValueError(
                f"granularity must be >= 1, got {self.granularity}"
            )
        if self.event_budget is not None and self.event_budget < 1:
            raise ValueError("event_budget must be >= 1")
        if self.trace_duration <= 0:
            raise ValueError("trace_duration must be > 0")
        if not 0 <= self.trace_warmup < self.trace_duration:
            raise ValueError(
                "trace_warmup must be in [0, trace_duration)"
            )
        if self.memory_bytes is not None and not self.memory_bytes > 0:
            raise ValueError("memory_bytes must be > 0")
        if self.sim_engine not in ("vectorized", "reference"):
            raise ValueError(
                f"sim_engine must be 'vectorized' or 'reference', "
                f"got {self.sim_engine!r}"
            )

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "OptimizeSpec":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def with_overrides(self, **overrides) -> "OptimizeSpec":
        """A copy with every non-None override applied.

        The fold behind the call-level conveniences of
        :meth:`Plumber.optimize <repro.core.plumber.Plumber.optimize>`
        (``passes=``, ``iterations=``, ``allocate_remaining=``): ``None``
        means "inherit", anything else replaces the field.
        """
        changes = {k: v for k, v in overrides.items() if v is not None}
        return self.replace(**changes) if changes else self

    @property
    def backend_name(self) -> str:
        """The backend's registry name (objects report their ``name``)."""
        if isinstance(self.backend, str):
            return self.backend
        return getattr(self.backend, "name", type(self.backend).__name__)

    def _named_parts(self, what: str) -> Tuple[Tuple[str, ...], str]:
        """Pass names + backend name, or raise when either is an object
        (object-valued specs have no stable serialized identity)."""
        names = []
        for p in self.passes:
            if not isinstance(p, str):
                raise TypeError(
                    f"a spec with pass objects has no {what}; register "
                    "the pass and refer to it by name"
                )
            names.append(p)
        if not isinstance(self.backend, str):
            raise TypeError(
                f"a spec with a backend object has no {what}; register "
                "the backend and refer to it by name"
            )
        return tuple(names), self.backend

    # ------------------------------------------------------------------
    def cache_token(self) -> dict:
        """Canonical JSON-compatible identity for result caching.

        Two specs produce the same token iff every field that can change
        an optimization result is equal — the batch service hashes this
        (with the pipeline signature and machine fingerprint) into its
        result-cache key.
        """
        passes, backend = self._named_parts("cache token")
        return {
            "schema": STORE_SCHEMA_VERSION,
            "passes": list(passes),
            "iterations": self.iterations,
            "backend": backend,
            "granularity": self.granularity,
            "event_budget": self.event_budget,
            "trace_duration": self.trace_duration,
            "trace_warmup": self.trace_warmup,
            "memory_bytes": self.memory_bytes,
            "allocate_remaining": self.allocate_remaining,
            "sim_engine": self.sim_engine,
        }

    def to_dict(self) -> dict:
        """Serialize for the worker-process hop (JSON-compatible)."""
        return self.cache_token()

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizeSpec":
        """Rebuild a spec serialized with :meth:`to_dict`."""
        return cls(
            passes=tuple(data["passes"]),
            iterations=data["iterations"],
            backend=data["backend"],
            granularity=data["granularity"],
            event_budget=data["event_budget"],
            trace_duration=data["trace_duration"],
            trace_warmup=data["trace_warmup"],
            memory_bytes=data["memory_bytes"],
            allocate_remaining=data["allocate_remaining"],
            # absent in payloads serialized before the engine knob existed
            sim_engine=data.get("sim_engine", "vectorized"),
        )
