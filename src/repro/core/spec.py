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
#: layout this code no longer understands. Version 3: passes plan
#: against the analytic model, so a simulate spec's decisions and
#: predicted throughput for the same token differ from version 2's.
#: Version 4: a disk document holds a group of up to 8 entries,
#: ``{"entries": {key: entry, ...}}`` one entry per line, not one
#: ``"entry"``.
STORE_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class OptimizeSpec:
    """One optimization run's full configuration.

    Parameters
    ----------
    passes:
        Optimizer passes, in order. Entries are registry names
        (strings) or :class:`~repro.core.passes.OptimizerPass` objects;
        the batch service requires names (its result-cache key is
        computed from them).
    iterations:
        Pass-pipeline iterations (the paper runs two "so that the
        estimated rates more closely reflect the final pipeline's
        performance").
    backend:
        Trace acquisition backend: a registered name (``"simulate"``,
        ``"analytic"``) or a backend object. Passes always plan against
        the analytic model; this backend measures the input and certifies
        the final program (with ``"analytic"`` the planning traces are
        the certificate). The service requires a name for the same
        serialization reason as passes.
    granularity / event_budget:
        Chunk size per source request, or (when unset) the event budget
        the granularity auto-tuner targets.
    trace_duration / trace_warmup:
        Virtual seconds of tracing per iteration and the warmup window
        trimmed from measurements.
    memory_bytes:
        Ceiling for the cache planner's :class:`~repro.host.memory.
        MemoryBudget` (``None`` = the traced machine's memory).
    """

    passes: Tuple = DEFAULT_PASSES
    iterations: int = 2
    backend: object = "simulate"
    granularity: Optional[int] = None
    event_budget: Optional[int] = None
    trace_duration: float = 3.0
    trace_warmup: float = 0.5
    memory_bytes: Optional[float] = None

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

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "OptimizeSpec":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

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
        }

    def to_dict(self) -> dict:
        """Serialize for the HTTP wire and stored provenance
        (JSON-compatible)."""
        return self.cache_token()

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizeSpec":
        """Rebuild a spec serialized with :meth:`to_dict`.

        Every field is required and no other key is accepted (``schema``
        aside, which :meth:`to_dict` writes): a ``ValueError`` names the
        missing and unknown keys, so a client sending a field this
        version does not have is told instead of silently ignored.
        """
        fields = [f.name for f in dataclasses.fields(cls)]
        missing = [k for k in fields if k not in data]
        unknown = sorted(set(data) - set(fields) - {"schema"})
        if missing or unknown:
            raise ValueError(
                f"spec keys: missing {missing}, unknown {unknown}"
            )
        return cls(**{k: data[k] for k in fields})
