"""Fleet-scale batch optimization service.

The paper's fleet study (§3) analyzes tens of thousands of jobs, but
``Plumber.optimize`` drives one pipeline at a time. This module scales
the trace→analyze→optimize loop to a *fleet* of named pipelines:

* a :class:`BatchOptimizer` fans jobs out across a
  :mod:`concurrent.futures` worker pool (threads, processes, or inline),
* a **signature-keyed result cache** collapses structurally identical
  jobs — production fleets re-launch the same training program
  constantly — so each distinct (pipeline, machine, optimizer spec) is
  optimized exactly once,
* results are stored as serialized pipeline programs
  (:mod:`repro.graph.serialize`: "all Plumber traces are also valid
  programs"), keyed by :func:`repro.graph.signature.structural_signature`,
  :meth:`repro.host.machine.Machine.fingerprint`, and
  :meth:`repro.core.spec.OptimizeSpec.cache_token`,
* a :class:`FleetOptimizationReport` aggregates per-job speedups, the
  bottleneck histogram, and the cache hit rate, reusing the fleet
  analysis helpers and the plain-text table renderer.

One :class:`~repro.core.spec.OptimizeSpec` is the whole optimizer
configuration: the service holds a default spec, each job may carry its
own, and the effective per-job spec is both what the worker runs and the
cache identity — an analytic trace can never masquerade as a simulated
one, and two jobs share work iff nothing that could change the result
differs.

The simulator is deterministic, so a worker-pool run is bit-identical to
optimizing each job serially with the same spec — tested, and the
property that makes result caching sound.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_table
from repro.core.passes import resolve_passes
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.fleet.analysis import (
    SpeedupStats,
    bottleneck_histogram,
    merge_degraded_sections,
    merged_cache_counts,
    speedup_distribution,
)
from repro.graph.datasets import Pipeline
from repro.graph.serialize import pipeline_from_json, pipeline_to_json
from repro.graph.signature import structural_signature
from repro.host.machine import Machine
from repro.obs import MetricsRegistry
from repro.runtime.backends import resolve_backend
from repro.service.store import InMemoryStore, ResultStore
from repro.util import canonical_hash


@dataclass(frozen=True)
class OptimizationJob:
    """One named unit of work for the batch service.

    ``machine`` may be ``None`` (use the service's default machine).
    ``spec`` overrides the service-wide :class:`OptimizeSpec` for this
    job only (``None`` = inherit): a µs-cost NLP job can run coarse-
    chunked or fully analytic while the rest of the fleet keeps the
    default simulator.
    """

    name: str
    pipeline: Pipeline
    machine: Optional[Machine]
    spec: Optional[OptimizeSpec] = None


def parse_jobs(
    jobs: Union[Mapping[str, Pipeline], Sequence],
) -> List[OptimizationJob]:
    """Parse a job batch into :class:`OptimizationJob` objects.

    The one parser behind :meth:`BatchOptimizer.optimize_fleet`,
    :func:`repro.service.client.fleet_to_body` and
    :mod:`repro.service.shard`, so a batch is accepted or rejected the
    same way wherever it is sent. It accepts exactly
    ``{name: pipeline}`` mappings, ``(name, pipeline[, machine])``
    tuples, and objects with ``name``/``pipeline`` attributes and
    optional ``machine``/``spec`` ones (e.g.
    :class:`repro.fleet.generator.FleetPipeline`). Anything else raises
    :class:`ValueError`. Jobs keep ``machine=None`` and ``spec=None``
    when the entry gives none. Duplicate names are left to the
    consumer (the daemon answers them with a 400).
    """
    entries = list(jobs.items()) if isinstance(jobs, Mapping) else jobs
    parsed: List[OptimizationJob] = []
    for entry in entries:
        if isinstance(entry, tuple):
            if not 2 <= len(entry) <= 3:
                raise ValueError(
                    "job tuples are (name, pipeline[, machine]), got "
                    f"{len(entry)} elements; carry per-job settings in "
                    "an OptimizeSpec instead"
                )
            name, pipeline, machine = entry + (None,) * (3 - len(entry))
            spec = None
        elif hasattr(entry, "name") and hasattr(entry, "pipeline"):
            name, pipeline = entry.name, entry.pipeline
            machine = getattr(entry, "machine", None)
            spec = getattr(entry, "spec", None)
        else:
            raise ValueError(
                f"unrecognized job entry {entry!r}: jobs are "
                "(name, pipeline[, machine]) tuples or objects with "
                "name/pipeline attributes"
            )
        if not isinstance(name, str):
            raise ValueError(f"job names must be strings, got {name!r}")
        if not isinstance(pipeline, Pipeline):
            raise ValueError(f"job {name!r}: pipeline is not a Pipeline")
        if machine is not None and not isinstance(machine, Machine):
            raise ValueError(f"job {name!r}: machine is not a Machine")
        if spec is not None and not isinstance(spec, OptimizeSpec):
            raise ValueError(f"job {name!r}: spec is not an OptimizeSpec")
        parsed.append(OptimizationJob(name, pipeline, machine, spec))
    return parsed


@dataclass(frozen=True)
class JobResult:
    """Outcome of optimizing one fleet job.

    The rewritten pipeline is carried as its serialized program
    (JSON text) — the form the result store keeps — and materialized on
    demand.
    """

    name: str
    signature: str
    cache_hit: bool
    baseline_throughput: float
    optimized_throughput: float
    predicted_throughput: float
    bottleneck: str
    decisions: Tuple[str, ...]
    pipeline_json: str
    #: the full result-cache identity (signature + machine fingerprint +
    #: spec token, hashed); shard-merge dedups distinct optimizations by
    #: this, not the structural signature alone
    cache_key: str = ""
    #: the stored entry's provenance (producer backend, spec token,
    #: caller-injected timestamp), when the store recorded one
    provenance: Optional[dict] = None

    @property
    def speedup(self) -> float:
        """Observed optimized / baseline throughput."""
        if not self.baseline_throughput > 0:
            return math.nan
        return self.optimized_throughput / self.baseline_throughput

    @property
    def pipeline(self) -> Pipeline:
        """The rewritten pipeline, rebuilt from its serialized program.

        On a cache hit ``pipeline_json`` is the cache representative's
        program (possibly stamped from a different template name), so
        the rebuilt pipeline is renamed after this job.
        """
        pipe = pipeline_from_json(self.pipeline_json)
        pipe.name = self.name
        return pipe


@dataclass
class FleetOptimizationReport:
    """Aggregated outcome of one :meth:`BatchOptimizer.optimize_fleet`.

    ``degraded`` is ``None`` for a fault-free run; a sharded dispatch
    that survived host failures records them here (failed shards,
    re-homed jobs, retry counts — see
    :func:`repro.fleet.analysis.merge_degraded_sections` for the
    schema). Every submitted job still appears in ``jobs`` exactly
    once; ``degraded`` says what it took to get them all.
    """

    jobs: List[JobResult]
    cache_hits: int
    cache_misses: int
    degraded: Optional[dict] = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of jobs served from the signature cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def job(self, name: str) -> JobResult:
        """Look up one job's result by name."""
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(f"no job named {name!r}")

    @classmethod
    def merge(
        cls, reports: Iterable["FleetOptimizationReport"]
    ) -> "FleetOptimizationReport":
        """Merge per-shard reports into one fleet-wide report.

        Jobs are concatenated in the given order. The cache arithmetic
        is **deduplicated**, not summed: when the same cache key was a
        miss in two shards (each shard computed it independently), the
        merged report counts one distinct optimization and credits the
        surplus computation as a hit — the hit rate a single global
        cache would have reported. The dedup arithmetic lives in
        :func:`repro.fleet.analysis.merged_cache_counts`.
        """
        reports = list(reports)
        jobs = [j for r in reports for j in r.jobs]
        hits, misses = merged_cache_counts(
            # Pre-store results may lack a cache_key; fall back to the
            # structural signature, the dominant term of the key.
            (j.cache_key or j.signature, j.cache_hit) for j in jobs
        )
        return cls(
            jobs=jobs, cache_hits=hits, cache_misses=misses,
            degraded=merge_degraded_sections(
                r.degraded for r in reports),
        )

    def speedups(self) -> SpeedupStats:
        """Distribution of per-job observed speedups."""
        return speedup_distribution(j.speedup for j in self.jobs)

    def bottlenecks(self) -> Dict[str, int]:
        """Histogram of binding constraints across the fleet."""
        return bottleneck_histogram(j.bottleneck for j in self.jobs)

    def to_table(self) -> str:
        """Per-job plain-text table (name, speedup, bottleneck, cache)."""
        rows = [
            (
                j.name,
                f"{j.baseline_throughput:.2f}",
                f"{j.optimized_throughput:.2f}",
                f"{j.speedup:.2f}x",
                j.bottleneck,
                "hit" if j.cache_hit else "miss",
            )
            for j in self.jobs
        ]
        return format_table(
            ("job", "baseline mb/s", "optimized mb/s", "speedup",
             "bottleneck", "cache"),
            rows,
            title=f"Fleet optimization — {len(self.jobs)} jobs, "
                  f"{self.cache_hit_rate:.0%} cache hits",
        )

    def summary_table(self) -> str:
        """Fleet-level aggregate table."""
        stats = self.speedups()
        rows = [
            ("jobs", len(self.jobs)),
            ("distinct optimizations", self.cache_misses),
            ("cache hit rate", f"{self.cache_hit_rate:.0%}"),
            ("speedup geomean", f"{stats.geomean:.2f}x"),
            ("speedup median", f"{stats.median:.2f}x"),
            ("speedup max", f"{stats.maximum:.2f}x"),
        ]
        rows.extend(
            (f"bottleneck: {label}", count)
            for label, count in self.bottlenecks().items()
        )
        if self.degraded is not None:
            rows.append(("failed shards",
                         len(self.degraded.get("failed_shards", ()))))
            rows.append(("re-homed jobs",
                         len(self.degraded.get("rehomed_jobs", {}))))
        return format_table(("metric", "value"), rows,
                            title="Fleet optimization summary")


# ----------------------------------------------------------------------
# Worker entry point — module-level so process pools can pickle it.
# ----------------------------------------------------------------------
def _optimize_job(
    pipeline: Pipeline, machine: Machine, spec: OptimizeSpec
) -> dict:
    """Run one optimization and return the JSON-compatible result the
    store keeps.

    A process pool pickles the arguments; serial and thread pools pass
    the job's own objects. The optimizer rewrites clones, so the input
    pipeline is never changed (stamped fleets share it across jobs).
    """
    result = Plumber(machine, spec=spec).optimize(pipeline)
    return {
        "pipeline": pipeline_to_json(result.pipeline),
        "decisions": list(result.decisions),
        "predicted_throughput": result.predicted_throughput,
        "baseline_throughput": result.baseline_throughput,
        "optimized_throughput": result.model.observed_throughput,
        "bottleneck": result.bottleneck,
        # Which backend produced the final (certifying) trace.
        "producer": getattr(result.model.trace, "backend", spec.backend_name),
    }


class BatchOptimizer:
    """Optimize a fleet of named pipelines through a worker pool.

    Parameters
    ----------
    machine:
        Default host for jobs submitted without one.
    executor:
        ``"thread"`` (default), ``"process"``, or ``"serial"``. Results
        are identical across all three — the simulator is deterministic.
        A process pool pickles each job's pipeline, machine and spec.
        The simulation is pure Python, so only ``"process"`` buys real
        CPU parallelism; ``"thread"`` mostly overlaps with the GIL and
        is the safe default because the signature cache, not the pool,
        does the heavy lifting on fleets with duplicate structure.
    max_workers:
        Pool width (ignored for ``"serial"``).
    spec:
        The service-wide :class:`~repro.core.spec.OptimizeSpec`. Every
        job is optimized with this spec unless it carries its own; the
        effective per-job spec is part of that job's cache key. The
        spec's ``passes`` and ``backend`` must be registry *names*: the
        spec's cache token is computed from them.
    store:
        Where keyed result entries live: any
        :class:`~repro.service.store.ResultStore`. Defaults to a fresh
        :class:`~repro.service.store.InMemoryStore` (the pre-store
        behaviour). Pass a :class:`~repro.service.store.DiskStore` to
        make results survive process restarts — a second service process
        pointed at the same directory serves an unchanged fleet almost
        entirely from cache.
    clock:
        Zero-argument callable stamping each stored entry's provenance
        timestamp (``time.time`` by default). The caller injects it so
        stores never reach for wall-clock themselves.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        spec: Optional[OptimizeSpec] = None,
        store: Optional[ResultStore] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if executor not in ("serial", "thread", "process"):
            raise ValueError(
                f"executor must be serial/thread/process, got {executor!r}"
            )
        self.machine = machine
        self.executor = executor
        self.max_workers = max_workers
        self.spec = spec if spec is not None else OptimizeSpec()
        self._validate_spec(self.spec, "service")
        #: persistent signature-keyed result store (survives across
        #: optimize_fleet calls on this instance; with a DiskStore, also
        #: across processes)
        self.store: ResultStore = store if store is not None else InMemoryStore()
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        #: cumulative cache accounting across every call on this
        #: instance (the daemon's /stats source); guarded by a lock —
        #: the daemon drives one optimizer from several dispatcher
        #: threads
        self.total_cache_hits = 0
        self.total_cache_misses = 0
        self._stats_lock = threading.Lock()
        #: instance-owned metrics (job latency, hit/miss, pool depth);
        #: snapshots travel in ``stats()["metrics"]`` so a remote shard's
        #: numbers merge into fleet-wide aggregates
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_spec(spec: OptimizeSpec, owner: str) -> None:
        """Service specs must be keyable: named backend + named passes.

        Both names are resolved here so an unknown name fails at
        construction/submission time with the owner's context, not deep
        inside a worker pool.
        """
        if not isinstance(spec.backend, str):
            raise TypeError(
                f"{owner} backend must be a registered backend name "
                "(it is part of the result-cache key)"
            )
        resolve_backend(spec.backend)  # fail fast on unknown names
        for p in spec.passes:
            if not isinstance(p, str):
                raise TypeError(
                    f"{owner} passes must be registered pass names "
                    "(they are part of the result-cache key)"
                )
        resolve_passes(spec.passes)  # fail fast on unknown names

    def _normalize(
        self,
        jobs: Union[Mapping[str, Pipeline], Sequence],
    ) -> List[OptimizationJob]:
        """Parse a batch (:func:`parse_jobs`) and resolve each job's
        machine and *effective* spec: its own, or the service default.
        """
        normalized: List[OptimizationJob] = []
        seen: set = set()
        for job in parse_jobs(jobs):
            if job.name in seen:
                raise ValueError(f"duplicate job name {job.name!r}")
            seen.add(job.name)
            machine = job.machine or self.machine
            if machine is None:
                raise ValueError(
                    f"job {job.name!r} has no machine and the service has "
                    "no default machine"
                )
            spec = job.spec if job.spec is not None else self.spec
            try:
                self._validate_spec(spec, f"job {job.name!r}")
            except ValueError as exc:
                raise ValueError(f"job {job.name!r}: {exc}") from None
            normalized.append(
                OptimizationJob(job.name, job.pipeline, machine, spec)
            )
        return normalized

    def _cache_key(self, signature: str, machine: Machine,
                   spec: OptimizeSpec) -> str:
        """One result-cache identity: what was optimized (structural
        signature), where (machine fingerprint), and how (the spec)."""
        return canonical_hash({
            "signature": signature,
            "machine": machine.fingerprint(),
            "spec": spec.cache_token(),
        })

    def _make_pool(self) -> Optional[Executor]:
        if self.executor == "thread":
            return ThreadPoolExecutor(max_workers=self.max_workers)
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        return None

    # ------------------------------------------------------------------
    def optimize_fleet(
        self,
        jobs: Union[Mapping[str, Pipeline], Sequence],
    ) -> FleetOptimizationReport:
        """Optimize every job, deduplicating by structural signature.

        Jobs whose (pipeline signature, machine fingerprint, optimizer
        spec) key was already optimized — in this call, any earlier call
        on this instance, or (with a persistent store) any earlier
        *process* — reuse the stored result and are reported as cache
        hits. Distinct keys run concurrently on the worker pool; per-job
        results are identical to serial ``Plumber.optimize``.
        """
        fleet_started = self.metrics.clock()
        work = self._normalize(jobs)
        keyed: List[Tuple[OptimizationJob, str, str]] = []
        # Fleet jobs stamped from one template share the Pipeline object;
        # hash each distinct object once, not once per job.
        sig_by_id: Dict[int, str] = {}
        for job in work:
            sig = sig_by_id.get(id(job.pipeline))
            if sig is None:
                sig = structural_signature(job.pipeline)
                sig_by_id[id(job.pipeline)] = sig
            keyed.append(
                (job, sig, self._cache_key(sig, job.machine, job.spec))
            )

        # Resolve each distinct key once: from the store when an intact
        # entry exists, otherwise as a pool task running the exact spec
        # the cache key hashed.
        entries: Dict[str, dict] = {}
        pending: Dict[str, OptimizationJob] = {}
        for job, _sig, key in keyed:
            if key in entries or key in pending:
                continue
            entry = self.store.get(key)
            if entry is not None and isinstance(entry.get("result"), dict):
                entries[key] = entry
                continue
            pending[key] = job

        if pending:
            clock = self.metrics.clock
            depth = self.metrics.gauge(
                "repro_service_pool_pending",
                "Distinct optimizations awaiting a pool worker",
            )
            job_seconds = self.metrics.histogram(
                "repro_service_job_seconds",
                "Per-distinct-optimization wallclock (submit to result), "
                "by backend",
            )

            depth.set(len(pending))
            pool = self._make_pool()
            if pool is None:
                computed = {}
                for key, job in pending.items():
                    start = clock()
                    computed[key] = _optimize_job(
                        job.pipeline, job.machine, job.spec
                    )
                    job_seconds.labels(
                        backend=job.spec.backend
                    ).observe(clock() - start)
                    depth.dec()
            else:
                with pool:
                    started = clock()
                    futures = {
                        key: pool.submit(
                            _optimize_job, job.pipeline, job.machine, job.spec
                        )
                        for key, job in pending.items()
                    }
                    computed = {}
                    for key, future in futures.items():
                        computed[key] = future.result()
                        # Pool jobs overlap, so per-key elapsed time is
                        # submit-to-result (queueing included) — the
                        # latency a caller actually experiences.
                        job_seconds.labels(
                            backend=pending[key].spec.backend
                        ).observe(clock() - started)
                        depth.dec()
            fresh_entries = {
                key: {
                    "result": result,
                    "provenance": {
                        "producer": result.get("producer"),
                        "spec": pending[key].spec.to_dict(),
                        "created_at": self._clock(),
                    },
                }
                for key, result in computed.items()
            }
            # One commit for the whole batch: a DiskStore pays one fsync
            # per group of up to 8 entries.
            self.store.put_many(fresh_entries)
            entries.update(fresh_entries)

        results: List[JobResult] = []
        hits = misses = 0
        fresh = set(pending)
        for job, sig, key in keyed:
            cached = entries[key]["result"]
            is_hit = key not in fresh
            if is_hit:
                hits += 1
            else:
                misses += 1
                fresh.discard(key)  # later jobs with this key are hits
            results.append(
                JobResult(
                    name=job.name,
                    signature=sig,
                    cache_hit=is_hit,
                    baseline_throughput=cached["baseline_throughput"],
                    optimized_throughput=cached["optimized_throughput"],
                    predicted_throughput=cached["predicted_throughput"],
                    bottleneck=cached["bottleneck"],
                    decisions=tuple(cached["decisions"]),
                    pipeline_json=cached["pipeline"],
                    cache_key=key,
                    provenance=entries[key].get("provenance"),
                )
            )
        with self._stats_lock:
            self.total_cache_hits += hits
            self.total_cache_misses += misses
        jobs_total = self.metrics.counter(
            "repro_service_jobs_total",
            "Fleet jobs served, by cache outcome",
        )
        if hits:
            jobs_total.labels(result="hit").inc(hits)
        if misses:
            jobs_total.labels(result="miss").inc(misses)
        self.metrics.histogram(
            "repro_service_fleet_seconds",
            "optimize_fleet wallclock per call",
        ).observe(self.metrics.clock() - fleet_started)
        return FleetOptimizationReport(
            jobs=results, cache_hits=hits, cache_misses=misses
        )

    def stats(self) -> dict:
        """Cumulative cache accounting across this instance's lifetime.

        ``metrics`` is the full instrument snapshot (bucket state
        included), so per-shard ``stats()`` responses can be merged into
        one fleet-wide latency distribution downstream.
        """
        with self._stats_lock:
            hits, misses = self.total_cache_hits, self.total_cache_misses
        total = hits + misses
        return {
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / total if total else 0.0,
            "store_entries": len(self.store),
            "metrics": self.metrics.as_dict(),
        }

    def compact_store(self, max_age_seconds: float,
                      now: Optional[float] = None) -> int:
        """Garbage-collect stored results by provenance age.

        Evicts every store entry whose ``provenance.created_at`` is at
        least ``max_age_seconds`` older than ``now`` (the service's
        injected clock by default — the same clock that stamped the
        entries). Returns the number of entries removed. Requires a
        store with a ``compact`` method (both built-ins have one);
        raises :class:`TypeError` otherwise.
        """
        compact = getattr(self.store, "compact", None)
        if not callable(compact):
            raise TypeError(
                f"store {type(self.store).__name__} does not support "
                "compaction (no compact method)"
            )
        return compact(
            max_age_seconds,
            now=self._clock() if now is None else now,
        )

    def optimize_one(self, name: str, pipeline: Pipeline,
                     machine: Optional[Machine] = None,
                     spec: Optional[OptimizeSpec] = None) -> JobResult:
        """Optimize a single named pipeline through the same cache."""
        job = OptimizationJob(name, pipeline, machine or self.machine,
                              spec=spec)
        return self.optimize_fleet([job]).jobs[0]
