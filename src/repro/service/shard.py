"""Elastic, fault-tolerant sharding of fleet job batches across hosts.

A fleet batch too large for one service process is split across logical
hosts by **structural-signature consistent hashing**: every job whose
pipeline is structurally identical lands on the same shard, so the
per-shard result caches dedup exactly as well as one global cache would
— no two shards ever optimize the same (pipeline, machine, spec) key.
Placement routes through a virtual-node :class:`~repro.service.ring.
HashRing` keyed by host id, so it is stable across processes, hosts,
and runs, *and* elastic: a host joining or leaving moves only ~K/N of K
signatures instead of rehashing the world.

A shard is **anything** with ``optimize_fleet(jobs)`` + ``stats()``: an
in-process :class:`~repro.service.batch.BatchOptimizer`, or a
:class:`~repro.service.client.RemoteShard` bound to a daemon URL — the
latter turns :class:`ShardedOptimizer` into a multi-process, multi-host
front-end dispatching over HTTP. Shards are dispatched **concurrently**
(one thread per occupied shard) under a per-shard deadline, so fleet
wallclock is the slowest shard, not the sum — and a dead shard can no
longer hang the batch forever.

**Failover.** A shard that fails *retryably* — unreachable, timed out,
or saturated (:mod:`repro.service.errors`) — is dropped from the
batch's working ring and its jobs are re-homed to the surviving hosts,
up to ``max_redispatch`` rounds. The merged
:class:`~repro.service.batch.FleetOptimizationReport` then carries a
``degraded`` section naming the failed hosts, the re-homed jobs, and
the retry counts; a zero-fault batch carries none, byte-identically to
the pre-failover report. Non-retryable failures (a bad batch fails the
same way on every host) raise :class:`~repro.service.errors.
ShardDispatchError` carrying **every** shard's outcome — no secondary
failure is silently dropped.

**Membership.** Hosts whose readiness probes (``check_ready``, when the
shard offers one) fail ``quarantine_after`` consecutive times are
quarantined out of the routing ring; quarantined hosts are re-probed at
the start of each batch and re-admitted the moment they recover.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.fleet.analysis import merge_degraded_sections
from repro.graph.signature import structural_signature
from repro.obs import MetricsRegistry, merge_snapshots
from repro.service.batch import (
    FleetOptimizationReport,
    OptimizationJob,
    parse_jobs,
)
from repro.service.errors import (
    ShardDispatchError,
    ShardFailure,
    ShardTimeout,
)
from repro.service.ring import DEFAULT_VNODES, HashRing, default_host_ids

__all__ = ["shard_fleet", "ShardedOptimizer"]


def _signed(jobs: List[OptimizationJob]) -> List[str]:
    """Each job's structural signature, in order. Stamped fleets share
    Pipeline objects, so each distinct object is hashed once."""
    sig_by_id: Dict[int, str] = {}
    for job in jobs:
        if id(job.pipeline) not in sig_by_id:
            sig_by_id[id(job.pipeline)] = structural_signature(job.pipeline)
    return [sig_by_id[id(job.pipeline)] for job in jobs]


def shard_fleet(
    jobs: Union[Mapping[str, object], Sequence],
    num_shards: int,
    vnodes: int = DEFAULT_VNODES,
) -> List[List]:
    """Partition a job batch into ``num_shards`` signature-affine shards.

    The batch is parsed by :func:`~repro.service.batch.parse_jobs`, so
    it accepts and rejects exactly what
    :meth:`~repro.service.batch.BatchOptimizer.optimize_fleet` does, at
    any shard count. Placement routes through a consistent-hash ring
    over :func:`~repro.service.ring.default_host_ids`, so shard ``i``
    holds the jobs host ``shard-i`` of an equally-sized
    :class:`ShardedOptimizer` would receive — deterministic across
    processes. Relative job order is preserved within each shard;
    entries keep their given form, and mappings shard as
    ``(name, pipeline)`` tuples. Empty shards are returned as empty
    lists so shard ``i`` always maps to logical host ``i``.
    """
    hosts = default_host_ids(num_shards)
    entries = list(jobs.items()) if isinstance(jobs, Mapping) else list(jobs)
    parsed = parse_jobs(entries)
    shards: List[List] = [[] for _ in range(num_shards)]
    if num_shards == 1:
        shards[0].extend(entries)
        return shards
    ring = HashRing(hosts, vnodes=vnodes)
    index = {host: i for i, host in enumerate(hosts)}
    for entry, sig in zip(entries, _signed(parsed)):
        shards[index[ring.host_for(sig)]].append(entry)
    return shards


class ShardedOptimizer:
    """Dispatch job batches concurrently across per-shard optimizers,
    surviving shard failures by re-homing work through the ring.

    Each shard is one logical host: anything exposing
    ``optimize_fleet(jobs) -> FleetOptimizationReport`` and
    ``stats() -> dict`` — an in-process
    :class:`~repro.service.batch.BatchOptimizer` (point each at a
    different ``DiskStore`` directory to model independent hosts) or a
    :class:`~repro.service.client.RemoteShard` talking HTTP to a daemon
    process. A batch is routed over the host ring, every occupied shard
    is dispatched on its own thread under ``shard_timeout``, retryable
    failures are re-dispatched to survivors, and the per-shard reports
    are merged into one fleet-wide :class:`FleetOptimizationReport`
    with deduplicated cache arithmetic. Job order in the merged report
    matches submission order.

    Parameters
    ----------
    optimizers:
        The shard hosts, positionally identified as ``shard-0`` … by
        default (stable ring ids across processes).
    hosts:
        Explicit host ids, one per optimizer (e.g. daemon URLs). Ids
        are the ring keys: keep them stable across runs or placement —
        and therefore per-host cache locality — changes.
    vnodes:
        Virtual nodes per host on the ring.
    shard_timeout:
        Per-dispatch deadline in seconds for **all** shards of one
        round (``None`` = wait forever, the legacy behaviour). A shard
        that misses it is abandoned, counted as a
        :class:`~repro.service.errors.ShardTimeout`, and its jobs
        re-homed.
    max_redispatch:
        How many re-homing rounds one batch may use before giving up
        with :class:`~repro.service.errors.ShardDispatchError`.
    quarantine_after:
        Consecutive probe/dispatch failures after which a host is
        quarantined out of the routing ring. Quarantined hosts are
        re-probed at the start of every batch (and by :meth:`probe`)
        and re-admitted on recovery.
    probe_timeout:
        Per-probe timeout passed to shards exposing
        ``check_ready(timeout=...)`` — much shorter than a request
        timeout, so a dead host costs milliseconds, not 30 s.
    monotonic:
        Injectable monotonic clock for the dispatch-deadline arithmetic
        (and this instance's metric timers), matching the ``clock=`` /
        ``monotonic=`` convention of the client and daemon. Note the
        deadline *wait* itself (``future.result(timeout=...)``) still
        runs on real time — a fake clock jumped past the deadline makes
        the remaining budget 0 and times the shard out immediately,
        which is exactly what deadline tests need.
    """

    def __init__(
        self,
        optimizers: Sequence,
        *,
        hosts: Optional[Sequence[str]] = None,
        vnodes: int = DEFAULT_VNODES,
        shard_timeout: Optional[float] = 900.0,
        max_redispatch: int = 2,
        quarantine_after: int = 3,
        probe_timeout: float = 2.0,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        if not optimizers:
            raise ValueError("need at least one shard optimizer")
        for opt in optimizers:
            if not callable(getattr(opt, "optimize_fleet", None)) or \
                    not callable(getattr(opt, "stats", None)):
                raise TypeError(
                    f"shard {opt!r} does not satisfy the shard contract "
                    "(optimize_fleet + stats); pass BatchOptimizer or "
                    "RemoteShard instances"
                )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.optimizers = tuple(optimizers)
        if hosts is None:
            hosts = default_host_ids(len(optimizers))
        hosts = tuple(hosts)
        if len(hosts) != len(optimizers):
            raise ValueError(
                f"{len(hosts)} host ids for {len(optimizers)} optimizers"
            )
        if len(set(hosts)) != len(hosts):
            raise ValueError("host ids must be unique")
        self.hosts = hosts
        self.shard_timeout = shard_timeout
        self.max_redispatch = max_redispatch
        self.quarantine_after = quarantine_after
        self.probe_timeout = probe_timeout
        self._by_host: Dict[str, object] = dict(zip(hosts, optimizers))
        self._ring = HashRing(hosts, vnodes=vnodes)
        self._failures: Dict[str, int] = {h: 0 for h in hosts}
        self._quarantined: set = set()
        self._membership_lock = threading.Lock()
        self._monotonic = monotonic
        #: front-end-owned instruments (dispatch latency, failover
        #: counters); ``stats()`` merges these with every reachable
        #: shard's own snapshot
        self.metrics = MetricsRegistry(clock=monotonic)

    @property
    def num_shards(self) -> int:
        return len(self.optimizers)

    @property
    def ring(self) -> HashRing:
        """The live routing ring (quarantined hosts excluded)."""
        return self._ring

    @property
    def quarantined(self) -> Tuple[str, ...]:
        with self._membership_lock:
            return tuple(sorted(self._quarantined))

    # -- health-probe-driven membership --------------------------------
    def _probe_host(self, host: str,
                    timeout: Optional[float] = None) -> bool:
        """One readiness probe; shards without ``check_ready`` fall
        back to ``stats()`` (reachable == healthy)."""
        opt = self._by_host[host]
        timeout = timeout if timeout is not None else self.probe_timeout
        probe = getattr(opt, "check_ready", None)
        try:
            if callable(probe):
                probe(timeout=timeout)
            else:
                opt.stats()
            return True
        except Exception:  # noqa: BLE001 - any probe fault = unhealthy
            return False

    def _note_success(self, host: str) -> None:
        readmitted = False
        with self._membership_lock:
            self._failures[host] = 0
            if host in self._quarantined:
                self._quarantined.discard(host)
                if host not in self._ring:
                    self._ring.add(host)
                readmitted = True
        if readmitted:
            self.metrics.counter(
                "repro_shard_readmissions_total",
                "Quarantined hosts re-admitted after a healthy probe",
            ).labels(host=host).inc()

    def _note_failure(self, host: str) -> None:
        quarantined = False
        with self._membership_lock:
            self._failures[host] += 1
            if self._failures[host] >= self.quarantine_after and \
                    host not in self._quarantined:
                self._quarantined.add(host)
                if host in self._ring:
                    self._ring.remove(host)
                quarantined = True
        if quarantined:
            self.metrics.counter(
                "repro_shard_quarantines_total",
                "Hosts quarantined out of the routing ring",
            ).labels(host=host).inc()

    def probe(self, timeout: Optional[float] = None) -> Dict[str, bool]:
        """Probe every host's readiness and update membership.

        Healthy answers reset the host's failure streak (re-admitting
        it if quarantined); failures extend the streak and quarantine
        the host at ``quarantine_after``. Returns ``{host: healthy}``.
        """
        results = {}
        for host in self.hosts:
            ok = self._probe_host(host, timeout)
            (self._note_success if ok else self._note_failure)(host)
            results[host] = ok
        return results

    def _readmit_recovered(self) -> None:
        """Re-probe quarantined hosts; recovered ones rejoin the ring."""
        with self._membership_lock:
            quarantined = sorted(self._quarantined)
        for host in quarantined:
            if self._probe_host(host):
                self._note_success(host)

    # -- dispatch -------------------------------------------------------
    @staticmethod
    def _assign(
        signed: Sequence[Tuple[OptimizationJob, str]], ring: HashRing
    ) -> Dict[str, List[Tuple[OptimizationJob, str]]]:
        assignment: Dict[str, List[Tuple[OptimizationJob, str]]] = {}
        for job, sig in signed:
            assignment.setdefault(ring.host_for(sig), []).append((job, sig))
        return assignment

    def _dispatch_round(
        self, pending: Dict[str, List[Tuple[OptimizationJob, str]]]
    ) -> Dict[str, object]:
        """Run one round concurrently; collect **every** shard's
        outcome (report or exception) under the dispatch deadline."""
        # One dispatcher thread per occupied shard: remote shards spend
        # their time blocked on HTTP, in-process shards on their own
        # pools, so fleet wallclock is the slowest shard, not the sum.
        pool = ThreadPoolExecutor(
            max_workers=len(pending),
            thread_name_prefix="repro-shard-dispatch",
        )
        futures = {
            host: pool.submit(
                self._by_host[host].optimize_fleet,
                [job for job, _sig in batch],
            )
            for host, batch in pending.items()
        }
        clock = self._monotonic
        started = clock()
        deadline = (None if self.shard_timeout is None
                    else started + self.shard_timeout)
        dispatch_seconds = self.metrics.histogram(
            "repro_shard_dispatch_seconds",
            "Dispatch-to-outcome wallclock per shard round, by host",
        )
        outcomes: Dict[str, object] = {}
        for host, future in futures.items():
            try:
                remaining = (None if deadline is None
                             else max(0.0, deadline - clock()))
                outcomes[host] = future.result(timeout=remaining)
            except FuturesTimeout:
                future.cancel()
                outcomes[host] = ShardTimeout(
                    host,
                    f"no report within the {self.shard_timeout}s "
                    "dispatch deadline",
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                outcomes[host] = exc
            dispatch_seconds.labels(host=host).observe(clock() - started)
        # Never block on abandoned (timed-out) dispatcher threads.
        pool.shutdown(wait=False, cancel_futures=True)
        return outcomes

    def optimize_fleet(
        self,
        jobs: Union[Mapping[str, object], Sequence],
    ) -> FleetOptimizationReport:
        """Route, optimize, fail over, and merge one batch."""
        parsed = parse_jobs(jobs)
        # Reject duplicate names up front: duplicates whose pipelines
        # hash to *different* shards would slip past the per-shard
        # check, silently diverging from BatchOptimizer on the same
        # input (and making the merged report's job() ambiguous).
        order: Dict[str, int] = {}
        for i, job in enumerate(parsed):
            if job.name in order:
                raise ValueError(f"duplicate job name {job.name!r}")
            order[job.name] = i
        self._readmit_recovered()
        with self._membership_lock:
            ring = self._ring.copy()
        if not len(ring):
            raise ShardDispatchError(
                "no healthy shard hosts (all "
                f"{self.num_shards} quarantined)"
            )
        pending = self._assign(list(zip(parsed, _signed(parsed))), ring)

        reports: List[FleetOptimizationReport] = []
        failed_shards: List[dict] = []
        rehomed: Dict[str, dict] = {}
        shard_errors: Dict[str, BaseException] = {}
        rounds = 0
        while pending:
            outcomes = self._dispatch_round(pending)
            retry: List[Tuple[OptimizationJob, str]] = []
            fatal: Dict[str, BaseException] = {}
            for host, batch in pending.items():
                outcome = outcomes[host]
                if isinstance(outcome, FleetOptimizationReport):
                    reports.append(outcome)
                    self._note_success(host)
                    for name in rehomed:
                        if rehomed[name].get("to") == host:
                            rehomed[name]["completed"] = True
                    continue
                exc = outcome
                shard_errors[host] = exc
                names = [job.name for job, _sig in batch]
                self.metrics.counter(
                    "repro_shard_failures_total",
                    "Shard dispatch failures, by host and failure kind",
                ).labels(host=host, kind=type(exc).__name__).inc()
                if isinstance(exc, ShardFailure) and exc.retryable:
                    self._note_failure(host)
                    if host in ring:
                        ring.remove(host)
                    failed_shards.append({
                        "host": host,
                        "kind": type(exc).__name__,
                        "error": str(exc),
                        "retryable": True,
                        "jobs": names,
                    })
                    for name in names:
                        record = rehomed.setdefault(
                            name, {"from": host, "attempts": 0})
                        record["attempts"] += 1
                    self.metrics.counter(
                        "repro_shard_rehomed_jobs_total",
                        "Jobs re-homed off a failed shard",
                    ).inc(len(names))
                    retry.extend(batch)
                else:
                    fatal[host] = exc
            if fatal:
                raise ShardDispatchError(
                    f"{len(shard_errors)} shard(s) failed during fleet "
                    "dispatch",
                    failures=shard_errors,
                )
            if not retry:
                break
            rounds += 1
            if rounds > self.max_redispatch:
                raise ShardDispatchError(
                    f"re-dispatch budget exhausted after "
                    f"{self.max_redispatch} round(s); "
                    f"{len(retry)} job(s) still unplaced",
                    failures=shard_errors,
                )
            if not len(ring):
                raise ShardDispatchError(
                    "no surviving hosts to re-home "
                    f"{len(retry)} job(s) onto",
                    failures=shard_errors,
                )
            pending = self._assign(retry, ring)
            for host, batch in pending.items():
                for job, _sig in batch:
                    rehomed[job.name]["to"] = host

        if rounds:
            self.metrics.counter(
                "repro_shard_redispatch_rounds_total",
                "Extra dispatch rounds spent re-homing failed batches",
            ).inc(rounds)
        merged = FleetOptimizationReport.merge(reports)
        # Restore submission order (merge concatenates shard by shard).
        merged.jobs.sort(key=lambda j: order[j.name])
        if failed_shards:
            merged.degraded = merge_degraded_sections([
                merged.degraded,
                {
                    "failed_shards": failed_shards,
                    "rehomed_jobs": rehomed,
                    "redispatch_rounds": rounds,
                },
            ])
        return merged

    def stats(self) -> dict:
        """Per-shard and fleet-wide cumulative cache accounting.

        An unreachable shard no longer fails the fleet-wide view: its
        entry carries ``{"error": ...}`` and the aggregates cover the
        reachable shards only.
        """
        shard_stats: List[dict] = []
        unreachable: List[str] = []
        for host in self.hosts:
            try:
                entry = dict(self._by_host[host].stats())
            except Exception as exc:  # noqa: BLE001 - report, don't raise
                entry = {"error": f"{type(exc).__name__}: {exc}"}
                unreachable.append(host)
            entry["host"] = host
            shard_stats.append(entry)
        reachable = [s for s in shard_stats if "error" not in s]
        hits = sum(s["cache_hits"] for s in reachable)
        misses = sum(s["cache_misses"] for s in reachable)
        total = hits + misses
        # Merge per-shard metric snapshots (histograms bucket-wise) with
        # the router's own registry into one fleet-wide snapshot.
        snapshots = [self.metrics.as_dict()]
        snapshots.extend(
            s["metrics"] for s in reachable
            if isinstance(s.get("metrics"), dict)
        )
        return {
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / total if total else 0.0,
            "store_entries": sum(s["store_entries"] for s in reachable),
            "shards": shard_stats,
            "unreachable_shards": unreachable,
            "quarantined_shards": list(self.quarantined),
            "metrics": merge_snapshots(snapshots),
        }
