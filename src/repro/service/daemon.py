"""Long-running HTTP front-end for the batch optimization service.

The paper's premise is that pipeline optimization should be a cheap,
repeatable *service*, not a one-off tuning session. This module turns
:class:`~repro.service.batch.BatchOptimizer` into one: a stdlib
``http.server`` daemon that accepts fleets (or single jobs) as
serialized programs, runs them on the existing pool machinery in the
background, and serves results and cache statistics over four
endpoints:

* ``POST /optimize`` — submit a batch. Body: ``{"jobs": [{"name",
  "pipeline", "machine"?, "spec"?}, ...], "spec"?: {...}}`` where
  ``pipeline`` is a serialized program
  (:func:`repro.graph.serialize.pipeline_to_dict`), ``machine`` a
  :meth:`~repro.host.machine.Machine.to_dict` mapping, and ``spec`` an
  :meth:`~repro.core.spec.OptimizeSpec.to_dict` mapping. A bare
  ``{"name", "pipeline", ...}`` object submits a single job. Returns
  ``202`` with a batch id, or ``429`` with a retry hint when admission
  control is saturated.
* ``GET /jobs/<id>`` — batch status (``queued``/``running``/``done``/
  ``failed``). With ``?wait=<seconds>`` the answer is a long-poll: it
  comes as soon as the batch is ``done`` or ``failed``, or once the
  wait (capped at :data:`MAX_STATUS_WAIT_SECONDS`) runs out, so a
  client learns of a finished batch without polling on a timer.
* ``GET /report/<id>`` — the finished batch's full
  :class:`FleetOptimizationReport` as JSON (rewritten programs
  included: all results are valid programs).
* ``GET /stats`` — cumulative cache hit rate, store size, queue depth,
  and per-lane in-flight counts.
* ``GET /healthz`` — pure liveness (the process answers HTTP).
* ``GET /ready`` — readiness: ``200 {"ready": true}`` when the
  dispatcher pool is accepting work and the result store is reachable,
  else ``503`` with a reason. Load balancers and
  :class:`~repro.service.client.RemoteShard` gate dispatch on this.
* ``POST /compact`` — garbage-collect the result store by provenance
  age. Body: ``{"max_age_seconds": <number>}``; every stored entry
  whose ``provenance.created_at`` is at least that old is evicted, so a
  long-lived daemon's store doesn't accumulate stale results forever.

Query strings are ignored for routing (``POST /optimize?src=ci`` routes
like ``POST /optimize``), and any unexpected error inside a handler
answers ``500`` with a JSON body instead of dropping the connection.

**Self-care and graceful drain.** With ``compact_interval_seconds``
set, a background sweep thread garbage-collects the store on its own
schedule (client ``POST /compact`` still works). ``close()`` — and
``SIGTERM``, via :meth:`OptimizationDaemon.install_sigterm_handler` —
drains instead of hard-stopping: ``/ready`` flips to 503 with a
``draining`` hint, new ``POST /optimize`` submissions are refused (503
+ ``"draining": true``), in-flight batches get up to the drain deadline
to finish while status/report endpoints keep answering, and only then
does the daemon stop. Load balancers and
:class:`~repro.service.shard.ShardedOptimizer` membership probes key
off the 503 to re-home traffic with zero dropped work.

**Admission control** bounds in-flight work *per lane*: jobs whose spec
names the ``analytic`` backend are microseconds of work and get a wide
lane; everything else (``simulate``, custom backends) pays for two
certifying traces and is bounded separately — one
µs-budget NLP fleet can't be starved behind a queue of simulate-backend
vision jobs, and simulate jobs can't monopolize the host (the
heterogeneous-fleet fairness item from ROADMAP).
"""

from __future__ import annotations

import itertools
import json
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.spec import OptimizeSpec
from repro.graph.serialize import pipeline_from_dict
from repro.host.machine import Machine
from repro.obs import (
    MetricsRegistry,
    global_registry,
    merge_snapshots,
    render_text,
    summarize_snapshot,
)
from repro.service.batch import (
    BatchOptimizer,
    FleetOptimizationReport,
    OptimizationJob,
)

#: admission lanes: closed-form analytic jobs vs anything that runs
#: the discrete-event simulator or a custom backend (simulate, custom)
ANALYTIC_LANE = "analytic"
SIMULATE_LANE = "simulate"

#: ceiling on one ``GET /jobs/<id>?wait=`` long-poll: a waiting request
#: holds one server thread, so no client can park it for longer
MAX_STATUS_WAIT_SECONDS = 20.0


def job_lane(spec: OptimizeSpec) -> str:
    """Which admission lane a job's effective spec belongs to.

    Every optimization plans against the analytic model, so a job's cost
    is set by its spec backend, which traces the input and the final
    program: ``"analytic"`` specs are microseconds and take the analytic
    lane; any other backend (the simulator, a custom one) may cost
    seconds and takes the simulate lane.
    """
    return (
        ANALYTIC_LANE if spec.backend_name == "analytic" else SIMULATE_LANE
    )


class AdmissionController:
    """Bounds in-flight jobs per lane; rejections carry a retry hint.

    ``None`` bounds mean unlimited. A bound of ``0`` rejects every job
    in that lane — useful for hosts that must never simulate.
    """

    def __init__(
        self,
        max_simulate_jobs: Optional[int] = 4,
        max_analytic_jobs: Optional[int] = 256,
    ) -> None:
        for bound in (max_simulate_jobs, max_analytic_jobs):
            if bound is not None and bound < 0:
                raise ValueError("admission bounds must be >= 0")
        self.bounds = {
            SIMULATE_LANE: max_simulate_jobs,
            ANALYTIC_LANE: max_analytic_jobs,
        }
        self._in_flight = {SIMULATE_LANE: 0, ANALYTIC_LANE: 0}
        self._lock = threading.Lock()
        self._occupancy_gauge: Optional[object] = None
        self._rejections_counter: Optional[object] = None

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Mirror lane occupancy and rejections into ``registry``.

        The gauges track ``_in_flight`` exactly (updated inside the
        admission lock's critical sections), so a ``/metrics`` scrape
        and ``/stats``'s ``in_flight_jobs`` can never disagree.
        """
        self._occupancy_gauge = registry.gauge(
            "repro_daemon_lane_in_flight",
            "Jobs currently admitted, by admission lane",
        )
        self._rejections_counter = registry.counter(
            "repro_daemon_admission_rejections_total",
            "Batches refused admission, by the lane that was full",
        )
        with self._lock:
            for lane, count in self._in_flight.items():
                self._occupancy_gauge.labels(lane=lane).set(count)

    def _sync_gauges_locked(self) -> None:
        if self._occupancy_gauge is not None:
            for lane, count in self._in_flight.items():
                self._occupancy_gauge.labels(lane=lane).set(count)

    def note_rejection(self, lane: str) -> None:
        """Count one refused batch against ``lane`` (no state change)."""
        if self._rejections_counter is not None:
            self._rejections_counter.labels(lane=lane).inc()

    def oversized_lane(self, lanes: Dict[str, int]) -> Optional[str]:
        """The first lane whose count alone exceeds its bound, if any.

        Such a batch can *never* be admitted, even on an idle daemon —
        callers should reject it permanently (split the batch) rather
        than tell the client to retry.
        """
        for lane, count in lanes.items():
            bound = self.bounds.get(lane)
            if bound is not None and count > bound:
                return lane
        return None

    def try_admit(self, lanes: Dict[str, int]) -> Tuple[bool, str]:
        """Atomically admit a batch's per-lane job counts, or explain.

        Returns ``(True, "")`` and reserves the slots, or ``(False,
        hint)`` leaving state untouched.
        """
        with self._lock:
            for lane, count in lanes.items():
                bound = self.bounds.get(lane)
                if bound is None:
                    continue
                if self._in_flight[lane] + count > bound:
                    hint = (
                        f"{lane} lane is full "
                        f"({self._in_flight[lane]}/{bound} jobs in flight, "
                        f"batch needs {count} more); retry when in-flight "
                        "work drains"
                    )
                    if lane == SIMULATE_LANE:
                        hint += (", or resubmit with an analytic-backend "
                                 "spec")
                    self.note_rejection(lane)
                    return False, hint
            for lane, count in lanes.items():
                self._in_flight[lane] += count
            self._sync_gauges_locked()
            return True, ""

    def release(self, lanes: Dict[str, int]) -> None:
        with self._lock:
            for lane, count in lanes.items():
                self._in_flight[lane] = max(0, self._in_flight[lane] - count)
            self._sync_gauges_locked()

    def in_flight(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._in_flight)


@dataclass
class _Batch:
    """One submitted batch's lifecycle record."""

    id: str
    #: emptied when the batch starts running: a finished record keeps
    #: its report, not the jobs' parsed pipelines
    jobs: List[OptimizationJob]
    lanes: Dict[str, int]           # job count per admission lane
    status: str = "queued"          # queued -> running -> done | failed
    report: Optional[FleetOptimizationReport] = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    finished_at: Optional[float] = None


class _RequestError(Exception):
    """A client error with an HTTP status.

    ``extra`` keys are merged into the JSON error payload — e.g. the
    ``draining`` hint a load balancer keys failover on.
    """

    def __init__(self, status: int, message: str,
                 extra: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.extra = extra or {}


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: NaN/inf become null."""
    return value if math.isfinite(value) else None


def _wait_seconds(raw: str) -> float:
    """A ``?wait=`` value: a finite number of seconds >= 0, else 400."""
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise _RequestError(
            400, f"'wait' must be a finite number of seconds >= 0, "
                 f"got {raw!r}")
    return seconds


class OptimizationDaemon:
    """A persistent optimization service over one :class:`BatchOptimizer`.

    Parameters
    ----------
    optimizer:
        The batch service to run jobs on (pool, spec, and result store
        included). Defaults to a thread-pool ``BatchOptimizer`` — pass
        one configured with a :class:`~repro.service.store.DiskStore`
        for a daemon whose cache survives restarts.
    host / port:
        Bind address; port ``0`` picks a free port (see ``daemon.port``
        after :meth:`start`).
    max_simulate_jobs / max_analytic_jobs:
        Per-lane admission bounds (``None`` = unlimited).
    workers:
        Concurrent batches executed by the daemon's dispatcher. Each
        batch then fans its distinct jobs out on the optimizer's own
        pool.
    max_finished_batches:
        How many finished (done/failed) batch records — including their
        full reports — are retained for ``GET /report/<id>``; the
        oldest are evicted beyond this bound so a long-running daemon's
        memory stays flat. ``None`` retains everything.
    compact_interval_seconds / compact_max_age_seconds:
        Self-care GC: when an interval is given, a background sweep
        thread runs :meth:`run_gc_sweep` every interval, evicting
        stored results older than ``compact_max_age_seconds`` — the
        same provenance-age compaction ``POST /compact`` triggers, but
        no longer dependent on a client remembering to call it. Ages
        are measured with the optimizer's injected clock (the clock
        that stamped the entries), so sweeps are testable without
        wall-clock waits.
    drain_timeout_seconds:
        How long :meth:`close` (graceful drain) waits for in-flight
        batches to finish before shutting the pool down anyway.
    monotonic:
        Injectable monotonic clock used for the drain deadline.
    """

    def __init__(
        self,
        optimizer: Optional[BatchOptimizer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_simulate_jobs: Optional[int] = 4,
        max_analytic_jobs: Optional[int] = 256,
        workers: int = 2,
        max_finished_batches: Optional[int] = 256,
        compact_interval_seconds: Optional[float] = None,
        compact_max_age_seconds: float = 3600.0,
        drain_timeout_seconds: float = 30.0,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_finished_batches is not None and max_finished_batches < 1:
            raise ValueError("max_finished_batches must be >= 1")
        if compact_interval_seconds is not None and \
                compact_interval_seconds <= 0:
            raise ValueError("compact_interval_seconds must be positive")
        if compact_max_age_seconds < 0:
            raise ValueError("compact_max_age_seconds must be >= 0")
        if drain_timeout_seconds < 0:
            raise ValueError("drain_timeout_seconds must be >= 0")
        self.optimizer = optimizer if optimizer is not None else BatchOptimizer()
        self.admission = AdmissionController(
            max_simulate_jobs=max_simulate_jobs,
            max_analytic_jobs=max_analytic_jobs,
        )
        self._host = host
        self._requested_port = port
        self._workers = workers
        self._max_finished = max_finished_batches
        self._compact_interval = compact_interval_seconds
        self._compact_max_age = compact_max_age_seconds
        self._drain_timeout = drain_timeout_seconds
        self._monotonic = monotonic
        self._batches: Dict[str, _Batch] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: notified whenever a batch finishes — the pulse of the drain
        #: wait and of ``?wait=`` long-polls — and once close() drains
        self._batch_done = threading.Condition(self._lock)
        #: set once close() has drained: long-polls answer at once
        self._drained = False
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._gc_thread: Optional[threading.Thread] = None
        self._gc_stop = threading.Event()
        self._draining = False
        self.rejected = 0
        self.gc_sweeps = 0
        self.gc_removed = 0
        #: daemon-owned instruments (request latency, lane occupancy,
        #: batch outcomes, GC/drain state); merged with the optimizer's
        #: and the process-global registries for ``GET /metrics``
        self.metrics = MetricsRegistry(clock=monotonic)
        self.admission.bind_metrics(self.metrics)
        self._draining_gauge = self.metrics.gauge(
            "repro_daemon_draining",
            "1 while the daemon is draining (refusing new work)",
        )
        self._draining_gauge.set(0)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "OptimizationDaemon":
        """Bind and serve in a background thread (idempotent; a closed
        daemon can be started again)."""
        self._draining = False
        self._draining_gauge.set(0)
        self._drained = False
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-daemon"
            )
        if self._gc_thread is None and self._compact_interval is not None:
            self._gc_stop.clear()
            self._gc_thread = threading.Thread(
                target=self._gc_loop,
                name="repro-daemon-gc",
                daemon=True,
            )
            self._gc_thread.start()
        if self._server is not None:
            return self
        daemon = self

        class Handler(_DaemonHandler):
            pass

        Handler.daemon = daemon
        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-daemon-http",
            daemon=True,
        )
        self._server_thread.start()
        return self

    def install_sigterm_handler(self) -> bool:
        """Drain gracefully on ``SIGTERM`` (supervisor/orchestrator
        stop): flip ``/ready`` to 503, finish in-flight batches up to
        the drain deadline, then exit 0. Returns ``False`` when the
        handler cannot be installed (not the main thread)."""
        daemon = self

        def _drain(signum, frame):  # noqa: ARG001 - signal signature
            daemon.close(wait=True)
            raise SystemExit(0)

        try:
            signal.signal(signal.SIGTERM, _drain)
        except ValueError:  # signal only works in the main thread
            return False
        return True

    # -- self-care GC sweep --------------------------------------------
    def _gc_loop(self) -> None:
        while not self._gc_stop.wait(self._compact_interval):
            self.run_gc_sweep()

    def run_gc_sweep(self) -> int:
        """One provenance-age compaction pass over the result store.

        The periodic sweep thread calls this every
        ``compact_interval_seconds``; it is public so tests (and
        operators) can force a sweep deterministically. Returns the
        number of entries evicted; a store without ``compact`` support
        sweeps to 0 instead of raising — self-care must never kill the
        daemon.
        """
        try:
            removed = self.optimizer.compact_store(self._compact_max_age)
        except Exception:  # noqa: BLE001 - self-care never raises
            removed = 0
        with self._lock:
            self.gc_sweeps += 1
            self.gc_removed += removed
        self.metrics.counter(
            "repro_daemon_gc_sweeps_total", "Store GC sweeps run",
        ).inc()
        self.metrics.counter(
            "repro_daemon_gc_removed_total", "Store entries evicted by GC",
        ).inc(removed)
        return removed

    # -- graceful drain ------------------------------------------------
    def _active_batches(self) -> int:
        return sum(1 for b in self._batches.values()
                   if b.status in ("queued", "running"))

    def close(self, wait: bool = True,
              drain_timeout: Optional[float] = None) -> None:
        """Drain gracefully, then stop serving.

        The daemon first flips to *draining*: ``GET /ready`` answers
        503 and new ``POST /optimize`` submissions are rejected with a
        ``draining`` hint, while status/report endpoints keep serving
        so clients can collect in-flight results. In-flight batches get
        up to ``drain_timeout`` seconds (default: the constructor's
        ``drain_timeout_seconds``) to finish; whatever is still running
        after that is abandoned to its dispatcher thread. Only then do
        the HTTP server and the pool stop. ``wait=False`` skips the
        drain wait entirely (the old hard-stop behaviour).
        """
        self._draining = True
        self._draining_gauge.set(1)
        if wait and self._pool is not None:
            budget = (drain_timeout if drain_timeout is not None
                      else self._drain_timeout)
            deadline = self._monotonic() + budget
            with self._batch_done:
                while self._active_batches() > 0:
                    remaining = deadline - self._monotonic()
                    if remaining <= 0:
                        break
                    self._batch_done.wait(min(remaining, 0.1))
        with self._batch_done:
            # The drain is over: answer every long-poll now rather than
            # let it hold a server thread for the rest of its wait.
            self._drained = True
            self._batch_done.notify_all()
        if self._gc_thread is not None:
            self._gc_stop.set()
            self._gc_thread.join(timeout=5)
            self._gc_thread = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._server_thread = None
        if self._pool is not None:
            with self._lock:
                drained = self._active_batches() == 0
            self._pool.shutdown(wait=wait and drained,
                                cancel_futures=not drained)
            self._pool = None

    def __enter__(self) -> "OptimizationDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("daemon is not running (call start())")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- request handling ----------------------------------------------
    def submit(self, body: dict) -> dict:
        """Validate, admit, and enqueue one ``POST /optimize`` body."""
        if self._draining:
            raise _RequestError(
                503,
                "daemon is draining: in-flight batches are finishing, "
                "new work is refused; resubmit to another host",
                extra={"draining": True},
            )
        jobs = self._parse_jobs(body)
        lanes: Dict[str, int] = {}
        for job in jobs:
            lane = job_lane(job.spec if job.spec is not None
                            else self.optimizer.spec)
            lanes[lane] = lanes.get(lane, 0) + 1
        # A batch larger than a lane's whole bound can never be
        # admitted; a 429/retry answer would have the client retry
        # forever. Reject it permanently with the actual remedy.
        too_big = self.admission.oversized_lane(lanes)
        if too_big is not None:
            with self._lock:
                self.rejected += 1
            self.admission.note_rejection(too_big)
            raise _RequestError(
                400,
                f"batch needs {lanes[too_big]} {too_big}-lane jobs but "
                f"the lane bound is {self.admission.bounds[too_big]}; "
                "split the batch or raise the daemon's "
                f"max_{too_big}_jobs",
            )
        admitted, hint = self.admission.try_admit(lanes)
        if not admitted:
            with self._lock:
                self.rejected += 1
            raise _RequestError(429, hint)
        batch = _Batch(
            id=f"batch-{next(self._ids):04d}",
            jobs=jobs,
            lanes=lanes,
            submitted_at=self.optimizer._clock(),
        )
        with self._lock:
            self._batches[batch.id] = batch
            pool = self._pool
        try:
            if pool is None:
                raise RuntimeError("daemon dispatcher is not running")
            pool.submit(self._run_batch, batch)
        except RuntimeError:
            # Enqueue failed (daemon closing): release the reserved
            # lane slots and drop the record, or they leak forever.
            self.admission.release(batch.lanes)
            with self._lock:
                self._batches.pop(batch.id, None)
            raise _RequestError(503, "daemon is shutting down; resubmit "
                                     "to a running daemon")
        return {"id": batch.id, "status": batch.status, "jobs": len(jobs)}

    def _parse_jobs(self, body: dict) -> List[OptimizationJob]:
        if not isinstance(body, dict):
            raise _RequestError(400, "body must be a JSON object")
        if "jobs" in body:
            raw_jobs = body["jobs"]
            if not isinstance(raw_jobs, list) or not raw_jobs:
                raise _RequestError(400, "'jobs' must be a non-empty list")
        elif "pipeline" in body:
            raw_jobs = [body]  # single-job form
        else:
            raise _RequestError(
                400, "body needs a 'jobs' list or a single 'pipeline'"
            )
        default_spec = None
        if body.get("spec") is not None and "jobs" in body:
            default_spec = self._parse_spec(body["spec"], "batch spec")
        jobs: List[OptimizationJob] = []
        seen: set = set()
        for i, raw in enumerate(raw_jobs):
            if not isinstance(raw, dict):
                raise _RequestError(400, f"job #{i} must be an object")
            name = raw.get("name")
            if not isinstance(name, str) or not name:
                raise _RequestError(400, f"job #{i} needs a 'name'")
            if name in seen:
                raise _RequestError(400, f"duplicate job name {name!r}")
            seen.add(name)
            if "pipeline" not in raw:
                raise _RequestError(400, f"job {name!r} needs a 'pipeline'")
            try:
                pipeline = pipeline_from_dict(raw["pipeline"])
            except Exception as exc:
                raise _RequestError(
                    400, f"job {name!r}: bad pipeline program: {exc}"
                )
            machine = None
            if raw.get("machine") is not None:
                try:
                    machine = Machine.from_dict(raw["machine"])
                except Exception as exc:
                    raise _RequestError(
                        400, f"job {name!r}: bad machine: {exc}"
                    )
            if machine is None:
                machine = self.optimizer.machine
            if machine is None:
                raise _RequestError(
                    400,
                    f"job {name!r} has no machine and the daemon's "
                    "optimizer has no default machine",
                )
            spec = default_spec
            if raw.get("spec") is not None:
                spec = self._parse_spec(raw["spec"], f"job {name!r} spec")
            jobs.append(
                OptimizationJob(name, pipeline, machine, spec=spec)
            )
        return jobs

    @staticmethod
    def _parse_spec(data: object, what: str) -> OptimizeSpec:
        """Decode a spec and resolve its backend and passes, so an
        unknown name is a 400 at submit, not a failed batch."""
        if not isinstance(data, dict):
            raise _RequestError(400, f"{what} must be an object")
        try:
            spec = OptimizeSpec.from_dict(data)
            BatchOptimizer._validate_spec(spec, what)
        except Exception as exc:
            raise _RequestError(400, f"bad {what}: {exc}")
        return spec

    def _run_batch(self, batch: _Batch) -> None:
        batch.status = "running"
        started = self.metrics.clock()
        jobs, batch.jobs = batch.jobs, []
        try:
            batch.report = self.optimizer.optimize_fleet(jobs)
            batch.status = "done"
        except Exception as exc:  # report, don't kill the daemon
            batch.error = f"{type(exc).__name__}: {exc}"
            batch.status = "failed"
        finally:
            batch.finished_at = self.optimizer._clock()
            self.metrics.counter(
                "repro_daemon_batches_total", "Batches run, by outcome",
            ).labels(status=batch.status).inc()
            self.metrics.histogram(
                "repro_daemon_batch_seconds",
                "Batch wallclock from dispatch to finish",
            ).observe(self.metrics.clock() - started)
            self.admission.release(batch.lanes)
            self._evict_finished()
            with self._batch_done:
                self._batch_done.notify_all()  # drain wait, long-polls

    def _evict_finished(self) -> None:
        """Drop the earliest-*finished* batch records beyond the bound.

        Eviction must order by ``finished_at``, not submission order: a
        long-running batch submitted early can finish *after* quick
        batches submitted later, and evicting by submission order would
        drop the record a client just saw turn ``done`` (status 200 on
        ``/jobs/<id>`` followed by 404 on ``/report/<id>``) while
        keeping ones that finished long ago.
        """
        if self._max_finished is None:
            return
        with self._lock:
            finished = sorted(
                (b for b in self._batches.values()
                 if b.status in ("done", "failed")),
                # A None finished_at (status flipped, `finally` not yet
                # run) sorts last: never evict a batch that just ended.
                key=lambda b: (b.finished_at is None,
                               b.finished_at if b.finished_at is not None
                               else 0.0),
            )
            for stale in finished[: max(0, len(finished) - self._max_finished)]:
                self._batches.pop(stale.id, None)

    def compact(self, body: dict) -> dict:
        """Run one ``POST /compact`` store GC pass."""
        if not isinstance(body, dict):
            raise _RequestError(400, "body must be a JSON object")
        horizon = body.get("max_age_seconds")
        if isinstance(horizon, bool) or not isinstance(horizon, (int, float)) \
                or not horizon >= 0:
            raise _RequestError(
                400, "'max_age_seconds' must be a number >= 0"
            )
        try:
            removed = self.optimizer.compact_store(horizon)
        except TypeError as exc:
            raise _RequestError(
                501, f"store does not support compaction: {exc}"
            )
        return {"removed": removed,
                "store_entries": len(self.optimizer.store)}

    # -- views ----------------------------------------------------------
    def _batch(self, batch_id: str) -> _Batch:
        with self._lock:
            batch = self._batches.get(batch_id)
        if batch is None:
            raise _RequestError(404, f"unknown batch {batch_id!r}")
        return batch

    def wait_for_batch(self, batch_id: str, seconds: float) -> None:
        """Block until the batch is done or failed, the daemon has
        drained, or ``seconds`` (capped at
        :data:`MAX_STATUS_WAIT_SECONDS`) pass: the wait of a
        ``GET /jobs/<id>?wait=`` long-poll."""
        batch = self._batch(batch_id)
        with self._batch_done:
            self._batch_done.wait_for(
                lambda: batch.status in ("done", "failed") or self._drained,
                timeout=min(seconds, MAX_STATUS_WAIT_SECONDS),
            )

    def job_status(self, batch_id: str) -> dict:
        batch = self._batch(batch_id)
        status = {
            "id": batch.id,
            "status": batch.status,
            "jobs": sum(batch.lanes.values()),
            "lanes": batch.lanes,
        }
        if batch.error is not None:
            status["error"] = batch.error
        return status

    def report_json(self, batch_id: str) -> dict:
        batch = self._batch(batch_id)
        if batch.status == "failed":
            raise _RequestError(500, f"batch failed: {batch.error}")
        if batch.status != "done" or batch.report is None:
            raise _RequestError(
                409, f"batch {batch_id!r} is {batch.status}; report is "
                     "available once status is 'done'"
            )
        report = batch.report
        payload = {
            "id": batch.id,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "cache_hit_rate": report.cache_hit_rate,
            "jobs": [
                {
                    "name": j.name,
                    "signature": j.signature,
                    # the full result-cache identity: remote reports
                    # merged by FleetOptimizationReport.merge dedup
                    # their hit arithmetic by this
                    "cache_key": j.cache_key,
                    "cache_hit": j.cache_hit,
                    "baseline_throughput": _finite(j.baseline_throughput),
                    "optimized_throughput": _finite(j.optimized_throughput),
                    "predicted_throughput": _finite(j.predicted_throughput),
                    "speedup": _finite(j.speedup),
                    "bottleneck": j.bottleneck,
                    "decisions": list(j.decisions),
                    # all results are valid programs (§4.1)
                    "pipeline": json.loads(j.pipeline_json),
                    "provenance": j.provenance,
                }
                for j in report.jobs
            ],
        }
        # Byte-faithful on the happy path: a fault-free report carries
        # no degraded key at all, exactly like pre-failover daemons.
        if report.degraded is not None:
            payload["degraded"] = report.degraded
        return payload

    def health(self) -> dict:
        """``GET /healthz`` — liveness only: answering at all is the
        signal, so the payload is a bare ok."""
        return {"status": "ok"}

    def readiness(self) -> Tuple[bool, dict]:
        """``GET /ready`` — whether the daemon can take work *right now*.

        Liveness (:meth:`health`) only says the HTTP thread is alive;
        readiness also requires the dispatcher pool to be running and
        the result store to answer — a daemon with a broken
        :class:`~repro.service.store.DiskStore` directory would accept
        batches it can never finish.
        """
        if self._draining:
            with self._lock:
                active = self._active_batches()
            return False, {
                "ready": False,
                "draining": True,
                "reason": f"draining: {active} in-flight batch(es) "
                          "finishing, no new work accepted",
            }
        with self._lock:
            pool = self._pool
        if pool is None:
            return False, {
                "ready": False,
                "reason": "dispatcher pool is not running",
            }
        try:
            entries = len(self.optimizer.store)
        except Exception as exc:  # noqa: BLE001 - any store fault = not ready
            return False, {
                "ready": False,
                "reason": (
                    f"result store unreachable: "
                    f"{type(exc).__name__}: {exc}"
                ),
            }
        return True, {"ready": True, "store_entries": entries}

    def metrics_snapshot(self) -> dict:
        """Everything this process measures, as one merged snapshot.

        Three registries feed ``GET /metrics``: the daemon's own
        (requests, lanes, batches, GC, drain), the optimizer's (job
        latency, hit/miss, pool depth), and the process-global one
        (trace backends, pass driver, simulation engine). Metric names
        are namespaced per layer, so the merge is collision-free.
        """
        snaps = [self.metrics.as_dict()]
        optimizer_metrics = getattr(self.optimizer, "metrics", None)
        if optimizer_metrics is not None:
            snaps.append(optimizer_metrics.as_dict())
        snaps.append(global_registry().as_dict())
        return merge_snapshots(snaps)

    def metrics_text(self) -> str:
        """``GET /metrics`` text exposition of :meth:`metrics_snapshot`."""
        return render_text(self.metrics_snapshot())

    def stats(self) -> dict:
        with self._lock:
            batches = list(self._batches.values())
            rejected = self.rejected
            gc_sweeps, gc_removed = self.gc_sweeps, self.gc_removed
        by_status: Dict[str, int] = {}
        for b in batches:
            by_status[b.status] = by_status.get(b.status, 0) + 1
        return {
            "cache": self.optimizer.stats(),
            "queue_depth": by_status.get("queued", 0)
                           + by_status.get("running", 0),
            "batches": by_status,
            "in_flight_jobs": self.admission.in_flight(),
            "admission_bounds": dict(self.admission.bounds),
            "rejected_batches": rejected,
            "draining": self._draining,
            "gc": {
                "interval_seconds": self._compact_interval,
                "max_age_seconds": self._compact_max_age,
                "sweeps": gc_sweeps,
                "removed": gc_removed,
            },
            # Compact flat view of the daemon's own instruments, so
            # pre-/metrics clients see the new numbers on the endpoint
            # they already poll (the full bucketed form is /metrics).
            "metrics": summarize_snapshot(self.metrics.as_dict()),
        }


class _DaemonHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning daemon (set by ``start``)."""

    daemon: OptimizationDaemon  # injected per-daemon subclass attribute
    protocol_version = "HTTP/1.1"
    # Keep-alive clients poll in small request/response exchanges;
    # Nagle + delayed ACK turns each one into a ~40ms stall once the
    # connection outlives TCP quick-ack. Write immediately instead.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr
        pass

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._sent_status = status
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        self._sent_status = status
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, exc: _RequestError) -> None:
        payload = {"error": str(exc), **exc.extra}
        headers = {}
        if exc.status == 429:
            payload["retry_after_seconds"] = 1
            headers["Retry-After"] = "1"
        self._send_json(exc.status, payload, headers)

    def _route_path(self) -> str:
        """The request path with any query string stripped — clients
        may pass parameters (``POST /optimize?source=ci``) without
        breaking routing."""
        return self.path.split("?", 1)[0]

    def _read_json_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _RequestError(400, "invalid Content-Length header")
        try:
            return json.loads(self.rfile.read(length) or b"null")
        except ValueError:
            raise _RequestError(400, "body is not valid JSON")

    #: endpoints whose first path segment is a safe (bounded) route label
    _KNOWN_ROUTES = frozenset(
        ("optimize", "compact", "healthz", "ready", "stats", "jobs",
         "report", "metrics")
    )

    def _metric_route(self) -> str:
        """Bounded-cardinality route label: ``/jobs/<id>`` collapses to
        ``jobs``, anything unrecognized to ``other`` — client-supplied
        paths must not mint unbounded metric label sets."""
        parts = [p for p in self._route_path().split("/") if p]
        if parts and parts[0] in self._KNOWN_ROUTES:
            return parts[0]
        return "other"

    def _timed(self, method: str, handler: Callable[[], None]) -> None:
        """Run one request handler, recording latency and outcome."""
        metrics = self.daemon.metrics
        route = self._metric_route()
        self._sent_status = 0  # overwritten by the first send
        start = metrics.clock()
        try:
            handler()
        finally:
            metrics.histogram(
                "repro_daemon_request_seconds",
                "HTTP request service time, by route",
            ).labels(route=route).observe(metrics.clock() - start)
            metrics.counter(
                "repro_daemon_requests_total",
                "HTTP requests served, by route, method, and status",
            ).labels(
                route=route, method=method, status=str(self._sent_status),
            ).inc()

    # -- verbs ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server convention
        self._timed("POST", self._handle_post)

    def _handle_post(self) -> None:
        try:
            path = self._route_path().rstrip("/")
            if path == "/optimize":
                self._send_json(202, self.daemon.submit(
                    self._read_json_body()))
            elif path == "/compact":
                self._send_json(200, self.daemon.compact(
                    self._read_json_body()))
            else:
                raise _RequestError(
                    404, f"no such endpoint {self.path}")
        except _RequestError as exc:
            self._send_error_json(exc)
        except Exception as exc:  # noqa: BLE001 - answer, don't drop
            self._send_internal_error(exc)

    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        self._timed("GET", self._handle_get)

    def _handle_get(self) -> None:
        try:
            parts = [p for p in self._route_path().split("/") if p]
            if parts == ["healthz"]:
                self._send_json(200, self.daemon.health())
            elif parts == ["ready"]:
                ready, payload = self.daemon.readiness()
                self._send_json(200 if ready else 503, payload)
            elif parts == ["stats"]:
                self._send_json(200, self.daemon.stats())
            elif parts == ["metrics"]:
                # Like status/report, /metrics keeps serving while the
                # daemon drains — observability lasts to the final
                # request. Text exposition by default; ?format=json
                # returns the mergeable snapshot form.
                if self._query_param("format") == "json":
                    self._send_json(200, self.daemon.metrics_snapshot())
                else:
                    self._send_text(200, self.daemon.metrics_text())
            elif len(parts) == 2 and parts[0] == "jobs":
                wait = self._query_param("wait")
                if wait is not None:
                    self.daemon.wait_for_batch(parts[1], _wait_seconds(wait))
                self._send_json(200, self.daemon.job_status(parts[1]))
            elif len(parts) == 2 and parts[0] == "report":
                self._send_json(200, self.daemon.report_json(parts[1]))
            else:
                raise _RequestError(404, f"no such endpoint {self.path}")
        except _RequestError as exc:
            self._send_error_json(exc)
        except Exception as exc:  # noqa: BLE001 - answer, don't drop
            self._send_internal_error(exc)

    def _query_param(self, key: str) -> Optional[str]:
        """One query-string value (the first, if repeated)."""
        if "?" not in self.path:
            return None
        query = self.path.split("?", 1)[1]
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == key:
                return value
        return None

    def _send_internal_error(self, exc: Exception) -> None:
        """A bug in a handler (or the daemon behind it) must answer
        ``500`` with a JSON error body, not propagate into
        ``BaseHTTPRequestHandler`` and silently drop the connection."""
        try:
            self._send_json(500, {
                "error": f"internal error: {type(exc).__name__}: {exc}"
            })
        except OSError:
            pass  # client already gone; nothing left to answer
