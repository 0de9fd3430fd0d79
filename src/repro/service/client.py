"""HTTP client library for the optimization daemon.

:class:`OptimizationClient` wraps the daemon's endpoints
(:mod:`repro.service.daemon`) behind the same in-process surface the
rest of the service exposes: submit a fleet of *serialized programs*,
poll with backoff, and get a real
:class:`~repro.service.batch.FleetOptimizationReport` back — every
``GET /report/<id>`` job is rehydrated through
:func:`repro.graph.serialize.pipeline_from_dict`, so remote results are
valid programs exactly like local ones (§4.1: all results are
programs). Saturation answers (``429`` + ``Retry-After``) are honored
transparently by :meth:`~OptimizationClient.submit`.

:class:`RemoteShard` binds one client to one daemon URL and exposes the
shard contract (``optimize_fleet`` + ``stats``), so a
:class:`~repro.service.shard.ShardedOptimizer` front-end can fan a
fleet out to N daemon *processes* — on one host or many — over HTTP
instead of N in-process optimizers, turning signature-affine sharding
into a real multi-host protocol.

Everything here is stdlib ``http.client``; the wire format is the
daemon's JSON (serialized pipelines, ``Machine.to_dict`` machines,
``OptimizeSpec.to_dict`` specs). Each client keeps **one persistent
HTTP/1.1 connection** to its daemon — submit/poll/report loops reuse
the same socket instead of paying a TCP handshake per request (see
``BENCH_service_http_overhead``). A request that fails on a *reused*
connection is retried once on a fresh one (stale keep-alive sockets are
normal); a failure on a fresh connection means the daemon is
unreachable and raises. ``sleep``/``clock`` are injectable so
retry/backoff behaviour is testable without wall-clock waits.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading
import time
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from repro.core.spec import OptimizeSpec
from repro.obs import MetricsRegistry
from repro.graph.serialize import (
    pipeline_from_dict,
    pipeline_to_dict,
    pipeline_to_json,
)
from repro.service.batch import (
    FleetOptimizationReport,
    JobResult,
    OptimizationJob,
    parse_jobs,
)
from repro.service.errors import (  # ClientError re-exported: historical home
    ClientError,
    ClientTimeout,
    ShardFailure,
    ShardSaturated,
    ShardTimeout,
    ShardUnreachable,
)

__all__ = [
    "BatchFailedError",
    "ClientError",
    "ClientTimeout",
    "OptimizationClient",
    "RemoteShard",
    "fleet_to_body",
    "report_from_dict",
]


class BatchFailedError(ClientError):
    """A submitted batch finished with ``status: failed``."""


# ----------------------------------------------------------------------
# Wire format: BatchOptimizer job forms -> POST /optimize body.
# ----------------------------------------------------------------------
def _wire_job(job: OptimizationJob) -> dict:
    wire = {"name": job.name, "pipeline": pipeline_to_dict(job.pipeline)}
    if job.machine is not None:
        wire["machine"] = job.machine.to_dict()
    if job.spec is not None:
        wire["spec"] = job.spec.to_dict()
    return wire


def fleet_to_body(
    jobs: Union[Mapping[str, object], Sequence],
    spec: Optional[OptimizeSpec] = None,
) -> dict:
    """Serialize a job batch into a ``POST /optimize`` body.

    The batch is parsed by :func:`~repro.service.batch.parse_jobs`, so
    it accepts and rejects exactly what
    :meth:`~repro.service.batch.BatchOptimizer.optimize_fleet` does.
    """
    body: dict = {"jobs": [_wire_job(job) for job in parse_jobs(jobs)]}
    if spec is not None:
        body["spec"] = spec.to_dict()
    return body


# ----------------------------------------------------------------------
# Report rehydration: GET /report/<id> JSON -> real report objects.
# ----------------------------------------------------------------------
def _rehydrate_float(value) -> float:
    """Undo the daemon's JSON-safe float mapping (non-finite -> null)."""
    return float(value) if value is not None else math.nan


def report_from_dict(data: dict) -> FleetOptimizationReport:
    """Rebuild a :class:`FleetOptimizationReport` from report JSON.

    Each job's embedded program is rebuilt with
    :func:`pipeline_from_dict` (validating it is a real program) and
    re-serialized canonically, so a rehydrated
    :attr:`JobResult.pipeline_json` is byte-identical to the one a
    local :class:`~repro.service.batch.BatchOptimizer` run would carry.
    """
    jobs = []
    for j in data["jobs"]:
        pipeline = pipeline_from_dict(j["pipeline"])
        jobs.append(
            JobResult(
                name=j["name"],
                signature=j["signature"],
                cache_hit=bool(j["cache_hit"]),
                baseline_throughput=_rehydrate_float(
                    j["baseline_throughput"]),
                optimized_throughput=_rehydrate_float(
                    j["optimized_throughput"]),
                predicted_throughput=_rehydrate_float(
                    j["predicted_throughput"]),
                bottleneck=j["bottleneck"],
                decisions=tuple(j["decisions"]),
                pipeline_json=pipeline_to_json(pipeline),
                cache_key=j.get("cache_key", ""),
                provenance=j.get("provenance"),
            )
        )
    return FleetOptimizationReport(
        jobs=jobs,
        cache_hits=data["cache_hits"],
        cache_misses=data["cache_misses"],
        degraded=data.get("degraded"),
    )


class OptimizationClient:
    """Talk to one :class:`~repro.service.daemon.OptimizationDaemon`.

    Parameters
    ----------
    base_url:
        The daemon's root URL (e.g. ``daemon.url`` or
        ``"http://host:8080"``).
    spec:
        Default batch :class:`OptimizeSpec` sent with every submission
        (per-job specs still override it daemon-side).
    timeout:
        Socket timeout per HTTP request, seconds.
    poll_interval / max_poll_interval:
        :meth:`wait` starts polling at ``poll_interval`` and backs off
        exponentially to ``max_poll_interval``.
    max_retries:
        How many ``429`` answers :meth:`submit` absorbs (sleeping per
        the daemon's ``Retry-After``) before giving up.
    max_retry_after:
        Ceiling on one retry sleep, seconds — a daemon bug can't park
        the client for an hour.
    sleep / clock:
        Injectable so tests drive retry/backoff without real waits.
    """

    def __init__(
        self,
        base_url: str,
        spec: Optional[OptimizeSpec] = None,
        timeout: float = 30.0,
        poll_interval: float = 0.05,
        max_poll_interval: float = 1.0,
        max_retries: int = 8,
        max_retry_after: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.spec = spec
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.max_poll_interval = max_poll_interval
        self.max_retries = max_retries
        self.max_retry_after = max_retry_after
        self._sleep = sleep
        self._clock = clock
        #: Client-side request telemetry (latency per route, request
        #: and retry counters); shares the injected clock so tests can
        #: fake both backoff and latency measurement.
        self.metrics = MetricsRegistry(clock=clock)
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(
                f"unsupported scheme {split.scheme!r}; the daemon "
                "speaks plain HTTP"
            )
        if not split.hostname:
            raise ValueError(f"base_url {base_url!r} has no host")
        self._host = split.hostname
        self._port = split.port if split.port is not None else 80
        self._path_prefix = split.path.rstrip("/")
        self._conn: Optional[http.client.HTTPConnection] = None
        self._conn_lock = threading.Lock()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base_url!r})"

    # -- transport -----------------------------------------------------
    def _connection(
        self, timeout: Optional[float] = None
    ) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port,
                timeout=timeout if timeout is not None else self.timeout,
            )
            conn.connect()
            # Small request/response exchanges on a long-lived socket
            # hit the Nagle/delayed-ACK interaction (~40ms per round
            # trip once TCP quick-ack expires); send immediately.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def close(self) -> None:
        """Close the persistent connection (reopened lazily on use)."""
        with self._conn_lock:
            self._drop_connection()

    def __enter__(self) -> "OptimizationClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    #: Route labels are bounded to the daemon's fixed endpoint set so
    #: client metric cardinality cannot grow with batch ids.
    _KNOWN_ROUTES = frozenset((
        "optimize", "compact", "healthz", "ready", "stats",
        "jobs", "report", "metrics",
    ))

    def _metric_route(self, path: str) -> str:
        segment = path.lstrip("/").split("/", 1)[0]
        return segment if segment in self._KNOWN_ROUTES else "other"

    def _request(
        self, method: str, path: str, body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, dict, Dict[str, str]]:
        """One JSON request over the persistent connection.

        HTTP error statuses return like successes; transport failures
        raise :class:`ClientError` — a deadline expiry specifically
        raises :class:`ClientTimeout`. A failure on a reused socket is
        retried once on a fresh one — the server may have closed an
        idle keep-alive connection between requests — but a fresh
        connection that fails means the daemon is down, and raises
        without a blind re-send (a POST may not be idempotent).

        ``timeout`` overrides the client-wide socket timeout for this
        one call: health/readiness probes can fail in milliseconds
        while real requests keep the 30 s budget.
        """
        route = self._metric_route(path)
        started = self._clock()
        outcome = "error"
        try:
            status, payload, headers = self._request_once(
                method, path, body, timeout)
            outcome = str(status)
            return status, payload, headers
        finally:
            self.metrics.histogram(
                "repro_client_request_seconds",
                "Client-observed request latency, by route",
            ).labels(route=route).observe(self._clock() - started)
            self.metrics.counter(
                "repro_client_requests_total",
                "Client requests, by method/route/status "
                "('error' = transport failure)",
            ).labels(method=method, route=route, status=outcome).inc()

    def _request_once(
        self, method: str, path: str, body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, dict, Dict[str, str]]:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        headers = {"Content-Type": "application/json"}
        with self._conn_lock:
            while True:
                fresh = self._conn is None
                try:
                    conn = self._connection(timeout)
                    if timeout is not None and conn.sock is not None:
                        conn.sock.settimeout(timeout)
                    conn.request(
                        method, self._path_prefix + path,
                        body=data, headers=headers,
                    )
                    resp = conn.getresponse()
                    raw = resp.read()  # drain so the socket is reusable
                    status = resp.status
                    resp_headers = dict(resp.getheaders())
                    if timeout is not None and conn.sock is not None:
                        conn.sock.settimeout(self.timeout)
                except (http.client.HTTPException, OSError) as exc:
                    self._drop_connection()
                    if fresh:
                        if isinstance(exc, socket.timeout):
                            budget = (timeout if timeout is not None
                                      else self.timeout)
                            raise ClientTimeout(
                                f"{method} {path} to {self.base_url} "
                                f"timed out after {budget}s"
                            ) from exc
                        raise ClientError(
                            f"daemon at {self.base_url} unreachable: {exc}"
                        ) from exc
                    continue
                try:
                    payload = json.loads(raw) if raw else {}
                except ValueError:
                    payload = {"error": f"non-JSON {status} response"}
                return status, payload, resp_headers

    @staticmethod
    def _error(status: int, payload: dict, what: str) -> ClientError:
        detail = payload.get("error", payload)
        return ClientError(f"{what}: HTTP {status}: {detail}", status=status)

    def _retry_after(self, payload: dict, headers: Mapping[str, str]) -> float:
        """The daemon's retry hint, clamped to ``[0, max_retry_after]``."""
        raw = headers.get("Retry-After")
        if raw is None:
            raw = payload.get("retry_after_seconds")
        try:
            delay = float(raw) if raw is not None else 1.0
        except (TypeError, ValueError):
            delay = 1.0
        return min(max(delay, 0.0), self.max_retry_after)

    # -- endpoints -----------------------------------------------------
    def submit(
        self,
        jobs: Union[Mapping[str, object], Sequence],
        spec: Optional[OptimizeSpec] = None,
    ) -> dict:
        """``POST /optimize`` a batch, riding out ``429`` saturation.

        Returns the acceptance payload (``{"id", "status", "jobs"}``).
        A saturated daemon is retried up to ``max_retries`` times,
        sleeping per its ``Retry-After`` hint; any other non-``202``
        answer raises :class:`ClientError` immediately.
        """
        body = fleet_to_body(jobs, spec=spec if spec is not None else self.spec)
        retries = 0
        while True:
            status, payload, headers = self._request(
                "POST", "/optimize", body)
            if status == 202:
                return payload
            if status == 429 and retries < self.max_retries:
                retries += 1
                self.metrics.counter(
                    "repro_client_submit_retries_total",
                    "429 saturation answers absorbed by submit()",
                ).inc()
                self._sleep(self._retry_after(payload, headers))
                continue
            raise self._error(status, payload, "submit rejected")

    def status(self, batch_id: str) -> dict:
        """``GET /jobs/<id>`` — one status snapshot."""
        status, payload, _ = self._request("GET", f"/jobs/{batch_id}")
        if status != 200:
            raise self._error(status, payload, f"status of {batch_id!r}")
        return payload

    def wait(self, batch_id: str, timeout: float = 600.0) -> dict:
        """Poll ``GET /jobs/<id>`` with backoff until done/failed.

        Raises :class:`ClientTimeout` when the batch is still pending
        at the deadline — callers distinguish "took too long" (maybe
        re-home the work) from transport or HTTP failures.
        """
        deadline = self._clock() + timeout
        interval = self.poll_interval
        while True:
            payload = self.status(batch_id)
            if payload["status"] in ("done", "failed"):
                return payload
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise ClientTimeout(
                    f"batch {batch_id!r} still {payload['status']!r} "
                    f"after {timeout}s"
                )
            self._sleep(min(interval, remaining))
            interval = min(interval * 2, self.max_poll_interval)

    def report(self, batch_id: str) -> FleetOptimizationReport:
        """``GET /report/<id>`` rehydrated into a real report."""
        return report_from_dict(self.raw_report(batch_id))

    def raw_report(self, batch_id: str) -> dict:
        """``GET /report/<id>`` as the daemon's JSON payload."""
        status, payload, _ = self._request("GET", f"/report/{batch_id}")
        if status != 200:
            raise self._error(status, payload, f"report of {batch_id!r}")
        return payload

    def stats(self) -> dict:
        """``GET /stats`` — cache, queue, and admission telemetry."""
        status, payload, _ = self._request("GET", "/stats")
        if status != 200:
            raise self._error(status, payload, "stats")
        return payload

    def health(self, timeout: Optional[float] = None) -> dict:
        """``GET /healthz`` — liveness probe. ``timeout`` overrides the
        client-wide socket timeout for this one probe."""
        status, payload, _ = self._request(
            "GET", "/healthz", timeout=timeout)
        if status != 200:
            raise self._error(status, payload, "health check")
        return payload

    # Probe-style alias: same shape as check_ready, liveness semantics.
    check_health = health

    def check_ready(self, timeout: Optional[float] = None) -> dict:
        """``GET /ready`` — raise unless the daemon will accept work.

        Returns the readiness payload on 200; a ``503`` (or any other
        answer) raises :class:`ClientError` carrying the daemon's
        stated reason, so callers fail fast with *why* instead of
        submitting into a daemon that can't run the batch. ``timeout``
        overrides the client-wide socket timeout for this one probe —
        a membership sweep over a dead host should cost milliseconds,
        not the full request budget.
        """
        status, payload, _ = self._request("GET", "/ready", timeout=timeout)
        if status == 200 and payload.get("ready"):
            return payload
        reason = payload.get("reason") or payload.get("error") or payload
        raise ClientError(
            f"daemon at {self.base_url} is not ready to accept work "
            f"(HTTP {status}): {reason}",
            status=status,
        )

    def compact(self, max_age_seconds: float) -> dict:
        """``POST /compact`` — evict stored results older than the
        horizon (provenance age GC); returns ``{"removed",
        "store_entries"}``."""
        status, payload, _ = self._request(
            "POST", "/compact", {"max_age_seconds": max_age_seconds})
        if status != 200:
            raise self._error(status, payload, "compact")
        return payload

    # -- the one-call surface ------------------------------------------
    def optimize_fleet(
        self,
        jobs: Union[Mapping[str, object], Sequence],
        spec: Optional[OptimizeSpec] = None,
        timeout: float = 600.0,
    ) -> FleetOptimizationReport:
        """Submit, wait, and rehydrate one batch end to end.

        The remote equivalent of
        :meth:`BatchOptimizer.optimize_fleet`; a batch that finishes
        ``failed`` raises :class:`BatchFailedError` with the daemon's
        error string.
        """
        accepted = self.submit(jobs, spec=spec)
        final = self.wait(accepted["id"], timeout=timeout)
        if final["status"] == "failed":
            raise BatchFailedError(
                f"batch {accepted['id']!r} failed: "
                f"{final.get('error', 'unknown error')}"
            )
        return self.report(accepted["id"])


class RemoteShard:
    """One logical shard host reached over HTTP.

    Satisfies the :class:`~repro.service.shard.ShardedOptimizer` shard
    contract (``optimize_fleet`` + ``stats``) by delegating to an
    :class:`OptimizationClient`, so a front-end can mix in-process
    :class:`~repro.service.batch.BatchOptimizer` shards and remote
    daemon processes freely. ``stats()`` returns the daemon's cache
    accounting (hits/misses/rate/store size) — the same mapping an
    in-process shard reports.

    Failures are raised as the typed shard taxonomy
    (:mod:`repro.service.errors`): transport death, failed readiness,
    and 5xx answers become :class:`ShardUnreachable`; a blown deadline
    becomes :class:`ShardTimeout`; a 429 storm past the client's retry
    budget becomes :class:`ShardSaturated` — all retryable, so a
    :class:`~repro.service.shard.ShardedOptimizer` re-homes this
    shard's jobs. A batch that genuinely *failed* on the daemon
    (:class:`BatchFailedError`) or was rejected as malformed
    propagates unchanged: deterministic failures would fail identically
    on every host, so they must surface, not bounce around the ring.
    """

    def __init__(
        self,
        client: Union[str, OptimizationClient],
        spec: Optional[OptimizeSpec] = None,
        timeout: float = 600.0,
        probe_timeout: float = 2.0,
    ) -> None:
        if isinstance(client, str):
            client = OptimizationClient(client, spec=spec)
        elif spec is not None:
            raise ValueError(
                "pass spec either to the OptimizationClient or to "
                "RemoteShard(url, spec=...), not both"
            )
        self.client = client
        self.timeout = timeout
        self.probe_timeout = probe_timeout

    @property
    def url(self) -> str:
        return self.client.base_url

    def __repr__(self) -> str:
        return f"RemoteShard({self.url!r})"

    def check_ready(self, timeout: Optional[float] = None) -> dict:
        """Readiness probe with a probe-scale timeout — the hook
        :class:`~repro.service.shard.ShardedOptimizer` membership
        sweeps call."""
        return self.client.check_ready(
            timeout=timeout if timeout is not None else self.probe_timeout)

    def optimize_fleet(
        self, jobs: Union[Mapping[str, object], Sequence]
    ) -> FleetOptimizationReport:
        host = self.url
        # Gate on readiness first: a daemon whose dispatcher is down
        # (or draining) would otherwise accept nothing but still cost
        # this shard its submit retries, and the resulting error would
        # not say *why*.
        try:
            self.client.check_ready(timeout=self.probe_timeout)
        except ShardFailure:
            raise
        except ClientError as exc:
            raise ShardUnreachable(host, str(exc)) from exc
        try:
            return self.client.optimize_fleet(jobs, timeout=self.timeout)
        except ShardFailure:
            raise
        except BatchFailedError:
            raise  # give-up: the batch fails deterministically anywhere
        except ClientTimeout as exc:
            raise ShardTimeout(host, str(exc)) from exc
        except ClientError as exc:
            if exc.status == 429:
                raise ShardSaturated(host, str(exc)) from exc
            if exc.status is None or exc.status >= 500:
                raise ShardUnreachable(host, str(exc)) from exc
            raise  # 4xx: a malformed batch is a give-up, not a re-home

    def stats(self) -> dict:
        return self.client.stats()["cache"]
