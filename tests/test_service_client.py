"""Tests for the daemon HTTP client library (repro.service.client).

Covers the wire format, the submit→poll→report round trip against an
in-process daemon (report rehydration must be byte-faithful to a local
run), 429/``Retry-After`` honoring against a scripted stub server, the
``POST /compact`` GC endpoint, and ``RemoteShard`` fan-out through
``ShardedOptimizer`` over two live in-process daemons.
"""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.signature import structural_signature
from repro.service import (
    BatchFailedError,
    BatchOptimizer,
    ClientError,
    DiskStore,
    FleetOptimizationReport,
    JobResult,
    OptimizationClient,
    OptimizationDaemon,
    OptimizationJob,
    RemoteShard,
    ShardedOptimizer,
)
from repro.service.client import fleet_to_body, report_from_dict
from tests.test_service import small_pipeline

#: analytic backend keeps every client test sub-second
FAST_SPEC = OptimizeSpec(iterations=1, backend="analytic",
                         trace_duration=1.0, trace_warmup=0.25)


def make_fleet(num_jobs=8, distinct=3, seed=3):
    return generate_pipeline_fleet(
        num_jobs=num_jobs, distinct=distinct, seed=seed,
        config=FleetConfig(domain_weights={"vision": 1.0},
                           optimize_spec=FAST_SPEC),
    )


@pytest.fixture
def daemon(test_machine):
    dm = OptimizationDaemon(
        BatchOptimizer(machine=test_machine, executor="serial",
                       spec=FAST_SPEC),
    )
    with dm:
        yield dm


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_mapping_form(self, small_catalog):
        body = fleet_to_body({"a": small_pipeline(small_catalog)})
        assert [j["name"] for j in body["jobs"]] == ["a"]
        assert body["jobs"][0]["pipeline"]["nodes"]
        assert "machine" not in body["jobs"][0]
        assert "spec" not in body

    def test_tuple_form_with_machine(self, small_catalog, test_machine):
        body = fleet_to_body(
            [("a", small_pipeline(small_catalog), test_machine)])
        assert body["jobs"][0]["machine"] == test_machine.to_dict()

    def test_batch_and_job_specs_serialized(self, small_catalog,
                                            test_machine):
        job = OptimizationJob("a", small_pipeline(small_catalog),
                              test_machine, spec=FAST_SPEC)
        body = fleet_to_body([job], spec=FAST_SPEC.replace(iterations=2))
        assert body["spec"]["iterations"] == 2
        assert body["jobs"][0]["spec"] == FAST_SPEC.to_dict()

    def test_long_tuples_rejected(self, small_catalog, test_machine):
        with pytest.raises(ValueError, match="OptimizeSpec instead"):
            fleet_to_body(
                [("a", small_pipeline(small_catalog), test_machine, 4)])


# ----------------------------------------------------------------------
# Round trip against a live in-process daemon
# ----------------------------------------------------------------------
class TestClientRoundTrip:
    def test_optimize_fleet_end_to_end(self, daemon, small_catalog,
                                       test_machine):
        client = OptimizationClient(daemon.url)
        pipe = small_pipeline(small_catalog)
        report = client.optimize_fleet(
            [("a", pipe, test_machine), ("b", pipe, test_machine)],
            spec=FAST_SPEC)
        assert isinstance(report, FleetOptimizationReport)
        assert [j.name for j in report.jobs] == ["a", "b"]
        assert all(isinstance(j, JobResult) for j in report.jobs)
        # Structurally identical jobs share one optimization daemon-side.
        assert report.cache_misses == 1 and report.cache_hits == 1
        assert report.jobs[1].cache_hit
        assert report.jobs[0].provenance["producer"] == "analytic"
        assert math.isfinite(report.jobs[0].speedup)
        # The cache key travels so shard merges dedup correctly.
        assert report.jobs[0].cache_key
        assert report.jobs[0].cache_key == report.jobs[1].cache_key

    def test_rehydration_is_byte_faithful_to_local_run(self, daemon):
        """A rehydrated report's programs re-serialize to exactly the
        JSON a local BatchOptimizer run carries — remote results are
        the same valid programs, not approximations of them."""
        fleet = make_fleet()
        local = BatchOptimizer(executor="serial",
                               spec=FAST_SPEC).optimize_fleet(fleet)
        remote = OptimizationClient(daemon.url).optimize_fleet(fleet)
        assert [j.pipeline_json for j in remote.jobs] == \
               [j.pipeline_json for j in local.jobs]
        assert [j.signature for j in remote.jobs] == \
               [j.signature for j in local.jobs]
        assert [j.decisions for j in remote.jobs] == \
               [j.decisions for j in local.jobs]
        assert [j.speedup for j in remote.jobs] == \
               [j.speedup for j in local.jobs]
        for mine, ref in zip(remote.jobs, local.jobs):
            # The materialized rewrite is a real program, structurally
            # identical to the one the local run produced. (Its
            # signature differs from JobResult.signature, which hashes
            # the *submitted* pipeline.)
            assert structural_signature(mine.pipeline) == \
                structural_signature(ref.pipeline)

    def test_non_finite_floats_rehydrate_as_nan(self):
        data = {
            "cache_hits": 0, "cache_misses": 1,
            "jobs": [{
                "name": "x", "signature": "s", "cache_hit": False,
                "baseline_throughput": None, "optimized_throughput": 1.0,
                "predicted_throughput": None, "bottleneck": "none",
                "decisions": [],
                "pipeline": json.loads(
                    BatchOptimizer(executor="serial", spec=FAST_SPEC)
                    .optimize_fleet(make_fleet(num_jobs=1, distinct=1))
                    .jobs[0].pipeline_json),
            }],
        }
        report = report_from_dict(data)
        assert math.isnan(report.jobs[0].baseline_throughput)
        assert math.isnan(report.jobs[0].predicted_throughput)

    def test_unknown_batch_raises_client_error_404(self, daemon):
        client = OptimizationClient(daemon.url)
        with pytest.raises(ClientError, match="unknown batch") as err:
            client.report("batch-9999")
        assert err.value.status == 404

    def test_daemon_side_400_raises_immediately(self, daemon,
                                                small_catalog,
                                                test_machine):
        client = OptimizationClient(daemon.url)
        pipe = small_pipeline(small_catalog)
        with pytest.raises(ClientError, match="duplicate") as err:
            client.submit([("dup", pipe, test_machine),
                           ("dup", pipe, test_machine)])
        assert err.value.status == 400

    def test_failed_batch_raises_batch_failed(self, daemon, small_catalog,
                                              test_machine):
        def boom(jobs):
            raise RuntimeError("worker exploded")

        daemon.optimizer.optimize_fleet = boom
        client = OptimizationClient(daemon.url)
        with pytest.raises(BatchFailedError, match="worker exploded"):
            client.optimize_fleet(
                [("x", small_pipeline(small_catalog), test_machine)])

    def test_wait_times_out_on_stuck_batch(self, daemon, small_catalog,
                                           test_machine):
        gate = threading.Event()
        original = daemon.optimizer.optimize_fleet

        def gated(jobs):
            assert gate.wait(timeout=60)
            return original(jobs)

        daemon.optimizer.optimize_fleet = gated
        client = OptimizationClient(daemon.url)
        try:
            accepted = client.submit(
                [("x", small_pipeline(small_catalog), test_machine)])
            with pytest.raises(ClientError, match="still"):
                client.wait(accepted["id"], timeout=0.2)
        finally:
            gate.set()
            client.wait(accepted["id"], timeout=60)

    def test_unreachable_daemon_raises_client_error(self):
        client = OptimizationClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ClientError, match="unreachable"):
            client.stats()


# ----------------------------------------------------------------------
# Keep-alive transport: one persistent connection per client
# ----------------------------------------------------------------------
class TestKeepAliveTransport:
    def test_requests_reuse_one_connection(self, daemon):
        client = OptimizationClient(daemon.url)
        client.stats()
        conn, sock = client._conn, client._conn.sock
        client.stats()
        client.health()
        assert client._conn is conn
        assert client._conn.sock is sock  # same socket, no re-handshake

    def test_stale_connection_retried_on_a_fresh_one(self, daemon):
        """A keep-alive socket the server (or an idle timeout) closed
        must be replaced transparently, not surfaced as an error."""
        client = OptimizationClient(daemon.url)
        client.stats()
        client._conn.sock.close()  # simulate the peer dropping the socket
        payload = client.stats()   # retried on a fresh connection
        assert "cache" in payload

    def test_close_is_reopenable_and_context_managed(self, daemon):
        with OptimizationClient(daemon.url) as client:
            client.stats()
            assert client._conn is not None
        assert client._conn is None  # context exit closed the socket
        client.stats()               # lazily reopened on next use
        assert client._conn is not None
        client.close()

    def test_rejects_non_http_schemes(self):
        with pytest.raises(ValueError, match="scheme"):
            OptimizationClient("https://127.0.0.1:9")


# ----------------------------------------------------------------------
# Health endpoints and the RemoteShard readiness gate
# ----------------------------------------------------------------------
class TestReadinessGate:
    def test_health_and_check_ready_on_live_daemon(self, daemon):
        client = OptimizationClient(daemon.url)
        assert client.health() == {"status": "ok"}
        payload = client.check_ready()
        assert payload["ready"] is True

    def test_check_ready_carries_the_daemon_reason(self, daemon):
        daemon._pool.shutdown(wait=True)
        daemon._pool = None
        client = OptimizationClient(daemon.url)
        with pytest.raises(ClientError, match="not ready.*dispatcher pool"):
            client.check_ready()

    def test_remote_shard_refuses_dispatch_to_unready_daemon(
            self, daemon, small_catalog):
        daemon._pool.shutdown(wait=True)
        daemon._pool = None
        shard = RemoteShard(daemon.url, spec=FAST_SPEC)
        with pytest.raises(ClientError, match="not ready"):
            shard.optimize_fleet({"a": small_pipeline(small_catalog)})


# ----------------------------------------------------------------------
# 429 retry behaviour against a scripted stub daemon
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A stub daemon answering ``POST /optimize`` from a fixed script
    of ``(status, headers, payload)`` responses, in order."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                stub.requests += 1
                status, headers, payload = stub.script.pop(0)
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for k, v in headers.items():
                    self.send_header(k, v)
                self.end_headers()
                self.wfile.write(body)

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def scripted():
    servers = []

    def start(script):
        server = _ScriptedServer(script)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


ACCEPTED = (202, {}, {"id": "batch-0001", "status": "queued", "jobs": 1})


class TestRetry429:
    def _client(self, url, **kwargs):
        sleeps = []
        client = OptimizationClient(url, sleep=sleeps.append, **kwargs)
        return client, sleeps

    def test_submit_honors_retry_after_then_succeeds(self, scripted,
                                                     small_catalog):
        server = scripted([
            (429, {"Retry-After": "2"}, {"error": "lane full",
                                         "retry_after_seconds": 2}),
            (429, {"Retry-After": "0.5"}, {"error": "lane full"}),
            ACCEPTED,
        ])
        client, sleeps = self._client(server.url)
        accepted = client.submit({"a": small_pipeline(small_catalog)})
        assert accepted["id"] == "batch-0001"
        assert sleeps == [2.0, 0.5]  # exactly the daemon's hints
        assert server.requests == 3

    def test_retries_exhausted_raises_429(self, scripted, small_catalog):
        server = scripted([(429, {"Retry-After": "1"}, {"error": "full"})] * 3)
        client, sleeps = self._client(server.url, max_retries=2)
        with pytest.raises(ClientError) as err:
            client.submit({"a": small_pipeline(small_catalog)})
        assert err.value.status == 429
        assert sleeps == [1.0, 1.0]
        assert server.requests == 3  # initial try + 2 retries

    def test_retry_after_clamped_to_ceiling(self, scripted, small_catalog):
        server = scripted([
            (429, {"Retry-After": "999"}, {"error": "full"}),
            ACCEPTED,
        ])
        client, sleeps = self._client(server.url, max_retry_after=3.0)
        client.submit({"a": small_pipeline(small_catalog)})
        assert sleeps == [3.0]

    def test_retry_hint_fallbacks(self, scripted, small_catalog):
        """No Retry-After header: the JSON hint is used; neither: 1s."""
        server = scripted([
            (429, {}, {"error": "full", "retry_after_seconds": 0.25}),
            (429, {}, {"error": "full"}),
            ACCEPTED,
        ])
        client, sleeps = self._client(server.url)
        client.submit({"a": small_pipeline(small_catalog)})
        assert sleeps == [0.25, 1.0]

    def test_non_429_rejection_never_retries(self, scripted, small_catalog):
        server = scripted([(400, {}, {"error": "bad batch"})])
        client, sleeps = self._client(server.url)
        with pytest.raises(ClientError, match="bad batch"):
            client.submit({"a": small_pipeline(small_catalog)})
        assert sleeps == [] and server.requests == 1


# ----------------------------------------------------------------------
# POST /compact — store GC over HTTP
# ----------------------------------------------------------------------
class TestCompactEndpoint:
    def test_age_gc_over_http(self, tmp_path):
        """Entries at/over the age horizon are evicted, newer survive,
        and a second pass removes nothing (idempotent)."""
        tick = [100.0]
        dm = OptimizationDaemon(
            BatchOptimizer(executor="serial", spec=FAST_SPEC,
                           store=DiskStore(tmp_path),
                           clock=lambda: tick[0]),
        )
        with dm:
            client = OptimizationClient(dm.url)
            old = client.optimize_fleet(make_fleet(seed=3))   # stamped t=100
            tick[0] = 180.0
            new = client.optimize_fleet(make_fleet(seed=9))   # stamped t=180
            total = old.cache_misses + new.cache_misses
            assert client.stats()["cache"]["store_entries"] == total
            tick[0] = 200.0
            # Horizon 50s at t=200: the t=100 entries (age 100) go, the
            # t=180 entries (age 20) stay.
            payload = client.compact(50)
            assert payload["removed"] == old.cache_misses
            assert payload["store_entries"] == new.cache_misses
            assert client.compact(50)["removed"] == 0  # idempotent
            # The survivors still serve hits.
            again = client.optimize_fleet(make_fleet(seed=9))
            assert again.cache_misses == 0

    def test_bad_horizon_is_400(self, daemon):
        client = OptimizationClient(daemon.url)
        for bad in (-1, "soon", None, True):
            with pytest.raises(ClientError) as err:
                client.compact(bad)
            assert err.value.status == 400

    def test_store_without_compact_is_501(self, test_machine):
        class MinimalStore:
            def __init__(self):
                self._d = {}

            def get(self, key):
                return self._d.get(key)

            def put(self, key, entry):
                self._d[key] = entry

            def keys(self):
                return tuple(self._d)

            def __len__(self):
                return len(self._d)

        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC, store=MinimalStore()))
        with dm:
            with pytest.raises(ClientError) as err:
                OptimizationClient(dm.url).compact(60)
            assert err.value.status == 501


# ----------------------------------------------------------------------
# RemoteShard fan-out over two live daemons (in-process HTTP)
# ----------------------------------------------------------------------
class TestRemoteShardFanOut:
    def test_matches_single_batch_optimizer(self):
        fleet = make_fleet(num_jobs=10, distinct=4)
        local = BatchOptimizer(executor="serial",
                               spec=FAST_SPEC).optimize_fleet(fleet)
        daemons = [
            OptimizationDaemon(
                BatchOptimizer(executor="serial", spec=FAST_SPEC)).start()
            for _ in range(2)
        ]
        try:
            sharded = ShardedOptimizer(
                [RemoteShard(dm.url) for dm in daemons])
            merged = sharded.optimize_fleet(fleet)
        finally:
            for dm in daemons:
                dm.close()
        assert [j.name for j in merged.jobs] == [j.name for j in local.jobs]
        assert [j.signature for j in merged.jobs] == \
               [j.signature for j in local.jobs]
        assert [j.speedup for j in merged.jobs] == \
               [j.speedup for j in local.jobs]
        # Signature-affine shards + cache-key dedup in merge: the
        # fleet-wide arithmetic equals the single-service run.
        assert merged.cache_misses == local.cache_misses
        assert merged.cache_hits == local.cache_hits

    def test_multisource_fleet_round_trips_byte_identical(self):
        """Acceptance: a zip/interleave fleet survives the full service
        path. The local ``BatchOptimizer`` report, a single daemon's
        report, and a 2-shard ``RemoteShard`` merged report must agree
        on names/signatures/speedups/bottlenecks, and every job's
        rewritten program must be **byte-identical** JSON across all
        three — multi-source DAGs serialize canonically on the wire.
        """
        fleet = generate_pipeline_fleet(
            num_jobs=8, distinct=4, seed=21,
            config=FleetConfig(
                domain_weights={"multimodal": 0.5, "rl_replay": 0.5},
                optimize_spec=FAST_SPEC),
        )
        local = BatchOptimizer(executor="serial",
                               spec=FAST_SPEC).optimize_fleet(fleet)
        # The fleet must actually exercise both merge kinds.
        assert any('"zip"' in j.pipeline_json for j in local.jobs)
        assert any('"interleave_datasets"' in j.pipeline_json
                   for j in local.jobs)
        daemons = [
            OptimizationDaemon(
                BatchOptimizer(executor="serial", spec=FAST_SPEC)).start()
            for _ in range(3)
        ]
        try:
            # One daemon serving the whole fleet...
            single = OptimizationClient(daemons[0].url).optimize_fleet(fleet)
            # ...and a cold 2-shard fan-out of the same fleet.
            merged = ShardedOptimizer(
                [RemoteShard(dm.url) for dm in daemons[1:]]
            ).optimize_fleet(fleet)
        finally:
            for dm in daemons:
                dm.close()
        for remote in (single, merged):
            assert [j.name for j in remote.jobs] == \
                   [j.name for j in local.jobs]
            assert [j.signature for j in remote.jobs] == \
                   [j.signature for j in local.jobs]
            assert [j.speedup for j in remote.jobs] == \
                   [j.speedup for j in local.jobs]
            assert [j.bottleneck for j in remote.jobs] == \
                   [j.bottleneck for j in local.jobs]
            assert [j.pipeline_json for j in remote.jobs] == \
                   [j.pipeline_json for j in local.jobs]
            assert remote.cache_misses == local.cache_misses
            assert remote.cache_hits == local.cache_hits

    def test_remote_shard_stats_match_contract(self, daemon):
        shard = RemoteShard(daemon.url)
        shard.optimize_fleet(make_fleet(num_jobs=4, distinct=2))
        stats = shard.stats()
        # The same mapping an in-process BatchOptimizer.stats() reports.
        assert set(stats) >= {"cache_hits", "cache_misses",
                              "cache_hit_rate", "store_entries"}
        assert stats["cache_hits"] + stats["cache_misses"] == 4

    def test_remote_shard_spec_conflict_rejected(self, daemon):
        client = OptimizationClient(daemon.url)
        with pytest.raises(ValueError, match="not both"):
            RemoteShard(client, spec=FAST_SPEC)
