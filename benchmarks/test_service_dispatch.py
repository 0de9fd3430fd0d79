"""Distributed-dispatch benchmark: concurrent shard fan-out and the
HTTP transport overhead.

The sharding layer's scaling claim is that fleet wallclock tracks the
*slowest* shard, not the sum of shards — shard dispatch must overlap.
This benchmark measures:

* concurrent vs. notional-sequential dispatch on a delayed-shard
  fixture (every shard sleeps a fixed latency before optimizing, so
  overlap is directly visible in wallclock), and
* the per-job overhead of going through the daemon HTTP path
  (``RemoteShard`` → serialize → POST → poll → rehydrate) versus
  calling ``BatchOptimizer`` in process.

Analytic backend throughout, so the whole module stays on the fast-path
CI job: the point is dispatch mechanics, not simulation cost.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import RUN_DIR, emit
from repro.analysis.tables import format_table
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.service import (
    BatchOptimizer,
    OptimizationClient,
    OptimizationDaemon,
    RemoteShard,
    ShardedOptimizer,
)

NUM_JOBS = 24
DISTINCT = 6
SEED = 17
SHARDS = 3
SHARD_DELAY_S = 0.25

SPEC = OptimizeSpec(iterations=1, backend="analytic",
                    trace_duration=1.0, trace_warmup=0.25)


@pytest.fixture(scope="module")
def fleet():
    return generate_pipeline_fleet(
        num_jobs=NUM_JOBS, distinct=DISTINCT, seed=SEED,
        config=FleetConfig(optimize_spec=SPEC),
    )


class _DelayedShard:
    """A shard with a fixed dispatch latency (a slow host / WAN hop)."""

    def __init__(self, delay: float) -> None:
        self.inner = BatchOptimizer(executor="serial", spec=SPEC)
        self.delay = delay
        self.busy_seconds = 0.0

    def optimize_fleet(self, jobs):
        start = time.perf_counter()
        time.sleep(self.delay)
        report = self.inner.optimize_fleet(jobs)
        self.busy_seconds = time.perf_counter() - start
        return report

    def stats(self):
        return self.inner.stats()


class TestShardDispatch:
    def test_concurrent_dispatch_beats_sequential_sum(self, fleet, once):
        shards = [_DelayedShard(SHARD_DELAY_S) for _ in range(SHARDS)]
        sharded = ShardedOptimizer(shards)

        start = time.perf_counter()
        report = once(sharded.optimize_fleet, fleet)
        wallclock = time.perf_counter() - start

        occupied = [s for s in shards if s.busy_seconds > 0]
        sequential = sum(s.busy_seconds for s in occupied)
        slowest = max(s.busy_seconds for s in occupied)
        rows = [
            ("fleet jobs", NUM_JOBS),
            ("occupied shards", f"{len(occupied)}/{SHARDS}"),
            ("per-shard latency", f"{SHARD_DELAY_S * 1e3:.0f} ms"),
            ("sequential dispatch (sum)", f"{sequential * 1e3:.0f} ms"),
            ("concurrent dispatch (measured)", f"{wallclock * 1e3:.0f} ms"),
            ("slowest shard", f"{slowest * 1e3:.0f} ms"),
            ("overlap speedup", f"{sequential / wallclock:.2f}x"),
        ]
        emit("BENCH_service_dispatch",
             format_table(("metric", "value"), rows,
                          title="Sharded dispatch: concurrent fan-out"),
             RUN_DIR)
        assert len(occupied) >= 2
        assert report.cache_hits + report.cache_misses == NUM_JOBS
        # The scaling claim: wallclock tracks the slowest shard, not
        # the sum of shards.
        assert wallclock < sequential

    def test_http_transport_overhead_per_job(self, fleet, once):
        local_service = BatchOptimizer(executor="serial", spec=SPEC)
        start = time.perf_counter()
        local = local_service.optimize_fleet(fleet)
        local_s = time.perf_counter() - start

        with OptimizationDaemon(
            BatchOptimizer(executor="serial", spec=SPEC)
        ) as daemon:
            shard = RemoteShard(daemon.url)
            start = time.perf_counter()
            remote = once(shard.optimize_fleet, fleet)
            remote_s = time.perf_counter() - start

            # Per-request transport cost, before/after keep-alive: the
            # client holds one persistent connection; closing it after
            # every request reproduces the old one-TCP-handshake-per-
            # request behaviour on identical requests.
            client = OptimizationClient(daemon.url)
            client.stats()  # warm the route once
            requests = 200
            start = time.perf_counter()
            for _ in range(requests):
                client.stats()
                client.close()
            fresh_ms = (time.perf_counter() - start) / requests * 1e3
            start = time.perf_counter()
            for _ in range(requests):
                client.stats()
            reused_ms = (time.perf_counter() - start) / requests * 1e3
            client.close()

        assert [j.name for j in remote.jobs] == [j.name for j in local.jobs]
        assert [j.speedup for j in remote.jobs] == \
               [j.speedup for j in local.jobs]
        overhead_ms = (remote_s - local_s) / NUM_JOBS * 1e3
        rows = [
            ("fleet jobs", NUM_JOBS),
            ("in-process optimize_fleet", f"{local_s * 1e3:.1f} ms"),
            ("HTTP submit→poll→rehydrate", f"{remote_s * 1e3:.1f} ms"),
            ("transport overhead / job", f"{overhead_ms:.2f} ms"),
            ("per-request, fresh connection", f"{fresh_ms:.3f} ms"),
            ("per-request, keep-alive", f"{reused_ms:.3f} ms"),
            ("keep-alive saving / request",
             f"{fresh_ms - reused_ms:.3f} ms "
             f"({fresh_ms / reused_ms:.2f}x)"),
        ]
        emit("BENCH_service_http_overhead",
             format_table(("metric", "value"), rows,
                          title="Daemon HTTP transport overhead"),
             RUN_DIR)
        # The HTTP hop must stay cheap relative to even one simulated
        # trace (hundreds of ms): a loose sanity bound, not a race.
        assert overhead_ms < 250
        # Keep-alive must never make the common poll loop slower; the
        # generous factor keeps this off the flaky-timing list.
        assert reused_ms < fresh_ms * 1.5
