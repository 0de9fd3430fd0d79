"""Persistent-service benchmark: disk-store round trips and warm restart.

The service items from ROADMAP turn optimization into a repeatable
service; this benchmark measures the two costs that make persistence
worth it:

* a cold fleet optimization populating a :class:`DiskStore`, vs the
  same fleet optimized by a *fresh* service instance against the warm
  store — the warm pass must be pure store reads (100% hit rate, the
  ≥90% acceptance bar with margin);
* raw ``DiskStore`` put/get round-trip latency at fleet-entry sizes.

Analytic backend throughout: the point is store economics, not
simulation cost, so the whole module stays on the fast-path CI job.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import RUN_DIR, emit
from repro.analysis.tables import format_table
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.service import BatchOptimizer, DiskStore

NUM_JOBS = 40
DISTINCT = 8
SEED = 13

SPEC = OptimizeSpec(iterations=1, backend="analytic",
                    trace_duration=1.0, trace_warmup=0.25)


@pytest.fixture(scope="module")
def fleet():
    return generate_pipeline_fleet(
        num_jobs=NUM_JOBS, distinct=DISTINCT, seed=SEED,
        config=FleetConfig(optimize_spec=SPEC),
    )


class TestServicePersistence:
    def test_warm_restart_serves_from_disk(self, fleet, tmp_path_factory,
                                           once):
        cache_dir = tmp_path_factory.mktemp("store")

        t0 = time.perf_counter()
        cold_report = BatchOptimizer(
            executor="serial", spec=SPEC, store=DiskStore(cache_dir)
        ).optimize_fleet(fleet)
        cold_s = time.perf_counter() - t0

        def warm():
            service = BatchOptimizer(executor="serial", spec=SPEC,
                                     store=DiskStore(cache_dir))
            return service.optimize_fleet(fleet)

        t0 = time.perf_counter()
        warm_report = once(warm)
        warm_s = time.perf_counter() - t0

        assert cold_report.cache_misses == DISTINCT
        assert warm_report.cache_misses == 0
        assert warm_report.cache_hit_rate == 1.0 >= 0.9  # acceptance bar
        # Warm restart skips every optimization; it must be much cheaper
        # than the cold pass even with the analytic fast path.
        speedup = cold_s / max(warm_s, 1e-9)
        rows = [
            ("fleet jobs", NUM_JOBS),
            ("distinct templates", DISTINCT),
            ("cold pass (populate store)", f"{cold_s * 1e3:.1f} ms"),
            ("warm pass (fresh process)", f"{warm_s * 1e3:.1f} ms"),
            ("warm hit rate", f"{warm_report.cache_hit_rate:.0%}"),
            ("cold/warm speedup", f"{speedup:.1f}x"),
        ]
        emit("BENCH_service_persistence",
             format_table(("metric", "value"), rows,
                          title="Disk-backed result store: warm restart"),
             RUN_DIR)
        assert speedup > 1.0

    def test_store_round_trip_latency(self, tmp_path_factory, benchmark):
        store = DiskStore(tmp_path_factory.mktemp("rtt"))
        entry = {"result": {"pipeline": "x" * 4096,
                            "decisions": ["d"] * 8,
                            "baseline_throughput": 1.0,
                            "optimized_throughput": 2.0},
                 "provenance": {"producer": "analytic", "created_at": 0.0}}

        def round_trip():
            for i in range(32):
                store.put(f"key{i:02d}", entry)
            assert all(store.get(f"key{i:02d}") is not None
                       for i in range(32))

        benchmark.pedantic(round_trip, rounds=3, iterations=1)
        assert len(store) == 32
