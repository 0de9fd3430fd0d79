"""Tests for deterministic fleet sharding and report merging."""

import pytest

from repro.core.spec import OptimizeSpec
from repro.fleet.analysis import merged_cache_counts
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.signature import structural_signature
from repro.service import (
    BatchOptimizer,
    FleetOptimizationReport,
    JobResult,
    ShardedOptimizer,
    shard_fleet,
)
from tests.test_service import small_pipeline

FAST_SPEC = OptimizeSpec(iterations=1, backend="analytic",
                         trace_duration=1.0, trace_warmup=0.25)


def make_fleet(num_jobs=12, distinct=4, seed=5):
    return generate_pipeline_fleet(
        num_jobs=num_jobs, distinct=distinct, seed=seed,
        config=FleetConfig(domain_weights={"vision": 1.0},
                           optimize_spec=FAST_SPEC),
    )


def _result(name, signature, cache_hit, cache_key):
    """A minimal JobResult for merge-arithmetic tests."""
    return JobResult(
        name=name, signature=signature, cache_hit=cache_hit,
        baseline_throughput=1.0, optimized_throughput=2.0,
        predicted_throughput=2.0, bottleneck="src",
        decisions=("d",), pipeline_json="{}", cache_key=cache_key,
    )


class TestShardFleet:
    def test_deterministic_across_calls(self):
        fleet = make_fleet()
        a = shard_fleet(fleet, 4)
        b = shard_fleet(list(fleet), 4)
        assert [[j.name for j in s] for s in a] == \
               [[j.name for j in s] for s in b]

    def test_signature_affinity(self):
        """Structurally identical jobs always land on the same shard, so
        per-shard caches dedup as well as a global one."""
        fleet = make_fleet()
        shards = shard_fleet(fleet, 3)
        location = {}
        for idx, shard in enumerate(shards):
            for job in shard:
                sig = structural_signature(job.pipeline)
                assert location.setdefault(sig, idx) == idx

    def test_all_jobs_kept_order_preserved_within_shard(self):
        fleet = make_fleet()
        shards = shard_fleet(fleet, 3)
        assert sum(len(s) for s in shards) == len(fleet)
        order = {j.name: i for i, j in enumerate(fleet)}
        for shard in shards:
            indices = [order[j.name] for j in shard]
            assert indices == sorted(indices)

    def test_single_shard_takes_everything(self):
        fleet = make_fleet(num_jobs=5, distinct=2)
        shards = shard_fleet(fleet, 1)
        assert len(shards) == 1 and len(shards[0]) == 5

    def test_mapping_input_shards_as_tuples(self, small_catalog):
        jobs = {"a": small_pipeline(small_catalog, name="a"),
                "b": small_pipeline(small_catalog, parallelism=4, name="b")}
        shards = shard_fleet(jobs, 2)
        flat = [entry for shard in shards for entry in shard]
        assert sorted(name for name, _ in flat) == ["a", "b"]

    def test_invalid_inputs_rejected(self, small_catalog):
        with pytest.raises(ValueError, match="num_hosts"):
            shard_fleet(make_fleet(), 0)
        with pytest.raises(ValueError, match="job tuples"):
            shard_fleet([("only-name",)], 2)


class TestMergeArithmetic:
    def test_merged_cache_counts_dedups_distinct_keys(self):
        hits, misses = merged_cache_counts([
            ("k1", False), ("k1", True),   # shard A: miss + hit
            ("k1", False), ("k2", False),  # shard B: duplicate miss + new
        ])
        assert (hits, misses) == (2, 2)

    def test_merge_does_not_double_count_shared_signature(self):
        """Regression: the same signature missed in two shards is ONE
        distinct optimization fleet-wide; the surplus computation is a
        hit in the merged hit-rate arithmetic."""
        shard_a = FleetOptimizationReport(
            jobs=[_result("a0", "sigS", False, "k_s"),
                  _result("a1", "sigS", True, "k_s")],
            cache_hits=1, cache_misses=1,
        )
        shard_b = FleetOptimizationReport(
            jobs=[_result("b0", "sigS", False, "k_s"),
                  _result("b1", "sigT", False, "k_t")],
            cache_hits=0, cache_misses=2,
        )
        merged = FleetOptimizationReport.merge([shard_a, shard_b])
        # Naive summing would report 3 misses / 1 hit (rate 0.25).
        assert merged.cache_misses == 2
        assert merged.cache_hits == 2
        assert merged.cache_hit_rate == pytest.approx(0.5)
        assert len(merged.jobs) == 4

    def test_merge_falls_back_to_signature_without_keys(self):
        jobs = [_result("x", "sigX", False, ""),
                _result("y", "sigX", False, "")]
        merged = FleetOptimizationReport.merge([
            FleetOptimizationReport(jobs=[j], cache_hits=0, cache_misses=1)
            for j in jobs
        ])
        assert merged.cache_misses == 1 and merged.cache_hits == 1

    def test_merge_of_nothing_is_empty(self):
        merged = FleetOptimizationReport.merge([])
        assert merged.jobs == [] and merged.cache_hit_rate == 0.0


class TestShardedOptimizer:
    def test_matches_unsharded_results(self):
        fleet = make_fleet()
        global_report = BatchOptimizer(
            executor="serial", spec=FAST_SPEC).optimize_fleet(fleet)
        sharded = ShardedOptimizer([
            BatchOptimizer(executor="serial", spec=FAST_SPEC)
            for _ in range(3)
        ])
        merged = sharded.optimize_fleet(fleet)
        # Same jobs, submission order restored across shards.
        assert [j.name for j in merged.jobs] == [j.name for j in fleet]
        # Signature-affine sharding: cache dedup is as good as global.
        assert merged.cache_misses == global_report.cache_misses
        assert merged.cache_hits == global_report.cache_hits
        for mine, ref in zip(merged.jobs, global_report.jobs):
            assert mine.decisions == ref.decisions
            assert mine.optimized_throughput == ref.optimized_throughput

    def test_sharded_disk_stores_one_dir_per_host(self, tmp_path):
        fleet = make_fleet(num_jobs=8, distinct=3)
        def build():
            from repro.service import DiskStore
            return ShardedOptimizer([
                BatchOptimizer(executor="serial", spec=FAST_SPEC,
                               store=DiskStore(tmp_path / f"host{i}"))
                for i in range(2)
            ])
        build().optimize_fleet(fleet)
        # A fresh set of per-host services reuses each host's store.
        merged = build().optimize_fleet(fleet)
        assert merged.cache_misses == 0
        assert merged.cache_hit_rate == 1.0

    def test_stats_aggregate_across_shards(self):
        fleet = make_fleet(num_jobs=6, distinct=2)
        sharded = ShardedOptimizer([
            BatchOptimizer(executor="serial", spec=FAST_SPEC)
            for _ in range(2)
        ])
        sharded.optimize_fleet(fleet)
        stats = sharded.stats()
        assert stats["cache_hits"] + stats["cache_misses"] == 6
        assert stats["cache_misses"] == 2
        assert len(stats["shards"]) == 2

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedOptimizer([])

    def test_shard_contract_enforced(self):
        """A shard is anything with optimize_fleet + stats; anything
        else is rejected at construction, not deep inside dispatch."""
        class HalfShard:
            def optimize_fleet(self, jobs):
                return None

        with pytest.raises(TypeError, match="shard contract"):
            ShardedOptimizer([object()])
        with pytest.raises(TypeError, match="shard contract"):
            ShardedOptimizer([HalfShard()])

    def test_dispatch_is_concurrent_not_sequential(self):
        """Acceptance: on a delayed-shard fixture, fleet wallclock must
        be under the *sum* of per-shard times — shards run on their own
        dispatcher threads, so total time tracks the slowest shard."""
        import time as _time

        class DelayedShard:
            """A shard whose optimize_fleet blocks before delegating,
            timing its own busy window."""

            def __init__(self, delay=0.35):
                self.inner = BatchOptimizer(executor="serial",
                                            spec=FAST_SPEC)
                self.delay = delay
                self.busy_seconds = 0.0

            def optimize_fleet(self, jobs):
                start = _time.perf_counter()
                _time.sleep(self.delay)
                report = self.inner.optimize_fleet(jobs)
                self.busy_seconds = _time.perf_counter() - start
                return report

            def stats(self):
                return self.inner.stats()

        fleet = make_fleet()
        shards = [DelayedShard() for _ in range(3)]
        sharded = ShardedOptimizer(shards)
        start = _time.perf_counter()
        merged = sharded.optimize_fleet(fleet)
        wallclock = _time.perf_counter() - start

        occupied = [s for s in shards if s.busy_seconds > 0]
        assert len(occupied) >= 2  # the fixture must actually fan out
        per_shard_sum = sum(s.busy_seconds for s in occupied)
        # Sequential dispatch would take at least the sum of per-shard
        # times; concurrent dispatch tracks the slowest shard.
        assert wallclock < per_shard_sum
        assert wallclock < 0.35 * len(occupied)
        # Concurrency must not change results.
        reference = BatchOptimizer(executor="serial",
                                   spec=FAST_SPEC).optimize_fleet(fleet)
        assert [j.name for j in merged.jobs] == \
               [j.name for j in reference.jobs]
        assert [j.optimized_throughput for j in merged.jobs] == \
               [j.optimized_throughput for j in reference.jobs]

    def test_shard_error_propagates(self):
        class BoomShard:
            def optimize_fleet(self, jobs):
                raise RuntimeError("shard host down")

            def stats(self):
                return {}

        fleet = make_fleet()
        sharded = ShardedOptimizer([BoomShard(), BoomShard(),
                                    BoomShard()])
        with pytest.raises(RuntimeError, match="shard host down"):
            sharded.optimize_fleet(fleet)

    def test_duplicate_names_rejected_even_across_shards(self,
                                                         small_catalog):
        """BatchOptimizer rejects duplicate names; the sharded front-end
        must too, even when the duplicates' pipelines would hash to
        different shards and each shard would see the name once."""
        sharded = ShardedOptimizer([
            BatchOptimizer(executor="serial", spec=FAST_SPEC)
            for _ in range(2)
        ])
        p1 = small_pipeline(small_catalog, name="p1")
        p2 = small_pipeline(small_catalog, parallelism=4, name="p2")
        with pytest.raises(ValueError, match="duplicate"):
            sharded.optimize_fleet([("same", p1), ("same", p2)])


class TestShardMetricsAndClock:
    def test_injected_clock_times_out_without_sleeping(self):
        """A fake clock jumped past the dispatch deadline times shards
        out immediately — deadline arithmetic runs on the injected
        clock, not wall time (satellite: no-sleep deadline tests)."""
        import itertools
        import threading
        import time as _time

        from repro.service.errors import ShardDispatchError

        release = threading.Event()

        class StuckShard:
            def __init__(self):
                self.inner = BatchOptimizer(executor="serial",
                                            spec=FAST_SPEC)

            def optimize_fleet(self, jobs):
                release.wait(10)
                return self.inner.optimize_fleet(jobs)

            def stats(self):
                return self.inner.stats()

        ticks = itertools.count(0, 1000.0)
        sharded = ShardedOptimizer(
            [StuckShard()],
            shard_timeout=10.0,           # << the 1000/read fake clock
            quarantine_after=1,
            monotonic=lambda: float(next(ticks)),
        )
        start = _time.perf_counter()
        try:
            with pytest.raises(ShardDispatchError, match="no surviving"):
                sharded.optimize_fleet(make_fleet(num_jobs=4, distinct=2))
        finally:
            release.set()
        # No real waiting happened: the 10 s deadline expired on the
        # fake clock, not the wall clock.
        assert _time.perf_counter() - start < 5.0
        summary = sharded.metrics.summary()
        assert summary[
            'repro_shard_failures_total'
            '{host="shard-0",kind="ShardTimeout"}'] == 1.0
        assert summary[
            'repro_shard_quarantines_total{host="shard-0"}'] == 1.0

    def test_stats_merges_shard_metric_snapshots(self):
        """stats()['metrics'] is the fleet-wide snapshot: the router's
        own dispatch histograms merged bucket-wise with every reachable
        shard's registry."""
        from repro.obs import summarize_snapshot

        fleet = make_fleet(num_jobs=12, distinct=4)
        sharded = ShardedOptimizer([
            BatchOptimizer(executor="serial", spec=FAST_SPEC)
            for _ in range(3)
        ])
        sharded.optimize_fleet(fleet)
        stats = sharded.stats()
        summary = summarize_snapshot(stats["metrics"])
        # Counter families sum across shards: signature-affine routing
        # means per-shard misses add up to the deduped global count.
        assert summary['repro_service_jobs_total{result="miss"}'] == \
            stats["cache_misses"]
        assert summary['repro_service_jobs_total{result="hit"}'] == \
            stats["cache_hits"]
        # The front-end's dispatch latency histogram covers every
        # occupied host, and histograms survive the merge as quantiles.
        dispatch = {
            key: value for key, value in summary.items()
            if key.startswith("repro_shard_dispatch_seconds")
        }
        assert len(dispatch) >= 2  # the fleet actually fanned out
        for value in dispatch.values():
            assert value["count"] == 1
            assert value["p50"] <= value["p99"]
        # Per-shard job latency histograms pooled: one observation per
        # executed (miss) job across the whole fleet.
        job_seconds = summary[
            'repro_service_job_seconds{backend="analytic"}']
        assert job_seconds["count"] == stats["cache_misses"]
