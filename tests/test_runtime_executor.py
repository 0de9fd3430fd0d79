"""Tests for the simulated pipeline executor."""

import math

import pytest

from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from repro.runtime.executor import (
    ModelConsumer,
    RunConfig,
    _granularity_floor,
    auto_granularity,
    run_pipeline,
)
from repro.runtime.engine import SimulationError
from tests.conftest import make_udf, served_caps


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(duration=0.0)
        with pytest.raises(ValueError):
            RunConfig(duration=1.0, warmup=1.0)
        with pytest.raises(ValueError):
            RunConfig(granularity=0)
        with pytest.raises(ValueError):
            RunConfig(event_budget=0)

    def test_kwargs_and_config_exclusive(self, simple_pipeline, test_machine):
        with pytest.raises(TypeError):
            run_pipeline(
                simple_pipeline, test_machine, RunConfig(), duration=1.0
            )


class TestAutoGranularity:
    """Event-budget granularity tuning: chunk size follows the predicted
    event rate, with the legacy batch-size heuristic as the floor."""

    def _cheap_pipeline(self, catalog, cpu):
        return (
            from_tfrecords(catalog, parallelism=2, name="src")
            .map(make_udf("op", cpu=cpu), parallelism=2, name="m")
            .batch(16, name="b")
            .prefetch(4, name="pf")
            .repeat(None, name="r")
            .build("g")
        )

    def test_low_rate_pipeline_keeps_legacy_floor(
        self, simple_pipeline, test_machine
    ):
        g = auto_granularity(simple_pipeline, test_machine, duration=3.0)
        assert g == _granularity_floor(simple_pipeline)

    def test_microsecond_ops_get_coarser_chunks(
        self, small_catalog, test_machine
    ):
        nlp_like = self._cheap_pipeline(small_catalog, cpu=1e-6)
        g = auto_granularity(nlp_like, test_machine, duration=3.0)
        assert g > _granularity_floor(nlp_like)

    def test_smaller_budget_means_coarser_chunks(
        self, small_catalog, test_machine
    ):
        nlp_like = self._cheap_pipeline(small_catalog, cpu=1e-6)
        fine = auto_granularity(nlp_like, test_machine, duration=3.0,
                                event_budget=1_000_000)
        coarse = auto_granularity(nlp_like, test_machine, duration=3.0,
                                  event_budget=50_000)
        assert coarse > fine

    def test_slow_consumer_relaxes_granularity(
        self, small_catalog, test_machine
    ):
        """A model-bound run produces fewer events, so chunks stay fine."""
        nlp_like = self._cheap_pipeline(small_catalog, cpu=1e-6)
        free = auto_granularity(nlp_like, test_machine, duration=3.0)
        bound = auto_granularity(nlp_like, test_machine, duration=3.0,
                                 consumer_step_seconds=0.1)
        assert bound <= free

    def test_sizing_uses_fill_regime_prediction(
        self, small_catalog, test_machine
    ):
        """Guard: a cached pipeline is sized from its populate-regime caps.

        Sizing for a cache's (much faster) serve rate makes chunks so
        coarse the populate pass cannot push one through the chain
        within the trace window — the known throughput-0 failure mode
        on optimized pipelines that gained a cache. A populating cache
        only forwards, so the pipeline must size exactly like its twin
        with a prefetch in the cache's place."""
        from repro.runtime.analytic import fill_caps

        def build(with_cache):
            ds = (
                from_tfrecords(small_catalog, parallelism=2, name="src")
                .map(make_udf("op", cpu=1e-4), parallelism=2, name="m")
                .batch(16, name="b")
            )
            ds = ds.cache(name="c") if with_cache else ds.prefetch(1, name="c")
            return ds.repeat(None, name="r").build("g")

        cached, twin = build(True), build(False)
        populate = min(fill_caps(cached, test_machine).values())
        serve = min(served_caps(cached, test_machine, {"c"}).values())
        assert serve > 10 * populate
        g = auto_granularity(cached, test_machine, duration=3.0)
        assert g == auto_granularity(twin, test_machine, duration=3.0)
        assert g > _granularity_floor(cached)

    def test_optimized_cache_pipeline_traces_nonzero(
        self, small_catalog, test_machine
    ):
        """End-to-end form of the same guard: after the optimizer
        inserts a cache, auto-granularity traces (both backends) must
        still observe forward progress."""
        from repro.core.plumber import Plumber
        from repro.core.rewriter import existing_cache
        from repro.runtime.analytic import analytic_trace

        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("op", cpu=1e-4), parallelism=2, name="m")
            .batch(16, name="b")
            .prefetch(4, name="pf")
            .repeat(None, name="r")
            .build("opt_cache")
        )
        plumber = Plumber(test_machine,
                          spec=OptimizeSpec(iterations=1,
                                            trace_duration=3.0,
                                            trace_warmup=0.5))
        result = plumber.optimize(pipe)
        assert existing_cache(result.pipeline) is not None
        sim = run_pipeline(result.pipeline, test_machine, duration=3.0,
                           warmup=0.5)
        ana = analytic_trace(result.pipeline, test_machine, duration=3.0,
                             warmup=0.5)
        assert sim.throughput > 0
        assert ana.root_throughput > 0

    def test_budget_actually_bounds_wallclock(
        self, small_catalog, test_machine
    ):
        """The point of the tuner: a µs-cost trace must stay cheap. The
        chunk count reaching the consumer implies the event count; with
        the default budget it is bounded regardless of element rate."""
        nlp_like = self._cheap_pipeline(small_catalog, cpu=1e-6)
        res = run_pipeline(nlp_like, test_machine, duration=3.0, warmup=0.5)
        # Throughput is still measured sanely despite coarse chunks.
        assert res.throughput > 0
        coarse = run_pipeline(
            nlp_like, test_machine, duration=3.0, warmup=0.5,
            event_budget=50_000,
        )
        assert coarse.throughput == pytest.approx(res.throughput, rel=0.1)


class TestThroughput:
    def test_single_worker_stage_bounds_rate(self, simple_pipeline, test_machine):
        """p=1 map at 0.5ms/elem caps the pipeline near 2000 elem/s."""
        res = run_pipeline(simple_pipeline, test_machine, duration=3.0, warmup=0.5)
        expected = 1.0 / (5e-4 + 2 * 10e-6)  # cpu + overhead (tracing on)
        assert res.examples_per_second == pytest.approx(expected, rel=0.1)

    def test_parallelism_scales_throughput(self, small_catalog, test_machine):
        def build(p):
            return (
                from_tfrecords(small_catalog, parallelism=2, name="src")
                .map(make_udf("work", cpu=1e-3), parallelism=p, name="m")
                .batch(16, name="b")
                .prefetch(4, name="pf")
                .repeat(None, name="r")
                .build("scale")
            )

        r1 = run_pipeline(build(1), test_machine, duration=3.0, warmup=0.5)
        r4 = run_pipeline(build(4), test_machine, duration=3.0, warmup=0.5)
        assert r4.throughput / r1.throughput == pytest.approx(4.0, rel=0.15)

    def test_cpu_saturation_bounds_scaling(self, small_catalog, test_machine):
        """Beyond the core count, more parallelism stops helping."""
        def build(p):
            return (
                from_tfrecords(small_catalog, parallelism=2, name="src")
                .map(make_udf("work", cpu=1e-3), parallelism=p, name="m")
                .batch(16, name="b")
                .repeat(None, name="r")
                .build("sat")
            )

        r8 = run_pipeline(build(8), test_machine, duration=3.0, warmup=0.5)
        r32 = run_pipeline(build(32), test_machine, duration=3.0, warmup=0.5)
        assert r32.throughput <= r8.throughput * 1.1

    def test_disk_bound_pipeline(self, small_catalog, test_machine):
        from repro.host.disk import token_bucket

        slow = test_machine.with_disk(token_bucket(1e6))  # 1 MB/s
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("io")
        )
        # Readers fetch 1 MB blocks, so at 1 MB/s output arrives in
        # ~1-2 s bursts; average over a long window.
        res = run_pipeline(pipe, slow, duration=40.0, warmup=4.0)
        # 10 KB records -> 1 MB/s feeds ~100 records/s.
        assert res.examples_per_second == pytest.approx(100.0, rel=0.12)
        assert res.disk_bytes == pytest.approx(1e6 * res.measured_seconds, rel=0.15)

    def test_model_consumer_caps_throughput(self, simple_pipeline, test_machine):
        fast = run_pipeline(simple_pipeline, test_machine, duration=3.0, warmup=0.5)
        capped = run_pipeline(
            simple_pipeline,
            test_machine,
            duration=3.0,
            warmup=0.5,
            consumer=ModelConsumer(step_seconds_per_element=0.05),
        )
        assert capped.throughput == pytest.approx(20.0, rel=0.1)
        assert capped.throughput < fast.throughput

    def test_next_latency_low_when_model_bound(self, simple_pipeline, test_machine):
        res = run_pipeline(
            simple_pipeline,
            test_machine,
            duration=3.0,
            warmup=0.5,
            consumer=ModelConsumer(step_seconds_per_element=0.2),
        )
        # Pipeline keeps up easily: Next returns from the prefetch buffer.
        assert res.next_latency < 1e-3


class TestSemantics:
    def test_single_epoch_completes(self, single_epoch_pipeline, test_machine):
        res = run_pipeline(
            single_epoch_pipeline, test_machine, duration=60.0, warmup=0.0
        )
        assert res.completed
        expected = single_epoch_pipeline.node("src").catalog.total_records // 16
        assert res.minibatches == pytest.approx(expected, rel=0.02)

    def test_take_truncates_stream(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .batch(16, name="b")
            .take(10, name="t")
            .build("take")
        )
        res = run_pipeline(pipe, test_machine, duration=60.0, warmup=0.0)
        assert res.completed
        assert res.minibatches == pytest.approx(10.0, abs=0.01)

    def test_drain_before_warmup_measures_whole_run(
        self, small_catalog, test_machine
    ):
        """A stream that ends before ``warmup`` is measured over [0,
        drain instant], not over an empty window after the warmup timer
        (which used to report throughput 0)."""
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .batch(16, name="b")
            .take(10, name="t")
            .build("take")
        )
        res = run_pipeline(pipe, test_machine, duration=60.0, warmup=30.0)
        assert res.completed
        assert res.minibatches == pytest.approx(10.0, abs=0.01)
        assert 0 < res.measured_seconds < 30.0
        assert res.throughput == pytest.approx(
            res.minibatches / res.measured_seconds)
        assert res.throughput > 0

    def test_filter_reduces_elements(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .filter(make_udf("f", cpu=1e-6), keep_fraction=0.5, name="filt")
            .batch(16, name="b")
            .build("filt")
        )
        res = run_pipeline(pipe, test_machine, duration=60.0, warmup=0.0)
        total = small_catalog.total_records
        assert res.stats["filt"].elements_produced == pytest.approx(
            0.5 * total, rel=0.01
        )

    def test_bounded_repeat_multiplies_epochs(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=4, name="src")
            .map(make_udf("f", cpu=1e-6), parallelism=2, name="m")
            .batch(16, name="b")
            .repeat(3, name="r")
            .build("rep3")
        )
        res = run_pipeline(pipe, test_machine, duration=120.0, warmup=0.0)
        expected = 3 * small_catalog.total_records / 16
        assert res.minibatches == pytest.approx(expected, rel=0.03)

    def test_cache_serves_later_epochs_without_io(
        self, small_catalog, test_machine
    ):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("f", cpu=1e-5), parallelism=2, name="m")
            .cache(name="cache")
            .batch(16, name="b")
            .repeat(4, name="r")
            .build("cached")
        )
        res = run_pipeline(pipe, test_machine, duration=120.0, warmup=0.0)
        total = small_catalog.total_records
        # Four epochs of minibatches, one epoch of disk reads.
        assert res.minibatches == pytest.approx(4 * total / 16, rel=0.03)
        assert res.cumulative_stats["src"].elements_produced == pytest.approx(
            total, rel=0.01
        )
        assert res.cache_bytes["cache"] == pytest.approx(
            small_catalog.total_bytes, rel=0.01
        )

    def test_cache_overflow_raises(self, small_catalog, test_machine):
        tiny = test_machine.with_memory(1e5)  # 100 KB << 41 MB dataset
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .cache(name="cache")
            .batch(16, name="b")
            .repeat(2, name="r")
            .build("boom")
        )
        with pytest.raises(SimulationError, match="memory limit"):
            run_pipeline(pipe, tiny, duration=60.0, warmup=0.0)


class TestStatsCollection:
    def test_byte_accounting_matches_ratio(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("decode", cpu=1e-5, size_ratio=6.0), parallelism=2,
                 name="dec")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("bytes")
        )
        res = run_pipeline(pipe, test_machine, duration=2.0, warmup=0.5)
        src, dec = res.stats["src"], res.stats["dec"]
        assert dec.bytes_per_element == pytest.approx(
            6.0 * src.bytes_per_element, rel=0.01
        )

    def test_cpu_time_matches_cost(self, simple_pipeline, test_machine):
        res = run_pipeline(simple_pipeline, test_machine, duration=3.0, warmup=0.5)
        st = res.stats["map_work"]
        assert st.cpu_core_seconds / st.elements_produced == pytest.approx(
            5e-4, rel=0.01
        )

    def test_tracer_overhead_slows_pipeline(self, simple_pipeline, test_machine):
        traced = run_pipeline(
            simple_pipeline, test_machine, duration=3.0, warmup=0.5, trace=True
        )
        untraced = run_pipeline(
            simple_pipeline, test_machine, duration=3.0, warmup=0.5, trace=False
        )
        assert untraced.throughput > traced.throughput

    def test_files_seen_recorded(self, simple_pipeline, test_machine):
        res = run_pipeline(simple_pipeline, test_machine, duration=3.0, warmup=0.5)
        src = res.cumulative_stats["src"]
        assert src.files_seen_count >= 1
        assert src.files_seen_bytes > 0

    def test_visit_ratio_observed_matches_structural(
        self, simple_pipeline, test_machine
    ):
        res = run_pipeline(simple_pipeline, test_machine, duration=4.0, warmup=1.0)
        structural = simple_pipeline.visit_ratios()
        root = res.stats["repeat"].elements_produced
        for name in ("src", "map_work", "batch"):
            observed = res.stats[name].elements_produced / root
            assert observed == pytest.approx(structural[name], rel=0.05)


class TestEngineTelemetry:
    """Event counters surfaced on RunResult and the global registry."""

    def test_run_result_carries_engine_counters(
        self, simple_pipeline, test_machine
    ):
        result = run_pipeline(
            simple_pipeline, test_machine, duration=1.0, warmup=0.2
        )
        assert result.events_processed > 0
        # Zero-delay handoffs guarantee the ready deque was used.
        assert result.peak_ready_depth >= 1

    def test_global_registry_accumulates_sim_events(
        self, simple_pipeline, test_machine
    ):
        from repro.obs import global_registry

        counter = global_registry().counter("repro_sim_events_total")
        before = counter.value
        result = run_pipeline(
            simple_pipeline, test_machine, duration=1.0, warmup=0.2
        )
        assert counter.value == before + result.events_processed
        depth_hist = global_registry().get("repro_sim_ready_depth")
        assert depth_hist is not None and depth_hist.count >= 1
