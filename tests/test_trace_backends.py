"""Trace backend layer: protocol, analytic fast path, and parity.

The analytic backend's contract is *decision parity*: on the paper's
five seed workloads it must identify the same bottleneck as the
discrete-event simulator and land root throughput within a stated
tolerance — the trace is just counters + a program (§4.1), and two
backends producing compatible counters are interchangeable to the
optimizer.
"""

import json
import math

import pytest

from repro.core.lp import solve_allocation
from repro.core.plumber import Plumber
from repro.core.rates import build_model
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.builder import from_tfrecords
from repro.host.machine import setup_a
from repro.runtime import (
    ModelConsumer,
    RunConfig,
    analytic_trace,
    available_backends,
    resolve_backend,
)
from repro.service import BatchOptimizer
from repro.workloads.registry import MICROBENCH_WORKLOADS
from tests.conftest import make_udf

#: relative tolerance for analytic-vs-simulated root throughput
THROUGHPUT_TOLERANCE = 0.15

SEED_WORKLOADS = sorted(MICROBENCH_WORKLOADS)


@pytest.fixture(scope="module")
def machine():
    return setup_a()


def _traces(workload_name, machine, parallelism=4):
    pipe = MICROBENCH_WORKLOADS[workload_name].build(
        scale=0.01, parallelism=parallelism
    )
    plumber = Plumber(machine)
    sim = plumber.trace(pipe)
    ana = plumber.trace(pipe, backend="analytic")
    return sim, ana


class TestSeedWorkloadParity:
    @pytest.fixture(scope="class", params=SEED_WORKLOADS)
    def trace_pair(self, request):
        return _traces(request.param, setup_a())

    def test_backends_are_labelled(self, trace_pair):
        sim, ana = trace_pair
        assert sim.backend == "simulate"
        assert ana.backend == "analytic"

    def test_root_throughput_within_tolerance(self, trace_pair):
        sim, ana = trace_pair
        assert ana.root_throughput == pytest.approx(
            sim.root_throughput, rel=THROUGHPUT_TOLERANCE
        )

    def test_bottleneck_identification_agrees(self, trace_pair):
        sim, ana = trace_pair
        lp_sim = solve_allocation(build_model(sim))
        lp_ana = solve_allocation(build_model(ana))
        assert lp_ana.bottleneck == lp_sim.bottleneck

    def test_lp_estimate_within_tolerance(self, trace_pair):
        sim, ana = trace_pair
        lp_sim = solve_allocation(build_model(sim))
        lp_ana = solve_allocation(build_model(ana))
        assert lp_ana.predicted_throughput == pytest.approx(
            lp_sim.predicted_throughput, rel=THROUGHPUT_TOLERANCE
        )


class TestOptimizeParity:
    def test_full_optimize_agrees_on_resnet(self, machine):
        pipe = MICROBENCH_WORKLOADS["resnet"].build(scale=0.01)
        sim = Plumber(machine).optimize(pipe, iterations=1)
        ana = Plumber(machine, spec=OptimizeSpec(backend="analytic")).optimize(
            pipe, iterations=1)
        assert ana.bottleneck == sim.bottleneck
        assert ana.model.observed_throughput == pytest.approx(
            sim.model.observed_throughput, rel=THROUGHPUT_TOLERANCE
        )
        # Same passes fired (decision text may differ in buffer sizes).
        assert len(ana.decisions) == len(sim.decisions)


class TestBackendProtocol:
    def test_registry_names(self):
        assert set(available_backends()) >= {"simulate", "analytic"}

    def test_resolve_by_name(self):
        assert resolve_backend("analytic").name == "analytic"
        assert resolve_backend("simulate").name == "simulate"

    def test_none_means_simulate(self):
        assert resolve_backend(None).name == "simulate"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown trace backend"):
            resolve_backend("tea_leaves")

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_custom_backend_object_passes_through(self, machine,
                                                  simple_pipeline):
        class Recorded:
            name = "recorded"

            def __init__(self):
                self.calls = 0

            def trace(self, pipeline, mach, config):
                self.calls += 1
                return analytic_trace(pipeline, mach, config)

        backend = Recorded()
        plumber = Plumber(machine, spec=OptimizeSpec(backend=backend))
        trace = plumber.trace(simple_pipeline)
        assert backend.calls == 1
        assert trace.backend == "analytic"  # delegate stamped it

    def test_trace_json_round_trips_backend(self, machine, simple_pipeline):
        from repro.core.trace import PipelineTrace

        trace = analytic_trace(simple_pipeline, machine, duration=2.0,
                               warmup=0.5)
        restored = PipelineTrace.from_json(trace.to_json())
        assert restored.backend == "analytic"
        payload = json.loads(trace.to_json())
        assert payload["backend"] == "analytic"


class TestAnalyticTrace:
    def test_counters_cover_every_node(self, machine, simple_pipeline):
        trace = analytic_trace(simple_pipeline, machine)
        names = {n.name for n in simple_pipeline.iter_nodes()}
        assert set(trace.stats) == names
        st = trace.stats["src"]
        assert st.bytes_read > 0
        assert st.files_seen_count >= 1

    def test_model_and_lp_build_from_analytic_trace(self, machine,
                                                    simple_pipeline):
        model = build_model(analytic_trace(simple_pipeline, machine))
        assert model.cpu_nodes()
        lp = solve_allocation(model)
        assert lp.predicted_throughput > 0

    def test_source_size_estimate_recovers_catalog(self, machine,
                                                   simple_pipeline):
        model = build_model(analytic_trace(simple_pipeline, machine))
        est = model.source_estimates["src"]
        catalog = simple_pipeline.node("src").catalog
        assert est.estimated_bytes == pytest.approx(
            catalog.total_bytes, rel=0.05
        )

    def test_consumer_step_caps_throughput(self, machine, simple_pipeline):
        fast = analytic_trace(simple_pipeline, machine)
        step = 10.0 / fast.root_throughput  # 10x slower than the pipe
        capped = analytic_trace(
            simple_pipeline, machine, consumer=ModelConsumer(step)
        )
        assert capped.root_throughput == pytest.approx(1.0 / step, rel=0.01)

    def test_finite_stream_completes_early(self, machine,
                                           single_epoch_pipeline):
        trace = analytic_trace(
            single_epoch_pipeline, machine, duration=500.0, warmup=0.0
        )
        total = trace.root_throughput * trace.measured_seconds
        catalog = single_epoch_pipeline.node("src").catalog
        expected = sum(
            f.num_records for f in catalog.files
        ) / single_epoch_pipeline.batch_size()
        assert total == pytest.approx(expected, rel=0.05)
        assert trace.measured_seconds < 500.0

    def test_cache_serving_beats_fill_rate(self, machine, small_catalog):
        """With a cache under a repeat, steady-state throughput must
        reflect the serve regime (cheap), not the populate chain."""
        expensive = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("heavy", cpu=5e-3), parallelism=2, name="m")
            .batch(16, name="b")
            .build("uncached")
        )
        cached = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("heavy", cpu=5e-3), parallelism=2, name="m")
            .batch(16, name="b")
            .cache(name="cache")
            .repeat(None, name="r")
            .build("cached")
        )
        plain = analytic_trace(expensive, machine, duration=100.0,
                               warmup=0.0)
        served = analytic_trace(cached, machine, duration=1000.0,
                                warmup=500.0)
        assert served.root_throughput > 2 * plain.root_throughput

    def test_single_epoch_cached_pipeline_still_does_the_work(
        self, machine, small_catalog
    ):
        """Regression: with a cache but only one epoch, the whole run is
        the populate pass — sub-cache nodes must show their full
        one-epoch production, not zero (which would make the LP treat
        the expensive pre-cache stages as free)."""
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("work", cpu=1e-4), parallelism=2, name="m")
            .cache(name="cache")
            .build("one_epoch_cached")
        )
        trace = analytic_trace(pipe, machine, duration=100.0, warmup=0.0)
        records = sum(f.num_records for f in small_catalog.files)
        assert trace.stats["src"].elements_produced == pytest.approx(
            records, rel=0.05
        )
        assert trace.stats["m"].elements_produced == pytest.approx(
            records, rel=0.05
        )
        assert trace.stats["m"].cpu_core_seconds > 0

    def test_event_budget_forwarded_to_granularity(self, machine,
                                                   simple_pipeline):
        """Regression: the analytic backend resolves granularity through
        the same helper as the simulator, so ``RunConfig.event_budget``
        is honoured identically by both."""
        import repro.runtime.analytic as analytic_mod

        seen = {}
        original = analytic_mod.resolve_granularity

        def spy(pipeline, mach, config):
            seen["event_budget"] = config.event_budget
            return original(pipeline, mach, config)

        analytic_mod.resolve_granularity = spy
        try:
            analytic_trace(simple_pipeline, machine, duration=2.0,
                           warmup=0.5, event_budget=12_345)
        finally:
            analytic_mod.resolve_granularity = original
        assert seen["event_budget"] == 12_345

    def test_sub_cache_production_bounded_by_one_epoch(self, machine,
                                                       small_catalog):
        cached = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("work", cpu=1e-4), parallelism=2, name="m")
            .cache(name="cache")
            .repeat(None, name="r")
            .build("cached")
        )
        trace = analytic_trace(cached, machine, duration=1000.0, warmup=0.0)
        records = sum(f.num_records for f in small_catalog.files)
        assert trace.stats["src"].elements_produced <= records * 1.01
        # The cache itself keeps serving long past the fill epoch.
        assert trace.stats["cache"].elements_produced > records * 2

    def test_overrides_and_config_are_exclusive(self, machine,
                                                simple_pipeline):
        with pytest.raises(TypeError):
            analytic_trace(simple_pipeline, machine, RunConfig(),
                           duration=1.0)


class TestMixedDomainFleet:
    """ROADMAP item 3: the full §3 domain mix, cheap under analytic."""

    @pytest.fixture(scope="class")
    def fleet(self):
        jobs = []
        for domain in ("vision", "nlp", "rl"):
            jobs.extend(
                generate_pipeline_fleet(
                    num_jobs=3,
                    distinct=3,
                    seed=5,
                    config=FleetConfig(domain_weights={domain: 1.0}),
                )
            )
        return jobs

    def test_fleet_covers_all_domains(self, fleet):
        assert {j.domain for j in fleet} == {"vision", "nlp", "rl"}
        assert len(fleet) >= 9

    def test_analytic_fleet_end_to_end(self, fleet):
        svc = BatchOptimizer(executor="serial",
                             spec=OptimizeSpec(iterations=1,
                                               backend="analytic"))
        report = svc.optimize_fleet(fleet)
        assert len(report.jobs) == len(fleet)
        for job in report.jobs:
            assert math.isfinite(job.optimized_throughput)
            assert job.optimized_throughput > 0
            assert job.bottleneck
        stats = report.speedups()
        assert stats.geomean >= 1.0  # optimization never hurts on average
