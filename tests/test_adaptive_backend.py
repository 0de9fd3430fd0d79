"""Tests for the adaptive trace backend (analytic-first policy).

The policy contract: decisive analytic pictures are served analytically,
ambiguous or degenerate ones fall back to the discrete-event simulator,
every trace records which path produced it, and either way the
bottleneck the optimizer derives matches a pure-simulate run on the
seed workloads.
"""

import math

import pytest

from repro.core.lp import solve_allocation
from repro.core.plumber import Plumber
from repro.core.rates import build_model
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.builder import from_tfrecords
from repro.host.machine import setup_a
from repro.runtime import resolve_backend
from repro.runtime.adaptive import AdaptiveBackend
from repro.runtime.analytic import equilibrium_diagnostics
from repro.service import BatchOptimizer, OptimizeSpec
from repro.workloads.registry import MICROBENCH_WORKLOADS
from tests.conftest import make_udf


def lopsided_pipeline(catalog):
    """One dominant stage: the analytic bottleneck is unambiguous."""
    return (
        from_tfrecords(catalog, parallelism=2, name="src")
        .map(make_udf("heavy", cpu=5e-3), parallelism=1, name="m_heavy")
        .batch(16, name="b")
        .repeat(None, name="r")
        .build("lopsided")
    )


def tied_pipeline(catalog):
    """Two equally expensive sequential stages: the binding cap and the
    runner-up are nearly tied, which is the seeded-disagreement case the
    fallback exists for."""
    return (
        from_tfrecords(catalog, parallelism=2, name="src")
        .map(make_udf("a", cpu=2e-3), parallelism=1, name="m_a")
        .map(make_udf("b", cpu=2e-3), parallelism=1, name="m_b")
        .batch(16, name="b")
        .repeat(None, name="r")
        .build("tied")
    )


@pytest.fixture(scope="module")
def machine():
    return setup_a()


def _plumber(machine, backend, duration=1.5, warmup=0.3):
    return Plumber(machine, spec=OptimizeSpec(
        backend=backend, trace_duration=duration, trace_warmup=warmup))


class TestPolicy:
    def test_registered(self):
        assert resolve_backend("adaptive").name == "adaptive"

    def test_confident_case_served_analytically(self, machine,
                                                small_catalog):
        backend = AdaptiveBackend()
        plumber = _plumber(machine, backend)
        trace = plumber.trace(lopsided_pipeline(small_catalog))
        assert trace.backend == "adaptive[analytic]"
        decision = backend.decisions[-1]
        assert decision.chosen == "analytic"
        assert decision.reason == "confident"
        assert decision.margin >= backend.margin

    def test_seeded_disagreement_falls_back_to_simulation(self, machine,
                                                          small_catalog):
        pipe = tied_pipeline(small_catalog)
        diag = equilibrium_diagnostics(pipe, machine, duration=1.5,
                                       warmup=0.3)
        # The seed is real: two caps within the default margin.
        assert diag.margin < 0.1
        backend = AdaptiveBackend()
        plumber = _plumber(machine, backend)
        trace = plumber.trace(pipe)
        assert trace.backend == "adaptive[simulate]"
        decision = backend.decisions[-1]
        assert decision.chosen == "simulate"
        assert decision.reason == "low-confidence"
        # The fallback audits the bottleneck comparison either way.
        assert decision.agreed in (True, False)

    def test_margin_zero_always_trusts_analytic(self, machine,
                                                small_catalog):
        backend = AdaptiveBackend(margin=0.0)
        plumber = _plumber(machine, backend)
        trace = plumber.trace(tied_pipeline(small_catalog))
        assert trace.backend == "adaptive[analytic]"

    def test_huge_margin_always_simulates(self, machine, small_catalog):
        backend = AdaptiveBackend(margin=1e9)
        plumber = _plumber(machine, backend)
        trace = plumber.trace(lopsided_pipeline(small_catalog))
        assert trace.backend == "adaptive[simulate]"

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            AdaptiveBackend(margin=-0.1)

    def test_decision_log_bounded_and_clearable(self, machine,
                                                small_catalog):
        backend = AdaptiveBackend()
        plumber = _plumber(machine, backend, 1.0, 0.25)
        pipe = lopsided_pipeline(small_catalog)
        for _ in range(3):
            plumber.trace(pipe)
        assert len(backend.decisions) == 3
        backend.clear_decisions()
        assert backend.decisions == []

    def test_trace_json_round_trips_producer_label(self, machine,
                                                   small_catalog):
        from repro.core.trace import PipelineTrace

        plumber = _plumber(machine, "adaptive")
        trace = plumber.trace(lopsided_pipeline(small_catalog))
        restored = PipelineTrace.from_json(trace.to_json())
        assert restored.backend == trace.backend
        assert restored.backend.startswith("adaptive[")


class TestSeedWorkloadParity:
    """Acceptance: adaptive has bottleneck parity with pure simulation
    on the five seed workloads (whichever path the policy takes)."""

    @pytest.fixture(scope="class", params=sorted(MICROBENCH_WORKLOADS))
    def trace_pair(self, request):
        machine = setup_a()
        pipe = MICROBENCH_WORKLOADS[request.param].build(
            scale=0.01, parallelism=4
        )
        plumber = Plumber(machine)
        return plumber.trace(pipe), plumber.trace(pipe, backend="adaptive")

    def test_producer_recorded(self, trace_pair):
        _sim, ada = trace_pair
        assert ada.backend in ("adaptive[analytic]", "adaptive[simulate]")

    def test_bottleneck_parity_with_simulate(self, trace_pair):
        sim, ada = trace_pair
        lp_sim = solve_allocation(build_model(sim))
        lp_ada = solve_allocation(build_model(ada))
        assert lp_ada.bottleneck == lp_sim.bottleneck


class TestAdaptiveFleet:
    """Acceptance: backend="adaptive" optimizes a mixed
    vision+nlp+rl fleet end to end."""

    @pytest.fixture(scope="class")
    def fleet(self):
        jobs = []
        for domain in ("vision", "nlp", "rl"):
            jobs.extend(
                generate_pipeline_fleet(
                    num_jobs=3, distinct=3, seed=5,
                    config=FleetConfig(domain_weights={domain: 1.0}),
                )
            )
        return jobs

    def test_mixed_fleet_end_to_end(self, fleet):
        svc = BatchOptimizer(
            executor="serial",
            spec=OptimizeSpec(iterations=1, backend="adaptive"),
        )
        report = svc.optimize_fleet(fleet)
        assert len(report.jobs) == len(fleet)
        assert {j.domain for j in fleet} == {"vision", "nlp", "rl"}
        for job in report.jobs:
            assert math.isfinite(job.optimized_throughput)
            assert job.optimized_throughput > 0
            assert job.bottleneck
        assert report.speedups().geomean >= 1.0

    def test_adaptive_survives_process_pool(self, small_catalog,
                                            test_machine):
        """The adaptive backend resolves by name in worker processes."""
        from tests.test_service import small_pipeline

        pipe = small_pipeline(small_catalog)
        spec = OptimizeSpec(iterations=1, trace_duration=1.0,
                            trace_warmup=0.25, backend="adaptive")
        kwargs = dict(machine=test_machine, spec=spec)
        serial = BatchOptimizer(executor="serial", **kwargs)
        procs = BatchOptimizer(executor="process", max_workers=1, **kwargs)
        a = serial.optimize_fleet({"j": pipe}).jobs[0]
        b = procs.optimize_fleet({"j": pipe}).jobs[0]
        assert a.decisions == b.decisions
        assert a.optimized_throughput == b.optimized_throughput
