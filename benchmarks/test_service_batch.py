"""Fleet-scale batch optimization through the repro.service subsystem.

The paper's fleet study (§3) is observational: tens of thousands of jobs,
most of them input-bound for software reasons. This benchmark closes the
loop the paper motivates — drive a generated fleet of named pipelines
through Plumber's trace→analyze→optimize cycle as a *service*:

* ≥20 jobs stamped from a handful of templates run through a worker
  pool, with the signature-keyed cache collapsing duplicates;
* per-job results are bit-identical to serial ``Plumber.optimize``
  (the simulator is deterministic, which makes result caching sound);
* the aggregate report gives the per-job speedups, the bottleneck
  histogram, and the cache hit rate.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.fleet.analysis import speedup_distribution
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.service import BatchOptimizer

#: simulation-heavy module: excluded from the fast-path CI job
pytestmark = pytest.mark.slow_sim

NUM_JOBS = 24
DISTINCT = 6
SEED = 7
#: vision jobs trace cheaply (low element rates); the tuning mix still
#: spans naive/partial/tuned configurations
DOMAINS = FleetConfig(domain_weights={"vision": 1.0})

SERVICE_SPEC = OptimizeSpec(iterations=1, trace_duration=3.0,
                            trace_warmup=0.5)


@pytest.fixture(scope="module")
def fleet():
    return generate_pipeline_fleet(
        num_jobs=NUM_JOBS, distinct=DISTINCT, seed=SEED, config=DOMAINS
    )


@pytest.fixture(scope="module")
def report(fleet):
    svc = BatchOptimizer(executor="thread", max_workers=4, spec=SERVICE_SPEC)
    return svc.optimize_fleet(fleet)


class TestServiceBatch:
    def test_fleet_scale_with_cache_hits(self, fleet, report, once):
        """≥20 jobs through the pool; duplicates served from the cache."""
        assert len(report.jobs) == NUM_JOBS >= 20
        assert report.cache_misses == DISTINCT
        assert report.cache_hits == NUM_JOBS - DISTINCT
        assert report.cache_hit_rate == pytest.approx(
            (NUM_JOBS - DISTINCT) / NUM_JOBS
        )
        once(lambda: None)  # timing handled by the module fixture
        emit("service_batch_jobs", report.to_table())
        emit("service_batch_summary", report.summary_table())

    def test_results_identical_to_serial_plumber(self, fleet, report):
        """Determinism: the pool + cache path reproduces serial optimize
        exactly, decision log and throughputs included."""
        for job in fleet[:DISTINCT]:
            serial = Plumber(job.machine, spec=SERVICE_SPEC).optimize(
                job.pipeline
            )
            got = report.job(job.name)
            assert got.decisions == tuple(serial.decisions), job.name
            assert got.optimized_throughput == serial.model.observed_throughput
            assert got.baseline_throughput == serial.baseline_throughput

    def test_optimization_helps_the_untuned_tail(self, fleet, report):
        """Obs. 2's promise: the naive/partial tail gets real speedups."""
        untuned = [
            report.job(j.name).speedup
            for j in fleet
            if j.config in ("naive", "partial")
        ]
        assert untuned, "fleet should contain untuned jobs"
        stats = speedup_distribution(untuned)
        assert stats.count > 0
        assert stats.maximum >= 1.5
        assert stats.geomean >= 1.0

    def test_bottleneck_histogram_covers_fleet(self, report):
        hist = report.bottlenecks()
        assert sum(hist.values()) == NUM_JOBS
        # Jobs duplicated from one template share a bottleneck label.
        assert len(hist) <= DISTINCT + 1
