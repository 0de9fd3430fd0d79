"""Tests for the fleet-scale batch optimization service."""

import dataclasses

import pytest

from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.builder import from_tfrecords
from repro.graph.serialize import pipeline_to_json
from repro.graph.signature import structural_signature
from repro.host.machine import Machine
from repro.service import BatchOptimizer
from tests.conftest import make_udf

#: vision-domain jobs have low element rates, so their traces are
#: cheap to simulate — the right mix for unit tests
VISION_ONLY = FleetConfig(domain_weights={"vision": 1.0})
#: the vision fleet's spec: one pass-pipeline iteration, 3 s traces
VISION_SPEC = OptimizeSpec(iterations=1, trace_duration=3.0,
                           trace_warmup=0.5)
#: a short trace window for single small pipelines
FAST_SPEC = OptimizeSpec(iterations=1, trace_duration=1.0,
                         trace_warmup=0.25)


def small_pipeline(catalog, parallelism=1, name="svc"):
    return (
        from_tfrecords(catalog, parallelism=parallelism, name="src")
        .map(make_udf("op", cpu=1e-3), parallelism=parallelism, name="m")
        .batch(8, name="b")
        .prefetch(4, name="pf")
        .repeat(None, name="r")
        .build(name)
    )


class TestStructuralSignature:
    def test_identical_structure_same_signature(self, small_catalog):
        a = small_pipeline(small_catalog, name="a")
        b = small_pipeline(small_catalog, name="b")
        assert structural_signature(a) == structural_signature(b)

    def test_parallelism_changes_signature(self, small_catalog):
        a = small_pipeline(small_catalog, parallelism=1)
        b = small_pipeline(small_catalog, parallelism=4)
        assert structural_signature(a) != structural_signature(b)

    def test_stable_across_round_trip(self, small_catalog):
        from repro.graph.serialize import pipeline_from_json

        pipe = small_pipeline(small_catalog)
        restored = pipeline_from_json(pipeline_to_json(pipe))
        assert structural_signature(restored) == structural_signature(pipe)


class TestMachineTransport:
    def test_round_trip(self, test_machine):
        restored = Machine.from_dict(test_machine.to_dict())
        assert restored == test_machine

    def test_fingerprint_ignores_name(self, test_machine):
        from dataclasses import replace

        renamed = replace(test_machine, name="other")
        assert renamed.fingerprint() == test_machine.fingerprint()
        recored = replace(test_machine, cores=test_machine.cores + 1)
        assert recored.fingerprint() != test_machine.fingerprint()

    def test_fingerprint_ignores_disk_name(self, test_machine):
        """Identically-specced hosts whose disks differ only in display
        name must share cache entries."""
        from repro.host.disk import token_bucket

        a = test_machine.with_disk(token_bucket(2e9, name="disk-a"))
        b = test_machine.with_disk(token_bucket(2e9, name="disk-b"))
        assert a.fingerprint() == b.fingerprint()
        slower = test_machine.with_disk(token_bucket(1e9, name="disk-a"))
        assert slower.fingerprint() != a.fingerprint()


class TestBatchOptimizer:
    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_pipeline_fleet(
            num_jobs=6, distinct=2, seed=7, config=VISION_ONLY
        )

    @pytest.fixture(scope="class")
    def report(self, fleet):
        svc = BatchOptimizer(executor="serial", spec=VISION_SPEC)
        return svc.optimize_fleet(fleet)

    def test_every_job_reported(self, fleet, report):
        assert [j.name for j in report.jobs] == [j.name for j in fleet]

    def test_cache_collapses_templates(self, report):
        assert report.cache_misses == 2
        assert report.cache_hits == 4
        assert report.cache_hit_rate == pytest.approx(4 / 6)

    def test_duplicate_jobs_share_results(self, fleet, report):
        # jobs 0 and 2 are stamped from the same template
        a, b = report.jobs[0], report.jobs[2]
        assert a.signature == b.signature
        assert not a.cache_hit and b.cache_hit
        assert a.decisions == b.decisions
        assert a.optimized_throughput == b.optimized_throughput
        assert a.pipeline_json == b.pipeline_json

    def test_matches_serial_plumber(self, fleet, report):
        """Pool results are identical to serial Plumber.optimize."""
        job = fleet[1]
        serial = Plumber(job.machine, spec=VISION_SPEC).optimize(job.pipeline)
        got = report.job(job.name)
        assert got.decisions == tuple(serial.decisions)
        assert got.optimized_throughput == pytest.approx(
            serial.model.observed_throughput
        )
        assert got.baseline_throughput == pytest.approx(
            serial.baseline_throughput
        )

    def test_rewritten_pipeline_is_usable(self, report):
        pipe = report.jobs[0].pipeline
        assert pipe.batch_size() >= 1
        assert structural_signature(pipe)  # parses and hashes

    def test_cache_hit_pipeline_carries_job_name(self, report):
        """A cache-hit job's materialized pipeline is renamed after the
        job, even though the serialized program came from the cache
        representative."""
        hit = next(j for j in report.jobs if j.cache_hit)
        assert hit.pipeline.name == hit.name

    def test_persistent_cache_across_calls(self, fleet):
        svc = BatchOptimizer(executor="serial", spec=VISION_SPEC)
        first = svc.optimize_fleet(fleet[:2])
        second = svc.optimize_fleet(fleet[:2])
        assert first.cache_misses == 2
        assert second.cache_misses == 0
        assert second.cache_hits == 2

    def test_thread_pool_matches_serial(self, fleet, report):
        svc = BatchOptimizer(executor="thread", max_workers=2,
                             spec=VISION_SPEC)
        threaded = svc.optimize_fleet(fleet)
        for a, b in zip(threaded.jobs, report.jobs):
            assert a.decisions == b.decisions
            assert a.optimized_throughput == b.optimized_throughput

    def test_input_pipelines_unchanged(self):
        """Workers optimize the jobs' own Pipeline objects, and jobs
        stamped from one template share one across thread workers: the
        optimizer must rewrite clones, never its input."""
        fleet = generate_pipeline_fleet(
            num_jobs=6, distinct=2, seed=7, config=VISION_ONLY
        )
        before = [pipeline_to_json(j.pipeline) for j in fleet]
        svc = BatchOptimizer(executor="thread", max_workers=2,
                             spec=VISION_SPEC)
        report = svc.optimize_fleet(fleet)
        assert any(j.decisions for j in report.jobs)
        assert [pipeline_to_json(j.pipeline) for j in fleet] == before

    def test_report_tables_render(self, report):
        table = report.to_table()
        assert "cache" in table and report.jobs[0].name in table
        summary = report.summary_table()
        assert "cache hit rate" in summary

    def test_bottleneck_histogram_counts_jobs(self, report):
        hist = report.bottlenecks()
        assert sum(hist.values()) == len(report.jobs)

    def test_speedup_stats(self, report):
        stats = report.speedups()
        assert stats.count > 0
        assert stats.maximum >= stats.median >= stats.minimum

    def test_job_lookup_raises_for_unknown(self, report):
        with pytest.raises(KeyError):
            report.job("nope")


class TestJobInputs:
    def test_mapping_input_uses_default_machine(self, small_catalog,
                                                test_machine):
        svc = BatchOptimizer(machine=test_machine, executor="serial",
                             spec=FAST_SPEC)
        report = svc.optimize_fleet({
            "one": small_pipeline(small_catalog, name="one"),
            "two": small_pipeline(small_catalog, name="two"),
        })
        assert report.cache_misses == 1  # structurally identical
        assert report.cache_hits == 1

    def test_missing_machine_rejected(self, small_catalog):
        svc = BatchOptimizer(executor="serial")
        with pytest.raises(ValueError, match="no machine"):
            svc.optimize_fleet({"solo": small_pipeline(small_catalog)})

    def test_duplicate_names_rejected(self, small_catalog, test_machine):
        svc = BatchOptimizer(machine=test_machine, executor="serial")
        pipe = small_pipeline(small_catalog)
        with pytest.raises(ValueError, match="duplicate"):
            svc.optimize_fleet([("same", pipe), ("same", pipe)])

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            BatchOptimizer(executor="rocket")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            BatchOptimizer(executor="serial",
                           spec=OptimizeSpec(backend="oracle"))

    def test_backend_object_rejected_at_service_level(self):
        from repro.runtime.backends import AnalyticBackend

        with pytest.raises(TypeError, match="registered backend name"):
            BatchOptimizer(executor="serial",
                           spec=OptimizeSpec(backend=AnalyticBackend()))

    def test_optimize_one(self, small_catalog, test_machine):
        svc = BatchOptimizer(machine=test_machine, executor="serial",
                             spec=FAST_SPEC)
        result = svc.optimize_one("solo", small_pipeline(small_catalog))
        assert result.name == "solo"
        assert not result.cache_hit


class TestPerJobOverrides:
    """Per-job specs (e.g. a different backend or granularity) are
    honoured and are part of each job's cache identity."""

    def _svc(self, test_machine, spec=FAST_SPEC):
        return BatchOptimizer(machine=test_machine, executor="serial",
                              spec=spec)

    def test_backend_override_splits_cache_entries(self, small_catalog,
                                                   test_machine):
        from repro.service import OptimizationJob

        pipe = small_pipeline(small_catalog)
        svc = self._svc(test_machine)
        report = svc.optimize_fleet([
            OptimizationJob("sim", pipe, test_machine),
            OptimizationJob("ana", pipe, test_machine,
                            spec=FAST_SPEC.replace(backend="analytic")),
        ])
        # Structurally identical, but a trace's backend is part of its
        # identity: no cache sharing across backends.
        assert report.cache_misses == 2
        assert report.cache_hits == 0

    def test_same_override_shares_cache(self, small_catalog, test_machine):
        from repro.service import OptimizationJob

        pipe = small_pipeline(small_catalog)
        svc = self._svc(test_machine)
        analytic = FAST_SPEC.replace(backend="analytic")
        report = svc.optimize_fleet([
            OptimizationJob("a", pipe, test_machine, spec=analytic),
            OptimizationJob("b", pipe, test_machine, spec=analytic),
        ])
        assert report.cache_misses == 1
        assert report.cache_hits == 1

    def test_granularity_override_splits_cache_entries(self, small_catalog,
                                                       test_machine):
        from repro.service import OptimizationJob

        pipe = small_pipeline(small_catalog)
        svc = self._svc(test_machine)
        report = svc.optimize_fleet([
            OptimizationJob("fine", pipe, test_machine,
                            spec=FAST_SPEC.replace(granularity=1)),
            OptimizationJob("coarse", pipe, test_machine,
                            spec=FAST_SPEC.replace(granularity=8)),
        ])
        assert report.cache_misses == 2

    def test_service_wide_analytic_backend(self, small_catalog,
                                           test_machine):
        pipe = small_pipeline(small_catalog)
        svc = self._svc(test_machine, FAST_SPEC.replace(backend="analytic"))
        result = svc.optimize_one("solo", pipe)
        assert result.optimized_throughput > 0

    def test_analytic_service_matches_analytic_plumber(self, small_catalog,
                                                       test_machine):
        pipe = small_pipeline(small_catalog)
        analytic = FAST_SPEC.replace(backend="analytic")
        got = self._svc(test_machine, analytic).optimize_one("solo", pipe)
        serial = Plumber(test_machine, spec=analytic).optimize(pipe)
        assert got.decisions == tuple(serial.decisions)
        assert got.optimized_throughput == pytest.approx(
            serial.model.observed_throughput
        )

    def test_per_job_unknown_backend_rejected(self, small_catalog,
                                              test_machine):
        from repro.service import OptimizationJob

        svc = self._svc(test_machine)
        with pytest.raises(ValueError, match="backend"):
            svc.optimize_fleet([
                OptimizationJob("bad", small_pipeline(small_catalog),
                                test_machine,
                                spec=FAST_SPEC.replace(backend="oracle")),
            ])

    def test_fleet_config_stamps_optimize_spec(self):
        spec = OptimizeSpec(iterations=1, backend="analytic")
        jobs = generate_pipeline_fleet(
            num_jobs=4, distinct=2, seed=7,
            config=FleetConfig(
                domain_weights={"vision": 1.0},
                optimize_spec=spec,
            ),
        )
        assert all(j.spec == spec for j in jobs)

    def test_fleet_spec_flows_into_service(self, test_machine):
        spec = OptimizeSpec(iterations=1, backend="analytic",
                            trace_duration=1.0, trace_warmup=0.25)
        jobs = generate_pipeline_fleet(
            num_jobs=4, distinct=2, seed=7,
            config=FleetConfig(domain_weights={"vision": 1.0},
                               optimize_spec=spec),
        )
        svc = BatchOptimizer(executor="serial")  # defaults ignored: jobs
        report = svc.optimize_fleet(jobs)        # carry their own spec
        assert report.cache_misses == 2
        assert all(j.optimized_throughput > 0 for j in report.jobs)

    def test_fleet_overrides_flow_into_service(self, test_machine):
        """Per-domain specs: replace ``spec`` on the generated jobs."""
        jobs = generate_pipeline_fleet(
            num_jobs=4, distinct=2, seed=7,
            config=FleetConfig(domain_weights={"vision": 1.0}),
        )
        analytic = OptimizeSpec(iterations=1, backend="analytic")
        jobs = [dataclasses.replace(j, spec=analytic)
                if j.domain == "vision" else j for j in jobs]
        svc = BatchOptimizer(executor="serial",
                             spec=OptimizeSpec(iterations=1))
        report = svc.optimize_fleet(jobs)
        assert report.cache_misses == 2
        assert all(j.optimized_throughput > 0 for j in report.jobs)
        assert all(j.provenance["spec"] == analytic.to_dict()
                   for j in report.jobs)


class TestProcessPool:
    def test_process_pool_matches_serial(self, small_catalog, test_machine):
        """One tiny job through a real process pool: the pickled hop
        (job objects out, rewritten program back) must be lossless."""
        pipe = small_pipeline(small_catalog)
        serial = BatchOptimizer(machine=test_machine, executor="serial",
                                spec=FAST_SPEC)
        procs = BatchOptimizer(machine=test_machine, executor="process",
                               max_workers=1, spec=FAST_SPEC)
        a = serial.optimize_fleet({"j": pipe}).jobs[0]
        b = procs.optimize_fleet({"j": pipe}).jobs[0]
        assert a.decisions == b.decisions
        assert a.optimized_throughput == b.optimized_throughput
        assert a.pipeline_json == b.pipeline_json
