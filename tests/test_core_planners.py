"""Tests for the cache, prefetch, and disk planners."""

import math

import pytest

from repro.core.cache_planner import plan_caches
from repro.core.disk_planner import (
    benchmark_source_curve,
    fit_piecewise,
    io_bound_throughput,
)
from repro.core.plumber import Plumber
from repro.core.prefetch_planner import plan_prefetch
from repro.core.rewriter import strip_caches
from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from repro.host.machine import setup_a
from repro.host.memory import MemoryBudget
from repro.workloads.registry import MICROBENCH_WORKLOADS
from tests import test_backend_differential as differential
from tests.cache_oracle import cached_lp_throughput, plan_cache_exhaustive
from tests.conftest import make_udf
from tests.test_core_rates import model_of


def amplifying_pipeline(catalog, random_tail=True):
    ds = (
        from_tfrecords(catalog, parallelism=2, name="src")
        .map(make_udf("decode", cpu=1e-4, size_ratio=6.0), parallelism=2,
             name="dec")
    )
    if random_tail:
        ds = ds.map(make_udf("aug", cpu=1e-4, random=True), parallelism=2,
                    name="aug")
    ds = ds.batch(16, name="b").prefetch(4, name="pf").repeat(None, name="r")
    return ds.build("amp")


class TestCacheGreedy:
    def test_picks_closest_to_root_that_fits(self, small_catalog, test_machine):
        model = model_of(amplifying_pipeline(small_catalog), test_machine)
        # aug/batch are random-tainted; decode (6x bytes) fits 8 GB RAM.
        decision, = plan_caches(model)
        assert decision.target == "dec"
        assert decision.materialized_bytes == pytest.approx(
            6 * small_catalog.total_bytes, rel=0.05
        )

    def test_falls_back_when_too_big(self, small_catalog, test_machine):
        model = model_of(amplifying_pipeline(small_catalog), test_machine)
        # Budget fits the 41 MB source but not the 247 MB decode output.
        budget = MemoryBudget(60e6, headroom_fraction=0.0)
        decision, = plan_caches(model, budget)
        assert decision.target in ("src", "dec")
        assert decision.materialized_bytes <= 60e6

    def test_none_when_nothing_fits(self, small_catalog, test_machine):
        model = model_of(amplifying_pipeline(small_catalog), test_machine)
        assert plan_caches(model, MemoryBudget(1e3)) == []

    def test_none_when_everything_random(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("aug", cpu=1e-4, random=True), parallelism=2,
                 name="aug")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("rand")
        )
        model = model_of(pipe, test_machine)
        # Only the source itself remains cacheable.
        decision, = plan_caches(model)
        assert decision.target == "src"

    def test_batch_output_cacheable_when_deterministic(
        self, small_catalog, test_machine
    ):
        model = model_of(
            amplifying_pipeline(small_catalog, random_tail=False), test_machine
        )
        decision, = plan_caches(model)
        assert decision.target == "b"  # closest to root


def _oracle_graphs():
    """(id, pipeline) for the paper pipelines and every
    differential-harness graph."""
    paper = [(f"paper-{name}", w.build())
             for name, w in sorted(MICROBENCH_WORKLOADS.items())]
    linear = [(f"linear-{seed:02d}", differential.random_pipeline(seed))
              for seed in range(differential.NUM_CASES)]
    multi = [(f"multi-{seed:02d}",
              differential.random_multisource_pipeline(seed))
             for seed in range(differential.NUM_MULTISOURCE_CASES)]
    heavy = [(f"heavy-{seed:02d}", differential.cache_heavy_pipeline(seed))
             for seed in range(differential.NUM_CACHE_HEAVY_CASES)]
    return paper + linear + multi + heavy


ORACLE_GRAPHS = _oracle_graphs()


class TestCacheExhaustive:
    """The greedy planner against the exhaustive oracle
    (:mod:`tests.cache_oracle`), on the analytic model of each input."""

    @pytest.mark.parametrize("pipeline", [g for _, g in ORACLE_GRAPHS],
                             ids=[name for name, _ in ORACLE_GRAPHS])
    def test_greedy_matches_exhaustive_best(self, pipeline):
        plumber = Plumber(setup_a(), spec=OptimizeSpec(backend="analytic"))
        model = plumber.model(strip_caches(pipeline))
        caches = plan_caches(model)
        best = plan_cache_exhaustive(model)
        assert (best is None) == (caches == [])
        if len(caches) == 1:
            assert cached_lp_throughput(model, caches[0].target) == \
                pytest.approx(best[1], rel=1e-9)


class TestPrefetchPlanner:
    def test_adds_root_prefetch_when_missing(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("w", cpu=1e-4), parallelism=4, name="m")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("nopf")
        )
        model = model_of(pipe, test_machine)
        decisions = plan_prefetch(model)
        targets = {d.target for d in decisions}
        assert "b" in targets  # root insert point is below repeat
        for d in decisions:
            assert d.buffer_size >= 2

    def test_respects_existing_prefetch(self, simple_pipeline, test_machine):
        model = model_of(simple_pipeline, test_machine)
        decisions = plan_prefetch(model)
        assert "batch" not in {d.target for d in decisions}

    def test_parallel_stage_gets_buffer(self, small_catalog, test_machine):
        pipe = (
            from_tfrecords(small_catalog, parallelism=2, name="src")
            .map(make_udf("w", cpu=1e-4), parallelism=8, name="m")
            .shuffle(16, name="shuf")
            .batch(16, name="b")
            .prefetch(4, name="pf")
            .repeat(None, name="r")
            .build("par")
        )
        model = model_of(pipe, test_machine)
        decisions = plan_prefetch(model)
        by_target = {d.target: d for d in decisions}
        assert "m" in by_target
        assert by_target["m"].buffer_size >= 4  # ceil(parallelism/2)


class TestDiskPlanner:
    def test_fit_piecewise_envelope(self):
        xs = [1, 2, 4, 8]
        ys = [100.0, 190.0, 330.0, 400.0]
        segments = fit_piecewise(xs, ys)
        for x, y in zip(xs, ys):
            fitted = min(s * x + c for s, c in segments)
            assert fitted >= y - 1e-6  # concave majorant
        # Flat beyond the last point.
        assert min(s * 100 + c for s, c in segments) == pytest.approx(400.0)

    def test_fit_covers_steep_rise_from_small_bandwidth(self):
        # slope * x ~ 1.7e10 here, so the naive intercept rounds the
        # line ~1.5e-6 below the first point.
        xs, ys = [20, 21], [1.1, 858993461.0]
        segments = fit_piecewise(xs, ys)
        for x, y in zip(xs, ys):
            assert min(s * x + c for s, c in segments) >= y

    def test_fit_single_point(self):
        segments = fit_piecewise([4], [250.0])
        assert segments == [(0.0, 250.0)]

    def test_fit_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_piecewise([1, 2], [1.0])

    def test_benchmark_curve_monotone(self, small_catalog, test_machine):
        from repro.host.disk import DiskSpec

        spec = DiskSpec("d", curve=((1.0, 50e6), (4.0, 160e6), (8.0, 200e6)))
        machine = test_machine.with_disk(spec)
        pipe = from_tfrecords(small_catalog, name="src").repeat(None).build("p")
        curve = benchmark_source_curve(
            pipe, machine, parallelisms=(1, 2, 4, 8), duration=1.0, warmup=0.2
        )
        assert curve.bandwidths == sorted(curve.bandwidths)
        assert curve.max_bandwidth == pytest.approx(200e6, rel=0.1)
        assert curve.minimal_saturating_parallelism(0.9) <= 8

    def test_io_bound_throughput(self):
        # The paper's ResNet example: ~6.9 minibatches per 100 MB/s.
        bpm = 128 * 110e3
        assert io_bound_throughput(bpm, 100e6) == pytest.approx(7.1, rel=0.05)
        assert math.isinf(io_bound_throughput(0.0, 1.0))
