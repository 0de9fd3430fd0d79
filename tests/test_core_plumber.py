"""Tests for the Plumber front-end: optimize, pick_best, @optimize."""

import pytest

from repro.core.plumber import Plumber, optimize, optimize_pipeline
from repro.core.rewriter import existing_cache
from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from tests.conftest import make_udf
from tests.test_core_lp import two_stage_pipeline


@pytest.fixture
def plumber(test_machine):
    return Plumber(test_machine,
                   spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.3))


class TestOptimize:
    def test_improves_over_naive(self, small_catalog, plumber, test_machine):
        from repro.runtime.executor import run_pipeline

        pipe = two_stage_pipeline(small_catalog)
        naive = run_pipeline(pipe, test_machine, duration=1.5, warmup=0.3)
        result = plumber.optimize(pipe)
        tuned = run_pipeline(
            result.pipeline, test_machine, duration=1.5, warmup=0.3
        )
        assert tuned.throughput > naive.throughput * 2

    def test_parallelism_pass_only(self, small_catalog, plumber):
        result = plumber.optimize(
            two_stage_pipeline(small_catalog), passes=("parallelism",)
        )
        assert result.cache is None
        assert result.pipeline.node("m_heavy").parallelism > 1
        assert existing_cache(result.pipeline) is None

    def test_cache_pass_inserts_cache(self, small_catalog, plumber):
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        assert result.cache is not None
        assert existing_cache(result.pipeline) is not None

    def test_rejects_unknown_pass(self, small_catalog, plumber):
        with pytest.raises(ValueError, match="unknown optimizer passes"):
            plumber.optimize(two_stage_pipeline(small_catalog), passes=("magic",))

    def test_rejects_zero_iterations(self, small_catalog, plumber):
        with pytest.raises(ValueError, match="iterations"):
            plumber.optimize(two_stage_pipeline(small_catalog), iterations=0)

    def test_user_caches_are_replaced(self, small_catalog, plumber):
        from repro.core.rewriter import insert_cache_after

        pipe = insert_cache_after(
            two_stage_pipeline(small_catalog), "src", name="user_cache"
        )
        result = plumber.optimize(pipe)
        assert "user_cache" not in result.pipeline.nodes

    def test_decision_log_populated(self, small_catalog, plumber):
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        assert any("parallelism" in d for d in result.decisions)
        assert any("cache" in d for d in result.decisions)

    def test_one_liner(self, small_catalog, test_machine):
        result = optimize_pipeline(
            two_stage_pipeline(small_catalog), test_machine, iterations=1
        )
        assert result.model.observed_throughput > 0

    def test_one_liner_accepts_spec(self, small_catalog, test_machine):
        result = optimize_pipeline(
            two_stage_pipeline(small_catalog), test_machine,
            spec=OptimizeSpec(iterations=1, backend="analytic",
                              trace_duration=1.0, trace_warmup=0.25),
        )
        assert result.model.observed_throughput > 0


class TestTrace:
    def test_trace_accepts_explicit_trace_flag(self, small_catalog,
                                               plumber):
        """Regression: ``trace=`` in **overrides used to collide with
        the hardcoded ``trace=True`` keyword (TypeError)."""
        pipe = two_stage_pipeline(small_catalog)
        untraced = plumber.trace(pipe, trace=False)
        traced = plumber.trace(pipe, trace=True)
        assert untraced.root_throughput > 0
        # tracer_overhead is only charged when tracing is on, so the
        # flag observably reached RunConfig.
        assert untraced.root_throughput >= traced.root_throughput


class TestPickBest:
    def test_picks_faster_variant(self, small_catalog, plumber):
        slow = (
            from_tfrecords(small_catalog, parallelism=1, name="src")
            .map(make_udf("slow", cpu=5e-3), parallelism=1, name="m")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("slow")
        )
        fast = (
            from_tfrecords(small_catalog, parallelism=1, name="src")
            .map(make_udf("fast", cpu=1e-5), parallelism=1, name="m")
            .batch(16, name="b")
            .repeat(None, name="r")
            .build("fast")
        )
        result = plumber.pick_best({"slow": slow, "fast": fast}, iterations=1)
        assert result.winner == "fast"
        assert result.pipeline.name == "fast"

    def test_requires_variants(self, plumber):
        with pytest.raises(ValueError):
            plumber.pick_best({})

    def test_tie_broken_by_name_regardless_of_order(self, small_catalog,
                                                    plumber):
        """Identical variants tie on throughput; the winner must be the
        lexicographically smallest name, not whichever was inserted
        first."""
        def build(name):
            return (
                from_tfrecords(small_catalog, parallelism=1, name="src")
                .map(make_udf("op", cpu=1e-4), parallelism=1, name="m")
                .batch(16, name="b")
                .repeat(None, name="r")
                .build(name)
            )

        forward = plumber.pick_best(
            {"alpha": build("alpha"), "beta": build("beta")},
            passes=("parallelism",), iterations=1,
        )
        backward = plumber.pick_best(
            {"beta": build("beta"), "alpha": build("alpha")},
            passes=("parallelism",), iterations=1,
        )
        assert forward.scores["alpha"] == forward.scores["beta"]
        assert forward.winner == "alpha"
        assert backward.winner == "alpha"


class TestOptimizeDecorator:
    def test_decorator_returns_optimized_pipeline(
        self, small_catalog, test_machine
    ):
        @optimize(test_machine,
                  spec=OptimizeSpec(trace_duration=1.0, trace_warmup=0.2))
        def loader():
            return two_stage_pipeline(small_catalog)

        pipe = loader()
        assert pipe.node("m_heavy").parallelism > 1

    def test_decorator_pick_best_cache_flag(self, small_catalog, test_machine):
        """The Figure 11 pattern: cacheable unfused vs fast fused."""

        def build(fused: bool):
            decode = make_udf(
                "decode", cpu=2e-3 if fused else 2.2e-3,
                size_ratio=2.0, random=fused,
            )
            ds = from_tfrecords(small_catalog, parallelism=1, name="src")
            ds = ds.map(decode, parallelism=1, name="m_dec")
            if not fused:
                ds = ds.map(make_udf("crop", cpu=2e-4, random=True),
                            parallelism=1, name="m_crop")
            return (
                ds.batch(16, name="b").repeat(None, name="r")
                .build("fused" if fused else "unfused")
            )

        @optimize(test_machine, pick_best={"fused": [True, False]},
                  spec=OptimizeSpec(trace_duration=1.0, trace_warmup=0.2))
        def loader(fused=False):
            return build(fused)

        pipe = loader()
        assert pipe.name in ("fused", "unfused")

    def test_decorator_rejects_multi_param_pick_best(self, test_machine):
        @optimize(test_machine, pick_best={"a": [1], "b": [2]})
        def loader(a=1, b=2):
            raise AssertionError("should not be called")

        with pytest.raises(ValueError, match="exactly one"):
            loader()


class TestPassTelemetry:
    """OptimizationResult.pass_telemetry: one entry per (iteration,
    registered pass) with wallclock, actions, predicted vs realized."""

    REQUIRED_KEYS = {
        "pass", "iteration", "seconds", "actions",
        "throughput_before", "throughput_after",
        "realized_gain", "predicted_throughput", "predicted_gain",
    }

    def test_every_pass_reports_every_iteration(
        self, small_catalog, test_machine
    ):
        passes = ("parallelism", "prefetch", "cache")
        plumber = Plumber(test_machine, spec=OptimizeSpec(backend="analytic"))
        result = plumber.optimize(
            two_stage_pipeline(small_catalog), passes=passes, iterations=2
        )
        assert [(e["iteration"], e["pass"]) for e in result.pass_telemetry] \
            == [(i, p) for i in range(2) for p in passes]
        for entry in result.pass_telemetry:
            assert self.REQUIRED_KEYS <= set(entry)
            assert entry["seconds"] >= 0
            assert entry["actions"] >= 0

    def test_injected_clock_makes_wallclock_deterministic(
        self, small_catalog, test_machine
    ):
        ticks = iter(float(i) for i in range(100))
        plumber = Plumber(test_machine, spec=OptimizeSpec(backend="analytic"),
                          monotonic=lambda: next(ticks))
        result = plumber.optimize(
            two_stage_pipeline(small_catalog), passes=("parallelism",)
        )
        # The fake clock advances 1.0 between the start and end reads.
        assert result.pass_telemetry[0]["seconds"] == 1.0

    def test_predicted_vs_realized_on_acting_lp_pass(
        self, small_catalog, test_machine
    ):
        import math

        plumber = Plumber(test_machine, spec=OptimizeSpec(backend="analytic"))
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        par = next(
            e for e in result.pass_telemetry if e["pass"] == "parallelism"
        )
        # The LP pass forecasts: prediction present and gain realized.
        assert par["actions"] > 0
        assert not math.isnan(par["predicted_throughput"])
        assert not math.isnan(par["predicted_gain"])
        assert par["throughput_after"] > par["throughput_before"]
        assert par["realized_gain"] > 0
        # A pass that planned nothing is still reported, with zero
        # actions and unchanged throughput. (An idle *parallelism* pass
        # may still carry a prediction — its plan re-solves the LP and
        # forecasts "no change"; non-LP passes must not.)
        idle = [e for e in result.pass_telemetry if e["actions"] == 0]
        for entry in idle:
            assert entry["throughput_after"] == entry["throughput_before"]
            if entry["pass"] != "parallelism":
                assert math.isnan(entry["predicted_throughput"])

    def test_pass_metrics_reach_global_registry(
        self, small_catalog, test_machine
    ):
        from repro.obs import global_registry

        hist = global_registry().histogram("repro_pass_seconds")
        cell = hist.labels(**{"pass": "parallelism"})
        before = cell.count
        Plumber(test_machine, spec=OptimizeSpec(backend="analytic")).optimize(
            two_stage_pipeline(small_catalog),
            passes=("parallelism",), iterations=1,
        )
        assert cell.count == before + 1
