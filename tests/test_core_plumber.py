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


def respec(plumber, **changes):
    """A Plumber on ``plumber``'s machine, its spec with ``changes``."""
    return Plumber(plumber.machine, spec=plumber.spec.replace(**changes))


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
        result = respec(plumber, passes=("parallelism",)).optimize(
            two_stage_pipeline(small_catalog)
        )
        assert result.caches == []
        assert result.pipeline.node("m_heavy").parallelism > 1
        assert existing_cache(result.pipeline) is None

    def test_cache_pass_inserts_cache(self, small_catalog, plumber):
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        assert len(result.caches) == 1
        assert existing_cache(result.pipeline) is not None

    def test_rejects_unknown_pass(self, small_catalog, plumber):
        with pytest.raises(ValueError, match="unknown optimizer passes"):
            respec(plumber, passes=("magic",)).optimize(
                two_stage_pipeline(small_catalog))

    def test_rejects_zero_iterations(self, small_catalog, plumber):
        with pytest.raises(ValueError, match="iterations"):
            respec(plumber, iterations=0)

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
            two_stage_pipeline(small_catalog), test_machine,
            spec=OptimizeSpec(iterations=1),
        )
        assert result.model.observed_throughput > 0

    def test_one_liner_accepts_spec(self, small_catalog, test_machine):
        result = optimize_pipeline(
            two_stage_pipeline(small_catalog), test_machine,
            spec=OptimizeSpec(iterations=1, backend="analytic",
                              trace_duration=1.0, trace_warmup=0.25),
        )
        assert result.model.observed_throughput > 0


def fig11_variant(catalog, fused: bool):
    """Figure 11's choice: a fast fused decode, or a slightly slower
    unfused one whose decode output is cacheable."""
    decode = make_udf(
        "decode", cpu=2e-3 if fused else 2.2e-3,
        size_ratio=2.0, random=fused,
    )
    ds = from_tfrecords(catalog, parallelism=1, name="src")
    ds = ds.map(decode, parallelism=1, name="m_dec")
    if not fused:
        ds = ds.map(make_udf("crop", cpu=2e-4, random=True),
                    parallelism=1, name="m_crop")
    return (
        ds.batch(16, name="b").repeat(None, name="r")
        .build("fused" if fused else "unfused")
    )


class TestPickBest:
    def test_variants_optimized_under_the_plumbers_spec(self, small_catalog,
                                                        plumber):
        """Each variant's result is exactly ``optimize(variant)``'s:
        the same program and decisions, for ``spec.iterations`` rounds."""
        from repro.graph.serialize import pipeline_to_json

        variants = {name: fig11_variant(small_catalog, fused)
                    for name, fused in (("fused", True), ("unfused", False))}
        best = plumber.pick_best(variants)
        for name, pipe in variants.items():
            alone = plumber.optimize(pipe)
            assert best.results[name].decisions == alone.decisions
            assert pipeline_to_json(best.results[name].pipeline) == \
                pipeline_to_json(alone.pipeline)
            assert {e["iteration"] for e in alone.pass_telemetry} == \
                set(range(plumber.spec.iterations))

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
        result = respec(plumber, iterations=1).pick_best(
            {"slow": slow, "fast": fast})
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

        plumber = respec(plumber, passes=("parallelism",), iterations=1)
        forward = plumber.pick_best(
            {"alpha": build("alpha"), "beta": build("beta")})
        backward = plumber.pick_best(
            {"beta": build("beta"), "alpha": build("alpha")})
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

        @optimize(test_machine, pick_best={"fused": [True, False]},
                  spec=OptimizeSpec(trace_duration=1.0, trace_warmup=0.2))
        def loader(fused=False):
            return fig11_variant(small_catalog, fused)

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
        plumber = Plumber(test_machine, spec=OptimizeSpec(
            passes=passes, iterations=2, backend="analytic"))
        result = plumber.optimize(two_stage_pipeline(small_catalog))
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
        plumber = Plumber(test_machine,
                          spec=OptimizeSpec(passes=("parallelism",),
                                            backend="analytic"),
                          monotonic=lambda: next(ticks))
        result = plumber.optimize(two_stage_pipeline(small_catalog))
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
        Plumber(test_machine, spec=OptimizeSpec(
            passes=("parallelism",), iterations=1, backend="analytic",
        )).optimize(two_stage_pipeline(small_catalog))
        assert cell.count == before + 1


class CountingBackend:
    """Wraps a registered trace backend and counts its traces."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def trace(self, pipeline, machine, config):
        self.calls += 1
        return self.inner.trace(pipeline, machine, config)


@pytest.fixture
def counted():
    """Counting wrappers registered over ``simulate`` and ``analytic``."""
    from repro.runtime.backends import register_backend, resolve_backend

    originals = [resolve_backend(n) for n in ("simulate", "analytic")]
    wrappers = {b.name: CountingBackend(b) for b in originals}
    for wrapper in wrappers.values():
        register_backend(wrapper, replace=True)
    yield wrappers
    for backend in originals:
        register_backend(backend, replace=True)


class IdlePass:
    name = "idle"

    def plan(self, ctx):
        return []


def acting_passes(result):
    return sum(1 for e in result.pass_telemetry if e["actions"])


class TestPlanAnalyticallyCertifyOnce:
    """Passes plan against the analytic model; the spec's backend only
    traces the input and the final program."""

    def test_default_spec_simulates_twice(self, small_catalog, plumber,
                                          counted):
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        assert acting_passes(result) >= 2
        assert counted["simulate"].calls == 2
        assert counted["analytic"].calls == 1 + acting_passes(result)
        cert = result.certification
        assert cert["planner"] == "analytic"
        assert cert["certifier"] == "simulate"
        assert cert["verdict"] == "accepted"
        assert cert["baseline"] == result.baseline_throughput
        assert cert["certified"] == result.model.observed_throughput
        assert cert["bottleneck_agrees"] is True
        assert result.model.trace.backend == "simulate"

    def test_no_acting_pass_simulates_once(self, small_catalog, plumber,
                                           counted):
        result = respec(plumber, passes=(IdlePass(),)).optimize(
            two_stage_pipeline(small_catalog))
        assert counted["simulate"].calls == 1
        assert counted["analytic"].calls == 1
        assert result.speedup == 1.0
        assert result.certification["verdict"] == "accepted"

    def test_analytic_spec_traces_once_per_acting_pass(
        self, small_catalog, test_machine, counted
    ):
        plumber = Plumber(test_machine, spec=OptimizeSpec(backend="analytic"))
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        assert acting_passes(result) >= 2
        assert counted["simulate"].calls == 0
        assert counted["analytic"].calls == 1 + acting_passes(result)
        cert = result.certification
        assert cert["verdict"] == "same-backend"
        assert cert["planned"] == cert["certified"]

    def test_default_spec_plans_like_analytic_spec(self, small_catalog,
                                                   plumber):
        from repro.graph.serialize import pipeline_to_json

        pipe = two_stage_pipeline(small_catalog)
        analytic = respec(plumber, backend="analytic").optimize(pipe)
        default = plumber.optimize(pipe)
        assert pipeline_to_json(default.pipeline) == \
            pipeline_to_json(analytic.pipeline)
        assert default.decisions == analytic.decisions
        assert [e["throughput_after"] for e in default.pass_telemetry] == \
            [e["throughput_after"] for e in analytic.pass_telemetry]

    def test_degenerate_analytic_input_plans_with_spec_backend(
        self, small_catalog, plumber, counted, monkeypatch
    ):
        """A zero-throughput analytic trace of the input cannot plan:
        the spec's backend plans (and certifies) instead."""
        inner = counted["analytic"].inner

        def degenerate(pipeline, machine, config):
            counted["analytic"].calls += 1
            trace = inner.trace(pipeline, machine, config)
            trace.root_throughput = 0.0
            return trace

        monkeypatch.setattr(counted["analytic"], "trace", degenerate)
        result = respec(plumber, passes=("parallelism",),
                        iterations=1).optimize(
            two_stage_pipeline(small_catalog))
        assert counted["analytic"].calls == 1
        assert counted["simulate"].calls == 1 + acting_passes(result)
        cert = result.certification
        assert cert["planner"] == cert["certifier"] == "simulate"
        assert cert["verdict"] == "accepted"
        assert result.pipeline.node("m_heavy").parallelism > 1


class TestOneRewritePerPass:
    """Each pass's action list is one rewrite: one clone when it changes
    the program, none (and no re-trace) when it does not."""

    def test_clones_and_traces_only_for_changed_programs(
        self, small_catalog, test_machine, counted, monkeypatch
    ):
        from repro.graph.datasets import Pipeline
        from tests.test_core_passes import stacked_prefetch_pipeline

        clone = Pipeline.clone
        clones = []

        def spy(pipeline):
            clones.append(pipeline)
            return clone(pipeline)

        monkeypatch.setattr(Pipeline, "clone", spy)
        plumber = Plumber(test_machine, spec=OptimizeSpec(
            backend="analytic", passes=("parallelism", "fuse")))
        result = plumber.optimize(stacked_prefetch_pipeline(small_catalog))
        # iter0: the LP widens the map and fuse removes two of the
        # three stacked buffers (two actions, one rewrite); iter1: the
        # LP repeats its plan, which changes nothing.
        plan = "parallelism {'m': 8, 'src': 1}"
        assert [d.split(" (LP")[0] for d in result.decisions] == [
            f"iter0: {plan}",
            "iter0: fuse prefetch pf_c into pf_b (buffer 8)",
            "iter0: fuse prefetch pf_a into pf_b (buffer 8)",
            f"iter1: {plan}",
        ]
        assert [(e["pass"], e["actions"]) for e in result.pass_telemetry] \
            == [("parallelism", 1), ("fuse", 2),
                ("parallelism", 1), ("fuse", 0)]
        repeat = result.pass_telemetry[2]
        assert repeat["throughput_after"] == repeat["throughput_before"]
        changed = 2
        assert len(clones) == changed
        assert counted["analytic"].calls == 1 + changed


class SerializeMaps:
    """A pessimizing pass: every map back to parallelism 1."""

    name = "serialize_maps"

    def plan(self, ctx):
        from repro.core.passes import SetParallelism

        plan = {n.name: 1 for n in ctx.pipeline.iter_nodes()
                if n.kind == "map" and n.parallelism > 1}
        if not plan:
            return []
        return [SetParallelism(plan=plan, description=f"serialize {plan}")]


class TestCertificationRevert:
    @pytest.fixture
    def tuned(self, small_catalog):
        from repro.core.rewriter import set_parallelism

        return set_parallelism(two_stage_pipeline(small_catalog),
                               {"m_heavy": 6, "m_cheap": 2})

    @pytest.fixture(autouse=True)
    def serialize_pass(self):
        from repro.core.passes import register_pass, unregister_pass

        register_pass(SerializeMaps())
        yield
        unregister_pass(SerializeMaps.name)

    def test_simulate_spec_reverts_to_the_input(self, tuned, plumber):
        from repro.graph.serialize import pipeline_to_json

        result = respec(plumber, passes=("serialize_maps",),
                        iterations=1).optimize(tuned)
        assert pipeline_to_json(result.pipeline) == pipeline_to_json(tuned)
        assert result.certification["verdict"] == "reverted"
        # The certificate records what the simulator measured on the
        # planned program; the result carries the input's model.
        assert result.certification["certified"] < result.baseline_throughput
        assert result.certification["planned"] < result.baseline_throughput
        assert result.model.observed_throughput == result.baseline_throughput
        assert result.speedup == 1.0
        assert result.caches == []
        assert result.decisions[-1].startswith("certify: reverted (")

    def test_analytic_spec_applies_the_pass_unchanged(self, tuned,
                                                      test_machine):
        plumber = Plumber(test_machine, spec=OptimizeSpec(
            passes=("serialize_maps",), iterations=1, backend="analytic"))
        result = plumber.optimize(tuned)
        assert result.pipeline.node("m_heavy").parallelism == 1
        assert result.pipeline.node("m_cheap").parallelism == 1
        assert result.certification["verdict"] == "same-backend"
        assert result.speedup < 1.0
        assert not any(d.startswith("certify:") for d in result.decisions)
