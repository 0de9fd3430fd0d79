"""Tests for the optimizer pass registry, actions, and built-in passes."""

import pytest

from repro.core.passes import (
    InsertPrefetch,
    PassContext,
    RemovePipelineNode,
    SetParallelism,
    available_passes,
    register_pass,
    resolve_pass,
    resolve_passes,
    unregister_pass,
)
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from tests.conftest import make_udf
from tests.test_core_lp import two_stage_pipeline

#: short trace windows keep the pass-driver tests fast
SHORT = OptimizeSpec(trace_duration=1.0, trace_warmup=0.25)
ANALYTIC = SHORT.replace(backend="analytic")


def stacked_prefetch_pipeline(catalog):
    """A hand-tuned pipeline with three adjacent prefetch buffers."""
    return (
        from_tfrecords(catalog, parallelism=2, name="src")
        .map(make_udf("m", cpu=1e-3), parallelism=2, name="m")
        .batch(16, name="b")
        .prefetch(2, name="pf_a")
        .prefetch(8, name="pf_b")
        .prefetch(4, name="pf_c")
        .repeat(None, name="r")
        .build("stacked")
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_passes()) >= {
            "parallelism", "prefetch", "cache", "fuse",
        }

    def test_resolve_by_name(self):
        assert resolve_pass("parallelism").name == "parallelism"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer passes"):
            resolve_pass("magic")

    def test_resolve_passes_reports_all_unknown(self):
        with pytest.raises(ValueError) as err:
            resolve_passes(("parallelism", "magic", "wand"))
        assert "magic" in str(err.value) and "wand" in str(err.value)

    def test_duplicate_registration_rejected(self):
        class Dup:
            name = "parallelism"

            def plan(self, ctx):
                return []

        with pytest.raises(ValueError, match="already registered"):
            register_pass(Dup())

    def test_replace_allows_override_and_restore(self):
        original = resolve_pass("fuse")

        class Shadow:
            name = "fuse"

            def plan(self, ctx):
                return []

        register_pass(Shadow(), replace=True)
        try:
            assert isinstance(resolve_pass("fuse"), Shadow)
        finally:
            register_pass(original, replace=True)
        assert resolve_pass("fuse") is original

    def test_register_and_unregister_custom_pass(self):
        class Custom:
            name = "custom_test_pass"

            def plan(self, ctx):
                return []

        register_pass(Custom())
        try:
            assert "custom_test_pass" in available_passes()
        finally:
            unregister_pass("custom_test_pass")
        assert "custom_test_pass" not in available_passes()

    def test_nameless_pass_rejected(self):
        class NoName:
            def plan(self, ctx):
                return []

        with pytest.raises(TypeError, match="name"):
            register_pass(NoName())

    def test_planless_pass_rejected(self):
        class NoPlan:
            name = "no_plan"

        with pytest.raises(TypeError, match="plan"):
            register_pass(NoPlan())

    def test_non_pass_spec_rejected(self):
        with pytest.raises(TypeError):
            resolve_pass(42)


class TestActions:
    def test_set_parallelism_applies(self, small_catalog):
        pipe = two_stage_pipeline(small_catalog)
        action = SetParallelism(plan={"m_heavy": 4}, description="widen")
        out = action.apply(pipe)
        assert out.node("m_heavy").parallelism == 4
        assert pipe.node("m_heavy").parallelism != 4  # functional rewrite

    def test_insert_prefetch_applies(self, small_catalog):
        pipe = two_stage_pipeline(small_catalog)
        action = InsertPrefetch(target="m_heavy", buffer_size=6,
                                name="pf_new", description="buffer")
        out = action.apply(pipe)
        assert out.node("pf_new").buffer_size == 6

    def test_remove_node_applies(self, small_catalog):
        pipe = stacked_prefetch_pipeline(small_catalog)
        out = RemovePipelineNode(target="pf_a", description="drop").apply(pipe)
        assert "pf_a" not in out.nodes
        assert "pf_a" in pipe.nodes


class TestFusePass:
    def test_fuse_collapses_stack_keeping_max_buffer(self, small_catalog,
                                                     test_machine):
        plumber = Plumber(test_machine, spec=ANALYTIC.replace(
            passes=("fuse",), iterations=1))
        result = plumber.optimize(stacked_prefetch_pipeline(small_catalog))
        kept = [n for n in result.pipeline.nodes if n.startswith("pf_")]
        assert kept == ["pf_b"]  # the largest buffer survives
        assert result.pipeline.node("pf_b").buffer_size == 8
        assert sum("fuse" in d for d in result.decisions) == 2

    def test_fuse_noop_without_adjacent_prefetches(self, small_catalog,
                                                   test_machine):
        plumber = Plumber(test_machine, spec=ANALYTIC.replace(
            passes=("fuse",), iterations=1))
        pipe = two_stage_pipeline(small_catalog)
        result = plumber.optimize(pipe)
        assert result.decisions == []
        assert set(result.pipeline.nodes) == set(pipe.nodes)

    def test_fuse_then_standard_passes(self, small_catalog, test_machine):
        """The new pass composes with the original three in one spec."""
        plumber = Plumber(test_machine, spec=SHORT.replace(
            passes=("fuse", "parallelism", "prefetch", "cache"),
            iterations=1,
        ))
        result = plumber.optimize(stacked_prefetch_pipeline(small_catalog))
        kept = [n for n in result.pipeline.nodes if n.startswith("pf_")]
        assert kept == ["pf_b"]
        assert result.lp is not None


class TestCustomPassInDriver:
    def test_pass_object_usable_without_registration(self, small_catalog,
                                                     test_machine):
        applied = []

        class Widen:
            name = "widen"

            def plan(self, ctx):
                if applied:
                    return []
                applied.append(ctx.iteration)
                return [SetParallelism(
                    plan={"m_heavy": 3},
                    description=f"iter{ctx.iteration}: widen m_heavy",
                )]

        plumber = Plumber(test_machine, spec=ANALYTIC.replace(
            passes=(Widen(),), iterations=1))
        result = plumber.optimize(two_stage_pipeline(small_catalog))
        assert result.pipeline.node("m_heavy").parallelism == 3
        assert result.decisions == ["iter0: widen m_heavy"]
        # No parallelism pass ran, so no LP solution was recorded.
        assert result.lp is None and result.bottleneck == "none"

    def test_context_exposes_machine_memory_and_model(self, small_catalog,
                                                      test_machine):
        seen = {}

        class Probe:
            name = "probe"

            def plan(self, ctx: PassContext):
                seen["machine"] = ctx.machine
                seen["memory"] = ctx.memory.capacity_bytes
                seen["pipeline"] = ctx.pipeline.name
                return []

        Plumber(test_machine, spec=ANALYTIC.replace(
            passes=(Probe(),), iterations=1,
        )).optimize(two_stage_pipeline(small_catalog))
        assert seen["machine"] is test_machine
        assert seen["memory"] == test_machine.memory_bytes
        assert seen["pipeline"]
