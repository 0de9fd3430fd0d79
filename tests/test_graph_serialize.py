"""Round-trip tests for pipeline serialization (the trace program)."""

import json

import pytest

from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from repro.graph.serialize import (
    pipeline_from_dict,
    pipeline_from_json,
    pipeline_to_dict,
    pipeline_to_json,
)
from tests.conftest import make_udf


def build_full(catalog):
    """A pipeline touching every node kind."""
    return (
        from_tfrecords(catalog, parallelism=3, name="src",
                       read_cpu_seconds_per_record=1e-5)
        .map(make_udf("decode", cpu=1e-3, size_ratio=4.0), parallelism=2,
             name="decode")
        .filter(make_udf("keep"), keep_fraction=0.9, name="filt")
        .map(make_udf("pack"), sequential=True, name="pack")
        .shuffle(64, cpu_seconds_per_element=1e-6, seed=7, name="shuf")
        .batch(8, cpu_seconds_per_example=1e-7, name="batch")
        .take(100, name="take")
        .cache(name="cache")
        .prefetch(5, name="pf")
        .repeat(3, name="rep")
        .build("full")
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_structure(self, small_catalog):
        pipe = build_full(small_catalog)
        restored = pipeline_from_dict(pipeline_to_dict(pipe))
        assert [n.name for n in restored.topological_order()] == [
            n.name for n in pipe.topological_order()
        ]
        assert [n.kind for n in restored.topological_order()] == [
            n.kind for n in pipe.topological_order()
        ]

    def test_round_trip_preserves_attrs(self, small_catalog):
        pipe = build_full(small_catalog)
        restored = pipeline_from_dict(pipeline_to_dict(pipe))
        assert restored.node("src").parallelism == 3
        assert restored.node("src").catalog.num_files == small_catalog.num_files
        assert restored.node("decode").udf.size_ratio == 4.0
        assert restored.node("filt").keep_fraction == 0.9
        assert restored.node("pack").sequential
        assert restored.node("shuf").buffer_size == 64
        assert restored.node("shuf").seed == 7
        assert restored.node("batch").batch_size == 8
        assert restored.node("take").count == 100
        assert restored.node("pf").buffer_size == 5
        assert restored.node("rep").count == 3

    def test_json_round_trip(self, small_catalog):
        pipe = build_full(small_catalog)
        text = pipeline_to_json(pipe)
        json.loads(text)  # valid JSON
        restored = pipeline_from_json(text)
        assert restored.name == "full"

    def test_double_round_trip_is_stable(self, small_catalog):
        pipe = build_full(small_catalog)
        once = pipeline_to_json(pipe)
        twice = pipeline_to_json(pipeline_from_json(once))
        assert once == twice

    def test_rejects_unknown_version(self, small_catalog):
        data = pipeline_to_dict(build_full(small_catalog))
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            pipeline_from_dict(data)

    def test_rejects_unknown_kind(self, small_catalog):
        data = pipeline_to_dict(build_full(small_catalog))
        data["nodes"][0]["kind"] = "teleport"
        with pytest.raises(ValueError, match="unknown node kind"):
            pipeline_from_dict(data)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no nodes"):
            pipeline_from_dict({"version": 1, "nodes": []})

    def test_shuffle_and_repeat_round_trip(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .shuffle_and_repeat(32, name="snr")
            .build("g")
        )
        restored = pipeline_from_dict(pipeline_to_dict(pipe))
        assert restored.node("snr").kind == "shuffle_and_repeat"


class TestRewrittenRoundTrip:
    """Optimizer-rewritten pipelines must survive serialization — the
    batch service ships rewritten programs back from worker processes."""

    def base(self, catalog):
        return (
            from_tfrecords(catalog, parallelism=1, name="src")
            .map(make_udf("decode", cpu=1e-3), parallelism=1, name="decode")
            .batch(16, name="batch")
            .repeat(None, name="rep")
            .build("rewrite_me")
        )

    def test_set_parallelism_round_trip(self, small_catalog):
        from repro.core.rewriter import set_parallelism

        pipe = set_parallelism(self.base(small_catalog),
                               {"src": 4, "decode": 8})
        restored = pipeline_from_json(pipeline_to_json(pipe))
        assert restored.node("src").parallelism == 4
        assert restored.node("decode").parallelism == 8

    def test_insert_prefetch_round_trip(self, small_catalog):
        from repro.core.rewriter import insert_prefetch_after

        pipe = insert_prefetch_after(self.base(small_catalog), "batch", 12,
                                     name="pf_batch")
        restored = pipeline_from_json(pipeline_to_json(pipe))
        assert restored.node("pf_batch").kind == "prefetch"
        assert restored.node("pf_batch").buffer_size == 12
        assert restored.parent_of("batch").name == "pf_batch"

    def test_insert_cache_round_trip(self, small_catalog):
        from repro.core.rewriter import insert_cache_after

        pipe = insert_cache_after(self.base(small_catalog), "decode")
        restored = pipeline_from_json(pipeline_to_json(pipe))
        assert restored.node("cache_decode").kind == "cache"
        assert restored.parent_of("decode").name == "cache_decode"

    def test_all_rewrites_stacked_round_trip(self, small_catalog):
        """The full optimizer sequence, then a stable double round-trip."""
        from repro.core.rewriter import (
            insert_cache_after,
            insert_prefetch_after,
            set_parallelism,
        )

        pipe = self.base(small_catalog)
        pipe = set_parallelism(pipe, {"src": 2, "decode": 6})
        pipe = insert_prefetch_after(pipe, "batch", 8, name="pf0")
        pipe = insert_cache_after(pipe, "decode")
        once = pipeline_to_json(pipe)
        restored = pipeline_from_json(once)
        assert pipeline_to_json(restored) == once
        assert [n.name for n in restored.topological_order()] == [
            n.name for n in pipe.topological_order()
        ]

    def test_optimizer_output_round_trips(self, small_catalog, test_machine):
        """End-to-end: a real Plumber.optimize result keeps its structure
        and its structural signature across the serialized hop."""
        from repro.core.plumber import Plumber
        from repro.graph.signature import structural_signature

        plumber = Plumber(test_machine,
                          spec=OptimizeSpec(trace_duration=1.0,
                                            trace_warmup=0.25))
        result = plumber.optimize(self.base(small_catalog), iterations=1)
        text = pipeline_to_json(result.pipeline)
        restored = pipeline_from_json(text)
        assert structural_signature(restored) == structural_signature(
            result.pipeline
        )
