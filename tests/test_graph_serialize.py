"""Round-trip tests for pipeline serialization (the trace program)."""

import json

import pytest

from repro.core.spec import OptimizeSpec
from repro.graph.builder import (
    from_tfrecords,
    interleave_datasets,
    zip_datasets,
)
from repro.graph.datasets import DatasetNode
from repro.graph.serialize import (
    NODE_KINDS,
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


def build_merges(catalog):
    """A pipeline holding the kinds :func:`build_full` lacks: both
    merges and the fused shuffle+repeat."""
    a = from_tfrecords(catalog, name="a").map(make_udf("ua"), name="ma")
    b = from_tfrecords(catalog, name="b")
    c = from_tfrecords(catalog, name="c")
    mixed = interleave_datasets([a, b], weights=[3.0, 1.0], seed=5,
                                name="mix")
    return (
        zip_datasets([mixed, c], cpu_seconds_per_element=1e-6, name="zip")
        .shuffle_and_repeat(16, seed=2, name="snr")
        .build("merges")
    )


def _node_classes(cls=DatasetNode):
    """Every node class the package defines below ``cls``."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _node_classes(sub)


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


class TestDecoderRejects:
    """The decoder is also the daemon's request parser: a malformed
    program fails with a ValueError naming the node and the key instead
    of decoding into some other program."""

    def program(self, catalog):
        data = pipeline_to_dict(build_full(catalog))
        return data, {n["name"]: n for n in data["nodes"]}

    def test_unknown_attr(self, small_catalog):
        data, nodes = self.program(small_catalog)
        nodes["batch"]["attrs"]["batchsize"] = 32
        with pytest.raises(ValueError, match="'batch'.*'batchsize'"):
            pipeline_from_dict(data)

    def test_batch_with_two_inputs(self, small_catalog):
        data, nodes = self.program(small_catalog)
        nodes["batch"]["inputs"] = ["pack", "shuf"]
        with pytest.raises(ValueError, match="'batch'.*got 2"):
            pipeline_from_dict(data)

    def test_source_with_an_input(self, small_catalog):
        data, nodes = self.program(small_catalog)
        data["nodes"].insert(0, dict(nodes["src"], name="src0"))
        nodes["src"]["inputs"] = ["src0"]
        with pytest.raises(ValueError, match="'src'.*got 1"):
            pipeline_from_dict(data)

    def test_merge_with_one_input(self, small_catalog):
        data = pipeline_to_dict(build_merges(small_catalog))
        zip_node = next(n for n in data["nodes"] if n["name"] == "zip")
        zip_node["inputs"] = zip_node["inputs"][:1]
        with pytest.raises(ValueError, match="'zip'.*got 1"):
            pipeline_from_dict(data)

    def test_undefined_input(self, small_catalog):
        data, nodes = self.program(small_catalog)
        nodes["batch"]["inputs"] = ["nope"]
        with pytest.raises(ValueError, match="'batch'.*'nope'"):
            pipeline_from_dict(data)

    def test_input_defined_later(self, small_catalog):
        data, nodes = self.program(small_catalog)
        nodes["batch"]["inputs"] = ["take"]
        with pytest.raises(ValueError, match="'batch'.*'take'"):
            pipeline_from_dict(data)

    def test_missing_required_attr(self, small_catalog):
        data, nodes = self.program(small_catalog)
        del nodes["batch"]["attrs"]["batch_size"]
        with pytest.raises(ValueError, match="'batch'.*batch_size"):
            pipeline_from_dict(data)

    def test_node_off_the_path_to_the_root(self, small_catalog):
        """A node no later node reads (here a second map on the source)
        would be dropped from the rebuilt program."""
        data, nodes = self.program(small_catalog)
        data["nodes"].insert(1, dict(nodes["decode"], name="orphan"))
        with pytest.raises(ValueError, match="'orphan'.*not on the path"):
            pipeline_from_dict(data)

    def test_name_defined_twice(self, small_catalog):
        data, nodes = self.program(small_catalog)
        data["nodes"].insert(2, dict(nodes["decode"]))
        with pytest.raises(ValueError, match="'decode' is defined twice"):
            pipeline_from_dict(data)

    def test_missing_optional_attr_takes_the_default(self, small_catalog):
        data, nodes = self.program(small_catalog)
        del nodes["shuf"]["attrs"]["seed"]
        assert pipeline_from_dict(data).node("shuf").seed == 0


class TestKindTable:
    def test_every_node_class_has_a_kind(self):
        assert set(_node_classes()) == set(NODE_KINDS.values())
        for kind, cls in NODE_KINDS.items():
            assert cls.kind == kind

    def test_every_kind_round_trips(self, small_catalog):
        seen = set()
        for pipe in (build_full(small_catalog), build_merges(small_catalog)):
            data = pipeline_to_dict(pipe)
            restored = pipeline_from_dict(data)
            assert pipeline_to_dict(restored) == data
            assert pipeline_to_dict(restored.clone()) == data
            seen.update(n["kind"] for n in data["nodes"])
        assert seen == set(NODE_KINDS)


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
                          spec=OptimizeSpec(iterations=1,
                                            trace_duration=1.0,
                                            trace_warmup=0.25))
        result = plumber.optimize(self.base(small_catalog))
        text = pipeline_to_json(result.pipeline)
        restored = pipeline_from_json(text)
        assert structural_signature(restored) == structural_signature(
            result.pipeline
        )
