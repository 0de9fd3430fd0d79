"""Tests for structural pipeline validation."""

import pytest

from repro.graph.builder import from_tfrecords, zip_datasets
from repro.graph.datasets import CacheNode, MapNode, Pipeline, ZipNode
from repro.graph.validate import GraphValidationError, validate_pipeline
from tests.conftest import make_udf


class TestValidation:
    def test_valid_pipeline_passes(self, simple_pipeline):
        validate_pipeline(simple_pipeline)

    def test_missing_source_rejected(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        lone_map = MapNode("m", src, make_udf("f"))
        lone_map.inputs = []  # simulate a detached subgraph
        with pytest.raises(GraphValidationError, match="no source"):
            validate_pipeline(Pipeline(lone_map))

    def test_cache_above_unbounded_repeat_rejected(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .repeat(None, name="rep")
            .cache(name="cache")
            .build("bad", validate=False)
        )
        with pytest.raises(GraphValidationError, match="unbounded repeat"):
            validate_pipeline(pipe)

    def test_cache_above_shuffle_and_repeat_rejected(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .shuffle_and_repeat(8, name="snr")
            .cache(name="cache")
            .build("bad", validate=False)
        )
        with pytest.raises(GraphValidationError):
            validate_pipeline(pipe)

    def test_cache_above_bounded_repeat_allowed(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .repeat(2, name="rep")
            .cache(name="cache")
            .build("ok", validate=False)
        )
        validate_pipeline(pipe)

    def test_cache_below_repeat_allowed(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .cache(name="cache")
            .repeat(None, name="rep")
            .build("ok")
        )
        validate_pipeline(pipe)

    def test_builder_validates_by_default(self, small_catalog):
        with pytest.raises(GraphValidationError):
            (
                from_tfrecords(small_catalog, name="src")
                .repeat(None, name="rep")
                .cache(name="cache")
                .build("bad")
            )

    def test_cycle_detected(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        m1 = MapNode("m1", src, make_udf("a"))
        m2 = MapNode("m2", m1, make_udf("b"))
        m1.inputs = [m2]  # introduce a cycle
        with pytest.raises(GraphValidationError, match="cycle"):
            validate_pipeline(Pipeline(m2))

    def test_fan_out_rejected(self, small_catalog):
        """Pipelines are rooted in-trees: one node feeding two consumers
        (here, both zip branches) must fail validation."""
        src = from_tfrecords(small_catalog, name="src").node
        m1 = MapNode("m1", src, make_udf("a"))
        m2 = MapNode("m2", src, make_udf("b"))  # src now fans out
        z = ZipNode("z", [m1, m2])
        with pytest.raises(GraphValidationError, match="in-trees"):
            validate_pipeline(Pipeline(z))

    def test_distinct_merge_branches_pass(self, small_catalog):
        a = from_tfrecords(small_catalog, name="src_a").map(
            make_udf("fa"), name="map_a")
        b = from_tfrecords(small_catalog, name="src_b").map(
            make_udf("fb"), name="map_b")
        validate_pipeline(zip_datasets([a, b], name="z").build("p"))
