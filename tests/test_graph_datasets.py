"""Unit tests for dataset node types and the Pipeline container."""

import dataclasses
import math

import pytest

from repro.graph.builder import (
    from_tfrecords,
    interleave_datasets,
    zip_datasets,
)
from repro.graph.datasets import (
    AUTOTUNE,
    BatchNode,
    CacheNode,
    FilterNode,
    InterleaveDatasetsNode,
    MapNode,
    Pipeline,
    RepeatNode,
    ShuffleNode,
    TakeNode,
    ZipNode,
)
from tests.conftest import make_udf


class TestNodeBasics:
    def test_source_is_tunable(self, small_catalog):
        src = from_tfrecords(small_catalog, parallelism=4, name="src").node
        assert src.tunable
        assert src.effective_parallelism == 4
        assert not src.sequential

    def test_autotune_sentinel_maps_to_one(self, small_catalog):
        src = from_tfrecords(small_catalog, parallelism=AUTOTUNE, name="s").node
        assert src.effective_parallelism == 1

    def test_shuffle_is_sequential(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .shuffle(8, name="shuf")
            .build("p")
        )
        assert pipe.node("shuf").sequential
        assert pipe.node("shuf").effective_parallelism == 1

    def test_sequential_map(self, small_catalog):
        pipe = (
            from_tfrecords(small_catalog, name="src")
            .map(make_udf("pack"), sequential=True, name="pack")
            .build("p")
        )
        node = pipe.node("pack")
        assert node.sequential
        assert not node.tunable

    def test_batch_rejects_zero(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        with pytest.raises(ValueError, match="batch_size"):
            BatchNode("b", src, batch_size=0)

    def test_repeat_rejects_zero_count(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        with pytest.raises(ValueError, match="repeat"):
            RepeatNode("r", src, count=0)

    def test_take_rejects_zero(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        with pytest.raises(ValueError):
            TakeNode("t", src, count=0)

    def test_cache_rejects_bad_storage(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        with pytest.raises(ValueError, match="storage"):
            CacheNode("c", src, storage="tape")

    def test_filter_rejects_udf_examples_ratio(self, small_catalog):
        """Only keep_fraction drops elements; a filter UDF declaring its
        own ratio would be silently ignored by every backend."""
        src = from_tfrecords(small_catalog, name="src").node
        udf = dataclasses.replace(make_udf("f"), examples_ratio=0.7)
        with pytest.raises(ValueError, match="keep_fraction"):
            FilterNode("flt", src, udf)

    def test_elements_ratio_by_kind(self, small_catalog):
        src = from_tfrecords(small_catalog, name="src").node
        assert src.elements_ratio() == 1.0
        m = MapNode("m", src, make_udf("f"))
        assert m.elements_ratio() == 1.0
        b = BatchNode("b", m, batch_size=32)
        assert b.elements_ratio() == pytest.approx(1 / 32)


class TestPipeline:
    def test_duplicate_names_rejected(self, small_catalog):
        src = from_tfrecords(small_catalog, name="x").node
        m = MapNode("x", src, make_udf("f"))
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline(m)

    def test_topological_order_sources_first(self, simple_pipeline):
        order = [n.name for n in simple_pipeline.topological_order()]
        assert order[0] == "src"
        assert order[-1] == "repeat"
        assert order.index("map_work") < order.index("batch")

    def test_node_lookup_error_lists_names(self, simple_pipeline):
        with pytest.raises(KeyError, match="no node named"):
            simple_pipeline.node("missing")

    def test_parent_of(self, simple_pipeline):
        assert simple_pipeline.parent_of("src").name == "map_work"
        assert simple_pipeline.parent_of("repeat") is None

    def test_visit_ratios_account_for_batch(self, simple_pipeline):
        ratios = simple_pipeline.visit_ratios()
        assert ratios["repeat"] == 1.0
        assert ratios["batch"] == 1.0
        # Pre-batch nodes complete batch_size elements per minibatch.
        assert ratios["map_work"] == pytest.approx(16.0)
        assert ratios["src"] == pytest.approx(16.0)

    def test_batch_size_product(self, simple_pipeline):
        assert simple_pipeline.batch_size() == 16

    def test_tunables(self, simple_pipeline):
        names = {n.name for n in simple_pipeline.tunables()}
        assert names == {"src", "map_work", "batch"}

    def test_clone_is_deep_for_nodes(self, simple_pipeline):
        clone = simple_pipeline.clone()
        clone.node("map_work").parallelism = 7
        assert simple_pipeline.node("map_work").parallelism == 1
        assert [n.name for n in clone.topological_order()] == [
            n.name for n in simple_pipeline.topological_order()
        ]

    def test_sources(self, simple_pipeline):
        assert [s.name for s in simple_pipeline.sources()] == ["src"]


class TestMergeNodes:
    def _branches(self, catalog):
        a = from_tfrecords(catalog, name="src_a").map(
            make_udf("fa"), name="map_a")
        b = from_tfrecords(catalog, name="src_b").map(
            make_udf("fb"), name="map_b")
        return a, b

    def _zip_pipeline(self, catalog):
        a, b = self._branches(catalog)
        return (
            zip_datasets([a, b], name="z")
            .batch(4, name="batch")
            .repeat(None, name="rep")
            .build("p")
        )

    def test_zip_is_variadic(self, small_catalog):
        pipe = self._zip_pipeline(small_catalog)
        z = pipe.node("z")
        assert isinstance(z, ZipNode)
        assert z.merges and z.input_arity is None
        assert z.input_consumption(0) == 1.0
        assert z.input_consumption(1) == 1.0

    def test_zip_needs_two_inputs(self, small_catalog):
        with pytest.raises(ValueError, match="at least 2"):
            zip_datasets([from_tfrecords(small_catalog, name="s")])

    def test_zip_visit_ratios_reach_every_branch(self, small_catalog):
        ratios = self._zip_pipeline(small_catalog).visit_ratios()
        # batch(4) consumes 4 zip outputs per root element; a zip output
        # consumes one element from *each* branch.
        assert ratios["z"] == pytest.approx(4.0)
        assert ratios["map_a"] == pytest.approx(4.0)
        assert ratios["src_b"] == pytest.approx(4.0)

    def test_zip_batch_size_sums_branches(self, small_catalog):
        # One zip output carries one element per branch: 2 examples,
        # then batch(4) packs 4 of them.
        assert self._zip_pipeline(small_catalog).batch_size() == 8

    def test_interleave_weights_normalize(self, small_catalog):
        a, b = self._branches(small_catalog)
        pipe = interleave_datasets(
            [a, b], weights=[3.0, 1.0], name="mix").build("p")
        mix = pipe.node("mix")
        assert isinstance(mix, InterleaveDatasetsNode)
        assert mix.weights == pytest.approx([0.75, 0.25])
        assert mix.input_consumption(0) == pytest.approx(0.75)
        assert mix.input_consumption(1) == pytest.approx(0.25)
        ratios = pipe.visit_ratios()
        assert ratios["src_a"] == pytest.approx(0.75)
        assert ratios["src_b"] == pytest.approx(0.25)

    def test_interleave_default_weights_uniform(self, small_catalog):
        a, b = self._branches(small_catalog)
        pipe = interleave_datasets([a, b], name="mix").build("p")
        assert pipe.node("mix").weights == pytest.approx([0.5, 0.5])

    def test_clone_preserves_merge_structure(self, small_catalog):
        pipe = self._zip_pipeline(small_catalog)
        clone = pipe.clone()
        assert [n.name for n in clone.topological_order()] == [
            n.name for n in pipe.topological_order()
        ]
        assert clone.node("z") is not pipe.node("z")
        assert [c.name for c in clone.node("z").inputs] == ["map_a", "map_b"]
        assert all(c is not o for c, o in
                   zip(clone.node("z").inputs, pipe.node("z").inputs))

    def test_clone_preserves_interleave_weights(self, small_catalog):
        a, b = self._branches(small_catalog)
        pipe = interleave_datasets(
            [a, b], weights=[3.0, 1.0], name="mix").build("p")
        assert pipe.clone().node("mix").weights == pytest.approx(
            [0.75, 0.25])

    # -- repr/describe must render branch structure, not flatten the
    # -- topological order into a fake linear chain (regression pin)
    def test_repr_renders_branches(self, small_catalog):
        pipe = self._zip_pipeline(small_catalog)
        assert repr(pipe) == (
            "Pipeline('p': rep <- batch <- z <- "
            "[map_a <- src_a | map_b <- src_b])"
        )

    def test_repr_never_flattens_to_a_chain(self, small_catalog):
        # The old bug: topological order joined with "<-" shows
        # "... map_a <- src_a <- map_b ..." — a chain that does not exist.
        assert "src_a <- map_b" not in repr(self._zip_pipeline(small_catalog))

    def test_describe_indents_branches(self, small_catalog):
        lines = self._zip_pipeline(small_catalog).describe().splitlines()
        assert lines[0].startswith("rep [repeat")
        assert lines[1].startswith("  batch [batch")
        assert lines[2].startswith("    z [zip")
        assert lines[3].startswith("      map_a [map")
        assert lines[4].startswith("        src_a [")
        assert lines[5].startswith("      map_b [map")
        assert lines[6].startswith("        src_b [")
