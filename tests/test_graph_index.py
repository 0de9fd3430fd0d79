"""The structural index every :class:`Pipeline` builds once.

* Over the differential harness's graph generators, the index agrees
  with a from-scratch reference walk of the node graph: both node
  orders, names, consumers, sources, the nodes below a cache, and the
  batch size.
* The rewriter never touches its input: every rewrite leaves the input
  pipeline's index and serialization as they were.
* Deep pipelines: every walk on the build → validate → clone →
  serialize → optimize path is iterative, so a 2,000-stage chain works.
"""

from __future__ import annotations

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plumber import Plumber
from repro.core.rewriter import (
    insert_cache_after,
    insert_prefetch_after,
    remove_node,
    set_parallelism,
    strip_caches,
)
from repro.core.spec import OptimizeSpec
from repro.graph.builder import from_tfrecords
from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    InterleaveDatasetsNode,
    InterleaveSourceNode,
    ZipNode,
)
from repro.graph.serialize import pipeline_from_json, pipeline_to_json
from repro.graph.udf import CostModel, UserFunction
from repro.host.machine import setup_a
from repro.io.filesystem import FileCatalog
from tests.test_backend_differential import (
    cache_heavy_pipeline,
    random_multisource_pipeline,
    random_pipeline,
)

GENERATORS = (random_pipeline, random_multisource_pipeline,
              cache_heavy_pipeline)

harness_graphs = st.builds(
    lambda gen, seed: gen(seed),
    st.sampled_from(GENERATORS),
    st.integers(0, 10_000),
)


# ----------------------------------------------------------------------
# Reference walk: recomputes every indexed fact from the node graph.
# ----------------------------------------------------------------------
def reference_facts(pipeline) -> dict:
    root = pipeline.root

    order = []
    entered = set()

    def post(node):
        if id(node) in entered:
            return
        entered.add(id(node))
        for child in node.inputs:
            post(child)
        order.append(node)

    post(root)

    preorder = []
    popped = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in popped:
            popped.add(id(node))
            preorder.append(node)
            stack.extend(node.inputs)

    parents = {}
    for node in preorder:
        for child in node.inputs:
            parents.setdefault(child.name, node.name)

    below = set()
    for node in preorder:
        if isinstance(node, CacheNode):
            stack = list(node.inputs)
            while stack:
                child = stack.pop()
                below.add(child.name)
                stack.extend(child.inputs)

    def examples(node):
        if not node.inputs:
            return 1.0
        if isinstance(node, ZipNode):
            return sum(examples(c) for c in node.inputs)
        if isinstance(node, InterleaveDatasetsNode):
            return sum(w * examples(c)
                       for w, c in zip(node.weights, node.inputs))
        count = examples(node.inputs[0])
        return count * node.batch_size if isinstance(node, BatchNode) \
            else count

    return {
        "order": [id(n) for n in order],
        "preorder": [id(n) for n in preorder],
        "names": {n.name: id(n) for n in preorder},
        "parents": parents,
        "sources": [n.name for n in order
                    if isinstance(n, InterleaveSourceNode)],
        "below_cache": below,
        "batch_size": max(1, int(round(examples(root)))),
    }


def indexed_facts(pipeline) -> dict:
    nodes = pipeline.nodes
    return {
        "order": [id(n) for n in pipeline.topological_order()],
        "preorder": [id(n) for n in pipeline.iter_nodes()],
        "names": {name: id(n) for name, n in nodes.items()},
        "parents": {
            name: pipeline.parent_of(name).name
            for name in nodes if pipeline.parent_of(name) is not None
        },
        "sources": [n.name for n in pipeline.sources()],
        "below_cache": pipeline.below_cache_names(),
        "batch_size": pipeline.batch_size(),
    }


def snapshot(pipeline) -> tuple:
    return indexed_facts(pipeline), pipeline_to_json(pipeline)


# ----------------------------------------------------------------------
class TestIndexMatchesReferenceWalk:
    @given(harness_graphs)
    @settings(max_examples=60, deadline=None)
    def test_index_matches_reference(self, pipeline):
        assert indexed_facts(pipeline) == reference_facts(pipeline)
        assert pipeline.cycle_entry is None
        for name, node in pipeline.nodes.items():
            assert pipeline.node(name) is node

    @given(harness_graphs)
    @settings(max_examples=30, deadline=None)
    def test_clone_and_round_trip_rebuild_the_same_index(self, pipeline):
        for rebuilt in (pipeline.clone(),
                        pipeline_from_json(pipeline_to_json(pipeline))):
            assert indexed_facts(rebuilt) == reference_facts(rebuilt)
            assert [n.name for n in rebuilt.topological_order()] == [
                n.name for n in pipeline.topological_order()]

    def test_returned_containers_are_fresh(self):
        pipeline = random_pipeline(0)
        pipeline.topological_order().clear()
        pipeline.sources().clear()
        pipeline.tunables().clear()
        pipeline.nodes.clear()
        pipeline.below_cache_names().add("x")
        assert indexed_facts(pipeline) == reference_facts(pipeline)


class TestRewritesLeaveTheInputAlone:
    @given(harness_graphs, st.data())
    @settings(max_examples=40, deadline=None)
    def test_input_index_and_program_unchanged(self, pipeline, data):
        before = snapshot(pipeline)
        names = sorted(pipeline.nodes)
        target = data.draw(st.sampled_from(names))
        rewrites = [
            lambda p: set_parallelism(
                p, {n.name: 3 for n in p.tunables()}),
            lambda p: insert_cache_after(p, target, name="index_cache"),
            lambda p: insert_prefetch_after(p, target, 4,
                                            name="index_prefetch"),
            lambda p: remove_node(p, target),
            strip_caches,
        ]
        for rewrite in rewrites:
            # Some rewrites are invalid for some targets (a cache above
            # an unbounded repeat, removing a merge or a source).
            with contextlib.suppress(ValueError):
                result = rewrite(pipeline)
                assert indexed_facts(result) == reference_facts(result)
            assert snapshot(pipeline) == before


class TestDeepPipelines:
    STAGES = 2000

    def test_deep_chain_builds_clones_serializes_and_optimizes(self):
        catalog = FileCatalog("deep", num_files=8, records_per_file=100.0,
                              bytes_per_record=1e3, seed=0)
        ds = from_tfrecords(catalog, name="src")
        for i in range(self.STAGES):
            ds = ds.map(
                UserFunction(f"f{i}", cost=CostModel(cpu_seconds=1e-5)),
                name=f"map{i}",
            )
        pipeline = ds.batch(8, name="batch").build("deep")
        assert len(pipeline.topological_order()) == self.STAGES + 2

        clone = pipeline.clone()
        assert pipeline_to_json(clone) == pipeline_to_json(pipeline)
        text = pipeline_to_json(pipeline)
        assert pipeline_to_json(pipeline_from_json(text)) == text
        assert repr(pipeline).startswith("Pipeline('deep': batch <- map")
        assert len(pipeline.describe().splitlines()) == self.STAGES + 2

        # One-element chunks: the first chunk through 2,000 stages must
        # reach the root inside the trace window.
        spec = OptimizeSpec(backend="analytic", granularity=1)
        result = Plumber(setup_a(), spec=spec).optimize(pipeline)
        assert result.baseline_throughput > 0
        assert result.model.observed_throughput > 0
        assert result.decisions[0].startswith("iter0: parallelism")
        assert len(result.pipeline.topological_order()) >= self.STAGES + 2
