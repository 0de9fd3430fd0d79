"""Tests for graph rewriting (§B)."""

import pytest

from repro.core.rewriter import (
    RewriteError,
    existing_cache,
    insert_after,
    insert_cache_after,
    insert_prefetch_after,
    remove_node,
    set_parallelism,
    strip_caches,
)
from repro.graph.datasets import CacheNode, PrefetchNode


class TestSetParallelism:
    def test_sets_values(self, simple_pipeline):
        out = set_parallelism(simple_pipeline, {"map_work": 5, "src": 3})
        assert out.node("map_work").parallelism == 5
        assert out.node("src").parallelism == 3

    def test_original_untouched(self, simple_pipeline):
        set_parallelism(simple_pipeline, {"map_work": 5})
        assert simple_pipeline.node("map_work").parallelism == 1

    def test_rejects_unknown_node(self, simple_pipeline):
        with pytest.raises(RewriteError, match="no node"):
            set_parallelism(simple_pipeline, {"ghost": 2})

    def test_rejects_non_tunable(self, simple_pipeline):
        with pytest.raises(RewriteError, match="not tunable"):
            set_parallelism(simple_pipeline, {"prefetch": 2})

    def test_rejects_zero(self, simple_pipeline):
        with pytest.raises(RewriteError, match=">= 1"):
            set_parallelism(simple_pipeline, {"map_work": 0})


class TestInsert:
    def test_insert_cache_between_nodes(self, simple_pipeline):
        out = insert_cache_after(simple_pipeline, "map_work")
        cache = out.node("cache_map_work")
        assert isinstance(cache, CacheNode)
        assert cache.inputs[0].name == "map_work"
        assert out.parent_of("cache_map_work").name == "batch"

    def test_insert_at_root_replaces_root(self, simple_pipeline):
        out = insert_prefetch_after(simple_pipeline, "repeat", buffer_size=3)
        assert isinstance(out.root, PrefetchNode)
        assert out.root.inputs[0].name == "repeat"

    def test_insert_rejects_duplicate_name(self, simple_pipeline):
        with_cache = insert_cache_after(simple_pipeline, "map_work")
        with pytest.raises(RewriteError, match="already exists"):
            insert_cache_after(with_cache, "map_work")

    def test_insert_rejects_missing_target(self, simple_pipeline):
        with pytest.raises(RewriteError, match="no node"):
            insert_cache_after(simple_pipeline, "ghost")

    def test_insert_cache_above_repeat_fails_validation(self, simple_pipeline):
        from repro.graph.validate import GraphValidationError

        with pytest.raises(GraphValidationError):
            insert_cache_after(simple_pipeline, "repeat")


class TestRemove:
    def test_remove_middle_node(self, simple_pipeline):
        out = remove_node(simple_pipeline, "prefetch")
        assert "prefetch" not in out.nodes
        assert out.parent_of("batch").name == "repeat"

    def test_remove_root(self, simple_pipeline):
        out = remove_node(simple_pipeline, "repeat")
        assert out.root.name == "prefetch"

    def test_remove_missing_raises(self, simple_pipeline):
        with pytest.raises(RewriteError):
            remove_node(simple_pipeline, "ghost")


class TestStripCaches:
    def test_strips_user_caches(self, simple_pipeline):
        cached = insert_cache_after(simple_pipeline, "map_work")
        cached = insert_cache_after(cached, "src")
        assert existing_cache(cached) is not None
        stripped = strip_caches(cached)
        assert existing_cache(stripped) is None
        assert set(stripped.nodes) == set(simple_pipeline.nodes)

    def test_noop_without_cache(self, simple_pipeline):
        assert strip_caches(simple_pipeline) is simple_pipeline
