"""Graph rewriting (§B "Graph Rewrites").

The three mechanisms the paper lists:

1. get a node's performance parameter (parallelism, prefetch),
2. set a node's parallelism parameter,
3. insert a new node after a selected node (caching, prefetching).

The first needs no function here: the parameters are node attributes
(``effective_parallelism``, ``buffer_size``). All rewrites are
functional: they clone the pipeline and return a new one keyed by node
name, leaving the input untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.graph.datasets import (
    CacheNode,
    DatasetNode,
    Pipeline,
    PrefetchNode,
)
from repro.graph.validate import validate_pipeline


class RewriteError(ValueError):
    """Raised when a rewrite targets a missing or invalid node."""


def set_parallelism(pipeline: Pipeline, plan: Dict[str, int]) -> Pipeline:
    """Return a clone with parallelism overridden per ``plan``."""
    clone = pipeline.clone()
    nodes = clone.nodes
    for name, value in plan.items():
        if name not in nodes:
            raise RewriteError(f"no node named {name!r} to set parallelism on")
        node = nodes[name]
        if not node.tunable:
            raise RewriteError(f"node {name!r} is not tunable")
        if value < 1:
            raise RewriteError(f"parallelism for {name!r} must be >= 1, got {value}")
        node.parallelism = int(value)
    validate_pipeline(clone)
    return clone


def insert_after(
    pipeline: Pipeline,
    target: str,
    factory: Callable[[DatasetNode], DatasetNode],
    validate: bool = True,
) -> Pipeline:
    """Insert ``factory(target_node)`` between ``target`` and its parent.

    If ``target`` is the root, the new node becomes the root.
    """
    clone = pipeline.clone()
    nodes = clone.nodes
    if target not in nodes:
        raise RewriteError(f"no node named {target!r} to insert after")
    node = nodes[target]
    new_node = factory(node)
    if new_node.name in nodes:
        raise RewriteError(f"new node name {new_node.name!r} already exists")
    parent = clone.parent_of(target)
    if parent is None:
        result = Pipeline(new_node, name=clone.name)
    else:
        parent.inputs = [
            new_node if c.name == target else c for c in parent.inputs
        ]
        result = Pipeline(clone.root, name=clone.name)
    if validate:
        validate_pipeline(result)
    return result


def insert_cache_after(
    pipeline: Pipeline,
    target: str,
    name: Optional[str] = None,
    storage: str = "memory",
) -> Pipeline:
    """Insert a :class:`CacheNode` directly above ``target``."""
    cache_name = name or f"cache_{target}"
    return insert_after(
        pipeline,
        target,
        lambda child: CacheNode(cache_name, child, storage=storage),
    )


def insert_prefetch_after(
    pipeline: Pipeline,
    target: str,
    buffer_size: int,
    name: Optional[str] = None,
) -> Pipeline:
    """Insert a :class:`PrefetchNode` directly above ``target``."""
    prefetch_name = name or f"prefetch_{target}"
    return insert_after(
        pipeline,
        target,
        lambda child: PrefetchNode(prefetch_name, child, buffer_size),
    )


def remove_node(pipeline: Pipeline, target: str) -> Pipeline:
    """Remove a single-input node, splicing its child into its parent."""
    clone = pipeline.clone()
    nodes = clone.nodes
    if target not in nodes:
        raise RewriteError(f"no node named {target!r} to remove")
    node = nodes[target]
    if len(node.inputs) != 1:
        raise RewriteError(f"cannot remove node {target!r} with "
                           f"{len(node.inputs)} inputs")
    child = node.inputs[0]
    parent = clone.parent_of(target)
    if parent is None:
        result = Pipeline(child, name=clone.name)
    else:
        parent.inputs = [child if c.name == target else c for c in parent.inputs]
        result = Pipeline(clone.root, name=clone.name)
    validate_pipeline(result)
    return result


def existing_cache(pipeline: Pipeline) -> Optional[str]:
    """Name of the pipeline's cache node, if one is present."""
    for node in pipeline.iter_nodes():
        if isinstance(node, CacheNode):
            return node.name
    return None


def strip_caches(pipeline: Pipeline) -> Pipeline:
    """Remove user-inserted caches (Plumber re-inserts its own, §B:
    "Plumber discards such performance-optimizations as suggestions and
    inserts them itself")."""
    result = pipeline
    while True:
        name = existing_cache(result)
        if name is None:
            return result
        result = remove_node(result, name)
