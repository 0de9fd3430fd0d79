"""Graph rewriting (§B "Graph Rewrites").

The three mechanisms the paper lists:

1. get a node's performance parameter (parallelism, prefetch),
2. set a node's parallelism parameter,
3. insert a new node after a selected node (caching, prefetching).

The first needs no function here: the parameters are node attributes
(``effective_parallelism``, ``buffer_size``). :func:`rewrite` applies
actions functionally, as one rewrite: one clone, each action's edit to
its name → node and name → parent maps, one index, one validation.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.graph.datasets import CacheNode, DatasetNode, Pipeline, PrefetchNode
from repro.graph.validate import validate_pipeline


class RewriteError(ValueError):
    """Raised when a rewrite targets a missing or invalid node."""


class Draft:
    """The maps one :func:`rewrite` edits: the input's until an edit
    changes the program, which clones the pipeline first."""

    def __init__(self, pipeline: Pipeline) -> None:
        self.input = self.clone = pipeline
        self.nodes, self.root, self.relinked = pipeline.nodes, pipeline.root.name, False

    def node(self, name: str, verb: str) -> DatasetNode:
        if name not in self.nodes:
            raise RewriteError(f"no node named {name!r} to {verb}")
        return self.nodes[name]

    def _own(self) -> None:
        if self.clone is self.input:
            self.clone = self.input.clone()
            self.nodes, self.parents = self.clone.nodes, self.clone.parents

    def set_parallelism(self, plan: Mapping[str, int]) -> None:
        for name, value in plan.items():
            node = self.node(name, "set parallelism on")
            if not node.tunable:
                raise RewriteError(f"node {name!r} is not tunable")
            if value < 1:
                raise RewriteError(f"parallelism for {name!r} must be >= 1, got {value}")
            if node.parallelism != int(value):
                self._own()
                self.nodes[name].parallelism = int(value)

    def insert_after(self, target: str,
                     factory: Callable[[DatasetNode], DatasetNode]) -> None:
        self.node(target, "insert after")
        self._own()
        new_node = factory(self.nodes[target])
        if new_node.name in self.nodes:
            raise RewriteError(f"new node name {new_node.name!r} already exists")
        self._relink(target, new_node)
        self.nodes[new_node.name] = self.parents[target] = new_node

    def remove(self, target: str) -> None:
        inputs = self.node(target, "remove").inputs
        if len(inputs) != 1:
            raise RewriteError(f"cannot remove node {target!r} with {len(inputs)} inputs")
        self._own()
        self._relink(target, self.nodes.pop(target).inputs[0])

    def _relink(self, name: str, node: DatasetNode) -> None:
        """``node`` takes ``name``'s place, as an input or the root."""
        parent = self.parents.pop(name, None)
        self.parents.pop(node.name, None)
        if parent is None:
            self.root = node.name
        else:
            parent.inputs = [node if c.name == name else c for c in parent.inputs]
            self.parents[node.name] = parent
        self.relinked = True


def rewrite(pipeline: Pipeline, actions: Sequence) -> Pipeline:
    """Apply ``actions`` in order, each by ``action.edit(draft)``, as one
    rewrite; return ``pipeline`` itself when none changed anything."""
    draft = Draft(pipeline)
    for action in actions:
        action.edit(draft)
    result = draft.clone
    if draft.relinked:
        result = Pipeline(draft.nodes[draft.root], name=pipeline.name)
    if result is not pipeline:
        validate_pipeline(result)
    return result


def _rewritten(pipeline: Pipeline, edit: Callable[[Draft], None]) -> Pipeline:
    """A one-edit :func:`rewrite` that never returns its input."""
    result = rewrite(pipeline, [SimpleNamespace(edit=edit)])
    return pipeline.clone() if result is pipeline else result


def set_parallelism(pipeline: Pipeline, plan: Dict[str, int]) -> Pipeline:
    """Return a clone with parallelism overridden per ``plan``."""
    return _rewritten(pipeline, lambda draft: draft.set_parallelism(plan))


def insert_after(pipeline: Pipeline, target: str,
                 factory: Callable[[DatasetNode], DatasetNode]) -> Pipeline:
    """Insert ``factory(target_node)`` between ``target`` and its parent
    (if ``target`` is the root, the new node becomes the root)."""
    return _rewritten(pipeline, lambda draft: draft.insert_after(target, factory))


def insert_cache_after(pipeline: Pipeline, target: str, name: Optional[str] = None,
                       storage: str = "memory") -> Pipeline:
    """Insert a :class:`CacheNode` directly above ``target``."""
    return insert_after(pipeline, target, lambda child: CacheNode(
        name or f"cache_{target}", child, storage=storage))


def insert_prefetch_after(pipeline: Pipeline, target: str, buffer_size: int,
                          name: Optional[str] = None) -> Pipeline:
    """Insert a :class:`PrefetchNode` directly above ``target``."""
    return insert_after(pipeline, target, lambda child: PrefetchNode(
        name or f"prefetch_{target}", child, buffer_size))


def remove_node(pipeline: Pipeline, target: str) -> Pipeline:
    """Remove a single-input node, splicing its child into its parent."""
    return _rewritten(pipeline, lambda draft: draft.remove(target))


def existing_cache(pipeline: Pipeline) -> Optional[str]:
    """Name of the pipeline's cache node, if one is present."""
    return next((n.name for n in pipeline.iter_nodes()
                 if isinstance(n, CacheNode)), None)


def strip_caches(pipeline: Pipeline) -> Pipeline:
    """Remove user-inserted caches in one rewrite (Plumber re-inserts its
    own, §B: "Plumber discards such performance-optimizations as
    suggestions and inserts them itself")."""
    return rewrite(pipeline, [SimpleNamespace(edit=lambda d, c=n.name: d.remove(c))
                              for n in pipeline.iter_nodes() if isinstance(n, CacheNode)])
