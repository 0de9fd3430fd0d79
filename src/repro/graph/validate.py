"""Structural validation of pipelines.

Catches the misconfigurations that would otherwise surface as confusing
runtime failures: duplicate names, wrong input counts, fan-out, cycles,
non-positive tunables, and cache-above-repeat (which would try to
materialize an infinite stream).
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.datasets import (
    CacheNode,
    DatasetNode,
    InterleaveSourceNode,
    Pipeline,
    RepeatNode,
)


class GraphValidationError(ValueError):
    """Raised when a pipeline fails structural validation."""


def validate_pipeline(pipeline: Pipeline) -> None:
    """Validate ``pipeline``, raising :class:`GraphValidationError`.

    Checks:
    * at least one source; every node's input count matches its declared
      ``input_arity`` (0 for sources, 1 for chain operators, >= 2 for
      variadic merge nodes),
    * the graph is a rooted in-tree: no node feeds two consumers
      (fan-in via zip/interleave is allowed, fan-out is not),
    * no cycles (the pipeline's sources-first walk never re-enters a
      node on its own path, :attr:`Pipeline.cycle_entry`),
    * unique node names,
    * parallelism >= 1 on tunable nodes when set,
    * no cache above an unbounded repeat or shuffle_and_repeat.
    """
    errors: List[str] = []
    # One pass, sources first. Each check keeps its own list so the
    # messages come out grouped in the order they always have.
    names: set = set()
    dupes: set = set()
    has_source = False
    node_errors: List[str] = []
    consumers: Dict[int, list] = {}
    # ids of the nodes whose stream is unbounded: an unbounded repeat at
    # or below them (sources first, so children are decided first)
    unbounded: set = set()
    cache_errors: List[str] = []
    for node in pipeline.topological_order():
        if node.name in names:
            dupes.add(node.name)
        names.add(node.name)
        has_source = has_source or isinstance(node, InterleaveSourceNode)
        _check_node(node, node_errors)
        infinite = (
            (isinstance(node, RepeatNode) and node.count is None)
            or node.kind == "shuffle_and_repeat"
        )
        for child in node.inputs:
            consumers.setdefault(id(child), []).append((child, node))
            infinite = infinite or id(child) in unbounded
        if infinite:
            unbounded.add(id(node))
        if (
            isinstance(node, CacheNode)
            and node.inputs
            and id(node.inputs[0]) in unbounded
        ):
            # A cache must not materialize an already-infinite stream.
            cache_errors.append(
                f"cache {node.name!r} placed above an unbounded repeat; "
                "it would materialize an infinite stream"
            )

    if dupes:
        errors.append(f"duplicate node names: {sorted(dupes)}")
    if not has_source:
        errors.append("pipeline has no source node")
    errors.extend(node_errors)
    if pipeline.cycle_entry is not None:
        errors.append(
            f"cycle detected through node {pipeline.cycle_entry.name!r}"
        )
    _check_single_consumer(consumers, errors)
    errors.extend(cache_errors)

    if errors:
        raise GraphValidationError("; ".join(errors))


def _check_node(node: DatasetNode, errors: List[str]) -> None:
    """Input arity and parallelism of one node."""
    if node.input_arity is None:
        if len(node.inputs) < 2:
            errors.append(
                f"merge node {node.name!r} needs at least 2 inputs, "
                f"has {len(node.inputs)}"
            )
    elif len(node.inputs) != node.input_arity:
        what = "no inputs" if node.input_arity == 0 else (
            f"exactly {node.input_arity} input"
            + ("s" if node.input_arity != 1 else "")
        )
        errors.append(
            f"node {node.name!r} must have {what}, "
            f"has {len(node.inputs)}"
        )
    if isinstance(node, InterleaveSourceNode) and node.input_arity != 0:
        errors.append(f"source {node.name!r} must declare input_arity 0")
    if node.tunable and node.parallelism is not None and node.parallelism == 0:
        errors.append(f"node {node.name!r} has parallelism 0")
    if (
        node.tunable
        and node.parallelism is not None
        and node.parallelism < -1
    ):
        errors.append(
            f"node {node.name!r} has invalid parallelism {node.parallelism}"
        )


def _check_single_consumer(consumers: Dict[int, list],
                           errors: List[str]) -> None:
    """The graph must be a rooted in-tree: merges fan *in*, never out.

    A node feeding two consumers would need its stream duplicated (or
    split) at execution time, which none of the backends model; zip and
    interleave merge *distinct* subgraphs. ``consumers`` maps each
    child's id to its ``(child, consumer)`` edges.
    """
    for entries in consumers.values():
        if len(entries) > 1:
            child = entries[0][0]
            parents = sorted(parent.name for _, parent in entries)
            errors.append(
                f"node {child.name!r} feeds {len(entries)} consumers "
                f"({parents}); pipelines must be in-trees — merge "
                "distinct subgraphs instead of sharing one"
            )
