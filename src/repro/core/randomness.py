"""Random-UDF detection for cache correctness (§B.1).

A function ``f`` is random if it accesses a random seed ``s`` directly
(``f → s``) or transitively through any function it calls
(``f →+ s``). If ``f →+ s`` holds, neither ``f``'s output nor anything
downstream of it may be cached: a randomized stream has effectively
infinite cardinality.
"""

from __future__ import annotations

from typing import Set

from repro.graph.datasets import DatasetNode, Pipeline
from repro.graph.udf import UserFunction


def udf_is_random(udf: UserFunction) -> bool:
    """Transitive closure ``f →+ s`` over the UDF call graph."""
    seen: Set[int] = set()
    stack = [udf]
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        if fn.accesses_seed:
            return True
        stack.extend(fn.calls)
    return False


def node_is_random(node: DatasetNode) -> bool:
    """Whether a node applies a (transitively) random UDF.

    Shuffle nodes sample a seed but reorder rather than transform
    elements, so the *set* of elements is cacheable below them; they are
    therefore not treated as randomizing for cache purposes (matching
    tf.data, where ``cache()`` below ``shuffle()`` is the recommended
    pattern).
    """
    udf = node.udf
    return udf is not None and udf_is_random(udf)


def tainted_nodes(pipeline: Pipeline) -> Set[str]:
    """Names of nodes at-or-above a random UDF (uncacheable outputs).

    "If f →+ s is true, then we cannot cache f or any operations
    following it" (§B.1).
    """
    tainted: Set[str] = set()
    # Sources first, so every branch of a merge is decided before it.
    for node in pipeline.topological_order():
        if node_is_random(node) or any(
            c.name in tainted for c in node.inputs
        ):
            tainted.add(node.name)
    return tainted
