"""Cache placement (§4.3 "Memory", §4.4 "Materialization Cost").

"Caching aggressively is always desirable... the optimal cache minimizes
total work by placing it as high in the pipeline as possible" subject to
the materialized size fitting in host memory and the stream being
deterministic and finite.

One planner, :func:`plan_caches`: greedy closest-to-root placement. On a
chain it returns the single cacheable node closest to the root whose
materialized size fits (optimal for linear topologies: a higher cache
frees a superset of the work). On a multi-source DAG whose merged stream
is uncacheable, each branch may get its own cache from the shared
memory budget. Its first decision is always the closest-to-root cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.rates import PipelineModel
from repro.host.memory import MemoryBudget


@dataclass(frozen=True)
class CacheDecision:
    """Where to cache and what it costs."""

    target: str               # cache inserted directly above this node
    materialized_bytes: float
    storage: str = "memory"

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"cache after {self.target!r} "
            f"({self.materialized_bytes / 1e9:.1f} GB, {self.storage})"
        )


def plan_caches(
    model: PipelineModel,
    memory: Optional[MemoryBudget] = None,
) -> List[CacheDecision]:
    """Greedy closest-to-root caching, one cache per disjoint subtree.

    Returns ``[]`` when no cacheable node fits (e.g. everything
    downstream of a random augmentation, or the materialized sizes all
    exceed RAM). Candidates are scanned closest-to-root first, and
    accepting one marks its whole subtree as covered, so the scan only
    ever adds caches in *other* branches — randomness taint, infinite
    cardinality, or an over-budget size above a merge still lets each
    branch cache on its own. All decisions draw on the one shared memory
    budget (``None`` = the traced host's memory).
    """
    if memory is None:
        memory = MemoryBudget(model.trace.host.memory_bytes)
    decisions: List[CacheDecision] = []
    covered: set = set()
    reserved = 0.0
    # Reversed-topological candidate order guarantees a node is visited
    # before anything in its subtree, so accepted subtrees are disjoint.
    for rates in model.cache_candidates():
        if rates.name in covered:
            continue
        if not math.isfinite(rates.materialized_bytes):
            continue
        if not memory.fits(reserved + rates.materialized_bytes):
            continue
        decisions.append(
            CacheDecision(
                target=rates.name,
                materialized_bytes=rates.materialized_bytes,
            )
        )
        reserved += rates.materialized_bytes
        covered |= subtree_names(model, rates.name)
    return decisions


def subtree_names(model: PipelineModel, target: str) -> set:
    """``target`` plus every node below it."""
    node = model.pipeline.node(target)
    names = set()
    stack = [node]
    while stack:
        n = stack.pop()
        names.add(n.name)
        stack.extend(n.inputs)
    return names
