"""Exhaustive cache placement: the oracle for the greedy cache planner.

:func:`repro.core.cache_planner.plan_caches` takes the cacheable node
closest to the root that fits. The paper sketches, for general
topologies, "Boolean decision variables for each cache candidate over
the LP". This module keeps that extension by enumeration: score every
feasible candidate by the LP throughput of the pipeline with the cache
in place and return the best. The planner tests check the greedy choice
against it.
"""

from __future__ import annotations

import copy
import math
from typing import Optional, Tuple

from repro.core.cache_planner import CacheDecision, subtree_names
from repro.core.lp import solve_allocation
from repro.core.rates import PipelineModel
from repro.host.memory import MemoryBudget


def cached_lp_throughput(model: PipelineModel, cache_target: str) -> float:
    """LP throughput with ``cache_target`` and its subtree cost-free.

    Caching at a node zeroes the steady-state cost of it and everything
    below it: the LP is re-solved with those nodes' rates removed and
    the disk constraint waived.
    """
    below = subtree_names(model, cache_target)
    if all(r.name in below for r in model.cpu_nodes()):
        return math.inf
    filtered = copy.copy(model)
    filtered.rates = {
        name: r for name, r in model.rates.items() if name not in below
    }
    filtered.bytes_per_minibatch = 0.0  # cache removes all I/O
    return solve_allocation(filtered).predicted_throughput


def plan_cache_exhaustive(
    model: PipelineModel,
    memory: Optional[MemoryBudget] = None,
) -> Optional[Tuple[CacheDecision, float]]:
    """The single feasible cache with the highest cached-LP throughput,
    and that throughput (``None`` when no candidate fits). Ties go to
    the candidate closest to the root."""
    if memory is None:
        memory = MemoryBudget(model.trace.host.memory_bytes)
    best: Optional[Tuple[CacheDecision, float]] = None
    for rates in model.cache_candidates():
        if not (math.isfinite(rates.materialized_bytes)
                and memory.fits(rates.materialized_bytes)):
            continue
        predicted = cached_lp_throughput(model, rates.name)
        if best is None or predicted > best[1] + 1e-9:
            best = (CacheDecision(rates.name, rates.materialized_bytes),
                    predicted)
    return best
