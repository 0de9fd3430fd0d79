"""Resource provisioning for a target throughput (§4.1 "Extensions").

The paper lists as future work "extending Plumber to perform optimal
resource provisioning for matching a target throughput (e.g., to
minimize cost)". This module implements that inverse problem on top of
the same resource-accounted rates: given a traced model and a target
rate, compute the minimal core count, storage bandwidth (and hence read
parallelism), and cache memory required — the LP read backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.cache_planner import plan_caches, subtree_names
from repro.core.rates import PipelineModel
from repro.host.memory import MemoryBudget


class ProvisioningError(ValueError):
    """Raised when no feasible provisioning exists for the target."""


@dataclass(frozen=True)
class ProvisioningPlan:
    """Minimal resources to sustain ``target_throughput``."""

    target_throughput: float       # minibatches / second
    cores: float                   # fractional cores required
    disk_bandwidth: float          # bytes/second required
    io_streams: float              # read parallelism to reach it
    cache_bytes: float             # memory if the cache is taken
    cache_target: Optional[str]    # where the cache would go
    feasible_sequential: bool      # no sequential stage caps below target

    @property
    def cores_rounded(self) -> int:
        """Whole cores to provision."""
        return int(math.ceil(self.cores - 1e-9))


def provision_for_throughput(
    model: PipelineModel,
    target_throughput: float,
    use_cache: bool = False,
) -> ProvisioningPlan:
    """Invert the LP: resources needed for ``target_throughput``.

    Parameters
    ----------
    use_cache:
        If True, assume the closest-to-root cache is taken (its subtree
        costs vanish in steady state) and report the memory bill
        alongside the reduced CPU/disk requirements.
    """
    if target_throughput <= 0:
        raise ProvisioningError(
            f"target throughput must be > 0, got {target_throughput}"
        )

    caches = plan_caches(
        model, MemoryBudget(float("1e30"), headroom_fraction=0.0)
    ) if use_cache else []
    cache = caches[0] if caches else None
    free = subtree_names(model, cache.target) if cache is not None else set()

    # Cores: X * Σ 1/R_i over paying nodes (θ_i = X / R_i each).
    cores = 0.0
    feasible_sequential = True
    for rates in model.cpu_nodes():
        if rates.name in free:
            continue
        theta = target_throughput / rates.rate_per_core
        if rates.sequential and theta > 1.0 + 1e-9:
            feasible_sequential = False
        cores += theta

    # Disk: X * bytes-per-minibatch, unless a cache removes all reads.
    if cache is not None:
        bandwidth = 0.0
        streams = 0.0
    else:
        bandwidth = target_throughput * model.bytes_per_minibatch
        if not math.isfinite(bandwidth):
            bandwidth = 0.0
        disk = model.trace.host.disk
        if bandwidth > disk.max_bandwidth + 1e-6:
            raise ProvisioningError(
                f"target needs {bandwidth / 1e6:.0f} MB/s but the storage "
                f"tops out at {disk.max_bandwidth / 1e6:.0f} MB/s"
            )
        streams = _streams_for_bandwidth(disk, bandwidth)

    return ProvisioningPlan(
        target_throughput=target_throughput,
        cores=cores,
        disk_bandwidth=bandwidth,
        io_streams=streams,
        cache_bytes=cache.materialized_bytes if cache else 0.0,
        cache_target=cache.target if cache else None,
        feasible_sequential=feasible_sequential,
    )


def _streams_for_bandwidth(disk, bandwidth: float) -> float:
    """Smallest stream count whose curve bandwidth covers ``bandwidth``."""
    if bandwidth <= 0:
        return 0.0
    lo, hi = 0.0, float(disk.curve[-1][0])
    if disk.bandwidth(hi) < bandwidth:
        return hi
    for _ in range(60):  # bisection to sub-stream precision
        mid = (lo + hi) / 2
        if disk.bandwidth(mid) >= bandwidth:
            hi = mid
        else:
            lo = mid
    return hi
