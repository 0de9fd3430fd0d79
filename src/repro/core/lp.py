"""The Plumber linear program (§4.3), solved in closed form.

Maximize ``X = min_i θ_i R_i`` subject to ``Σ θ_i ≤ n_cores``,
``0 ≤ θ_i``, ``θ_i ≤ 1`` for sequential Datasets, plus disk-bandwidth
constraints ``X * bytes_per_minibatch ≤ bw(s_src)`` with
``0 ≤ s_src ≤ max_io_streams``, where ``bw`` is a concave,
non-decreasing piecewise-linear parallelism→bandwidth curve (each
affine segment is one LP row).

The optimum is exact without a solver. Each row family caps ``X``
through one monotone quantity: the core budget forces
``X·Σ 1/R_i ≤ n_cores``, a sequential node forces ``X ≤ R_i``, and
since ``bw`` is concave and non-decreasing it peaks at
``max_io_streams``, so a source forces ``X ≤ bw(max_io_streams) / bpm``.
Hence ``X* = min(n_cores / Σ 1/R_i, min_seq R_i, bw(s_max) / bpm)``,
attained by ``θ_i = X*/R_i`` (the fewest cores) and the smallest stream
count that still carries ``X*·bpm``. Unlike AUTOTUNE's latency model,
the optimum here is bounded by resource usage — the property Figure 7
demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.rates import PipelineModel


class LPError(RuntimeError):
    """Raised for a non-finite or non-positive core budget, or an
    infeasible or unbounded LP."""


@dataclass
class LPSolution:
    """Optimal fractional core allocation and the implied throughput."""

    predicted_throughput: float          # X*, minibatches/second
    theta: Dict[str, float]              # fractional cores per node
    io_streams: Dict[str, float]         # source stream parallelism
    bottleneck: str                      # binding constraint at optimum
    cores: float
    status: str = "optimal"

    def parallelism_plan(self, model: PipelineModel) -> Dict[str, int]:
        """Integer parallelism assignment from the fractional optimum.

        Non-bottleneck tunables get ``ceil(θ_i)`` (at least 1), and
        leftover cores are pushed onto the bottleneck node — the
        behaviour §5.4 describes ("Plumber allocates 95 parallelism to
        the former, leaving only 1 for the remaining MapDataset").
        """
        tunables = {n.name: n for n in model.pipeline.tunables()}
        plan: Dict[str, int] = {}
        for name, th in self.theta.items():
            if name not in tunables:
                continue
            plan[name] = max(1, math.ceil(th - 1e-9))
        for name, streams in self.io_streams.items():
            if name in tunables:
                plan[name] = max(plan.get(name, 1), max(1, math.ceil(streams - 1e-9)))
        if self.bottleneck in plan:
            used = sum(plan.values())
            # Sequential/non-tunable CPU nodes (shuffle, filter, ...) hold
            # cores too (θ ≤ 1 each); ignoring them could grant the
            # bottleneck more cores than the machine has.
            seq_used = sum(
                th for name, th in self.theta.items() if name not in tunables
            )
            leftover = int(math.floor(self.cores - used - seq_used + 1e-9))
            if leftover > 0:
                plan[self.bottleneck] += leftover
        return plan


def solve_allocation(
    model: PipelineModel,
    cores: Optional[float] = None,
    disk_segments: Optional[Sequence[Tuple[float, float]]] = None,
    max_io_streams: float = 256.0,
) -> LPSolution:
    """Solve the CPU+disk allocation LP for ``model``.

    Parameters
    ----------
    cores:
        Core budget (defaults to the traced host's core count).
    disk_segments:
        Affine ``(slope, intercept)`` segments of the source
        parallelism→bandwidth curve, which must be concave and
        non-decreasing; defaults to the traced host's disk spec.
        Ignored when the pipeline reads no bytes (fully cached).
    """
    host = model.trace.host
    if cores is None:
        cores = float(host.cores)
    if not 0 < cores < math.inf:
        raise LPError(f"core budget must be finite and > 0, got {cores}")

    # Steady-state cache semantics (§B): a trace taken during the cache's
    # populate epoch still shows upstream CPU and disk traffic, but after
    # the first epoch the cached subtree is free. Model that directly.
    cached = _cached_subtree(model.pipeline)
    cpu_nodes = [r for r in model.cpu_nodes() if r.name not in cached]
    sources = [
        s for s in model.pipeline.sources()
        if model.trace.stats[s.name].bytes_read > 0 and s.name not in cached
    ]
    bpm = model.bytes_per_minibatch
    use_disk = bool(sources) and bpm > 0 and math.isfinite(bpm)
    if use_disk and disk_segments is None:
        disk_segments = host.disk.segments()

    if not cpu_nodes and not use_disk:
        # Nothing consumes CPU or disk: the model cannot bound throughput.
        return LPSolution(
            predicted_throughput=math.inf,
            theta={},
            io_streams={},
            bottleneck="none",
            cores=cores,
            status="unbounded",
        )

    # One cap per row family; X* is the smallest. Dict order (cpu,
    # sequential nodes, sources) breaks ties.
    caps: Dict[str, float] = {}
    if cpu_nodes:
        caps["cpu"] = cores / sum(1.0 / r.rate_per_core for r in cpu_nodes)
    for r in cpu_nodes:
        if r.sequential:
            caps[f"seq:{r.name}"] = r.rate_per_core
    if use_disk:
        bw_max = min(
            (slope * max_io_streams + icept for slope, icept in disk_segments),
            default=math.inf,
        )
        for s in sources:
            caps[f"disk:{s.name}"] = bw_max / bpm
    label = min(caps, key=caps.get)
    predicted = caps[label]
    if not 0 <= predicted < math.inf:
        raise LPError(f"LP infeasible or unbounded: {label} caps X at {predicted}")

    # Minimal cores: θ_i = X*/R_i; minimal streams: the smallest s with
    # X*·bpm ≤ slope·s + intercept on every rising segment.
    theta = {r.name: predicted / r.rate_per_core for r in cpu_nodes}
    io_streams = {}
    if use_disk:
        need = max(
            ((predicted * bpm - icept) / slope
             for slope, icept in disk_segments if slope > 0),
            default=0.0,
        )
        io_streams = {s.name: min(max(0.0, need), max_io_streams) for s in sources}

    if label == "cpu":
        # Report the dominant CPU consumer (largest 1/R_i share).
        bottleneck = min(cpu_nodes, key=lambda r: r.rate_per_core).name
    elif label.startswith("seq:"):
        bottleneck = label[len("seq:"):]
    else:
        bottleneck = label
    return LPSolution(
        predicted_throughput=predicted,
        theta=theta,
        io_streams=io_streams,
        bottleneck=bottleneck,
        cores=cores,
    )


def _cached_subtree(pipeline) -> set:
    """Names of nodes strictly below any cache node (steady-state free).

    Thin seam over :meth:`Pipeline.below_cache_names` — kept as a module
    function so the cache-semantics ablation can stub it out.
    """
    return pipeline.below_cache_names()

