"""The HiGHS formulation of the allocation LP: the oracle for the closed form.

:func:`repro.core.lp.solve_allocation` writes the §4.3 optimum down
directly. This module keeps the matrix formulation it replaced, solved
with ``scipy.optimize.linprog`` (HiGHS), so the hypothesis properties
can check the closed form's ``X*`` and bottleneck label against a
general-purpose solver. Tiny objective penalties break degeneracy
towards the fewest cores and streams, but they sit below HiGHS's
tolerance, so the oracle's θ is not always the minimal one; compare
``X*`` and labels, not θ.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.core.lp import LPError, LPSolution, _cached_subtree
from repro.core.rates import PipelineModel


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
        parallelism→bandwidth curve; defaults to the traced host's disk
        spec. Ignored when the pipeline reads no bytes (fully cached).
    """
    host = model.trace.host
    if cores is None:
        cores = float(host.cores)
    if cores <= 0:
        raise LPError(f"core budget must be > 0, got {cores}")

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

    # Variables: [X, θ_0..θ_{k-1}, s_0..s_{m-1}] (s = source streams).
    names = [r.name for r in cpu_nodes]
    k = len(names)
    src_names = [s.name for s in sources] if use_disk else []
    m = len(src_names)
    nvar = 1 + k + m

    if k == 0 and not use_disk:
        # Nothing consumes CPU or disk: the model cannot bound throughput.
        return LPSolution(
            predicted_throughput=math.inf,
            theta={},
            io_streams={},
            bottleneck="none",
            cores=cores,
            status="unbounded",
        )

    c = np.zeros(nvar)
    c[0] = -1.0  # maximize X
    # Tiny penalties break degeneracy: among all X-optimal allocations,
    # prefer the one using the fewest cores and I/O streams (otherwise
    # the solver may park stream variables at their upper bound).
    c[1 : 1 + k] = 1e-9
    c[1 + k :] = 1e-9

    a_ub: List[np.ndarray] = []
    b_ub: List[float] = []
    row_labels: List[str] = []

    # X - θ_i R_i <= 0 for every CPU node.
    for i, rates in enumerate(cpu_nodes):
        row = np.zeros(nvar)
        row[0] = 1.0
        row[1 + i] = -rates.rate_per_core
        a_ub.append(row)
        b_ub.append(0.0)
        row_labels.append(rates.name)

    # Σ θ_i <= cores.
    row = np.zeros(nvar)
    row[1 : 1 + k] = 1.0
    a_ub.append(row)
    b_ub.append(cores)
    row_labels.append("cpu")

    # Disk: X * bpm - slope * s_j <= intercept for each curve segment.
    if use_disk:
        for j in range(m):
            for slope, intercept in disk_segments:
                row = np.zeros(nvar)
                row[0] = bpm
                row[1 + k + j] = -slope
                a_ub.append(row)
                b_ub.append(intercept)
                row_labels.append("disk")

    bounds: List[Tuple[float, Optional[float]]] = [(0.0, None)]
    for rates in cpu_nodes:
        upper = 1.0 if rates.sequential else None
        bounds.append((0.0, upper))
    for _ in range(m):
        bounds.append((0.0, max_io_streams))

    result = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise LPError(f"LP solve failed: {result.message}")

    x = result.x
    predicted = float(x[0])
    theta = {name: float(x[1 + i]) for i, name in enumerate(names)}
    io_streams = {name: float(x[1 + k + j]) for j, name in enumerate(src_names)}

    bottleneck = _binding_constraint(
        predicted, cpu_nodes, cores, use_disk, bpm,
        disk_segments if use_disk else (), src_names, max_io_streams,
    )
    return LPSolution(
        predicted_throughput=predicted,
        theta=theta,
        io_streams=io_streams,
        bottleneck=bottleneck,
        cores=cores,
    )



def _binding_constraint(
    predicted: float,
    cpu_nodes,
    cores: float,
    use_disk: bool,
    bpm: float,
    disk_segments,
    src_names,
    max_io_streams: float,
    tol: float = 1e-4,
) -> str:
    """Identify which structural cap equals the LP optimum.

    For this LP the optimum is exactly
    ``min(cores / Σ(1/R_i),  min_seq R_i,  bw_max / bpm)``; we compute
    each cap and attribute the minimum. When the aggregate-CPU cap
    binds, the reported node is the dominant CPU consumer (largest
    1/R_i share), matching how Plumber surfaces bottlenecks.
    """
    caps: Dict[str, float] = {}
    inv_rate_sum = sum(
        1.0 / r.rate_per_core for r in cpu_nodes if r.rate_per_core > 0
    )
    if inv_rate_sum > 0:
        caps["cpu"] = cores / inv_rate_sum
    for r in cpu_nodes:
        if r.sequential and math.isfinite(r.rate_per_core):
            caps[f"seq:{r.name}"] = r.rate_per_core
    if use_disk and disk_segments:
        bw_max = min(
            (slope * max_io_streams + icept for slope, icept in disk_segments),
            default=math.inf,
        )
        for name in src_names:
            caps[f"disk:{name}"] = bw_max / bpm
    if not caps:
        return "unbounded"
    label = min(caps, key=caps.get)
    if caps[label] > predicted * (1 + 10 * tol):
        # Solver landed strictly below every structural cap (shouldn't
        # happen, but stay honest rather than mislabel).
        return "unbounded"
    if label == "cpu" and cpu_nodes:
        dominant = max(cpu_nodes, key=lambda r: 1.0 / max(r.rate_per_core, 1e-30))
        return dominant.name
    if label.startswith("seq:"):
        return label[len("seq:"):]
    return label
