"""Plumber itself: tracing, operational analysis, the LP, and rewriting."""

from repro.core.bottleneck import (
    BottleneckReport,
    SequentialTuner,
    local_estimate,
    rank_bottlenecks,
    throughput_estimates,
)
from repro.core.cache_planner import CacheDecision, plan_caches
from repro.core.disk_planner import (
    DiskCurve,
    benchmark_source_curve,
    fit_piecewise,
    io_bound_throughput,
)
from repro.core.lp import LPError, LPSolution, solve_allocation
from repro.core.passes import (
    Action,
    InsertCache,
    InsertPrefetch,
    OptimizerPass,
    PassContext,
    RemovePipelineNode,
    SetParallelism,
    available_passes,
    register_pass,
    resolve_pass,
    unregister_pass,
)
from repro.core.plumber import (
    OptimizationResult,
    PickBestResult,
    Plumber,
    optimize,
    optimize_pipeline,
)
from repro.core.spec import DEFAULT_PASSES, OptimizeSpec
from repro.core.prefetch_planner import PrefetchDecision, plan_prefetch
from repro.core.randomness import tainted_nodes
from repro.core.rates import (
    NodeRates,
    PipelineModel,
    SourceSizeEstimate,
    build_model,
    estimate_source_size,
)
from repro.core.report import explain
from repro.core.rewriter import (
    RewriteError,
    insert_cache_after,
    insert_prefetch_after,
    remove_node,
    set_parallelism,
    strip_caches,
)
from repro.core.trace import HostInfo, PipelineTrace

__all__ = [
    "Action",
    "BottleneckReport",
    "CacheDecision",
    "DEFAULT_PASSES",
    "DiskCurve",
    "InsertCache",
    "InsertPrefetch",
    "OptimizeSpec",
    "OptimizerPass",
    "PassContext",
    "RemovePipelineNode",
    "SetParallelism",
    "HostInfo",
    "LPError",
    "LPSolution",
    "NodeRates",
    "OptimizationResult",
    "PickBestResult",
    "PipelineModel",
    "PipelineTrace",
    "Plumber",
    "PrefetchDecision",
    "available_passes",
    "register_pass",
    "resolve_pass",
    "unregister_pass",
    "RewriteError",
    "SequentialTuner",
    "SourceSizeEstimate",
    "benchmark_source_curve",
    "build_model",
    "estimate_source_size",
    "explain",
    "fit_piecewise",
    "insert_cache_after",
    "insert_prefetch_after",
    "io_bound_throughput",
    "local_estimate",
    "optimize",
    "optimize_pipeline",
    "plan_caches",
    "plan_prefetch",
    "rank_bottlenecks",
    "remove_node",
    "set_parallelism",
    "solve_allocation",
    "strip_caches",
    "tainted_nodes",
    "throughput_estimates",
]
