"""Ablations of Plumber's design choices (DESIGN.md §5 notes).

Not a paper figure — these isolate the mechanisms the paper's results
rest on: (a) each optimizer pass's marginal contribution, (b) the
steady-state cache semantics in the LP, (c) I/O-accounted ranking vs
CPU-only ranking, (d) the second optimizer iteration.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.baselines.naive import naive_config
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.host import setup_c
from repro.runtime.executor import ModelConsumer, run_pipeline
from repro.workloads import get_workload

#: simulation-heavy module: excluded from the fast-path CI job
pytestmark = pytest.mark.slow_sim

SCALE = 0.004


def run_pass_ablation():
    wl = get_workload("resnet18", end_to_end=True)
    machine = setup_c().with_memory(setup_c().memory_bytes * SCALE)
    base = naive_config(wl.build(scale=SCALE))
    consumer = ModelConsumer(wl.model_step_seconds)

    def measure(pipe):
        return run_pipeline(
            pipe, machine, duration=8.0, warmup=3.0, trace=False,
            consumer=consumer,
        ).examples_per_second

    spec = OptimizeSpec(trace_duration=1.5, trace_warmup=0.4)
    results = {"naive": measure(base)}
    for passes in (
        ("parallelism",),
        ("parallelism", "prefetch"),
        ("parallelism", "prefetch", "cache"),
    ):
        plumber = Plumber(machine, spec=spec.replace(passes=passes))
        tuned = plumber.optimize(base).pipeline
        results["+".join(p[:5] for p in passes)] = measure(tuned)

    # One iteration vs two (the paper defaults to 2 "so that estimated
    # rates more closely reflect the final pipeline").
    plumber = Plumber(machine, spec=spec.replace(iterations=1))
    results["full@1iter"] = measure(plumber.optimize(base).pipeline)
    return results


def test_ablation_optimizer_passes(once):
    results = once(run_pass_ablation)
    rows = [(k, f"{v:.0f}") for k, v in results.items()]
    emit(
        "ablation_passes",
        format_table(("configuration", "images/s"), rows,
                     title="Ablation — ResNet18 end-to-end by optimizer pass"),
    )
    # Each pass contributes; caching delivers the final jump past the
    # cloud-storage bound.
    assert results["paral"] > 5 * results["naive"]
    assert results["paral+prefe+cache"] >= 1.1 * results["paral"]
    # The second iteration matters: with one iteration the parallelism
    # plan predates the cache (the LP still saw the disk bound), so the
    # two-iteration default strictly improves on it — exactly why the
    # paper re-runs its passes.
    assert results["paral+prefe+cache"] >= 1.1 * results["full@1iter"]


def test_ablation_steady_state_cache_lp(once):
    """Without steady-state cache semantics the LP keeps the (already
    cached-away) disk constraint and under-allocates decode."""
    from repro.core.lp import _cached_subtree, solve_allocation
    from repro.core.rewriter import insert_cache_after

    wl = get_workload("resnet18", end_to_end=True)
    machine = setup_c().with_memory(setup_c().memory_bytes * SCALE)
    pipe = insert_cache_after(
        naive_config(wl.build(scale=SCALE)), "map_parse"
    )
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    model = once(plumber.model, pipe)

    with_semantics = solve_allocation(model)
    # Ablate: pretend nothing is cached by keeping the disk rows.
    import repro.core.lp as lp_mod

    original = lp_mod._cached_subtree
    lp_mod._cached_subtree = lambda pipeline: set()
    try:
        without = solve_allocation(model)
    finally:
        lp_mod._cached_subtree = original

    emit(
        "ablation_cache_lp",
        format_table(
            ("LP variant", "predicted minibatches/s"),
            [
                ("steady-state cache semantics", f"{with_semantics.predicted_throughput:.1f}"),
                ("populate-epoch view (ablated)", f"{without.predicted_throughput:.1f}"),
            ],
            title="Ablation — LP with/without steady-state cache modelling",
        ),
    )
    # The ablated LP is pinned at the disk bound; the real one sees past
    # it to the CPU optimum.
    assert with_semantics.predicted_throughput > 1.3 * without.predicted_throughput
