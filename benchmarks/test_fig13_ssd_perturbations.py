"""Figure 13: MultiBoxSSD one-step deviations from Plumber's choice.

Paper: sampling one-step deviations from Plumber's recommended action
shows local optimality except at bottleneck transitions, where several
nodes are similarly bottlenecked and the ranking is ambiguous;
MultiBoxSSD alternates between bottlenecks every few steps.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import format_table
from repro.baselines.naive import naive_config
from repro.core.bottleneck import rank_bottlenecks
from repro.core.plumber import Plumber
from repro.core.rewriter import set_parallelism
from repro.core.spec import OptimizeSpec
from repro.host import setup_a
from repro.workloads import get_workload

#: simulation-heavy module: excluded from the fast-path CI job
pytestmark = pytest.mark.slow_sim

STEPS = 10
SCALE = 0.25


def run_experiment():
    machine = setup_a()
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=2.0, trace_warmup=0.6))
    current = naive_config(get_workload("ssd").build(scale=SCALE))
    history = []
    for _ in range(STEPS):
        model = plumber.model(current)
        ranked = rank_bottlenecks(model)
        chosen = ranked[0]
        alternatives = [r.name for r in ranked[1:4]]
        outcomes = {}
        for cand in [chosen.name] + alternatives:
            node = current.node(cand)
            trial = set_parallelism(
                current, {cand: node.effective_parallelism + 1}
            )
            outcomes[cand] = plumber.model(trial).observed_throughput
        history.append((chosen.name, outcomes))
        current = set_parallelism(
            current, {chosen.name: current.node(chosen.name).effective_parallelism + 1}
        )
    return history


def test_fig13_local_optimality(once):
    history = once(run_experiment)

    rows = []
    optimal, near_optimal = 0, 0
    for step, (chosen, outcomes) in enumerate(history):
        best = max(outcomes.values())
        chosen_rate = outcomes[chosen]
        if chosen_rate >= best - 1e-9:
            optimal += 1
        if chosen_rate >= 0.97 * best:
            near_optimal += 1
        rows.append(
            (step, chosen, f"{chosen_rate:.1f}", f"{best:.1f}",
             f"{chosen_rate / best:.3f}")
        )
    table = format_table(
        ("step", "Plumber's pick", "picked mb/s", "best deviation mb/s",
         "ratio"),
        rows,
        title="Figure 13 — MultiBoxSSD one-step deviations (Setup A)",
    )
    emit("fig13_ssd_perturbations", table)

    # Local optimality except at transitions: nearly every step is
    # within 3% of the best one-step deviation.
    assert near_optimal >= STEPS - 2, rows
    assert optimal >= STEPS // 2

    # The bottleneck alternates between operators (the "confusion at the
    # steps"): more than one distinct node gets chosen.
    chosen_nodes = {c for c, _ in history}
    assert len(chosen_nodes) >= 2, chosen_nodes
