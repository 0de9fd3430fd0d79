"""Figure 7: throughput predictions during ResNet tuning.

Paper: before optimization begins the LP bounds performance within ~2x
and the gap tightens over time (Obs. 4); the "local" estimate oscillates
because it cannot see past one bottleneck; AUTOTUNE's estimate is not
bounded by resource usage.
"""

import math

import pytest

from benchmarks.conftest import emit
from repro.analysis.experiments import sequential_tuning
from repro.analysis.tables import format_table
from repro.core.spec import OptimizeSpec
from repro.host import setup_a, setup_b
from repro.workloads import get_workload

STEPS = 20
SCALE = 0.05


def run_setup(machine):
    pipe = get_workload("resnet").build(scale=SCALE)
    return sequential_tuning(pipe, machine, steps=STEPS, tuner="plumber")


def _render(label, run):
    rows = [
        (s.step, f"{s.observed:.1f}", f"{s.local_estimate:.1f}",
         f"{s.lp_estimate:.1f}", f"{s.autotune_estimate:.1f}")
        for s in run.steps
    ]
    return format_table(
        ("step", "Observed", "Est. Max (Local)", "Est. Max (LP)",
         "Est. AUTOTUNE"),
        rows,
        title=f"Figure 7 — ResNet prediction series ({label})",
    )


@pytest.mark.parametrize("label,machine_factory,final_bound", [
    ("setup_a", setup_a, 2.5), ("setup_b", setup_b, 4.0),
])
def test_fig07_lp_bounds(once, label, machine_factory, final_bound):
    run = once(run_setup, machine_factory())
    emit(f"fig07_{label}", _render(label, run))

    first, last = run.steps[0], run.steps[-1]
    # The LP never predicts below the observation.
    for s in run.steps:
        assert s.lp_estimate >= s.observed * 0.9, s
    assert first.lp_estimate <= first.observed * 100  # finite, meaningful
    # Obs. 4 / §1(3): LP predictions are bounded by resource usage —
    # within ~2x for Setup A, within the paper's global 4x for B (which
    # "takes longer to converge").
    assert last.lp_estimate <= last.observed * final_bound
    # The gap tightens as optimization proceeds (Obs. 4).
    first_gap = first.lp_estimate / first.observed
    last_gap = last.lp_estimate / last.observed
    assert last_gap < first_gap
    # The local estimate is capped by the *next* bottleneck, so early in
    # tuning it sits below the LP's global optimum.
    assert first.local_estimate <= first.lp_estimate * 1.05


def test_fig07_autotune_unbounded(once):
    """AUTOTUNE's model ignores saturation: with enough parallelism its
    predicted rate exceeds any resource bound."""
    from repro.baselines.autotune import AutotuneTuner
    from repro.core.plumber import Plumber

    machine = setup_a()
    pipe = get_workload("resnet").build(scale=SCALE)
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.2, trace_warmup=0.3))
    model = once(plumber.model, pipe)
    tuner = AutotuneTuner(machine)
    inflated = tuner.predict_throughput(
        model, {r.name: 100_000 for r in model.cpu_nodes()}
    )
    # 16 cores x 2.5 mb/s/core decode -> hard bound ~40 mb/s; the
    # AUTOTUNE model happily predicts orders of magnitude beyond it.
    assert inflated > 40.0 * 100
