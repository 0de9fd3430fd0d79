"""Figure 9: Transformer and GNMT predictions on Setup A.

Paper: NLP operations are so small that iterator overhead dominates,
causing idle bubbles the CPU-time model cannot see — "both pipelines are
predicted to be 2–8x faster than they actually end up being";
Transformer's bottleneck is its sequential FilterDataset, GNMT's is
ShuffleAndRepeatDataset.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.experiments import sequential_tuning
from repro.analysis.tables import format_table
from repro.core.bottleneck import throughput_estimates
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.host import setup_a
from repro.workloads import get_workload

#: simulation-heavy module: excluded from the fast-path CI job
pytestmark = pytest.mark.slow_sim

STEPS = 8
SCALE = 0.02


def run_workload(name):
    machine = setup_a()
    pipe = get_workload(name).build(scale=SCALE)
    run = sequential_tuning(pipe, machine, steps=STEPS, tuner="plumber")
    # Final LP-reported bottleneck via a fresh trace of the tuned state.
    return run


def _render(name, run):
    rows = [
        (s.step, f"{s.observed:.0f}", f"{s.lp_estimate:.0f}",
         f"{s.lp_estimate / max(s.observed, 1e-9):.1f}x")
        for s in run.steps
    ]
    return format_table(
        ("step", "Observed mb/s", "Est. Max (LP)", "gap"),
        rows,
        title=f"Figure 9 — {name} predictions (Setup A)",
    )


@pytest.mark.parametrize("name", ["transformer", "gnmt"])
def test_fig09_prediction_gap(once, name):
    run = once(run_workload, name)
    emit(f"fig09_{name}", _render(name, run))

    # The CPU-only LP overshoots observed throughput by 2-8x throughout
    # (the iterator-overhead "idle bubbles" are invisible to it).
    gaps = [
        s.lp_estimate / s.observed for s in run.steps if s.observed > 0
    ]
    assert max(gaps) >= 2.0, gaps
    assert all(g <= 9.0 for g in gaps), gaps
    # Parallelism barely helps: the final observed rate is within 2x of
    # the naive start (sequential overhead-bound stages cap it).
    assert run.final_observed <= run.steps[0].observed * 2.5


def test_fig09_bottleneck_is_sequential_stage(once):
    """Plumber points at the sequential ops: Transformer's filter and
    GNMT's ShuffleAndRepeat operate far below their CPU-rate bound."""
    machine = setup_a()

    def analyze(name):
        pipe = get_workload(name).build(scale=SCALE)
        plumber = Plumber(machine,
                          spec=OptimizeSpec(trace_duration=1.5,
                                            trace_warmup=0.5))
        return plumber.model(pipe)

    t_model = once(analyze, "transformer")
    g_model = analyze("gnmt")

    # Effective (busy-time) rates of the sequential stages sit far below
    # their CPU-only rates — the signature of overhead-bound ops.
    t_filter = t_model.rates["filter_length"]
    assert t_filter.effective_rate_per_core <= t_filter.rate_per_core / 2
    g_snr = g_model.rates["shuffle_and_repeat"]
    assert g_snr.effective_rate_per_core <= g_snr.rate_per_core / 2
