"""Experiment drivers shared by the benchmark harnesses.

Each function reproduces one of the paper's evaluation protocols and
returns structured results; the ``benchmarks/`` files render them as the
same rows/series the paper reports and assert the qualitative claims.

Scaling note: end-to-end experiments run on datasets scaled down by
``scale`` with host memory scaled by the same factor, so cache
*placement decisions* (what fits) are preserved while epochs stay
simulable in seconds of virtual time. Rates, core counts, and disk
bandwidths are never scaled.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.autotune import AutotuneTuner
from repro.baselines.heuristic import heuristic_config
from repro.baselines.naive import naive_config
from repro.baselines.random_walk import RandomWalkTuner
from repro.core.bottleneck import SequentialTuner, throughput_estimates
from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.graph.datasets import Pipeline
from repro.host.machine import Machine
from repro.runtime.executor import ModelConsumer, run_pipeline
from repro.workloads.registry import Workload


# ----------------------------------------------------------------------
# §5.1 sequential tuning (Figures 6/7/8/9/13).
# ----------------------------------------------------------------------
@dataclass
class TuningStep:
    """One optimization step's measurements and estimates."""

    step: int
    target: str
    observed: float
    local_estimate: float
    lp_estimate: float
    autotune_estimate: float


@dataclass
class TuningRun:
    """A full sequential-tuning session."""

    label: str
    steps: List[TuningStep] = field(default_factory=list)

    @property
    def observed_series(self) -> List[float]:
        return [s.observed for s in self.steps]

    @property
    def final_observed(self) -> float:
        return self.steps[-1].observed if self.steps else 0.0

    def steps_to_reach(self, target: float) -> Optional[int]:
        """First step whose observed throughput reaches ``target``."""
        for s in self.steps:
            if s.observed >= target:
                return s.step
        return None


def sequential_tuning(
    pipeline: Pipeline,
    machine: Machine,
    steps: int = 20,
    trace_duration: float = 2.0,
    trace_warmup: float = 0.8,
    tuner: str = "plumber",
    seed: int = 0,
) -> TuningRun:
    """Run the §5.1 protocol: start naive, bump one node per step.

    ``tuner`` is ``"plumber"`` (rank by parallelism-scaled rates) or
    ``"random"`` (the uninformed-debugging baseline).
    """
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=trace_duration,
                                        trace_warmup=trace_warmup))
    autotune = AutotuneTuner(machine)
    current = naive_config(pipeline)
    run = TuningRun(label=tuner)
    random_walk = RandomWalkTuner(seed=seed)
    # The paper's protocol keeps stepping well past the core count (its
    # Figure 6 runs 40 steps on a 16-core host); cap generously.
    budget = int(machine.cores * 2.5)

    for step in range(steps):
        model = plumber.model(current)
        report = throughput_estimates(model)
        run.steps.append(
            TuningStep(
                step=step,
                target="",
                observed=model.observed_throughput,
                local_estimate=report.local_estimate,
                lp_estimate=report.lp_estimate,
                autotune_estimate=autotune.predict_throughput(model),
            )
        )
        if tuner == "plumber":
            ranked = report.ranked
            total = sum(n.effective_parallelism for n in current.tunables())
            if ranked and total < budget:
                target = ranked[0]
                run.steps[-1] = dataclasses.replace(
                    run.steps[-1], target=target.name
                )
                from repro.core.rewriter import set_parallelism

                current = set_parallelism(
                    current, {target.name: target.parallelism + 1}
                )
        elif tuner == "random":
            current = random_walk.step(current, core_budget=budget)
            if random_walk.history:
                run.steps[-1] = dataclasses.replace(
                    run.steps[-1], target=random_walk.history[-1]
                )
        else:
            raise ValueError(f"unknown tuner {tuner!r}")
    return run


def baseline_throughput(
    pipeline: Pipeline,
    machine: Machine,
    which: str,
    duration: float = 3.0,
    warmup: float = 1.2,
    io_parallelism: Optional[int] = None,
) -> float:
    """Observed throughput of AUTOTUNE or HEURISTIC on a workload."""
    if which == "heuristic":
        tuned = heuristic_config(naive_config(pipeline), machine)
    elif which == "autotune":
        plumber = Plumber(machine,
                          spec=OptimizeSpec(trace_duration=duration,
                                            trace_warmup=warmup))
        model = plumber.model(naive_config(pipeline))
        tuned = AutotuneTuner(machine, io_parallelism=io_parallelism).tune(
            model
        ).pipeline
    else:
        raise ValueError(f"unknown baseline {which!r}")
    result = run_pipeline(tuned, machine, duration=duration, warmup=warmup)
    return result.throughput


# ----------------------------------------------------------------------
# §5.4 end-to-end (Figures 10/12).
# ----------------------------------------------------------------------
@dataclass
class EndToEndRow:
    """One workload's four configurations."""

    workload: str
    naive: float
    autotune: float
    heuristic: float
    plumber: float

    def relative(self) -> "EndToEndRow":
        """Speedups over naive (Figure 10's presentation)."""
        base = self.naive if self.naive > 0 else 1.0
        return EndToEndRow(
            self.workload,
            1.0,
            self.autotune / base,
            self.heuristic / base,
            self.plumber / base,
        )


#: per-workload dataset scales: text datasets must shrink further so the
#: cache-populate epoch completes within the warmup window.
E2E_SCALES: Dict[str, float] = {
    "transformer": 0.001,
    "transformer_small": 0.0003,
    "gnmt": 0.001,
}


def end_to_end(
    workload: Workload,
    machine: Machine,
    scale: Optional[float] = None,
    duration: float = 8.0,
    warmup: float = 3.0,
    autotune_io_parallelism: Optional[int] = 10,
    granularity: Optional[int] = None,
) -> EndToEndRow:
    """Run one workload under all four configurations (§5.4 protocol).

    The dataset and host memory are scaled together (see module note);
    measurement happens after ``warmup`` so caches reach steady state,
    mirroring multi-epoch training.
    """
    if scale is None:
        scale = E2E_SCALES.get(workload.name, 0.004)
    scaled_machine = machine.with_memory(machine.memory_bytes * scale)
    base = workload.build(scale=scale)
    consumer = ModelConsumer(workload.model_step_seconds)

    def measure(pipe: Pipeline) -> float:
        result = run_pipeline(
            pipe,
            scaled_machine,
            duration=duration,
            warmup=warmup,
            trace=False,
            consumer=consumer,
            granularity=granularity,
        )
        return result.examples_per_second

    naive = measure(naive_config(base, keep_prefetch=False))

    plumber = Plumber(scaled_machine,
                      spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    model = plumber.model(naive_config(base))
    autotune_pipe = AutotuneTuner(
        scaled_machine, io_parallelism=autotune_io_parallelism
    ).tune(model).pipeline
    autotune = measure(autotune_pipe)

    heuristic = measure(heuristic_config(naive_config(base), scaled_machine))

    optimized = plumber.optimize(naive_config(base)).pipeline
    plumber_rate = measure(optimized)

    return EndToEndRow(
        workload=workload.name,
        naive=naive,
        autotune=autotune,
        heuristic=heuristic,
        plumber=plumber_rate,
    )
