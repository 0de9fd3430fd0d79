"""Plumber's user-facing API (§4.1, §4.2, §B).

The paper's workflow, one line for the user:

1. **Trace** the pipeline under a benchmark workload (runtime flag).
2. **Analyze** — resource-accounted rates, dataset sizes, randomness.
3. **Optimize** — a pipeline of :class:`~repro.core.passes.OptimizerPass`
   stages (LP parallelism, prefetch insertion, cache insertion by
   default), run for two iterations "so that the estimated rates more
   closely reflect the final pipeline's performance". Every pass plans
   against the closed-form analytic model of the current rewritten
   pipeline; the spec's trace backend runs only twice, on the input and
   on the final program, and *certifies* the result: a program it
   measures slower than the input is reverted (§4: the model, not
   repeated measurement, picks the rewrite).
4. **Rewrite** and hand back a pipeline with the same signature.

The whole configuration — passes, iterations, backend, trace window,
granularity, memory — is one :class:`~repro.core.spec.OptimizeSpec`,
fixed when the :class:`Plumber` is built: no call takes a knob of its
own, so the spec alone determines every run. For other settings, build
``Plumber(machine, spec=spec.replace(...))``.

Entry points: :class:`Plumber` for step-by-step control,
:func:`optimize_pipeline` for the one-liner, and :func:`optimize` — the
``@optimize`` annotation with ``pick_best`` multi-pipeline queries
(Figure 11).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.cache_planner import CacheDecision
from repro.core.lp import LPError, LPSolution, solve_allocation
from repro.core.passes import PassContext, resolve_passes
from repro.core.rates import PipelineModel, build_model
from repro.core.rewriter import strip_caches
from repro.core.spec import OptimizeSpec
from repro.core.trace import PipelineTrace
from repro.graph.datasets import Pipeline
from repro.host.machine import Machine
from repro.host.memory import MemoryBudget
from repro.obs import global_registry
from repro.runtime.backends import resolve_backend
from repro.runtime.executor import RunConfig


@dataclass
class OptimizationResult:
    """The rewritten pipeline plus the decision log."""

    pipeline: Pipeline
    model: PipelineModel
    lp: Optional[LPSolution]
    decisions: List[str] = field(default_factory=list)
    predicted_throughput: float = math.nan
    #: the spec backend's throughput of the *unoptimized* input
    baseline_throughput: float = math.nan
    #: every cache planned, closest-to-root first (one per branch on
    #: multi-source DAGs)
    caches: List[CacheDecision] = field(default_factory=list)
    #: one entry per (iteration, registered pass), in execution order —
    #: wallclock spent (plan + apply + re-trace), actions taken, and
    #: predicted vs realized throughput gain. The throughputs are the
    #: planner's (analytic) view; see ``Plumber.optimize``
    pass_telemetry: List[dict] = field(default_factory=list)
    #: how the spec backend judged the planned program: ``planner`` and
    #: ``certifier`` backend names, the ``baseline``, ``planned`` and
    #: ``certified`` throughputs, the ``verdict`` (``"accepted"``,
    #: ``"reverted"`` or ``"same-backend"``), and ``bottleneck_agrees``
    #: (planner and certifier LPs blame the same node; None when an LP
    #: failed)
    certification: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Observed optimized / baseline throughput (nan if unknown)."""
        if not self.baseline_throughput > 0:
            return math.nan
        return self.model.observed_throughput / self.baseline_throughput

    @property
    def bottleneck(self) -> str:
        """The LP's binding constraint, or ``"none"`` without an LP pass."""
        return self.lp.bottleneck if self.lp is not None else "none"


def _run_config(spec: OptimizeSpec) -> RunConfig:
    """The traced run a spec describes."""
    return RunConfig(
        duration=spec.trace_duration,
        warmup=spec.trace_warmup,
        granularity=spec.granularity,
        event_budget=spec.event_budget,
        trace=True,
    )


class Plumber:
    """Tracing + rewriting front-end bound to one machine.

    A ``Plumber`` is re-entrant: it holds only immutable configuration
    (one machine, one :class:`~repro.core.spec.OptimizeSpec`), and every
    :meth:`optimize` call builds its own simulation, model, and
    :class:`MemoryBudget`, so concurrent optimize calls never share
    mutable state. The batch optimization service
    (:mod:`repro.service`) runs optimize calls concurrently from worker
    pools (one short-lived ``Plumber`` per job payload).

    Parameters
    ----------
    machine:
        The (simulated) host to trace and optimize for.
    spec:
        The full optimizer configuration (``None`` = the defaults):
        passes, iterations, trace backend, trace window, granularity or
        event budget, and memory ceiling. For example
        ``Plumber(machine, spec=OptimizeSpec(backend="analytic"))``
        traces with the closed-form backend.
    monotonic:
        Clock for pass-telemetry wallclock (injectable in tests).
    """

    def __init__(
        self,
        machine: Machine,
        spec: Optional[OptimizeSpec] = None,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.machine = machine
        self.monotonic = monotonic
        self.spec = spec if spec is not None else OptimizeSpec()
        self.backend = resolve_backend(self.spec.backend)

    # ------------------------------------------------------------------
    def trace(self, pipeline: Pipeline) -> PipelineTrace:
        """Collect a trace of the pipeline with the spec's backend and
        trace window."""
        return self.backend.trace(
            pipeline, self.machine, _run_config(self.spec)
        )

    def analyze(self, trace: PipelineTrace) -> PipelineModel:
        """Derive the operational model from a trace."""
        return build_model(trace)

    def model(self, pipeline: Pipeline) -> PipelineModel:
        """Trace + analyze in one call."""
        return self.analyze(self.trace(pipeline))

    def _traced_model(self, backend, pipeline: Pipeline,
                      config: RunConfig) -> PipelineModel:
        """Trace + analyze with an explicit backend (the optimize
        driver plans with the analytic one)."""
        return self.analyze(backend.trace(pipeline, self.machine, config))

    # ------------------------------------------------------------------
    def optimize(self, pipeline: Pipeline) -> OptimizationResult:
        """Drive the pass pipeline and return the rewritten pipeline.

        Every pass in ``spec.passes`` (a registry name or an
        :class:`~repro.core.passes.OptimizerPass` object) is asked to
        ``plan`` against the current model; planned actions are applied
        through the rewriter and the pipeline is re-traced before the
        next pass runs, for ``spec.iterations`` rounds. Caches draw on a
        fresh :class:`MemoryBudget` of ``spec.memory_bytes`` (default:
        the machine's memory).

        The planning traces come from the ``"analytic"`` backend, under
        the spec's trace window and granularity, so the plans are those
        of ``spec.replace(backend="analytic")``. The spec's backend
        traces only the input (``baseline_throughput``) and the final
        program (``model``); when no pass acted they are one trace. If
        it measures the final program slower than the input, the input
        is returned instead and a ``certify: reverted`` decision logged.
        With the analytic backend as the spec's backend, the last
        planning trace is the certifying one and nothing is reverted.
        If the analytic trace of the input is degenerate (non-finite or
        zero throughput), the spec's backend plans as well.
        """
        spec = self.spec
        resolved = resolve_passes(spec.passes)
        memory = MemoryBudget(spec.memory_bytes or self.machine.memory_bytes)
        config = _run_config(spec)

        original = strip_caches(pipeline)
        certifier = resolve_backend(spec.backend)
        baseline = self._traced_model(certifier, original, config)
        planner = resolve_backend("analytic")
        same_backend = planner is certifier
        model = baseline
        if not same_backend:
            model = self._traced_model(planner, original, config)
            throughput = model.observed_throughput
            if not (math.isfinite(throughput) and throughput > 0):
                planner, model = certifier, baseline

        current = original
        decisions: List[str] = []
        ctx = PassContext(
            machine=self.machine,
            memory=memory,
            spec=spec,
            model=model,
        )

        telemetry: List[dict] = []
        clock = self.monotonic
        for iteration in range(spec.iterations):
            ctx.iteration = iteration
            for opt_pass in resolved:
                pass_name = getattr(
                    opt_pass, "name", type(opt_pass).__name__
                )
                before = ctx.model.observed_throughput
                lp_before = ctx.lp
                start = clock()
                actions = opt_pass.plan(ctx)
                if actions:
                    for action in actions:
                        current = action.apply(current)
                        decisions.append(action.description)
                    # The rewrite changed the pipeline; re-trace so the
                    # next pass plans against up-to-date rates. (Tracing
                    # is deterministic, so skipping the re-trace when
                    # nothing changed is observably identical and much
                    # cheaper.) The re-trace wallclock is charged to the
                    # acting pass: its plan forced the measurement.
                    ctx.model = self._traced_model(planner, current, config)
                seconds = clock() - start
                after = ctx.model.observed_throughput
                # A pass "predicted" only if its plan produced a fresh
                # LP solution; carrying an older pass's prediction
                # forward would misattribute the forecast.
                predicted = (
                    ctx.lp.predicted_throughput
                    if ctx.lp is not None and ctx.lp is not lp_before
                    else math.nan
                )
                telemetry.append({
                    "pass": pass_name,
                    "iteration": iteration,
                    "seconds": seconds,
                    "actions": len(actions),
                    "throughput_before": before,
                    "throughput_after": after,
                    "realized_gain": (
                        after / before - 1.0 if before > 0 else math.nan
                    ),
                    "predicted_throughput": predicted,
                    "predicted_gain": (
                        predicted / before - 1.0
                        if before > 0 and not math.isnan(predicted)
                        else math.nan
                    ),
                })
                registry = global_registry()
                registry.histogram(
                    "repro_pass_seconds",
                    "Optimizer pass wallclock (plan + apply + re-trace)",
                ).labels(**{"pass": pass_name}).observe(seconds)
                registry.counter(
                    "repro_pass_actions_total",
                    "Rewrite actions emitted, by optimizer pass",
                ).labels(**{"pass": pass_name}).inc(len(actions))

        planned = ctx.model
        if planner is certifier:
            certified = planned
        elif current is original:
            certified = baseline
        else:
            certified = self._traced_model(certifier, current, config)
        certification = {
            "planner": planner.name,
            "certifier": certifier.name,
            "baseline": baseline.observed_throughput,
            "planned": planned.observed_throughput,
            "certified": certified.observed_throughput,
            "verdict": "accepted",
            "bottleneck_agrees": (
                planned is certified
                or _bottlenecks_agree(planned, certified)
            ),
        }
        if same_backend:
            certification["verdict"] = "same-backend"
        elif certified.observed_throughput < baseline.observed_throughput:
            # Certification never makes a job slower: keep the input.
            certification["verdict"] = "reverted"
            decisions.append(
                f"certify: reverted ({certifier.name} measured "
                f"{certified.observed_throughput:.2f} < baseline "
                f"{baseline.observed_throughput:.2f}; {planner.name} "
                f"planned {planned.observed_throughput:.2f})"
            )
            current, certified = original, baseline
            ctx.caches = []
        return OptimizationResult(
            pipeline=current,
            model=certified,
            lp=ctx.lp,
            decisions=decisions,
            predicted_throughput=(
                ctx.lp.predicted_throughput if ctx.lp else math.nan
            ),
            baseline_throughput=baseline.observed_throughput,
            caches=ctx.caches,
            pass_telemetry=telemetry,
            certification=certification,
        )

    # ------------------------------------------------------------------
    def pick_best(self, variants: Dict[str, Pipeline]) -> "PickBestResult":
        """Optimize each variant and pick the fastest (Figure 11).

        Each variant is optimized exactly as :meth:`optimize` would, and
        scored by its certified throughput (``model.observed_throughput``
        of the certifying trace). That trace covers the trace window from
        a cold start, so a cached variant's score includes its cache's
        populate epoch: a cacheable variant wins only if it is faster
        within the window, not on steady-state serving alone.

        Ties on observed throughput are broken by variant name
        (lexicographically smallest wins), so the winner is
        deterministic regardless of dict insertion order.
        """
        if not variants:
            raise ValueError("pick_best requires at least one variant")
        results: Dict[str, OptimizationResult] = {}
        scores: Dict[str, float] = {}
        for name, pipe in variants.items():
            res = self.optimize(pipe)
            results[name] = res
            scores[name] = res.model.observed_throughput
        best = max(scores.values())
        winner = min(name for name, score in scores.items() if score == best)
        return PickBestResult(winner=winner, results=results, scores=scores)


def _bottlenecks_agree(a: PipelineModel,
                       b: PipelineModel) -> Optional[bool]:
    """Whether the LP blames the same node under both models (None when
    either LP fails)."""
    try:
        return solve_allocation(a).bottleneck == solve_allocation(b).bottleneck
    except LPError:
        return None


@dataclass
class PickBestResult:
    """Outcome of a multi-pipeline ``pick_best`` query."""

    winner: str
    results: Dict[str, OptimizationResult]
    scores: Dict[str, float]

    @property
    def pipeline(self) -> Pipeline:
        """The winning optimized pipeline."""
        return self.results[self.winner].pipeline


def optimize_pipeline(
    pipeline: Pipeline,
    machine: Machine,
    spec: Optional[OptimizeSpec] = None,
) -> OptimizationResult:
    """One-line pipeline optimization (the paper's headline API)."""
    return Plumber(machine, spec=spec).optimize(pipeline)


def optimize(
    machine: Machine,
    pick_best: Optional[Dict[str, Sequence]] = None,
    spec: Optional[OptimizeSpec] = None,
):
    """The ``@optimize`` annotation (Figure 11).

    Decorates a loader function returning a :class:`Pipeline`. With
    ``pick_best={"param": [values...]}``, the loader is invoked once per
    value, each variant is traced and optimized under ``spec``, and the
    fastest optimized pipeline is returned.

    Example
    -------
    >>> @optimize(machine, pick_best={"cache": [True, False]})
    ... def loader_fn(data_dir, cache):
    ...     ...
    """

    def decorator(loader: Callable[..., Pipeline]):
        @functools.wraps(loader)
        def wrapped(*args, **kwargs) -> Pipeline:
            plumber = Plumber(machine, spec=spec)
            if not pick_best:
                return plumber.optimize(loader(*args, **kwargs)).pipeline
            if len(pick_best) != 1:
                raise ValueError("pick_best supports exactly one parameter")
            (param, values), = pick_best.items()
            variants = {
                f"{param}={v}": loader(*args, **{**kwargs, param: v})
                for v in values
            }
            return plumber.pick_best(variants).pipeline

        return wrapped

    return decorator
