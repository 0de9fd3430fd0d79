"""Plumber's user-facing API (§4.1, §4.2, §B).

The paper's workflow, one line for the user:

1. **Trace** the pipeline under a benchmark workload (runtime flag).
2. **Analyze** — resource-accounted rates, dataset sizes, randomness.
3. **Optimize** — a pipeline of :class:`~repro.core.passes.OptimizerPass`
   stages (LP parallelism, prefetch insertion, cache insertion by
   default), run for two iterations "so that the estimated rates more
   closely reflect the final pipeline's performance".
4. **Rewrite** and hand back a pipeline with the same signature.

The whole configuration — passes, iterations, backend, trace window,
granularity, memory — is one :class:`~repro.core.spec.OptimizeSpec`.

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
from repro.core.lp import LPSolution
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
    cache: Optional[CacheDecision]
    decisions: List[str] = field(default_factory=list)
    predicted_throughput: float = math.nan
    #: observed throughput of the *unoptimized* pipeline's first trace
    baseline_throughput: float = math.nan
    #: every cache planned (one per branch on multi-source DAGs);
    #: ``cache`` is the closest-to-root entry, kept for compatibility
    caches: List[CacheDecision] = field(default_factory=list)
    #: one entry per (iteration, registered pass), in execution order —
    #: wallclock spent (plan + apply + re-trace), actions taken, and
    #: predicted vs realized throughput gain; see ``Plumber.optimize``
    pass_telemetry: List[dict] = field(default_factory=list)

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


class Plumber:
    """Tracing + rewriting front-end bound to one machine.

    A ``Plumber`` is re-entrant: it holds only immutable configuration
    (one machine, one :class:`~repro.core.spec.OptimizeSpec`), and every
    :meth:`optimize` call builds its own simulation, model, and (when
    not supplied) :class:`MemoryBudget`, so concurrent optimize calls
    never share mutable state. The batch optimization service
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
    def trace(self, pipeline: Pipeline, **overrides) -> PipelineTrace:
        """Collect a trace of the pipeline through the trace backend.

        ``backend=None`` (or omitted) inherits the instance's backend,
        matching the per-job override convention in the batch service.
        """
        backend = resolve_backend(
            overrides.pop("backend", None) or self.backend
        )
        config = RunConfig(
            duration=overrides.pop("duration", self.spec.trace_duration),
            warmup=overrides.pop("warmup", self.spec.trace_warmup),
            granularity=overrides.pop("granularity", self.spec.granularity),
            event_budget=overrides.pop(
                "event_budget", self.spec.event_budget
            ),
            trace=overrides.pop("trace", True),
            engine=overrides.pop("engine", self.spec.sim_engine),
            **overrides,
        )
        return backend.trace(pipeline, self.machine, config)

    def analyze(self, trace: PipelineTrace) -> PipelineModel:
        """Derive the operational model from a trace."""
        return build_model(trace)

    def model(self, pipeline: Pipeline) -> PipelineModel:
        """Trace + analyze in one call."""
        return self.analyze(self.trace(pipeline))

    def _model_for_spec(self, pipeline: Pipeline,
                        spec: OptimizeSpec) -> PipelineModel:
        """Trace + analyze under an explicit spec (the optimize driver's
        path, so a per-call spec override governs trace acquisition too,
        not just pass selection)."""
        config = RunConfig(
            duration=spec.trace_duration,
            warmup=spec.trace_warmup,
            granularity=spec.granularity,
            event_budget=spec.event_budget,
            trace=True,
            engine=spec.sim_engine,
        )
        backend = resolve_backend(spec.backend)
        return self.analyze(backend.trace(pipeline, self.machine, config))

    # ------------------------------------------------------------------
    def optimize(
        self,
        pipeline: Pipeline,
        passes: Optional[Sequence] = None,
        iterations: Optional[int] = None,
        memory: Optional[MemoryBudget] = None,
        allocate_remaining: Optional[bool] = None,
        spec: Optional[OptimizeSpec] = None,
    ) -> OptimizationResult:
        """Drive the pass pipeline and return the rewritten pipeline.

        Every pass in ``spec.passes`` (a registry name or an
        :class:`~repro.core.passes.OptimizerPass` object) is asked to
        ``plan`` against the current model; planned actions are applied
        through the rewriter and the pipeline is re-traced before the
        next pass runs. The call-level arguments override the
        corresponding spec fields for this call only.
        """
        effective = (spec if spec is not None else self.spec).with_overrides(
            passes=passes,
            iterations=iterations,
            allocate_remaining=allocate_remaining,
        )
        resolved = resolve_passes(effective.passes)
        if memory is None:
            memory = MemoryBudget(
                effective.memory_bytes
                if effective.memory_bytes is not None
                else self.machine.memory_bytes
            )

        current = strip_caches(pipeline)
        decisions: List[str] = []
        model = self._model_for_spec(current, effective)
        ctx = PassContext(
            machine=self.machine,
            memory=memory,
            spec=effective,
            model=model,
        )
        baseline_throughput = model.observed_throughput

        telemetry: List[dict] = []
        clock = self.monotonic
        for iteration in range(effective.iterations):
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
                    ctx.model = self._model_for_spec(current, effective)
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

        model = ctx.model
        predicted = ctx.lp.predicted_throughput if ctx.lp else math.nan
        return OptimizationResult(
            pipeline=current,
            model=model,
            lp=ctx.lp,
            cache=ctx.cache,
            decisions=decisions,
            predicted_throughput=predicted,
            baseline_throughput=baseline_throughput,
            caches=list(ctx.caches),
            pass_telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    def pick_best(
        self,
        variants: Dict[str, Pipeline],
        passes: Optional[Sequence] = None,
        iterations: int = 1,
    ) -> "PickBestResult":
        """Optimize each variant and pick the fastest (Figure 11).

        Steady-state cache effects are simulated (the optimizer's model
        treats cached subtrees as free), so cold-start does not penalize
        the cacheable variant — the property the paper calls out as hard
        for online tuners.

        Ties on observed throughput are broken by variant name
        (lexicographically smallest wins), so the winner is
        deterministic regardless of dict insertion order.
        """
        if not variants:
            raise ValueError("pick_best requires at least one variant")
        results: Dict[str, OptimizationResult] = {}
        scores: Dict[str, float] = {}
        for name, pipe in variants.items():
            res = self.optimize(pipe, passes=passes, iterations=iterations)
            results[name] = res
            scores[name] = res.model.observed_throughput
        best = max(scores.values())
        winner = min(name for name, score in scores.items() if score == best)
        return PickBestResult(winner=winner, results=results, scores=scores)


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
    **kwargs,
) -> OptimizationResult:
    """One-line pipeline optimization (the paper's headline API)."""
    return Plumber(machine, spec=spec).optimize(pipeline, **kwargs)


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
