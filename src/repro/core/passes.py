"""First-class optimizer passes and their registry.

The paper describes the optimizer as "three logical passes run for two
iterations"; here each logical pass is an :class:`OptimizerPass` — an
object with a ``name`` and a ``plan(ctx)`` method that inspects the
current :class:`~repro.core.rates.PipelineModel` and returns a list of
:class:`Action` rewrites. The driver (:meth:`repro.core.plumber.Plumber.
optimize`) applies the actions through :mod:`repro.core.rewriter` and
re-traces the rewritten pipeline with the analytic backend, so a pass
never mutates a pipeline itself — it only *plans*, always against the
closed-form model. The spec's trace backend certifies the final program
once the passes are done.

Passes are looked up by name through a module-level registry, so a
spec's ``passes`` can name the built-ins and user-shipped passes alike:

>>> class DropShuffle:
...     name = "drop_shuffle"
...     def plan(self, ctx):
...         return [RemovePipelineNode(target="shuffle",
...                                    description="drop shuffle")]
>>> register_pass(DropShuffle())
>>> spec = OptimizeSpec(passes=("parallelism", "drop_shuffle"))
>>> Plumber(machine, spec=spec).optimize(pipe)

Built-in passes: ``parallelism`` (the LP), ``prefetch`` (idleness-
proportional buffer injection), ``cache`` (greedy closest-to-root
placement, :func:`~repro.core.cache_planner.plan_caches`), and ``fuse``
(collapse stacks of adjacent prefetch buffers into the deepest one —
pure overhead removal, the kind of structural cleanup the Action
vocabulary makes possible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.cache_planner import CacheDecision, plan_caches
from repro.core.lp import LPSolution, solve_allocation
from repro.core.prefetch_planner import plan_prefetch
from repro.core.rates import PipelineModel
from repro.core.rewriter import (
    insert_cache_after,
    insert_prefetch_after,
    remove_node,
    set_parallelism,
)
from repro.core.spec import DEFAULT_PASSES, OptimizeSpec
from repro.graph.datasets import Pipeline, PrefetchNode
from repro.host.machine import Machine
from repro.host.memory import MemoryBudget

__all__ = [
    "Action",
    "DEFAULT_PASSES",
    "InsertCache",
    "InsertPrefetch",
    "OptimizerPass",
    "PassContext",
    "RemovePipelineNode",
    "SetParallelism",
    "available_passes",
    "register_pass",
    "resolve_pass",
    "resolve_passes",
    "unregister_pass",
]


# ----------------------------------------------------------------------
# Actions — the rewrite vocabulary passes plan in.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Action:
    """One planned rewrite; subclasses apply themselves via the rewriter.

    ``description`` is the human-readable decision-log line the driver
    records when the action is applied.
    """

    description: str

    def apply(self, pipeline: Pipeline) -> Pipeline:
        raise NotImplementedError


@dataclass(frozen=True)
class SetParallelism(Action):
    """Override per-node parallelism (mechanism 2 of §B)."""

    plan: Mapping[str, int] = field(default_factory=dict)

    def apply(self, pipeline: Pipeline) -> Pipeline:
        return set_parallelism(pipeline, dict(self.plan))


@dataclass(frozen=True)
class InsertPrefetch(Action):
    """Insert a prefetch buffer above ``target`` (mechanism 3 of §B)."""

    target: str = ""
    buffer_size: int = 2
    name: Optional[str] = None

    def apply(self, pipeline: Pipeline) -> Pipeline:
        return insert_prefetch_after(
            pipeline, self.target, self.buffer_size, name=self.name
        )


@dataclass(frozen=True)
class InsertCache(Action):
    """Insert a cache above ``target`` (mechanism 3 of §B)."""

    target: str = ""
    name: Optional[str] = None
    storage: str = "memory"

    def apply(self, pipeline: Pipeline) -> Pipeline:
        return insert_cache_after(
            pipeline, self.target, name=self.name, storage=self.storage
        )


@dataclass(frozen=True)
class RemovePipelineNode(Action):
    """Splice a single-input node out of the pipeline."""

    target: str = ""

    def apply(self, pipeline: Pipeline) -> Pipeline:
        return remove_node(pipeline, self.target)


# ----------------------------------------------------------------------
# The pass protocol and its planning context.
# ----------------------------------------------------------------------
@dataclass
class PassContext:
    """Everything a pass may read (and the driver state it may update).

    ``model`` always reflects the *current* pipeline — the driver
    refreshes it (an analytic trace) after every pass that applied
    actions. ``lp`` and ``caches`` are cross-pass state slots: the
    parallelism pass records its latest LP solution, the cache pass its
    cache decisions (closest-to-root first; one per branch on
    multi-source DAGs), and the final
    :class:`~repro.core.plumber.OptimizationResult` reports both.
    """

    machine: Machine
    memory: MemoryBudget
    spec: OptimizeSpec
    model: Optional[PipelineModel] = None
    iteration: int = 0
    lp: Optional[LPSolution] = None
    caches: List[CacheDecision] = field(default_factory=list)

    @property
    def pipeline(self) -> Pipeline:
        """The current (already rewritten) pipeline."""
        return self.model.pipeline


@runtime_checkable
class OptimizerPass(Protocol):
    """Anything that can plan rewrites against a traced model."""

    name: str

    def plan(self, ctx: PassContext) -> List[Action]:
        """Return the rewrites to apply this iteration (possibly [])."""
        ...  # pragma: no cover - protocol body


# ----------------------------------------------------------------------
# Built-in passes.
# ----------------------------------------------------------------------
class ParallelismPass:
    """LP core allocation (§4.3), rounded to an integer plan."""

    name = "parallelism"

    def plan(self, ctx: PassContext) -> List[Action]:
        lp = solve_allocation(ctx.model)
        ctx.lp = lp
        plan = lp.parallelism_plan(ctx.model)
        if not plan:
            return []
        return [
            SetParallelism(
                plan=plan,
                description=(
                    f"iter{ctx.iteration}: parallelism {plan} "
                    f"(LP X*={lp.predicted_throughput:.2f})"
                ),
            )
        ]


class PrefetchPass:
    """Idleness-proportional prefetch injection (§4.1)."""

    name = "prefetch"

    def plan(self, ctx: PassContext) -> List[Action]:
        return [
            InsertPrefetch(
                target=decision.target,
                buffer_size=decision.buffer_size,
                name=f"prefetch_{decision.target}_i{ctx.iteration}",
                description=(
                    f"iter{ctx.iteration}: "
                    f"prefetch[{decision.buffer_size}] "
                    f"after {decision.target}"
                ),
            )
            for decision in plan_prefetch(ctx.model)
        ]


class CachePass:
    """Greedy closest-to-root cache placement (§4.3, §4.4).

    Plans caches at most once per optimization (re-planning after they
    are inserted would stack caches). On a chain exactly one cache is
    placed; on a multi-source DAG whose merged stream is uncacheable,
    each branch may get its own cache from the shared memory budget.
    All decisions and their reservations are recorded on the context.
    """

    name = "cache"

    def plan(self, ctx: PassContext) -> List[Action]:
        if ctx.caches:
            return []
        caches = plan_caches(ctx.model, ctx.memory)
        if not caches:
            return []
        ctx.caches = caches
        actions: List[Action] = []
        for cache in caches:
            ctx.memory.reserve(
                f"cache_{cache.target}", cache.materialized_bytes
            )
            actions.append(
                InsertCache(
                    target=cache.target,
                    description=f"iter{ctx.iteration}: {cache}",
                )
            )
        return actions


class FusePrefetchPass:
    """Collapse adjacent prefetch buffers into the deepest one.

    Stacked prefetches (a hand-tuned pipeline's buffer directly feeding
    another buffer) add an iterator hop and queue hand-off per element
    without decoupling anything new. For every chain of directly
    adjacent :class:`~repro.graph.datasets.PrefetchNode`\\ s, keep the
    node with the largest buffer (so no capacity is lost) and splice out
    the rest.
    """

    name = "fuse"

    def plan(self, ctx: PassContext) -> List[Action]:
        pipeline = ctx.pipeline
        actions: List[Action] = []
        for node in pipeline.topological_order():
            if not isinstance(node, PrefetchNode):
                continue
            # Only start from the top of a chain, so each maximal chain
            # is planned exactly once.
            parent = pipeline.parent_of(node.name)
            if isinstance(parent, PrefetchNode):
                continue
            chain = [node]
            cursor = node
            while (
                len(cursor.inputs) == 1
                and isinstance(cursor.inputs[0], PrefetchNode)
            ):
                cursor = cursor.inputs[0]
                chain.append(cursor)
            if len(chain) < 2:
                continue
            keep = max(chain, key=lambda n: n.buffer_size)
            for extra in chain:
                if extra is keep:
                    continue
                actions.append(
                    RemovePipelineNode(
                        target=extra.name,
                        description=(
                            f"iter{ctx.iteration}: fuse "
                            f"prefetch {extra.name} into {keep.name} "
                            f"(buffer {keep.buffer_size})"
                        ),
                    )
                )
        return actions


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, OptimizerPass] = {}

#: what pass slots accept: a registered name or a pass object
PassSpec = Union[str, OptimizerPass]


def register_pass(pass_obj: OptimizerPass, replace: bool = False) -> None:
    """Register a pass under its ``name``.

    Re-registering an existing name raises unless ``replace=True`` —
    silently shadowing a built-in pass is almost always a bug.
    """
    name = getattr(pass_obj, "name", None)
    if not isinstance(name, str) or not name:
        raise TypeError(
            "an optimizer pass must expose a non-empty string `name`"
        )
    if not callable(getattr(pass_obj, "plan", None)):
        raise TypeError(f"pass {name!r} must define plan(ctx)")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"optimizer pass {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[name] = pass_obj


def unregister_pass(name: str) -> None:
    """Remove a registered pass (KeyError if absent)."""
    del _REGISTRY[name]


def available_passes() -> Tuple[str, ...]:
    """Registered pass names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_pass(spec: PassSpec) -> OptimizerPass:
    """Turn a pass name (or pass object) into an :class:`OptimizerPass`."""
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise ValueError(
                f"unknown optimizer passes: [{spec!r}]; "
                f"available: {list(available_passes())}"
            ) from None
    if callable(getattr(spec, "plan", None)) and hasattr(spec, "name"):
        return spec
    raise TypeError(
        f"pass must be a name or OptimizerPass, got {type(spec).__name__}"
    )


def resolve_passes(specs: Sequence[PassSpec]) -> List[OptimizerPass]:
    """Resolve a pass list, reporting *all* unknown names at once."""
    unknown = sorted(
        {s for s in specs if isinstance(s, str) and s not in _REGISTRY}
    )
    if unknown:
        raise ValueError(
            f"unknown optimizer passes: {unknown}; "
            f"available: {list(available_passes())}"
        )
    return [resolve_pass(s) for s in specs]


for _builtin in (ParallelismPass(), PrefetchPass(), CachePass(),
                 FusePrefetchPass()):
    register_pass(_builtin)
