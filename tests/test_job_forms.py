"""Job-form parity: every entry point that takes a job batch accepts and
rejects the same forms, with the same error.

A batch sent to a :class:`ShardedOptimizer` reaches either an in-process
:class:`BatchOptimizer` or, through :func:`fleet_to_body`, a remote
daemon, depending on where each job hashes. If those parsed batches
differently, one batch could succeed or fail depending on placement.
"""

from types import SimpleNamespace

import pytest

from repro.core.spec import OptimizeSpec
from repro.service import BatchOptimizer, OptimizationJob, ShardedOptimizer
from repro.service.client import fleet_to_body
from repro.service.shard import shard_fleet
from tests.test_service import small_pipeline

FAST_SPEC = OptimizeSpec(iterations=1, backend="analytic",
                         trace_duration=1.0, trace_warmup=0.25)

#: each case builds a batch from (pipeline, machine)
FORMS = {
    "mapping": lambda p, m: {"a": p},
    "2-tuple": lambda p, m: [("a", p)],
    "3-tuple": lambda p, m: [("a", p, m)],
    "OptimizationJob": lambda p, m: [OptimizationJob("a", p, m, FAST_SPEC)],
    "object": lambda p, m: [SimpleNamespace(name="a", pipeline=p)],
    "object+spec": lambda p, m: [
        SimpleNamespace(name="a", pipeline=p, machine=m, spec=FAST_SPEC)],
    "1-tuple": lambda p, m: [("a",)],
    "4-tuple": lambda p, m: [("a", p, m, 8)],
    "5-tuple": lambda p, m: [("a", p, m, 8, "analytic")],
    "bare string": lambda p, m: ["a"],
    "object without pipeline": lambda p, m: [SimpleNamespace(name="a")],
    "pipeline not a Pipeline": lambda p, m: [("a", "not a pipeline")],
    "machine not a Machine": lambda p, m: [("a", p, "host")],
    "spec not an OptimizeSpec": lambda p, m: [
        SimpleNamespace(name="a", pipeline=p, spec={"backend": "analytic"})],
}

REJECTED = {
    "1-tuple", "4-tuple", "5-tuple", "bare string",
    "object without pipeline", "pipeline not a Pipeline",
    "machine not a Machine", "spec not an OptimizeSpec",
}


def _outcome(call, jobs):
    """``"accepted"``, or the ValueError message."""
    try:
        call(jobs)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return "accepted"


@pytest.mark.parametrize("form", sorted(FORMS))
def test_every_entry_point_agrees(form, small_catalog, test_machine):
    jobs = FORMS[form](small_pipeline(small_catalog), test_machine)

    def service():
        return BatchOptimizer(machine=test_machine, executor="serial",
                              spec=FAST_SPEC)

    callers = {
        "BatchOptimizer.optimize_fleet": lambda j: service().optimize_fleet(j),
        "fleet_to_body": fleet_to_body,
        "shard_fleet(1)": lambda j: shard_fleet(j, 1),
        "shard_fleet(2)": lambda j: shard_fleet(j, 2),
        "ShardedOptimizer": lambda j: ShardedOptimizer(
            [service(), service()]).optimize_fleet(j),
    }
    outcomes = {name: _outcome(call, jobs) for name, call in callers.items()}
    assert len(set(outcomes.values())) == 1, outcomes
    accepted = outcomes["fleet_to_body"] == "accepted"
    assert accepted == (form not in REJECTED), outcomes
