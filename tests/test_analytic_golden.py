"""Golden digest of the analytic optimizer.

``tests/golden/analytic_programs.json`` records, for every case below,
what ``Plumber(machine, spec=OptimizeSpec(backend="analytic"))``
returns: the rewritten program's JSON, the decision log, and the
predicted, baseline and optimized throughputs. The cases are the 50
differential-harness graphs, the five paper pipelines, and the
fleet_cold benchmark's fixed sample batch. The test requires the
current code to reproduce every record exactly, so a refactor of the
graph, trace or model layers cannot silently change a decision or a
throughput.

Re-record after an *intentional* change to the analytic optimizer with::

    PYTHONPATH=src python -m tests.test_analytic_golden
"""

from __future__ import annotations

import json

import pytest

from repro.core.plumber import Plumber
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.serialize import pipeline_to_json
from repro.host.machine import setup_a
from repro.workloads.registry import MICROBENCH_WORKLOADS
from tests.engine_equivalence import GOLDEN_DIR
from tests.test_backend_differential import (
    NUM_CACHE_HEAVY_CASES,
    NUM_CASES,
    NUM_MULTISOURCE_CASES,
    cache_heavy_pipeline,
    random_multisource_pipeline,
    random_pipeline,
)

GOLDEN_FILE = GOLDEN_DIR / "analytic_programs.json"
ANALYTIC = OptimizeSpec(backend="analytic")

#: fleet_cold's fixed sample batch (``perfbench/workloads.py``:
#: ``fleet_batch(SAMPLE_SEED)``)
FLEET_SAMPLE_SEED = 7
FLEET_BATCH_JOBS = 8
FLEET_DOMAINS = {"vision": 0.35, "nlp": 0.2, "rl": 0.15,
                 "multimodal": 0.15, "rl_replay": 0.15}


def golden_cases():
    """``(case id, pipeline, machine, spec)`` for every recorded case."""
    machine = setup_a()
    for seed in range(NUM_CASES):
        yield f"diff/{seed:02d}", random_pipeline(seed), machine, ANALYTIC
    for seed in range(NUM_MULTISOURCE_CASES):
        yield (f"multisource/{seed:02d}", random_multisource_pipeline(seed),
               machine, ANALYTIC)
    for seed in range(NUM_CACHE_HEAVY_CASES):
        yield (f"cache_heavy/{seed:02d}", cache_heavy_pipeline(seed),
               machine, ANALYTIC)
    for name, workload in sorted(MICROBENCH_WORKLOADS.items()):
        yield f"paper/{name}", workload.build(), machine, ANALYTIC
    jobs = generate_pipeline_fleet(
        num_jobs=FLEET_BATCH_JOBS, distinct=FLEET_BATCH_JOBS,
        seed=FLEET_SAMPLE_SEED,
        config=FleetConfig(optimize_spec=ANALYTIC,
                           domain_weights=FLEET_DOMAINS),
    )
    for job in jobs:
        yield f"fleet/{job.name}", job.pipeline, job.machine, job.spec


def digest(pipeline, machine, spec) -> dict:
    """The recorded outputs of one analytic optimize, as the JSON text
    of each value so that equality is exact (floats by ``repr``)."""
    result = Plumber(machine, spec=spec).optimize(pipeline)
    return {
        "program": pipeline_to_json(result.pipeline),
        "decisions": list(result.decisions),
        "predicted_throughput": repr(result.predicted_throughput),
        "baseline_throughput": repr(result.baseline_throughput),
        "optimized_throughput": repr(result.model.observed_throughput),
    }


def record() -> dict:
    return {case: digest(p, m, s) for case, p, m, s in golden_cases()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


def test_covers_every_case(golden):
    assert sorted(golden) == sorted(c[0] for c in golden_cases())
    assert len(golden) == (NUM_CASES + NUM_MULTISOURCE_CASES
                           + NUM_CACHE_HEAVY_CASES
                           + len(MICROBENCH_WORKLOADS) + FLEET_BATCH_JOBS)


@pytest.mark.parametrize("case", list(golden_cases()),
                         ids=lambda c: c[0])
def test_matches_golden(case, golden):
    name, pipeline, machine, spec = case
    assert digest(pipeline, machine, spec) == golden[name]


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps(record(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_FILE}")
