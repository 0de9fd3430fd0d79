"""Cross-module integration tests: the full trace → analyze → rewrite →
re-run loop on every workload, plus trace-file round trips through the
offline path."""

import math

import pytest

from repro.baselines.naive import naive_config
from repro.core import (
    OptimizeSpec,
    PipelineTrace,
    Plumber,
    build_model,
    explain,
)
from repro.core.rewriter import existing_cache
from repro.host import setup_a
from repro.runtime.executor import run_pipeline
from repro.workloads import MICROBENCH_WORKLOADS, get_workload

SCALES = {"resnet": 0.05, "rcnn": 0.25, "ssd": 0.25,
          "transformer": 0.01, "gnmt": 0.01}


@pytest.fixture(scope="module")
def machine():
    return setup_a()


@pytest.mark.parametrize("name", sorted(MICROBENCH_WORKLOADS))
def test_optimize_never_hurts(name, machine):
    """Plumber's full pass beats or matches naive on every workload."""
    pipe = naive_config(get_workload(name).build(scale=SCALES[name]))
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    before = run_pipeline(pipe, machine, duration=1.5, warmup=0.4,
                          trace=False)
    result = plumber.optimize(pipe)
    after = run_pipeline(result.pipeline, machine, duration=1.5, warmup=0.4,
                         trace=False)
    assert after.throughput >= before.throughput * 0.95, name


@pytest.mark.parametrize("name", sorted(MICROBENCH_WORKLOADS))
def test_offline_trace_round_trip(name, machine):
    """A trace serialized to JSON drives the same offline analysis."""
    pipe = get_workload(name).build(scale=SCALES[name])
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.2, trace_warmup=0.3))
    trace = plumber.trace(pipe)
    restored = PipelineTrace.from_json(trace.to_json())
    model_a = build_model(trace)
    model_b = build_model(restored)
    for node in model_a.rates:
        ra, rb = model_a.rates[node], model_b.rates[node]
        if math.isfinite(ra.rate_per_core):
            assert rb.rate_per_core == pytest.approx(ra.rate_per_core)
        assert rb.cacheable == ra.cacheable


def test_explain_renders_for_all_workloads(machine):
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.0, trace_warmup=0.3))
    for name in MICROBENCH_WORKLOADS:
        model = plumber.model(get_workload(name).build(scale=SCALES[name]))
        report = explain(model)
        assert "observed throughput" in report
        assert "bottleneck" in report


def test_cache_decision_respects_machine_memory(machine):
    """On Setup A, decoded ImageNet does not fit; the source does."""
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    pipe = get_workload("resnet").build(scale=0.05)  # 7.4 GB source
    result = plumber.optimize(pipe)
    cache, = result.caches
    # Decoded output (~42 GB) exceeds the 34 GB host: cache below decode.
    assert cache.target in ("interleave_tfrecord", "map_parse")
    assert existing_cache(result.pipeline) is not None


def test_optimized_pipeline_is_serializable(machine):
    """The rewritten program (with injected prefetch/cache) round-trips."""
    from repro.graph.serialize import pipeline_from_json, pipeline_to_json

    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=1.0, trace_warmup=0.3))
    result = plumber.optimize(get_workload("ssd").build(scale=0.25))
    text = pipeline_to_json(result.pipeline)
    restored = pipeline_from_json(text)
    run = run_pipeline(restored, machine, duration=1.0, warmup=0.2)
    assert run.throughput > 0


def test_simulator_agrees_with_analytic_model(machine):
    """The two substrates (event simulation, closed-form caps) agree on
    a tuned vision pipeline."""
    from repro.core.rewriter import set_parallelism
    from repro.runtime.analytic import fill_caps

    pipe = get_workload("resnet").build(scale=0.05)
    pipe = set_parallelism(
        pipe, {n.name: 4 for n in pipe.tunables()}
    )
    predicted = min(fill_caps(pipe, machine).values())
    simulated = run_pipeline(pipe, machine, duration=3.0, warmup=1.0)
    assert simulated.throughput == pytest.approx(predicted, rel=0.15)
