"""Shared harness for the engine-equivalence suites.

The simulator's contract is *byte identity* with the reference
generator engine (the oracle in :mod:`tests.reference_engine`): for any
pipeline and any :class:`~repro.runtime.executor.RunConfig`, the trace
it emits must serialize to exactly the same JSON string as the
oracle's, and every observable counter — queue telemetry, consumer
results, cache/disk byte totals — must be equal, not approximately
equal. This module holds the pieces both suites share:

* :func:`fingerprint` — every observable of one run, as a
  JSON-compatible dict (engine-internal telemetry such as
  ``events_processed`` is deliberately excluded; it is sampled, not
  exact, on the shipped engine).
* :data:`GOLDEN_CASES` — the seeded corpus of single- and multi-source
  graphs whose oracle fingerprints are checked into ``tests/golden/``.
* :func:`dump_mismatch` — persist both fingerprints under
  ``$REPRO_DIFF_DUMP_DIR`` when a comparison fails, so a red CI run
  leaves artifacts to diff instead of a truncated assertion message.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from repro.core.trace import PipelineTrace
from repro.graph.builder import (
    from_tfrecords,
    interleave_datasets,
    zip_datasets,
)
from repro.graph.udf import CostModel, UserFunction
from repro.host.machine import setup_a
from repro.io.filesystem import FileCatalog
from repro.runtime.executor import ModelConsumer, RunConfig, run_pipeline
from tests import reference_engine

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

DUMP_DIR = os.environ.get("REPRO_DIFF_DUMP_DIR", "diff_failures")


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def fingerprint(pipeline, config: RunConfig, machine=None,
                run=run_pipeline) -> dict:
    """Every observable of one simulated run, JSON-compatible.

    ``run`` is :func:`run_pipeline` (the shipped engine) or
    :func:`tests.reference_engine.run_pipeline` (the oracle); the
    machine defaults to ``setup_a``. The trace is kept as its
    serialized *string* so equality means byte-for-byte identity of the
    artifact downstream consumers read, not merely numeric closeness
    after a parse.
    """
    res = run(pipeline, machine or setup_a(), config)
    return {
        "trace": PipelineTrace.from_run(res).to_json(),
        "cumulative_stats": {
            k: v.to_dict() for k, v in res.cumulative_stats.items()
        },
        "queue_stats": res.queue_stats,
        "completed": res.completed,
        "minibatches": res.minibatches,
        "measured_seconds": res.measured_seconds,
        "throughput": res.throughput,
        "next_latency": res.next_latency,
        "cpu_utilization": res.cpu_utilization,
        "disk_bytes": res.disk_bytes,
        "cache_bytes": res.cache_bytes,
    }


def run_fingerprint(case, oracle: bool = False) -> dict:
    """Build the case's pipeline (and machine, if it names one) fresh
    and fingerprint one run on the shipped engine or the oracle."""
    _name, build, cfg_kwargs, *machine = case
    run = reference_engine.run_pipeline if oracle else run_pipeline
    return fingerprint(build(), RunConfig(**cfg_kwargs),
                       machine[0]() if machine else None, run)


def dump_mismatch(name: str, reference: dict, candidate: dict) -> str:
    """Persist both sides of a failed comparison; return the message."""
    os.makedirs(DUMP_DIR, exist_ok=True)
    ref_path = os.path.join(DUMP_DIR, f"golden_{name}_reference.json")
    got_path = os.path.join(DUMP_DIR, f"golden_{name}_candidate.json")
    with open(ref_path, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
    with open(got_path, "w", encoding="utf-8") as f:
        json.dump(candidate, f, indent=1, sort_keys=True)
    differing = sorted(
        k for k in reference
        if k in candidate and reference[k] != candidate[k]
    )
    missing = sorted(set(reference) ^ set(candidate))
    return (
        f"{name}: engines diverge (differing keys: {differing}, "
        f"missing keys: {missing}); both fingerprints dumped to "
        f"{ref_path} and {got_path}"
    )


# ----------------------------------------------------------------------
# The corpus graphs. Every builder is a zero-argument closure over a
# seeded FileCatalog, so a case always constructs the identical graph.
# ----------------------------------------------------------------------
def _source(seed, name="src", par=2, files=8, rpf=160.0, bpr=4096.0,
            read_cpu=1e-5):
    cat = FileCatalog(name=f"g{seed}_{name}", num_files=files,
                      records_per_file=rpf, bytes_per_record=bpr,
                      seed=seed)
    return from_tfrecords(cat, parallelism=par, name=name,
                          read_cpu_seconds_per_record=read_cpu)


def _map_chain(seed):
    ds = _source(seed)
    ds = ds.map(UserFunction("u0", cost=CostModel(cpu_seconds=8e-4)),
                parallelism=2, name="m0")
    ds = ds.map(UserFunction("u1", cost=CostModel(cpu_seconds=3e-4,
                                                  internal_parallelism=2)),
                parallelism=3, name="m1")
    return ds.prefetch(4, name="pf").build(f"map_chain_{seed}",
                                           validate=False)


def _filter_shuffle(seed):
    ds = _source(seed, par=3)
    ds = ds.filter(UserFunction("f", cost=CostModel(cpu_seconds=2e-4)),
                   name="flt")
    ds = ds.shuffle(64, name="shf").batch(4, name="bat")
    return ds.repeat(None, name="rep").build(f"filter_shuffle_{seed}",
                                             validate=False)


def _take(seed):
    ds = _source(seed).map(
        UserFunction("u", cost=CostModel(cpu_seconds=5e-4)),
        parallelism=2, name="m")
    return ds.take(300, name="tk").build(f"take_{seed}", validate=False)


def _zip(seed):
    a = _source(seed, name="za", par=2, files=6)
    b = _source(seed + 100, name="zb", par=2, files=6, bpr=1024.0)
    ds = zip_datasets([a, b], name="zip")
    ds = ds.map(UserFunction("u", cost=CostModel(cpu_seconds=4e-4)),
                parallelism=2, name="m")
    return ds.prefetch(2, name="pf").build(f"zip_{seed}", validate=False)


def _interleave(seed):
    a = _source(seed, name="ia", par=1, files=5)
    b = _source(seed + 7, name="ib", par=2, files=5, rpf=120.0)
    c = _source(seed + 13, name="ic", par=1, files=4, bpr=2048.0)
    ds = interleave_datasets([a, b, c], name="il")
    ds = ds.batch(8, name="bat").prefetch(4, name="pf")
    return ds.build(f"interleave_{seed}", validate=False)


def _tiny_cpu(seed):
    """A map whose core completions collapse onto the current instant."""
    ds = _source(seed).map(
        UserFunction("u", cost=CostModel(cpu_seconds=1e-20)),
        parallelism=2, name="m")
    return ds.prefetch(2, name="pf").build(f"tiny_cpu_{seed}",
                                           validate=False)


def _tiny_overhead_machine():
    """``setup_a`` with a per-element overhead below one ulp of the clock."""
    return dataclasses.replace(setup_a(), iterator_overhead=1e-20)


def _zero_overhead_machine():
    """``setup_a`` with no framework overhead: under ``trace=False`` no
    worker pushes an overhead timer."""
    return dataclasses.replace(setup_a(), iterator_overhead=0.0)


def _filter_drop(seed):
    """A filter that drops elements (``keep_fraction < 1``)."""
    ds = _source(seed, par=3)
    ds = ds.filter(UserFunction("f", cost=CostModel(cpu_seconds=2e-4)),
                   keep_fraction=0.35, name="flt")
    ds = ds.batch(4, name="bat").prefetch(2, name="pf")
    return ds.build(f"filter_drop_{seed}", validate=False)


def _map_reshape(seed, cpu_seconds=4e-4, **udf_kwargs):
    """A map that changes element counts or sizes (``examples_ratio``,
    ``output_bytes``, ``size_ratio``)."""
    ds = _source(seed)
    udf = UserFunction("u", cost=CostModel(cpu_seconds=cpu_seconds,
                                           internal_parallelism=2),
                       **udf_kwargs)
    ds = ds.map(udf, parallelism=2, name="m").batch(8, name="bat")
    return ds.prefetch(2, name="pf").build(f"map_reshape_{seed}",
                                           validate=False)


def _shuffle_repeat(seed):
    """A fused ``shuffle_and_repeat`` with a per-element CPU cost."""
    ds = _source(seed, par=2, files=4)
    ds = ds.map(UserFunction("u", cost=CostModel(cpu_seconds=3e-4)),
                parallelism=2, name="m")
    ds = ds.shuffle_and_repeat(64, cpu_seconds_per_element=1e-4,
                               name="snr")
    return ds.batch(4, name="bat").build(f"shuffle_repeat_{seed}",
                                         validate=False)


def _every_kind(seed):
    """Every node kind the engines implement in one graph."""
    a = _source(seed, name="ia", par=1, files=4)
    b = _source(seed + 7, name="ib", par=2, files=4, rpf=120.0)
    ds = interleave_datasets([a, b], name="il")
    c = _source(seed + 13, name="zc", par=1, files=6, bpr=1024.0)
    ds = zip_datasets([ds, c], name="zip")
    ds = ds.map(UserFunction("u", cost=CostModel(cpu_seconds=4e-4),
                             examples_ratio=0.5),
                parallelism=2, name="m")
    ds = ds.filter(UserFunction("f", cost=CostModel(cpu_seconds=1e-4)),
                   keep_fraction=0.8, name="flt")
    ds = ds.map(UserFunction("u2", size_ratio=0.5), parallelism=2,
                name="m2")
    ds = ds.cache(name="cch").shuffle(32, cpu_seconds_per_element=5e-5,
                                      name="shf")
    ds = ds.batch(4, name="bat").repeat(None, name="rep")
    ds = ds.take(150, name="tk").prefetch(2, name="pf")
    return ds.build(f"every_kind_{seed}", validate=False)


def cache_heavy(seed=0, read_cpu=1e-5, map_cpu=1.5e-3, par=4, batch=8,
                files=16, rpf=300.0):
    """A populate-then-serve cache pipeline (the tentpole's hot shape)."""
    cat = FileCatalog(name=f"ch{seed}", num_files=files,
                      records_per_file=rpf, bytes_per_record=8192.0,
                      seed=seed)
    ds = from_tfrecords(cat, parallelism=par, name="src",
                        read_cpu_seconds_per_record=read_cpu)
    udf = UserFunction("udf", cost=CostModel(cpu_seconds=map_cpu))
    ds = ds.map(udf, parallelism=par, name="map0").cache(name="cachenode")
    ds = ds.batch(batch, name="batchnode").prefetch(4, name="prefetchnode")
    return ds.repeat(None, name="repeatnode").build(
        f"cache_heavy_{seed}", validate=False)


#: (case name, zero-arg pipeline builder, RunConfig kwargs[, zero-arg
#: machine builder — ``setup_a`` when absent]). The corpus pins the
#: engine, not the chunk-sizing heuristic: cases whose auto granularity
#: moved when sizing switched to the analytic caps pin the chunk size
#: they were recorded at. The corpus spans every node type the engines
#: implement, single- and multi-source graphs,
#: warmup windows, model consumers, explicit epochs/granularity,
#: sub-chunk trace windows, collapsed timers (a positive delay below
#: one ulp of the clock) on a core completion and on the first half of
#: a fused queue handoff, filters that drop elements, maps that change
#: element counts and sizes, and machines with no framework overhead
#: (no worker pushes an overhead timer).
GOLDEN_CASES = [
    ("map_chain_0", lambda: _map_chain(0),
     dict(duration=2.0, warmup=0.5)),
    ("map_chain_1", lambda: _map_chain(1),
     dict(duration=1.5, warmup=0.0)),
    ("map_chain_2", lambda: _map_chain(2),
     dict(duration=2.0, warmup=0.5, consumer=ModelConsumer(2e-4))),
    ("map_chain_3", lambda: _map_chain(3),
     dict(duration=2.0, warmup=0.5, granularity=7)),
    ("filter_shuffle_0", lambda: _filter_shuffle(0),
     dict(duration=2.0, warmup=0.5)),
    ("filter_shuffle_1", lambda: _filter_shuffle(1),
     dict(duration=1.5, warmup=1.4)),
    ("filter_shuffle_2", lambda: _filter_shuffle(2),
     dict(duration=0.05, warmup=0.0)),
    ("take_0", lambda: _take(0), dict(duration=2.0, warmup=0.5)),
    ("take_1", lambda: _take(1), dict(duration=2.0, warmup=0.0,
                                      consumer=ModelConsumer(1e-4))),
    ("zip_0", lambda: _zip(0), dict(duration=2.0, warmup=0.5)),
    ("zip_1", lambda: _zip(1), dict(duration=1.5, warmup=0.0)),
    ("zip_2", lambda: _zip(2), dict(duration=2.0, warmup=0.5,
                                    granularity=5)),
    ("interleave_0", lambda: _interleave(0),
     dict(duration=2.0, warmup=0.5)),
    ("interleave_1", lambda: _interleave(1),
     dict(duration=1.5, warmup=0.0)),
    ("interleave_2", lambda: _interleave(2),
     dict(duration=2.0, warmup=0.5, consumer=ModelConsumer(3e-4))),
    ("cache_heavy_0", lambda: cache_heavy(0),
     dict(duration=3.0, warmup=0.5)),
    ("cache_heavy_1", lambda: cache_heavy(1, read_cpu=0.0, map_cpu=5e-4),
     dict(duration=3.0, warmup=0.5)),
    ("cache_heavy_2", lambda: cache_heavy(2, par=2, batch=4),
     dict(duration=2.0, warmup=0.0, epochs=3.0)),
    ("cache_heavy_3", lambda: cache_heavy(3),
     dict(duration=2.0, warmup=0.5, granularity=7)),
    ("cache_heavy_4", lambda: cache_heavy(4, files=8, rpf=150.0),
     dict(duration=3.0, warmup=2.9)),
    ("collapsed_core_0", lambda: _tiny_cpu(0),
     dict(duration=6.0, warmup=0.0)),
    ("collapsed_pair_0", lambda: _map_chain(0),
     dict(duration=2.0, warmup=0.5, trace=False), _tiny_overhead_machine),
    ("filter_drop_0", lambda: _filter_drop(0),
     dict(duration=2.0, warmup=0.5, granularity=3)),
    ("map_fixed_out_0",
     lambda: _map_reshape(0, examples_ratio=2.5, output_bytes=512.0),
     dict(duration=2.0, warmup=0.5)),
    ("map_size_ratio_0",
     lambda: _map_reshape(1, cpu_seconds=0.0, size_ratio=0.3),
     dict(duration=2.0, warmup=0.5, granularity=10)),
    ("shuffle_repeat_0", lambda: _shuffle_repeat(0),
     dict(duration=2.0, warmup=0.5)),
    ("zero_overhead_0", lambda: _every_kind(0),
     dict(duration=2.0, warmup=0.5, trace=False, granularity=12),
     _zero_overhead_machine),
    ("zero_overhead_1", lambda: _filter_shuffle(1),
     dict(duration=2.0, warmup=0.5, trace=False), _zero_overhead_machine),
]


def golden_path(name: str) -> pathlib.Path:
    """Checked-in reference fingerprint file for one corpus case."""
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> dict:
    """Load one case's checked-in reference fingerprint."""
    with open(golden_path(name), encoding="utf-8") as f:
        return json.load(f)["fingerprint"]


def write_golden(name: str, fp: dict) -> None:
    """(Re)write one case's reference fingerprint."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    payload = {
        "case": name,
        "engine": "reference",
        "fingerprint": fp,
    }
    with open(golden_path(name), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
