"""Synthetic fleet generation.

Every job is a real (small) pipeline built with the public graph API,
assigned a host and an accelerator, and evaluated with the analytic
model's whole-chain caps (:func:`repro.runtime.analytic.fill_caps`) —
the fleet statistics *emerge* from the population of configurations
rather than being sampled directly.

Population structure, mirroring §3's narrative:

* domains: vision (heavy decode UDFs), NLP (tiny ops dominated by
  framework overhead), RL (medium, bursty); plus two multi-source
  templates — ``multimodal`` (vision + caption branches merged in
  lockstep by ``zip``) and ``rl_replay`` (fresh rollouts interleaved
  with cheap replay-buffer reads by weight) — off by default in
  ``domain_weights`` so the §3 population is unchanged;
* configurations: a fraction of jobs are well tuned, a fraction
  partially tuned, and a fraction naive (parallelism 1, no prefetch) —
  the software misconfigurations Observation 2 attributes stalls to;
* hosts: 8–96 cores with varying storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.spec import OptimizeSpec
from repro.graph.builder import (
    from_tfrecords,
    interleave_datasets,
    zip_datasets,
)
from repro.graph.udf import CostModel, UserFunction
from repro.host.disk import cloud_storage, hdd_st4000, local_ssd_fast, nvme_p3600
from repro.host.machine import Machine
from repro.io.filesystem import FileCatalog
from repro.runtime.analytic import _fill_models, fill_caps

#: baseline Next-call cost when data is ready in a prefetch buffer
#: ("it takes tens of microseconds to read input data that is readily
#: available from a prefetch buffer", §3.2)
READY_LATENCY_SECONDS = 25e-6
#: host memory bandwidth assumed for utilization accounting
MEMORY_BANDWIDTH_BYTES = 40e9
#: each element is written once and read once per stage boundary
MEMORY_COPY_FACTOR = 2.0


@dataclass(frozen=True)
class JobSample:
    """One fleet job's measured quantities."""

    domain: str
    config: str                 # tuned / partial / naive
    next_latency: float         # mean blocked seconds per step
    cpu_utilization: float
    membw_utilization: float
    pipeline_rate: float        # minibatches/s the pipeline can sustain
    model_rate: float           # minibatches/s the accelerator consumes
    cores: int

    @property
    def input_bound(self) -> bool:
        """True when the pipeline is slower than the model."""
        return self.pipeline_rate < self.model_rate


@dataclass
class FleetConfig:
    """Population mixture knobs (defaults calibrated to §3)."""

    num_jobs: int = 4000
    seed: int = 0
    domain_weights: Dict[str, float] = field(
        default_factory=lambda: {"vision": 0.60, "nlp": 0.25, "rl": 0.15}
    )
    # Configuration mixture: most jobs are at least partially tuned, but
    # a long tail is naive — that tail is the >100ms latency band.
    config_weights: Dict[str, float] = field(
        default_factory=lambda: {"tuned": 0.46, "partial": 0.42, "naive": 0.12}
    )
    #: accelerator speed: model step budget as a multiple of the tuned
    #: pipeline's capability (log-uniform). > 1 means the model is slower
    #: than even a tuned pipeline (the job is never input-bound).
    accel_speed_low: float = 0.03
    accel_speed_high: float = 2.5
    #: full optimizer configuration stamped onto generated fleet jobs
    #: (``None`` = inherit the batch service's default spec). For a
    #: per-domain spec, replace it on the generated jobs:
    #: ``dataclasses.replace(job, spec=...)``.
    optimize_spec: OptimizeSpec | None = None


_DOMAIN_PARAMS = {
    # per-example UDF cpu-seconds (lognormal median), ops count, batch
    "vision": dict(op_cost=2e-3, op_sigma=0.7, ops=(3, 5), batch=128,
                   record_bytes=120e3, size_ratio=5.0),
    "nlp": dict(op_cost=3e-6, op_sigma=0.7, ops=(3, 6), batch=16,
                record_bytes=300.0, size_ratio=1.2),
    "rl": dict(op_cost=1e-4, op_sigma=1.0, ops=(2, 4), batch=8,
               record_bytes=8e3, size_ratio=1.5),
}

#: datacenter hosts skew large (the paper's jobs run next to TPU hosts)
_CORE_CHOICES = (16, 32, 32, 64, 96)
_DISK_FACTORIES = (local_ssd_fast, nvme_p3600, hdd_st4000, cloud_storage)


def _choice(rng: np.random.Generator, weights: Dict[str, float]) -> str:
    names = list(weights)
    probs = np.array([weights[n] for n in names], dtype=float)
    probs /= probs.sum()
    return names[rng.choice(len(names), p=probs)]


def _par_sampler(rng: np.random.Generator, config: str):
    """Per-stage parallelism sampler matching the tuning state."""
    cores_hint = 16
    if config == "tuned":
        return lambda: cores_hint
    if config == "partial":
        return lambda: int(rng.integers(3, cores_hint + 1))
    return lambda: 1


def _build_branch(rng: np.random.Generator, domain: str, prefix: str, par):
    """One source→maps subgraph in the given domain (no trailing stages)."""
    params = _DOMAIN_PARAMS[domain]
    n_ops = int(rng.integers(params["ops"][0], params["ops"][1] + 1))
    catalog = FileCatalog(
        name=f"fleet_{prefix}_{domain}" if prefix else f"fleet_{domain}",
        num_files=int(rng.integers(16, 256)),
        records_per_file=float(rng.integers(200, 2000)),
        bytes_per_record=params["record_bytes"] * float(rng.lognormal(0, 0.3)),
        seed=int(rng.integers(0, 2**31)),
    )
    src_name = f"{prefix}_src" if prefix else "src"
    ds = from_tfrecords(catalog, parallelism=par(), name=src_name,
                        read_cpu_seconds_per_record=1e-5)
    for i in range(n_ops):
        cost = params["op_cost"] * float(rng.lognormal(0, params["op_sigma"]))
        udf = UserFunction(
            f"{prefix}_op{i}" if prefix else f"op{i}",
            cost=CostModel(cpu_seconds=cost),
            size_ratio=params["size_ratio"] if i == 0 else 1.0,
        )
        map_name = f"{prefix}_map_{i}" if prefix else f"map_{i}"
        ds = ds.map(udf, parallelism=par(), name=map_name)
    return ds


def _finish_job(ds, config: str, batch: int, name: str):
    """Common trailing stages: shuffle, batch, (prefetch), repeat."""
    ds = ds.shuffle(256, cpu_seconds_per_element=2e-6, name="shuffle")
    ds = ds.batch(batch, name="batch")
    if config != "naive":
        ds = ds.prefetch(8, name="prefetch")
    ds = ds.repeat(None, name="repeat")
    return ds.build(name, validate=False)


def _build_job_pipeline(rng: np.random.Generator, domain: str, config: str):
    """A random small pipeline in the given domain and tuning state."""
    par = _par_sampler(rng, config)
    if domain == "multimodal":
        # Vision frames zipped in lockstep with their text captions —
        # the heavy decode branch throttles the merge, the caption
        # branch idles (the fleet's canonical thin-branch-margin case).
        merged = zip_datasets(
            [
                _build_branch(rng, "vision", "img", par),
                _build_branch(rng, "nlp", "txt", par),
            ],
            name="zip_modalities",
        )
        return _finish_job(merged, config, batch=64,
                           name=f"fleet_{domain}_{config}")
    if domain == "rl_replay":
        # Fresh environment rollouts mixed with cheap replay-buffer
        # reads at a sampled replay ratio.
        fresh_weight = float(rng.uniform(0.3, 0.7))
        merged = interleave_datasets(
            [
                _build_branch(rng, "rl", "fresh", par),
                _build_branch(rng, "rl", "replay", par),
            ],
            weights=[fresh_weight, 1.0 - fresh_weight],
            name="replay_mix",
        )
        return _finish_job(merged, config, batch=8,
                           name=f"fleet_{domain}_{config}")
    params = _DOMAIN_PARAMS[domain]
    ds = _build_branch(rng, domain, "", par)
    return _finish_job(ds, config, batch=params["batch"],
                       name=f"fleet_{domain}_{config}")


@dataclass(frozen=True)
class FleetPipeline:
    """One named fleet job ready for the batch optimization service.

    ``spec`` (a full :class:`~repro.core.spec.OptimizeSpec`) is the
    per-job configuration picked up by
    :class:`repro.service.BatchOptimizer` (``None`` = inherit the
    service's spec).
    """

    name: str
    pipeline: object            # repro.graph.datasets.Pipeline
    machine: Machine
    domain: str
    config: str                 # tuned / partial / naive
    spec: OptimizeSpec | None = None


def generate_pipeline_fleet(
    num_jobs: int = 20,
    distinct: int = 6,
    seed: int = 0,
    cores: int = 16,
    config: FleetConfig | None = None,
) -> List[FleetPipeline]:
    """Generate ``num_jobs`` named jobs stamped from ``distinct`` templates.

    Unlike :func:`generate_fleet` (which *measures* jobs analytically),
    this returns the pipelines themselves, bound to hosts, so they can be
    driven through the trace→analyze→optimize loop by
    :class:`repro.service.BatchOptimizer`. Production fleets contain many
    structurally identical jobs (the same training program launched over
    and over), so jobs cycle through a small pool of templates — that
    redundancy is exactly what the service's signature-keyed cache
    exploits.
    """
    if num_jobs < 1:
        raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
    if not 1 <= distinct <= num_jobs:
        raise ValueError(
            f"distinct must be in [1, num_jobs], got {distinct}"
        )
    config = config or FleetConfig()
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(distinct):
        domain = _choice(rng, config.domain_weights)
        tuning = _choice(rng, config.config_weights)
        disk = _DISK_FACTORIES[rng.integers(len(_DISK_FACTORIES))]()
        machine = Machine(
            name="fleet_host",
            cores=cores,
            core_speed=float(rng.uniform(0.6, 1.2)),
            memory_bytes=64e9,
            disk=disk,
            iterator_overhead=float(rng.uniform(15e-6, 40e-6)),
            tracer_overhead=0.0,
        )
        pipeline = _build_job_pipeline(rng, domain, tuning)
        templates.append((domain, tuning, machine, pipeline))
    jobs: List[FleetPipeline] = []
    for i in range(num_jobs):
        domain, tuning, machine, pipeline = templates[i % distinct]
        jobs.append(
            FleetPipeline(
                name=f"job{i:03d}_{domain}_{tuning}",
                pipeline=pipeline,
                machine=machine,
                domain=domain,
                config=tuning,
                spec=config.optimize_spec,
            )
        )
    return jobs


def generate_fleet(config: FleetConfig | None = None) -> List[JobSample]:
    """Generate the synthetic job population and measure every job."""
    config = config or FleetConfig()
    rng = np.random.default_rng(config.seed)
    jobs: List[JobSample] = []
    for _ in range(config.num_jobs):
        domain = _choice(rng, config.domain_weights)
        tuning = _choice(rng, config.config_weights)
        cores = int(rng.choice(_CORE_CHOICES))
        disk = _DISK_FACTORIES[rng.integers(len(_DISK_FACTORIES))]()
        machine = Machine(
            name="fleet_host",
            cores=cores,
            core_speed=float(rng.uniform(0.6, 1.2)),
            memory_bytes=64e9,
            disk=disk,
            iterator_overhead=float(rng.uniform(15e-6, 40e-6)),
            tracer_overhead=0.0,
        )
        pipeline = _build_job_pipeline(rng, domain, tuning)
        jobs.append(_measure_job(rng, pipeline, machine, domain, tuning, config))
    return jobs


def _measure_job(
    rng: np.random.Generator,
    pipeline,
    machine: Machine,
    domain: str,
    tuning: str,
    config: FleetConfig,
) -> JobSample:
    """Run the §3 measurement for one job via the analytic model."""
    caps = fill_caps(pipeline, machine)
    pipeline_rate = min(caps.values(), default=math.inf)

    # Accelerator speed relative to a *tuned* pipeline on this host: the
    # model's demand is independent of how well the input side happens to
    # be configured.
    cpu_cap = caps.get("cpu", math.inf)
    reference = cpu_cap if math.isfinite(cpu_cap) else pipeline_rate
    speed = math.exp(
        rng.uniform(math.log(config.accel_speed_low),
                    math.log(config.accel_speed_high))
    )
    model_rate = max(reference / speed, 1e-3)

    achieved = min(pipeline_rate, model_rate)
    if pipeline_rate >= model_rate:
        next_latency = READY_LATENCY_SECONDS
    else:
        next_latency = (
            READY_LATENCY_SECONDS + 1.0 / pipeline_rate - 1.0 / model_rate
        )

    # Background host activity (model infeed, checkpointing, logging):
    # keeps even a fully stalled job's host from reading exactly zero.
    background_cpu = float(rng.uniform(0.02, 0.08))
    background_membw = float(rng.uniform(0.05, 0.16))
    cpu_util = min(
        1.0,
        background_cpu
        + achieved / cpu_cap,
    )
    bytes_per_root = _bytes_per_root(pipeline, machine)
    membw_util = min(
        1.0,
        background_membw
        + achieved * bytes_per_root * MEMORY_COPY_FACTOR / MEMORY_BANDWIDTH_BYTES,
    )
    return JobSample(
        domain=domain,
        config=tuning,
        next_latency=next_latency,
        cpu_utilization=cpu_util,
        membw_utilization=membw_util,
        pipeline_rate=pipeline_rate,
        model_rate=model_rate,
        cores=machine.cores,
    )


def _bytes_per_root(pipeline, machine: Machine) -> float:
    """Bytes materialized across stage boundaries per root element, from
    the analytic model's per-node element sizes."""
    total = 0.0
    for m in _fill_models(pipeline, machine):
        if math.isfinite(m.visit):
            total += m.visit * m.bytes_per_element
    return total
