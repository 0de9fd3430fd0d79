"""The workloads: set-up, timed closed loop, checks, evaluator.

Every workload is driven through the public API. ``setup`` returns the
state the timed phase runs on; ``run`` drives the closed loop for a
number of seconds and returns a :class:`Phase`, timed in reference
seconds (see ``hostclock.py``); ``check`` compares outputs against an
independent reference; ``evaluate`` measures ``tuned_speedup_geomean``
with a long fixed simulation window, outside the timed phase.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.core.plumber import Plumber, optimize_pipeline
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.serialize import pipeline_from_json, pipeline_to_json
from repro.host.machine import setup_a
from repro.obs import global_registry
from repro.service import (BatchFailedError, BatchOptimizer,
                           OptimizationClient)
from repro.workloads.registry import MICROBENCH_WORKLOADS
from hostclock import HostClock
from tracing import Request

#: the independent evaluator's simulation window: long enough to leave
#: the pipeline-fill transient the optimizer's 3 s window still sees
EVAL_SPEC = OptimizeSpec(trace_duration=12.0, trace_warmup=2.0)
SERVICE_SPEC = OptimizeSpec(backend="analytic")
FLEET_DOMAINS = {"vision": 0.35, "nlp": 0.2, "rl": 0.15,
                 "multimodal": 0.15, "rl_replay": 0.15}
COLD_BATCH_JOBS = 8
#: fleet_cold's client polls every 10 ms instead of backing off from 50
#: ms: with the default steps at 50, 150 and 350 ms the round trip
#: snaps to the next step, so a faster optimizer would not show in
#: latency_p50_s or jobs_per_s
COLD_POLL_S = 0.01
#: fixed seed of the checked and evaluated fleet_cold sample
SAMPLE_SEED = 7
CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Phase:
    """What one timed phase measured. The clock is ticked after every
    operation, so each operation is one interval of it."""

    clock: HostClock
    #: per operation, in reference seconds and as measured
    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    jobs: int = 0
    attempted: int = 0
    failed: int = 0
    #: (predicted, optimized) throughput per optimized job
    predictions: List[tuple] = field(default_factory=list)

    def record(self, latency: float) -> None:
        """Tick the clock and record the operation that just ended."""
        self.clock.tick()
        self.raw_latencies.append(latency)
        self.latencies.append(latency / self.clock.factor)

    def jobs_per_s(self, raw: bool = False) -> float:
        return self.jobs / (self.clock.raw_elapsed if raw
                            else self.clock.elapsed)

    def cpu_s_per_job(self, raw: bool = False) -> float:
        return ((self.clock.raw_cpu_s if raw else self.clock.cpu_s)
                / max(self.jobs, 1))

    def latency(self, q: float, raw: bool = False) -> float:
        return quantile(self.raw_latencies if raw else self.latencies, q)


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        round(q * 100) - 1]


def self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def sim_events() -> float:
    """Simulation engine events fired so far in this process."""
    return global_registry().summary().get("repro_sim_events_total", 0.0)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup(machine, original, tuned) -> float:
    """Tuned over original throughput under the evaluator's window."""
    plumber = Plumber(machine, spec=EVAL_SPEC)
    return (plumber.model(tuned).observed_throughput
            / plumber.model(original).observed_throughput)


# ----------------------------------------------------------------------
class TunePaper:
    """In-process ``optimize_pipeline`` sweeps over the paper pipelines."""

    name = "tune_paper"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.machine = setup_a()

    def setup(self, tracer=None) -> dict:
        pipelines = {n: w.build() for n, w in MICROBENCH_WORKLOADS.items()}
        reference = {
            n: pipeline_to_json(optimize_pipeline(p, self.machine).pipeline)
            for n, p in pipelines.items()
        }
        return {"pipelines": pipelines, "reference": reference}

    def teardown(self, state: dict) -> None:
        pass

    def run(self, state: dict, seconds: float, tracer=None) -> Phase:
        phase = Phase(HostClock(self_cpu))
        rng = random.Random(self.seed)
        names = sorted(state["pipelines"])
        deadline = time.monotonic() + seconds
        phase.clock.tick()
        sweep = 0
        while time.monotonic() < deadline:
            rng.shuffle(names)
            for name in names:
                phase.attempted += 1
                began = time.monotonic()
                if tracer is None:
                    result = optimize_pipeline(
                        state["pipelines"][name], self.machine)
                else:
                    req = Request(f"sweep{sweep}:{name}")
                    with tracer.request_span(req):
                        result = optimize_pipeline(
                            state["pipelines"][name], self.machine)
                latency = time.monotonic() - began
                phase.jobs += 1
                phase.predictions.append((result.predicted_throughput,
                                          result.model.observed_throughput))
                # Tracing is deterministic: every sweep must rewrite each
                # pipeline to the same program.
                if pipeline_to_json(result.pipeline) != state["reference"][name]:
                    phase.failed += 1
                phase.record(latency)
            sweep += 1
        return phase

    def peak_rss_mb(self, state: dict) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, state: dict) -> int:
        return 0  # checked per operation in run()

    def evaluate(self, state: dict) -> float:
        return geomean([
            speedup(self.machine, p,
                    pipeline_from_json(state["reference"][n]))
            for n, p in sorted(state["pipelines"].items())
        ])


# ----------------------------------------------------------------------
class DaemonProcess:
    """The benchmark's daemon launcher, run as a subprocess."""

    def __init__(self, store: Path, trace_out: Optional[Path]) -> None:
        cmd = [sys.executable, str(Path(__file__).parent / "daemon.py"),
               "--store", str(store)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"daemon exited with {self.proc.returncode} before serving")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    @property
    def pid(self) -> int:
        return self.proc.pid

    def metrics(self) -> dict:
        from urllib.request import urlopen
        with urlopen(self.url + "/metrics?format=json", timeout=30) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        """Close stdin (the launcher's stop signal) and wait for exit."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def spans(self) -> List[dict]:
        if self.trace_out is None or not self.trace_out.exists():
            return []
        return json.loads(self.trace_out.read_text())


def fleet_batch(seed: int):
    return generate_pipeline_fleet(
        num_jobs=COLD_BATCH_JOBS, distinct=COLD_BATCH_JOBS, seed=seed,
        config=FleetConfig(optimize_spec=SERVICE_SPEC,
                           domain_weights=FLEET_DOMAINS),
    )


class FleetCold:
    """One client submitting batches of never-seen jobs to a daemon."""

    name = "fleet_cold"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._setups = 0
        self._streams = itertools.count()

    def _batches(self):
        # Seeds above 10**6 never meet the fixed sample's seed, and each
        # (seed, stream) pair owns its own range, so every job is new.
        base = 10**6 + (self.seed * 64 + next(self._streams)) * 10**5
        i = 0
        while True:
            yield fleet_batch(base + i)
            i += 1

    def setup(self, tracer=None) -> dict:
        """Spawn a daemon on a fresh store and send it a warm-up batch."""
        self._setups += 1
        tag = f"{self.name}-{self._setups}"
        trace_out = self.workdir / f"{tag}.spans.json" if tracer else None
        daemon = DaemonProcess(self.workdir / f"{tag}.store", trace_out)
        client = self._client(daemon.url, None)
        try:
            client.optimize_fleet(next(self._batches()))
        except BaseException:
            daemon.stop()
            raise
        finally:
            client.close()
        return {"daemon": daemon}

    def teardown(self, state: dict) -> None:
        state["daemon"].stop()

    def peak_rss_mb(self, state: dict) -> float:
        return proc_peak_rss_mb(state["daemon"].pid)

    @staticmethod
    def _client(url: str, tracer) -> OptimizationClient:
        sleep = time.sleep
        if tracer is not None:
            sleep = tracer.wrap("service.client.poll_sleep", time.sleep)
        return OptimizationClient(url, sleep=sleep, poll_interval=COLD_POLL_S,
                                  max_poll_interval=COLD_POLL_S)

    @staticmethod
    def _round_trip(client, jobs, tracer):
        """submit -> wait -> status check -> rehydrated report, the
        sequence ``OptimizationClient.optimize_fleet`` runs; a traced
        run opens the request's root span around the same calls."""
        req = Request()
        with (tracer.request_span(req) if tracer is not None
              else contextlib.nullcontext()):
            accepted = client.submit(jobs)
            req.id = accepted["id"]
            final = client.wait(accepted["id"])
            if final["status"] == "failed":
                raise BatchFailedError(
                    f"batch {accepted['id']!r} failed: "
                    f"{final.get('error', 'unknown error')}")
            return client.report(accepted["id"])

    def run(self, state: dict, seconds: float, tracer=None) -> Phase:
        daemon = state["daemon"]
        phase = Phase(HostClock(lambda: self_cpu() + proc_cpu(daemon.pid)))
        client = self._client(daemon.url, tracer)
        deadline = time.monotonic() + seconds
        phase.clock.tick()
        for jobs in self._batches():
            if time.monotonic() >= deadline:
                break
            began = time.monotonic()
            try:
                report = self._round_trip(client, jobs, tracer)
                ok = (report.cache_misses == COLD_BATCH_JOBS
                      and report.cache_hits == 0)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                print(f"# {self.name}: batch failed: {exc}", file=sys.stderr)
                report, ok = None, False
            latency = time.monotonic() - began
            phase.attempted += len(jobs)
            if ok:
                phase.jobs += len(jobs)
                phase.predictions += [
                    (j.predicted_throughput, j.optimized_throughput)
                    for j in report.jobs
                ]
            else:
                phase.failed += len(jobs)
            phase.record(latency)
        client.close()
        return phase

    def check(self, state: dict) -> int:
        """Every sample job is a miss, and each served program is
        byte-identical to an in-process serial BatchOptimizer run."""
        jobs = fleet_batch(SAMPLE_SEED)
        client = self._client(state["daemon"].url, None)
        served = client.optimize_fleet(jobs)
        client.close()
        state["sample"] = (jobs, served)
        local = BatchOptimizer(executor="serial", spec=SERVICE_SPEC)
        expected = {j.name: j.pipeline_json
                    for j in local.optimize_fleet(jobs).jobs}
        return (sum(1 for j in served.jobs
                    if expected.get(j.name) != j.pipeline_json)
                + (served.cache_misses != COLD_BATCH_JOBS))

    def evaluate(self, state: dict) -> float:
        jobs, served = state["sample"]
        tuned = {j.name: j.pipeline_json for j in served.jobs}
        return geomean([
            speedup(job.machine, job.pipeline,
                    pipeline_from_json(tuned[job.name]))
            for job in jobs
        ])


WORKLOADS = {w.name: w for w in (TunePaper, FleetCold)}
