"""Trace acquisition cost per fleet domain: simulate vs analytic.

ROADMAP items 2 and 3 in one benchmark: event-budget granularity keeps
the simulator's cost bounded, and the analytic backend removes the
event loop entirely. For one representative fleet job per §3 domain
(vision / nlp / rl) this measures wallclock per trace under both
backends, checks they agree on the LP bottleneck, and requires the
analytic fast path to beat simulation by >= 10x on the NLP job (the
domain whose µs-scale op costs made full-fleet optimization
prohibitive).

Results are emitted as a table and as a machine-readable artifact
``BENCH_trace_backends.json`` under the untracked ``benchmarks/run/``
(wallclock differs on every run).
"""

from __future__ import annotations

import json
import math
import time

import pytest

from benchmarks.conftest import RUN_DIR, emit
from repro.analysis.tables import format_table
from repro.core.lp import solve_allocation
from repro.core.plumber import Plumber
from repro.core.rates import build_model
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet

DOMAINS = ("vision", "nlp", "rl")
BACKENDS = ("simulate", "analytic")
SEED = 3
#: acceptance bar: analytic trace acquisition speedup on the NLP job
NLP_SPEEDUP_FLOOR = 10.0

BENCH_PATH = RUN_DIR / "BENCH_trace_backends.json"


def _domain_job(domain: str):
    return generate_pipeline_fleet(
        num_jobs=1, distinct=1, seed=SEED,
        config=FleetConfig(domain_weights={domain: 1.0}),
    )[0]


@pytest.fixture(scope="module")
def measurements():
    rows = []
    for domain in DOMAINS:
        job = _domain_job(domain)
        for backend in BACKENDS:
            plumber = Plumber(job.machine, spec=OptimizeSpec(backend=backend))
            # Best of three guards the wallclock assertions against a
            # one-off GC pause / noisy CI neighbour; the analytic trace
            # is µs-scale, so the repeats cost nothing.
            seconds = math.inf
            for _ in range(3):
                start = time.perf_counter()
                trace = plumber.trace(job.pipeline)
                seconds = min(seconds, time.perf_counter() - start)
            lp = solve_allocation(build_model(trace))
            rows.append({
                "domain": domain,
                "backend": backend,
                "trace_seconds": seconds,
                "root_throughput": trace.root_throughput,
                "bottleneck": lp.bottleneck,
            })
    return rows


def _by(rows, domain, backend):
    return next(
        r for r in rows if r["domain"] == domain and r["backend"] == backend
    )


class TestTraceBackendBench:
    def test_backends_agree_on_bottleneck(self, measurements):
        for domain in DOMAINS:
            sim = _by(measurements, domain, "simulate")
            ana = _by(measurements, domain, "analytic")
            assert ana["bottleneck"] == sim["bottleneck"], domain

    def test_analytic_is_fast_for_every_domain(self, measurements):
        for domain in DOMAINS:
            ana = _by(measurements, domain, "analytic")
            # Closed form: O(nodes), must be far under a millisecond-ish
            # budget even on slow CI hosts.
            assert ana["trace_seconds"] < 0.05, domain

    def test_nlp_speedup_at_least_10x(self, measurements, once):
        """The acceptance bar: the µs-cost domain is >= 10x cheaper."""
        sim = _by(measurements, "nlp", "simulate")
        ana = _by(measurements, "nlp", "analytic")
        speedup = sim["trace_seconds"] / ana["trace_seconds"]
        assert speedup >= NLP_SPEEDUP_FLOOR
        once(lambda: None)  # timing handled by the module fixture

    def test_emit_table_and_artifact(self, measurements):
        table_rows = []
        artifact = {"benchmark": "trace_backends", "results": []}
        for domain in DOMAINS:
            sim = _by(measurements, domain, "simulate")
            ana = _by(measurements, domain, "analytic")
            speedup = sim["trace_seconds"] / max(ana["trace_seconds"], 1e-9)
            table_rows.append((
                domain,
                f"{sim['trace_seconds'] * 1e3:.1f}",
                f"{ana['trace_seconds'] * 1e3:.2f}",
                f"{speedup:.0f}x",
                sim["bottleneck"],
                "yes" if ana["bottleneck"] == sim["bottleneck"] else "NO",
            ))
            artifact["results"].append({
                "domain": domain,
                "simulate_seconds": sim["trace_seconds"],
                "analytic_seconds": ana["trace_seconds"],
                "speedup": speedup,
                "bottleneck_simulate": sim["bottleneck"],
                "bottleneck_analytic": ana["bottleneck"],
                "root_throughput_simulate": sim["root_throughput"],
                "root_throughput_analytic": ana["root_throughput"],
            })
        table = format_table(
            ("domain", "simulate ms", "analytic ms", "speedup",
             "bottleneck", "agree"),
            table_rows,
            title="Trace acquisition cost by backend (one fleet job/domain)",
        )
        emit("trace_backends", table, RUN_DIR)
        BENCH_PATH.write_text(json.dumps(artifact, indent=2) + "\n")
        assert BENCH_PATH.exists()
