"""Optimize a whole fleet of pipelines through the batch service.

Generates a mixed vision+NLP+RL fleet of named jobs stamped from a few
templates (production fleets re-launch the same training program
constantly), drives every job through Plumber's trace→analyze→optimize
loop on a worker pool, and prints the aggregate report: per-job
speedups, the bottleneck histogram, and the signature-cache hit rate.

The whole optimizer configuration is one ``OptimizeSpec``; here it is
the default one. Every pass plans against the closed-form analytic
model, and the discrete-event simulator runs only twice per
optimization: once on the input (the baseline) and once on the final
program, to certify it. A program the simulator measures slower than
its input is reverted. The example ends with each template's
certification verdict.

Run: ``python examples/fleet_optimization.py``
"""

import time

from repro.analysis.tables import format_table
from repro.core.plumber import Plumber
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.service import BatchOptimizer, OptimizeSpec


def main():
    spec = OptimizeSpec()
    fleet = generate_pipeline_fleet(
        num_jobs=30,
        distinct=8,
        seed=11,
        config=FleetConfig(optimize_spec=spec),  # default §3 domain mix
    )
    domains = sorted({j.domain for j in fleet})
    print(f"generated {len(fleet)} jobs from 8 templates "
          f"(domains: {', '.join(domains)})\n")

    service = BatchOptimizer(executor="thread", max_workers=4, spec=spec)
    t0 = time.time()
    report = service.optimize_fleet(fleet)
    elapsed = time.time() - t0

    print(report.to_table())
    print()
    print(report.summary_table())
    print(f"\noptimized {len(report.jobs)} jobs in {elapsed:.1f}s wallclock "
          f"({report.cache_misses} actual optimizations, "
          f"{report.cache_hit_rate:.0%} served from the signature cache)")

    # Re-submitting the fleet is free: every signature is now cached.
    again = service.optimize_fleet(fleet)
    print(f"re-submission: {again.cache_hits}/{len(again.jobs)} cache hits")

    # The certificate behind each template's result (jobs cycle through
    # the templates, so the first 8 jobs are one of each): what the
    # analytic planner expected and what the simulator measured.
    rows = []
    for job in fleet[:8]:
        cert = Plumber(job.machine, spec=spec).optimize(
            job.pipeline).certification
        rows.append((
            job.name,
            f"{cert['baseline']:.2f}",
            f"{cert['planned']:.2f}",
            f"{cert['certified']:.2f}",
            cert["verdict"],
            "yes" if cert["bottleneck_agrees"] else "no",
        ))
    print()
    print(format_table(
        ("job", "baseline mb/s", "planned (analytic)",
         "certified (simulate)", "verdict", "same bottleneck"),
        rows,
        title="Certification — analytic plan vs simulated result",
    ))


if __name__ == "__main__":
    main()
