"""Observability tour: pass telemetry, live /metrics, and merging.

The ``repro.obs`` subsystem threads typed instruments — counters,
gauges, and streaming-quantile histograms (p50/p90/p99 in fixed
memory) — through every layer of the stack. This example walks the
three surfaces an operator actually uses:

1. **Per-pass telemetry**: every ``Plumber.optimize`` call reports,
   per optimizer pass and iteration, wallclock, actions taken, and the
   LP's *predicted* gain next to the *realized* gain — the paper's
   "did the model's forecast come true?" question, answered per pass.
2. **A live daemon's ``GET /metrics``**: Prometheus-style text
   exposition of route latencies, admission-lane occupancy, cache
   hit/miss counters, and batch outcomes, straight off a serving
   process.
3. **Snapshot merging**: histogram sketches merge bucket-wise, so a
   sharded front-end can pool per-shard latency distributions into one
   fleet-wide p99 without ever shipping raw samples.

Run: ``python examples/observability.py``
"""

import urllib.request

from repro.core import Plumber
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.host import setup_a
from repro.obs import Histogram, merge_snapshots, summarize_snapshot
from repro.service import (
    BatchOptimizer,
    OptimizationClient,
    OptimizationDaemon,
    ShardedOptimizer,
)

#: analytic backend: decision-only traces, the whole example runs in ms
SPEC = OptimizeSpec(iterations=1, backend="analytic",
                    trace_duration=1.0, trace_warmup=0.25)


def pass_telemetry_tour():
    print("== 1. per-pass telemetry: predicted vs realized gain")
    fleet = generate_pipeline_fleet(
        num_jobs=1, distinct=1, seed=3,
        config=FleetConfig(domain_weights={"vision": 1.0},
                           optimize_spec=SPEC),
    )
    plumber = Plumber(setup_a(),
                      spec=OptimizeSpec(iterations=1, backend="analytic"))
    result = plumber.optimize(fleet[0].pipeline)
    header = (f"  {'pass':<12} {'ms':>7} {'actions':>7} "
              f"{'predicted':>10} {'realized':>9}")
    print(header)
    for entry in result.pass_telemetry:
        predicted = (f"{entry['predicted_gain']:+.1%}"
                     if entry["predicted_gain"] == entry["predicted_gain"]
                     else "-")
        realized = (f"{entry['realized_gain']:+.1%}"
                    if entry["realized_gain"] == entry["realized_gain"]
                    else "-")
        print(f"  {entry['pass']:<12} {entry['seconds'] * 1e3:>7.1f} "
              f"{entry['actions']:>7} {predicted:>10} {realized:>9}")


def live_daemon_tour():
    print("== 2. GET /metrics on a live daemon")
    fleet = generate_pipeline_fleet(
        num_jobs=6, distinct=2, seed=7,
        config=FleetConfig(optimize_spec=SPEC),
    )
    with OptimizationDaemon(
        BatchOptimizer(executor="serial", spec=SPEC)
    ) as daemon:
        client = OptimizationClient(daemon.url)
        client.optimize_fleet(fleet)   # one cold batch
        client.optimize_fleet(fleet)   # and one all-hit batch

        # Text exposition, as a Prometheus scraper would see it.
        with urllib.request.urlopen(f"{daemon.url}/metrics") as resp:
            text = resp.read().decode("utf-8")
        interesting = ("repro_daemon_lane_in_flight{",
                       "repro_service_jobs_total{",
                       "repro_daemon_batches_total{")
        for line in text.splitlines():
            if line.startswith(interesting):
                print(f"  {line}")

        # The same data as a mergeable JSON snapshot.
        _, snapshot, _ = client._request("GET", "/metrics?format=json")
        summary = summarize_snapshot(snapshot)
        optimize = summary['repro_daemon_request_seconds{route="optimize"}']
        print(f"  POST /optimize: {optimize['count']:.0f} requests, "
              f"p50 {optimize['p50'] * 1e3:.2f} ms, "
              f"p99 {optimize['p99'] * 1e3:.2f} ms")
        # The client kept its own books on the same conversation.
        requests = summarize_snapshot(client.metrics.as_dict())
        total = sum(v for k, v in requests.items()
                    if k.startswith("repro_client_requests_total"))
        print(f"  client-side: {total:.0f} requests recorded locally")
        client.close()


def merging_tour():
    print("== 3. merging: fleet-wide quantiles from per-shard sketches")
    fleet = generate_pipeline_fleet(
        num_jobs=12, distinct=4, seed=11,
        config=FleetConfig(optimize_spec=SPEC),
    )
    sharded = ShardedOptimizer([
        BatchOptimizer(executor="serial", spec=SPEC) for _ in range(3)
    ])
    sharded.optimize_fleet(fleet)
    merged = sharded.stats()["metrics"]
    summary = summarize_snapshot(merged)
    jobs = summary['repro_service_job_seconds{backend="analytic"}']
    print(f"  pooled job latency across 3 shards: "
          f"{jobs['count']:.0f} jobs, p50 {jobs['p50'] * 1e3:.2f} ms, "
          f"p99 {jobs['p99'] * 1e3:.2f} ms")

    # The algebra under the hood: sketches merge exactly, bucket-wise.
    a, b = Histogram(), Histogram()
    for v in (1.0, 2.0, 4.0):
        a.observe(v)
    for v in (8.0, 16.0):
        b.observe(v)
    pooled = merge_snapshots([
        {"h": {"kind": "histogram", "help": "",
               "samples": [{"labels": {}, "value": h.to_dict()}]}}
        for h in (a, b)
    ])
    stats = summarize_snapshot(pooled)["h"]
    print(f"  merged sketch: count={stats['count']:.0f} "
          f"min={stats['min']} max={stats['max']} "
          f"p50~{stats['p50']:.2f}")


def main():
    pass_telemetry_tour()
    live_daemon_tour()
    merging_tour()


if __name__ == "__main__":
    main()
