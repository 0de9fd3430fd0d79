"""Run the optimizer as a persistent service and talk to it over HTTP.

Starts an :class:`~repro.service.OptimizationDaemon` backed by a
disk-persistent result store, submits a small mixed fleet as serialized
programs via ``POST /optimize``, long-polls ``GET /jobs/<id>?wait=``,
fetches the finished report, and prints ``GET /stats``. A second daemon
pointed at the same cache directory then serves the identical fleet
entirely from disk — the cheap, repeatable optimization service the paper argues for.

Run: ``python examples/service_daemon.py``
"""

import json
import tempfile
import urllib.request

from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.graph.serialize import pipeline_to_dict
from repro.service import BatchOptimizer, DiskStore, OptimizationDaemon


def call(url, body=None):
    """One JSON request against the daemon (stdlib only)."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method="POST" if body else "GET",
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.load(resp)


def submit_and_wait(base, fleet, spec):
    """POST a fleet of serialized programs, wait until done, return report."""
    body = {
        "spec": spec.to_dict(),
        "jobs": [
            {"name": job.name,
             "pipeline": pipeline_to_dict(job.pipeline),
             "machine": job.machine.to_dict()}
            for job in fleet
        ],
    }
    accepted = call(f"{base}/optimize", body)
    print(f"submitted {accepted['jobs']} jobs as {accepted['id']} "
          f"(status: {accepted['status']})")
    while True:
        # The daemon answers when the batch finishes (or after 10 s).
        status = call(f"{base}/jobs/{accepted['id']}?wait=10")
        if status["status"] in ("done", "failed"):
            break
    assert status["status"] == "done", status
    return call(f"{base}/report/{accepted['id']}")


def main():
    spec = OptimizeSpec(iterations=1, backend="analytic",
                        trace_duration=1.0, trace_warmup=0.25)
    fleet = generate_pipeline_fleet(
        num_jobs=12, distinct=4, seed=11,
        config=FleetConfig(optimize_spec=spec),  # default §3 domain mix
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-daemon-cache-")

    print("== first daemon process (cold disk cache)")
    with OptimizationDaemon(
        BatchOptimizer(executor="thread", max_workers=4, spec=spec,
                       store=DiskStore(cache_dir)),
    ) as daemon:
        report = submit_and_wait(daemon.url, fleet, spec)
        for job in report["jobs"][:4]:
            print(f"  {job['name']}: speedup "
                  f"{job['speedup'] and round(job['speedup'], 2)}x, "
                  f"bottleneck {job['bottleneck']}, "
                  f"{'hit' if job['cache_hit'] else 'miss'} "
                  f"(producer: {job['provenance']['producer']})")
        print(f"  ... {len(report['jobs'])} jobs, "
              f"{report['cache_hit_rate']:.0%} cache hits")
        stats = call(f"{daemon.url}/stats")
        print(f"  stats: {stats['cache']['store_entries']} entries on disk, "
              f"in-flight {stats['in_flight_jobs']}, "
              f"rejected {stats['rejected_batches']}")

    print("== second daemon process (warm disk cache, fresh service)")
    with OptimizationDaemon(
        BatchOptimizer(executor="thread", max_workers=4, spec=spec,
                       store=DiskStore(cache_dir)),
    ) as daemon:
        report = submit_and_wait(daemon.url, fleet, spec)
        print(f"  {report['cache_hit_rate']:.0%} of jobs served from the "
              "persistent store — no optimization re-ran")
        assert report["cache_hit_rate"] == 1.0


if __name__ == "__main__":
    main()
