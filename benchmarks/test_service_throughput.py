"""Sustained-throughput + saturation benchmark for the daemon serving
path, measured from the daemon's **own** ``GET /metrics``.

Two phases against live daemon processes:

* **Sustained**: N client threads run submit → poll → report loops on a
  cache-warm fleet for a fixed window. Client-side we count completed
  round trips (req/s); server-side we then scrape ``/metrics`` and read
  the daemon's route-latency histograms — the p50/p99 the benchmark
  reports are the daemon's own streaming-quantile sketches, not client
  stopwatch numbers, so the observability subsystem is itself under
  test: its numbers must agree with what the clients experienced.
* **Saturation**: a one-job admission lane is hammered by more
  concurrent submitters than it can hold. Every client-observed 429
  must reappear in ``repro_daemon_admission_rejections_total`` — the
  rejection counter and the wire protocol cannot disagree.

Results go to ``benchmarks/run/BENCH_service_throughput.json``
(machine-readable, uploaded as a CI artifact by the ``throughput``
job) plus the usual text table.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from benchmarks.conftest import RUN_DIR, emit
from repro.analysis.tables import format_table
from repro.core.spec import OptimizeSpec
from repro.fleet.generator import FleetConfig, generate_pipeline_fleet
from repro.service import (
    BatchOptimizer,
    OptimizationClient,
    OptimizationDaemon,
)
from repro.service.errors import ClientError

NUM_CLIENTS = 4
SUSTAIN_SECONDS = 3.0
NUM_JOBS = 4
DISTINCT = 2
SEED = 23

SPEC = OptimizeSpec(iterations=1, backend="analytic",
                    trace_duration=1.0, trace_warmup=0.25)


@pytest.fixture(scope="module")
def fleet():
    return generate_pipeline_fleet(
        num_jobs=NUM_JOBS, distinct=DISTINCT, seed=SEED,
        config=FleetConfig(optimize_spec=SPEC),
    )


def _quantiles(snapshot: dict, name: str, route: str) -> dict:
    """p50/p99/count for one route's latency series in a /metrics
    JSON snapshot."""
    for sample in snapshot[name]["samples"]:
        if sample["labels"].get("route") == route:
            value = sample["value"]
            return {"count": value["count"], "p50": value["p50"],
                    "p99": value["p99"]}
    raise AssertionError(f"no {name} series for route {route!r}")


class TestServiceThroughput:
    def test_sustained_and_saturation(self, fleet, once):
        payload = once(self._run, fleet)
        emit("BENCH_service_throughput", self._table(payload), RUN_DIR)
        (RUN_DIR / "BENCH_service_throughput.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

        sustained = payload["sustained"]
        # The serving path kept up: every round trip completed, and the
        # warm (cache-hit) path sustains a non-trivial rate even under
        # a deliberately loose floor — this is a smoke bound for CI
        # runners, not a performance claim.
        assert sustained["errors"] == 0
        assert sustained["completed_batches"] >= NUM_CLIENTS
        assert sustained["batches_per_second"] > 1.0
        # The daemon's own sketches are coherent and non-degenerate.
        for route in ("optimize", "jobs"):
            q = sustained["daemon_request_seconds"][route]
            assert q["count"] >= sustained["completed_batches"]
            assert 0 < q["p50"] <= q["p99"]
        # Served batches (daemon-counted) match client round trips.
        assert sustained["daemon_batches_done"] == \
            sustained["completed_batches"] + 1  # + the warmup batch
        # The lanes drained back to idle.
        assert all(v == 0 for v in sustained["lane_in_flight"].values())

        saturation = payload["saturation"]
        # The hammer actually saturated the one-slot lane...
        assert saturation["client_429s"] >= 1
        assert saturation["accepted"] >= 1
        # ...and the admission counter agrees with the wire exactly.
        assert saturation["daemon_rejections"]["analytic"] == \
            saturation["client_429s"]

    # -- phases --------------------------------------------------------
    def _run(self, fleet) -> dict:
        return {
            "sustained": self._sustained_phase(fleet),
            "saturation": self._saturation_phase(fleet),
        }

    def _sustained_phase(self, fleet) -> dict:
        daemon = OptimizationDaemon(
            BatchOptimizer(executor="serial", spec=SPEC)).start()
        try:
            # Warm the result store: the sustained loop then measures
            # the serving path (HTTP + admission + store hit), not
            # optimizer wallclock.
            OptimizationClient(daemon.url).optimize_fleet(fleet)

            completed = [0] * NUM_CLIENTS
            errors = [0] * NUM_CLIENTS
            deadline = time.perf_counter() + SUSTAIN_SECONDS

            def hammer(idx: int) -> None:
                client = OptimizationClient(daemon.url)
                while time.perf_counter() < deadline:
                    try:
                        report = client.optimize_fleet(fleet, timeout=60)
                        assert report.cache_misses == 0
                        completed[idx] += 1
                    except Exception:  # noqa: BLE001 - counted, asserted 0
                        errors[idx] += 1
                client.close()

            threads = [
                threading.Thread(target=hammer, args=(i,), daemon=True)
                for i in range(NUM_CLIENTS)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            elapsed = time.perf_counter() - start

            # The daemon reads its own telemetry back over the wire.
            status, snapshot, _ = OptimizationClient(daemon.url)._request(
                "GET", "/metrics?format=json")
            assert status == 200
            batches_done = sum(
                s["value"]
                for s in snapshot["repro_daemon_batches_total"]["samples"]
                if s["labels"].get("status") == "done"
            )
            return {
                "clients": NUM_CLIENTS,
                "window_seconds": round(elapsed, 3),
                "completed_batches": sum(completed),
                "errors": sum(errors),
                "batches_per_second": round(sum(completed) / elapsed, 2),
                "jobs_per_second": round(
                    sum(completed) * NUM_JOBS / elapsed, 2),
                "daemon_request_seconds": {
                    route: _quantiles(
                        snapshot, "repro_daemon_request_seconds", route)
                    for route in ("optimize", "jobs", "report")
                },
                "daemon_batches_done": int(batches_done),
                "lane_in_flight": {
                    s["labels"]["lane"]: s["value"]
                    for s in snapshot[
                        "repro_daemon_lane_in_flight"]["samples"]
                },
            }
        finally:
            daemon.close(wait=False)

    def _saturation_phase(self, fleet) -> dict:
        class SlowOptimizer(BatchOptimizer):
            def optimize_fleet(self, jobs):
                time.sleep(0.4)
                return super().optimize_fleet(jobs)

        daemon = OptimizationDaemon(
            SlowOptimizer(executor="serial", spec=SPEC),
            max_analytic_jobs=NUM_JOBS,  # exactly one batch in flight
        ).start()
        try:
            outcomes: list = [None] * (NUM_CLIENTS * 2)

            def submit(idx: int) -> None:
                # max_retries=0: a 429 surfaces instead of being
                # absorbed, so we can count them on the client side.
                client = OptimizationClient(daemon.url, max_retries=0)
                try:
                    accepted = client.submit(fleet, spec=SPEC)
                    client.wait(accepted["id"], timeout=60)
                    outcomes[idx] = "accepted"
                except ClientError as exc:
                    outcomes[idx] = ("429" if exc.status == 429
                                     else f"error:{exc}")
                finally:
                    client.close()

            threads = [
                threading.Thread(target=submit, args=(i,), daemon=True)
                for i in range(len(outcomes))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)

            status, snapshot, _ = OptimizationClient(daemon.url)._request(
                "GET", "/metrics?format=json")
            assert status == 200
            rejections = {
                s["labels"]["lane"]: int(s["value"])
                for s in snapshot[
                    "repro_daemon_admission_rejections_total"]["samples"]
                if s["labels"]
            }
            return {
                "concurrent_submitters": len(outcomes),
                "lane_capacity_jobs": NUM_JOBS,
                "accepted": outcomes.count("accepted"),
                "client_429s": outcomes.count("429"),
                "other_outcomes": [o for o in outcomes
                                   if o not in ("accepted", "429")],
                "daemon_rejections": rejections,
            }
        finally:
            daemon.close(wait=False)

    # -- reporting -----------------------------------------------------
    @staticmethod
    def _table(payload: dict) -> str:
        s, sat = payload["sustained"], payload["saturation"]
        opt = s["daemon_request_seconds"]["optimize"]
        jobs = s["daemon_request_seconds"]["jobs"]
        rows = [
            ("client threads", s["clients"]),
            ("window", f"{s['window_seconds']:.1f} s"),
            ("batch round trips", s["completed_batches"]),
            ("sustained batches/s", s["batches_per_second"]),
            ("sustained jobs/s", s["jobs_per_second"]),
            ("daemon POST /optimize p50",
             f"{opt['p50'] * 1e3:.2f} ms"),
            ("daemon POST /optimize p99",
             f"{opt['p99'] * 1e3:.2f} ms"),
            ("daemon GET /jobs p50", f"{jobs['p50'] * 1e3:.2f} ms"),
            ("daemon GET /jobs p99", f"{jobs['p99'] * 1e3:.2f} ms"),
            ("saturation submitters", sat["concurrent_submitters"]),
            ("saturation accepted", sat["accepted"]),
            ("saturation 429s (client)", sat["client_429s"]),
            ("saturation rejections (daemon)",
             sat["daemon_rejections"].get("analytic", 0)),
        ]
        return format_table(
            ("metric", "value"), rows,
            title="Daemon serving path: sustained + saturation "
                  "(latencies from the daemon's own /metrics)")
