"""perfbench: the repository's benchmark for Plumber.

    python3 perfbench/run.py --workload tune_paper --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported from ``./src``.
Workloads (see ``design.json`` for why each was chosen):

* ``tune_paper`` - in-process ``optimize_pipeline`` sweeps over the five
  paper pipelines (simulate backend);
* ``fleet_cold`` - one client sends batches of 8 never-seen fleet jobs
  to a daemon subprocess (analytic backend, disk store) and polls
  every 10 ms.

``--trace 0`` sets up several times (``setup_s`` is the median), runs
the closed loop for ``--seconds`` untraced, checks the outputs, then
measures ``tuned_speedup_geomean`` with a long simulation window. Times
are in reference seconds (``hostclock.py``); the measured ones are
printed beside them.
``--trace 1`` runs the loop for half the time untraced and half with
every layer call wrapped, and reports per-layer calls and self time per job. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETUP_REPEATS = 3
#: the stage-sum check: wrapped layers must explain this share of every
#: workload's request time (ROADMAP aim 1)
MAX_UNATTRIBUTED = 0.10
#: layer call sites wrapped in the benchmark process (the daemon
#: launcher wraps its own)
CLIENT_MODULES = ("repro.runtime.backends", "repro.core.plumber",
                  "repro.core.passes", "repro.service.client")
ROUTES = {"optimize": ("service.client.OptimizationClient.submit",
                       "service.daemon.OptimizationDaemon.submit"),
          "jobs": ("service.client.OptimizationClient.status",
                   "service.daemon.OptimizationDaemon.job_status"),
          "report": ("service.client.OptimizationClient.raw_report",
                     "service.daemon.OptimizationDaemon.report_json")}


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics.
# ----------------------------------------------------------------------
def end_to_end(wl, seconds: float) -> dict:
    from hostclock import HostClock
    from workloads import self_cpu

    setups, raw_setups = [], []
    clock = HostClock(self_cpu)
    for k in range(SETUP_REPEATS):
        clock.tick()
        began = time.monotonic()
        state = wl.setup()
        raw_setups.append(time.monotonic() - began)
        setups.append(clock.tick())
        if k < SETUP_REPEATS - 1:
            wl.teardown(state)
    try:
        phase = wl.run(state, seconds)
        failed = phase.failed + wl.check(state)
        peak_rss = wl.peak_rss_mb(state)
    finally:
        wl.teardown(state)
    began = time.monotonic()
    speedup = wl.evaluate(state)
    evaluator_s = time.monotonic() - began
    notes = [
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
        f"host speed factor (measured s per reference s): median "
        f"{phase.clock.median_factor():.3f}, range "
        f"{min(phase.clock.factors):.3f}-{max(phase.clock.factors):.3f}",
        f"as measured: jobs_per_s = {phase.jobs_per_s(raw=True):.6g}, "
        f"latency_p50_s = {phase.latency(0.5, raw=True):.6g}, "
        f"latency_p90_s = {phase.latency(0.9, raw=True):.6g}, "
        f"cpu_s_per_job = {phase.cpu_s_per_job(raw=True):.6g}, "
        f"setup_s = {statistics.median(raw_setups):.6g}",
        f"evaluator_s = {evaluator_s:.3f} s (tuned_speedup_geomean, "
        "outside the timed phase and set-up)",
        f"latency samples = {len(phase.latencies)}",
        f"error_rate = {failed / max(phase.attempted, 1):.4f} ratio",
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": phase.jobs_per_s(),
        "latency_p50_s": phase.latency(0.5),
        "latency_p90_s": phase.latency(0.9),
        "cpu_s_per_job": phase.cpu_s_per_job(),
        "peak_rss_mb": peak_rss,
        "tuned_speedup_geomean": speedup,
    }
    return {"attempted": phase.attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics.
# ----------------------------------------------------------------------
def per_layer(wl, seconds: float) -> dict:
    from tracing import Tracer, attribute, load_design
    from workloads import sim_events

    # Half the time untraced, half traced: the difference between the
    # two rates is the tracing overhead.
    seconds /= 2
    state = wl.setup()
    try:
        untraced = wl.run(state, seconds)
        failed = untraced.failed + wl.check(state)
        daemon_metrics = state["daemon"].metrics() if "daemon" in state else {}
    finally:
        wl.teardown(state)

    tracer = Tracer("client")
    tracer.install(CLIENT_MODULES)
    try:
        state = wl.setup(tracer)
        try:
            tracer.clear()
            events0 = sim_events()
            traced = wl.run(state, seconds, tracer)
            events = sim_events() - events0
        finally:
            wl.teardown(state)
    finally:
        tracer.uninstall()
    failed += traced.failed
    spans = tracer.records() + (state["daemon"].spans()
                                if "daemon" in state else [])
    attr = attribute(spans)
    jobs = max(traced.jobs, 1)
    batches = attr["requests"] if "daemon" in state else 0
    calls, self_s = attr["calls"], attr["self_s"]

    m = {}
    names = list(dict.fromkeys(
        c["name"] for layer in load_design()["layers"]
        for c in layer["calls"]))
    for name in names:
        m[f"{name}.calls_per_job"] = calls.get(name, 0) / jobs
        m[f"{name}.self_s_per_job"] = self_s.get(name, 0.0) / jobs
    run_s = self_s.get("runtime.executor.run_pipeline", 0.0)
    m["runtime.executor.sim_events_per_job"] = events / jobs
    m["runtime.executor.events_per_s"] = events / run_s if run_s else 0.0
    errors = [abs(p / o - 1.0) for p, o in traced.predictions
              if o > 0 and math.isfinite(p) and math.isfinite(o)]
    m["core.lp.prediction_error_p50"] = (
        statistics.median(errors) if errors else 0.0)
    m["core.passes.traces_per_job"] = (
        calls.get("runtime.executor.run_pipeline", 0)
        + calls.get("runtime.analytic.analytic_trace", 0)) / jobs
    m["core.passes.actions_per_job"] = sum(
        n for name, n in calls.items()
        if name.startswith("core.rewriter.")) / jobs
    found, gets = attr["tags"].get("service.store.DiskStore.get", (0, 0))
    m["service.store.hit_ratio"] = found / gets if gets else 0.0
    for route in ROUTES:
        m[f"service.daemon.{route}_route_p50_s"] = _series_p50(
            daemon_metrics, "repro_daemon_request_seconds", route)
    m["service.daemon.batch_p50_s"] = _series_p50(
        daemon_metrics, "repro_daemon_batch_seconds", None)
    done, polls = attr["tags"].get(
        "service.client.OptimizationClient.status", (0, 0))
    m["service.client.polls_per_batch"] = polls / batches if batches else 0.0
    m["service.client.wasted_poll_ratio"] = (
        (polls - done) / polls if polls else 0.0)
    m["service.client.poll_sleep_s_per_batch"] = (
        _duration(spans, "service.client.poll_sleep") / batches
        if batches else 0.0)
    for route, pair in ROUTES.items():
        m[f"service.http.{route}.overhead_s_per_request"] = \
            _http_overhead(spans, *pair)
    traced_rate = traced.jobs_per_s()
    untraced_rate = untraced.jobs_per_s()
    share = attr["unattributed_s"] / attr["total_s"]
    m["bench.untraced_jobs_per_s"] = untraced_rate
    m["bench.traced_jobs_per_s"] = traced_rate
    m["bench.tracing_overhead"] = untraced_rate / traced_rate - 1.0
    m["bench.unattributed_share"] = share
    if share > MAX_UNATTRIBUTED:
        failed += 1

    top = sorted(((s, n) for n, s in self_s.items()), reverse=True)
    notes = [f"{attr['requests']} traced requests, "
             f"{attr['total_s']:.3f} s request time"]
    notes += [f"  {s / attr['total_s']:7.2%}  {n}" for s, n in top if s > 0]
    groups = {}
    for name, seconds in self_s.items():
        group = name.split(".")[0]
        groups[group] = groups.get(group, 0.0) + seconds
    notes.append("by layer group: " + ", ".join(
        f"{g} {s / attr['total_s']:.1%}" for g, s in sorted(groups.items())))
    batch_s = _duration(spans, "service.batch.BatchOptimizer.optimize_fleet")
    if batch_s:
        solver_s = sum(s for n, s in self_s.items()
                       if n.startswith(("core.", "runtime.analytic.")))
        notes.append(f"runtime.analytic + core.* hold {solver_s / batch_s:.1%}"
                     " of the daemon's batch time")
    notes += [
        f"  {share:7.2%}  unattributed remainder "
        f"({attr['unattributed_s']:.4f} s; stage-sum check "
        f"{'passed' if share <= MAX_UNATTRIBUTED else 'FAILED'}, "
        f"limit {MAX_UNATTRIBUTED:.0%})",
        f"tracing overhead: {untraced_rate:.3f} jobs/s untraced, "
        f"{traced_rate:.3f} jobs/s traced",
    ]
    return {"attempted": untraced.attempted + traced.attempted,
            "failed": failed, "metrics": m, "notes": notes}


def _series_p50(snapshot: dict, name: str, route) -> float:
    for sample in snapshot.get(name, {}).get("samples", []):
        if route is None or sample["labels"].get("route") == route:
            return sample["value"]["p50"]
    return 0.0


def _duration(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name and s["rid"] is not None)


def _http_overhead(spans, client_name: str, daemon_name: str) -> float:
    """Mean client request time minus the daemon's time in the route
    it reached, over requests answered inside the measured batches."""
    served = {}
    for s in spans:
        if s["name"] == daemon_name and s["rid"] is not None:
            served.setdefault(s["rid"], []).append(s)
    gaps = []
    for s in spans:
        if s["name"] != client_name or s["rid"] is None:
            continue
        inner = [d for d in served.get(s["rid"], ())
                 if d["start"] >= s["start"] and d["end"] <= s["end"]]
        if inner:
            gaps.append((s["end"] - s["start"])
                        - (inner[0]["end"] - inner[0]["start"]))
    return statistics.fmean(gaps) if gaps else 0.0


# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](seed, workdir)
        result = (per_layer if trace else end_to_end)(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}")
    for line in result["notes"]:
        print(f"# {line}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def smoke() -> int:
    """Run every workload briefly in both modes through the command
    line, and check that each declared metric arrives with its unit and
    that the output checks pass."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, cwd=ROOT)
            what = f"{workload} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in
                        declared["per_layer" if trace else "end_to_end"]}
            got = {n: v["unit"] for n, v in out["metrics"].items()}
            if got != expected:
                problems.append(f"{what}: metrics or units differ")
            if not (out["correct"] and out["failed"] == 0
                    and out["attempted"] >= 1):
                problems.append(f"{what}: checks failed: {out}")
            print(f"{what}: {'ok' if len(problems) == before else 'FAIL'}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Plumber benchmark (see module docstring)")
    parser.add_argument("--workload", choices=("tune_paper", "fleet_cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check output")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
