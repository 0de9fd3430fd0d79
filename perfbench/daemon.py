"""Launch the optimization daemon the service workloads measure.

    python3 perfbench/daemon.py --store DIR [--trace-out FILE]

Serves an :class:`~repro.service.OptimizationDaemon` over a
:class:`~repro.service.store.DiskStore` in ``DIR`` with the service
workloads' analytic spec, prints ``{"port": N}`` on one line once it
accepts connections, and stops when its standard input closes. With
``--trace-out`` it installs the benchmark's span wrappers before serving
and writes the spans to ``FILE`` on the way out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracing import Request, Tracer

DAEMON_MODULES = (
    "repro.runtime.backends", "repro.core.plumber", "repro.core.passes",
    "repro.service.batch", "repro.service.daemon", "repro.service.store",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.service import BatchOptimizer, OptimizationDaemon
    from repro.service.store import DiskStore
    from workloads import SERVICE_SPEC

    tracer = None
    if args.trace_out:
        tracer = Tracer("daemon")
        tracer.install(DAEMON_MODULES)
        run_batch = OptimizationDaemon._run_batch

        def _run_batch(self, batch):
            token = tracer.set_request(Request(batch.id))
            try:
                return run_batch(self, batch)
            finally:
                tracer.reset_request(token)

        tracer.patch(OptimizationDaemon, "_run_batch", _run_batch)

    # One optimizer thread: the optimizer holds the GIL, so a second
    # thread adds no throughput, only lock hand-offs that make the
    # timings depend on how the host schedules the daemon's threads.
    optimizer = BatchOptimizer(
        executor="thread",
        max_workers=1,
        spec=SERVICE_SPEC,
        store=DiskStore(args.store),
    )
    daemon = OptimizationDaemon(optimizer).start()
    try:
        print(json.dumps({"port": daemon.port}), flush=True)
        sys.stdin.read()  # returns when the benchmark closes our stdin
    finally:
        daemon.close(wait=True)
        if tracer is not None:
            Path(args.trace_out).write_text(json.dumps(tracer.records()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
