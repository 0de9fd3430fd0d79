"""Diagnose an I/O-bound pipeline (§5.2) and plan read parallelism.

A ResNet pipeline on a heavily rate-limited store: Plumber's byte
accounting converts traced reads into an I/O cost per minibatch, joins
it with the measured bandwidth curve, and reports the disk as the
bottleneck with the minimal read parallelism needed to saturate it.

Run: ``python examples/disk_bound_diagnosis.py``
"""

from repro.analysis.tables import format_table
from repro.core import (
    OptimizeSpec,
    Plumber,
    benchmark_source_curve,
    io_bound_throughput,
    solve_allocation,
)
from repro.host import setup_a
from repro.host.disk import cloud_storage
from repro.workloads import get_workload


def main():
    machine = setup_a().with_disk(cloud_storage())
    pipeline = get_workload("resnet").build(scale=0.05, parallelism=8)

    # --- Trace and derive the I/O cost per minibatch. ------------------
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=2.0, trace_warmup=0.5))
    model = plumber.model(pipeline)
    bpm = model.bytes_per_minibatch
    print(f"I/O load: {bpm / 1e6:.1f} MB per minibatch "
          f"-> {io_bound_throughput(bpm, 100e6):.1f} minibatches per "
          "100 MB/s of bandwidth (the paper's 6.9 figure)\n")

    # --- Benchmark the empirical parallelism->bandwidth curve. ---------
    curve = benchmark_source_curve(pipeline, machine,
                                   parallelisms=(1, 2, 4, 8, 16, 32))
    rows = [
        (p, f"{bw / 1e6:.0f}")
        for p, bw in zip(curve.parallelisms, curve.bandwidths)
    ]
    print(format_table(("read parallelism", "achieved MB/s"), rows,
                       title="Empirical source curve (via rewriting)"))
    sat = curve.minimal_saturating_parallelism()
    print(f"\nminimal parallelism to saturate storage: {sat} streams "
          f"({curve.max_bandwidth / 1e6:.0f} MB/s peak)\n")

    # --- The LP folds the curve into its allocation. -------------------
    solution = solve_allocation(model)
    print(f"LP max rate: {solution.predicted_throughput:.1f} minibatches/s, "
          f"binding constraint: {solution.bottleneck}")
    print(f"LP chose source streams: "
          f"{ {k: round(v, 1) for k, v in solution.io_streams.items()} }")


if __name__ == "__main__":
    main()
