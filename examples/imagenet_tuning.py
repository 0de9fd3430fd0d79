"""Diagnose and tune the paper's ResNet/ImageNet pipeline (§5.1, §5.4).

Reproduces the interactive debugging loop of Figure 6 on Setup A, then
the end-to-end TPU-host comparison of Figure 10: naive vs AUTOTUNE vs
HEURISTIC vs Plumber (which adds a cache at the source and wins).

Run: ``python examples/imagenet_tuning.py``
"""

from repro.analysis.experiments import end_to_end, sequential_tuning
from repro.analysis.tables import format_table
from repro.core import OptimizeSpec, Plumber, explain
from repro.host import setup_a, setup_c
from repro.workloads import get_workload


def main():
    # --- Interactive bottleneck hunting on the 16-core desktop. -------
    machine = setup_a()
    pipeline = get_workload("resnet").build(scale=0.05)

    print("Step-by-step tuning (one parallelism bump per step):")
    run = sequential_tuning(pipeline, machine, steps=12)
    rows = [
        (s.step, s.target or "-", f"{s.observed:.1f}", f"{s.lp_estimate:.1f}")
        for s in run.steps
    ]
    print(format_table(("step", "bumped node", "observed mb/s",
                        "LP bound mb/s"), rows))
    print()

    # What does Plumber say about the tuned pipeline?
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=2.0, trace_warmup=0.5))
    model = plumber.model(pipeline)
    print(explain(model))
    print()

    # --- End-to-end on the TPU host (Setup C). -------------------------
    print("End-to-end on Setup C (96 cores, cloud storage, ResNet-18 "
          "model cap ~12.7k img/s):")
    row = end_to_end(get_workload("resnet18", end_to_end=True), setup_c())
    rel = row.relative()
    print(format_table(
        ("config", "images/s", "speedup over naive"),
        [
            ("naive", f"{row.naive:.0f}", "1.0x"),
            ("AUTOTUNE", f"{row.autotune:.0f}", f"{rel.autotune:.1f}x"),
            ("HEURISTIC", f"{row.heuristic:.0f}", f"{rel.heuristic:.1f}x"),
            ("Plumber", f"{row.plumber:.0f}", f"{rel.plumber:.1f}x"),
        ],
    ))
    print("\nPlumber reaches the accelerator's rate by caching the "
          "source in memory, bypassing the cloud-storage bound that "
          "caps the other tuners.")


if __name__ == "__main__":
    main()
