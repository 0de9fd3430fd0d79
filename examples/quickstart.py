"""Quickstart: build a pipeline and let Plumber fix it.

This walks the paper's Figure 1 flow end to end on a toy dataset:

1. declare an ImageNet-style pipeline with the fluent graph API, trace a
   simulated run and print Plumber's bottleneck report,
2. apply the one-line optimizer,
3. compare before/after throughput.

Run: ``python examples/quickstart.py``
"""

from repro.core import OptimizeSpec, Plumber, explain
from repro.graph import CostModel, UserFunction, from_tfrecords
from repro.host import setup_a
from repro.io import toy_catalog
from repro.runtime import run_pipeline


def build_pipeline(catalog):
    """A miniature vision pipeline: parse -> decode -> crop -> batch."""
    parse = UserFunction("parse", cost=CostModel(cpu_seconds=1e-4))
    decode = UserFunction(
        "decode",
        cost=CostModel(cpu_seconds=3e-3),  # the expensive op
        size_ratio=6.0,
    )
    crop = UserFunction(
        "crop",
        cost=CostModel(cpu_seconds=3e-4),
        output_bytes=64.0,
        accesses_seed=True,  # random crop: uncacheable past this point
    )
    return (
        from_tfrecords(catalog, parallelism=1, name="source")
        .map(parse, parallelism=1, name="map_parse")
        .map(decode, parallelism=1, name="map_decode")
        .map(crop, parallelism=1, name="map_crop")
        .batch(32, name="batch")
        .prefetch(4, name="prefetch")
        .repeat(None, name="repeat")
        .build("quickstart")
    )


def main():
    catalog = toy_catalog(num_files=16, records_per_file=256,
                          bytes_per_record=50e3)
    pipeline = build_pipeline(catalog)
    machine = setup_a()

    # --- 1. Simulated baseline + Plumber's EXPLAIN. -------------------
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=2.0, trace_warmup=0.5))
    model = plumber.model(pipeline)
    print(explain(model))
    print()

    # --- 2. One-line optimization. -------------------------------------
    result = plumber.optimize(pipeline)
    for decision in result.decisions:
        print("decision:", decision)

    # --- 3. Before/after throughput. -----------------------------------
    before = run_pipeline(pipeline, machine, duration=2.0, warmup=0.5,
                          trace=False)
    after = run_pipeline(result.pipeline, machine, duration=2.0, warmup=0.5,
                         trace=False)
    print(f"\nnaive     : {before.examples_per_second:8.0f} examples/s")
    print(f"optimized : {after.examples_per_second:8.0f} examples/s "
          f"({after.throughput / before.throughput:.1f}x)")


if __name__ == "__main__":
    main()
