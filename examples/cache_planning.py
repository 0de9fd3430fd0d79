"""Cache planning and the ``pick_best`` annotation (§4.3, §5.3, Fig. 11).

Shows the memory side of Plumber on MultiBoxSSD and ResNet:

* materialized-size propagation (decode amplifies, filter trims),
* the greedy closest-to-root cache that fits in RAM,
* randomness taint (nothing past a seeded augmentation is cacheable),
* the Figure 11 ``@optimize(pick_best=...)`` query choosing between a
  fused (fast, uncacheable) and unfused (cacheable) decode.

Run: ``python examples/cache_planning.py``
"""

from repro.analysis.tables import format_table
from repro.core import OptimizeSpec, Plumber, optimize, plan_cache_greedy
from repro.core.rewriter import existing_cache
from repro.host import setup_c
from repro.workloads import build_resnet
from repro.workloads import get_workload


def main():
    machine = setup_c()

    # --- Materialization costs along the SSD pipeline. -----------------
    pipeline = get_workload("ssd").build(parallelism=8)
    plumber = Plumber(machine,
                      spec=OptimizeSpec(trace_duration=3.0, trace_warmup=0.5))
    model = plumber.model(pipeline)

    rows = []
    for node in model.pipeline.topological_order():
        rates = model.rates[node.name]
        size = ("inf" if rates.materialized_bytes == float("inf")
                else f"{rates.materialized_bytes / 1e9:.1f} GB")
        rows.append((rates.name, size, "yes" if rates.cacheable else "no"))
    print(format_table(("node", "materialized", "cacheable"), rows,
                       title="MultiBoxSSD materialization ladder"))

    decision = plan_cache_greedy(model)
    print(f"\ngreedy plan: {decision}")
    print("(the paper's §5.4 result: materialize after filtering — "
          "smaller than the decode output, removes decode CPU)\n")

    # --- Figure 11: pick_best over the fused/unfused decode. -----------
    scaled = machine.with_memory(2e9)

    @optimize(scaled, pick_best={"fused": [True, False]},
              spec=OptimizeSpec(trace_duration=1.5, trace_warmup=0.4))
    def loader_fn(fused=False):
        wl = get_workload("resnet")
        return build_resnet(catalog=wl.catalog_factory().scaled(0.004),
                            parallelism=1, fused=fused)

    chosen = loader_fn()
    cache = existing_cache(chosen)
    print(f"pick_best chose pipeline {chosen.name!r} "
          f"(cache node: {cache})")
    print("With memory to spare, the cacheable unfused variant wins even "
          "though its decode is slightly slower — the optimization an "
          "online tuner cannot see past cache cold-start.")


if __name__ == "__main__":
    main()
