"""Cache planning and the ``pick_best`` annotation (§4.3, §5.3, Fig. 11).

Shows the memory side of Plumber on MultiBoxSSD and ResNet:

* materialized-size propagation (decode amplifies, filter trims),
* the greedy closest-to-root cache that fits in RAM,
* randomness taint (nothing past a seeded augmentation is cacheable),
* the Figure 11 ``@optimize(pick_best=...)`` query choosing between a
  fused (fast, uncacheable) and unfused (cacheable) decode, scored by
  each variant's certified throughput over the trace window.

Run: ``python examples/cache_planning.py``
"""

from repro.analysis.tables import format_table
from repro.core import OptimizeSpec, Plumber, optimize, plan_caches
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

    decision = plan_caches(model)[0]
    print(f"\ngreedy plan: {decision}")
    print("(the paper's §5.4 result: materialize after filtering — "
          "smaller than the decode output, removes decode CPU)\n")

    # --- Figure 11: pick_best over the fused/unfused decode. -----------
    spec = OptimizeSpec(trace_duration=1.5, trace_warmup=0.4)

    def build(fused):
        wl = get_workload("resnet")
        return build_resnet(catalog=wl.catalog_factory().scaled(0.004),
                            parallelism=1, fused=fused)

    rows = []
    for memory in (2e9, 8e9):
        plumber = Plumber(machine.with_memory(memory), spec=spec)
        best = plumber.pick_best({f"fused={f}": build(f)
                                  for f in (True, False)})
        for name, result in sorted(best.results.items()):
            rows.append((f"{memory / 1e9:.0f} GB", name,
                         result.caches[0].target if result.caches else "-",
                         f"{best.scores[name]:.1f}",
                         "<- chosen" if name == best.winner else ""))
    print(format_table(("memory", "variant", "cache after", "score", ""),
                       rows, title="pick_best: certified throughput"))
    print("The score is the certifying trace's throughput, and that trace "
          "starts cold: it includes the cache's populate epoch, so a "
          "cacheable variant wins only if its cache pays off within the "
          "trace window.")

    # The same query as the @optimize annotation returns the winner.
    @optimize(machine.with_memory(2e9), pick_best={"fused": [True, False]},
              spec=spec)
    def loader_fn(fused=False):
        return build(fused)

    print(f"\n@optimize(pick_best=...) at 2 GB returned "
          f"{loader_fn().name!r}")

if __name__ == "__main__":
    main()
