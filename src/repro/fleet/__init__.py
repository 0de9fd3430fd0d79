"""Fleet analysis (§3): are input bottlenecks common, and why?

The paper measures two million production jobs; we generate a synthetic
job population (random pipelines, configurations, hosts, and
accelerators) and push every job through the same analytic operational
model the rest of the library uses, then run the paper's measurement
code: the ``Next``-latency CDF (Figure 3) and the CPU/memory-bandwidth
utilization breakdown (Figure 4).
"""

from repro.fleet.analysis import (
    FleetSummary,
    SpeedupStats,
    bottleneck_histogram,
    speedup_distribution,
    summarize,
)
from repro.fleet.generator import (
    FleetConfig,
    FleetPipeline,
    JobSample,
    generate_fleet,
    generate_pipeline_fleet,
)

__all__ = [
    "FleetConfig",
    "FleetPipeline",
    "FleetSummary",
    "JobSample",
    "SpeedupStats",
    "bottleneck_histogram",
    "generate_fleet",
    "generate_pipeline_fleet",
    "speedup_distribution",
    "summarize",
]
