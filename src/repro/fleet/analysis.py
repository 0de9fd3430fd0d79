"""Fleet measurement code: the Figure 3 CDF and Figure 4 breakdown.

The paper's headline fleet numbers:

* 92% of jobs exceed 50 µs mean ``Next`` latency, 62% exceed 1 ms,
  16% exceed 100 ms (Fig. 3);
* jobs above 100 ms average ~11% CPU and ~18% memory-bandwidth
  utilization — host hardware is rarely saturated (Fig. 4, Obs. 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.generator import JobSample

#: Figure 3's thresholds (seconds).
LATENCY_THRESHOLDS = (50e-6, 1e-3, 100e-3)


@dataclass(frozen=True)
class UtilizationBand:
    """Mean utilizations for one latency band of jobs."""

    label: str
    jobs: int
    mean_cpu: float
    mean_membw: float


@dataclass(frozen=True)
class FleetSummary:
    """All fleet statistics the paper reports, as :func:`summarize`
    returns them."""

    num_jobs: int
    frac_over_50us: float
    frac_over_1ms: float
    frac_over_100ms: float
    bands: Tuple[UtilizationBand, ...]
    frac_input_bound: float

    def band(self, label: str) -> UtilizationBand:
        """Look up a band by label."""
        for b in self.bands:
            if b.label == label:
                return b
        raise KeyError(f"no band {label!r}")


def latency_fractions(
    jobs: Sequence[JobSample],
    thresholds: Sequence[float] = LATENCY_THRESHOLDS,
) -> List[float]:
    """Fraction of jobs at or above each latency threshold.

    The comparison is inclusive (``>=``) so that a job sitting exactly on
    a threshold belongs to the same side as :func:`summarize`'s
    ``low <= x < high`` utilization bands — a job at exactly 100 ms is in
    the ``>100ms`` band *and* counted by ``frac_over_100ms``.
    """
    if not jobs:
        raise ValueError("no jobs to analyze")
    latencies = np.array([j.next_latency for j in jobs])
    return [float(np.mean(latencies >= t)) for t in thresholds]


def latency_cdf(
    jobs: Sequence[JobSample], points: int = 50
) -> List[Tuple[float, float]]:
    """(latency, fraction of jobs below) pairs — Figure 3's curve."""
    latencies = np.sort([j.next_latency for j in jobs])
    qs = np.linspace(0.0, 1.0, points)
    return [(float(np.quantile(latencies, q)), float(q)) for q in qs]


def summarize(jobs: Sequence[JobSample]) -> FleetSummary:
    """Compute every fleet statistic the paper reports."""
    over_50us, over_1ms, over_100ms = latency_fractions(jobs)
    bands = []
    for label, low, high in (
        ("<50us", 0.0, 50e-6),
        ("50us-100ms", 50e-6, 100e-3),
        (">100ms", 100e-3, float("inf")),
    ):
        members = [j for j in jobs if low <= j.next_latency < high]
        if members:
            bands.append(
                UtilizationBand(
                    label=label,
                    jobs=len(members),
                    mean_cpu=float(np.mean([j.cpu_utilization for j in members])),
                    mean_membw=float(
                        np.mean([j.membw_utilization for j in members])
                    ),
                )
            )
        else:
            bands.append(UtilizationBand(label, 0, 0.0, 0.0))
    return FleetSummary(
        num_jobs=len(jobs),
        frac_over_50us=over_50us,
        frac_over_1ms=over_1ms,
        frac_over_100ms=over_100ms,
        bands=tuple(bands),
        frac_input_bound=float(np.mean([j.input_bound for j in jobs])),
    )


# ----------------------------------------------------------------------
# Fleet *optimization* aggregates (consumed by repro.service's report).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpeedupStats:
    """Distribution summary of per-job optimization speedups."""

    count: int
    geomean: float
    minimum: float
    median: float
    maximum: float


def speedup_distribution(speedups: Iterable[float]) -> SpeedupStats:
    """Summarize per-job speedups (non-finite entries are dropped)."""
    values = np.array([s for s in speedups if np.isfinite(s)], dtype=float)
    if values.size == 0:
        return SpeedupStats(0, float("nan"), float("nan"),
                            float("nan"), float("nan"))
    return SpeedupStats(
        count=int(values.size),
        geomean=float(np.exp(np.mean(np.log(np.maximum(values, 1e-12))))),
        minimum=float(values.min()),
        median=float(np.median(values)),
        maximum=float(values.max()),
    )


def bottleneck_histogram(bottlenecks: Iterable[str]) -> Dict[str, int]:
    """Count how often each bottleneck label binds across a fleet,
    most-common first — the batch service's Figure-4-style breakdown of
    *why* jobs were slow."""
    counts = Counter(bottlenecks)
    return dict(counts.most_common())


def merged_cache_counts(
    job_outcomes: Iterable[Tuple[str, bool]],
) -> Tuple[int, int]:
    """``(cache_hits, cache_misses)`` for a merged view of many runs.

    ``job_outcomes`` is ``(cache_key, was_hit)`` per job, in any order.
    Each distinct key counts as at most **one** miss fleet-wide: when the
    same key was computed independently in two shards (or two service
    processes), the duplicate computations are surplus — under one
    global cache they would have been hits — so the merged hit-rate
    arithmetic reports exactly one distinct optimization per key.
    This is the single place that arithmetic lives;
    :meth:`repro.service.FleetOptimizationReport.merge` delegates here.
    """
    seen_missed: set = set()
    hits = misses = 0
    for key, was_hit in job_outcomes:
        if was_hit or key in seen_missed:
            hits += 1
        else:
            seen_missed.add(key)
            misses += 1
    return hits, misses


def merge_degraded_sections(
    sections: Iterable[Optional[dict]],
) -> Optional[dict]:
    """Combine per-report ``degraded`` sections into one.

    A ``degraded`` section records shard-fabric faults survived while
    producing a report: ``failed_shards`` (one record per failed
    dispatch: host, error kind/text, the jobs it held), ``rehomed_jobs``
    (job name → where it moved and how many re-dispatch attempts it
    took), and ``redispatch_rounds``. Merging concatenates the failure
    records, unions the re-homed jobs (later sections win on a name
    collision — they describe the later dispatch), and sums the rounds.
    All-``None`` inputs merge to ``None``: a fully healthy fleet's
    report carries no degraded section at all, byte-identically to a
    report produced before the fault-tolerance layer existed.
    This is the single place that arithmetic lives;
    :meth:`repro.service.FleetOptimizationReport.merge` delegates here.
    """
    present = [s for s in sections if s]
    if not present:
        return None
    merged: dict = {"failed_shards": [], "rehomed_jobs": {},
                    "redispatch_rounds": 0}
    for section in present:
        merged["failed_shards"].extend(section.get("failed_shards", ()))
        merged["rehomed_jobs"].update(section.get("rehomed_jobs", {}))
        merged["redispatch_rounds"] += section.get("redispatch_rounds", 0)
    return merged
