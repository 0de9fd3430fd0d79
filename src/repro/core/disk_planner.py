"""Disk parallelism planning (§4.3 "Disk").

"Plumber goes a step further by benchmarking the entire empirical
parallelism vs. bandwidth curve for a data source (via rewriting). The
source parallelism results can then be fit with a piecewise linear curve
to be injected into the optimizer to determine a minimal parallelism to
hit max bandwidth."

:func:`benchmark_source_curve` rewrites the pipeline down to its source
(plus a sink) and sweeps the stream parallelism; :func:`fit_piecewise`
turns the measurements into concave affine segments the LP consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.datasets import InterleaveSourceNode, Pipeline
from repro.graph.builder import from_tfrecords
from repro.host.machine import Machine
from repro.runtime.executor import run_pipeline


@dataclass
class DiskCurve:
    """Empirical parallelism→bandwidth measurements plus the fit."""

    parallelisms: List[int]
    bandwidths: List[float]          # bytes/second achieved
    segments: List[Tuple[float, float]]  # concave affine (slope, intercept)

    @property
    def max_bandwidth(self) -> float:
        """Peak measured bandwidth."""
        return max(self.bandwidths) if self.bandwidths else 0.0

    def minimal_saturating_parallelism(self, fraction: float = 0.95) -> int:
        """Smallest measured parallelism achieving ``fraction`` of peak."""
        target = self.max_bandwidth * fraction
        for p, bw in zip(self.parallelisms, self.bandwidths):
            if bw >= target:
                return p
        return self.parallelisms[-1] if self.parallelisms else 1


def benchmark_source_curve(
    pipeline: Pipeline,
    machine: Machine,
    parallelisms: Optional[Sequence[int]] = None,
    duration: float = 1.5,
    warmup: float = 0.3,
) -> DiskCurve:
    """Measure achieved source bandwidth at several read parallelisms.

    Rewrites the pipeline into source-only form (the rewriting trick of
    §4.3) and runs a short benchmark per parallelism value.
    """
    sources = pipeline.sources()
    if not sources:
        raise ValueError("pipeline has no source to benchmark")
    source = sources[0]
    if parallelisms is None:
        parallelisms = _default_sweep(machine.cores)

    measured_p: List[int] = []
    measured_bw: List[float] = []
    for p in parallelisms:
        probe = (
            from_tfrecords(
                source.catalog,
                parallelism=int(p),
                read_cpu_seconds_per_record=source.read_cpu_seconds_per_record,
                name="probe_src",
            )
            .repeat(None, name="probe_repeat")
            .build("disk_probe")
        )
        result = run_pipeline(
            probe, machine, duration=duration, warmup=warmup, trace=False,
            granularity=8,
        )
        measured_p.append(int(p))
        measured_bw.append(result.disk_bytes / result.measured_seconds)

    return DiskCurve(
        parallelisms=measured_p,
        bandwidths=measured_bw,
        segments=fit_piecewise(measured_p, measured_bw),
    )


def fit_piecewise(
    parallelisms: Sequence[int], bandwidths: Sequence[float]
) -> List[Tuple[float, float]]:
    """Fit a concave piecewise-linear upper envelope to measurements.

    Returns affine ``(slope, intercept)`` segments whose pointwise
    minimum is the fitted curve — directly usable as LP constraints.
    The fit takes the concave majorant of the measured points (bandwidth
    curves are concave by §4.3's assumption).
    """
    if len(parallelisms) != len(bandwidths):
        raise ValueError("parallelisms and bandwidths must have equal length")
    if not parallelisms:
        return []
    pts = sorted(zip(parallelisms, bandwidths))
    xs = np.array([p[0] for p in pts], dtype=float)
    # Bandwidth curves are physically non-decreasing; measurement noise
    # can dip — take the running max so the majorant covers every point.
    ys = np.maximum.accumulate(np.array([p[1] for p in pts], dtype=float))

    # Upper concave hull, left to right (monotone chain on the upper side).
    hull: List[Tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], (x, y)) >= 0:
            hull.pop()
        hull.append((x, y))

    segments: List[Tuple[float, float]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x2 == x1:
            continue
        slope = (y2 - y1) / (x2 - x1)
        # ``y1 - slope * x1`` can round below a point when ``slope * x``
        # dwarfs ``y`` (a steep rise from a small bandwidth); raise the
        # intercept by ulps until the line covers every point in floats.
        intercept = float(np.max(ys - slope * xs))
        while np.any(slope * xs + intercept < ys):
            intercept = float(np.nextafter(intercept, np.inf))
        segments.append((slope, intercept))
    # Flat tail beyond the last measurement.
    segments.append((0.0, hull[-1][1]))
    if len(hull) == 1:
        # A single point: only the flat segment applies.
        segments = [(0.0, hull[0][1])]
    return segments


def _cross(o: Tuple[float, float], a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _default_sweep(cores: int) -> List[int]:
    sweep = [1, 2, 4, 8, 16, 32, 64]
    return [p for p in sweep if p <= max(2, cores * 2)]


def io_bound_throughput(
    bytes_per_minibatch: float, bandwidth_bytes_per_second: float
) -> float:
    """The §5.2 bound: minibatches/second at a given I/O bandwidth.

    ResNet example: 128 records x ~110 KB → ~6.9 minibatches per
    100 MB/s of bandwidth.
    """
    if bytes_per_minibatch <= 0:
        return math.inf
    return bandwidth_bytes_per_second / bytes_per_minibatch
