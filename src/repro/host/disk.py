"""Storage bandwidth models.

§5.2 evaluates three storage substrates: a token-bucket-limited
filesystem (the paper patches TensorFlow's filesystem layer), a Seagate
HDD (~180 MB/s) and an Intel P3600 NVMe SSD (~2 GB/s); §5.4 adds cloud
storage whose ResNet source tops out near 11k images/s (~1.25 GB/s) and
needs high read parallelism to get there.

A :class:`DiskSpec` exposes ``bandwidth(streams)`` — aggregate bytes/s as
a piecewise-linear, concave, non-decreasing function of concurrent read
streams. That curve is exactly what Plumber's disk planner benchmarks
and re-fits (§4.3 "Disk").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

MB = 1e6
GB = 1e9


@dataclass(frozen=True)
class DiskSpec:
    """Aggregate read bandwidth as a function of stream parallelism.

    Parameters
    ----------
    name:
        Identifier used in reports.
    curve:
        Sorted ``(streams, bytes_per_second)`` control points. Bandwidth
        is linearly interpolated between points and flat beyond the last.
        Must be concave and non-decreasing (validated).
    read_latency:
        Fixed per-read setup latency in seconds (seek / request RTT).
    """

    name: str
    curve: Tuple[Tuple[float, float], ...]
    read_latency: float = 0.0

    def __post_init__(self) -> None:
        if not self.curve:
            raise ValueError("DiskSpec needs at least one curve point")
        pts = sorted(self.curve)
        object.__setattr__(self, "curve", tuple(pts))
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if xs[0] < 1:
            raise ValueError("curve must start at streams >= 1")
        if any(b <= a for a, b in zip(xs, xs[1:])) and len(xs) > 1:
            pass  # sorted() guarantees non-decreasing x
        if any(y2 < y1 for y1, y2 in zip(ys, ys[1:])):
            raise ValueError("bandwidth curve must be non-decreasing")
        if self.read_latency < 0:
            raise ValueError(f"read_latency must be >= 0, got {self.read_latency}")
        # Concavity: successive slopes must not increase.
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(pts, pts[1:])
            if x2 > x1
        ]
        if any(
            s2 > s1 + 1e-9 * max(1.0, abs(s1))
            for s1, s2 in zip(slopes, slopes[1:])
        ):
            raise ValueError("bandwidth curve must be concave")

    # ------------------------------------------------------------------
    def bandwidth(self, streams: float) -> float:
        """Aggregate bytes/s available with ``streams`` concurrent reads."""
        if streams <= 0:
            return 0.0
        xs = np.array([p[0] for p in self.curve])
        ys = np.array([p[1] for p in self.curve])
        return float(np.interp(streams, xs, ys))

    @property
    def max_bandwidth(self) -> float:
        """Peak aggregate bandwidth (the last curve point)."""
        return self.curve[-1][1]

    def segments(self) -> Sequence[Tuple[float, float]]:
        """Affine segments ``(slope, intercept)`` covering the curve,
        for direct inclusion as LP constraints (``bw <= a*θ + c``)."""
        segs = []
        pts = list(self.curve)
        if len(pts) == 1:
            return [(0.0, pts[0][1])]
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if x2 == x1:
                continue
            slope = (y2 - y1) / (x2 - x1)
            segs.append((slope, y1 - slope * x1))
        # Flat tail beyond the last point.
        segs.append((0.0, pts[-1][1]))
        return segs

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "name": self.name,
            "curve": [list(p) for p in self.curve],
            "read_latency": self.read_latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiskSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            curve=tuple(tuple(p) for p in data["curve"]),
            read_latency=data.get("read_latency", 0.0),
        )


# ----------------------------------------------------------------------
# Presets from the paper.
# ----------------------------------------------------------------------
def token_bucket(bytes_per_second: float, name: str | None = None) -> DiskSpec:
    """A flat rate cap, as in the §5.2 token-bucket microbenchmarks."""
    if bytes_per_second <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bytes_per_second}")
    return DiskSpec(
        name=name or f"token_bucket_{bytes_per_second / MB:.0f}MBps",
        curve=((1.0, bytes_per_second),),
    )


def hdd_st4000() -> DiskSpec:
    """Seagate ST4000NM0023: ~180 MB/s sequential, mild parallel gain."""
    return DiskSpec(
        name="hdd_st4000",
        curve=((1.0, 150 * MB), (2.0, 175 * MB), (4.0, 180 * MB)),
        read_latency=4e-3,
    )


def nvme_p3600() -> DiskSpec:
    """Intel P3600 400GB: ~2 GB/s, needs a few streams to saturate."""
    return DiskSpec(
        name="nvme_p3600",
        curve=((1.0, 900 * MB), (2.0, 1600 * MB), (4.0, 2000 * MB)),
        read_latency=1e-4,
    )


def cloud_storage() -> DiskSpec:
    """Cloud object store: per-stream ~90 MB/s, saturating ~1.26 GB/s.

    Calibrated so an uncached ResNet source (115 KB records, batch 128)
    tops out near the paper's 11k images/s bound (§5.4).
    """
    return DiskSpec(
        name="cloud_storage",
        curve=(
            (1.0, 90 * MB),
            (4.0, 360 * MB),
            (8.0, 700 * MB),
            (16.0, 1150 * MB),
            (32.0, 1265 * MB),
        ),
        read_latency=2e-3,
    )


def local_ssd_fast() -> DiskSpec:
    """A fast local SSD used by the microbenchmark setups (A/B)."""
    return DiskSpec(
        name="local_ssd",
        curve=((1.0, 1000 * MB), (4.0, 2800 * MB), (8.0, 3200 * MB)),
        read_latency=5e-5,
    )
