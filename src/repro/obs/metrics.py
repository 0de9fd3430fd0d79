"""Typed metric instruments and their registry.

The paper's whole argument is that pipeline performance must be
*legible* — Plumber wins because it surfaces the rates and occupancies
tf.data hides. This module is that idea applied to the repro's own
service stack: a dependency-free metrics core every layer (engine,
optimizer driver, batch service, daemon, shard fabric) writes into and
one endpoint (the daemon's ``GET /metrics``) reads out of.

Three instrument kinds:

* :class:`Counter` — monotonically increasing total (requests served,
  cache hits, jobs re-homed).
* :class:`Gauge` — a value that goes both ways (lane occupancy, queue
  depth, draining flag).
* :class:`Histogram` — a **streaming quantile sketch** (DDSketch-style
  logarithmic buckets): p50/p90/p99 with *relative* value-error at most
  ``relative_error``, without storing samples. Memory is bounded
  (``max_buckets`` per sign), and two sketches with the same error
  budget :meth:`~Histogram.merge` exactly — per-shard snapshots can be
  aggregated into one fleet-wide latency distribution, which is what
  makes a sharded ``stats()`` report honest instead of averaging
  averages.

All three support Prometheus-style **labels** (``hist.labels(
route="/stats").observe(dt)``); a :class:`MetricsRegistry` names them,
takes **atomic snapshots** (:meth:`~MetricsRegistry.as_dict`), and
renders Prometheus text exposition (:func:`render_text`). Snapshots are
plain JSON-compatible dicts: they travel through ``GET /stats`` bodies
and merge across processes with :func:`merge_snapshots`.

The registry's clock is injectable (``MetricsRegistry(clock=...)``) so
latency instrumentation is testable without wall-clock waits — the same
convention as the service layer's ``clock=``/``monotonic=`` parameters.
"""

from __future__ import annotations

import math
import threading
import time

_MONOTONIC = time.monotonic
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "render_text",
    "summarize_snapshot",
]

#: quantiles every histogram snapshot/exposition reports
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labelvalues: Mapping[str, str]) -> LabelKey:
    """Canonical (sorted) tuple form of one label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labelvalues.items()))


class _Instrument:
    """Shared labeled-instrument machinery.

    The instrument object itself is the *unlabeled* cell; ``labels()``
    children share the parent's lock (one lock per family keeps
    snapshots internally consistent) and its configuration.
    """

    kind = "untyped"

    def __init__(self, name: str = "", help: str = "",
                 clock: Callable[[], float] = _MONOTONIC) -> None:
        self.name = name
        self.help = help
        self._clock = clock
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, "_Instrument"] = {}
        self._touched = False

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def labels(self, **labelvalues: str) -> "_Instrument":
        """The child cell for one label set (created on first use)."""
        if not labelvalues:
            return self
        key = _label_key(labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                child._lock = self._lock  # family-wide lock
                self._children[key] = child
            return child

    # -- snapshot plumbing ---------------------------------------------
    def _sample_value(self) -> object:
        raise NotImplementedError

    def samples(self) -> List[dict]:
        """Every live cell of this family as ``{"labels", "value"}``.

        The unlabeled cell appears when it was ever written to, or when
        the family has no labeled children at all (so a registered but
        untouched counter still shows up as 0 — absence of traffic is a
        signal too).
        """
        with self._lock:
            out = []
            if self._touched or not self._children:
                out.append({"labels": {}, "value": self._sample_value()})
            for key, child in sorted(self._children.items()):
                out.append({
                    "labels": dict(key),
                    "value": child._sample_value(),
                })
            return out


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str = "", help: str = "",
                 clock: Callable[[], float] = _MONOTONIC) -> None:
        super().__init__(name, help, clock)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help, self._clock)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount
            self._touched = True

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _sample_value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can rise and fall."""

    kind = "gauge"

    def __init__(self, name: str = "", help: str = "",
                 clock: Callable[[], float] = _MONOTONIC) -> None:
        super().__init__(name, help, clock)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help, self._clock)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._touched = True

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._touched = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _sample_value(self) -> float:
        return self._value


class _Timer:
    """Context manager observing its elapsed time into a histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._hist._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(max(0.0, self._hist._clock() - self._start))


class Histogram(_Instrument):
    """Streaming quantile sketch over logarithmic buckets (DDSketch).

    A value ``v > 0`` lands in bucket ``i = ceil(log_base(v))`` where
    ``base = (1 + e) / (1 - e)`` for relative error budget ``e``; the
    bucket's representative value ``2 * base**i / (base + 1)`` is then
    within ``e`` *relative* error of every value in the bucket. Negative
    values mirror into a second bucket map, zeros count separately —
    so :meth:`quantile` answers for any finite stream while storing
    only bucket counts.

    Guarantees (the properties ``tests/test_obs_metrics.py`` pins):

    * ``quantile(q)`` is within ``relative_error`` of the rank
      ``floor(q * (n - 1))`` element of the sorted observations, as
      long as no bucket collapse occurred (see ``max_buckets``);
    * :meth:`merge` of two sketches equals observing the pooled stream
      (bucket-exact; the running sum matches up to float associativity);
    * ``from_dict(to_dict())`` round-trips exactly, including through
      JSON text.

    Memory is bounded: beyond ``max_buckets`` per sign, the two
    lowest-magnitude buckets collapse (DDSketch's policy — accuracy is
    sacrificed at the *small* end, keeping p90/p99 on latencies exact).
    """

    kind = "histogram"

    def __init__(self, name: str = "", help: str = "",
                 clock: Callable[[], float] = _MONOTONIC,
                 relative_error: float = 0.01,
                 max_buckets: int = 2048) -> None:
        if not 0 < relative_error < 1:
            raise ValueError("relative_error must be in (0, 1)")
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        super().__init__(name, help, clock)
        self.relative_error = relative_error
        self.max_buckets = max_buckets
        self._base = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_base = math.log(self._base)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self._clock,
                         relative_error=self.relative_error,
                         max_buckets=self.max_buckets)

    # -- write side ----------------------------------------------------
    def _bucket_index(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_base))

    @staticmethod
    def _collapse(buckets: Dict[int, int]) -> None:
        """Fold the lowest-magnitude bucket into its neighbour above."""
        low, second = sorted(buckets)[:2]
        buckets[second] += buckets.pop(low)

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value!r}")
        with self._lock:
            self._observe_locked(value)

    def _observe_locked(self, value: float) -> None:
        self._touched = True
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value == 0.0:
            self._zero += 1
            return
        store = self._pos if value > 0 else self._neg
        index = self._bucket_index(abs(value))
        store[index] = store.get(index, 0) + 1
        if len(store) > self.max_buckets:
            self._collapse(store)

    def time(self) -> _Timer:
        """``with hist.time(): ...`` — observe the block's duration."""
        return _Timer(self)

    # -- read side -----------------------------------------------------
    def _representative(self, index: int, sign: int) -> float:
        return sign * 2.0 * self._base ** index / (self._base + 1.0)

    def _quantile_locked(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        rank = math.floor(q * (self._count - 1))
        # Value order: most-negative first (descending mirrored index),
        # then zeros, then positives ascending.
        seen = 0
        for index in sorted(self._neg, reverse=True):
            seen += self._neg[index]
            if seen > rank:
                estimate = self._representative(index, -1)
                return min(max(estimate, self._min), self._max)
        seen += self._zero
        if seen > rank:
            return min(max(0.0, self._min), self._max)
        for index in sorted(self._pos):
            seen += self._pos[index]
            if seen > rank:
                estimate = self._representative(index, 1)
                return min(max(estimate, self._min), self._max)
        return self._max  # float slack fallback; unreachable in theory

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of everything observed so far."""
        with self._lock:
            return self._quantile_locked(q)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    # -- merge / serialization ----------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this sketch (in place).

        Requires an identical ``relative_error`` — bucket boundaries
        must line up for the merged counts to mean anything.
        """
        if not isinstance(other, Histogram):
            raise TypeError(f"can only merge Histogram, got {type(other)!r}")
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sketches with different relative_error "
                f"({self.relative_error} vs {other.relative_error})"
            )
        if other is self:
            raise ValueError("cannot merge a histogram into itself")
        with other._lock:
            state = (dict(other._pos), dict(other._neg), other._zero,
                     other._count, other._sum, other._min, other._max)
        pos, neg, zero, count, total, vmin, vmax = state
        with self._lock:
            if count:
                self._touched = True
            for index, n in pos.items():
                self._pos[index] = self._pos.get(index, 0) + n
            for index, n in neg.items():
                self._neg[index] = self._neg.get(index, 0) + n
            while len(self._pos) > self.max_buckets:
                self._collapse(self._pos)
            while len(self._neg) > self.max_buckets:
                self._collapse(self._neg)
            self._zero += zero
            self._count += count
            self._sum += total
            self._min = min(self._min, vmin)
            self._max = max(self._max, vmax)
        return self

    def to_dict(self) -> dict:
        """JSON-compatible full state (buckets included, so snapshots
        from different processes can be merged with :func:`merge_snapshots`)."""
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> dict:
        out = {
            "relative_error": self.relative_error,
            "count": self._count,
            "sum": self._sum,
            "zero": self._zero,
            "pos": {str(i): n for i, n in sorted(self._pos.items())},
            "neg": {str(i): n for i, n in sorted(self._neg.items())},
        }
        if self._count:
            out["min"] = self._min
            out["max"] = self._max
            for q in SNAPSHOT_QUANTILES:
                out[f"p{int(q * 100)}"] = self._quantile_locked(q)
        return out

    @classmethod
    def from_dict(cls, data: Mapping,
                  clock: Callable[[], float] = _MONOTONIC,
                  max_buckets: int = 2048) -> "Histogram":
        """Rebuild a sketch from :meth:`to_dict` output."""
        hist = cls(relative_error=data["relative_error"], clock=clock,
                   max_buckets=max_buckets)
        hist._count = int(data["count"])
        hist._sum = float(data["sum"])
        hist._zero = int(data.get("zero", 0))
        hist._pos = {int(i): int(n) for i, n in data.get("pos", {}).items()}
        hist._neg = {int(i): int(n) for i, n in data.get("neg", {}).items()}
        hist._min = float(data.get("min", math.inf))
        hist._max = float(data.get("max", -math.inf))
        hist._touched = hist._count > 0
        return hist

    def _sample_value(self) -> dict:
        return self._to_dict_locked()


class MetricsRegistry:
    """Named instruments with atomic snapshots.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: asking
    for an existing name returns the live instrument (so call sites
    never coordinate), and asking for it with a different kind raises.
    ``clock`` is the monotonic source every ``Histogram.time()`` context
    uses — inject a fake for deterministic latency tests.
    """

    def __init__(self, clock: Callable[[], float] = _MONOTONIC) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    def _get_or_create(self, name: str, kind: type, **kwargs) -> _Instrument:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} is a {existing.kind}, "
                        f"not a {kind.kind}"
                    )
                return existing
            instrument = kind(name=name, clock=self.clock, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  relative_error: float = 0.01,
                  max_buckets: int = 2048) -> Histogram:
        return self._get_or_create(
            name, Histogram, help=help,
            relative_error=relative_error, max_buckets=max_buckets,
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    # -- snapshots -----------------------------------------------------
    def as_dict(self) -> dict:
        """One atomic, JSON-compatible snapshot of every instrument.

        Each instrument family is read under its own lock, so a cell is
        never observed mid-update (a histogram's count always equals
        the sum of its bucket counts, a counter never appears to go
        backwards between two snapshots of the same write sequence).
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {
                "kind": instrument.kind,
                "help": instrument.help,
                "samples": instrument.samples(),
            }
            for name, instrument in metrics
        }

    def render_text(self) -> str:
        """Prometheus-style text exposition of the current snapshot."""
        return render_text(self.as_dict())

    def summary(self) -> dict:
        """Compact ``{series: scalar-or-quantiles}`` view (no buckets)."""
        return summarize_snapshot(self.as_dict())


# ----------------------------------------------------------------------
# Snapshot-level operations: merging and rendering work on the plain
# dict form, so they apply equally to local registries and to snapshots
# that arrived over HTTP from another process.
# ----------------------------------------------------------------------
def _merge_sample_lists(kind: str, lists: List[List[dict]]) -> List[dict]:
    merged: Dict[LabelKey, object] = {}
    order: List[LabelKey] = []
    for samples in lists:
        for sample in samples:
            key = _label_key(sample.get("labels", {}))
            value = sample["value"]
            if key not in merged:
                merged[key] = (
                    Histogram.from_dict(value) if kind == "histogram"
                    else float(value)
                )
                order.append(key)
            elif kind == "histogram":
                merged[key].merge(Histogram.from_dict(value))
            else:
                merged[key] = merged[key] + float(value)
    return [
        {
            "labels": dict(key),
            "value": (merged[key].to_dict()
                      if isinstance(merged[key], Histogram) else merged[key]),
        }
        for key in order
    ]


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge :meth:`MetricsRegistry.as_dict` snapshots into one.

    Counters and gauges sum per label set; histograms merge through
    their bucket state (quantiles of the merged sketch equal quantiles
    of the pooled observations, which is what makes per-shard latency
    aggregation honest). Kind conflicts on the same name raise.
    """
    merged: Dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, family in snap.items():
            if name not in merged:
                merged[name] = {
                    "kind": family["kind"],
                    "help": family.get("help", ""),
                    "samples": [family["samples"]],
                }
            else:
                if merged[name]["kind"] != family["kind"]:
                    raise TypeError(
                        f"cannot merge metric {name!r}: kind "
                        f"{merged[name]['kind']} vs {family['kind']}"
                    )
                merged[name]["samples"].append(family["samples"])
    return {
        name: {
            "kind": family["kind"],
            "help": family["help"],
            "samples": _merge_sample_lists(
                family["kind"], family["samples"]),
        }
        for name, family in sorted(merged.items())
    }


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_labels(labels: Mapping[str, str],
                   extra: Optional[Mapping[str, str]] = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(items.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else (
            "+Inf" if value > 0 else "-Inf")
    return repr(float(value))


def render_text(snapshot: Mapping[str, dict]) -> str:
    """Render a snapshot as Prometheus text exposition.

    Counters and gauges render natively; histograms render as the
    ``summary`` type (``{quantile="0.5"}`` series plus ``_sum`` and
    ``_count``) — the sketch stores quantiles, not cumulative bounds.
    """
    lines: List[str] = []
    for name, family in sorted(snapshot.items()):
        kind = family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(
            f"# TYPE {name} "
            f"{'summary' if kind == 'histogram' else kind}"
        )
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            value = sample["value"]
            if kind != "histogram":
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(value)}"
                )
                continue
            hist = value
            for q in SNAPSHOT_QUANTILES:
                pkey = f"p{int(q * 100)}"
                if pkey in hist:
                    lines.append(
                        f"{name}{_format_labels(labels, {'quantile': str(q)})}"
                        f" {_format_value(hist[pkey])}"
                    )
            lines.append(
                f"{name}_sum{_format_labels(labels)} "
                f"{_format_value(hist['sum'])}"
            )
            lines.append(
                f"{name}_count{_format_labels(labels)} "
                f"{_format_value(hist['count'])}"
            )
    return "\n".join(lines) + "\n"


def summarize_snapshot(snapshot: Mapping[str, dict]) -> dict:
    """Flatten a snapshot into ``{series: value}`` for humans.

    Scalar instruments become ``name`` / ``name{label="v"}`` keys;
    histograms become ``{count, sum, min, max, p50, p90, p99}`` dicts
    with the bucket state dropped — the compact form ``GET /stats``
    embeds so existing clients see the new numbers without parsing
    exposition text.
    """
    out: Dict[str, object] = {}
    for name, family in sorted(snapshot.items()):
        for sample in family["samples"]:
            series = name + _format_labels(sample.get("labels", {}))
            value = sample["value"]
            if family["kind"] == "histogram":
                out[series] = {
                    k: v for k, v in value.items()
                    if k in ("count", "sum", "min", "max")
                    or k.startswith("p")
                }
            else:
                out[series] = value
    return out
