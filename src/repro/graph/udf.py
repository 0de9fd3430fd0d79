"""User-defined function (UDF) metadata.

The paper's UDFs are traced TensorFlow functions; Plumber only needs a
handful of facts about them (§4.4, §B.1):

* how much CPU core-time an element costs (the resource-accounted rate),
* how many internal threads the runtime spawns per logical parallelism
  unit (RCNN's "1 parallelism uses nearly 3 cores"),
* how the element size and count change (decode amplifies bytes ~6x,
  filter drops elements),
* whether the function (transitively) touches a random seed, which makes
  its output uncacheable.

:class:`UserFunction` carries exactly those facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass(frozen=True)
class CostModel:
    """Per-element execution cost of one UDF invocation.

    Parameters
    ----------
    cpu_seconds:
        Active CPU core-seconds consumed per produced element on a
        reference 1.0-speed core. Scaled by the machine's per-core speed
        factor at runtime.
    internal_parallelism:
        Number of cores' worth of CPU occupied while one invocation runs.
        ``1.0`` for ordinary ops; ~3.0 for RCNN's transparently
        parallelized UDF.
    """

    cpu_seconds: float = 0.0
    internal_parallelism: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0:
            raise ValueError(f"cpu_seconds must be >= 0, got {self.cpu_seconds}")
        if self.internal_parallelism <= 0:
            raise ValueError(
                f"internal_parallelism must be > 0, got {self.internal_parallelism}"
            )

    @property
    def core_seconds(self) -> float:
        """Total core-seconds consumed per element (width x duration)."""
        return self.cpu_seconds * self.internal_parallelism


@dataclass
class UserFunction:
    """A named user-defined transformation with traced metadata.

    Randomness is modelled as in §B.1: a function is random if it accesses
    a random seed *or* any function it calls does (transitive closure,
    computed in :mod:`repro.core.randomness`).

    Parameters
    ----------
    name:
        Unique-ish identifier used in traces and reports.
    cost:
        CPU cost model (see :class:`CostModel`).
    size_ratio:
        Output bytes per input byte (JPEG decode ~5.7x, crop < 1).
    output_bytes:
        If set, the output element size is fixed to this many bytes
        regardless of input size (e.g. crop to 224x224x3).
    examples_ratio:
        Elements produced per element consumed (1.0 for map; parsing a
        record into k examples gives k).
    accesses_seed:
        True if the function body reads a random seed directly.
    calls:
        Child functions invoked by this one; used for the transitive
        randomness closure.
    """

    name: str
    cost: CostModel = field(default_factory=CostModel)
    size_ratio: float = 1.0
    output_bytes: Optional[float] = None
    examples_ratio: float = 1.0
    accesses_seed: bool = False
    calls: Sequence["UserFunction"] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("UserFunction requires a non-empty name")
        if self.size_ratio < 0:
            raise ValueError(f"size_ratio must be >= 0, got {self.size_ratio}")
        if self.examples_ratio < 0:
            raise ValueError(
                f"examples_ratio must be >= 0, got {self.examples_ratio}"
            )
        if self.output_bytes is not None and self.output_bytes < 0:
            raise ValueError(f"output_bytes must be >= 0, got {self.output_bytes}")
        self.calls = tuple(self.calls)

    def output_size(self, input_bytes: float) -> float:
        """Bytes of one output element given one ``input_bytes`` input."""
        if self.output_bytes is not None:
            return float(self.output_bytes)
        return input_bytes * self.size_ratio

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict."""
        return {
            "name": self.name,
            "cpu_seconds": self.cost.cpu_seconds,
            "internal_parallelism": self.cost.internal_parallelism,
            "size_ratio": self.size_ratio,
            "output_bytes": self.output_bytes,
            "examples_ratio": self.examples_ratio,
            "accesses_seed": self.accesses_seed,
            "calls": [c.to_dict() for c in self.calls],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UserFunction":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            cost=CostModel(
                cpu_seconds=data.get("cpu_seconds", 0.0),
                internal_parallelism=data.get("internal_parallelism", 1.0),
            ),
            size_ratio=data.get("size_ratio", 1.0),
            output_bytes=data.get("output_bytes"),
            examples_ratio=data.get("examples_ratio", 1.0),
            accesses_seed=data.get("accesses_seed", False),
            calls=tuple(cls.from_dict(c) for c in data.get("calls", ())),
        )
