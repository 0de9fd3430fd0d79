"""Fluent builder API mirroring Figure 1 of the paper.

Example
-------
>>> ds = from_tfrecords(catalog, parallelism=4)
>>> ds = ds.map(parse).map(decode, parallelism=8).shuffle(1024)
>>> pipe = ds.batch(128).prefetch(10).build("imagenet")

Multi-source graphs merge independently built branches:

>>> pairs = zip_datasets([images.map(decode), captions.map(tokenize)])
>>> pipe = pairs.batch(64).prefetch(8).build("multimodal")
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    DatasetNode,
    FilterNode,
    InterleaveDatasetsNode,
    InterleaveSourceNode,
    MapNode,
    Pipeline,
    PrefetchNode,
    RepeatNode,
    ShuffleAndRepeatNode,
    ShuffleNode,
    TakeNode,
    ZipNode,
)
from repro.graph.udf import UserFunction
from repro.graph.validate import validate_pipeline

_counter = itertools.count()


def _auto_name(prefix: str, name: Optional[str]) -> str:
    if name is not None:
        return name
    return f"{prefix}_{next(_counter)}"


class DatasetBuilder:
    """Chainable wrapper around a :class:`DatasetNode`.

    Each method returns a new builder whose node consumes the previous
    one, so partially built chains can be shared and forked.
    """

    def __init__(self, node: DatasetNode) -> None:
        self.node = node

    # ------------------------------------------------------------------
    def map(
        self,
        udf: UserFunction,
        parallelism: int = 1,
        name: Optional[str] = None,
        sequential: bool = False,
    ) -> "DatasetBuilder":
        """Apply ``udf`` with the given parallelism (or sequentially)."""
        return DatasetBuilder(
            MapNode(
                _auto_name(f"map_{udf.name}", name),
                self.node,
                udf,
                parallelism,
                sequential=sequential,
            )
        )

    def filter(
        self,
        udf: UserFunction,
        keep_fraction: float = 1.0,
        name: Optional[str] = None,
    ) -> "DatasetBuilder":
        """Sequentially filter elements, keeping ``keep_fraction``
        (``udf.examples_ratio`` must be 1)."""
        return DatasetBuilder(
            FilterNode(
                _auto_name(f"filter_{udf.name}", name), self.node, udf, keep_fraction
            )
        )

    def batch(
        self,
        batch_size: int,
        parallelism: int = 1,
        cpu_seconds_per_example: float = 0.0,
        name: Optional[str] = None,
    ) -> "DatasetBuilder":
        """Group elements into minibatches."""
        return DatasetBuilder(
            BatchNode(
                _auto_name("batch", name),
                self.node,
                batch_size,
                parallelism=parallelism,
                cpu_seconds_per_example=cpu_seconds_per_example,
            )
        )

    def shuffle(
        self,
        buffer_size: int,
        cpu_seconds_per_element: float = 0.0,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> "DatasetBuilder":
        """Buffered uniform shuffle (sequential)."""
        return DatasetBuilder(
            ShuffleNode(
                _auto_name("shuffle", name),
                self.node,
                buffer_size,
                cpu_seconds_per_element=cpu_seconds_per_element,
                seed=seed,
            )
        )

    def shuffle_and_repeat(
        self,
        buffer_size: int,
        cpu_seconds_per_element: float = 0.0,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> "DatasetBuilder":
        """Fused shuffle+repeat (sequential), as in the GNMT pipeline."""
        return DatasetBuilder(
            ShuffleAndRepeatNode(
                _auto_name("shuffle_and_repeat", name),
                self.node,
                buffer_size,
                cpu_seconds_per_element=cpu_seconds_per_element,
                seed=seed,
            )
        )

    def repeat(
        self, count: Optional[int] = None, name: Optional[str] = None
    ) -> "DatasetBuilder":
        """Repeat the stream ``count`` times (``None`` = forever)."""
        return DatasetBuilder(RepeatNode(_auto_name("repeat", name), self.node, count))

    def take(self, count: int, name: Optional[str] = None) -> "DatasetBuilder":
        """Truncate after ``count`` elements."""
        return DatasetBuilder(TakeNode(_auto_name("take", name), self.node, count))

    def prefetch(self, buffer_size: int, name: Optional[str] = None) -> "DatasetBuilder":
        """Insert a decoupling buffer of ``buffer_size`` elements."""
        return DatasetBuilder(
            PrefetchNode(_auto_name("prefetch", name), self.node, buffer_size)
        )

    def cache(
        self,
        storage: str = "memory",
        name: Optional[str] = None,
    ) -> "DatasetBuilder":
        """Materialize and serve the stream from ``storage``."""
        return DatasetBuilder(
            CacheNode(_auto_name("cache", name), self.node, storage=storage)
        )

    def build(self, name: str = "pipeline", validate: bool = True) -> Pipeline:
        """Finish the chain, optionally validating the structure."""
        pipe = Pipeline(self.node, name=name)
        if validate:
            validate_pipeline(pipe)
        return pipe


def from_tfrecords(
    catalog,
    parallelism: int = 1,
    read_cpu_seconds_per_record: float = 0.0,
    name: Optional[str] = None,
) -> DatasetBuilder:
    """Start a chain from an interleaved TFRecord-style file source."""
    return DatasetBuilder(
        InterleaveSourceNode(
            _auto_name("interleave_tfrecord", name),
            catalog,
            parallelism=parallelism,
            read_cpu_seconds_per_record=read_cpu_seconds_per_record,
        )
    )


def _branch_nodes(branches: Sequence) -> list:
    """Unwrap builders (or accept bare nodes) into merge inputs."""
    nodes = []
    for branch in branches:
        node = branch.node if isinstance(branch, DatasetBuilder) else branch
        if not isinstance(node, DatasetNode):
            raise TypeError(
                f"merge inputs must be DatasetBuilder or DatasetNode, "
                f"got {type(branch).__name__}"
            )
        nodes.append(node)
    return nodes


def zip_datasets(
    branches: Sequence,
    cpu_seconds_per_element: float = 0.0,
    name: Optional[str] = None,
) -> DatasetBuilder:
    """Merge branches in lockstep: one output pairs one element from
    every branch (``tf.data.Dataset.zip``). Continue chaining from the
    returned builder."""
    return DatasetBuilder(
        ZipNode(
            _auto_name("zip", name),
            _branch_nodes(branches),
            cpu_seconds_per_element=cpu_seconds_per_element,
        )
    )


def interleave_datasets(
    branches: Sequence,
    weights: Optional[Sequence[float]] = None,
    cpu_seconds_per_element: float = 0.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> DatasetBuilder:
    """Mix branches by weighted round-robin sampling (replay-buffer
    mixing). ``weights`` are normalized; ``None`` means uniform."""
    return DatasetBuilder(
        InterleaveDatasetsNode(
            _auto_name("interleave_datasets", name),
            _branch_nodes(branches),
            weights=weights,
            cpu_seconds_per_element=cpu_seconds_per_element,
            seed=seed,
        )
    )
