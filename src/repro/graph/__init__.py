"""Declarative dataset-graph layer (the ``tf.data`` equivalent).

A pipeline is a tree of :class:`~repro.graph.datasets.DatasetNode` objects,
built with the fluent API in :mod:`repro.graph.builder`, validated by
:mod:`repro.graph.validate`, and serialized by :mod:`repro.graph.serialize`
so that a trace (stats + program) can be shipped to Plumber's offline
analysis exactly as in the paper.
"""

from repro.graph.builder import DatasetBuilder, from_tfrecords
from repro.graph.datasets import (
    BatchNode,
    CacheNode,
    DatasetNode,
    FilterNode,
    InterleaveSourceNode,
    MapNode,
    Pipeline,
    PrefetchNode,
    RepeatNode,
    ShuffleAndRepeatNode,
    ShuffleNode,
    TakeNode,
)
from repro.graph.serialize import pipeline_from_dict, pipeline_to_dict
from repro.graph.udf import CostModel, UserFunction
from repro.graph.validate import GraphValidationError, validate_pipeline

__all__ = [
    "BatchNode",
    "CacheNode",
    "CostModel",
    "DatasetBuilder",
    "DatasetNode",
    "FilterNode",
    "GraphValidationError",
    "InterleaveSourceNode",
    "MapNode",
    "Pipeline",
    "PrefetchNode",
    "RepeatNode",
    "ShuffleAndRepeatNode",
    "ShuffleNode",
    "TakeNode",
    "UserFunction",
    "from_tfrecords",
    "pipeline_from_dict",
    "pipeline_to_dict",
    "validate_pipeline",
]
