"""Pipeline (de)serialization.

Plumber dumps the serialized pipeline program next to the traced
statistics so offline analysis can rebuild an in-memory model of the
dataflow and *rewrite* it (§4.1, §B: "all Plumber traces are also valid
programs"). We serialize to a JSON-compatible dict keyed by node name,
which is also the rewrite key.

A node's ``attrs`` are its kind's declared
:attr:`~repro.graph.datasets.DatasetNode.params`; the nested objects
among them (``udf``, ``catalog``, ``weights``) are encoded here. The
decoder calls the kind's constructor with the attrs given, so a missing
attr takes the constructor's default, and it rejects a malformed
program with a ``ValueError`` naming the node: an unknown kind or attr
key, a missing required attr, an input count that does not fit the
kind's ``input_arity``, an input not defined earlier in the node list,
a name defined twice, or a node that does not feed the root (the last
node).
"""

from __future__ import annotations

import json
from typing import Dict

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
from repro.io.filesystem import FileCatalog

_FORMAT_VERSION = 1

#: node kind → class, for every concrete node kind
NODE_KINDS = {
    cls.kind: cls
    for cls in (
        InterleaveSourceNode, MapNode, FilterNode, BatchNode, ShuffleNode,
        ShuffleAndRepeatNode, RepeatNode, TakeNode, PrefetchNode,
        CacheNode, ZipNode, InterleaveDatasetsNode,
    )
}

#: attrs that hold nested objects: how each is written and read back
_ENCODE = {
    "udf": UserFunction.to_dict,
    "catalog": FileCatalog.to_dict,
    "weights": list,
}
_DECODE = {"udf": UserFunction.from_dict, "catalog": FileCatalog.from_dict}


def pipeline_to_dict(pipeline: Pipeline) -> dict:
    """Serialize a pipeline to a JSON-compatible dict."""
    nodes = []
    for node in pipeline.topological_order():
        attrs = node.attrs()
        for key, encode in _ENCODE.items():
            if key in attrs:
                attrs[key] = encode(attrs[key])
        nodes.append(
            {
                "name": node.name,
                "kind": node.kind,
                "inputs": [c.name for c in node.inputs],
                "parallelism": node.parallelism,
                "attrs": attrs,
            }
        )
    return {"version": _FORMAT_VERSION, "name": pipeline.name, "nodes": nodes}


def pipeline_to_json(pipeline: Pipeline) -> str:
    """Serialize a pipeline to a JSON string."""
    return json.dumps(pipeline_to_dict(pipeline), sort_keys=True)


def _node_from_dict(spec: dict, resolved: Dict[str, DatasetNode]) -> DatasetNode:
    name = spec.get("name")
    kind = spec.get("kind")
    cls = NODE_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"node {name!r}: unknown node kind {kind!r}")
    inputs = []
    for key in spec.get("inputs", []):
        if key not in resolved:
            raise ValueError(
                f"node {name!r}: input {key!r} is not defined before it"
            )
        inputs.append(resolved[key])
    arity = cls.input_arity
    fits = len(inputs) >= 2 if arity is None else len(inputs) == arity
    if not fits:
        raise ValueError(
            f"node {name!r}: a {kind} node takes "
            f"{'2 or more' if arity is None else arity} inputs, "
            f"got {len(inputs)}"
        )
    attrs = dict(spec.get("attrs", {}))
    for key in attrs:
        if key not in cls.params:
            raise ValueError(f"node {name!r}: unknown {kind} attr {key!r}")
        if key in _DECODE:
            attrs[key] = _DECODE[key](attrs[key])
    if cls.tunable:
        parallelism = spec.get("parallelism")
        attrs["parallelism"] = parallelism if parallelism is not None else 1
    try:
        return cls.from_params(name, inputs, attrs)
    except TypeError as exc:
        raise ValueError(f"node {name!r}: {exc}") from exc


def pipeline_from_dict(data: dict) -> Pipeline:
    """Rebuild a pipeline from :func:`pipeline_to_dict` output."""
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported pipeline format version {version!r}; "
            f"expected {_FORMAT_VERSION}"
        )
    resolved: Dict[str, DatasetNode] = {}
    last: DatasetNode | None = None
    for spec in data["nodes"]:
        node = _node_from_dict(spec, resolved)
        if node.name in resolved:
            raise ValueError(f"node {node.name!r} is defined twice")
        resolved[node.name] = node
        last = node
    if last is None:
        raise ValueError("pipeline has no nodes")
    # Nodes are serialized sources-first; the last one is the root.
    pipeline = Pipeline(last, name=data.get("name", "pipeline"))
    if len(pipeline.topological_order()) != len(resolved):
        kept = {n.name for n in pipeline.iter_nodes()}
        dropped = next(name for name in resolved if name not in kept)
        raise ValueError(
            f"node {dropped!r} is not on the path to the root {last.name!r}"
        )
    return pipeline


def pipeline_from_json(text: str) -> Pipeline:
    """Rebuild a pipeline from :func:`pipeline_to_json` output."""
    return pipeline_from_dict(json.loads(text))
