"""The *structural signature*: a content hash of a whole pipeline
program, which the batch optimization service uses to key its result
cache.

Per-node element sizes and counts are not declared here: Plumber reads
them from traced counters (§4.1, §A), and the closed-form backend's node
models (:mod:`repro.runtime.analytic`) propagate byte sizes for the
programs it prices.
"""

from __future__ import annotations

from repro.graph.datasets import Pipeline
from repro.util import canonical_hash


def structural_signature(pipeline: Pipeline) -> str:
    """Stable content hash of the pipeline *program*.

    Two pipelines have the same signature iff their serialized node lists
    (names, kinds, wiring, parallelism, and attrs) are identical; the
    pipeline's display name is excluded so that fleet jobs stamped from
    one template collapse to a single signature. The hash is computed
    over canonical JSON, so it is stable across processes and sessions —
    the batch optimization service uses it to key its result cache and to
    match results shipped back from worker processes.
    """
    from repro.graph.serialize import pipeline_to_dict

    data = pipeline_to_dict(pipeline)
    data.pop("name", None)
    return canonical_hash(data)
