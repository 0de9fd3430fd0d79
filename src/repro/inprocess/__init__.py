"""A real (non-simulated) in-process executor.

Runs pipelines over actual Python data, preserving element-level
semantics: UDFs are called, filters predicate, shuffles reorder with a
seeded RNG, caches store their first pass and replay it, batches group.
The quickstart runs its pipeline for real with :func:`materialize`.
"""

from repro.inprocess.executor import InProcessError, materialize

__all__ = ["InProcessError", "materialize"]
