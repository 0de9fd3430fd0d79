"""Dataset node types and the :class:`Pipeline` container.

The node vocabulary mirrors the ``tf.data`` operators that appear in the
paper's five MLPerf pipelines (Figure 1, Figure 2, §2.1):

* :class:`InterleaveSourceNode` — parallel reads over a file catalog
  (``Interleave`` over per-file ``TFRecordDataset`` readers),
* :class:`MapNode` — possibly-parallel UDF application,
* :class:`FilterNode` — sequential predicate,
* :class:`BatchNode` — grouping (optionally parallel, GNMT's
  "inner-parallelism for Batching"),
* :class:`ShuffleNode` / :class:`ShuffleAndRepeatNode` — sequential
  buffered sampling,
* :class:`RepeatNode`, :class:`TakeNode`,
* :class:`PrefetchNode` — decoupling buffer,
* :class:`CacheNode` — in-memory materialization,
* :class:`ZipNode` / :class:`InterleaveDatasetsNode` — multi-input
  merges (lockstep zip and weighted round-robin mixing), turning the
  chain into a rooted in-tree: every node still has exactly one
  consumer, but merge nodes pull from two or more child subgraphs
  (image+caption multimodal, RL replay-buffer mixing).

Each node class declares its constructor parameters once, in
:attr:`DatasetNode.params`. :meth:`DatasetNode.attrs` reads them for
serialization, and both :mod:`repro.graph.serialize` and
:meth:`DatasetNode.with_inputs` build nodes back from them through
:meth:`DatasetNode.from_params`.

A :class:`Pipeline` is a snapshot of its graph's *structure*: which
nodes it holds and how they connect are indexed once, when it is built.
Node attributes that are not structure (parallelism above all) may be
changed in place, as :func:`repro.core.rewriter.set_parallelism` does on
its clone. Changing structure — a node's ``inputs``, a node's name, the
root — means building a new :class:`Pipeline`, as the rewriter's
``insert_after`` and ``remove_node`` do. Execution state lives in
:mod:`repro.runtime`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.udf import UserFunction

#: Sentinel parallelism value meaning "let the tuner decide" (the paper's
#: ``AUTOTUNE`` placeholder).
AUTOTUNE = -1


class DatasetNode:
    """Base class for all dataset operators.

    Parameters
    ----------
    name:
        Unique name within a pipeline; used as the rewrite key exactly as
        the paper joins traced stats with the serialized program (§B).
    inputs:
        Child nodes this operator pulls from (source nodes have none).
    parallelism:
        Degree of parallelism if the node is tunable, else ``None``.
    """

    kind: str = "dataset"
    #: whether ``parallelism`` may be rewritten by a tuner
    tunable: bool = False
    #: declared input arity: ``0`` for sources, ``1`` for chain
    #: operators, ``None`` for variadic merge nodes (two or more
    #: inputs); checked by :func:`repro.graph.validate.validate_pipeline`
    input_arity: Optional[int] = 1
    #: constructor keyword parameters besides ``name``, the inputs and
    #: ``parallelism``, each readable as an attribute of the same name:
    #: the node's serialized ``attrs`` (:mod:`repro.graph.serialize`)
    params: Tuple[str, ...] = ()
    #: the user function attached to this node, if any
    udf: Optional[UserFunction] = None

    def __init__(
        self,
        name: str,
        inputs: Sequence["DatasetNode"] = (),
        parallelism: Optional[int] = None,
    ) -> None:
        if not name:
            raise ValueError("DatasetNode requires a non-empty name")
        self.name = name
        self.inputs: List[DatasetNode] = list(inputs)
        self.parallelism = parallelism

    # ------------------------------------------------------------------
    # Structural properties used by the analysis layer.
    # ------------------------------------------------------------------
    @property
    def sequential(self) -> bool:
        """True if the node cannot use more than one core (θ_i ≤ 1)."""
        return not self.tunable

    @property
    def effective_parallelism(self) -> int:
        """Parallelism used at execution time (1 for sequential nodes)."""
        if self.parallelism is None or self.parallelism == AUTOTUNE:
            return 1
        return max(1, int(self.parallelism))

    @property
    def merges(self) -> bool:
        """True for fan-in nodes (declared variadic input arity)."""
        return self.input_arity is None

    def elements_ratio(self) -> float:
        """Mean elements produced per element consumed (the local visit
        ratio ``C_i / C_{i-1}`` in steady state)."""
        return 1.0

    def input_consumption(self, index: int) -> float:
        """Mean elements consumed from input ``index`` per element this
        node produces.

        For chain operators this is ``1 / elements_ratio()`` — the §4.4
        recurrence read edge-wise — so single-input semantics are
        unchanged. Merge nodes override it per input: a zip consumes one
        element from *every* input per output, an interleave consumes
        ``weight[i]`` elements from input ``i`` on average.
        """
        ratio = self.elements_ratio()
        if ratio <= 0:
            return math.inf
        return 1.0 / ratio

    def attrs(self) -> dict:
        """The :attr:`params` by name (nested objects as they are;
        :mod:`repro.graph.serialize` encodes them)."""
        # A plain loop: on CPython 3.11 a dict comprehension costs
        # about twice as much for these few keys.
        attrs = {}
        for key in self.params:
            attrs[key] = getattr(self, key)
        return attrs

    @classmethod
    def from_params(
        cls, name: str, inputs: Sequence["DatasetNode"], attrs: dict
    ) -> "DatasetNode":
        """Construct a node of this kind reading from ``inputs``;
        ``attrs`` holds :attr:`params` (and ``parallelism``) by name."""
        args = (list(inputs),) if cls.input_arity is None else tuple(inputs)
        return cls(name, *args, **attrs)

    def with_inputs(self, inputs: Sequence["DatasetNode"]) -> "DatasetNode":
        """A copy of this node reading from ``inputs`` (UDFs and
        catalogs shared).

        The copy goes through the constructor rather than copying
        ``__dict__``: reading an instance's ``__dict__`` turns its
        attributes into a plain dict, which CPython reads about twice as
        slowly, and the analysis layer reads node attributes a lot.
        """
        attrs = self.attrs()
        if self.tunable:
            attrs["parallelism"] = self.parallelism
        return self.from_params(self.name, inputs, attrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        par = f", parallelism={self.parallelism}" if self.tunable else ""
        return f"{type(self).__name__}(name={self.name!r}{par})"


class InterleaveSourceNode(DatasetNode):
    """Parallel file reads: ``Interleave`` over per-file record readers.

    ``parallelism`` is the cycle length (number of files read
    concurrently); reads consume disk bandwidth in the simulated host.
    """

    kind = "interleave_source"
    tunable = True
    input_arity = 0
    params = ("catalog", "read_cpu_seconds_per_record")

    def __init__(
        self,
        name: str,
        catalog,
        parallelism: int = 1,
        read_cpu_seconds_per_record: float = 0.0,
    ) -> None:
        super().__init__(name, inputs=(), parallelism=parallelism)
        self.catalog = catalog
        self.read_cpu_seconds_per_record = read_cpu_seconds_per_record


class MapNode(DatasetNode):
    """Apply a UDF to every element, with optional parallelism.

    ``sequential=True`` marks a map whose implementation cannot be
    parallelized (stateful packing/grouping in the Flax text pipelines);
    such nodes behave like any other sequential operator (θ ≤ 1).
    """

    kind = "map"
    tunable = True
    params = ("udf", "sequential")

    def __init__(
        self,
        name: str,
        input_node: DatasetNode,
        udf: UserFunction,
        parallelism: int = 1,
        sequential: bool = False,
    ) -> None:
        super().__init__(name, inputs=(input_node,), parallelism=parallelism)
        self.udf = udf
        if sequential:
            # Instance attribute shadows the class-level ``tunable``.
            self.tunable = False
            self.parallelism = None

    def elements_ratio(self) -> float:
        return self.udf.examples_ratio


class FilterNode(DatasetNode):
    """Sequential predicate; keeps ``keep_fraction`` of elements."""

    kind = "filter"
    tunable = False
    params = ("udf", "keep_fraction")

    def __init__(
        self,
        name: str,
        input_node: DatasetNode,
        udf: UserFunction,
        keep_fraction: float = 1.0,
    ) -> None:
        super().__init__(name, inputs=(input_node,), parallelism=None)
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in [0, 1], got {keep_fraction}")
        if udf.examples_ratio != 1:
            # Only keep_fraction drops elements; every backend runs a
            # filter UDF one element in, at most one out.
            raise ValueError(
                f"filter {name!r}: UDF examples_ratio must be 1, got "
                f"{udf.examples_ratio}; set keep_fraction to drop elements"
            )
        self.udf = udf
        self.keep_fraction = keep_fraction

    def elements_ratio(self) -> float:
        return self.keep_fraction


class BatchNode(DatasetNode):
    """Group ``batch_size`` elements into one minibatch element."""

    kind = "batch"
    tunable = True
    params = ("batch_size", "cpu_seconds_per_example", "drop_remainder")

    def __init__(
        self,
        name: str,
        input_node: DatasetNode,
        batch_size: int,
        parallelism: int = 1,
        cpu_seconds_per_example: float = 0.0,
        drop_remainder: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(name, inputs=(input_node,), parallelism=parallelism)
        self.batch_size = int(batch_size)
        self.cpu_seconds_per_example = cpu_seconds_per_example
        self.drop_remainder = drop_remainder

    def elements_ratio(self) -> float:
        return 1.0 / self.batch_size


class ShuffleNode(DatasetNode):
    """Sequential buffered uniform shuffle."""

    kind = "shuffle"
    tunable = False
    params = ("buffer_size", "cpu_seconds_per_element", "seed")

    def __init__(
        self,
        name: str,
        input_node: DatasetNode,
        buffer_size: int,
        cpu_seconds_per_element: float = 0.0,
        seed: int = 0,
    ) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        super().__init__(name, inputs=(input_node,), parallelism=None)
        self.buffer_size = int(buffer_size)
        self.cpu_seconds_per_element = cpu_seconds_per_element
        self.seed = seed


class ShuffleAndRepeatNode(ShuffleNode):
    """Fused sequential shuffle+repeat (GNMT's bottleneck in Fig. 9b)."""

    kind = "shuffle_and_repeat"


class RepeatNode(DatasetNode):
    """Repeat the child dataset ``count`` times (``None`` = forever)."""

    kind = "repeat"
    tunable = False
    params = ("count",)

    def __init__(
        self, name: str, input_node: DatasetNode, count: Optional[int] = None
    ) -> None:
        if count is not None and count < 1:
            raise ValueError(f"repeat count must be >= 1 or None, got {count}")
        super().__init__(name, inputs=(input_node,), parallelism=None)
        self.count = count


class TakeNode(DatasetNode):
    """Truncate the stream after ``count`` elements."""

    kind = "take"
    tunable = False
    params = ("count",)

    def __init__(self, name: str, input_node: DatasetNode, count: int) -> None:
        if count < 1:
            raise ValueError(f"take count must be >= 1, got {count}")
        super().__init__(name, inputs=(input_node,), parallelism=None)
        self.count = int(count)


class PrefetchNode(DatasetNode):
    """Decoupling buffer of ``buffer_size`` elements (software pipelining)."""

    kind = "prefetch"
    tunable = False
    params = ("buffer_size",)

    def __init__(self, name: str, input_node: DatasetNode, buffer_size: int) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        super().__init__(name, inputs=(input_node,), parallelism=None)
        self.buffer_size = int(buffer_size)


class CacheNode(DatasetNode):
    """Materialize the child's output (first pass) and serve from memory.

    ``read_cpu_seconds_per_element`` models the cheap memory-copy cost of
    serving a cached element.
    """

    kind = "cache"
    tunable = False
    params = ("storage", "read_cpu_seconds_per_element")

    def __init__(
        self,
        name: str,
        input_node: DatasetNode,
        storage: str = "memory",
        read_cpu_seconds_per_element: float = 1e-6,
    ) -> None:
        if storage not in ("memory", "disk"):
            raise ValueError(f"storage must be 'memory' or 'disk', got {storage!r}")
        super().__init__(name, inputs=(input_node,), parallelism=None)
        self.storage = storage
        self.read_cpu_seconds_per_element = read_cpu_seconds_per_element


class ZipNode(DatasetNode):
    """Lockstep merge: one output element pairs one element from every
    input (``tf.data.Dataset.zip``).

    The zip ticks at the rate of its slowest input; per output it
    consumes exactly one element from each branch, so the output's bytes
    are the *sum* of the branch elements' bytes. The stream ends when
    any input is exhausted (shorter branches truncate the longer ones).
    """

    kind = "zip"
    tunable = False
    input_arity = None
    params = ("cpu_seconds_per_element",)

    def __init__(
        self,
        name: str,
        input_nodes: Sequence[DatasetNode],
        cpu_seconds_per_element: float = 0.0,
    ) -> None:
        if len(input_nodes) < 2:
            raise ValueError(
                f"zip needs at least 2 inputs, got {len(input_nodes)}"
            )
        super().__init__(name, inputs=input_nodes, parallelism=None)
        self.cpu_seconds_per_element = cpu_seconds_per_element

    def input_consumption(self, index: int) -> float:
        return 1.0


class InterleaveDatasetsNode(DatasetNode):
    """Weighted round-robin merge over child subgraphs
    (``tf.data.Dataset.sample_from_datasets``-style replay mixing).

    Per output element, input ``i`` contributes with probability
    ``weights[i]`` (normalized), so on average the node consumes
    ``weights[i]`` elements from branch ``i`` per output. The mixed
    stream ends when the first branch is exhausted, keeping the declared
    mix exact for the whole stream.
    """

    kind = "interleave_datasets"
    tunable = False
    input_arity = None
    params = ("weights", "cpu_seconds_per_element", "seed")

    def __init__(
        self,
        name: str,
        input_nodes: Sequence[DatasetNode],
        weights: Optional[Sequence[float]] = None,
        cpu_seconds_per_element: float = 0.0,
        seed: int = 0,
    ) -> None:
        if len(input_nodes) < 2:
            raise ValueError(
                "interleave_datasets needs at least 2 inputs, "
                f"got {len(input_nodes)}"
            )
        super().__init__(name, inputs=input_nodes, parallelism=None)
        if weights is None:
            weights = [1.0] * len(input_nodes)
        if len(weights) != len(input_nodes):
            raise ValueError(
                f"got {len(weights)} weights for {len(input_nodes)} inputs"
            )
        if any(not w > 0 for w in weights):
            raise ValueError(f"weights must be > 0, got {list(weights)}")
        total = float(sum(weights))
        # Idempotent normalization: already-normalized weights (modulo
        # float residue) pass through untouched so a serialize →
        # deserialize round trip is byte-identical.
        if math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            self.weights = tuple(float(w) for w in weights)
        else:
            self.weights = tuple(float(w) / total for w in weights)
        self.cpu_seconds_per_element = cpu_seconds_per_element
        self.seed = seed

    def input_consumption(self, index: int) -> float:
        return self.weights[index]


class Pipeline:
    """A rooted dataset tree plus pipeline-level metadata.

    The root produces the elements the model consumes (minibatches once a
    :class:`BatchNode` is present). Iteration order in
    :meth:`topological_order` is sources-first, root-last, matching the
    direction of the byte-accounting recurrence in §A.

    A pipeline is a snapshot of its graph's structure. The constructor
    walks the graph once and indexes it: the pre-order and sources-first
    node orders, the name → node map, each node's consumer, and the
    nodes below a cache. Every structural query reads that index, so
    none walks the graph again. Values that are not structure, such as a
    node's parallelism, are never indexed and may be changed in place;
    changing structure means building a new ``Pipeline``.
    """

    def __init__(self, root: DatasetNode, name: str = "pipeline") -> None:
        self.root = root
        self.name = name
        self._index()

    # ------------------------------------------------------------------
    def _index(self) -> None:
        """Walk the graph once, depth first with inputs in order; raise
        on duplicate names."""
        root = self.root
        order: List[DatasetNode] = []
        names: Dict[str, DatasetNode] = {root.name: root}
        parents: Dict[str, DatasetNode] = {}
        cycle: Optional[DatasetNode] = None
        entered = {id(root)}
        walk = [(root, iter(root.inputs))]
        while walk:
            node, children = walk[-1]
            for child in children:
                if id(child) not in entered:
                    if names.setdefault(child.name, child) is not child:
                        raise ValueError(
                            f"duplicate node name {child.name!r} in pipeline"
                        )
                    parents[child.name] = node
                    entered.add(id(child))
                    walk.append((child, iter(child.inputs)))
                    break
                # Met again: a shared node, or a cycle if still on the
                # walk's path. Neither occurs in a valid pipeline.
                if cycle is None and any(n is child for n, _ in walk):
                    cycle = child
            else:
                walk.pop()
                order.append(node)

        # On an in-tree the reversed post-order is the root-first
        # pre-order that visits the last input first.
        preorder = order[::-1]
        below: set = set()
        for node in preorder:
            if isinstance(node, CacheNode):
                pending = list(node.inputs)
                while pending:
                    child = pending.pop()
                    if child.name not in below:
                        below.add(child.name)
                        pending.extend(child.inputs)

        self._preorder = tuple(preorder)
        self._order = tuple(order)
        self._sources = tuple(
            n for n in order if isinstance(n, InterleaveSourceNode)
        )
        self._by_name = {n.name: n for n in preorder}
        self._parents = parents
        self._below_cache = frozenset(below)
        self._cycle = cycle

    def iter_nodes(self) -> Iterator[DatasetNode]:
        """Yield nodes root-first: :meth:`topological_order` reversed,
        which on an in-tree is the pre-order visiting last inputs
        first."""
        return iter(self._preorder)

    def topological_order(self) -> List[DatasetNode]:
        """Nodes ordered sources-first (children before parents)."""
        return list(self._order)

    @property
    def cycle_entry(self) -> Optional[DatasetNode]:
        """The first node the sources-first walk reached again while it
        was still on the walk's path (``None`` for an acyclic graph)."""
        return self._cycle

    @property
    def nodes(self) -> Dict[str, DatasetNode]:
        """Name → node mapping."""
        return dict(self._by_name)

    def node(self, name: str) -> DatasetNode:
        """Look up a node by name, raising ``KeyError`` with context."""
        node = self._by_name.get(name)
        if node is None:
            raise KeyError(
                f"no node named {name!r}; have {sorted(self._by_name)}"
            )
        return node

    def sources(self) -> List[InterleaveSourceNode]:
        """All source nodes, sources-first order."""
        return list(self._sources)

    def tunables(self) -> List[DatasetNode]:
        """Nodes whose parallelism a tuner may rewrite."""
        return [n for n in self._order if n.tunable]

    def parent_of(self, name: str) -> Optional[DatasetNode]:
        """The unique consumer of node ``name`` (``None`` for the root)."""
        return self._parents.get(name)

    def visit_ratios(self) -> Dict[str, float]:
        """Structural visit ratios V_i (root units per node element).

        This is the *declared* recurrence ``V_i = r_i × V_{i-1}`` (§4.4)
        computed from node semantics; the tracer recomputes the same
        quantity from observed counters and the two must agree in steady
        state (tested).
        """
        ratios: Dict[str, float] = {self.root.name: 1.0}
        for node in self._preorder:
            v_parent = ratios[node.name]
            for i, child in enumerate(node.inputs):
                # The parent consumes ``input_consumption(i)`` elements
                # from input ``i`` per element it produces — 1/ratio for
                # chain operators, per-branch for merges.
                ratios[child.name] = v_parent * node.input_consumption(i)
        return ratios

    def batch_size(self) -> int:
        """Examples per root element.

        For a chain this is the product of batch sizes along the spine.
        At a zip the branch contributions *add* (one output carries one
        element from every branch); at an interleave they mix by weight.
        """
        examples: Dict[int, float] = {}
        for node in self._order:
            if not node.inputs:
                count = 1.0
            elif isinstance(node, ZipNode):
                count = sum(examples[id(c)] for c in node.inputs)
            elif isinstance(node, InterleaveDatasetsNode):
                count = sum(
                    w * examples[id(c)]
                    for w, c in zip(node.weights, node.inputs)
                )
            else:
                count = examples[id(node.inputs[0])]
                if isinstance(node, BatchNode):
                    count *= node.batch_size
            examples[id(node)] = count
        return max(1, int(round(examples[id(self.root)])))

    def below_cache_names(self) -> set:
        """Names of nodes strictly below any :class:`CacheNode` — the
        subtree with no steady-state cost once the cache is populated
        (the paper's post-first-epoch regime). Shared by the LP, the
        simulator and the analytic trace backend so they never disagree
        on which nodes are free."""
        return set(self._below_cache)

    def clone(self) -> "Pipeline":
        """Copy every node (UDFs/catalogs shared)."""
        mapping: Dict[int, DatasetNode] = {}
        for node in self._order:
            mapping[id(node)] = node.with_inputs(
                [mapping[id(c)] for c in node.inputs]
            )
        return Pipeline(mapping[id(self.root)], name=self.name)

    def _render_chain(self) -> str:
        """Root-first ``a <- b`` rendering; merge branches bracketed as
        ``merge <- [branch_a | branch_b]`` so fan-in is visible instead
        of being flattened into a misleading linear chain."""
        parts: List[str] = []
        shown = set()
        pending: list = [self.root]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            if not item.inputs or id(item) in shown:
                parts.append(item.name)
                continue
            shown.add(id(item))
            if len(item.inputs) == 1:
                parts.append(f"{item.name} <- ")
                pending.append(item.inputs[0])
            else:
                parts.append(f"{item.name} <- [")
                pending.append("]")
                for i, child in enumerate(reversed(item.inputs)):
                    if i:
                        pending.append(" | ")
                    pending.append(child)
        return "".join(parts)

    def describe(self) -> str:
        """Multi-line indented tree of the graph, root-first."""
        lines: List[str] = []
        shown = set()
        pending = [(self.root, 0)]
        while pending:
            node, depth = pending.pop()
            if id(node) in shown:
                continue
            shown.add(id(node))
            par = f" x{node.effective_parallelism}" if node.tunable else ""
            lines.append(f"{'  ' * depth}{node.name} [{node.kind}{par}]")
            pending.extend((c, depth + 1) for c in reversed(node.inputs))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Pipeline({self.name!r}: {self._render_chain()})"
