"""Labelled-digraph structures: the common substrate for CQs and data.

The paper works with conjunctive queries and data instances over unary
predicates (``F``, ``T``, ``A``, plus auxiliary labels used by the
Theorem 3 gadgets) and arbitrary binary predicates.  Both are finite
relational structures, which we represent uniformly as labelled digraphs:

* nodes (query variables or data constants),
* unary facts ``label(node)``,
* binary facts ``pred(src, dst)``.

A :class:`Structure` is immutable once frozen; builders use
:class:`StructureBuilder`.  Conjunctive queries are structures whose nodes
are read as existentially quantified variables; data instances are
structures whose nodes are read as constants.

Derived structures that only *add* material (and possibly drop unary
labels) can be produced through :meth:`Structure.extended`, which records
the delta against its base and derives every lazy view from the base's
on first use: the interning order by appending, the :class:`BitsetIndex`
and the label and neighbour maps by applying the delta, and the content
fingerprint by a multiset delta instead of rehashing every fact — the
substrate of the incremental cactus construction engine in
:mod:`repro.core.cactus`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

Node = Hashable


# numpy is an optional extra (``pip install .[matrix]``): the dense
# MatrixIndex and the hom engine's ``matrix`` backend use it when
# present and fall back to the Python-int bitset machinery otherwise.
_numpy_module = None
_numpy_checked = False


def numpy_or_none():
    """The numpy module, or ``None`` when the extra is not installed."""
    global _numpy_module, _numpy_checked
    if not _numpy_checked:
        _numpy_checked = True
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
    return _numpy_module


_ATOMIC_KEY_TYPES = (str, int, float, bool, bytes, complex, type(None))


def _canonical_key(node: Node) -> str:
    """A stable textual key for a node, for fingerprints and sort orders.

    Tuples and frozensets (the composite node names used by cactus and
    segment gluing) are rendered recursively, with frozenset elements
    sorted, so that equal nodes always produce equal keys regardless of
    set iteration order.  Builtin atoms use ``repr`` (injective across
    those types); any other object is keyed by its type's qualified name
    plus ``repr``.

    Fingerprint-keyed state (decomp plans, checkpoint rows, the probe's
    answer memo) relies on distinct nodes producing distinct keys, so
    custom node classes must have a ``repr`` that is injective up to
    ``__eq__`` (dataclass field reprs qualify); a constant or
    identity-blind ``repr`` on a custom node type can alias entries of
    structurally different structures.
    """
    if isinstance(node, tuple):
        return "(" + "\x1f".join(_canonical_key(x) for x in node) + ")"
    if isinstance(node, frozenset):
        return "{" + "\x1f".join(sorted(_canonical_key(x) for x in node)) + "}"
    if isinstance(node, _ATOMIC_KEY_TYPES):
        return repr(node)
    cls = type(node)
    return f"{cls.__module__}.{cls.__qualname__}\x1d{node!r}"

# The content fingerprint is a *multiset hash*: every fact (and node)
# renders to a canonical line, every line hashes to a 128-bit integer,
# and the fingerprint is their sum modulo 2**128.  Addition is
# commutative, so equal fact sets fingerprint equally regardless of
# build order — and a derived structure's fingerprint is the base's plus
# the added lines minus the removed ones, which is what lets
# :meth:`Structure.extended` maintain fingerprints incrementally.
_FP_MASK = (1 << 128) - 1


def _line_hash(line: str) -> int:
    digest = hashlib.blake2b(
        line.encode("utf-8", "backslashreplace"), digest_size=16
    ).digest()
    return int.from_bytes(digest, "big")


def _node_line(node: Node) -> str:
    return f"N\x1e{_canonical_key(node)}"


def _unary_line(fact: "UnaryFact") -> str:
    return f"U\x1e{fact.label}\x1e{_canonical_key(fact.node)}"


def _binary_line(fact: "BinaryFact") -> str:
    return (
        f"B\x1e{fact.pred}\x1e{_canonical_key(fact.src)}"
        f"\x1e{_canonical_key(fact.dst)}"
    )


# Unary predicate names with fixed meaning throughout the library.
F = "F"
T = "T"
A = "A"

# Default binary predicate used by most of the paper's example queries.
R = "R"
S = "S"


@dataclass(frozen=True)
class UnaryFact:
    """A unary atom ``label(node)``."""

    label: str
    node: Node

    def rename(self, mapping: Mapping[Node, Node]) -> "UnaryFact":
        return UnaryFact(self.label, mapping.get(self.node, self.node))


@dataclass(frozen=True)
class BinaryFact:
    """A binary atom ``pred(src, dst)``."""

    pred: str
    src: Node
    dst: Node

    def rename(self, mapping: Mapping[Node, Node]) -> "BinaryFact":
        return BinaryFact(
            self.pred,
            mapping.get(self.src, self.src),
            mapping.get(self.dst, self.dst),
        )


def _group_by_pred(
    facts: tuple["BinaryFact", ...], outgoing: bool
) -> dict[str, frozenset[Node]]:
    """Per-predicate endpoint sets of one node's edge tuple."""
    grouped: dict[str, set[Node]] = {}
    for fact in facts:
        grouped.setdefault(fact.pred, set()).add(
            fact.dst if outgoing else fact.src
        )
    return {p: frozenset(s) for p, s in grouped.items()}


class BitsetIndex:
    """Integer-interned, bitmask-encoded view of a :class:`Structure`.

    Nodes are interned to the integers ``0 .. n-1`` (in the structure's
    stable :attr:`Structure.node_order`); every node set is then a Python
    int used as a bitset.  The homomorphism engine's ``bitset`` backend
    runs entirely on these masks: candidate-domain filtering is a chain
    of bitwise ANDs and arc-consistency checks AND a domain against the
    precomputed adjacency masks of the candidate image.

    ``req_masks`` is derived data of the search kernel, filled on
    demand: the nodes meeting one source variable's requirement key
    (see :func:`repro.core.bitkernel.candidate_masks`), so every source
    probed against this target pays for each key once.
    :meth:`extended` starts the derived index with an empty table.
    """

    __slots__ = (
        "nodes",
        "index",
        "full_mask",
        "label_nodes",
        "succ",
        "pred",
        "has_out",
        "has_in",
        "req_masks",
    )

    def __init__(self, structure: "Structure") -> None:
        self.nodes: tuple[Node, ...] = structure.node_order
        self.index: dict[Node, int] = {
            node: i for i, node in enumerate(self.nodes)
        }
        n = len(self.nodes)
        self.full_mask: int = (1 << n) - 1
        self.req_masks: dict[str, int] = {}
        # label -> bitmask of nodes carrying the label
        self.label_nodes: dict[str, int] = {}
        for fact in structure.unary_facts:
            self.label_nodes[fact.label] = self.label_nodes.get(
                fact.label, 0
            ) | (1 << self.index[fact.node])
        # pred -> per-node-index masks of successors / predecessors,
        # plus "has at least one out/in edge with pred" node masks.
        self.succ: dict[str, list[int]] = {}
        self.pred: dict[str, list[int]] = {}
        self.has_out: dict[str, int] = {}
        self.has_in: dict[str, int] = {}
        for fact in structure.binary_facts:
            s, d = self.index[fact.src], self.index[fact.dst]
            if fact.pred not in self.succ:
                self.succ[fact.pred] = [0] * n
                self.pred[fact.pred] = [0] * n
                self.has_out[fact.pred] = 0
                self.has_in[fact.pred] = 0
            self.succ[fact.pred][s] |= 1 << d
            self.pred[fact.pred][d] |= 1 << s
            self.has_out[fact.pred] |= 1 << s
            self.has_in[fact.pred] |= 1 << d

    def mask_of(self, nodes: Iterable[Node]) -> int:
        """The bitmask of the given nodes (foreign nodes are ignored)."""
        mask = 0
        index = self.index
        for node in nodes:
            i = index.get(node)
            if i is not None:
                mask |= 1 << i
        return mask

    @classmethod
    def extended(
        cls,
        base: "BitsetIndex",
        structure: "Structure",
        added_unary: Iterable["UnaryFact"],
        removed_unary: Iterable["UnaryFact"],
        added_binary: Iterable["BinaryFact"],
    ) -> "BitsetIndex":
        """The index of a structure derived from ``base``'s structure.

        Requires ``structure.node_order`` to extend the base order (new
        nodes appended), which :meth:`Structure.extended` guarantees:
        every existing node keeps its bit position, so the base masks
        stay valid and only the delta's bits are edited.  The base's
        ``req_masks`` are not carried over: a delta can change them.
        """
        idx = cls.__new__(cls)
        idx.nodes = structure.node_order
        index = dict(base.index)
        for i in range(len(base.nodes), len(idx.nodes)):
            index[idx.nodes[i]] = i
        idx.index = index
        n = len(idx.nodes)
        idx.full_mask = (1 << n) - 1
        idx.req_masks = {}
        label_nodes = dict(base.label_nodes)
        for fact in removed_unary:
            label_nodes[fact.label] &= ~(1 << index[fact.node])
        for fact in added_unary:
            label_nodes[fact.label] = label_nodes.get(fact.label, 0) | (
                1 << index[fact.node]
            )
        # A fresh build only has keys for labels that still occur.
        idx.label_nodes = {
            label: mask for label, mask in label_nodes.items() if mask
        }
        has_out = dict(base.has_out)
        has_in = dict(base.has_in)
        pad = n - len(base.nodes)
        touched = {fact.pred for fact in added_binary}
        succ: dict[str, list[int]] = {}
        pred: dict[str, list[int]] = {}
        for p in base.succ:
            if pad:
                succ[p] = base.succ[p] + [0] * pad
                pred[p] = base.pred[p] + [0] * pad
            elif p in touched:
                succ[p] = list(base.succ[p])
                pred[p] = list(base.pred[p])
            else:
                # Untouched mask lists are shared with the base (they
                # are never mutated again).
                succ[p] = base.succ[p]
                pred[p] = base.pred[p]
        for fact in added_binary:
            s, d = index[fact.src], index[fact.dst]
            if fact.pred not in succ:
                succ[fact.pred] = [0] * n
                pred[fact.pred] = [0] * n
                has_out[fact.pred] = 0
                has_in[fact.pred] = 0
            succ[fact.pred][s] |= 1 << d
            pred[fact.pred][d] |= 1 << s
            has_out[fact.pred] |= 1 << s
            has_in[fact.pred] |= 1 << d
        idx.succ = succ
        idx.pred = pred
        idx.has_out = has_out
        idx.has_in = has_in
        return idx


class MatrixIndex:
    """Dense boolean-matrix view of a :class:`Structure` (numpy only).

    Nodes are interned to ``0 .. n-1`` in :attr:`Structure.node_order`;
    every node set becomes a boolean vector and every binary predicate a
    dense ``n x n`` boolean adjacency matrix (``adj[p][u, w]`` iff the
    fact ``p(u, w)`` holds).  The homomorphism engine's ``matrix``
    backend runs arc consistency as boolean-semiring matrix-vector
    products (``adj[p] @ domain`` — numpy evaluates boolean ``dot`` in
    the OR-AND semiring) and forward checking as row ANDs, replacing the
    per-candidate Python loops of the ``bitset`` backend with one
    vectorized operation per revision.  Dense matrices pay off on large,
    edge-rich targets; the ``bitset`` index remains the right view for
    small structures.
    """

    __slots__ = (
        "nodes",
        "index",
        "n",
        "full",
        "label_nodes",
        "adj",
        "adj_t",
        "has_out",
        "has_in",
    )

    def __init__(self, structure: "Structure") -> None:
        np = numpy_or_none()
        if np is None:  # pragma: no cover - exercised on numpy-free builds
            raise RuntimeError(
                "MatrixIndex requires numpy (install the 'matrix' extra); "
                "use Structure.bitset_index / the 'bitset' backend instead"
            )
        self.nodes: tuple[Node, ...] = structure.node_order
        self.index: Mapping[Node, int] = structure.node_index
        n = len(self.nodes)
        self.n = n
        self.full = np.ones(n, dtype=bool)
        self.label_nodes: dict[str, object] = {}
        for label in structure.unary_predicates:
            vec = np.zeros(n, dtype=bool)
            for node in structure.nodes_with_label(label):
                vec[self.index[node]] = True
            self.label_nodes[label] = vec
        self.adj: dict[str, object] = {}
        self.adj_t: dict[str, object] = {}
        for fact in structure.binary_facts:
            mat = self.adj.get(fact.pred)
            if mat is None:
                mat = np.zeros((n, n), dtype=bool)
                self.adj[fact.pred] = mat
            mat[self.index[fact.src], self.index[fact.dst]] = True
        for pred, mat in self.adj.items():
            self.adj_t[pred] = np.ascontiguousarray(mat.T)
        self.has_out = {p: m.any(axis=1) for p, m in self.adj.items()}
        self.has_in = {p: m.any(axis=0) for p, m in self.adj.items()}

    def mask_of(self, nodes: Iterable[Node]):
        """The boolean vector of the given nodes (foreign nodes ignored)."""
        np = numpy_or_none()
        vec = np.zeros(self.n, dtype=bool)
        index = self.index
        for node in nodes:
            i = index.get(node)
            if i is not None:
                vec[i] = True
        return vec


class Structure:
    """An immutable finite structure over unary and binary predicates.

    Provides the indexed views needed by the homomorphism engine:
    labels per node, outgoing/incoming edges per node, nodes per label,
    and — built lazily on first use — an integer interning of the nodes
    (:attr:`node_order` / :attr:`node_index`), per-``(node, pred)``
    successor/predecessor frozensets, a :class:`BitsetIndex` of adjacency
    bitmasks, and a stable content :attr:`fingerprint` for cache keys.
    """

    __slots__ = (
        "_nodes",
        "_unary",
        "_binary",
        "_labels_by_node",
        "_nodes_by_label",
        "_out",
        "_in",
        "_hash",
        "_node_order",
        "_node_index",
        "_out_by_pred",
        "_in_by_pred",
        "_bitset_index",
        "_matrix_index",
        "_fingerprint",
        "_fingerprint_int",
        "_engine_plan",
        "_tree_decomp",
        "_decomp_plan",
        "_delta",
        "_unary_preds",
        "_binary_preds",
    )

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        unary: Iterable[UnaryFact] = (),
        binary: Iterable[BinaryFact] = (),
    ) -> None:
        unary = frozenset(unary)
        binary = frozenset(binary)
        explicit = set(nodes)
        for fact in unary:
            explicit.add(fact.node)
        for fact in binary:
            explicit.add(fact.src)
            explicit.add(fact.dst)
        self._nodes = frozenset(explicit)
        self._unary = unary
        self._binary = binary
        # Everything below the frozen fact sets — the label / adjacency
        # maps, the hash, the engine indexes — is built lazily on first
        # use (and, for extended() results, from the base's maps plus
        # the delta), so constructing a structure costs only the
        # frozensets themselves.
        self._labels_by_node = None
        self._nodes_by_label = None
        self._out = None
        self._in = None
        self._hash = None
        # Set by extended(): (base, added_unary, removed_unary,
        # added_binary, new_nodes), the derivation record every lazy
        # view below resolves through (see extended()).
        self._delta = None
        # Lazily-built engine indexes (see the properties below).
        self._node_order: tuple[Node, ...] | None = None
        self._node_index: dict[Node, int] | None = None
        self._out_by_pred: dict[Node, dict[str, frozenset[Node]]] | None = None
        self._in_by_pred: dict[Node, dict[str, frozenset[Node]]] | None = None
        self._bitset_index: BitsetIndex | None = None
        self._matrix_index: MatrixIndex | None = None
        self._fingerprint: str | None = None
        self._fingerprint_int: int | None = None
        # Opaque per-structure scratch of the homomorphism engine: the
        # compiled source-side search plan (see bitkernel.source_plan),
        # the tree decomposition of the primal graph and the compiled
        # decomposition-DP plan (see repro.core.decomp).
        self._engine_plan = None
        self._tree_decomp = None
        self._decomp_plan = None
        self._unary_preds: frozenset[str] | None = None
        self._binary_preds: frozenset[str] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def _ensure_maps(self) -> None:
        """Build the label / adjacency maps on first use.

        A structure produced by :meth:`extended` whose base has built
        maps (and whose derivation record is still held) copies them
        (C-speed dict copies) and applies only the delta; everything
        else scans its own fact sets once.
        """
        if self._labels_by_node is not None:
            return
        delta = self._delta
        if delta is not None and delta[0]._labels_by_node is not None:
            base, added_u, removed_u, added_b, new_nodes = delta
            labels_by_node = dict(base._labels_by_node)
            nodes_by_label = dict(base._nodes_by_label)
            out = dict(base._out)
            inc = dict(base._in)
            for n in new_nodes:
                labels_by_node[n] = frozenset()
                out[n] = ()
                inc[n] = ()
            for f in removed_u:
                labels_by_node[f.node] = labels_by_node[f.node] - {f.label}
                nodes_by_label[f.label] = nodes_by_label[f.label] - {f.node}
            for f in added_u:
                labels_by_node[f.node] = labels_by_node[f.node] | {f.label}
                nodes_by_label[f.label] = (
                    nodes_by_label.get(f.label, frozenset()) | {f.node}
                )
            for f in added_b:
                out[f.src] = out[f.src] + (f,)
                inc[f.dst] = inc[f.dst] + (f,)
            self._labels_by_node = labels_by_node
            self._nodes_by_label = nodes_by_label
            self._out = out
            self._in = inc
            return
        labels: dict[Node, set[str]] = {n: set() for n in self._nodes}
        by_label: dict[str, set[Node]] = {}
        for fact in self._unary:
            labels[fact.node].add(fact.label)
            by_label.setdefault(fact.label, set()).add(fact.node)
        out_lists: dict[Node, list[BinaryFact]] = {n: [] for n in self._nodes}
        in_lists: dict[Node, list[BinaryFact]] = {n: [] for n in self._nodes}
        for fact in self._binary:
            out_lists[fact.src].append(fact)
            in_lists[fact.dst].append(fact)
        self._labels_by_node = {
            n: frozenset(ls) for n, ls in labels.items()
        }
        self._nodes_by_label = {
            label: frozenset(ns) for label, ns in by_label.items()
        }
        self._out = {n: tuple(facts) for n, facts in out_lists.items()}
        self._in = {n: tuple(facts) for n, facts in in_lists.items()}

    @property
    def nodes(self) -> frozenset[Node]:
        return self._nodes

    @property
    def unary_facts(self) -> frozenset[UnaryFact]:
        return self._unary

    @property
    def binary_facts(self) -> frozenset[BinaryFact]:
        return self._binary

    def labels(self, node: Node) -> frozenset[str]:
        """All unary labels on ``node``."""
        if self._labels_by_node is None:
            self._ensure_maps()
        return self._labels_by_node.get(node, frozenset())

    def has_label(self, node: Node, label: str) -> bool:
        return label in self.labels(node)

    def nodes_with_label(self, label: str) -> frozenset[Node]:
        if self._nodes_by_label is None:
            self._ensure_maps()
        return self._nodes_by_label.get(label, frozenset())

    def out_edges(self, node: Node) -> tuple[BinaryFact, ...]:
        if self._out is None:
            self._ensure_maps()
        return self._out.get(node, ())

    def in_edges(self, node: Node) -> tuple[BinaryFact, ...]:
        if self._in is None:
            self._ensure_maps()
        return self._in.get(node, ())

    def successors(self, node: Node) -> Iterator[Node]:
        for fact in self.out_edges(node):
            yield fact.dst

    def predecessors(self, node: Node) -> Iterator[Node]:
        for fact in self.in_edges(node):
            yield fact.src

    def degree(self, node: Node) -> int:
        return len(self.out_edges(node)) + len(self.in_edges(node))

    @property
    def unary_predicates(self) -> frozenset[str]:
        if self._unary_preds is None:
            self._unary_preds = frozenset(
                fact.label for fact in self._unary
            )
        return self._unary_preds

    @property
    def binary_predicates(self) -> frozenset[str]:
        if self._binary_preds is None:
            self._binary_preds = frozenset(
                fact.pred for fact in self._binary
            )
        return self._binary_preds

    def __len__(self) -> int:
        return len(self._nodes)

    def size(self) -> int:
        """Total number of facts (atoms) in the structure."""
        return len(self._unary) + len(self._binary)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._unary == other._unary
            and self._binary == other._binary
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nodes, self._unary, self._binary))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Structure(|nodes|={len(self._nodes)}, "
            f"|unary|={len(self._unary)}, |binary|={len(self._binary)})"
        )

    # ------------------------------------------------------------------
    # Lazily-built engine indexes
    # ------------------------------------------------------------------

    @property
    def node_order(self) -> tuple[Node, ...]:
        """The nodes in a stable, per-instance interning order.

        Position in this tuple is the node's integer id (see
        :attr:`node_index` for the inverse map).  A structure built from
        scratch sorts its nodes by :func:`_canonical_key`.  A structure
        from :meth:`extended` takes its base's order and appends the
        delta's new nodes in the order :meth:`extended` fixed for them,
        so every existing id (and therefore every bitset position)
        survives extension all the way down a derivation chain.  Nothing
        is ordered at extension time: the first read walks up to the
        nearest ancestor with a resolved order (or to the chain's root)
        and resolves the chain downwards.  No order depends on
        ``PYTHONHASHSEED``.
        """
        if self._node_order is None:
            chain = [self]
            s = self
            while s._delta is not None and s._delta[0]._node_order is None:
                s = s._delta[0]
                chain.append(s)
            for s in reversed(chain):
                if s._delta is None:
                    s._node_order = tuple(sorted(s._nodes, key=_canonical_key))
                else:
                    s._node_order = s._delta[0]._node_order + s._delta[4]
        return self._node_order

    @property
    def node_index(self) -> Mapping[Node, int]:
        """The node -> int interning table (inverse of :attr:`node_order`)."""
        if self._node_index is None:
            self._node_index = {
                node: i for i, node in enumerate(self.node_order)
            }
        return self._node_index

    def _build_pred_maps(self) -> None:
        delta = self._delta
        if delta is not None and delta[0]._out_by_pred is not None:
            base, _added_u, _removed_u, added_b, new_nodes = delta
            out_bp = dict(base._out_by_pred)
            in_bp = dict(base._in_by_pred)
            for n in new_nodes:
                out_bp[n] = {}
                in_bp[n] = {}
            for n in {f.src for f in added_b}:
                out_bp[n] = _group_by_pred(self.out_edges(n), True)
            for n in {f.dst for f in added_b}:
                in_bp[n] = _group_by_pred(self.in_edges(n), False)
            self._out_by_pred = out_bp
            self._in_by_pred = in_bp
            return
        out: dict[Node, dict[str, set[Node]]] = {n: {} for n in self._nodes}
        inc: dict[Node, dict[str, set[Node]]] = {n: {} for n in self._nodes}
        for fact in self._binary:
            out[fact.src].setdefault(fact.pred, set()).add(fact.dst)
            inc[fact.dst].setdefault(fact.pred, set()).add(fact.src)
        self._out_by_pred = {
            n: {p: frozenset(s) for p, s in preds.items()}
            for n, preds in out.items()
        }
        self._in_by_pred = {
            n: {p: frozenset(s) for p, s in preds.items()}
            for n, preds in inc.items()
        }

    def out_by_pred(self, node: Node) -> Mapping[str, frozenset[Node]]:
        """Per-predicate successor sets of ``node`` (lazily indexed)."""
        if self._out_by_pred is None:
            self._build_pred_maps()
        return self._out_by_pred.get(node, {})

    def in_by_pred(self, node: Node) -> Mapping[str, frozenset[Node]]:
        """Per-predicate predecessor sets of ``node`` (lazily indexed)."""
        if self._in_by_pred is None:
            self._build_pred_maps()
        return self._in_by_pred.get(node, {})

    def out_pred_set(self, node: Node) -> frozenset[str]:
        """The predicates of the outgoing edges of ``node``."""
        return frozenset(self.out_by_pred(node))

    def in_pred_set(self, node: Node) -> frozenset[str]:
        """The predicates of the incoming edges of ``node``."""
        return frozenset(self.in_by_pred(node))

    @property
    def bitset_index(self) -> BitsetIndex:
        """The interned bitmask view used by the ``bitset`` and
        ``decomp`` hom backends.

        Resolved through the derivation chain of :meth:`extended`, the
        way :attr:`node_order` is: the first read walks up to the
        nearest ancestor that has an index (or to the chain's root,
        which builds one from scratch) and applies
        :meth:`BitsetIndex.extended` down the chain, so a family of
        structures grown from one root (a probe's cactus universe) pays
        one full build plus one delta per member.  Resolving the index
        drops the derivation record, releasing the ancestor reference;
        views built later from scratch are equal to derived ones.
        """
        if self._bitset_index is None:
            self.node_order  # resolves the order down the same chain
            chain = [self]
            s = self
            while s._delta is not None and s._delta[0]._bitset_index is None:
                s = s._delta[0]
                chain.append(s)
            for s in reversed(chain):
                if s._delta is None:
                    s._bitset_index = BitsetIndex(s)
                else:
                    base, added_u, removed_u, added_b, _ = s._delta
                    s._bitset_index = BitsetIndex.extended(
                        base._bitset_index, s, added_u, removed_u, added_b
                    )
                    s._delta = None
        return self._bitset_index

    @property
    def matrix_index(self) -> MatrixIndex:
        """The dense boolean-matrix view used by the ``matrix`` hom
        backend (lazily built; raises :class:`RuntimeError` when numpy is
        not installed — callers should check
        :func:`repro.core.homengine.matrix_backend_available` first)."""
        if self._matrix_index is None:
            self._matrix_index = MatrixIndex(self)
        return self._matrix_index

    @property
    def _fp_int(self) -> int:
        """The 128-bit multiset fingerprint (see module header)."""
        if self._fingerprint_int is None:
            total = 0
            for n in self._nodes:
                total += _line_hash(_node_line(n))
            for f in self._unary:
                total += _line_hash(_unary_line(f))
            for f in self._binary:
                total += _line_hash(_binary_line(f))
            self._fingerprint_int = total & _FP_MASK
        return self._fingerprint_int

    @property
    def fingerprint(self) -> str:
        """A stable content digest, usable as a cross-instance cache key.

        Two structures with equal nodes and facts always produce the same
        fingerprint, even when built in different orders, as distinct
        instances, or through :meth:`extended` (which maintains the
        digest by a delta); decomp plans and checkpoint rows rely on
        this.
        """
        if self._fingerprint is None:
            self._fingerprint = format(self._fp_int, "032x")
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def extended(
        self,
        add_nodes: Iterable[Node] = (),
        add_unary: Iterable[UnaryFact] = (),
        add_binary: Iterable[BinaryFact] = (),
        remove_unary: Iterable[UnaryFact] = (),
    ) -> "Structure":
        """A derived structure: this one plus a delta, sharing index work.

        The result equals ``Structure(nodes | add_nodes, (unary -
        remove_unary) | add_unary, binary | add_binary)`` — node for
        node, fact for fact, fingerprint for fingerprint.  Building it
        costs only the new fact sets: the result keeps a derivation
        record ``(base, added_unary, removed_unary, added_binary,
        new_nodes)`` and derives its lazy views from the base's on first
        use — the interning order (:attr:`node_order`), the
        :class:`BitsetIndex` (:attr:`bitset_index`), the label and
        neighbour maps, and the engine's source plan.  The multiset
        fingerprint is updated by the delta's line hashes when the base
        has one.  Nodes are never removed (dropping a unary fact keeps
        its node), and binary facts are add-only; use the from-scratch
        constructors for anything else.  This is the fast path under
        incremental cactus budding, ``union`` and ``relabel_node``.

        New nodes take the next integer ids in the order ``add_nodes``
        lists them, followed by any new node that only the added facts
        mention, sorted by :func:`_canonical_key`.  Pass ``add_nodes``
        as a sequence (the cactus factory passes each generation's
        nodes ordered by bud path, then by query variable): a set's
        iteration order varies with ``PYTHONHASHSEED``.
        """
        add_unary = frozenset(add_unary)
        add_binary = frozenset(add_binary)
        remove_unary = frozenset(remove_unary)
        # Normalise through the (small) delta side: every set operation
        # below iterates the delta, not the base, except the final
        # unions producing the new fact sets.
        removed_u = (remove_unary & self._unary) - add_unary
        surviving = self._unary - removed_u if removed_u else self._unary
        added_u = add_unary - surviving
        new_unary = surviving | added_u if added_u else surviving
        added_b = add_binary - self._binary
        new_binary = self._binary | added_b if added_b else self._binary
        base_nodes = self._nodes
        new_nodes = [n for n in dict.fromkeys(add_nodes) if n not in base_nodes]
        mentioned = {f.node for f in added_u}
        for f in added_b:
            mentioned.add(f.src)
            mentioned.add(f.dst)
        fact_only = mentioned - base_nodes  # iterates the small side
        if fact_only:
            fact_only.difference_update(new_nodes)
            new_nodes.extend(sorted(fact_only, key=_canonical_key))
        if not (new_nodes or removed_u or added_u or added_b):
            return self

        s = Structure.__new__(Structure)
        s._nodes = base_nodes.union(new_nodes) if new_nodes else base_nodes
        s._unary = new_unary
        s._binary = new_binary
        s._hash = None
        s._delta = (self, added_u, removed_u, added_b, tuple(new_nodes))
        # Every view below is lazy and resolves through _delta.  Dense
        # matrices are the exception: they don't extend cheaply (a pad
        # reallocates every predicate's n x n block), so derived
        # structures rebuild them on demand.
        s._labels_by_node = None
        s._nodes_by_label = None
        s._out = None
        s._in = None
        s._node_order = None
        s._node_index = None
        s._out_by_pred = None
        s._in_by_pred = None
        s._bitset_index = None
        s._matrix_index = None

        if self._fingerprint_int is not None:
            delta = 0
            for n in new_nodes:
                delta += _line_hash(_node_line(n))
            for f in added_u:
                delta += _line_hash(_unary_line(f))
            for f in added_b:
                delta += _line_hash(_binary_line(f))
            for f in removed_u:
                delta -= _line_hash(_unary_line(f))
            s._fingerprint_int = (self._fingerprint_int + delta) & _FP_MASK
        else:
            s._fingerprint_int = None
        s._fingerprint = None

        s._engine_plan = None
        # Decompositions and decomp plans depend on the full primal
        # graph; a delta can change the width, so derived structures
        # rebuild them on demand (the fingerprint-keyed plan intern in
        # repro.core.decomp still dedupes content-equal rebuilds).
        s._tree_decomp = None
        s._decomp_plan = None
        s._unary_preds = None
        s._binary_preds = None
        return s

    def rename(self, mapping: Mapping[Node, Node]) -> "Structure":
        """A copy with nodes renamed; identity outside ``mapping``.

        The mapping may be non-injective, in which case nodes are merged
        (glued), as in the budding operation.
        """
        return Structure(
            (mapping.get(n, n) for n in self._nodes),
            (f.rename(mapping) for f in self._unary),
            (f.rename(mapping) for f in self._binary),
        )

    def relabel_node(
        self,
        node: Node,
        remove: Iterable[str] = (),
        add: Iterable[str] = (),
    ) -> "Structure":
        """A copy with some unary labels on ``node`` removed/added."""
        remove = set(remove)
        return self.extended(
            add_unary=[UnaryFact(label, node) for label in add],
            remove_unary=[
                UnaryFact(label, node)
                for label in self.labels(node)
                if label in remove
            ],
        )

    def union(self, other: "Structure") -> "Structure":
        """Disjoint-or-not union: facts of both structures together.

        Nodes with equal names are identified, which is how gluing is
        expressed throughout the library (rename first for disjointness).
        The larger side's indexes are extended by the smaller side's
        facts instead of rebuilding from scratch; the smaller side's new
        nodes are appended in its own :attr:`node_order`.
        """
        big, small = (
            (self, other) if len(self._nodes) >= len(other._nodes) else
            (other, self)
        )
        return big.extended(
            add_nodes=small.node_order,
            add_unary=small._unary,
            add_binary=small._binary,
        )

    def restrict(self, keep: Iterable[Node]) -> "Structure":
        """The induced substructure on the node set ``keep``."""
        keep = set(keep)
        return Structure(
            keep & self._nodes,
            (f for f in self._unary if f.node in keep),
            (
                f
                for f in self._binary
                if f.src in keep and f.dst in keep
            ),
        )

    def without_nodes(self, drop: Iterable[Node]) -> "Structure":
        drop = set(drop)
        return self.restrict(self._nodes - drop)

    def with_fresh_nodes(self, prefix: str) -> tuple["Structure", dict[Node, Node]]:
        """A disjoint copy whose nodes are ``(prefix, original)`` pairs."""
        mapping: dict[Node, Node] = {n: (prefix, n) for n in self._nodes}
        return self.rename(mapping), mapping

    # ------------------------------------------------------------------
    # Graph-theoretic helpers
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Weak connectivity of the underlying graph."""
        if not self._nodes:
            return True
        seen: set[Node] = set()
        stack = [next(iter(self._nodes))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.successors(node))
            stack.extend(self.predecessors(node))
        return seen == self._nodes

    def weak_components(self) -> list[frozenset[Node]]:
        remaining = set(self._nodes)
        components: list[frozenset[Node]] = []
        while remaining:
            seed = next(iter(remaining))
            seen: set[Node] = set()
            stack = [seed]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(self.successors(node))
                stack.extend(self.predecessors(node))
            components.append(frozenset(seen))
            remaining -= seen
        return components

    def is_dag(self) -> bool:
        """True if the binary-edge digraph has no directed cycle."""
        indeg = {n: 0 for n in self._nodes}
        for fact in self._binary:
            indeg[fact.dst] += 1
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for fact in self.out_edges(node):
                indeg[fact.dst] -= 1
                if indeg[fact.dst] == 0:
                    queue.append(fact.dst)
        return seen == len(self._nodes)

    def is_ditree(self) -> bool:
        """True if the digraph is a rooted directed tree.

        Exactly one node of in-degree 0, every other node of in-degree 1,
        connected, and no parallel edges collapsing (multi-edges between
        the same pair with different predicates disqualify tree shape).
        """
        if not self._nodes:
            return False
        roots = [n for n in self._nodes if not self.in_edges(n)]
        if len(roots) != 1:
            return False
        for node in self._nodes:
            if node == roots[0]:
                continue
            if len(self.in_edges(node)) != 1:
                return False
        return self.is_connected()

    def ditree_root(self) -> Node:
        """The unique in-degree-0 node of a ditree (raises otherwise)."""
        roots = [n for n in self._nodes if not self.in_edges(n)]
        if len(roots) != 1:
            raise ValueError("structure is not a rooted ditree")
        return roots[0]

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A stable human-readable listing of all facts."""
        lines = []
        for fact in sorted(self._unary, key=lambda f: (str(f.node), f.label)):
            lines.append(f"{fact.label}({fact.node})")
        for fact in sorted(
            self._binary, key=lambda f: (str(f.src), f.pred, str(f.dst))
        ):
            lines.append(f"{fact.pred}({fact.src}, {fact.dst})")
        return "\n".join(lines)


@dataclass
class StructureBuilder:
    """Mutable accumulator for constructing a :class:`Structure`."""

    nodes: set[Node] = field(default_factory=set)
    unary: set[UnaryFact] = field(default_factory=set)
    binary: set[BinaryFact] = field(default_factory=set)
    _fresh_counter: itertools.count = field(default_factory=itertools.count)

    def add_node(self, node: Node, *labels: str) -> Node:
        self.nodes.add(node)
        for label in labels:
            self.unary.add(UnaryFact(label, node))
        return node

    def fresh_node(self, *labels: str, hint: str = "n") -> Node:
        node = f"{hint}#{next(self._fresh_counter)}"
        while node in self.nodes:
            node = f"{hint}#{next(self._fresh_counter)}"
        return self.add_node(node, *labels)

    def add_label(self, node: Node, *labels: str) -> None:
        self.nodes.add(node)
        for label in labels:
            self.unary.add(UnaryFact(label, node))

    def add_edge(self, src: Node, dst: Node, pred: str = R) -> None:
        self.nodes.add(src)
        self.nodes.add(dst)
        self.binary.add(BinaryFact(pred, src, dst))

    def add_structure(self, other: Structure) -> None:
        self.nodes |= other.nodes
        self.unary |= other.unary_facts
        self.binary |= other.binary_facts

    def build(self) -> Structure:
        return Structure(self.nodes, self.unary, self.binary)


def path_structure(
    labels: Iterable[Iterable[str] | str],
    preds: Iterable[str] | None = None,
    prefix: str = "v",
) -> Structure:
    """An R-path (or mixed-predicate path) with the given node labels.

    ``labels`` lists per-node unary labels; a bare string means one label
    and the empty string means no label.  ``preds`` optionally gives the
    edge predicate per consecutive pair (defaults to all ``R``).

    >>> q = path_structure(["T", "T", "F"])          # T -R-> T -R-> F
    >>> sorted(q.nodes)
    ['v0', 'v1', 'v2']
    """
    label_lists: list[tuple[str, ...]] = []
    for item in labels:
        if isinstance(item, str):
            label_lists.append((item,) if item else ())
        else:
            label_lists.append(tuple(item))
    n = len(label_lists)
    pred_list = list(preds) if preds is not None else [R] * max(n - 1, 0)
    if len(pred_list) != max(n - 1, 0):
        raise ValueError("need exactly len(labels) - 1 edge predicates")
    builder = StructureBuilder()
    names = [f"{prefix}{i}" for i in range(n)]
    for name, labs in zip(names, label_lists):
        builder.add_node(name, *labs)
    for i, pred in enumerate(pred_list):
        builder.add_edge(names[i], names[i + 1], pred)
    return builder.build()
