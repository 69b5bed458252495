"""Reference computations the output checks compare against.

Written from the definitions, sharing no code with the program: a
structure is a plain triple ``(nodes, unary, binary)`` of a node set,
``(label, node)`` pairs and ``(pred, src, dst)`` triples.
"""

from __future__ import annotations

import itertools
from collections import deque

T, F, A = "T", "F", "A"


def triple(structure) -> tuple[frozenset, frozenset, frozenset]:
    """A program ``Structure`` as a plain triple."""
    return (
        frozenset(structure.nodes),
        frozenset((f.label, f.node) for f in structure.unary_facts),
        frozenset((f.pred, f.src, f.dst) for f in structure.binary_facts),
    )


def from_wire(obj: dict) -> tuple[frozenset, frozenset, frozenset]:
    """A wire structure (``{"nodes", "unary", "binary"}``) as a triple."""
    unary = frozenset((label, node) for label, node in obj.get("unary", ()))
    binary = frozenset(
        (pred, src, dst) for pred, src, dst in obj.get("binary", ())
    )
    nodes = set(obj.get("nodes", ()))
    nodes |= {n for _, n in unary} | {s for _, s, _ in binary}
    nodes |= {d for _, _, d in binary}
    return frozenset(nodes), unary, binary


class Index:
    """Label and adjacency lookups over one data triple; build it once
    to match many queries against the same data."""

    def __init__(self, data) -> None:
        nodes, unary, binary = data
        self.nodes = nodes
        self.out: dict = {}
        self.inc: dict = {}
        for pred, src, dst in binary:
            self.out.setdefault((pred, src), set()).add(dst)
            self.inc.setdefault((pred, dst), set()).add(src)
        self.by_label: dict = {}
        for label, node in unary:
            self.by_label.setdefault(label, set()).add(node)

    def candidates(self, labels) -> set:
        if not labels:
            return set(self.nodes)
        sets = [self.by_label.get(label, set()) for label in labels]
        return set.intersection(*sets)


def _index(data) -> Index:
    return data if isinstance(data, Index) else Index(data)


def hom_exists(query, data) -> bool:
    """Is there a homomorphism ``query -> data`` (a triple or an
    :class:`Index`)?  Plain backtracking over the query's nodes in
    connected order."""
    q_nodes, _q_unary, q_binary = query
    index = _index(data)
    q_labels = _query_labels(query)
    adjacent: dict = {n: [] for n in q_nodes}
    for pred, src, dst in q_binary:
        adjacent[src].append((pred, src, dst))
        adjacent[dst].append((pred, src, dst))
    order: list = []
    seen: set = set()
    for start in sorted(q_nodes, key=lambda n: (-len(adjacent[n]), repr(n))):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            order.append(node)
            for _, src, dst in adjacent[node]:
                other = dst if src == node else src
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
    domains = {n: index.candidates(q_labels[n]) for n in q_nodes}
    if any(not dom for dom in domains.values()):
        return False
    assignment: dict = {}

    def consistent(node, image) -> bool:
        for pred, src, dst in adjacent[node]:
            s = image if src == node else assignment.get(src)
            d = image if dst == node else assignment.get(dst)
            if s is None or d is None:
                continue
            if d not in index.out.get((pred, s), ()):
                return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        node = order[i]
        for image in domains[node]:
            if consistent(node, image):
                assignment[node] = image
                if search(i + 1):
                    return True
                del assignment[node]
        return False

    return search(0)


def _tree_shape(query):
    """Root, bottom-up order and child edges of a tree-shaped query,
    or None if the query's underlying graph is not a tree."""
    nodes, _unary, binary = query
    if not nodes or len(binary) != len(nodes) - 1:
        return None
    adjacent: dict = {n: [] for n in nodes}
    for pred, src, dst in binary:
        if src == dst:
            return None
        adjacent[src].append((pred, src, dst))
        adjacent[dst].append((pred, src, dst))
    root = min(nodes, key=repr)
    children: dict = {root: []}
    order = [root]
    for node in order:
        for edge in adjacent[node]:
            _, src, dst = edge
            other = dst if src == node else src
            if other in children:
                continue
            children[other] = []
            children[node].append((other, edge))
            order.append(other)
    if len(order) != len(nodes):
        return None
    order.reverse()
    return root, order, children


def _query_labels(query) -> dict:
    labels: dict = {n: set() for n in query[0]}
    for label, node in query[1]:
        labels[node].add(label)
    return labels


def tree_hom_count(query, data) -> int:
    """Number of homomorphisms of a tree-shaped ``query`` into ``data``
    by dynamic programming from the leaves up."""
    shape = _tree_shape(query)
    if shape is None:
        raise ValueError("query is not tree-shaped")
    root, order, children = shape
    index = _index(data)
    labels = _query_labels(query)
    counts: dict = {}
    for node in order:
        table = {u: 1 for u in index.candidates(labels[node])}
        for child, (pred, src, dst) in children[node]:
            pick = index.out if src == node else index.inc
            below = counts[child]
            for u in list(table):
                total = sum(below.get(v, 0) for v in pick.get((pred, u), ()))
                if total:
                    table[u] *= total
                else:
                    del table[u]
        counts[node] = table
    return sum(counts[root].values())


def certain_by_completions(query, data) -> bool:
    """The d-sirup certain answer by its definition: ``query`` maps
    into every completion that labels each A node T or F."""
    nodes, unary, binary = data
    a_nodes = sorted((n for label, n in unary if label == A), key=repr)
    for labels in itertools.product((T, F), repeat=len(a_nodes)):
        completed = unary | frozenset(zip(labels, a_nodes))
        if not hom_exists(query, (nodes, completed, binary)):
            return False
    return True


def reachable(edges, source, target) -> bool:
    """Is ``target`` reachable from ``source`` along directed edges?"""
    succ: dict = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            return True
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def has_twin(query) -> bool:
    """Does some node of ``query`` carry both F and T?"""
    labels: dict = {}
    for label, node in query[1]:
        labels.setdefault(node, set()).add(label)
    return any({F, T} <= found for found in labels.values())
