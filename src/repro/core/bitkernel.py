"""The int-bitset kernel shared by the ``bitset`` and ``decomp`` backends.

Both backends search over a target's
:class:`~repro.core.structure.BitsetIndex` (target nodes interned to
``0 .. m-1``, node sets as Python ints), and both start from the same
per-variable requirements of the source.  This module is the one home
of what they share:

The compiled source plan
    :class:`SourcePlan` holds everything derivable from the source
    alone: node interning, label and incident-predicate requirements,
    self-loops, and the proper (non-loop) edges as an edge list and as
    adjacency lists over source indices.  :func:`source_plan` compiles
    it once per structure, deriving it from the base's plan for
    ``Structure.extended`` results.  The decomposition plan of
    :mod:`repro.core.decomp` takes its per-variable rows from here.

Candidate masks
    :func:`candidate_masks` turns a plan and one call's constraints
    (seed, ``restrict_image``, ``forbid``, ``node_domains``,
    ``node_filter``) into one candidate bitset per variable.  Its core,
    :func:`base_mask`, decides the *monotone* part (seed, labels,
    self-loops): adding material to the target only grows it, which is
    what the boundedness probe's warm-start tiers rely on when they
    carry domains along a chain of target extensions.

Bit primitives
    :func:`loop_filter` applies a self-loop, a unary constraint, to a
    domain; :func:`revise` is the directional support revise
    ``{v in dom : masks[v] & other}`` that arc consistency and the
    forest semijoins are built from.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .structure import Node, Structure


class SourcePlan:
    """Compiled source-side search plan, memoized per structure.

    Everything derivable from the source alone — node interning, label
    and incident-predicate requirements, self-loops, adjacency lists
    over source indices — is computed once and stashed on the
    structure, so repeated searches from the same source (the dominant
    traffic shape: one CQ or cactus probed against many targets) skip
    all of it.  Self-loops are kept apart from ``edges``/``out_adj``/
    ``in_adj``: they constrain one variable and are applied to its
    candidates once (:func:`candidate_masks`).
    """

    __slots__ = ("nodes", "n", "labels", "out_preds", "in_preds",
                 "self_loops", "out_adj", "in_adj", "edges")

    def __init__(self, source: Structure) -> None:
        self.nodes = source.node_order
        self.n = len(self.nodes)
        index = source.node_index
        self.labels = [tuple(source.labels(x)) for x in self.nodes]
        self.out_preds = [tuple(source.out_pred_set(x)) for x in self.nodes]
        self.in_preds = [tuple(source.in_pred_set(x)) for x in self.nodes]
        self.self_loops: list[tuple[str, ...]] = [()] * self.n
        self.out_adj: list[list[tuple[str, int]]] = [[] for _ in self.nodes]
        self.in_adj: list[list[tuple[str, int]]] = [[] for _ in self.nodes]
        self.edges: list[tuple[int, str, int]] = []
        for fact in source.binary_facts:
            s, d = index[fact.src], index[fact.dst]
            if s == d:
                self.self_loops[s] += (fact.pred,)
                continue
            self.out_adj[s].append((fact.pred, d))
            self.in_adj[d].append((fact.pred, s))
            self.edges.append((s, fact.pred, d))

    @classmethod
    def extended(
        cls,
        base: "SourcePlan",
        source: Structure,
        touched: frozenset[Node],
        added_binary: tuple,
    ) -> "SourcePlan":
        """Derive the plan of an ``Structure.extended`` result from its
        base's plan: node ids are a superset (extension appends to the
        interning order), so only the delta's rows are recomputed."""
        plan = cls.__new__(cls)
        plan.nodes = source.node_order
        plan.n = len(plan.nodes)
        index = source.node_index
        pad = plan.n - base.n
        plan.labels = base.labels + [()] * pad
        plan.out_preds = base.out_preds + [()] * pad
        plan.in_preds = base.in_preds + [()] * pad
        for x in touched:
            i = index[x]
            plan.labels[i] = tuple(source.labels(x))
            plan.out_preds[i] = tuple(source.out_pred_set(x))
            plan.in_preds[i] = tuple(source.in_pred_set(x))
        self_loops = base.self_loops + [()] * pad
        out_adj = base.out_adj + [[] for _ in range(pad)]
        in_adj = base.in_adj + [[] for _ in range(pad)]
        edges = base.edges + []
        fresh_out = set(range(base.n, plan.n))
        fresh_in = set(fresh_out)
        for fact in added_binary:
            s, d = index[fact.src], index[fact.dst]
            if s == d:
                self_loops[s] += (fact.pred,)
                continue
            if s not in fresh_out:
                out_adj[s] = list(out_adj[s])
                fresh_out.add(s)
            if d not in fresh_in:
                in_adj[d] = list(in_adj[d])
                fresh_in.add(d)
            out_adj[s].append((fact.pred, d))
            in_adj[d].append((fact.pred, s))
            edges.append((s, fact.pred, d))
        plan.self_loops = self_loops
        plan.out_adj = out_adj
        plan.in_adj = in_adj
        plan.edges = edges
        return plan


def source_plan(source: Structure) -> SourcePlan:
    """The compiled :class:`SourcePlan` of ``source`` (cached on the
    structure, derived from the base's plan when ``source`` came from
    ``Structure.extended`` and the base has one)."""
    plan = source._engine_plan
    if plan is None:
        hint = source._extend_hint
        if hint is not None:
            base, touched, added_binary = hint
            base_plan = base._engine_plan
            # Reusable whenever the base compiled a plan: the base plan
            # forced the base's order to exist, and order inheritance
            # (eager, or lazily resolved by the node_order touch below)
            # guarantees the id prefix the derivation relies on.
            if base_plan is not None:
                source.node_order  # resolve a pending lazy inheritance
                plan = SourcePlan.extended(
                    base_plan, source, touched, added_binary
                )
        if plan is None:
            plan = SourcePlan(source)
        source._engine_plan = plan
        # The hint is consumed either way; dropping it releases the
        # reference chain to the base structure.
        source._extend_hint = None
    return plan


# ----------------------------------------------------------------------
# Bit primitives
# ----------------------------------------------------------------------


def loop_filter(dom: int, masks: list[int]) -> int:
    """``{v in dom : v -> v}`` for the successor mask table ``masks``
    of one predicate: the nodes of ``dom`` carrying its self-loop."""
    out = 0
    while dom:
        bit = dom & -dom
        dom ^= bit
        v = bit.bit_length() - 1
        if (masks[v] >> v) & 1:
            out |= bit
    return out


def revise(dom: int, masks: list[int], other: int) -> int:
    """``{v in dom : masks[v] & other}``: the values of ``dom`` that
    have a support in ``other`` through the mask table ``masks`` (a
    predicate's successor or predecessor table, or the AND of several
    such tables)."""
    out = 0
    while dom:
        bit = dom & -dom
        dom ^= bit
        if masks[bit.bit_length() - 1] & other:
            out |= bit
    return out


def mask_nodes(idx, mask: int) -> set:
    """The target nodes of ``mask``, as a set of node names."""
    names = idx.nodes
    out = set()
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.add(names[bit.bit_length() - 1])
    return out


# ----------------------------------------------------------------------
# Candidate masks
# ----------------------------------------------------------------------


def base_mask(plan, i: int, idx, seed: Mapping, free: int) -> int:
    """The monotone candidates of variable ``i``: its seeded image (or
    ``free`` when it is not seeded), kept only if it carries every
    label and self-loop the variable requires.

    ``plan`` is any compiled plan with ``nodes``/``labels``/
    ``self_loops`` rows (a :class:`SourcePlan` or the decomposition
    plan built from one).  Adding target material never shrinks the
    result, so the probe's warm-start tiers extend it by the nodes a
    delta touches instead of recomputing it.
    """
    x = plan.nodes[i]
    if x in seed:
        t = idx.index.get(seed[x])
        if t is None:
            return 0
        dom = 1 << t
    else:
        dom = free
    label_nodes = idx.label_nodes
    for label in plan.labels[i]:
        dom &= label_nodes.get(label, 0)
    for p in plan.self_loops[i]:
        if not dom:
            break
        masks = idx.succ.get(p)
        dom = 0 if masks is None else loop_filter(dom, masks)
    return dom


def base_masks(plan, target: Structure, seed: Mapping) -> list[int]:
    """:func:`base_mask` of every variable over the whole target,
    empty domains kept (a later target extension may fill them)."""
    idx = target.bitset_index
    full = idx.full_mask
    return [base_mask(plan, i, idx, seed, full) for i in range(plan.n)]


def candidate_masks(
    plan,
    target: Structure,
    seed: Mapping,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: Mapping[Node, frozenset[Node]] | None,
    forbid: frozenset[Node] | None,
) -> list[int] | None:
    """One candidate bitset per variable of ``plan`` over ``target``'s
    :class:`~repro.core.structure.BitsetIndex`, or ``None`` as soon as
    one is empty (then no homomorphism exists).

    A variable's candidates are its :func:`base_mask` (seeded image, or
    ``restrict_image`` when unseeded; labels; self-loops) intersected
    with the nodes that have an out-edge (in-edge) for each predicate
    it has one for, minus ``forbid``, within ``node_domains[x]``, and
    finally vetted by ``node_filter``.  The predicate masks apply to
    seeded variables too, so a seed into a target that lacks one of
    the variable's predicates empties its domain here.
    """
    idx = target.bitset_index
    full = idx.full_mask
    restrict_mask = (
        full if restrict_image is None else idx.mask_of(restrict_image)
    )
    veto_mask = full & ~idx.mask_of(forbid) if forbid else full
    has_out = idx.has_out
    has_in = idx.has_in
    names = idx.nodes
    domains: list[int] = [0] * plan.n
    for i in range(plan.n):
        x = plan.nodes[i]
        req = veto_mask
        for p in plan.out_preds[i]:
            req &= has_out.get(p, 0)
        for p in plan.in_preds[i]:
            req &= has_in.get(p, 0)
        if node_domains is not None and x in node_domains:
            req &= idx.mask_of(node_domains[x])
        dom = base_mask(plan, i, idx, seed, restrict_mask & req) & req
        if node_filter is not None and dom:
            filtered = 0
            d = dom
            while d:
                bit = d & -d
                d ^= bit
                if node_filter(x, names[bit.bit_length() - 1]):
                    filtered |= bit
            dom = filtered
        if not dom:
            return None
        domains[i] = dom
    return domains
