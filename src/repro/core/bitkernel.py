"""The int-bitset kernel shared by the ``bitset`` and ``decomp`` backends.

Both backends search over a target's
:class:`~repro.core.structure.BitsetIndex` (target nodes interned to
``0 .. m-1``, node sets as Python ints), and both start from the same
per-variable requirements of the source.  This module is the one home
of what they share:

The compiled source plan
    :class:`SourcePlan` holds everything derivable from the source
    alone: node interning, label and incident-predicate requirements
    (one requirement key per variable), self-loops, the proper
    (non-loop) edges as an edge list, as adjacency lists over source
    indices and as the per-variable AC-3 watcher lists.
    :func:`source_plan` compiles it once per structure, deriving it
    from the base's plan for ``Structure.extended`` results.  The
    decomposition plan of :mod:`repro.core.decomp` takes its
    per-variable rows from here.

Candidate masks
    :func:`candidate_masks` turns a plan and one call's constraints
    (seed, ``restrict_image``, ``forbid``, ``node_domains``,
    ``node_filter``) into one candidate bitset per variable.  The
    target side of a requirement key is looked up once per target
    (:func:`requirement_masks`), so a source probed against many
    targets, or many sources against one, pay for it once.
    :func:`base_mask` is the *monotone* part (seed, labels,
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

    Everything derivable from the source alone is computed once and
    stashed on the structure, so repeated searches from the same source
    (the dominant traffic shape: one CQ or cactus probed against many
    targets) skip all of it:

    * ``nodes``, ``index``: the interning order (the source's
      ``node_order``) and its inverse;
    * ``labels``, ``out_preds``, ``in_preds`` (sorted) and
      ``self_loops``: each variable's requirement rows;
    * ``req_specs``: the distinct requirement keys ``(labels,
      self-loops, out-predicates, in-predicates)``, ``req_keys``: their
      reprs, and ``req_of``: each variable's position in both;
      :func:`candidate_masks` looks every key up once per target;
    * ``edges``, ``out_adj``, ``in_adj``: the proper (non-loop) edges as
      an edge list and as adjacency lists over source indices;
    * ``watchers``: per variable, the indices of the edges incident to
      it — the re-enqueue lists of the AC-3 pass of the ``bitset`` and
      ``matrix`` backends.

    Self-loops are kept apart from the edges: they constrain one
    variable and are applied to its candidates once.
    """

    __slots__ = ("nodes", "index", "n", "labels", "out_preds", "in_preds",
                 "self_loops", "out_adj", "in_adj", "edges", "watchers",
                 "req_specs", "req_keys", "req_of")

    def __init__(self, source: Structure) -> None:
        self.nodes = source.node_order
        self.index = index = source.node_index
        self.n = len(self.nodes)
        self.labels = [tuple(sorted(source.labels(x))) for x in self.nodes]
        self.out_preds = [
            tuple(sorted(source.out_pred_set(x))) for x in self.nodes
        ]
        self.in_preds = [
            tuple(sorted(source.in_pred_set(x))) for x in self.nodes
        ]
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
        self._index_rows()

    def _index_rows(self) -> None:
        """Derive ``watchers`` and the requirement keys from the rows
        and the edge list."""
        watchers: list[list[int]] = [[] for _ in range(self.n)]
        for ei, (s, _, d) in enumerate(self.edges):
            watchers[s].append(ei)
            watchers[d].append(ei)
        self.watchers = watchers
        keys: dict[tuple, int] = {}
        self.req_of = [
            keys.setdefault(
                (
                    self.labels[i],
                    tuple(sorted(self.self_loops[i])),
                    self.out_preds[i],
                    self.in_preds[i],
                ),
                len(keys),
            )
            for i in range(self.n)
        ]
        self.req_specs = tuple(keys)
        # Targets file masks under the key's repr: a str caches its
        # hash, so the per-target lookups do not rehash nested tuples,
        # and the repr of a tuple of str tuples is injective.
        self.req_keys = tuple(repr(spec) for spec in keys)

    @classmethod
    def extended(
        cls,
        base: "SourcePlan",
        source: Structure,
        touched: set[Node],
        added_binary: frozenset,
    ) -> "SourcePlan":
        """Derive the plan of an ``Structure.extended`` result from its
        base's plan: node ids are a superset (extension appends to the
        interning order), so only the delta's rows are recomputed."""
        plan = cls.__new__(cls)
        plan.nodes = source.node_order
        plan.index = index = source.node_index
        plan.n = len(plan.nodes)
        pad = plan.n - base.n
        plan.labels = base.labels + [()] * pad
        plan.out_preds = base.out_preds + [()] * pad
        plan.in_preds = base.in_preds + [()] * pad
        for x in touched:
            i = index[x]
            plan.labels[i] = tuple(sorted(source.labels(x)))
            plan.out_preds[i] = tuple(sorted(source.out_pred_set(x)))
            plan.in_preds[i] = tuple(sorted(source.in_pred_set(x)))
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
        plan._index_rows()
        return plan


def source_plan(source: Structure) -> SourcePlan:
    """The compiled :class:`SourcePlan` of ``source`` (cached on the
    structure, derived from the base's plan when ``source`` came from
    ``Structure.extended``, still holds its derivation record and the
    base has a plan)."""
    plan = source._engine_plan
    if plan is None:
        delta = source._delta
        if delta is not None and delta[0]._engine_plan is not None:
            base, added_u, removed_u, added_b, new_nodes = delta
            touched = set(new_nodes)
            touched.update(f.node for f in added_u)
            touched.update(f.node for f in removed_u)
            for f in added_b:
                touched.add(f.src)
                touched.add(f.dst)
            plan = SourcePlan.extended(
                base._engine_plan, source, touched, added_b
            )
        else:
            plan = SourcePlan(source)
        source._engine_plan = plan
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


def requirement_masks(plan, idx) -> list[int]:
    """Per requirement key of ``plan`` (``plan.req_specs``), the target
    nodes meeting it: every label, self-loop, out-predicate and
    in-predicate the key asks for.  Looked up in the target index's
    ``req_masks`` table and computed there on a miss, so each key costs
    one computation per target however many sources share it."""
    table = idx.req_masks
    out = []
    for key, spec in zip(plan.req_keys, plan.req_specs):
        mask = table.get(key)
        if mask is None:
            labels, loops, out_preds, in_preds = spec
            mask = idx.full_mask
            for label in labels:
                mask &= idx.label_nodes.get(label, 0)
            for p in out_preds:
                mask &= idx.has_out.get(p, 0)
            for p in in_preds:
                mask &= idx.has_in.get(p, 0)
            for p in loops:
                if not mask:
                    break
                masks = idx.succ.get(p)
                mask = 0 if masks is None else loop_filter(mask, masks)
            table[key] = mask
        out.append(mask)
    return out


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
    :class:`~repro.core.structure.BitsetIndex`, or ``None`` when one is
    empty (then no homomorphism exists).

    ``plan`` is a :class:`SourcePlan` or the decomposition plan built
    from one.  A variable's candidates start from the target mask of
    its requirement key (:func:`requirement_masks`: labels, self-loops,
    out- and in-predicates, looked up once per target).  The call's
    constraints are then ANDed on: ``restrict_image`` for unseeded
    variables or the seeded image for seeded ones, the complement of
    ``forbid``, ``node_domains[x]``, and finally ``node_filter``'s
    veto.  Seeded and unseeded calls share this path, so a seed into a
    target node that lacks one of the variable's labels or predicates
    empties its domain here.
    """
    idx = target.bitset_index
    masks = requirement_masks(plan, idx)
    if 0 in masks:
        return None  # every key belongs to some variable
    full = idx.full_mask
    veto = full & ~idx.mask_of(forbid) if forbid else full
    free = veto if restrict_image is None else veto & idx.mask_of(
        restrict_image
    )
    req_of = plan.req_of
    domains = [masks[k] & free for k in req_of]
    if seed:
        var_of = plan.index
        target_of = idx.index
        for x, image in seed.items():
            i = var_of.get(x)
            if i is None:
                continue  # not a variable of this source
            t = target_of.get(image)
            if t is None:
                return None
            domains[i] = masks[req_of[i]] & veto & (1 << t)
    if node_domains:
        var_of = plan.index
        for x, allowed in node_domains.items():
            i = var_of.get(x)
            if i is not None:
                domains[i] &= idx.mask_of(allowed)
    if node_filter is not None:
        names = idx.nodes
        for i, x in enumerate(plan.nodes):
            dom = domains[i]
            filtered = 0
            while dom:
                bit = dom & -dom
                dom ^= bit
                if node_filter(x, names[bit.bit_length() - 1]):
                    filtered |= bit
            if not filtered:
                return None
            domains[i] = filtered
    if 0 in domains:
        return None
    return domains
