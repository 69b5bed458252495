"""Pluggable homomorphism engine: backends and batch APIs.

Architecture
============

Every decision procedure in this library (cactus covering, boundedness
probing, UCQ rewriting, the Λ-CQ decider, core checks, datalog-bypass
evaluation) bottoms out in homomorphism search, so the engine is split
into swappable *backends* behind one call surface:

``naive``
    The original backtracking search over per-node candidate lists with
    a static connectivity-aware order.  Kept verbatim (modulo the
    precomputed per-target-node predicate sets) as the correctness
    oracle for property-based cross-validation.

``bitset``
    Integer-interned search over the target's
    :class:`~repro.core.structure.BitsetIndex`.  Candidate domains are
    Python ints used as bitsets, built by the shared kernel in
    :mod:`repro.core.bitkernel` (the compiled source plan, the
    candidate masks with self-loops applied once at init, the support
    revise), tightened to arc consistency by an AC-3 pass over the
    source edges, and maintained by forward checking (bitwise AND
    against precomputed adjacency masks) during a backtracking search
    with dynamic most-constrained-variable ordering.

``matrix``
    The same search over the target's dense
    :class:`~repro.core.structure.MatrixIndex`: candidate domains are
    numpy boolean vectors, the AC-3 support computation is one
    boolean-semiring matrix-vector product (``adj[p] @ domain``) per
    revision instead of a per-candidate Python loop, and forward
    checking ANDs precomputed adjacency rows.  Pays off on large,
    edge-rich targets (hundreds of nodes); on small structures the
    ``bitset`` backend wins.  numpy is an *optional* extra: without it
    the ``matrix`` backend transparently falls back to the pure-python
    int-bitset search (identical answers, no hard dependency).

``decomp``
    Semijoin dynamic programming over a tree decomposition of the
    *query* (:mod:`repro.core.decomp`): polynomial-time for
    bounded-width queries, with a compiled, fingerprint-interned
    :class:`~repro.core.decomp.DecompPlan` replayed across whole
    target batches.  Forest-shaped queries (width <= 1 — paths, trees,
    cactuses) run a single directional bitset semijoin pass on the same
    :mod:`~repro.core.bitkernel` masks; wider queries run the general
    per-bag relational DP.  Pure python, no optional dependency, and
    homomorphism counting runs the COUNT instance of the semiring DP
    instead of enumerating.

All backends enumerate exactly the same set of homomorphisms.  The
default backend is the ``backend`` field of the calling
:class:`~repro.session.Session`'s frozen config; every entry point
takes an explicit ``session=`` (falling back to the module-level
default session, which is configured from the ``REPRO_*`` environment
via :meth:`repro.core.config.EngineConfig.from_env`) plus a per-call
``backend=`` override, and :func:`resolve_backend` turns the two into
the backend one call runs.  ``backend="auto"`` — per call or as
the session default — resolves per call from the *query's* cached
decomposition width (tree-shaped queries route to ``decomp``) and the
target's size and edge density (``matrix`` vs ``bitset``);
see :func:`repro.core.config.choose_auto_backend`, calibrated from the
committed ``BENCH_batch.json`` and ``BENCH_decomp.json`` duels.

Answers are not memoised across calls: the consumers (the Proposition
2 probe, the Appendix F cuttability fixpoint, screens) almost never
repeat a source/target pair, so every call searches.  What repeats is
memoised where it is built: a structure's indexes and decomposition
width on the structure, a query's :class:`~repro.core.decomp.DecompPlan`
per fingerprint, and whole probe and screen answers as checkpoint rows
in the durable store.

Batch APIs
==========

:func:`covers_any` (does any of a batch of sources map into one
target?) and :func:`evaluate_batch` (one query over many instances)
expose the batch traffic shape of the consumers.  A target's
lazily-built indexes, and the requirement masks filed on its
``BitsetIndex``, are shared by every source searched against it; a
source's compiled plan is shared by every target.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import bitkernel
from . import decomp as _decomp
from .config import BACKEND_CHOICES, choose_auto_backend
from .config import BACKENDS as BACKENDS  # re-export: stable engine API
from .errors import Budget, ResourceExhausted, _resolve_session, call_budget
from .semiring import Evaluation, Semiring, hom_weight, resolve_semiring
from .structure import (
    BinaryFact,
    Node,
    Structure,
    UnaryFact,
    numpy_or_none,
)

Seed = Mapping[Node, Node]
NodeDomains = Mapping[Node, frozenset[Node]]


def matrix_backend_available() -> bool:
    """True when numpy is installed, i.e. the ``matrix`` backend runs
    its dense path rather than the pure-python bitset fallback."""
    return numpy_or_none() is not None


# ``auto`` resolution computes the source's decomposition width (cached
# on the structure) to route tree-shaped queries to the ``decomp``
# backend.  Sources larger than this are assumed non-query-shaped and
# skip the width probe: the min-fill fallback on a huge dense source
# would cost more than the routing decision is worth.
_AUTO_WIDTH_SOURCE_LIMIT = 512


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------


def resolve_backend(
    default: str,
    backend: str | None,
    target: Structure | None = None,
    source: Structure | None = None,
) -> str:
    """The concrete backend for one call: the per-call ``backend``
    beats the session's ``default`` (its ``config.backend``), and
    ``auto`` routes on *both* sides — the query's cached decomposition
    width (tree-shaped sources go to the poly-time ``decomp`` DP) and
    the target's node count and edge density (``matrix`` vs
    ``bitset``)."""
    if backend is None:
        backend = default
    elif backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}; expected {BACKEND_CHOICES}"
        )
    if backend == "auto":
        if target is None:
            return "bitset"
        width = None
        if source is not None and len(source.nodes) <= _AUTO_WIDTH_SOURCE_LIMIT:
            width = _decomp.query_width(source)
        return choose_auto_backend(
            len(target.nodes),
            len(target.binary_facts),
            matrix_backend_available(),
            width,
        )
    return backend


# ----------------------------------------------------------------------
# The naive backend (correctness oracle)
# ----------------------------------------------------------------------


def _naive_initial_domains(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
) -> dict[Node, list[Node]] | None:
    """Label/degree-filtered candidate sets; ``None`` if some domain is
    empty.  The per-candidate predicate sets come from the target's
    lazily-built index, so they are computed once per target structure
    rather than once per (source-node, candidate) pair."""
    domains: dict[Node, list[Node]] = {}
    target_nodes = target.nodes if restrict_image is None else restrict_image
    for node in source.nodes:
        if node in seed:
            image = seed[node]
            if image not in target.nodes:
                return None
            if not source.labels(node) <= target.labels(image):
                return None
            domains[node] = [image]
            continue
        required = source.labels(node)
        out_preds = source.out_pred_set(node)
        in_preds = source.in_pred_set(node)
        candidates = []
        for cand in target_nodes:
            if not required <= target.labels(cand):
                continue
            if not out_preds <= target.out_pred_set(cand):
                continue
            if not in_preds <= target.in_pred_set(cand):
                continue
            candidates.append(cand)
        if not candidates:
            return None
        domains[node] = candidates
    return domains


def _naive_consistent(
    source: Structure,
    target: Structure,
    assignment: dict[Node, Node],
    node: Node,
    image: Node,
) -> bool:
    """Check all source edges between ``node`` and assigned nodes."""
    for fact in source.out_edges(node):
        other = assignment.get(fact.dst)
        if fact.dst == node:
            other = image
        if other is None:
            continue
        if not any(
            e.pred == fact.pred and e.dst == other
            for e in target.out_edges(image)
        ):
            return False
    for fact in source.in_edges(node):
        other = assignment.get(fact.src)
        if fact.src == node:
            other = image
        if other is None:
            continue
        if not any(
            e.pred == fact.pred and e.src == other
            for e in target.in_edges(image)
        ):
            return False
    return True


def _naive_order_nodes(
    source: Structure, domains: dict[Node, list[Node]], seed: Seed
) -> list[Node]:
    """Connectivity-aware static order: seeded nodes first, then BFS by
    ascending domain size, component by component."""
    order: list[Node] = [n for n in source.nodes if n in seed]
    placed = set(order)
    remaining = set(source.nodes) - placed

    def neighbours(node: Node) -> Iterator[Node]:
        yield from source.successors(node)
        yield from source.predecessors(node)

    while remaining:
        frontier = {
            n for n in remaining if any(m in placed for m in neighbours(n))
        }
        if not frontier:
            frontier = remaining
        best = min(frontier, key=lambda n: (len(domains[n]), str(n)))
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def _iter_naive(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    domains = _naive_initial_domains(source, target, seed, restrict_image)
    if domains is None:
        return
    if node_filter is not None or node_domains or forbid:
        for node, cands in domains.items():
            allowed = node_domains.get(node) if node_domains else None
            filtered = [
                v
                for v in cands
                if (forbid is None or v not in forbid)
                and (allowed is None or v in allowed)
                and (node_filter is None or node_filter(node, v))
            ]
            if not filtered:
                return
            domains[node] = filtered
    order = _naive_order_nodes(source, domains, seed)
    assignment: dict[Node, Node] = {}

    def backtrack(index: int) -> Iterator[dict[Node, Node]]:
        if index == len(order):
            yield dict(assignment)
            return
        node = order[index]
        for image in domains[node]:
            if budget is not None:
                budget.charge()
            if _naive_consistent(source, target, assignment, node, image):
                assignment[node] = image
                yield from backtrack(index + 1)
                del assignment[node]

    yield from backtrack(0)


# ----------------------------------------------------------------------
# The bitset backend
# ----------------------------------------------------------------------


def _iter_bitset(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    plan = bitkernel.source_plan(source)
    n = plan.n
    if n == 0:
        yield {}
        return
    domains = bitkernel.candidate_masks(
        plan, target, seed, restrict_image, node_filter, node_domains, forbid
    )
    if domains is None:
        return
    idx = target.bitset_index
    target_names = idx.nodes
    src_nodes = plan.nodes
    succ = idx.succ
    pred = idx.pred
    edges = plan.edges
    revise = bitkernel.revise

    # --- AC-3 pass over the source edges ------------------------------
    # Self-loops are not edges here: the candidate masks applied them.
    # Every edge predicate occurs in the target (a variable's domain is
    # empty otherwise), so the mask tables below exist.
    if edges:
        watchers = plan.watchers
        queue = deque(range(len(edges)))
        queued = set(queue)
        while queue:
            if budget is not None:
                budget.charge()  # one AC-3 edge revision
            ei = queue.popleft()
            queued.discard(ei)
            xi, p, yi = edges[ei]
            dx, dy = domains[xi], domains[yi]
            newx = revise(dx, succ[p], dy)
            if not newx:
                return
            newy = revise(dy, pred[p], newx)
            if not newy:
                return
            changed: list[int] = []
            if newx != dx:
                domains[xi] = newx
                changed.append(xi)
            if newy != dy:
                domains[yi] = newy
                changed.append(yi)
            # Re-enqueue every edge watching a changed node, including
            # the edge just processed: newx was filtered against the old
            # dy, so a shrink of dy can leave newx with unsupported
            # values that only another revision of this edge removes.
            for z in changed:
                for ej in watchers[z]:
                    if ej not in queued:
                        queue.append(ej)
                        queued.add(ej)

    # --- backtracking with MRV and forward checking -------------------
    out_adj = plan.out_adj
    in_adj = plan.in_adj
    assignment: list[int] = [-1] * n
    all_mask = (1 << n) - 1

    def backtrack(
        domains: list[int], remaining: int
    ) -> Iterator[dict[Node, Node]]:
        if not remaining:
            yield {
                src_nodes[i]: target_names[assignment[i]] for i in range(n)
            }
            return
        # Most-constrained variable: smallest domain, lowest index tie-break.
        best = -1
        best_count = -1
        m = remaining
        while m:
            bit = m & -m
            m ^= bit
            i = bit.bit_length() - 1
            count = domains[i].bit_count()
            if best < 0 or count < best_count:
                best, best_count = i, count
                if count == 1:
                    break
        xi = best
        rest = remaining & ~(1 << xi)
        dom = domains[xi]
        while dom:
            if budget is not None:
                budget.charge()  # one backtracking candidate
            bit = dom & -dom
            dom ^= bit
            v = bit.bit_length() - 1
            new = domains[:]
            ok = True
            for p, yi in out_adj[xi]:
                if not (rest >> yi) & 1:
                    continue  # assigned: consistent by construction
                nd = new[yi] & succ[p][v]
                if not nd:
                    ok = False
                    break
                new[yi] = nd
            if ok:
                for p, yi in in_adj[xi]:
                    if not (rest >> yi) & 1:
                        continue
                    nd = new[yi] & pred[p][v]
                    if not nd:
                        ok = False
                        break
                    new[yi] = nd
            if ok:
                assignment[xi] = v
                yield from backtrack(new, rest)
                assignment[xi] = -1

    yield from backtrack(domains, all_mask)


# ----------------------------------------------------------------------
# The matrix backend (boolean matrix semiring, numpy)
# ----------------------------------------------------------------------


def _iter_matrix(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    np = numpy_or_none()
    if np is None:
        # Pure-python int-bitset fallback: numpy stays an optional
        # extra, and backend="matrix" keeps yielding identical answers.
        yield from _iter_bitset(
            source, target, seed, restrict_image,
            node_filter, node_domains, forbid, budget,
        )
        return
    plan = bitkernel.source_plan(source)
    n = plan.n
    if n == 0:
        yield {}
        return
    midx = target.matrix_index
    target_names = midx.nodes
    m = midx.n
    if m == 0:
        return
    restrict_vec = (
        midx.full if restrict_image is None else midx.mask_of(restrict_image)
    )
    veto = ~midx.mask_of(forbid) if forbid else None

    label_nodes = midx.label_nodes
    has_out = midx.has_out
    has_in = midx.has_in
    src_nodes = plan.nodes
    index = midx.index

    # --- initial domains: chained vector intersections -----------------
    # A list of per-variable boolean vectors (not one 2D block): the
    # backtracker saves and restores rows by rebinding list slots, which
    # keeps the displaced row objects intact.
    domains: list = [None] * n
    for i in range(n):
        x = src_nodes[i]
        if x in seed:
            image = seed[x]
            t = index.get(image)
            if t is None:
                return
            if not source.labels(x) <= target.labels(image):
                return
            dom = np.zeros(m, dtype=bool)
            dom[t] = True
        else:
            dom = restrict_vec.copy()
            for label in plan.labels[i]:
                vec = label_nodes.get(label)
                if vec is None:
                    return
                dom &= vec
            for p in plan.out_preds[i]:
                vec = has_out.get(p)
                if vec is None:
                    return
                dom &= vec
            for p in plan.in_preds[i]:
                vec = has_in.get(p)
                if vec is None:
                    return
                dom &= vec
        for p in plan.self_loops[i]:  # unary: the adjacency diagonal
            mat = midx.adj.get(p)
            if mat is None:
                return
            dom &= mat.diagonal()
        if veto is not None:
            dom &= veto
        if node_domains is not None and x in node_domains:
            dom &= midx.mask_of(node_domains[x])
        if node_filter is not None:
            for v in np.flatnonzero(dom):
                if not node_filter(x, target_names[v]):
                    dom[v] = False
        if not dom.any():
            return
        domains[i] = dom

    adj = midx.adj
    adj_t = midx.adj_t
    edges = plan.edges

    # --- AC-3 pass: support via boolean-semiring matvec ----------------
    if edges:
        watchers = plan.watchers
        queue = deque(range(len(edges)))
        queued = set(queue)
        while queue:
            if budget is not None:
                budget.charge()  # one AC-3 edge revision
            ei = queue.popleft()
            queued.discard(ei)
            xi, p, yi = edges[ei]
            mat = adj.get(p)
            if mat is None:
                return  # seeded node with a predicate absent from target
            dx, dy = domains[xi], domains[yi]
            # v survives in dx iff some w in dy has an edge v -p-> w:
            # exactly the boolean matrix-semiring product adj[p] @ dy.
            newx = dx & (mat @ dy)
            if not newx.any():
                return
            newy = dy & (adj_t[p] @ newx)
            if not newy.any():
                return
            changed: list[int] = []
            if (newx != dx).any():
                domains[xi] = newx
                changed.append(xi)
            if (newy != dy).any():
                domains[yi] = newy
                changed.append(yi)
            # Same re-enqueue discipline as the bitset backend: a shrink
            # of dy can leave newx with values only another revision of
            # this very edge removes.
            for z in changed:
                for ej in watchers[z]:
                    if ej not in queued:
                        queue.append(ej)
                        queued.add(ej)

    # --- backtracking with MRV and forward checking -------------------
    out_adj = plan.out_adj
    in_adj = plan.in_adj
    assignment: list[int] = [-1] * n

    def backtrack(remaining: tuple[int, ...]):
        if not remaining:
            yield {
                src_nodes[i]: target_names[assignment[i]] for i in range(n)
            }
            return
        # Most-constrained variable: smallest domain, lowest index tie-break.
        best = -1
        best_count = -1
        for i in remaining:
            count = int(domains[i].sum())
            if best < 0 or count < best_count:
                best, best_count = i, count
                if count == 1:
                    break
        xi = best
        rest = tuple(i for i in remaining if i != xi)
        rest_set = set(rest)
        for v in np.flatnonzero(domains[xi]):
            if budget is not None:
                budget.charge()  # one backtracking candidate
            v = int(v)
            # Forward checking replaces only the neighbour rows it
            # tightens; the displaced row objects are kept and restored
            # on backtrack (restoring in reverse handles a neighbour
            # reached through several edges), so the whole n x m matrix
            # is never copied per candidate.
            saved: list = []  # (yi, displaced row) in tighten order
            ok = True
            for p, yi in out_adj[xi]:
                if yi not in rest_set:
                    continue  # assigned: consistent by construction
                row = domains[yi]
                nd = row & adj[p][v]
                if not nd.any():
                    ok = False
                    break
                saved.append((yi, row))
                domains[yi] = nd
            if ok:
                for p, yi in in_adj[xi]:
                    if yi not in rest_set:
                        continue
                    row = domains[yi]
                    nd = row & adj_t[p][v]
                    if not nd.any():
                        ok = False
                        break
                    saved.append((yi, row))
                    domains[yi] = nd
            if ok:
                assignment[xi] = v
                yield from backtrack(rest)
                assignment[xi] = -1
            for yi, row in reversed(saved):
                domains[yi] = row

    yield from backtrack(tuple(range(n)))


_BACKEND_IMPLS = {
    "naive": _iter_naive,
    "bitset": _iter_bitset,
    "matrix": _iter_matrix,
    "decomp": _decomp._iter_decomp,
}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def iter_homomorphisms(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    """Yield all homomorphisms from ``source`` to ``target``.

    ``seed`` fixes images for some source nodes.  ``restrict_image``
    limits candidate images of non-seeded nodes.  ``node_domains`` maps
    individual source nodes to their allowed image sets and ``forbid``
    excludes target nodes globally (both are declarative alternatives to
    ``node_filter``, applied as masks).  ``node_filter(x, v)`` may veto
    mapping source node ``x`` to target node ``v``.  ``backend``
    overrides the session default (``naive``, ``bitset``, ``matrix`` or
    ``auto``); all backends yield exactly the same set of
    homomorphisms.  ``session`` selects the engine state (default
    session when omitted).  ``budget`` is the cooperative resource
    meter the search charges (resolved from the session when omitted:
    the active governed-scope budget, else a transient per-call one;
    ``None`` for ungoverned configs); an exhausted budget raises
    :class:`~repro.core.errors.ResourceExhausted` out of the iteration.
    """
    session = _resolve_session(session)
    impl = _BACKEND_IMPLS[
        resolve_backend(session.config.backend, backend, target, source)
    ]
    if budget is None:
        budget = call_budget(session)
    yield from impl(
        source,
        target,
        dict(seed or {}),
        restrict_image,
        node_filter,
        node_domains,
        forbid,
        budget,
    )


def find_homomorphism(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> dict[Node, Node] | None:
    """The first homomorphism found, or ``None``.

    The search is charged to the ``budget`` (resolved from the session
    when omitted).
    """
    return next(
        iter_homomorphisms(
            source,
            target,
            seed,
            restrict_image,
            node_filter,
            node_domains=node_domains,
            forbid=forbid,
            backend=backend,
            session=session,
            budget=budget,
        ),
        None,
    )


def _count_homomorphisms(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> int:
    """The number of homomorphisms from ``source`` to ``target`` —
    the exact (arbitrary-precision python int) COUNT kernel behind
    :func:`semiring_evaluate` and ``Session.count_homomorphisms``.
    """
    session = _resolve_session(session)
    resolved = resolve_backend(
        session.config.backend, backend, target, source
    )
    if resolved == "decomp":
        # Bag-product counting: the DP multiplies per-bag extension
        # counts in one bottom-up pass instead of enumerating the hom
        # set (which the other backends must, and which can be
        # exponentially large even for tree queries).
        if budget is None:
            budget = call_budget(session)
        return _decomp.count_decomp(
            source, target, dict(seed or {}), restrict_image,
            node_filter, node_domains, forbid, budget,
        )
    return sum(
        1
        for _hom in iter_homomorphisms(
            source,
            target,
            seed,
            restrict_image,
            node_filter,
            node_domains=node_domains,
            forbid=forbid,
            backend=resolved,
            session=session,
            budget=budget,
        )
    )


# ----------------------------------------------------------------------
# Semiring-generic evaluation
# ----------------------------------------------------------------------


def _nfold_sum(sr: Semiring, n: int):
    """``n``-fold ``⊕`` of ``one`` by doubling: the semiring image of a
    plain hom count (exact in O(log n) ``plus`` calls)."""
    if n <= 0:
        return sr.zero
    result = None
    term = sr.one
    while n:
        if n & 1:
            result = term if result is None else sr.plus(result, term)
        n >>= 1
        if n:
            term = sr.plus(term, term)
    return result


def _matrix_forest_value(
    source: Structure,
    target: Structure,
    sr: Semiring,
    weights,
    seed: Seed,
    restrict_image,
    node_domains,
    forbid,
    budget,
):
    """Forest-query semiring DP as dense matrix-vector products.

    The semiring generalisation of the ``matrix`` backend's boolean
    matvec: per query variable a length-``n`` value vector over the
    target, per query edge one ``M @ vec`` (plus-times carriers:
    bool/count/prob) or one ``(M + vec).min/max(axis=1)`` tropical
    reduction (minplus/maxplus), bottom-up over the forest.  Domains
    are pre-filtered by the decomp bitset semijoin pass, so the dense
    arithmetic only aggregates values — it never has to search.
    Callers gate on ``numpy``, a forest-shaped plan (width <= 1), a
    dense dtype and ``node_filter is None``.
    """
    np = numpy_or_none()
    plan = _decomp.decomp_plan(source)
    if plan.n == 0:
        return sr.one
    domains = bitkernel.candidate_masks(
        plan, target, seed, restrict_image, None, node_domains, forbid
    )
    if domains is None:
        return sr.zero
    bidx = target.bitset_index
    if not _decomp._forest_filter(
        plan, _decomp._edge_tables(plan, bidx), domains, budget
    ):
        return sr.zero
    midx = target.matrix_index
    n = midx.n
    additive = sr.name in ("minplus", "maxplus")
    # COUNT rides int64 here (explicit matrix routing only; the default
    # COUNT path is the exact python-int decomp/enumeration kernel).
    dtype = np.int64 if sr.dtype == "int" else np.float64
    names = bidx.nodes
    # bit position (bitset interning order) -> matrix row/column
    pos = [midx.index[name] for name in names]

    def dom_vec(mask: int):
        v = np.zeros(n, dtype=bool)
        while mask:
            b = mask & -mask
            mask ^= b
            v[pos[b.bit_length() - 1]] = True
        return v

    def edge_matrix(p: str, child_is_src: bool):
        """``M[parent, child] = weight of the oriented atom's fact``
        (``zero`` — 0 or ±inf — where no such fact exists)."""
        base = midx.adj_t[p] if child_is_src else midx.adj[p]
        if additive:
            mat = np.where(base, 0.0, sr.zero)
        else:
            mat = base.astype(dtype)
        if weights:
            for fact, val in weights.items():
                if not isinstance(fact, BinaryFact) or fact.pred != p:
                    continue
                i = midx.index.get(fact.src)
                j = midx.index.get(fact.dst)
                if i is None or j is None or not midx.adj[p][i, j]:
                    continue
                if child_is_src:
                    mat[j, i] = val
                else:
                    mat[i, j] = val
        return mat

    def unary_vec(var: int, domvec):
        if additive:
            u = np.where(domvec, 0.0, sr.zero)
        else:
            u = domvec.astype(dtype)
        if weights:
            labels = plan.labels[var]
            loops = plan.self_loops[var]
            for fact, val in weights.items():
                if isinstance(fact, UnaryFact):
                    if fact.label not in labels:
                        continue
                    j = midx.index.get(fact.node)
                elif fact.src == fact.dst and fact.pred in loops:
                    j = midx.index.get(fact.src)
                else:
                    continue
                if j is None or not domvec[j]:
                    continue
                if additive:
                    u[j] += val
                else:
                    u[j] *= val
        return u

    vals: list = [None] * plan.n
    for var in reversed(plan.forest_order):
        domvec = dom_vec(domains[var])
        if budget is not None:
            budget.charge(int(domvec.sum()) or 1)
        u = unary_vec(var, domvec)
        for c in plan.forest_children[var]:
            mat = None
            for p, child_is_src in plan.forest_atoms[c]:
                m = edge_matrix(p, child_is_src)
                if mat is None:
                    mat = m
                elif additive:
                    mat = mat + m
                else:
                    mat = mat * m
            shifted = mat + vals[c][None, :] if additive else mat @ vals[c]
            if additive:
                contrib = (
                    shifted.min(axis=1)
                    if sr.name == "minplus"
                    else shifted.max(axis=1)
                )
                u = u + contrib
            else:
                u = u * shifted
        vals[var] = u
    terms = []
    for var in plan.forest_order:
        if plan.forest_parent[var] < 0:
            v = vals[var]
            if additive:
                terms.append(
                    float(v.min() if sr.name == "minplus" else v.max())
                )
            else:
                terms.append(v.sum())
    if additive:
        return sum(terms)  # tropical ⊗ is +
    result = terms[0]
    for t in terms[1:]:
        result = result * t
    if sr.dtype == "bool":
        return bool(result != 0)
    if sr.dtype == "int":
        return int(result)
    return float(result)


def semiring_evaluate(
    source: Structure,
    target: Structure,
    semiring: str | Semiring = "bool",
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    weights: Mapping | None = None,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> Evaluation:
    """``⊕_h ⊗_atoms w(h(atom))`` over all homomorphisms, as a typed
    :class:`~repro.core.semiring.Evaluation`.

    The engine-level kernel behind ``Session.evaluate``: resolves the
    semiring (name or instance) and the backend, then routes —

    * unweighted idempotent semirings (``bool``, bare ``minplus``/
      ``maxplus``) ride the :func:`find_homomorphism` path and carry
      the witness;
    * unweighted ``count`` (and any non-idempotent carrier) rides the
      exact :func:`_count_homomorphisms` kernel, mapped into the
      carrier by logarithmic ``⊕``-doubling;
    * weighted ``decomp`` runs the bag-value DP
      (:func:`repro.core.decomp.semiring_decomp`);
    * weighted ``matrix`` on a forest-shaped query with a dense dtype
      runs :func:`_matrix_forest_value` (semiring matvecs);
    * everything else — ``naive``/``bitset``, ``why``'s object carrier,
      ``node_filter`` callables — folds the weighted enumeration
      oracle, tracking an arg-best witness for selective semirings.

    This is an *inner* surface: a tripped budget raises
    :class:`~repro.core.errors.ResourceExhausted` — ``Session.evaluate``
    is the governed outermost wrapper that converts it to an
    ``Evaluation`` with ``reason`` set.
    """
    sr = resolve_semiring(semiring)
    session = _resolve_session(session)
    resolved = resolve_backend(
        session.config.backend, backend, target, source
    )
    weighted = weights is not None or sr.annotate_fact is not None
    if not weighted:
        # Every hom contributes ``one``: the value is determined by
        # existence (idempotent ⊕) or the exact count (general ⊕).
        if sr.is_idempotent:
            hom = find_homomorphism(
                source, target, seed, restrict_image, node_filter,
                node_domains=node_domains, forbid=forbid, backend=resolved,
                session=session, budget=budget,
            )
            value = sr.one if hom is not None else sr.zero
            return Evaluation(value, sr.name, resolved, witness=hom)
        count = _count_homomorphisms(
            source, target, seed, restrict_image, node_filter,
            node_domains=node_domains, forbid=forbid, backend=resolved,
            session=session, budget=budget,
        )
        value = count if sr.name == "count" else _nfold_sum(sr, count)
        return Evaluation(value, sr.name, resolved)
    if budget is None:
        budget = call_budget(session)
    witness = None
    if resolved == "decomp":
        value = _decomp.semiring_decomp(
            source, target, sr, weights, dict(seed or {}), restrict_image,
            node_filter, node_domains, forbid, budget,
        )
    elif (
        resolved == "matrix"
        and node_filter is None
        and sr.dtype in ("bool", "int", "float")
        and numpy_or_none() is not None
        and _decomp.decomp_plan(source).forest_order is not None
    ):
        value = _matrix_forest_value(
            source, target, sr, weights, dict(seed or {}), restrict_image,
            node_domains, forbid, budget,
        )
    else:
        # Weighted enumeration: the oracle tier every dense path is
        # cross-validated against (and the only route for ``why``'s
        # object carrier or opaque node_filter callables).
        value = sr.zero
        for hom in iter_homomorphisms(
            source, target, seed, restrict_image, node_filter,
            node_domains=node_domains, forbid=forbid, backend=resolved,
            session=session, budget=budget,
        ):
            w = hom_weight(source, hom, sr, weights)
            if w == sr.zero:
                continue
            new = sr.plus(value, w)
            if witness is None or (sr.is_selective and new != value):
                witness = hom
            value = new
    return Evaluation(value, sr.name, resolved, witness=witness)


def has_homomorphism(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> bool:
    """Does any homomorphism exist?"""
    return (
        find_homomorphism(
            source,
            target,
            seed,
            restrict_image,
            node_filter,
            node_domains=node_domains,
            forbid=forbid,
            backend=backend,
            session=session,
            budget=budget,
        )
        is not None
    )


# ----------------------------------------------------------------------
# Batch APIs
# ----------------------------------------------------------------------


def _source_seed_pairs(
    sources: Iterable[Structure | tuple[Structure, Seed | None]],
    seeds: Sequence[Seed | None] | None,
) -> Iterable[tuple[Structure, Seed | None]]:
    """Normalise the batch source/seed conventions to lazy pairs.

    Shared by :func:`covers_any` and the runtime's sharded counterpart,
    so the accepted forms (bare structures, ``(structure, seed)``
    pairs, a parallel ``seeds=`` sequence — never both) cannot drift
    apart.  Mismatched ``seeds`` lengths raise via the strict zip.
    """
    if seeds is not None:
        def paired() -> Iterable:
            for s, seed in zip(sources, seeds, strict=True):
                if isinstance(s, tuple):
                    raise ValueError(
                        "pass seeds either as (structure, seed) pairs or "
                        "as a parallel seeds= sequence, not both"
                    )
                yield s, seed

        return paired()
    return (s if isinstance(s, tuple) else (s, None) for s in sources)


def covers_any(
    target: Structure,
    sources: Iterable[Structure | tuple[Structure, Seed | None]],
    seeds: Sequence[Seed | None] | None = None,
    *,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> bool:
    """Does any of ``sources`` map homomorphically into ``target``?

    ``sources`` is an iterable of structures or ``(structure, seed)``
    pairs; alternatively pass a parallel ``seeds`` sequence.  This is
    the inner loop of the Proposition 2 probe (does any shallow cactus
    cover this deep one?) and of UCQ evaluation, so it is a thin loop:
    the session and the budget are resolved once, and per source it
    resolves the backend (``auto`` routes on both sides) and runs that
    backend's kernel directly.  The target's index and its requirement
    masks are built on first use and shared by the whole batch; each
    source's compiled plan is cached on the source.  Sources are
    consumed lazily and the scan stops at the first success.  One
    budget spans the whole scan.  The answer equals
    ``any(has_homomorphism(source, target, seed) ...)``.
    """
    session = _resolve_session(session)
    if budget is None:
        budget = call_budget(session)
    default = session.config.backend
    for structure, seed in _source_seed_pairs(sources, seeds):
        if budget is not None:
            budget.checkpoint()
        impl = _BACKEND_IMPLS[
            resolve_backend(default, backend, target, structure)
        ]
        for _hom in impl(
            structure, target, seed or {}, None, None, None, None, budget
        ):
            return True
    return False


def evaluate_batch(
    query: Structure,
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> list[bool]:
    """Evaluate one Boolean CQ over many data instances.

    The query's compiled source plan is shared across the batch.  One
    budget spans the whole batch; exhaustion raises (use
    :func:`evaluate_batch_governed` to keep partial results).
    """
    session = _resolve_session(session)
    if budget is None:
        budget = call_budget(session)
    return [
        has_homomorphism(
            query, data, backend=backend, session=session, budget=budget,
        )
        for data in instances
    ]


def evaluate_batch_governed(
    query: Structure,
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> list[bool | str]:
    """:func:`evaluate_batch` that degrades instead of raising.

    Entries are plain booleans until the budget trips; from that point
    every remaining slot holds the exhaustion reason tag (the wire form
    of ``Answer.unknown`` — see
    :meth:`repro.core.errors.Answer.decode`), so a governed batch
    preserves every answer computed before the budget ran out.  With an
    ungoverned session this is exactly :func:`evaluate_batch`.
    """
    session = _resolve_session(session)
    if budget is None:
        budget = call_budget(session)
    out: list[bool | str] = []
    reason: str | None = None
    for data in instances:
        if reason is None:
            try:
                if budget is not None:
                    budget.checkpoint()
                out.append(
                    has_homomorphism(
                        query, data, backend=backend, session=session,
                        budget=budget,
                    )
                )
                continue
            except ResourceExhausted as exc:
                reason = exc.reason
        out.append(reason)
    return out
