"""Certain-answer evaluation of monadic disjunctive sirups ``(Δ_q, G)``.

``Δ_q`` consists of the covering rule ``T(x) ∨ F(x) <- A(x)`` and the goal
rule ``G <- q``.  The certain answer over a data instance ``D`` is 'yes'
iff *every* completion of ``D`` that labels each A-node with T or F
contains a homomorphic image of ``q``.

Three evaluation strategies are provided:

* :func:`evaluate_exhaustive` — tries all ``2^n`` labelings (the literal
  semantics; used as ground truth in tests and as an ablation baseline);
* :func:`evaluate_branching` — branch-and-prune: repeatedly splits on an
  A-node only when the current partial completion admits no forced match,
  with memoisation of refuted labelings via countermodel certificates;
* :func:`evaluate_via_pi` — for 1-CQs, evaluates the equivalent monadic
  datalog program ``Π_q`` instead (Section 2 of the paper);
* :func:`evaluate_via_cactuses` — for 1-CQs, Proposition 1 directly:
  stream the incrementally-built cactuses of ``𝔎_q`` against the data
  until one embeds (the datalog-free evaluation path).

``evaluate_dsirup`` picks the fastest sound strategy automatically
(``Session.evaluate`` is the semiring evaluation surface, not this
procedure).

The variant ``Δ⁺_q`` adds the disjointness constraint
``⊥ <- T(x), F(x)``; under it, data instances containing an FT-twin node
are inconsistent and every query is trivially entailed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .cactus import count_shapes, goal_certain_via_cactuses
from .cq import OneCQ, is_one_cq
from .datalog import GOAL, goal_holds
from .errors import _resolve_session, governed_scope
from .homengine import has_homomorphism
from .sirup import compile_programs
from .structure import A, F, Node, Structure, T, UnaryFact


def maximal_completion(data: Structure) -> Structure:
    """The completion labelling every A-node with *both* T and F.

    Every completion's facts are a subset of this one's, so a query with
    no homomorphism into the maximal completion has none into any
    completion — the quick-reject used by :func:`evaluate_branching`.
    """
    unary = set(data.unary_facts)
    for node in a_nodes(data):
        unary.add(UnaryFact(T, node))
        unary.add(UnaryFact(F, node))
    return Structure(data.nodes, unary, data.binary_facts)


@dataclass(frozen=True)
class DSirupAnswer:
    """Outcome of a certain-answer computation.

    ``certain`` is the answer; ``countermodel`` (when the answer is 'no')
    is a completion of the data with no embedding of ``q``; ``labelings
    _checked`` counts the completions the strategy actually examined.
    """

    certain: bool
    countermodel: Structure | None
    labelings_checked: int


def a_nodes(data: Structure) -> tuple[Node, ...]:
    """The A-labelled nodes of a data instance, in stable order."""
    return tuple(sorted(data.nodes_with_label(A), key=str))


def complete(data: Structure, labeling: dict[Node, str]) -> Structure:
    """The completion of ``data`` adding label ``labeling[v]`` to each v.

    A-labels are kept (models of the covering axiom still satisfy A), and
    nodes may end up with both T and F if the data already had one of them.
    """
    unary = set(data.unary_facts)
    unary |= {UnaryFact(label, node) for node, label in labeling.items()}
    return Structure(data.nodes, unary, data.binary_facts)


def iter_completions(data: Structure) -> Iterator[Structure]:
    """All ``2^n`` completions of the A-nodes of ``data``."""
    nodes = a_nodes(data)
    n = len(nodes)
    for mask in range(1 << n):
        labeling = {
            nodes[i]: (T if mask & (1 << i) else F) for i in range(n)
        }
        yield complete(data, labeling)


def evaluate_exhaustive(
    q: Structure, data: Structure, session=None
) -> DSirupAnswer:
    """Ground-truth semantics: check every completion."""
    session = _resolve_session(session)
    checked = 0
    for model in iter_completions(data):
        checked += 1
        if not has_homomorphism(q, model, session=session):
            return DSirupAnswer(False, model, checked)
    return DSirupAnswer(True, None, checked)


def evaluate_branching(
    q: Structure, data: Structure, session=None
) -> DSirupAnswer:
    """Branch-and-prune search for a countermodel.

    Depth-first over partial labelings; at each step, if the partial
    completion (with remaining A-nodes unlabelled and hence unusable as
    T/F witnesses) already embeds ``q``, the whole subtree is pruned.
    Returns 'yes' iff no completion avoids ``q``.

    Starts with a quick-reject: if ``q`` does not embed into the
    :func:`maximal_completion`, no completion embeds it and any single
    completion (we return the all-T one) is a countermodel — one
    homomorphism check instead of a branch-and-prune search.
    """
    session = _resolve_session(session)
    nodes = a_nodes(data)
    if not has_homomorphism(q, maximal_completion(data), session=session):
        countermodel = complete(data, {node: T for node in nodes})
        return DSirupAnswer(False, countermodel, 1)
    checked = 0

    def search(index: int, labeling: dict[Node, str]) -> Structure | None:
        nonlocal checked
        current = complete(data, labeling)
        checked += 1
        if has_homomorphism(q, current, session=session):
            # q already matches using only committed labels: every
            # extension of this branch satisfies q.
            return None
        if index == len(nodes):
            return current
        node = nodes[index]
        for label in (T, F):
            labeling[node] = label
            result = search(index + 1, labeling)
            if result is not None:
                return result
            del labeling[node]
        return None

    countermodel = search(0, {})
    return DSirupAnswer(countermodel is None, countermodel, checked)


def evaluate_via_pi(
    q: Structure, data: Structure, session=None
) -> DSirupAnswer:
    """Evaluate a 1-CQ d-sirup through the equivalent program ``Π_q``."""
    if not is_one_cq(q):
        raise ValueError("Π_q is only defined for 1-CQs")
    compiled = compile_programs(q)
    certain = goal_holds(compiled.pi, data, GOAL, session)
    return DSirupAnswer(certain, None, 0)


def evaluate_via_cactuses(
    q: Structure,
    data: Structure,
    max_depth: int | None = None,
    session=None,
) -> DSirupAnswer:
    """Evaluate a 1-CQ d-sirup by Proposition 1: the answer is 'yes'
    iff some cactus of ``𝔎_q`` maps homomorphically into ``data``.

    ``max_depth`` defaults to the number of A-labelled nodes plus one:
    ``P``-facts only ever attach to A-nodes, every derivation stage of
    ``Π_q`` adds at least one new ``P``-fact, so the goal is derivable
    iff a cactus within that depth embeds — the probe is exact.  The
    cactuses stream lazily out of the pooled incremental factory with
    first-success early exit, so 'yes' answers rarely pay for the full
    enumeration; for instances with many A-nodes and span >= 2 the
    enumeration explodes, and rather than hang the call refuses
    up front (use :func:`evaluate_branching` or :func:`evaluate_via_pi`
    there — ``evaluate_dsirup(strategy="auto")`` never routes here).
    """
    if not is_one_cq(q):
        raise ValueError("𝔎_q is only defined for 1-CQs")
    one_cq = OneCQ.from_structure(q)
    if max_depth is None:
        max_depth = len(data.nodes_with_label(A)) + 1
    if count_shapes(one_cq.span, max_depth) > 100_000:
        raise ValueError(
            f"𝔎_q up to depth {max_depth} holds over 100000 cactuses "
            f"(span {one_cq.span}); pass a smaller max_depth or use the "
            "branching/pi strategies"
        )
    certain = goal_certain_via_cactuses(one_cq, data, max_depth, session)
    return DSirupAnswer(certain, None, 0)


DSIRUP_STRATEGIES = ("auto", "exhaustive", "branching", "pi", "cactus")


def evaluate_dsirup(
    q: Structure, data: Structure, strategy: str = "auto", session=None
) -> DSirupAnswer:
    """Certain answer to ``(Δ_q, G)`` over ``data``.

    ``strategy`` is one of ``auto``, ``exhaustive``, ``branching``,
    ``pi``, ``cactus``.  ``auto`` uses ``Π_q`` for 1-CQs and
    branch-and-prune otherwise.

    A governed session (``deadline_ms`` / ``hom_fuel`` set) shares one
    operation-wide budget across every nested homomorphism check; on
    exhaustion the typed :class:`~.errors.ResourceExhausted` propagates
    to the caller (``Session.certain_answer`` converts it to an
    ``Answer.unknown``).
    """
    if strategy not in DSIRUP_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    session = _resolve_session(session)
    with governed_scope(session):
        if strategy == "exhaustive":
            return evaluate_exhaustive(q, data, session)
        if strategy == "branching":
            return evaluate_branching(q, data, session)
        if strategy == "pi":
            return evaluate_via_pi(q, data, session)
        if strategy == "cactus":
            return evaluate_via_cactuses(q, data, session=session)
        if is_one_cq(q):
            return evaluate_via_pi(q, data, session)
        return evaluate_branching(q, data, session)


def certain_answer(q: Structure, data: Structure, session=None) -> bool:
    """Boolean convenience wrapper over :func:`evaluate_dsirup`."""
    return evaluate_dsirup(q, data, session=session).certain


# ----------------------------------------------------------------------
# Δ⁺: covering plus disjointness (Corollary 8)
# ----------------------------------------------------------------------


def data_consistent_with_disjointness(data: Structure) -> bool:
    """Under ``⊥ <- T(x), F(x)``: no node may carry both T and F."""
    return not (data.nodes_with_label(T) & data.nodes_with_label(F))


def iter_disjoint_completions(data: Structure) -> Iterator[Structure]:
    """Completions consistent with disjointness.

    A-nodes already labelled T (resp. F) in the data are forced; labeling
    them the other way would be inconsistent and such models are skipped.
    """
    nodes = a_nodes(data)
    choices: list[tuple[str, ...]] = []
    for node in nodes:
        labels = data.labels(node)
        if T in labels and F in labels:
            return  # data itself inconsistent: no models at all
        if T in labels:
            choices.append((T,))
        elif F in labels:
            choices.append((F,))
        else:
            choices.append((T, F))
    for combo in itertools.product(*choices):
        labeling = dict(zip(nodes, combo))
        yield complete(data, labeling)


def evaluate_with_disjointness(
    q: Structure, data: Structure, session=None
) -> DSirupAnswer:
    """Certain answer to ``(Δ⁺_q, G)``.

    If the data is inconsistent (some node labelled both T and F), the
    certain answer is trivially 'yes'.
    """
    if not data_consistent_with_disjointness(data):
        return DSirupAnswer(True, None, 0)
    session = _resolve_session(session)
    checked = 0
    for model in iter_disjoint_completions(data):
        checked += 1
        if not has_homomorphism(q, model, session=session):
            return DSirupAnswer(False, model, checked)
    return DSirupAnswer(True, None, checked)
