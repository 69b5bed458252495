"""Homomorphism checks that need no search: verification, composition,
cores and retractions.

A homomorphism ``h : Q -> D`` maps every node of ``Q`` to a node of ``D``
so that every unary fact ``L(x)`` of ``Q`` yields ``L(h(x))`` in ``D`` and
every binary fact ``P(x, y)`` yields ``P(h(x), h(y))``.

The search itself — :func:`~repro.core.homengine.find_homomorphism`,
:func:`~repro.core.homengine.has_homomorphism`,
:func:`~repro.core.homengine.iter_homomorphisms` and the batch entry
points, with their pluggable backends — lives in
:mod:`repro.core.homengine`; import it from there.  This module keeps
:func:`is_homomorphism`, :func:`compose`, and the two helpers built on
one search each, :func:`is_core` and :func:`retract_to_subset`, which
run in the default session.
"""

from __future__ import annotations

from typing import Mapping

from . import homengine
from .structure import Node, Structure

__all__ = [
    "compose",
    "is_core",
    "is_homomorphism",
    "retract_to_subset",
]


def is_homomorphism(
    source: Structure, target: Structure, mapping: Mapping[Node, Node]
) -> bool:
    """Verify that ``mapping`` is a homomorphism (total on source nodes)."""
    for node in source.nodes:
        if node not in mapping:
            return False
        if mapping[node] not in target.nodes:
            return False
        if not source.labels(node) <= target.labels(mapping[node]):
            return False
    for fact in source.binary_facts:
        src, dst = mapping[fact.src], mapping[fact.dst]
        if dst not in target.out_by_pred(src).get(fact.pred, frozenset()):
            return False
    return True


def compose(
    first: Mapping[Node, Node], second: Mapping[Node, Node]
) -> dict[Node, Node]:
    """``second after first``: the map ``x -> second[first[x]]``."""
    return {x: second[y] for x, y in first.items()}


def is_core(structure: Structure) -> bool:
    """True iff every endomorphism of ``structure`` is surjective.

    Equivalently, there is no homomorphism into a proper substructure.
    Used for the minimality condition on CQs in Section 4 of the paper.

    A node ``n`` can only be dropped by a retraction if some *other* node
    dominates its label and incident-predicate profile (the image of
    ``n`` must carry all of ``n``'s labels and partake in all of its edge
    predicates), so nodes with a unique profile are skipped without a
    search.  The remaining checks run against ``structure`` itself with
    ``n``'s image forbidden, sharing one set of target indexes across
    all candidate nodes instead of rebuilding a substructure per node.
    """
    nodes = structure.nodes
    profiles = {
        node: (
            structure.labels(node),
            structure.out_pred_set(node),
            structure.in_pred_set(node),
        )
        for node in nodes
    }
    for node in nodes:
        labels, out_preds, in_preds = profiles[node]
        if not any(
            other != node
            and labels <= profiles[other][0]
            and out_preds <= profiles[other][1]
            and in_preds <= profiles[other][2]
            for other in nodes
        ):
            continue  # unique profile: no endomorphism can drop this node
        # A hom into structure \ {node} is exactly a self-hom whose image
        # avoids node (the induced substructure carries the same facts).
        if homengine.has_homomorphism(
            structure, structure, forbid=frozenset({node})
        ):
            return False
    return True


def retract_to_subset(
    structure: Structure, keep: frozenset[Node]
) -> dict[Node, Node] | None:
    """A homomorphism of ``structure`` into the substructure on ``keep``
    fixing ``keep`` pointwise, if one exists (a retraction witness)."""
    seed = {n: n for n in keep if n in structure.nodes}
    drop = structure.nodes - keep
    # Searching structure -> structure with the dropped nodes forbidden
    # is equivalent to searching into restrict(keep), but reuses the
    # already-built indexes of ``structure``.
    return homengine.find_homomorphism(
        structure, structure, seed=seed, forbid=frozenset(drop)
    )
