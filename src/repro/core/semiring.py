"""Commutative semirings: one algebra, every evaluation mode.

The engine's two structural backends were always one abstraction step
away from weighted query evaluation: the ``decomp`` DP counts by bag
*products* and *sums*, and the ``matrix`` backend's AC-3 support step is
a *boolean-semiring* matrix-vector product.  This module supplies the
missing abstraction — a :class:`Semiring` protocol plus a registry of
instances — so one evaluation surface (``Session.evaluate(q, data,
semiring=...)``) answers

* Boolean certain answers (``bool``, the classic hom-existence check),
* homomorphism counts (``count``, exact python ints),
* expected witness mass over tuple-independent probabilistic instances
  (``prob``, float64),
* cheapest / most expensive witness cost (``minplus`` / ``maxplus``),
* and why-provenance (``why``: the polynomial of fact sets whose
  presence supports the answer).

Semantics
=========

A query ``q`` evaluated over data ``D`` under semiring ``K`` with a
fact annotation ``w : facts(D) -> K`` has value

    ``val(q, D) = ⊕_h ⊗_{atom a of q} w(h(a))``

summed over all homomorphisms ``h : q -> D`` — the standard K-relation
provenance semantics.  With every fact annotated ``one`` (the default)
this degenerates to the hom count mapped into ``K``: existence under
``bool``, the exact count under ``count``, ``0.0`` vs ``inf`` under
``minplus``.  Pass ``weights={fact: value, ...}`` to annotate facts
individually; unannotated facts default to :meth:`Semiring.annotate`
(``one`` everywhere except ``why``, where a fact annotates to its own
singleton witness set).

Note for ``prob``: ``⊕ = +`` over homomorphisms computes the *expected
number of witnesses* of a tuple-independent instance (exact, by
linearity of expectation), not the query probability — witnesses
sharing facts are not disjoint events.  It is the standard
sum-of-products provenance evaluation and an upper bound on the query
probability.

Every instance is commutative and satisfies the semiring axioms
(associativity, commutativity, identities, distributivity,
annihilation); ``tests/test_semiring.py`` property-checks all of them
for every registered instance.

Instances are *values*: pass either the registered name (``"count"``)
or a :class:`Semiring` object anywhere a ``semiring=`` argument is
accepted; :func:`resolve_semiring` normalises.  Third-party semirings
register via :func:`register_semiring`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .errors import Answer, UnknownSemiring
from .structure import BinaryFact, Node, Structure, UnaryFact

__all__ = [
    "BOOL",
    "COUNT",
    "Evaluation",
    "MAXPLUS",
    "MINPLUS",
    "PROB",
    "Semiring",
    "WHY",
    "hom_weight",
    "register_semiring",
    "registered_semirings",
    "resolve_semiring",
]


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(K, ⊕, ⊗, zero, one)``.

    ``plus``/``times`` are the binary operations, ``zero``/``one`` their
    identities; ``zero`` must annihilate (``x ⊗ zero = zero``).
    ``dtype`` names the numpy-compatible carrier for the matrix
    backend's dtype dispatch (``"bool"``, ``"int"``, ``"float"``) or
    ``"object"`` for carriers with no dense representation (``why``).
    ``is_idempotent`` marks ``x ⊕ x = x`` (safe to skip duplicate
    work); ``is_selective`` marks the stronger ``x ⊕ y ∈ {x, y}``
    (min/max — an enumeration can carry an arg-best witness along).
    """

    name: str
    zero: Any
    one: Any
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    dtype: str = "object"
    is_idempotent: bool = False
    is_selective: bool = False
    # Default per-fact annotation; ``None`` means "constant one", which
    # the hot paths special-case (no lookups at all).
    annotate_fact: Callable[[Any], Any] | None = field(default=None, repr=False)
    # Per-dtype wire codecs for pool shards; identity unless the carrier
    # needs canonicalisation (``why`` sorts its witness sets so shard
    # answers are deterministic across worker processes).
    encode: Callable[[Any], Any] = field(default=lambda v: v, repr=False)
    decode: Callable[[Any], Any] = field(default=lambda v: v, repr=False)

    def annotate(self, fact) -> Any:
        """The default annotation of one fact (``one`` unless the
        instance overrides — ``why`` maps a fact to ``{{fact}}``)."""
        if self.annotate_fact is None:
            return self.one
        return self.annotate_fact(fact)

    def weight_of(self, fact, weights: Mapping | None) -> Any:
        """``weights[fact]`` when annotated, else the default."""
        if weights is not None:
            w = weights.get(fact)
            if w is not None:
                return w
        return self.annotate(fact)

    def sum(self, values) -> Any:
        total = self.zero
        for v in values:
            total = self.plus(total, v)
        return total

    def product(self, values) -> Any:
        total = self.one
        for v in values:
            total = self.times(total, v)
        return total

    def __repr__(self) -> str:  # the dataclass repr drowns in lambdas
        return f"Semiring({self.name!r})"


# ----------------------------------------------------------------------
# Registered instances
# ----------------------------------------------------------------------


BOOL = Semiring(
    name="bool",
    zero=False,
    one=True,
    plus=lambda a, b: a or b,
    times=lambda a, b: a and b,
    dtype="bool",
    is_idempotent=True,
    is_selective=True,
)

# Exact python ints (arbitrary precision); the matrix tier's int64
# dispatch is only used when explicitly routed there.
COUNT = Semiring(
    name="count",
    zero=0,
    one=1,
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    dtype="int",
)

# Tuple-independent probabilistic instances: annotate each fact with its
# marginal probability; the value is the expected witness count.
PROB = Semiring(
    name="prob",
    zero=0.0,
    one=1.0,
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    dtype="float",
)

# Cost semirings: annotate facts with costs, read off the cheapest
# (resp. most expensive) witness.  ``zero`` is the empty ⊕ (no witness).
MINPLUS = Semiring(
    name="minplus",
    zero=math.inf,
    one=0.0,
    plus=min,
    times=lambda a, b: a + b,
    dtype="float",
    is_idempotent=True,
    is_selective=True,
)

MAXPLUS = Semiring(
    name="maxplus",
    zero=-math.inf,
    one=0.0,
    plus=max,
    times=lambda a, b: a + b,
    dtype="float",
    is_idempotent=True,
    is_selective=True,
)


def _why_times(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(x | y for x in a for y in b)


def _fact_wire(fact) -> tuple:
    if isinstance(fact, UnaryFact):
        return ("u", fact.label, fact.node)
    return ("b", fact.pred, fact.src, fact.dst)


def _fact_unwire(wire: tuple):
    if wire[0] == "u":
        return UnaryFact(wire[1], wire[2])
    return BinaryFact(wire[1], wire[2], wire[3])


def _why_encode(value: frozenset) -> tuple:
    # Canonical (sorted) nested tuples: shard answers compare equal
    # across workers regardless of set iteration order.
    return tuple(
        sorted(
            (
                tuple(sorted((_fact_wire(f) for f in witness), key=repr))
                for witness in value
            ),
            key=repr,
        )
    )


def _why_decode(wire: tuple) -> frozenset:
    return frozenset(
        frozenset(_fact_unwire(w) for w in witness) for witness in wire
    )


# Why-provenance: values are sets of witness fact-sets (the positive
# provenance polynomial with idempotent + and absorbing-free x).
WHY = Semiring(
    name="why",
    zero=frozenset(),
    one=frozenset({frozenset()}),
    plus=lambda a, b: a | b,
    times=_why_times,
    dtype="object",
    is_idempotent=True,
    annotate_fact=lambda fact: frozenset({frozenset({fact})}),
    encode=_why_encode,
    decode=_why_decode,
)


_REGISTRY: dict[str, Semiring] = {}


def register_semiring(semiring: Semiring) -> Semiring:
    """Register ``semiring`` under its name (overwriting is an error:
    pick a fresh name for a variant instance)."""
    if semiring.name in _REGISTRY:
        raise ValueError(f"semiring {semiring.name!r} already registered")
    _REGISTRY[semiring.name] = semiring
    return semiring


for _sr in (BOOL, COUNT, PROB, MINPLUS, MAXPLUS, WHY):
    register_semiring(_sr)


def registered_semirings() -> tuple[Semiring, ...]:
    """Every registered instance, registration order."""
    return tuple(_REGISTRY.values())


def resolve_semiring(semiring: "str | Semiring") -> Semiring:
    """Normalise a ``semiring=`` argument: a :class:`Semiring` instance
    passes through, a registered name resolves, anything else raises
    :class:`~repro.core.errors.UnknownSemiring`."""
    if isinstance(semiring, Semiring):
        return semiring
    found = _REGISTRY.get(semiring)
    if found is None:
        raise UnknownSemiring(
            f"unknown semiring {semiring!r}; registered: "
            f"{sorted(_REGISTRY)} (register_semiring adds more)"
        )
    return found


# ----------------------------------------------------------------------
# Shared evaluation helpers
# ----------------------------------------------------------------------


def hom_weight(
    source: Structure,
    hom: Mapping[Node, Node],
    semiring: Semiring,
    weights: Mapping | None,
) -> Any:
    """``⊗`` over the atoms of ``source`` of the image fact's weight —
    the value one homomorphism contributes (the enumeration oracle's
    inner product; the DP backends factor the same product over bags)."""
    sr = semiring
    if weights is None and sr.annotate_fact is None:
        return sr.one
    total = sr.one
    for fact in source.unary_facts:
        total = sr.times(
            total, sr.weight_of(UnaryFact(fact.label, hom[fact.node]), weights)
        )
    for fact in source.binary_facts:
        total = sr.times(
            total,
            sr.weight_of(
                BinaryFact(fact.pred, hom[fact.src], hom[fact.dst]), weights
            ),
        )
    return total


# ----------------------------------------------------------------------
# The typed evaluation result
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Evaluation:
    """Outcome of one ``Session.evaluate`` call.

    ``value`` is the semiring value (``None`` when a governed budget
    tripped — then ``reason`` carries the exhaustion tag);
    ``semiring``/``backend`` record what produced it.  ``witness`` is a
    homomorphism when one came out of the evaluation for free: the
    first witness on existence-style paths, an arg-best witness on
    selective semirings evaluated by enumeration, ``None`` otherwise.
    """

    value: Any
    semiring: str
    backend: str
    witness: Mapping[Node, Node] | None = None
    reason: str | None = None

    @property
    def known(self) -> bool:
        return self.reason is None

    @property
    def answer(self) -> Answer:
        """The :class:`~repro.core.errors.Answer`-compatible view (the
        unified outermost-surface contract): TRUE iff the value is not
        the semiring's zero — "some witness contributes" — FALSE iff it
        is, UNKNOWN(reason) when governance tripped."""
        if self.reason is not None:
            return Answer.unknown(self.reason)
        zero = resolve_semiring(self.semiring).zero
        return Answer(bool(self.value != zero))
