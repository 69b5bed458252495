"""Semiring-generic evaluation: axioms, cross-validation, wire codecs.

Three layers of confidence:

* every registered :class:`~repro.core.semiring.Semiring` instance is
  property-checked against the commutative-semiring axioms
  (associativity, commutativity, identities, distributivity,
  annihilation) over per-carrier hypothesis strategies;
* the COUNT instance is cross-validated against the legacy exact
  counting kernel on all four backends over zoo queries and random
  families, and every weighted backend path (decomp bag-value DP,
  matrix forest matvecs) is cross-validated against the naive weighted
  enumeration oracle;
* the typed surfaces (``Session.evaluate``, ``evaluate_batch`` with a
  semiring, the pool wire codec) are exercised end to end.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, Session, zoo
from repro.core.errors import UnknownSemiring
from repro.core.homengine import (
    _count_homomorphisms,
    iter_homomorphisms,
    semiring_evaluate,
)
from repro.core.runtime import parallel_semiring_batch
from repro.core.semiring import (
    BOOL,
    COUNT,
    MAXPLUS,
    MINPLUS,
    PROB,
    WHY,
    Evaluation,
    Semiring,
    hom_weight,
    register_semiring,
    registered_semirings,
    resolve_semiring,
)
from repro.core.structure import BinaryFact, Structure, UnaryFact
from repro.workloads.generators import (
    instance_family,
    random_ditree_cq,
    random_instance,
)

BACKENDS = ("naive", "bitset", "matrix", "decomp")


# ----------------------------------------------------------------------
# Carrier strategies (exact arithmetic only: small-int-valued floats
# keep float ``+``/``*`` associative, so the axioms hold on the nose)
# ----------------------------------------------------------------------

_small_float = st.integers(0, 8).map(float)

_VALUE_STRATEGIES = {
    "bool": st.booleans(),
    "count": st.integers(0, 50),
    "prob": _small_float,
    "minplus": st.one_of(st.just(math.inf), _small_float),
    "maxplus": st.one_of(st.just(-math.inf), _small_float),
    "why": st.frozensets(
        st.frozensets(st.integers(0, 3), max_size=2), max_size=3
    ),
}


def _triples():
    """(semiring, a, b, c) across every registered instance."""
    missing = [
        sr.name for sr in registered_semirings()
        if sr.name not in _VALUE_STRATEGIES
    ]
    assert not missing, (
        f"no axiom strategy for registered semirings {missing}; "
        "add one to _VALUE_STRATEGIES"
    )

    @st.composite
    def triple(draw):
        sr = draw(st.sampled_from(registered_semirings()))
        vals = _VALUE_STRATEGIES[sr.name]
        return sr, draw(vals), draw(vals), draw(vals)

    return triple()


class TestSemiringAxioms:
    @given(_triples())
    @settings(max_examples=300, deadline=None)
    def test_axioms(self, tc):
        sr, a, b, c = tc
        plus, times = sr.plus, sr.times
        # ⊕: associative, commutative, identity zero
        assert plus(plus(a, b), c) == plus(a, plus(b, c))
        assert plus(a, b) == plus(b, a)
        assert plus(a, sr.zero) == a
        # ⊗: associative, commutative, identity one
        assert times(times(a, b), c) == times(a, times(b, c))
        assert times(a, b) == times(b, a)
        assert times(a, sr.one) == a
        # distributivity and annihilation
        assert times(a, plus(b, c)) == plus(times(a, b), times(a, c))
        assert times(a, sr.zero) == sr.zero

    @given(_triples())
    @settings(max_examples=100, deadline=None)
    def test_declared_flags(self, tc):
        sr, a, b, _ = tc
        if sr.is_idempotent:
            assert sr.plus(a, a) == a
        if sr.is_selective:
            assert sr.plus(a, b) in (a, b)

    def test_registry(self):
        for name in ("bool", "count", "prob", "minplus", "maxplus", "why"):
            assert resolve_semiring(name).name == name
        assert resolve_semiring(COUNT) is COUNT
        with pytest.raises(UnknownSemiring):
            resolve_semiring("auto")  # a dsirup strategy, not a semiring
        with pytest.raises(ValueError):
            register_semiring(
                Semiring("bool", False, True, lambda a, b: a or b,
                         lambda a, b: a and b)
            )

    def test_wire_codecs_roundtrip(self):
        facts = (
            UnaryFact("A", "x"),
            BinaryFact("R", "x", "y"),
            BinaryFact("R", "y", "x"),
        )
        value = frozenset(
            {frozenset({facts[0], facts[1]}), frozenset({facts[2]})}
        )
        assert WHY.decode(WHY.encode(value)) == value
        assert PROB.decode(PROB.encode(0.25)) == 0.25


# ----------------------------------------------------------------------
# COUNT vs the legacy exact kernel, all four backends
# ----------------------------------------------------------------------


class TestCountCrossValidation:
    def test_zoo_queries_all_backends(self):
        s = Session()
        instances = instance_family(3, 7, 12, seed=5)
        for q in (zoo.q1(), zoo.q2(), zoo.q5()):
            for d in instances:
                want = _count_homomorphisms(
                    q, d, backend="naive", session=s
                )
                for b in BACKENDS:
                    ev = s.evaluate(q, d, "count", backend=b)
                    assert ev.value == want, (b, want, ev.value)
                    assert ev.semiring == "count" and ev.backend == b
                    assert ev.answer == (want > 0)

    def test_random_families(self):
        s = Session()
        rng = random.Random(11)
        cases = 0
        while cases < 12:
            q = random_ditree_cq(rng.randrange(2, 5), rng.randrange(10**6))
            if q is None:
                continue
            d = random_instance(
                rng.randrange(4, 9), rng.randrange(4, 16),
                rng.randrange(10**6), label_weights={"A": 2, "F": 2, "T": 2},
            )
            cases += 1
            want = _count_homomorphisms(
                q, d, backend="naive", session=s
            )
            for b in BACKENDS:
                got = s.evaluate(q, d, "count", backend=b)
                assert got.value == want

    def test_session_count_method_is_thin_count(self):
        s = Session()
        q, d = zoo.q1(), zoo.d1()
        assert s.count_homomorphisms(q, d) == s.evaluate(q, d, "count").value


# ----------------------------------------------------------------------
# Weighted evaluation vs the naive weighted oracle
# ----------------------------------------------------------------------


def _oracle(q, d, sr, weights, session):
    acc = sr.zero
    for hom in iter_homomorphisms(q, d, backend="naive", session=session):
        acc = sr.plus(acc, hom_weight(q, hom, sr, weights))
    return acc


def _random_weights(d, seed, draw):
    wrng = random.Random(seed)
    return {
        f: draw(wrng)
        for f in list(d.unary_facts) + list(d.binary_facts)
        if wrng.random() < 0.7
    }


class TestWeightedCrossValidation:
    @pytest.mark.parametrize("name", ["prob", "minplus", "maxplus", "bool"])
    def test_weighted_all_backends(self, name):
        s = Session()
        sr = resolve_semiring(name)
        rng = random.Random(23)
        cases = 0
        while cases < 10:
            q = random_ditree_cq(rng.randrange(2, 5), rng.randrange(10**6))
            if q is None:
                continue
            d = random_instance(
                rng.randrange(4, 9), rng.randrange(5, 18),
                rng.randrange(10**6), label_weights={"A": 2, "F": 2, "T": 2},
            )
            cases += 1
            if name == "bool":
                weights = _random_weights(d, cases, lambda r: r.random() < 0.8)
            else:
                weights = _random_weights(
                    d, cases, lambda r: round(r.uniform(0.1, 0.9), 3)
                )
            want = _oracle(q, d, sr, weights, s)
            for b in ("bitset", "matrix", "decomp"):
                ev = semiring_evaluate(
                    q, d, sr, weights=weights, backend=b, session=s,
                )
                if isinstance(want, float) and not math.isinf(want):
                    assert ev.value == pytest.approx(want, abs=1e-9), b
                else:
                    assert ev.value == want, b

    def test_why_provenance(self):
        s = Session()
        d = Structure(("a", "b", "c"), (), (
                BinaryFact("R", "a", "b"),
                BinaryFact("R", "a", "c"),
            ),
        )
        q = Structure(("x", "y"), (), (BinaryFact("R", "x", "y"),)
        )
        for b in BACKENDS:
            ev = semiring_evaluate(
                q, d, "why", backend=b, session=s
            )
            assert ev.value == frozenset(
                {
                    frozenset({BinaryFact("R", "a", "b")}),
                    frozenset({BinaryFact("R", "a", "c")}),
                }
            ), b

    def test_minplus_witness_is_cheapest(self):
        s = Session()
        d = Structure(("a", "b", "c"), (), (
                BinaryFact("R", "a", "b"),
                BinaryFact("R", "a", "c"),
            ),
        )
        q = Structure(("x", "y"), (), (BinaryFact("R", "x", "y"),)
        )
        weights = {
            BinaryFact("R", "a", "b"): 5.0,
            BinaryFact("R", "a", "c"): 2.0,
        }
        ev = semiring_evaluate(
            q, d, "minplus", weights=weights, backend="bitset", session=s,
        )
        assert ev.value == 2.0
        assert ev.witness is not None and ev.witness["y"] == "c"

    def test_prob_expected_witness_mass(self):
        # One query edge over two independent facts with marginals
        # 0.5/0.25: the expected number of witnesses is their sum.
        s = Session()
        d = Structure(("a", "b", "c"), (), (
                BinaryFact("R", "a", "b"),
                BinaryFact("R", "a", "c"),
            ),
        )
        q = Structure(("x", "y"), (), (BinaryFact("R", "x", "y"),)
        )
        weights = {
            BinaryFact("R", "a", "b"): 0.5,
            BinaryFact("R", "a", "c"): 0.25,
        }
        for b in BACKENDS:
            ev = semiring_evaluate(
                q, d, "prob", weights=weights, backend=b, session=s,
            )
            assert ev.value == pytest.approx(0.75), b


# ----------------------------------------------------------------------
# The typed surface, the cache, and the pool wire
# ----------------------------------------------------------------------


class TestEvaluateSurface:
    def test_bool_matches_has_homomorphism(self):
        s = Session()
        for q, d in ((zoo.q1(), zoo.d1()), (zoo.q2(), zoo.d2())):
            ev = s.evaluate(q, d)  # semiring="bool" default
            assert ev.value is s.has_homomorphism(q, d)
            assert isinstance(ev, Evaluation)
            assert ev.known and ev.answer == ev.value

    def test_unknown_semiring_raises(self):
        s = Session()
        with pytest.raises(UnknownSemiring):
            s.evaluate(zoo.q1(), zoo.d1(), "tropical-typo")

    def test_dsirup_strategy_is_not_a_semiring(self):
        # "auto" names a d-sirup strategy: it never resolves silently
        # as a semiring (the certain answer is Session.evaluate_dsirup).
        s = Session()
        with pytest.raises(UnknownSemiring):
            s.evaluate(zoo.q2(), zoo.d2(), "auto")

    def test_semiring_cache_tagging(self):
        s = Session()
        q, d = zoo.q1(), zoo.d1()
        w = {f: 0.5 for f in d.binary_facts}
        first = semiring_evaluate(
            q, d, "prob", weights=w, backend="decomp", session=s
        )
        again = semiring_evaluate(
            q, d, "prob", weights=w, backend="decomp", session=s
        )
        assert again.value == first.value
        # A different weighting gives a different value.
        w2 = {f: 0.25 for f in d.binary_facts}
        other = semiring_evaluate(
            q, d, "prob", weights=w2, backend="decomp", session=s
        )
        assert other.value != first.value or first.value == 0.0

    def test_governed_evaluate_returns_reason(self):
        s = Session(EngineConfig(hom_fuel=1))
        d = random_instance(30, 120, seed=3)
        q = Structure(
            ("x", "y", "z"),
            (),
            (BinaryFact("R", "x", "y"), BinaryFact("R", "y", "z")),
        )
        ev = s.evaluate(q, d, "count", backend="bitset")
        assert ev.value is None and not ev.known
        assert ev.reason == "fuel"
        assert not ev.answer.known

    def test_parallel_semiring_batch_matches_serial(self):
        s = Session(EngineConfig(workers=2, parallel_min=1))
        q = zoo.q1()
        instances = instance_family(6, 6, 10, seed=9)
        w = {f: 0.5 for f in instances[0].binary_facts}
        par = parallel_semiring_batch(
            q, instances, "prob", weights=w, session=s
        )
        serial = [
            semiring_evaluate(
                q, d, "prob", weights=w, session=s
            )
            for d in instances
        ]
        assert [e.value for e in par] == pytest.approx(
            [e.value for e in serial]
        )
        s.close()

    def test_parallel_semiring_batch_why_canonical(self):
        s = Session(EngineConfig(workers=2, parallel_min=1))
        q = zoo.q1()
        instances = instance_family(4, 6, 10, seed=9)
        par = parallel_semiring_batch(q, instances, "why", session=s)
        serial = [
            semiring_evaluate(q, d, "why", session=s)
            for d in instances
        ]
        assert [e.value for e in par] == [e.value for e in serial]
        s.close()

    def test_unregistered_semiring_takes_serial_path(self):
        bespoke = Semiring(
            "bespoke-max", zero=-1, one=0,
            plus=max, times=lambda a, b: a + b, is_idempotent=True,
        )
        s = Session(EngineConfig(workers=2, parallel_min=1))
        q = zoo.q1()
        instances = instance_family(3, 6, 10, seed=9)
        out = parallel_semiring_batch(q, instances, bespoke, session=s)
        assert len(out) == len(instances)
        assert all(isinstance(e, Evaluation) for e in out)
        s.close()

    def test_evaluate_batch_semiring_routing(self):
        s = Session()
        q = zoo.q1()
        instances = instance_family(3, 6, 10, seed=9)
        plain = s.evaluate_batch(q, instances)
        assert all(isinstance(b, bool) for b in plain)
        counted = s.evaluate_batch(q, instances, semiring="count")
        assert [e.value > 0 for e in counted] == plain
