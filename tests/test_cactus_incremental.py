"""The incremental cactus construction engine vs the from-scratch oracle.

Three layers of cross-validation:

* ``Structure.extended`` (the copy-on-write substrate) against a fresh
  ``Structure`` built from the same final fact sets — equality, multiset
  fingerprints, and every transferred index (bitset masks, per-predicate
  neighbour maps, the hom engine's compiled source plan);
* ``CactusFactory`` against ``build_cactus_from_scratch`` — every
  incrementally-built cactus must be node-for-node identical (equal
  structures, equal fingerprints, equal skeleton bookkeeping) across
  random shapes and depths;
* the rewired consumers — batch UCQ screening, the cactus d-sirup
  strategy, interned Λ-segment copies — against their one-at-a-time or
  ground-truth counterparts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zoo
from repro.core import (
    A,
    OneCQ,
    Shape,
    Structure,
    StructureBuilder,
    build_cactus,
    build_cactus_from_scratch,
    cactus_factory,
    chain_shape,
    evaluate_exhaustive,
    evaluate_via_cactuses,
    full_shape,
    iter_cactuses,
    path_structure,
    prune_shape,
    ucq_certain_answer,
    ucq_certain_answers,
    ucq_rewriting,
)
from repro.core import bitkernel
from repro.core.boundedness import probe_family_boundedness
from repro.core.structure import BinaryFact, BitsetIndex, UnaryFact
from repro.session import default_session
from repro.workloads import instance_family, random_instance


def q_tf() -> OneCQ:
    return OneCQ.from_structure(path_structure(["T", "F"]))


def q_ttf() -> OneCQ:
    return OneCQ.from_structure(path_structure(["T", "T", "F"]))


def q_gadget() -> OneCQ:
    """A branchier span-2 query with a twin, an extra label and a second
    predicate, to exercise label/pred bookkeeping during budding."""
    b = StructureBuilder()
    b.add_node("f", "F")
    b.add_node("t0", "T")
    b.add_node("t1", "T", "B")
    b.add_node("twin", "F", "T")
    b.add_node("mid")
    b.add_edge("t0", "mid", "R")
    b.add_edge("mid", "f", "R")
    b.add_edge("t1", "f", "S")
    b.add_edge("twin", "mid", "S")
    return OneCQ.from_structure(b.build())


def shape_strategy(span: int, depth: int) -> st.SearchStrategy:
    base = st.just(Shape.leaf())
    if depth == 0 or span == 0:
        return base
    child = shape_strategy(span, depth - 1)
    return st.one_of(
        base,
        st.dictionaries(
            st.integers(0, span - 1), child, min_size=1, max_size=span
        ).map(Shape.make),
    )


# ----------------------------------------------------------------------
# Structure.extended
# ----------------------------------------------------------------------


def _random_base_and_delta(seed: int):
    rng = random.Random(seed)
    base = random_instance(rng.randint(2, 7), rng.randint(1, 10), seed)
    nodes = sorted(base.nodes, key=str)
    fresh = [f"new{i}" for i in range(rng.randint(0, 2))]
    pool = nodes + fresh
    add_unary = [
        UnaryFact(rng.choice("TFAB"), rng.choice(pool))
        for _ in range(rng.randint(0, 3))
    ]
    remove_unary = [f for f in base.unary_facts if rng.random() < 0.3]
    add_binary = [
        BinaryFact(rng.choice("RS"), rng.choice(pool), rng.choice(pool))
        for _ in range(rng.randint(0, 3))
    ]
    return base, fresh, add_unary, remove_unary, add_binary


class TestStructureExtended:
    @given(st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_matches_from_scratch(self, seed):
        base, fresh, add_u, rem_u, add_b = _random_base_and_delta(seed)
        # Force every lazy index first so extension transfers them all.
        _ = base.fingerprint, base.bitset_index, base.out_by_pred
        ext = base.extended(
            add_nodes=fresh,
            add_unary=add_u,
            add_binary=add_b,
            remove_unary=rem_u,
        )
        scratch = Structure(ext.nodes, ext.unary_facts, ext.binary_facts)
        assert ext == scratch
        assert ext.fingerprint == scratch.fingerprint
        assert hash(ext) == hash(scratch)
        for node in ext.nodes:
            assert ext.labels(node) == scratch.labels(node)
            assert dict(ext.out_by_pred(node)) == dict(
                scratch.out_by_pred(node)
            )
            assert dict(ext.in_by_pred(node)) == dict(
                scratch.in_by_pred(node)
            )

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_bitset_index_transfer_exact(self, seed):
        base, fresh, add_u, rem_u, add_b = _random_base_and_delta(seed)
        _ = base.node_order, base.bitset_index
        ext = base.extended(
            add_nodes=fresh,
            add_unary=add_u,
            add_binary=add_b,
            remove_unary=rem_u,
        )
        transferred = ext.bitset_index
        rebuilt = BitsetIndex(ext)  # same node_order, fresh masks
        assert transferred.nodes == rebuilt.nodes
        assert transferred.index == rebuilt.index
        assert transferred.full_mask == rebuilt.full_mask
        assert transferred.label_nodes == rebuilt.label_nodes
        assert transferred.succ == rebuilt.succ
        assert transferred.pred == rebuilt.pred
        assert transferred.has_out == rebuilt.has_out
        assert transferred.has_in == rebuilt.has_in

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_source_plan_transfer_exact(self, seed):
        base, fresh, add_u, rem_u, add_b = _random_base_and_delta(seed)
        _ = base.node_order
        bitkernel.source_plan(base)  # compile the base plan first
        ext = base.extended(
            add_nodes=fresh,
            add_unary=add_u,
            add_binary=add_b,
            remove_unary=rem_u,
        )
        plan = bitkernel.source_plan(ext)
        fresh_plan = bitkernel.SourcePlan(ext)
        assert plan.nodes == fresh_plan.nodes
        assert plan.labels == fresh_plan.labels
        assert plan.out_preds == fresh_plan.out_preds
        assert plan.in_preds == fresh_plan.in_preds
        assert [sorted(p) for p in plan.self_loops] == [
            sorted(p) for p in fresh_plan.self_loops
        ]
        assert sorted(plan.edges) == sorted(fresh_plan.edges)
        for mine, theirs in zip(plan.out_adj, fresh_plan.out_adj):
            assert sorted(mine) == sorted(theirs)
        for mine, theirs in zip(plan.in_adj, fresh_plan.in_adj):
            assert sorted(mine) == sorted(theirs)

    def test_extension_appends_to_interning_order(self):
        base = path_structure(["T", "F"])
        order = base.node_order
        ext = base.extended(add_nodes=["zz"], add_unary=[UnaryFact(A, "zz")])
        assert ext.node_order[: len(order)] == order
        assert set(ext.node_order) == ext.nodes

    def test_empty_delta_returns_self(self):
        base = path_structure(["T", "F"])
        assert base.extended() is base
        assert base.extended(add_unary=base.unary_facts) is base

    def test_union_and_relabel_still_agree_with_semantics(self):
        p1 = path_structure(["T", ""], prefix="a")
        p2 = path_structure(["", "F"], prefix="b")
        u = p1.union(p2)
        assert u == Structure(
            p1.nodes | p2.nodes,
            p1.unary_facts | p2.unary_facts,
            p1.binary_facts | p2.binary_facts,
        )
        r = p1.relabel_node("a0", remove=["T"], add=["A", "B"])
        assert r.labels("a0") == frozenset({"A", "B"})
        assert r.fingerprint == Structure(
            r.nodes, r.unary_facts, r.binary_facts
        ).fingerprint


# ----------------------------------------------------------------------
# Incremental construction vs the from-scratch oracle
# ----------------------------------------------------------------------


def _assert_same_cactus(one_cq: OneCQ, shape: Shape) -> None:
    inc = build_cactus(one_cq, shape)
    ref = build_cactus_from_scratch(one_cq, shape)
    assert inc.structure == ref.structure
    assert inc.structure.fingerprint == ref.structure.fingerprint
    assert inc.segments.keys() == ref.segments.keys()
    for seg_id, mine in inc.segments.items():
        theirs = ref.segments[seg_id]
        assert mine.parent == theirs.parent
        assert mine.bud_index == theirs.bud_index
        assert mine.depth == theirs.depth
        assert mine.budded == theirs.budded
        assert mine.path == theirs.path
        assert mine.var_map == theirs.var_map


class TestIncrementalMatchesScratch:
    @given(st.integers(0, 500), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_shapes_isomorphic(self, seed, data):
        one_cq = random.Random(seed).choice([q_tf(), q_ttf(), q_gadget()])
        shape = data.draw(shape_strategy(one_cq.span, 3))
        _assert_same_cactus(one_cq, shape)

    def test_deep_chains_and_full_shapes(self):
        _assert_same_cactus(q_tf(), chain_shape([0] * 7))
        _assert_same_cactus(q_ttf(), chain_shape([0, 1, 0, 1]))
        _assert_same_cactus(q_ttf(), full_shape(2, 3))
        _assert_same_cactus(q_gadget(), full_shape(2, 2))
        # zoo.d2() is built from scratch and must stay the pooled cactus
        _assert_same_cactus(zoo.one_cq(zoo.q2()), chain_shape([0, 0]))

    def test_whole_enumeration_matches(self):
        one_cq = q_ttf()
        for cactus in iter_cactuses(one_cq, 2):
            ref = build_cactus_from_scratch(one_cq, cactus.shape)
            assert cactus.structure == ref.structure
            assert cactus.structure.fingerprint == ref.structure.fingerprint

    def test_order_independence(self):
        # Building deep-first must give the same structures as the
        # enumeration order (prefixes materialised along the way).
        default_session().clear_caches()
        one_cq = q_ttf()
        deep = build_cactus(one_cq, full_shape(2, 3))
        ref = build_cactus_from_scratch(one_cq, full_shape(2, 3))
        assert deep.structure == ref.structure
        assert deep.structure.fingerprint == ref.structure.fingerprint


class TestFactoryCaching:
    def test_same_shape_same_object(self):
        one_cq = q_tf()
        a = build_cactus(one_cq, chain_shape([0, 0]))
        b = build_cactus(one_cq, chain_shape([0, 0]))
        assert a is b

    def test_iter_cactuses_reuses_cached_objects(self):
        one_cq = q_ttf()
        first = {c.shape: c for c in iter_cactuses(one_cq, 2)}
        for cactus in iter_cactuses(one_cq, 2):
            assert first[cactus.shape] is cactus

    def test_prefix_is_substructure_of_extension(self):
        one_cq = q_ttf()
        factory = cactus_factory(one_cq)
        deep_shape = full_shape(2, 2)
        shallow = factory.cactus(prune_shape(deep_shape, 1))
        deep = factory.cactus(deep_shape)
        # Path naming: the shallow cactus's binary facts survive verbatim.
        assert shallow.structure.binary_facts <= deep.structure.binary_facts
        assert shallow.structure.nodes <= deep.structure.nodes

    def test_clear_cactus_caches(self):
        one_cq = q_tf()
        a = build_cactus(one_cq, Shape.leaf())
        default_session().clear_caches()
        b = build_cactus(one_cq, Shape.leaf())
        assert a is not b
        assert a.structure == b.structure

    def test_sigma_structure_memoised(self):
        cactus = build_cactus(q_tf(), chain_shape([0]))
        assert cactus.sigma_structure() is cactus.sigma_structure()
        sigma = cactus.sigma_structure()
        assert sigma.has_label(cactus.root_focus, A)
        assert not sigma.has_label(cactus.root_focus, "F")

    def test_segment_copies_interned(self):
        from repro.ditree.lambda_cq import segment_structure

        one_cq = q_ttf()
        s1, m1 = segment_structure(one_cq, frozenset({0}), False, "u")
        s2, m2 = segment_structure(one_cq, frozenset({0}), False, "u")
        assert s1 is s2 and m1 is m2
        s3, _ = segment_structure(one_cq, frozenset({0}), False, "v")
        assert s3 is not s1  # different tag, different node namespace


# ----------------------------------------------------------------------
# Incremental sigma structures and cross-factory interning
# ----------------------------------------------------------------------


class TestIncrementalSigma:
    @given(st.integers(0, 500), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sigma_matches_relabel_oracle(self, seed, data):
        one_cq = random.Random(seed).choice([q_tf(), q_ttf(), q_gadget()])
        shape = data.draw(shape_strategy(one_cq.span, 3))
        cactus = build_cactus(one_cq, shape)
        sigma = cactus.sigma_structure()
        oracle = build_cactus_from_scratch(one_cq, shape)
        reference = oracle.structure.relabel_node(
            oracle.root_focus, remove=["F"], add=[A]
        )
        assert sigma == reference
        assert sigma.fingerprint == reference.fingerprint

    def test_sigma_deep_chain_shares_prefix_facts(self):
        default_session().clear_caches()
        one_cq = q_tf()
        shallow = build_cactus(one_cq, chain_shape([0, 0]))
        deep = build_cactus(one_cq, chain_shape([0, 0, 0]))
        # The sigma family is built by the same delta as the cactus
        # family, so a prefix's sigma facts survive verbatim.
        assert (
            shallow.sigma_structure().binary_facts
            <= deep.sigma_structure().binary_facts
        )

    def test_sigma_on_scratch_cactus_still_works(self):
        oracle = build_cactus_from_scratch(q_ttf(), full_shape(2, 2))
        sigma = oracle.sigma_structure()
        assert sigma.has_label(oracle.root_focus, A)
        assert not sigma.has_label(oracle.root_focus, "F")


class TestStructureIntern:
    def test_fresh_factories_share_structures(self):
        from repro.core.cactus import CactusFactory, iter_shapes

        default_session().clear_caches()
        one_cq = q_ttf()
        shapes = list(iter_shapes(one_cq.span, 2))
        f1 = CactusFactory(one_cq)
        f2 = CactusFactory(one_cq)
        for shape in shapes:
            assert f1.cactus(shape).structure is f2.cactus(shape).structure

    def test_content_equal_queries_share(self):
        from repro.core.cactus import CactusFactory

        default_session().clear_caches()
        # Distinct but content-equal OneCQ values intern under one key.
        a = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        b = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        assert a.query is not b.query
        shape = full_shape(a.span, 2)
        assert (
            CactusFactory(a).cactus(shape).structure
            is CactusFactory(b).cactus(shape).structure
        )

    def test_different_queries_do_not_share(self):
        from repro.core.cactus import CactusFactory

        default_session().clear_caches()
        a, b = q_tf(), q_ttf()
        sa = CactusFactory(a).cactus(chain_shape([0])).structure
        sb = CactusFactory(b).cactus(chain_shape([0])).structure
        assert sa != sb

    def test_clear_structure_intern(self):
        from repro.core.cactus import CactusFactory

        default_session().clear_caches()
        one_cq = q_tf()
        shape = chain_shape([0])
        first = CactusFactory(one_cq).cactus(shape).structure
        default_session().cactus.clear_intern()
        second = CactusFactory(one_cq).cactus(shape).structure
        assert first is not second
        assert first == second
        assert first.fingerprint == second.fingerprint

    def test_interned_cactuses_match_oracle(self):
        from repro.core.cactus import CactusFactory, iter_shapes

        default_session().clear_caches()
        one_cq = q_gadget()
        shapes = list(iter_shapes(one_cq.span, 2))
        CactusFactory(one_cq)  # warm nothing
        warm = CactusFactory(one_cq)
        for shape in shapes:
            warm.cactus(shape)
        hits = CactusFactory(one_cq)  # every shape now interns
        for shape in shapes:
            cactus = hits.cactus(shape)
            ref = build_cactus_from_scratch(one_cq, shape)
            assert cactus.structure == ref.structure
            assert (
                cactus.structure.fingerprint == ref.structure.fingerprint
            )
            # sigma falls back to the relabel on intern hits and stays
            # correct.
            assert cactus.sigma_structure() == ref.sigma_structure()


# ----------------------------------------------------------------------
# Rewired consumers
# ----------------------------------------------------------------------


class TestBatchScreening:
    def test_ucq_certain_answers_matches_one_at_a_time(self):
        one_cq = q_ttf()
        ucq = ucq_rewriting(one_cq, 2)
        family = instance_family(12, 5, 7, seed=9)
        batch = ucq_certain_answers(ucq, family)
        single = [ucq_certain_answer(ucq, data) for data in family]
        assert batch == single
        assert any(batch) and not all(batch)  # the family is non-trivial

    def test_probe_family_boundedness_roundtrip(self):
        from repro import zoo

        one_cq = OneCQ.from_structure(zoo.q5())  # bounded at depth 1
        family = instance_family(8, 4, 5, seed=3)
        answers = probe_family_boundedness(one_cq, family, depth=1)
        expected = [
            ucq_certain_answer(ucq_rewriting(one_cq, 1), data)
            for data in family
        ]
        assert answers == expected

    def test_probe_family_boundedness_refuses_unbounded(self):
        # T -> F is not bounded: the rewriting would silently under-
        # approximate, so the API must refuse instead.
        with pytest.raises(ValueError):
            probe_family_boundedness(q_tf(), instance_family(2, 4, 5, 3), 1)

    def test_empty_family(self):
        assert ucq_certain_answers(ucq_rewriting(q_tf(), 1), []) == []


class TestCactusStrategy:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_ground_truth(self, seed):
        one_cq = random.Random(seed).choice([q_tf(), q_ttf()])
        data = random_instance(
            4, 6, seed, label_weights={"T": 2, "F": 1, "A": 2, "": 3}
        )
        via_cactus = evaluate_via_cactuses(one_cq.query, data)
        ground = evaluate_exhaustive(one_cq.query, data)
        assert via_cactus.certain == ground.certain, data.describe()

    def test_rejects_non_one_cq(self):
        two_f = path_structure(["F", "F"])
        with pytest.raises(ValueError):
            evaluate_via_cactuses(two_f, path_structure(["T"]))
