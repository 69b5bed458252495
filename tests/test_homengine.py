"""Unit and property tests for the pluggable homomorphism engine.

Covers the satellite requirements of the bitset-engine PR: backend
cross-validation on random instances, node interning, structure
fingerprints, seeded/filtered/counted answers, and the batch APIs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.homengine import (
    BACKENDS,
    _count_homomorphisms,
    covers_any,
    evaluate_batch,
    find_homomorphism,
    has_homomorphism,
    iter_homomorphisms,
)
from repro.core.homomorphism import is_core, is_homomorphism
from repro.core.structure import (
    BinaryFact,
    Structure,
    StructureBuilder,
    UnaryFact,
    path_structure,
)
from repro.workloads.generators import random_ditree_cq, random_instance


def canon(homs):
    """Order-insensitive canonical form of a hom enumeration."""
    return sorted(
        tuple(sorted(h.items(), key=lambda kv: str(kv[0]))) for h in homs
    )


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackendSwitch:
    def test_unknown_backend_rejected(self):
        q = path_structure(["T"])
        with pytest.raises(ValueError):
            list(iter_homomorphisms(q, q, backend="simd"))

    def test_per_call_override(self):
        q = path_structure(["", ""])
        d = path_structure(["", "", "", ""])
        for backend in BACKENDS:
            assert len(list(iter_homomorphisms(q, d, backend=backend))) == 3


# ----------------------------------------------------------------------
# Cross-validation: bitset vs naive (acceptance: >= 50 random instances)
# ----------------------------------------------------------------------


class TestCrossValidation:
    def test_verdicts_and_counts_agree_on_random_instances(self):
        """Identical hom-existence verdicts AND identical hom sets on 60
        random (query, instance) pairs from the workload generators."""
        agree = 0
        nonempty = 0
        for seed in range(60):
            q = random_ditree_cq(5, seed) or random_instance(
                4, 5, seed, preds=("R", "S")
            )
            d = random_instance(8, 14, seed + 10_000, preds=("R", "S"))
            naive = canon(iter_homomorphisms(q, d, backend="naive"))
            bitset = canon(iter_homomorphisms(q, d, backend="bitset"))
            assert naive == bitset, f"backend mismatch at seed {seed}"
            agree += 1
            nonempty += bool(naive)
        assert agree == 60
        assert nonempty > 0  # the sample is not vacuous

    def test_seeded_and_restricted_agree(self):
        for seed in range(25):
            q = random_instance(4, 6, seed, preds=("R",))
            d = random_instance(7, 12, seed + 500, preds=("R",))
            some_q = next(iter(sorted(q.nodes, key=str)))
            restrict = frozenset(list(sorted(d.nodes, key=str))[:4])
            for image in sorted(d.nodes, key=str):
                naive = canon(
                    iter_homomorphisms(
                        q,
                        d,
                        seed={some_q: image},
                        restrict_image=restrict,
                        backend="naive",
                    )
                )
                bitset = canon(
                    iter_homomorphisms(
                        q,
                        d,
                        seed={some_q: image},
                        restrict_image=restrict,
                        backend="bitset",
                    )
                )
                assert naive == bitset

    def test_node_domains_and_forbid_agree(self):
        for seed in range(25):
            q = random_instance(4, 5, seed)
            d = random_instance(7, 11, seed + 900)
            nodes_q = sorted(q.nodes, key=str)
            nodes_d = sorted(d.nodes, key=str)
            constraints = {
                "node_domains": {nodes_q[0]: frozenset(nodes_d[::2])},
                "forbid": frozenset(nodes_d[:2]),
            }
            results = [
                canon(iter_homomorphisms(q, d, backend=b, **constraints))
                for b in BACKENDS
            ]
            assert results[0] == results[1]
            # node_filter emulation agrees with the declarative form
            allowed = constraints["node_domains"][nodes_q[0]]
            forbidden = constraints["forbid"]

            def node_filter(x, v):
                if v in forbidden:
                    return False
                if x == nodes_q[0] and v not in allowed:
                    return False
                return True

            filtered = canon(
                iter_homomorphisms(q, d, node_filter=node_filter)
            )
            assert filtered == results[0]

    def test_seeded_self_loop_on_missing_predicate_maps_nowhere(self):
        """A seeded query node whose self-loop predicate the target
        lacks has no image, under every backend; with the loop present
        in the target the same seed maps."""
        q = Structure(
            binary=[BinaryFact("S", "x", "x"), BinaryFact("R", "x", "y")]
        )
        d = Structure(
            binary=[BinaryFact("R", "a", "b"), BinaryFact("R", "b", "b")]
        )
        looped = Structure(
            binary=d.binary_facts | {BinaryFact("S", "a", "a")}
        )
        for backend in BACKENDS:
            assert list(
                iter_homomorphisms(q, d, seed={"x": "a"}, backend=backend)
            ) == []
            assert _count_homomorphisms(
                q, d, seed={"x": "a"}, backend=backend
            ) == 0
            assert canon(
                iter_homomorphisms(q, looped, seed={"x": "a"}, backend=backend)
            ) == [(("x", "a"), ("y", "b"))]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_existence_agrees(self, seed):
        q = random_instance(4, 6, seed)
        d = random_instance(6, 10, seed + 1)
        naive = has_homomorphism(q, d, backend="naive")
        bitset = has_homomorphism(q, d, backend="bitset")
        assert naive == bitset

    def test_every_bitset_hom_verifies(self):
        for seed in range(20):
            q = random_instance(4, 6, seed)
            d = random_instance(6, 12, seed + 77)
            for hom in iter_homomorphisms(q, d, backend="bitset"):
                assert is_homomorphism(q, d, hom)


# ----------------------------------------------------------------------
# Interning and fingerprints
# ----------------------------------------------------------------------


class TestInterning:
    def test_node_order_is_a_bijection(self):
        s = random_instance(9, 15, seed=3)
        order = s.node_order
        assert len(order) == len(s.nodes)
        assert set(order) == set(s.nodes)
        for i, node in enumerate(order):
            assert s.node_index[node] == i

    def test_node_order_memoised(self):
        s = random_instance(5, 6, seed=4)
        assert s.node_order is s.node_order
        assert s.bitset_index is s.bitset_index

    def test_bitset_index_masks(self):
        b = StructureBuilder()
        b.add_node("x", "T")
        b.add_node("y", "F")
        b.add_edge("x", "y", "R")
        s = b.build()
        idx = s.bitset_index
        xi, yi = idx.index["x"], idx.index["y"]
        assert idx.succ["R"][xi] == 1 << yi
        assert idx.pred["R"][yi] == 1 << xi
        assert idx.label_nodes["T"] == 1 << xi
        assert idx.has_out["R"] == 1 << xi
        assert idx.has_in["R"] == 1 << yi
        assert idx.mask_of(["x", "y", "zzz-not-a-node"]) == idx.full_mask

    def test_pred_indexed_neighbourhoods(self):
        b = StructureBuilder()
        b.add_edge("a", "b", "R")
        b.add_edge("a", "c", "R")
        b.add_edge("a", "b", "S")
        s = b.build()
        assert s.out_by_pred("a")["R"] == frozenset({"b", "c"})
        assert s.out_by_pred("a")["S"] == frozenset({"b"})
        assert s.in_by_pred("b")["R"] == frozenset({"a"})
        assert s.out_pred_set("a") == frozenset({"R", "S"})
        assert s.in_pred_set("a") == frozenset()


class TestFingerprint:
    def test_equal_structures_equal_fingerprints(self):
        kwargs = dict(
            nodes=["a", "b"],
            unary=[UnaryFact("T", "a")],
            binary=[BinaryFact("R", "a", "b")],
        )
        s1 = Structure(**kwargs)
        s2 = Structure(
            nodes=["b", "a"],
            unary=[UnaryFact("T", "a")],
            binary=[BinaryFact("R", "a", "b")],
        )
        assert s1 == s2
        assert s1.fingerprint == s2.fingerprint

    def test_different_structures_differ(self):
        s1 = path_structure(["T", "F"])
        s2 = path_structure(["F", "T"])
        s3 = path_structure(["T", "F"], preds=["S"])
        assert len({s1.fingerprint, s2.fingerprint, s3.fingerprint}) == 3

    def test_composite_node_names(self):
        # Cactus-style (segment, var) tuples and frozenset components
        # must fingerprint stably regardless of set iteration order.
        n1 = (frozenset({"u", "v", "w"}), 0)
        n2 = (frozenset({"w", "v", "u"}), 0)
        s1 = Structure(nodes=[n1], unary=[UnaryFact("T", n1)])
        s2 = Structure(nodes=[n2], unary=[UnaryFact("T", n2)])
        assert s1.fingerprint == s2.fingerprint

    def test_fingerprint_memoised(self):
        s = random_instance(6, 9, seed=11)
        assert s.fingerprint is s.fingerprint


# ----------------------------------------------------------------------
# Seeds, filters, backends and counts
# ----------------------------------------------------------------------


class TestHomCache:
    """Seeds, node filters and explicit backends each get their own
    answer for the same source/target pair."""

    def test_distinct_seeds_not_conflated(self):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        hom0 = find_homomorphism(q, d, seed={"q0": "d0"})
        hom1 = find_homomorphism(q, d, seed={"q0": "d1"})
        assert hom0["q0"] == "d0"
        assert hom1["q0"] == "d1"
        assert find_homomorphism(q, d, seed={"q0": "d2"}) is None

    def test_node_filter_bypasses_cache(self):
        q = path_structure([""], prefix="q")
        d = path_structure(["", ""], prefix="d")
        assert find_homomorphism(q, d) is not None
        # The filtered answer is not the unfiltered one asked first.
        hom = find_homomorphism(q, d, node_filter=lambda x, v: v == "d1")
        assert hom == {"q0": "d1"}

    def test_backend_override_not_served_cross_backend(self):
        q = path_structure(["T", ""])
        d = path_structure(["T", "", ""])
        assert has_homomorphism(q, d, backend="bitset")
        assert has_homomorphism(q, d, backend="naive")
        assert not has_homomorphism(d, q, backend="bitset")
        assert not has_homomorphism(d, q, backend="naive")


class TestCountCache:
    def test_count_matches_enumeration(self):
        for seed in range(15):
            q = random_instance(3, 4, seed)
            d = random_instance(6, 10, seed + 40)
            expected = len(list(iter_homomorphisms(q, d)))
            for backend in BACKENDS:
                assert _count_homomorphisms(q, d, backend=backend) == expected

    def test_zero_count_seeds_negative_answer(self):
        q = path_structure(["T"])
        d = path_structure(["F"])
        assert _count_homomorphisms(q, d) == 0
        assert not has_homomorphism(q, d)
        q2 = path_structure(["T", ""])
        d2 = path_structure(["T", "", ""])
        assert _count_homomorphisms(q2, d2) > 0
        assert find_homomorphism(q2, d2) is not None

    def test_count_and_find_not_conflated(self):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        assert find_homomorphism(q, d) is not None
        assert _count_homomorphisms(q, d) == 2
        assert find_homomorphism(q, d) is not None

    def test_count_with_node_filter_bypasses_cache(self):
        q = path_structure([""], prefix="q")
        d = path_structure(["", ""], prefix="d")
        assert _count_homomorphisms(q, d) == 2
        assert (
            _count_homomorphisms(q, d, node_filter=lambda x, v: v == "d1")
            == 1
        )

    def test_count_per_backend_keys(self):
        q = path_structure(["T", ""])
        d = path_structure(["T", "", ""])
        assert _count_homomorphisms(q, d, backend="bitset") == (
            _count_homomorphisms(q, d, backend="naive")
        )


# ----------------------------------------------------------------------
# Batch APIs
# ----------------------------------------------------------------------


class TestBatchAPIs:
    def test_covers_any_matches_individual_checks(self):
        target = random_instance(8, 14, seed=21)
        sources = [random_instance(3, 4, seed=s) for s in range(8)]
        expected = any(has_homomorphism(s, target) for s in sources)
        assert covers_any(target, sources) == expected

    def test_covers_any_with_seed_pairs(self):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        assert covers_any(d, [(q, {"q0": "d1"})])
        assert not covers_any(d, [(q, {"q0": "d2"})])

    def test_covers_any_parallel_seeds(self):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        assert covers_any(d, [q, q], seeds=[{"q0": "d2"}, {"q0": "d0"}])

    def test_covers_any_lazy_early_exit(self):
        d = path_structure(["", "", ""], prefix="d")
        consumed = []

        def produce():
            for i in range(100):
                consumed.append(i)
                yield path_structure([""], prefix="q")

        assert covers_any(d, produce())
        assert len(consumed) == 1

    def test_covers_any_empty_batch(self):
        assert not covers_any(path_structure(["T"]), [])

    def test_covers_any_rejects_mismatched_seeds(self):
        # A short seeds sequence must not silently truncate the batch
        # (a truncated scan could return a wrong False).
        q = path_structure(["T"], prefix="q")
        d = path_structure(["", ""], prefix="d")  # no hom: scan exhausts
        with pytest.raises(ValueError):
            covers_any(d, [q, q, q], seeds=[None])
        with pytest.raises(ValueError):
            covers_any(d, [(q, None)], seeds=[None])

    def test_evaluate_batch(self):
        q = path_structure(["T", "F"])
        instances = [
            path_structure(["T", "F"]),
            path_structure(["F", "T"]),
            path_structure([("T", "F"), ("T", "F")]),
        ]
        assert evaluate_batch(q, instances) == [True, False, True]
        for backend in BACKENDS:
            assert evaluate_batch(q, instances, backend=backend) == [
                True,
                False,
                True,
            ]


# ----------------------------------------------------------------------
# is_core profile pruning
# ----------------------------------------------------------------------


class TestIsCoreAgainstOracle:
    def _oracle_is_core(self, s):
        return not any(
            has_homomorphism(
                s, s.without_nodes([n]), backend="naive"
            )
            for n in s.nodes
        )

    def test_random_structures_agree_with_oracle(self):
        for seed in range(40):
            s = random_instance(5, 7, seed=seed)
            assert is_core(s) == self._oracle_is_core(s), f"seed {seed}"

    def test_redundant_copy_not_core(self):
        p1 = path_structure(["T", "F"], prefix="a")
        p2 = path_structure(["T", "F"], prefix="b")
        assert not is_core(p1.union(p2))

    def test_distinct_labels_core(self):
        assert is_core(path_structure(["T", "", "F"]))
