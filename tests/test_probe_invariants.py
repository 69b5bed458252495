"""Invariants of the Proposition 2 probe's shared setup.

A probe builds each target cactus's :class:`BitsetIndex` by delta from
its parent's, orders each cactus's appended nodes without the canonical
sort, and compiles each shallow source once.  These tests pin what that
must not change: the derived indexes equal from-scratch builds, the
zoo's probe results (uncovered shapes included) are the committed
ones, cactus node orders are deterministic and extend their parents',
and the batch coverage loop answers like single hom checks.
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import EngineConfig, Session, zoo
from repro.core import bitkernel, homengine
from repro.core.cactus import iter_cactuses, parent_shape
from repro.core.config import BACKEND_CHOICES
from repro.core.structure import BitsetIndex
from repro.workloads.generators import random_instance

SRC = Path(__file__).resolve().parent.parent / "src"

INDEX_SLOTS = (
    "nodes", "index", "full_mask", "label_nodes", "succ", "pred",
    "has_out", "has_in",
)


def _uncovered_digest(uncovered: tuple[str, ...]) -> str:
    return hashlib.blake2b(
        "\n".join(uncovered).encode(), digest_size=8
    ).hexdigest()


class TestDerivedIndexes:
    @pytest.mark.parametrize("name", ["q2", "q6"])
    def test_probe_universe_indexes_equal_scratch_builds(
        self, name, monkeypatch
    ):
        built = {"scratch": 0, "extended": 0}
        scratch_init = BitsetIndex.__init__
        extend = BitsetIndex.extended.__func__

        def counted_init(self, structure):
            built["scratch"] += 1
            scratch_init(self, structure)

        def counted_extended(cls, *args):
            built["extended"] += 1
            return extend(cls, *args)

        monkeypatch.setattr(BitsetIndex, "__init__", counted_init)
        monkeypatch.setattr(
            BitsetIndex, "extended", classmethod(counted_extended)
        )
        one_cq = zoo.one_cq(getattr(zoo, name)())
        with Session(EngineConfig(workers=0)) as session:
            session.probe_boundedness(one_cq, 3)
            universe = list(iter_cactuses(one_cq, 3, session=session))
            # Only the depth-0 cactus builds its index from scratch;
            # every other target extends its parent's.
            assert built == {"scratch": 1, "extended": len(universe) - 1}
            monkeypatch.undo()
            for cactus in universe:
                derived = cactus.structure.bitset_index
                fresh = BitsetIndex(cactus.structure)
                for slot in INDEX_SLOTS:
                    assert getattr(derived, slot) == getattr(fresh, slot), slot
                # The requirement masks the probe filed on the derived
                # index are those of the fresh one.
                for key, mask in derived.req_masks.items():
                    spec = ast.literal_eval(key)
                    plan = type(
                        "Plan", (), {"req_keys": (key,), "req_specs": (spec,)}
                    )
                    assert bitkernel.requirement_masks(plan, fresh) == [mask]


# (query, require_focus) -> (verdict, depth, cactuses_examined,
# len(uncovered), digest of the uncovered shapes in order, reason) of a
# depth-3 probe; q1 has two solitary F nodes and is not a 1-CQ.
ZOO_PROBE_GOLDENS = {
    ("q2", False): ("unbounded-evidence", None, 676, 651, "89fae71ee867e6c1", None),
    ("q2", True): ("unbounded-evidence", None, 676, 651, "89fae71ee867e6c1", None),
    ("q3", False): ("unbounded-evidence", None, 676, 468, "b80e89b2f753ccd5", None),
    ("q3", True): ("unbounded-evidence", None, 676, 468, "b80e89b2f753ccd5", None),
    ("q4", False): ("unbounded-evidence", None, 4, 1, "3379d152568a117a", None),
    ("q4", True): ("unbounded-evidence", None, 4, 1, "3379d152568a117a", None),
    ("q5", False): ("bounded", 1, 4, 0, "e4a6a0577479b2b4", None),
    ("q5", True): ("bounded", 1, 4, 0, "e4a6a0577479b2b4", None),
    ("q6", False): ("bounded", 0, 676, 0, "e4a6a0577479b2b4", None),
    ("q6", True): ("unbounded-evidence", None, 676, 651, "89fae71ee867e6c1", None),
    ("q7", False): ("bounded", 0, 4, 0, "e4a6a0577479b2b4", None),
    ("q7", True): ("bounded", 0, 4, 0, "e4a6a0577479b2b4", None),
    ("q8", False): ("bounded", 0, 4, 0, "e4a6a0577479b2b4", None),
    ("q8", True): ("bounded", 0, 4, 0, "e4a6a0577479b2b4", None),
}


class TestZooProbeGoldens:
    @pytest.mark.parametrize("name,require_focus", sorted(ZOO_PROBE_GOLDENS))
    def test_probe_result_matches_golden(self, name, require_focus):
        one_cq = zoo.one_cq(getattr(zoo, name)())
        with Session(EngineConfig(workers=0)) as session:
            r = session.probe_boundedness(
                one_cq, 3, require_focus=require_focus
            )
        got = (
            r.verdict.value, r.depth, r.cactuses_examined,
            len(r.uncovered), _uncovered_digest(r.uncovered), r.reason,
        )
        assert got == ZOO_PROBE_GOLDENS[name, require_focus]


class TestCactusNodeOrder:
    def test_order_extends_parent_order(self):
        one_cq = zoo.one_cq(zoo.q2())
        with Session(EngineConfig(workers=0)) as session:
            factory = session.cactus.factory(one_cq)
            for cactus in iter_cactuses(one_cq, 3, session=session):
                order = cactus.structure.node_order
                assert set(order) == cactus.structure.nodes
                assert len(order) == len(cactus.structure.nodes)
                if cactus.depth:
                    parent = factory.cactus(parent_shape(cactus.shape))
                    prefix = parent.structure.node_order
                    assert order[: len(prefix)] == prefix

    def test_order_does_not_depend_on_hash_seed(self):
        script = (
            "from repro import EngineConfig, Session, zoo\n"
            "from repro.core.cactus import iter_cactuses\n"
            "for name in ('q2', 'q6'):\n"
            "    q = zoo.one_cq(getattr(zoo, name)())\n"
            "    with Session(EngineConfig(workers=0)) as s:\n"
            "        for c in iter_cactuses(q, 2, session=s):\n"
            "            print(repr(c.structure.node_order))\n"
            "            print(repr(c.sigma_structure().node_order))\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env, capture_output=True, text=True, check=True,
                    timeout=120,
                ).stdout
            )
        assert outputs[0] and outputs[0] == outputs[1]


class TestCoversAnyBatch:
    @pytest.mark.parametrize("backend", BACKEND_CHOICES)
    def test_equals_single_checks(self, backend):
        one_cq = zoo.one_cq(zoo.q3())
        with Session(EngineConfig(workers=0)) as session:
            cactuses = list(iter_cactuses(one_cq, 2, session=session))
            shallow = [c for c in cactuses if c.depth <= 1]
            targets = [c for c in cactuses if c.depth == 2][:8]
            for target in targets:
                for seeded in (False, True):
                    pairs = [
                        (
                            s.structure,
                            {s.root_focus: target.root_focus}
                            if seeded else None,
                        )
                        for s in shallow
                    ]
                    want = any(
                        homengine.has_homomorphism(
                            src, target.structure, seed,
                            backend=backend, session=session,
                        )
                        for src, seed in pairs
                    )
                    got = homengine.covers_any(
                        target.structure, pairs, backend=backend,
                        session=session,
                    )
                    assert got == want
            for seed in range(6):
                data = random_instance(9, 14, seed)
                sources = [c.structure for c in shallow]
                want = any(
                    homengine.has_homomorphism(
                        src, data, backend=backend, session=session
                    )
                    for src in sources
                )
                assert homengine.covers_any(
                    data, sources, backend=backend, session=session
                ) == want
