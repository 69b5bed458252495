"""The ``paper`` workload: the Sections 2 and 4 pipeline run from the
library, one op per user-level step, each op in a fresh memory-only
``Session`` (as ``repro decide`` runs it).

Every round holds the same ops in the same numbers.  The decide ops
read fixed inputs: the zoo queries and fixed draws of the Λ-CQ and
ditree generators, the same in every run.  The Theorem 9 decider
contradicts the probe on about one seeded span-1 draw in 200 (README,
"Found"), so seeded decide inputs would make a run's correctness depend
on its seed; with fixed draws that fault is one op per round, counted
as failed in every run.  The classify, d-sirup and Theorem 7 ops read
inputs drawn from the seed.

The three zoo queries that go to the Proposition 2 probe (q2, q3, q6)
take about a second each and make up the top 6% of ops, so
``op_p95_ms`` falls among them (the middle of the q6 decisions) rather
than on the edge between them and the cheaper ops.  ``op_p50_ms`` falls
inside the largest population: the 32 classify, d-sirup and Theorem 7
ops of a round and its cheaper ditree decisions, all about a
millisecond.  Of a round's 50 ops, 18 are dearer decisions, so the
median (rank 125 of 250) lies about 35 ranks below the first of them.
"""

from __future__ import annotations

import random

import oracle
from common import Op

# Seconds one round takes on the reference machine; a run of
# ``--seconds S`` executes ``max(1, round(S / ROUND_S))`` rounds.
ROUND_S = 4.0

ZOO_DECIDE = ("q2", "q3", "q4", "q5", "q6", "q7", "q8")
# Example 1 / Section 4 of the paper: q2-q4 are P-, NL- and L-complete
# (not FO-rewritable); q5-q8 are FO-rewritable.
ZOO_BOUNDED = {
    "q2": False, "q3": False, "q4": False,
    "q5": True, "q6": True, "q7": True, "q8": True,
}
DSIRUP_ZOO = ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")
# Fixed decide inputs, the same in every run and round: the first valid
# draws of each generator from generator seed 0 up.
LAMBDA1_DRAWS = 4  # random_lambda_cq(7 + s % 3, s, 1)
LAMBDA2_DRAWS = 2  # random_lambda_cq(LAMBDA2_SIZE, s, 2)
DITREE_DRAWS = 4  # random_ditree_cq(7, s)
LAMBDA2_SIZE = 5
# random_lambda_cq(7, 321, 1), decided in every round as the fifth
# span-1 op: a minimal Λ-CQ on which decide_lambda says L-hard while
# probe_boundedness certifies BOUNDED at depth 1 and classify_plain
# says AC0 (README, "Found").  The check counts it as a failed op.
KNOWN_FAULT = ("decide_lambda1", "n7/s321")
# Seeded inputs, per round.
CLASSIFY_OPS = 16
THM7_OPS = 8
# Every d-sirup instance has exactly DSIRUP_A nodes labelled A: the
# cost of the cactus strategy grows with |A| (it probes cactuses up to
# depth |A| + 1), and a seeded mix of |A| would swing a run's total.
DSIRUP_NODES, DSIRUP_EDGES, DSIRUP_A = 9, 13, 3
CACTUS_SHAPE_LIMIT = 100_000  # evaluate_via_cactuses refuses beyond


def _draw(make, rng: random.Random):
    """First non-degenerate draw of a seeded generator."""
    while True:
        value = make(rng.randrange(1 << 30))
        if value is not None:
            return value


def _fixed_draws(make, count: int) -> list:
    """The first ``count`` valid draws of ``make(s)`` for generator
    seeds ``s = 0, 1, ...``."""
    out = []
    s = 0
    while len(out) < count:
        found = make(s)
        if found is not None:
            out.append(found)
        s += 1
    return out


def _small_instance(seed: int):
    from repro.core.structure import A
    from repro.workloads.generators import random_instance

    data = random_instance(DSIRUP_NODES, DSIRUP_EDGES, seed, preds=("R", "S"))
    return data if len(data.nodes_with_label(A)) == DSIRUP_A else None


def fixed_decide_ops() -> list[Op]:
    """The generated decide ops of one round; they do not depend on
    the seed."""
    from repro.workloads.generators import random_ditree_cq, random_lambda_cq

    def lambda1(s):
        n = 7 + s % 3
        q = random_lambda_cq(n, s, 1)
        return None if q is None else Op("decide_lambda1", f"n{n}/s{s}", (q,))

    def lambda2(s):
        q = random_lambda_cq(LAMBDA2_SIZE, s, 2)
        return None if q is None else Op(
            "decide_lambda2", f"n{LAMBDA2_SIZE}/s{s}", (q,))

    def ditree(s):
        q = random_ditree_cq(7, s)
        return None if q is None else Op("decide_ditree", f"n7/s{s}", (q,))

    return (
        _fixed_draws(lambda1, LAMBDA1_DRAWS)
        + [lambda1(321)]
        + _fixed_draws(lambda2, LAMBDA2_DRAWS)
        + _fixed_draws(ditree, DITREE_DRAWS)
    )


def build_ops(seed: int, rounds: int) -> list[Op]:
    """The op list of a run: ``rounds`` rounds drawn from ``seed``."""
    from repro import zoo
    from repro.core.cactus import count_shapes
    from repro.core.cq import OneCQ, is_one_cq
    from repro.ditree.reductions import random_dag, reachability_instance
    from repro.ditree.structure import DitreeCQ
    from repro.workloads.generators import random_ditree_cq

    rng = random.Random(seed)
    ops: list[Op] = []
    for r in range(rounds):
        # Fresh structures every round: a structure caches its indexes.
        for name in ZOO_DECIDE:
            ops.append(Op("decide_zoo", name, (getattr(zoo, name)(),)))
        ops += fixed_decide_ops()
        for _ in range(CLASSIFY_OPS):
            q = _draw(lambda s: random_ditree_cq(7, s), rng)
            ops.append(Op("classify", "n7", (q,)))
        # One op per zoo query; the strategy cycles through those that
        # apply, so every round has the same number of ops.
        for i, name in enumerate(DSIRUP_ZOO):
            q = getattr(zoo, name)()
            data = _draw(_small_instance, rng)
            strategies = ["exhaustive", "branching"]
            if is_one_cq(q):
                strategies.append("pi")
                span = OneCQ.from_structure(q).span
                if count_shapes(span, DSIRUP_A + 1) <= CACTUS_SHAPE_LIMIT:
                    strategies.append("cactus")
            strategy = strategies[(r + i) % len(strategies)]
            ops.append(Op("dsirup", f"{name}/{strategy}", (q, data, strategy)))
        for i in range(THM7_OPS):
            name = ("q2", "q3")[i % 2]
            q = getattr(zoo, name)()
            graph = random_dag(12, 0.2, rng.randrange(1 << 30))
            vertices = sorted(graph.vertices)
            source, target = rng.sample(vertices, 2)
            data = reachability_instance(
                DitreeCQ.from_structure(q), graph, source, target
            )
            ops.append(Op("thm7", name, (q, data, graph.edges, source, target)))
    return ops


def describe(ops: list[Op]) -> list[str]:
    """A printable digest of an op list (the same seed gives the same
    list)."""
    out = []
    for op in ops:
        parts = [
            repr(sorted(map(repr, oracle.triple(a))))
            if hasattr(a, "binary_facts")
            else repr(a)
            for a in op.args
        ]
        out.append(f"{op.kind}:{op.name}:" + "|".join(parts))
    return out


def run_op(op: Op, state: dict):
    """Execute one op in a fresh memory-only session; returns plain
    data for the output checks.  With a ``"hom_cache"`` entry in
    ``state`` (traced runs), the session's hom-cache counters are
    added to it."""
    from repro import EngineConfig, Session, set_default_session
    from repro.ditree.classify import classify_disjoint, classify_plain
    from repro.ditree.structure import DitreeCQ

    with Session(EngineConfig(workers=0)) as session:
        # The classifiers call the free hom functions, which run in
        # the default session: make it this op's session.
        previous = set_default_session(session)
        try:
            if op.kind == "classify":
                cq = DitreeCQ.from_structure(op.args[0])
                result = (
                    classify_plain(cq).complexity.name,
                    classify_disjoint(cq).complexity.name,
                )
            elif op.kind == "dsirup":
                q, data, strategy = op.args
                result = session.evaluate_dsirup(q, data, strategy).certain
            elif op.kind == "thm7":
                result = session.certain_answer(op.args[0], op.args[1])
                if not isinstance(result, bool):
                    raise RuntimeError(f"certain answer {result!r}")
            else:
                decision = session.decide_boundedness(op.args[0])
                result = (decision.bounded, decision.method.name)
        finally:
            set_default_session(previous)
            stats = state.get("hom_cache")
            if stats is not None:
                info = session.hom_cache_info()
                stats["hits"] += info.hits
                stats["misses"] += info.misses
    return result


def keep(op: Op, result, state: dict):
    """The op output the checks need (all of it)."""
    return result


def _probe_bounded(q, depth: int) -> bool:
    from repro import EngineConfig, Session
    from repro.core.boundedness import Verdict
    from repro.core.cq import OneCQ

    with Session(EngineConfig(workers=0)) as session:
        probe = session.probe_boundedness(OneCQ.from_structure(q), depth)
    return probe.verdict is Verdict.BOUNDED


def check(ops: list[Op], results: list) -> tuple[list[str], dict[int, str]]:
    """Output checks against the paper and the reference computations.
    Returns one message per wrong answer, and the ops that hit the
    known fault (``KNOWN_FAULT``) with their message: those count as
    failed ops.  ``None`` results (ops that raised) are skipped."""
    from repro.ditree.structure import is_minimal

    errors: list[str] = []
    faults: dict[int, str] = {}
    probed: dict[tuple[str, str], bool] = {}  # fixed inputs recur per round
    for i, (op, result) in enumerate(zip(ops, results)):
        if result is None:
            continue
        where = f"op {i} {op.kind}:{op.name}"
        if op.kind == "decide_zoo":
            if result[0] is not ZOO_BOUNDED[op.name]:
                errors.append(f"{where}: bounded={result[0]}, paper says "
                              f"{ZOO_BOUNDED[op.name]}")
        elif op.kind.startswith("decide_"):
            # A probe certificate of BOUNDED is sound; a probe that
            # stops at depth 3 without one proves nothing.
            if result[0]:
                continue
            key = (op.kind, op.name)
            if key not in probed:
                probed[key] = _probe_bounded(op.args[0], 3)
            if probed[key]:
                message = (f"{where}: {result[1]} says not FO-rewritable, "
                           "the probe certifies BOUNDED")
                if key == KNOWN_FAULT:
                    faults[i] = message
                else:
                    errors.append(message)
        elif op.kind == "classify":
            plain, disjoint = result
            q = op.args[0]
            if plain not in ("AC0", "L", "NL"):
                errors.append(f"{where}: Theorem 11 class {plain}")
            if disjoint not in ("AC0", "L_HARD", "NL_HARD"):
                errors.append(f"{where}: Corollary 8 class {disjoint}")
            if oracle.has_twin(oracle.triple(q)) and disjoint != "AC0":
                errors.append(f"{where}: FT-twin but Corollary 8 says {disjoint}")
            # Theorem 11 assumes a minimal CQ.
            if plain != "AC0" and is_minimal(q) and _probe_bounded(q, 3):
                errors.append(f"{where}: probe certifies BOUNDED on a "
                              f"minimal CQ, Theorem 11 says {plain}")
        elif op.kind == "dsirup":
            q, data, _ = op.args
            expected = oracle.certain_by_completions(
                oracle.triple(q), oracle.triple(data)
            )
            if result is not expected:
                errors.append(f"{where}: certain={result}, completions "
                              f"say {expected}")
        elif op.kind == "thm7":
            _, _, edges, source, target = op.args
            expected = oracle.reachable(edges, source, target)
            if result is not expected:
                errors.append(f"{where}: certain={result}, reachability "
                              f"says {expected}")
    return errors, faults
