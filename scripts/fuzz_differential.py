#!/usr/bin/env python
"""Differential fuzzer: all hom backends + serial-vs-parallel agreement.

Draws seeded random (query, target) pairs from the workload generators
and cross-checks every answer four ways:

* **Backend agreement** — ``has_homomorphism`` must answer identically
  under ``naive`` (the correctness oracle), ``bitset``, ``matrix``
  (silently the bitset fallback without numpy) and ``decomp``.
* **Count agreement** — on small targets, ``count_homomorphisms``
  must agree between ``naive``, ``bitset`` and ``decomp``.
* **Constrained agreement** — for about two cases in five, a drawn
  ``seed``, ``restrict_image``, ``forbid`` and/or ``node_domains``
  (the constraints the candidate masks decide, seeds into nodes that
  may lack a query node's labels, predicates or self-loops included)
  must give the same ``has_homomorphism`` answer under every backend,
  and on small targets the same ``count_homomorphisms``.
* **Serial vs parallel** — ``parallel_evaluate_batch`` over a sharded
  2-worker pool must reproduce the serial ``evaluate_batch`` answers
  bit-for-bit, and ``parallel_screen`` must reproduce the per-query
  serial sweeps.
* **Governed sanity** — a fuel-starved governed session must return
  only UNKNOWN or answers identical to the oracle, never a wrong
  known answer.
* **Semiring agreement** — on small targets the unified evaluation
  surface must be consistent with the classic answers: COUNT through
  every backend equals the naive count, BOOL-as-semiring equals
  ``has_homomorphism``, MINPLUS is finite iff a homomorphism exists,
  and weighted PROB agrees across the enumeration, decomp-DP and
  matrix-matvec routes.
* **Probe agreement** — every 20th case also draws a random 1-CQ of
  span 1 or 2 (a Λ-CQ, or for span 1 a ditree CQ whose solitary pair
  may be comparable) and runs the Proposition 2 probe,
  ``probe_boundedness``, with ``require_focus`` False and True, under
  the default configuration and under the ``naive`` backend, and for
  span 1 also with ``probe_warmstart=False`` (the batch coverage path
  instead of the warm-started DP).  Verdict, ``depth``,
  ``cactuses_examined``, ``uncovered`` and ``reason`` must agree.
  Span-1 queries are probed at depth 2 or 3; span-2 queries at depth
  2, since one depth-3 span-2 probe (676 cactuses) takes the naive
  oracle about 12 s.
* **Durable-store agreement** (``--cache-dir``) — every 40 cases a
  disk-backed session screens the recent (query, target) pairs, is
  closed and reopened, and screens them again: the second screens must
  be answered from the ``ckpt:`` rows the first ones wrote (no new
  rows).  Then a ``decomp`` check of each pair, on fresh copies with
  the process-wide plan intern emptied, must read the query plans from
  the store's ``plan`` rows.  Every answer must match the oracle, and
  the run ends with a full checksum sweep of the store (``verify``
  must drop 0).

The query rotation includes hostile treewidth-3 k-tree CQs and the
target rotation includes dense multigraph instances (parallel edges
under several predicates plus self-loops) — the adversarial families
from ``repro.workloads.generators``.

Any disagreement prints a self-contained repro (the case seed and the
wire forms of query and target) and exits 1; a clean run prints a
summary and exits 0.  The run is fully determined by ``--seed``, so CI
failures replay locally with the same arguments.

Usage::

    python scripts/fuzz_differential.py [--seed N] [--cases N]
                                        [--seconds S] [--workers N]
                                        [--cache-dir DIR]

``--seconds`` is a soft wall-clock cap: the loop stops early (still
exit 0) once exceeded, so the CI smoke job stays within its budget.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import EngineConfig, ResourceExhausted, Session  # noqa: E402
from repro.core.cq import OneCQ, is_one_cq  # noqa: E402
from repro.core.decomp import clear_plan_intern  # noqa: E402
from repro.core.runtime import (  # noqa: E402
    from_wire,
    parallel_evaluate_batch,
    parallel_screen,
    to_wire,
)
from repro.workloads.generators import (  # noqa: E402
    block_dag_instance,
    dense_multigraph_instance,
    random_ditree_cq,
    random_instance,
    random_ktree_cq,
    random_lambda_cq,
)

BACKENDS = ("naive", "bitset", "matrix", "decomp")

# One probe case per this many hom cases (see "Probe agreement").
PROBE_EVERY = 20


def draw_query(rng: random.Random):
    """A small random query: ditree CQs, Λ-CQs, treewidth-3 k-tree CQs
    and dense digraph CQs in rotation, so the sweep hits the
    tree-shaped decomp fast path, the min-fill fallback (k-trees sit
    past the exact-decomposition range) and the cyclic general case."""
    kind = rng.randrange(4)
    seed = rng.randrange(1 << 30)
    if kind == 0:
        q = random_ditree_cq(rng.randint(3, 6), seed)
        if q is not None:
            return q
    if kind == 1:
        q = random_lambda_cq(rng.randint(3, 6), seed, span=rng.randint(1, 2))
        if q is not None:
            return q
    if kind == 2:
        return random_ktree_cq(rng.randint(5, 6), seed)
    n = rng.randint(2, 5)
    return random_instance(n, rng.randint(n, 2 * n), seed)


def draw_target(rng: random.Random):
    seed = rng.randrange(1 << 30)
    shape = rng.randrange(5)
    if shape == 0:
        return block_dag_instance(rng.randint(8, 24), rng.randint(3, 5), seed)
    if shape == 1:
        return dense_multigraph_instance(rng.randint(6, 14), seed)
    n = rng.randint(4, 28)
    return random_instance(n, rng.randint(n, 3 * n), seed)


def draw_constraints(rng: random.Random, query, target) -> dict:
    """Hom-call constraints for about two cases in five (empty
    otherwise): each of a one-node seed, an image restriction, a
    forbidden set and a one-node domain is drawn on its own.  The
    domain goes to the seeded node half the time, so a seed can meet
    ``forbid`` and ``node_domains`` as well as missing labels,
    predicates or self-loops at its image."""
    q_nodes = sorted(query.nodes, key=repr)
    t_nodes = sorted(target.nodes, key=repr)
    if not q_nodes or not t_nodes or rng.random() >= 0.4:
        return {}

    def subset(k_max: int) -> frozenset:
        return frozenset(rng.sample(t_nodes, rng.randint(1, k_max)))

    seeded = rng.choice(q_nodes)
    constraints: dict = {}
    if rng.random() < 0.6:
        constraints["seed"] = {seeded: rng.choice(t_nodes)}
    if rng.random() < 0.3:
        constraints["restrict_image"] = subset(len(t_nodes))
    if rng.random() < 0.3:
        constraints["forbid"] = subset(max(1, len(t_nodes) // 3))
    if rng.random() < 0.3:
        x = seeded if rng.random() < 0.5 else rng.choice(q_nodes)
        constraints["node_domains"] = {x: subset(len(t_nodes))}
    return constraints


def draw_probe(rng: random.Random) -> tuple[OneCQ, int]:
    """A random 1-CQ of span 1 or 2 and the depth to probe it at."""
    span = rng.choice((1, 2))
    while True:
        n = rng.randint(4, 7)
        seed = rng.randrange(1 << 30)
        if span == 1 and rng.random() < 0.5:
            q = random_ditree_cq(n, seed)
        else:
            q = random_lambda_cq(n, seed, span)
        if q is not None and is_one_cq(q):
            one_cq = OneCQ.from_structure(q)
            if len(one_cq.solitary_ts) == span:
                return one_cq, rng.choice((2, 3)) if span == 1 else 2


def probe_round(case_seed: int, probe_sessions: dict) -> str | None:
    """One probe-agreement case; a description of the disagreement,
    or ``None`` when every configuration agrees."""
    one_cq, depth = draw_probe(random.Random(case_seed + 2))
    names = ["default", "naive"]
    if len(one_cq.solitary_ts) == 1:
        names.append("batch")
    for require_focus in (False, True):
        got = {}
        for name in names:
            r = probe_sessions[name].probe_boundedness(
                one_cq, depth, require_focus=require_focus
            )
            got[name] = (
                r.verdict, r.depth, r.cactuses_examined, r.uncovered,
                r.reason,
            )
        if len(set(got.values())) != 1:
            return (
                f"depth={depth} require_focus={require_focus} "
                f"query={to_wire(one_cq.query)!r}: {got!r}"
            )
    return None


def report(case_seed: int, what: str, query, target, detail: str) -> None:
    print(f"DISAGREEMENT in {what} (case seed {case_seed}): {detail}")
    print(f"  query wire:  {to_wire(query)!r}")
    print(f"  target wire: {to_wire(target)!r}")


def _ckpt_rows(store) -> int:
    return sum(n for ns, n in store.stats().namespaces if ns.startswith("ckpt:"))


def durable_round(durable, reopen, replay, screened: set):
    """Screen every replayed pair, reopen the store, screen them again
    from its ``ckpt:`` rows, then check each pair under ``decomp`` with
    the query plans read back from its ``plan`` rows.  ``screened``
    holds the fingerprint pairs of every earlier round.  Returns the
    reopened session and ``None``, or the first failure as ``(what,
    query, target, detail)``."""

    def screens(what):
        for rq, rt, want in replay:
            got = durable.screen([rq], [rt])[0][0]
            if got != want:
                return what, rq, rt, f"screen={got!r} oracle={want!r}"
        return None

    rq, rt, _ = replay[0]
    rows = _ckpt_rows(durable.store)
    failure = screens("durable-store screen")
    if failure is not None:
        return durable, failure
    # A one-pair screen checkpoints one row, in a namespace of its own.
    new = {(q.fingerprint, t.fingerprint) for q, t, _ in replay} - screened
    screened |= new
    if _ckpt_rows(durable.store) - rows != len(new):
        return durable, (
            "durable-store screen", rq, rt,
            f"{_ckpt_rows(durable.store) - rows} checkpoint rows written "
            f"for {len(new)} new pairs",
        )
    durable.close()
    durable = reopen()
    writes = durable.store.stats().writes
    failure = screens("durable-store checkpoint replay")
    if failure is not None:
        return durable, failure
    if durable.store.stats().writes != writes:
        return durable, (
            "durable-store checkpoint replay", rq, rt,
            "the replayed screens wrote rows: they were recomputed",
        )
    # Fresh copies carry no compiled plan, and the intern is empty, so
    # decomp_plan must read each query's plan from the store.
    clear_plan_intern()
    hits = durable.store.stats().hits
    for rq, rt, want in replay:
        got = durable.has_homomorphism(
            from_wire(to_wire(rq)), from_wire(to_wire(rt)), backend="decomp"
        )
        if got != want:
            return durable, (
                "durable-store decomp with stored plans", rq, rt,
                f"decomp={got!r} oracle={want!r}",
            )
    read = durable.store.stats().hits - hits
    distinct = len({q.fingerprint for q, _, _ in replay})
    if read < distinct:
        return durable, (
            "durable-store decomp with stored plans", rq, rt,
            f"{read} plan rows read for {distinct} distinct queries",
        )
    return durable, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the durable-store leg: every 40 cases a disk-backed "
        "session screens the recent pairs, is reopened, and answers them "
        "again from its checkpoint and plan rows",
    )
    args = ap.parse_args()

    rng = random.Random(args.seed)
    started = time.monotonic()
    sessions = {
        b: Session(EngineConfig(backend=b)) for b in BACKENDS
    }
    oracle = sessions["naive"]
    governed = Session(EngineConfig(backend="bitset", hom_fuel=200))
    parallel = Session(
        EngineConfig(backend="bitset", workers=args.workers, parallel_min=8)
    )
    serial = Session(EngineConfig(backend="bitset", workers=1))
    probe_sessions = {
        "default": Session(EngineConfig()),
        "naive": Session(EngineConfig(backend="naive")),
        "batch": Session(EngineConfig(probe_warmstart=False)),
    }

    def fresh_durable():
        return Session(
            EngineConfig(backend="bitset", cache_dir=args.cache_dir)
        )

    durable = fresh_durable() if args.cache_dir else None
    replay: list = []  # (query, target, oracle answer) since last reopen
    screened: set = set()  # fingerprint pairs the durable leg screened

    checks = 0
    cases = 0
    probe_cases = 0
    batch_queries: list = []
    batch_targets: list = []
    for case in range(args.cases):
        if args.seconds is not None and (
            time.monotonic() - started > args.seconds
        ):
            print(f"time cap hit after {cases} cases")
            break
        case_seed = rng.randrange(1 << 30)
        case_rng = random.Random(case_seed)
        query = draw_query(case_rng)
        target = draw_target(case_rng)
        cases += 1

        answers = {
            b: sessions[b].has_homomorphism(query, target) for b in BACKENDS
        }
        checks += len(BACKENDS)
        if len(set(answers.values())) != 1:
            report(case_seed, "has_homomorphism", query, target, repr(answers))
            return 1

        # Drawn from a stream of its own, so the other legs see the
        # same cases as without this one.
        constraints = draw_constraints(
            random.Random(case_seed + 1), query, target
        )
        if constraints:
            got = {
                b: sessions[b].has_homomorphism(query, target, **constraints)
                for b in BACKENDS
            }
            checks += len(BACKENDS)
            if len(set(got.values())) != 1:
                report(
                    case_seed, "constrained has_homomorphism", query,
                    target, f"{constraints!r}: {got!r}",
                )
                return 1
            if len(target.nodes) <= 12:
                got = {
                    b: sessions[b].count_homomorphisms(
                        query, target, **constraints
                    )
                    for b in BACKENDS
                }
                checks += len(BACKENDS)
                if len(set(got.values())) != 1:
                    report(
                        case_seed, "constrained count_homomorphisms",
                        query, target, f"{constraints!r}: {got!r}",
                    )
                    return 1

        if len(target.nodes) <= 12:
            counts = {
                b: sessions[b].count_homomorphisms(query, target)
                for b in ("naive", "bitset", "decomp")
            }
            checks += 3
            if len(set(counts.values())) != 1:
                report(
                    case_seed, "count_homomorphisms", query, target,
                    repr(counts),
                )
                return 1

            # Semiring surface: COUNT through every backend must equal
            # the legacy count; BOOL-as-semiring must equal
            # has_homomorphism; MINPLUS is finite iff a hom exists.
            sr_counts = {
                b: oracle.evaluate(query, target, "count", backend=b).value
                for b in BACKENDS
            }
            checks += len(BACKENDS)
            if set(sr_counts.values()) != {counts["naive"]}:
                report(
                    case_seed, "semiring COUNT", query, target,
                    f"legacy={counts['naive']} surface={sr_counts!r}",
                )
                return 1
            sr_bool = oracle.evaluate(query, target, "bool").value
            sr_min = oracle.evaluate(query, target, "minplus").value
            checks += 2
            if sr_bool is not answers["naive"]:
                report(
                    case_seed, "semiring BOOL", query, target,
                    f"bool-semiring={sr_bool!r} oracle={answers['naive']!r}",
                )
                return 1
            if (sr_min != math.inf) != answers["naive"]:
                report(
                    case_seed, "semiring MINPLUS", query, target,
                    f"minplus={sr_min!r} oracle={answers['naive']!r}",
                )
                return 1

            # Weighted PROB: the enumeration fold, the decomp bag DP
            # and the matrix matvec must agree on a tuple-independent
            # annotation (dyadic weights keep float sums exact).
            probs = {
                f: case_rng.choice((0.25, 0.5, 1.0))
                for f in target.binary_facts
            }
            vals = {
                b: oracle.evaluate(
                    query, target, "prob", weights=probs, backend=b
                ).value
                for b in ("bitset", "decomp", "matrix")
            }
            want_prob = oracle.evaluate(
                query, target, "prob", weights=probs, backend="naive"
            ).value
            checks += 3
            if not all(
                math.isclose(v, want_prob, rel_tol=1e-9, abs_tol=1e-12)
                for v in vals.values()
            ):
                report(
                    case_seed, "semiring PROB", query, target,
                    f"naive={want_prob!r} others={vals!r}",
                )
                return 1

        if durable is not None:
            replay.append((query, target, answers["naive"]))
            if len(replay) == 40:
                durable, failure = durable_round(
                    durable, fresh_durable, replay, screened
                )
                checks += 3 * len(replay)
                if failure is not None:
                    what, rq, rt, detail = failure
                    report(case_seed, what, rq, rt, detail)
                    return 1
                replay.clear()

        if case % PROBE_EVERY == 0:
            failure = probe_round(case_seed, probe_sessions)
            probe_cases += 1
            checks += 1
            if failure is not None:
                print(f"DISAGREEMENT (case seed {case_seed}): probe")
                print(f"  {failure}")
                return 1

        # A bare governed engine call raises on exhaustion; any answer
        # it *does* return must match the oracle.
        try:
            g = governed.has_homomorphism(query, target)
        except ResourceExhausted:
            g = None
        checks += 1
        if isinstance(g, bool) and g != answers["naive"]:
            report(
                case_seed, "governed has_homomorphism", query, target,
                f"governed={g!r} oracle={answers['naive']!r}",
            )
            return 1

        batch_queries.append(query)
        batch_targets.append(target)
        if len(batch_targets) >= 24:
            q = batch_queries[0]
            want = serial.evaluate_batch(q, batch_targets)
            got = parallel_evaluate_batch(
                q, batch_targets, session=parallel, min_batch=8
            )
            checks += len(batch_targets)
            if got != want:
                report(
                    case_seed, "parallel_evaluate_batch", q,
                    batch_targets[0],
                    f"serial={want!r} parallel={got!r}",
                )
                return 1
            screen_queries = batch_queries[:3]
            want_rows = [
                serial.evaluate_batch(sq, batch_targets)
                for sq in screen_queries
            ]
            got_rows = parallel_screen(
                screen_queries, batch_targets, session=parallel, min_batch=8
            )
            checks += len(screen_queries) * len(batch_targets)
            if got_rows != want_rows:
                report(
                    case_seed, "parallel_screen", screen_queries[0],
                    batch_targets[0],
                    f"serial={want_rows!r} parallel={got_rows!r}",
                )
                return 1
            batch_queries.clear()
            batch_targets.clear()

    if durable is not None:
        store = durable.store
        if store is not None:
            checked, dropped = store.verify()
            print(f"store verify: {checked} entries checked, {dropped} dropped")
            if dropped:
                print("durable store verify dropped corrupt rows")
                return 1
        durable.close()

    for s in (
        *sessions.values(), *probe_sessions.values(), governed, parallel,
        serial,
    ):
        s.close()
    elapsed = time.monotonic() - started
    print(
        f"ok: {cases} cases ({probe_cases} probe cases), {checks} "
        f"cross-checks, 0 disagreements in {elapsed:.1f}s (seed {args.seed})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
