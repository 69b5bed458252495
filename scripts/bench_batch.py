#!/usr/bin/env python
"""Benchmark harness: the matrix backend and the sharded batch runtime.

Two perf surfaces introduced by the matrix-semiring/runtime PR, seeded
into ``BENCH_batch.json`` at the repo root:

* **Backend duel** — ``bitset`` vs ``matrix`` per-check times on large
  random targets (n >= 200, edge-rich), over propagation-heavy queries
  (unlabelled paths and ditrees, where arc consistency dominates and
  the dense boolean-semiring matvec replaces per-candidate Python
  loops).  A mixed labelled query is recorded as extra information but
  not gated: on label-pruned domains the bitset backend's tiny
  constants win, which is exactly why ``bitset`` stays the default.
* **Shard executor** — serial vs sharded batch evaluation on
  ``workloads.instance_family`` screening at 4 workers: the gated
  ``evaluate_batch`` shape is the multi-query screen
  (:func:`repro.core.runtime.parallel_screen`, which amortises the
  per-instance wire/rebuild cost over the query pool — the zoo
  bulk-classification traffic), plus sharded ``covers_any`` and the
  small-batch serial fallback (which must not regress).  The
  single-query ``evaluate_batch`` sharding is recorded as information:
  it is rebuild-bound by design and stays near break-even.

Criteria are *hardware-aware*: the matrix criterion is enforced only
when numpy is installed (without it the backend falls back to bitset
and the duel is vacuous), and the sharding criterion only on machines
with >= 4 CPUs (the workers would otherwise time-slice one core).
Skipped criteria are recorded as skipped, never silently passed.

Usage::

    python scripts/bench_batch.py [--check] [--output PATH] [--rounds N]

``--check`` exits non-zero unless every *enforced* criterion holds:
matrix >= 2x geomean over bitset on the large-target suite, sharded
>= 2x geomean over serial at 4 workers, small-batch fallback within
noise of the serial path.
"""

from __future__ import annotations

import os
import sys

import benchlib
from benchlib import best_time, criterion, geomean, unlabelled_ditree

from repro import EngineConfig, Session
from repro.core import runtime
from repro.core.homengine import (
    covers_any,
    evaluate_batch,
    has_homomorphism,
    matrix_backend_available,
)
from repro.core.runtime import (
    parallel_covers_any,
    parallel_evaluate_batch,
    parallel_screen,
)
from repro.core.structure import path_structure
from repro.workloads.generators import (
    block_dag_instance,
    instance_family,
    random_instance,
)

# Measure the rebuild, not the worker-side structure cache: every
# worker rebuilds its chunk from the wire in every round.  The workers
# are forked from this process after this line, so they inherit the
# disabled cache.
runtime.WORKER_CACHE_SIZE = 0

MIN_MATRIX_GEOMEAN = 2.0
MIN_SHARDED_GEOMEAN = 2.0
SHARD_WORKERS = 4
# The serial-fallback path is the serial path plus one length check;
# anything beyond scheduler noise would be a wiring bug.
MAX_FALLBACK_RATIO = 1.35

TARGET_LABELS = {"T": 1, "F": 1, "": 20, "A": 2, "FT": 0}


# Propagation-heavy queries: domains start near-full, so AC-3 and
# forward checking dominate — the regime the dense backend targets.
GATED_QUERIES = [
    ("path8", path_structure([""] * 8)),
    ("path12", path_structure([""] * 12)),
    ("tree10", unlabelled_ditree(10, 1)),
    ("tree14", unlabelled_ditree(14, 2)),
]
# Label-pruned mixed query: recorded, not gated (bitset's home turf).
INFO_QUERIES = [
    ("labpath10", path_structure(["T"] + [""] * 8 + ["F"])),
]

LARGE_TARGETS = [
    # (name, n, edges)
    ("n200_e4n", 200, 800),
    ("n300_e4n", 300, 1200),
    ("n300_e8n", 300, 2400),
    ("n500_e6n", 500, 3000),
]


def bench_backend_duel(rounds: int) -> dict:
    checks = {}
    gated_speedups = []
    info_speedups = []
    for tname, n, edges in LARGE_TARGETS:
        target = random_instance(
            n, edges, seed=7, preds=("R",), label_weights=TARGET_LABELS
        )
        for gated, queries in ((True, GATED_QUERIES), (False, INFO_QUERIES)):
            for qname, q in queries:
                times = {}
                for backend in ("bitset", "matrix"):
                    times[backend] = best_time(
                        lambda b=backend: has_homomorphism(q, target, backend=b),
                        rounds,
                    )
                speedup = times["bitset"] / times["matrix"]
                (gated_speedups if gated else info_speedups).append(speedup)
                checks[f"{tname}/{qname}"] = {
                    "bitset_s": times["bitset"],
                    "matrix_s": times["matrix"],
                    "speedup": speedup,
                    "gated": gated,
                }
                print(
                    f"[bench_batch] {tname}/{qname}: "
                    f"bitset {times['bitset'] * 1e3:.2f}ms, "
                    f"matrix {times['matrix'] * 1e3:.2f}ms "
                    f"({speedup:.2f}x{'' if gated else ', info-only'})"
                )
    return {
        "checks": checks,
        "geomean_speedup_gated": geomean(gated_speedups),
        "min_speedup_gated": min(gated_speedups),
        "geomean_speedup_info": geomean(info_speedups),
    }


def bench_sharding(rounds: int) -> dict:
    # The bulk-classification shape: a pool of queries screened over
    # one family of large random instances.  Sharding by instances and
    # answering every query per chunk amortises the per-instance
    # wire/rebuild cost over the query pool, so worker search time
    # dominates and the shards scale.
    family = instance_family(
        32, 400, 1600, seed=13, label_weights=TARGET_LABELS
    )
    screen_queries = [
        path_structure([""] * 8),
        path_structure([""] * 12),
        unlabelled_ditree(10, 5),
        path_structure(["T"] + [""] * 8 + [""]),
    ]
    single_query = path_structure([""] * 12)
    # covers_any: every source is an unlabelled 11-node path, the
    # target's longest walk has 7 edges — each check runs the full AC-3
    # refutation and the scan can never early-exit.
    target = block_dag_instance(400, 8, seed=21)
    sources = [
        path_structure([""] * 11, prefix=f"s{i}") for i in range(96)
    ]

    serial_screen = best_time(
        lambda: [evaluate_batch(q, family) for q in screen_queries], rounds
    )
    serial_eval = best_time(
        lambda: evaluate_batch(single_query, family), rounds
    )
    serial_covers = best_time(lambda: covers_any(target, sources), rounds)

    shard = Session(EngineConfig(workers=SHARD_WORKERS, parallel_min=8))
    # Warm the pool (fork + import cost is a one-time amortised spawn,
    # not per-batch latency) and verify agreement while at it.
    agreement = parallel_screen(
        screen_queries, family, workers=SHARD_WORKERS, session=shard
    ) == [evaluate_batch(q, family) for q in screen_queries]
    agreement = agreement and parallel_evaluate_batch(
        single_query, family, workers=SHARD_WORKERS, session=shard
    ) == evaluate_batch(single_query, family)
    pool_ok = shard.pool_info().running and not shard.pool_info().broken
    sharded_screen = best_time(
        lambda: parallel_screen(
            screen_queries, family, workers=SHARD_WORKERS, session=shard
        ),
        rounds,
    )
    sharded_eval = best_time(
        lambda: parallel_evaluate_batch(
            single_query, family, workers=SHARD_WORKERS, session=shard
        ),
        rounds,
    )
    sharded_covers = best_time(
        lambda: parallel_covers_any(
            target, sources, workers=SHARD_WORKERS, session=shard
        ),
        rounds,
    )

    # Small-batch fallback: below min_batch the parallel entry points
    # must route straight to the serial path.
    small = family[:6]
    serial_small = best_time(
        lambda: evaluate_batch(single_query, small), rounds
    )
    fallback_small = best_time(
        lambda: parallel_evaluate_batch(
            single_query, small, min_batch=24, session=shard
        ),
        rounds,
    )
    shard.close()

    screen_speedup = serial_screen / sharded_screen
    eval_speedup = serial_eval / sharded_eval
    covers_speedup = serial_covers / sharded_covers
    print(
        f"[bench_batch] screen {len(screen_queries)}q x {len(family)}i: "
        f"serial {serial_screen * 1e3:.1f}ms, "
        f"sharded {sharded_screen * 1e3:.1f}ms ({screen_speedup:.2f}x)"
    )
    print(
        f"[bench_batch] evaluate_batch 1q x {len(family)}i: "
        f"serial {serial_eval * 1e3:.1f}ms,"
        f" sharded {sharded_eval * 1e3:.1f}ms "
        f"({eval_speedup:.2f}x, info-only: rebuild-bound)"
    )
    print(
        f"[bench_batch] covers_any x{len(sources)}: "
        f"serial {serial_covers * 1e3:.1f}ms, "
        f"sharded {sharded_covers * 1e3:.1f}ms ({covers_speedup:.2f}x)"
    )
    print(
        f"[bench_batch] small-batch fallback: serial "
        f"{serial_small * 1e6:.0f}us, via parallel API "
        f"{fallback_small * 1e6:.0f}us "
        f"({fallback_small / serial_small:.2f}x)"
    )
    return {
        "workers": SHARD_WORKERS,
        "pool_available": pool_ok,
        "parallel_agrees_with_serial": agreement,
        "screen": {
            "queries": len(screen_queries),
            "family": {"count": 32, "n": 400, "edges": 1600},
            "serial_s": serial_screen,
            "sharded_s": sharded_screen,
            "speedup": screen_speedup,
        },
        "evaluate_batch_single_query_info": {
            "family": {"count": 32, "n": 400, "edges": 1600},
            "serial_s": serial_eval,
            "sharded_s": sharded_eval,
            "speedup": eval_speedup,
        },
        "covers_any": {
            "batch": {"count": 96, "target": "block_dag_instance(400, 8)"},
            "serial_s": serial_covers,
            "sharded_s": sharded_covers,
            "speedup": covers_speedup,
        },
        "geomean_speedup": geomean([screen_speedup, covers_speedup]),
        "small_batch": {
            "serial_s": serial_small,
            "fallback_s": fallback_small,
            "ratio": fallback_small / serial_small,
        },
    }


def main() -> int:
    args = benchlib.parser(__doc__, "BENCH_batch.json", rounds=5).parse_args()

    cpus = os.cpu_count() or 1
    matrix_ok = matrix_backend_available()

    duel = bench_backend_duel(args.rounds)
    shard = bench_sharding(args.rounds)

    print(
        f"  matrix geomean speedup {duel['geomean_speedup_gated']:.2f}x "
        f"gated (min {duel['min_speedup_gated']:.2f}x, "
        f"info {duel['geomean_speedup_info']:.2f}x)"
    )
    print(
        f"  sharded geomean speedup {shard['geomean_speedup']:.2f}x at "
        f"{SHARD_WORKERS} workers ({cpus} CPUs)"
    )
    shard_ok = cpus >= SHARD_WORKERS and shard["pool_available"]
    criteria = {
        "matrix_geomean_speedup_ge_2x": criterion(
            duel["geomean_speedup_gated"],
            duel["geomean_speedup_gated"] >= MIN_MATRIX_GEOMEAN,
            None if matrix_ok else "numpy not installed "
            "(matrix backend runs the bitset fallback)",
        ),
        "sharded_geomean_speedup_ge_2x_at_4_workers": criterion(
            shard["geomean_speedup"],
            shard["geomean_speedup"] >= MIN_SHARDED_GEOMEAN,
            None if shard_ok
            else f"needs >= {SHARD_WORKERS} CPUs and process support "
            f"(have {cpus} CPUs, pool_available="
            f"{shard['pool_available']})",
        ),
        "parallel_agrees_with_serial": criterion(
            shard["parallel_agrees_with_serial"],
            shard["parallel_agrees_with_serial"],
        ),
        "small_batch_fallback_no_regression": criterion(
            shard["small_batch"]["ratio"],
            shard["small_batch"]["ratio"] <= MAX_FALLBACK_RATIO,
        ),
    }

    report = {
        "description": (
            "Matrix backend vs bitset on large random targets (gated: "
            "propagation-heavy queries; info: label-pruned), and serial "
            "vs sharded batch evaluation at 4 workers on "
            "instance_family screening; times are best-of-rounds wall "
            "clock"
        ),
        "cpu_count": cpus,
        "matrix_backend_available": matrix_ok,
        "rounds": args.rounds,
        "backend_duel": duel,
        "sharding": shard,
        "criteria": criteria,
    }
    return benchlib.finish("bench_batch", report, args)


if __name__ == "__main__":
    sys.exit(main())
