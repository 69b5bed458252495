#!/usr/bin/env python
"""Benchmark harness: the decomp backend and the delta warm-started probe.

Two perf surfaces introduced by the structural-hom PR, seeded into
``BENCH_decomp.json`` at the repo root:

* **Backend duel** — ``decomp`` vs the *best* of ``bitset``/``matrix``
  per check on treewidth-1 query workloads (unlabelled paths and
  ditrees plus a label-pruned path) over large targets: a labelled
  random instance, a sparse labelled instance, and a block-DAG whose
  longest walk is shorter than the path queries (every check is a full
  refutation — the regime where AC-3 re-enqueueing hurts the
  backtrackers most, while the decomp DP does exactly one directional
  semijoin pass per query edge).  Unlabelled queries on the *dense*
  target are recorded as extra information but not gated: dense
  edge-rich targets with numpy are the matrix backend's measured home
  turf, which is exactly why ``backend="auto"`` keeps routing that
  corner to matrix (``config.AUTO_DECOMP_MAX_EDGES_PER_NODE``).
* **Delta warm-started probe** — an E3-style increasing-depth
  boundedness probe on a span-1 chain query (one cactus per depth, each
  extending the previous by a recorded delta).  The warm-started probe
  (``EngineConfig.probe_warmstart``, default) reuses the previous
  depth's per-bag satisfying sets and re-propagates only what the delta
  touched; the baseline re-solves every coverage check from scratch
  through the default engine path.

Criteria are *hardware-aware* in the same sense as the sibling
harnesses: both workloads are pure python and serial, so both criteria
are enforced everywhere — but the duel's "best other backend" includes
the dense matrix path only when numpy is installed, and that is
recorded rather than silently assumed.

Usage::

    python scripts/bench_decomp.py [--check] [--output PATH] [--rounds N]

``--check`` exits non-zero unless every criterion holds: decomp >= 2x
geomean over the best of bitset/matrix on the treewidth-1 suite, and
the warm-started probe >= 1.5x over the cold probe.
"""

from __future__ import annotations

import os
import sys

import benchlib
from benchlib import best_time, chain_query, criterion, geomean, unlabelled_ditree
from repro.core.config import EngineConfig
from repro.core.cq import OneCQ
from repro.core.boundedness import probe_boundedness
from repro.core.homengine import (
    has_homomorphism,
    matrix_backend_available,
)
from repro.core.structure import path_structure
from repro.session import Session
from repro.workloads.generators import (
    block_dag_instance,
    random_instance,
)

MIN_DECOMP_GEOMEAN = 2.0
MIN_WARM_SPEEDUP = 1.5

TARGET_LABELS = {"T": 1, "F": 1, "": 20, "A": 2, "FT": 0}


# Treewidth-1 queries (the gated workload of the ISSUE): unlabelled
# paths and ditrees, plus one label-pruned path.
PATH_QUERIES = [
    ("path8", path_structure([""] * 8)),
    ("path12", path_structure([""] * 12)),
    ("tree10", unlabelled_ditree(10, 1)),
    ("tree14", unlabelled_ditree(14, 2)),
]
LABELLED_QUERIES = [
    ("labpath10", path_structure(["T"] + [""] * 8 + ["F"])),
]

PROBE_INTERIOR = 4
PROBE_DEPTH = 14


def large_targets():
    return [
        # (name, target, include_labelled_queries, dense)
        (
            "rand_n500_e6n",
            random_instance(
                500, 3000, seed=7, preds=("R",), label_weights=TARGET_LABELS
            ),
            True,
            True,  # 6 edges/node: matrix home turf, unlabelled = info
        ),
        (
            "rand_n1000_e3n",
            random_instance(
                1000, 3000, seed=9, preds=("R",), label_weights=TARGET_LABELS
            ),
            True,
            False,
        ),
        # Longest walk: 7 edges < path8/path12 — pure refutation, the
        # covers_any shape of the boundedness probe.
        (
            "blockdag_n1200",
            block_dag_instance(1200, 8, seed=21),
            False,
            False,
        ),
    ]


def bench_backend_duel(rounds: int) -> dict:
    matrix_ok = matrix_backend_available()
    others = ("bitset", "matrix") if matrix_ok else ("bitset",)
    checks = {}
    gated_speedups = []
    info_speedups = []
    for tname, target, labelled, dense in large_targets():
        queries = [(n, q, not dense) for n, q in PATH_QUERIES]
        if labelled:
            queries += [(n, q, True) for n, q in LABELLED_QUERIES]
        for qname, q, gated in queries:
            times = {}
            for backend in others + ("decomp",):
                times[backend] = best_time(
                    lambda b=backend: has_homomorphism(q, target, backend=b),
                    rounds,
                )
            best_other = min(times[b] for b in others)
            speedup = best_other / times["decomp"]
            (gated_speedups if gated else info_speedups).append(speedup)
            checks[f"{tname}/{qname}"] = {
                **{f"{b}_s": times[b] for b in times},
                "best_other_s": best_other,
                "speedup": speedup,
                "gated": gated,
            }
            print(
                f"[bench_decomp] {tname}/{qname}: "
                + ", ".join(
                    f"{b} {times[b] * 1e3:.2f}ms" for b in times
                )
                + f" ({speedup:.2f}x over best other"
                + ("" if gated else ", info-only")
                + ")"
            )
    return {
        "checks": checks,
        "other_backends": list(others),
        "geomean_speedup_gated": geomean(gated_speedups),
        "min_speedup_gated": min(gated_speedups),
        "geomean_speedup_info": geomean(info_speedups)
        if info_speedups
        else None,
    }


def bench_warm_probe(rounds: int) -> dict:
    """E3-style increasing-depth probe: warm-started vs from-scratch."""
    cq = OneCQ.from_structure(chain_query(PROBE_INTERIOR))
    results = {}
    verdicts = {}
    for label, warm in (("warm", True), ("cold", False)):
        with Session(
            EngineConfig(probe_warmstart=warm, workers=1)
        ) as session:
            # Materialise the cactus chain once (both arms measure
            # coverage checking, not cactus construction).
            probe_boundedness(cq, 3, session=session)

            def run(session=session):
                return probe_boundedness(cq, PROBE_DEPTH, session=session)

            verdicts[label] = run().verdict.value
            results[label] = best_time(run, rounds, target_s=0.0)
    speedup = results["cold"] / results["warm"]
    print(
        f"[bench_decomp] probe depth {PROBE_DEPTH} (span-1 chain): "
        f"cold {results['cold'] * 1e3:.1f}ms, "
        f"warm {results['warm'] * 1e3:.1f}ms ({speedup:.2f}x)"
    )
    return {
        "query": f"chain({PROBE_INTERIOR} interior)",
        "probe_depth": PROBE_DEPTH,
        "verdict": verdicts["warm"],
        "verdicts_agree": verdicts["warm"] == verdicts["cold"],
        "cold_s": results["cold"],
        "warm_s": results["warm"],
        "speedup": speedup,
    }


def main() -> int:
    args = benchlib.parser(__doc__, "BENCH_decomp.json", rounds=5).parse_args()

    duel = bench_backend_duel(args.rounds)
    probe = bench_warm_probe(args.rounds)

    info = duel["geomean_speedup_info"]
    print(
        f"  decomp geomean speedup {duel['geomean_speedup_gated']:.2f}x "
        f"gated (min {duel['min_speedup_gated']:.2f}x"
        + (f", info {info:.2f}x" if info is not None else "")
        + ")"
    )
    print(f"  warm probe speedup {probe['speedup']:.2f}x")
    criteria = {
        "decomp_geomean_speedup_ge_2x_on_tw1": criterion(
            duel["geomean_speedup_gated"],
            duel["geomean_speedup_gated"] >= MIN_DECOMP_GEOMEAN,
        ),
        "warm_probe_speedup_ge_1_5x": criterion(
            probe["speedup"], probe["speedup"] >= MIN_WARM_SPEEDUP
        ),
        "warm_probe_verdict_agrees": criterion(
            probe["verdicts_agree"], probe["verdicts_agree"]
        ),
    }

    report = {
        "description": (
            "decomp backend vs the best of bitset/matrix on treewidth-1 "
            "query workloads over large targets, and the delta "
            "warm-started boundedness probe vs the from-scratch probe "
            "on an E3-style increasing-depth run; times are "
            "best-of-rounds wall clock"
        ),
        "cpu_count": os.cpu_count() or 1,
        "matrix_backend_available": matrix_backend_available(),
        "rounds": args.rounds,
        "backend_duel": duel,
        "warm_probe": probe,
        "criteria": criteria,
    }
    return benchlib.finish("bench_decomp", report, args)


if __name__ == "__main__":
    sys.exit(main())
