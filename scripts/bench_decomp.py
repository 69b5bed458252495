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

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import EngineConfig  # noqa: E402
from repro.core.cq import OneCQ  # noqa: E402
from repro.core.boundedness import probe_boundedness  # noqa: E402
from repro.core.homengine import (  # noqa: E402
    has_homomorphism,
    matrix_backend_available,
)
from repro.core.structure import (  # noqa: E402
    F,
    StructureBuilder,
    T,
    path_structure,
)
from repro.session import Session  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    block_dag_instance,
    random_instance,
)

MIN_DECOMP_GEOMEAN = 2.0
MIN_WARM_SPEEDUP = 1.5

TARGET_LABELS = {"T": 1, "F": 1, "": 20, "A": 2, "FT": 0}


def unlabelled_ditree(n: int, seed: int):
    import random

    rng = random.Random(seed)
    b = StructureBuilder()
    for i in range(n):
        b.add_node(i)
    for i in range(1, n):
        b.add_edge(rng.randrange(i), i)
    return b.build()


def chain_query(interior: int):
    """A span-1 1-CQ whose cactuses form a single chain per depth:
    F -R-> m_0 -R-> .. -R-> m_{k-1} -R-> T."""
    b = StructureBuilder()
    b.add_node("f", F)
    prev = "f"
    for i in range(interior):
        b.add_node(f"m{i}")
        b.add_edge(prev, f"m{i}")
        prev = f"m{i}"
    b.add_node("t", T)
    b.add_edge(prev, "t")
    return b.build()


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


def best_time(fn, rounds: int, target_s: float = 0.1) -> float:
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    iters = max(1, int(target_s / max(once, 1e-9)))
    best = once
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_decomp.json",
        help="where to write the results",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="timing rounds per measurement (minimum is reported)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every criterion holds",
    )
    args = parser.parse_args()

    duel = bench_backend_duel(args.rounds)
    probe = bench_warm_probe(args.rounds)

    criteria = {
        "decomp_geomean_speedup_ge_2x_on_tw1": {
            "enforced": True,
            "skip_reason": None,
            "value": duel["geomean_speedup_gated"],
            "pass": duel["geomean_speedup_gated"] >= MIN_DECOMP_GEOMEAN,
        },
        "warm_probe_speedup_ge_1_5x": {
            "enforced": True,
            "skip_reason": None,
            "value": probe["speedup"],
            "pass": probe["speedup"] >= MIN_WARM_SPEEDUP,
        },
        "warm_probe_verdict_agrees": {
            "enforced": True,
            "skip_reason": None,
            "value": probe["verdicts_agree"],
            "pass": probe["verdicts_agree"],
        },
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
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_decomp] wrote {args.output}")
    info = duel["geomean_speedup_info"]
    print(
        f"  decomp geomean speedup {duel['geomean_speedup_gated']:.2f}x "
        f"gated (min {duel['min_speedup_gated']:.2f}x"
        + (f", info {info:.2f}x" if info is not None else "")
        + ")"
    )
    print(f"  warm probe speedup {probe['speedup']:.2f}x")
    failures = 0
    for name, crit in criteria.items():
        if not crit["enforced"]:
            print(f"  criterion {name}: SKIPPED ({crit['skip_reason']})")
        elif crit["pass"]:
            print(f"  criterion {name}: PASS")
        else:
            print(f"  criterion {name}: FAIL (value {crit['value']})")
            failures += 1
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
