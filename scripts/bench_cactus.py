#!/usr/bin/env python
"""Benchmark harness: incremental vs from-scratch cactus construction.

Times the *construction phase* of E3-style cactus enumeration — iterate
every shape up to a depth and materialise its cactus — for the
incremental ``CactusFactory`` engine against the pre-engine
``build_cactus_from_scratch`` baseline, across queries of span 1-3 and
several depths.  Every round starts from a **cold** factory, so the
measured incremental speedup comes from within-enumeration prefix
sharing (copy-on-write structure deltas, interned segments), not from
handing back previously-cached cactuses; the warm (fully-cached) rate
is recorded separately as extra information.

Writes the results to ``BENCH_cactus.json`` at the repo root — the perf
trajectory seed for cactus construction, mirroring
``BENCH_homengine.json`` for the hom engine.

Usage::

    python scripts/bench_cactus.py [--check] [--output PATH] [--rounds N]

``--check`` exits non-zero unless the acceptance criterion holds: the
geometric-mean speedup of the incremental engine over the from-scratch
baseline is at least 2x across the enumeration workloads.
"""

from __future__ import annotations

import sys

import benchlib
from benchlib import best_time, criterion, geomean
from repro import zoo
from repro.core import OneCQ, StructureBuilder, path_structure
from repro.core.cactus import (
    CactusFactory,
    CactusState,
    build_cactus_from_scratch,
    iter_shapes,
)
from repro.core.config import EngineConfig

MIN_GEOMEAN_SPEEDUP = 2.0


def q_span1() -> OneCQ:
    return OneCQ.from_structure(path_structure(["T", "F"]))


def q_span3() -> OneCQ:
    b = StructureBuilder()
    b.add_node("f", "F")
    for i in range(3):
        b.add_node(f"t{i}", "T")
        b.add_edge(f"t{i}", "f", "R")
    return OneCQ.from_structure(b.build())


def q_gadget() -> OneCQ:
    """A wider segment (8 nodes, two predicates, a twin) at span 2."""
    b = StructureBuilder()
    b.add_node("f", "F")
    b.add_node("t0", "T")
    b.add_node("t1", "T", "B")
    b.add_node("twin", "F", "T")
    for i in range(4):
        b.add_node(f"m{i}")
    b.add_edge("t0", "m0", "R")
    b.add_edge("m0", "m1", "R")
    b.add_edge("m1", "f", "R")
    b.add_edge("t1", "m2", "S")
    b.add_edge("m2", "f", "R")
    b.add_edge("twin", "m3", "S")
    b.add_edge("m3", "m1", "S")
    return OneCQ.from_structure(b.build())


WORKLOADS = [
    # (name, one_cq builder, max_depth)
    ("e3_q2_depth2", lambda: OneCQ.from_structure(zoo.q2()), 2),
    ("e3_q2_depth3", lambda: OneCQ.from_structure(zoo.q2()), 3),
    ("span1_path_depth12", q_span1, 12),
    ("gadget_span2_depth2", q_gadget, 2),
    ("span3_star_depth2", q_span3, 2),
]


# The shape lists are materialised once, outside the timed region: both
# engines consume identical pre-enumerated shapes, so the timings cover
# exactly the construction phase (facts + Structure), not the shared
# combinatorial enumeration of 𝔎_q's skeletons.


def run_incremental(one_cq: OneCQ, shapes: list) -> None:
    """Cold-factory construction through the incremental engine.

    The factory gets a private, empty :class:`CactusState` per round:
    a factory on shared session state would adopt the previous round's
    interned structures wholesale and this would measure cache hits,
    not construction.  The state is built from the environment so
    ``REPRO_CACTUS_MAX_NODES`` still shapes the measured configuration.
    """
    factory = CactusFactory(
        one_cq, state=CactusState(EngineConfig.from_env())
    )
    for shape in shapes:
        factory.cactus(shape)


def run_scratch(one_cq: OneCQ, shapes: list) -> None:
    for shape in shapes:
        build_cactus_from_scratch(one_cq, shape)


def run_warm(factory: CactusFactory, shapes: list) -> None:
    for shape in shapes:
        factory.cactus(shape)


def main() -> int:
    args = benchlib.parser(__doc__, "BENCH_cactus.json", rounds=5).parse_args()

    workloads = {}
    speedups = []
    for name, make_cq, max_depth in WORKLOADS:
        one_cq = make_cq()
        shapes = list(iter_shapes(one_cq.span, max_depth))
        cactuses = len(shapes)
        scratch_s = best_time(
            lambda: run_scratch(one_cq, shapes), args.rounds
        )
        incremental_s = best_time(
            lambda: run_incremental(one_cq, shapes), args.rounds
        )
        warm_factory = CactusFactory(one_cq)
        run_warm(warm_factory, shapes)  # populate
        warm_s = best_time(
            lambda: run_warm(warm_factory, shapes), args.rounds
        )
        speedup = scratch_s / incremental_s
        speedups.append(speedup)
        workloads[name] = {
            "cactuses": cactuses,
            "span": one_cq.span,
            "max_depth": max_depth,
            "scratch_s": scratch_s,
            "incremental_cold_s": incremental_s,
            "incremental_warm_s": warm_s,
            "speedup_cold": speedup,
            "speedup_warm": scratch_s / warm_s,
        }
        print(
            f"[bench_cactus] {name}: {cactuses} cactuses, "
            f"scratch {scratch_s * 1e3:.1f}ms, "
            f"incremental {incremental_s * 1e3:.1f}ms "
            f"({speedup:.2f}x cold, {scratch_s / warm_s:.1f}x warm)"
        )

    summary = {
        "geomean_speedup_cold": geomean(speedups),
        "min_speedup_cold": min(speedups),
        "geomean_speedup_warm": geomean(
            [w["speedup_warm"] for w in workloads.values()]
        ),
    }
    print(
        f"  geomean cold speedup {summary['geomean_speedup_cold']:.2f}x "
        f"(min {summary['min_speedup_cold']:.2f}x, warm "
        f"{summary['geomean_speedup_warm']:.1f}x)"
    )
    criteria = {
        "construction_geomean_speedup_ge_2x": criterion(
            summary["geomean_speedup_cold"],
            summary["geomean_speedup_cold"] >= MIN_GEOMEAN_SPEEDUP,
        ),
    }
    report = {
        "description": (
            "Cactus construction: incremental CactusFactory (cold per "
            "round) vs build_cactus_from_scratch on E3-style "
            "enumerations; times are best-of-rounds wall clock"
        ),
        "rounds": args.rounds,
        "summary": summary,
        "criteria": criteria,
        "workloads": workloads,
    }
    return benchlib.finish("bench_cactus", report, args)


if __name__ == "__main__":
    sys.exit(main())
