#!/usr/bin/env python
"""Benchmark harness: the semiring-generic evaluation surface.

Two perf surfaces introduced by the semiring PR, seeded into
``BENCH_semiring.json`` at the repo root:

* **COUNT surface overhead** — ``Session.evaluate(q, d, "count",
  backend="decomp")`` vs the legacy direct counting path
  (``_count_homomorphisms(backend="decomp")``).  The redesign makes
  the public count a thin COUNT-instance wrapper; the gate keeps the
  wrapper thin (<= 1.3x the direct call) so nobody quietly grows a
  dispatch tax onto the hottest non-Boolean ask.
* **PROB matvec speedup** — the matrix backend's weighted forest DP
  (per-variable float64 value vectors pushed through weighted
  adjacency matvecs) vs the weighted enumeration oracle (fold of
  per-hom weight products over ``iter_homomorphisms``) on
  tuple-independent instances with n >= 200 nodes.  The DP must be
  >= 2x faster: that is the whole point of dtype dispatch instead of
  enumerate-then-sum.

Criteria are *hardware-aware*: the COUNT overhead gate is pure python
and enforced everywhere; the PROB gate needs numpy and is recorded
with ``skip_reason`` when the matrix backend is unavailable.

Usage::

    python scripts/bench_semiring.py [--check] [--output PATH] [--rounds N]

``--check`` exits non-zero unless every enforced criterion holds.
"""

from __future__ import annotations

import math
import os
import sys

import benchlib
from benchlib import best_time, criterion, geomean, unlabelled_ditree
from repro.core.homengine import (
    _count_homomorphisms,
    matrix_backend_available,
    semiring_evaluate,
)
from repro.core.semiring import resolve_semiring
from repro.core.structure import path_structure
from repro.session import Session
from repro.workloads.generators import random_instance

MAX_COUNT_OVERHEAD = 1.3
MIN_PROB_SPEEDUP = 2.0


# Tree-shaped queries: width 1, so both the decomp DP and the matrix
# forest DP apply; counts over unlabelled R-graphs are large enough to
# be real work but bounded by the DP (never by enumeration).
COUNT_QUERIES = [
    ("path6", path_structure([""] * 6)),
    ("tree9", unlabelled_ditree(9, 3)),
]
PROB_QUERIES = [
    ("path5", path_structure([""] * 5)),
    ("tree7", unlabelled_ditree(7, 4)),
]


def count_targets():
    return [
        ("rand_n300", random_instance(300, 900, seed=11)),
        ("rand_n500", random_instance(500, 1500, seed=13)),
    ]


def prob_targets():
    # n >= 200, the gate's floor: big enough that the matvec amortises
    # its matrix build, small enough that enumeration terminates.
    return [
        ("rand_n200", random_instance(200, 500, seed=17)),
        ("rand_n300", random_instance(300, 700, seed=19)),
    ]


def tuple_independent_weights(target, p: float = 0.9) -> dict:
    return {fact: p for fact in target.binary_facts}


def bench_count_overhead(rounds: int) -> dict:
    """Session.evaluate(..., "count", backend="decomp") vs the direct
    legacy counting call on the same backend."""
    checks = {}
    overheads = []
    with Session() as session:
        for tname, target in count_targets():
            for qname, q in COUNT_QUERIES:
                direct = best_time(
                    lambda q=q, t=target: _count_homomorphisms(
                        q, t, backend="decomp", session=session,
                    ),
                    rounds,
                )
                surface = best_time(
                    lambda q=q, t=target: session.evaluate(
                        q, t, "count", backend="decomp"
                    ),
                    rounds,
                )
                n_direct = _count_homomorphisms(
                    q, target, backend="decomp", session=session
                )
                n_surface = session.evaluate(
                    q, target, "count", backend="decomp"
                ).value
                overhead = surface / direct
                overheads.append(overhead)
                checks[f"{tname}/{qname}"] = {
                    "direct_s": direct,
                    "surface_s": surface,
                    "overhead": overhead,
                    "count": n_surface,
                    "counts_agree": n_direct == n_surface,
                }
                print(
                    f"[bench_semiring] count {tname}/{qname}: "
                    f"direct {direct * 1e3:.2f}ms, "
                    f"surface {surface * 1e3:.2f}ms "
                    f"({overhead:.2f}x, {n_surface} homs)"
                )
    return {
        "checks": checks,
        "geomean_overhead": geomean(overheads),
        "max_overhead": max(overheads),
        "counts_agree": all(c["counts_agree"] for c in checks.values()),
    }


def bench_prob_matvec(rounds: int) -> dict:
    """PROB via the matrix forest DP vs the weighted enumeration fold
    (the bitset route for weighted semirings) on n >= 200 targets."""
    checks = {}
    speedups = []
    sr = resolve_semiring("prob")
    for tname, target in prob_targets():
        weights = tuple_independent_weights(target)
        for qname, q in PROB_QUERIES:
            times = {}
            values = {}
            for label, backend in (("matvec", "matrix"),
                                   ("enum", "bitset")):
                times[label] = best_time(
                    lambda q=q, t=target, b=backend, w=weights:
                        semiring_evaluate(q, t, sr, weights=w, backend=b),
                    rounds,
                )
                values[label] = semiring_evaluate(
                    q, target, sr, weights=weights, backend=backend,
                ).value
            speedup = times["enum"] / times["matvec"]
            speedups.append(speedup)
            agree = math.isclose(
                values["matvec"], values["enum"], rel_tol=1e-9
            )
            checks[f"{tname}/{qname}"] = {
                "matvec_s": times["matvec"],
                "enum_s": times["enum"],
                "speedup": speedup,
                "expected_witnesses": values["matvec"],
                "values_agree": agree,
            }
            print(
                f"[bench_semiring] prob {tname}/{qname}: "
                f"enum {times['enum'] * 1e3:.2f}ms, "
                f"matvec {times['matvec'] * 1e3:.2f}ms "
                f"({speedup:.2f}x, E[witnesses]="
                f"{values['matvec']:.1f})"
            )
    return {
        "checks": checks,
        "geomean_speedup": geomean(speedups),
        "min_speedup": min(speedups),
        "values_agree": all(c["values_agree"] for c in checks.values()),
    }


def main() -> int:
    args = benchlib.parser(__doc__, "BENCH_semiring.json", rounds=5).parse_args()

    matrix_ok = matrix_backend_available()
    count = bench_count_overhead(args.rounds)
    prob = bench_prob_matvec(args.rounds) if matrix_ok else None

    print(
        f"  count surface overhead {count['geomean_overhead']:.2f}x "
        f"geomean (max {count['max_overhead']:.2f}x)"
    )
    if prob is not None:
        print(
            f"  prob matvec speedup {prob['geomean_speedup']:.2f}x "
            f"geomean (min {prob['min_speedup']:.2f}x)"
        )
    no_numpy = None if matrix_ok else "numpy not installed"
    criteria = {
        "count_surface_overhead_le_1_3x": criterion(
            count["geomean_overhead"],
            count["geomean_overhead"] <= MAX_COUNT_OVERHEAD,
        ),
        "count_surface_agrees_with_legacy": criterion(
            count["counts_agree"], count["counts_agree"]
        ),
        "prob_matvec_speedup_ge_2x": criterion(
            prob["geomean_speedup"] if prob else None,
            prob["geomean_speedup"] >= MIN_PROB_SPEEDUP if prob else True,
            no_numpy,
        ),
        "prob_matvec_agrees_with_enumeration": criterion(
            prob["values_agree"] if prob else None,
            prob["values_agree"] if prob else True,
            no_numpy,
        ),
    }

    report = {
        "description": (
            "semiring surface perf: COUNT via Session.evaluate vs the "
            "direct legacy counting path on the decomp backend, and "
            "PROB via the matrix backend's weighted forest matvec DP "
            "vs the weighted enumeration fold on n>=200 "
            "tuple-independent targets; times are best-of-rounds wall "
            "clock"
        ),
        "cpu_count": os.cpu_count() or 1,
        "matrix_backend_available": matrix_ok,
        "rounds": args.rounds,
        "count_overhead": count,
        "prob_matvec": prob,
        "criteria": criteria,
    }
    return benchlib.finish("bench_semiring", report, args)


if __name__ == "__main__":
    sys.exit(main())
