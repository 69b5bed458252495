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

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.homengine import (  # noqa: E402
    _count_homomorphisms,
    matrix_backend_available,
    semiring_evaluate,
)
from repro.core.semiring import PROB, resolve_semiring  # noqa: E402
from repro.core.structure import StructureBuilder, path_structure  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.workloads.generators import random_instance  # noqa: E402

MAX_COUNT_OVERHEAD = 1.3
MIN_PROB_SPEEDUP = 2.0


def unlabelled_ditree(n: int, seed: int):
    import random

    rng = random.Random(seed)
    b = StructureBuilder()
    for i in range(n):
        b.add_node(i)
    for i in range(1, n):
        b.add_edge(rng.randrange(i), i)
    return b.build()


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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_semiring.json",
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
        help="exit non-zero unless every enforced criterion holds",
    )
    args = parser.parse_args()

    matrix_ok = matrix_backend_available()
    count = bench_count_overhead(args.rounds)
    prob = bench_prob_matvec(args.rounds) if matrix_ok else None

    criteria = {
        "count_surface_overhead_le_1_3x": {
            "enforced": True,
            "skip_reason": None,
            "value": count["geomean_overhead"],
            "pass": count["geomean_overhead"] <= MAX_COUNT_OVERHEAD,
        },
        "count_surface_agrees_with_legacy": {
            "enforced": True,
            "skip_reason": None,
            "value": count["counts_agree"],
            "pass": count["counts_agree"],
        },
        "prob_matvec_speedup_ge_2x": {
            "enforced": matrix_ok,
            "skip_reason": None if matrix_ok else "numpy not installed",
            "value": prob["geomean_speedup"] if prob else None,
            "pass": (prob["geomean_speedup"] >= MIN_PROB_SPEEDUP)
            if prob
            else True,
        },
        "prob_matvec_agrees_with_enumeration": {
            "enforced": matrix_ok,
            "skip_reason": None if matrix_ok else "numpy not installed",
            "value": prob["values_agree"] if prob else None,
            "pass": prob["values_agree"] if prob else True,
        },
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
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_semiring] wrote {args.output}")
    print(
        f"  count surface overhead {count['geomean_overhead']:.2f}x "
        f"geomean (max {count['max_overhead']:.2f}x)"
    )
    if prob is not None:
        print(
            f"  prob matvec speedup {prob['geomean_speedup']:.2f}x "
            f"geomean (min {prob['min_speedup']:.2f}x)"
        )
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
