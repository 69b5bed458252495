#!/usr/bin/env python
"""Benchmark harness: durable-store warm restarts, seeded into
``BENCH_store.json`` at the repo root.

Two restart surfaces introduced by the durable-engine-state PR, each
measured across *real process boundaries* (every run is a fresh
``python`` subprocess, so nothing survives but the store file):

* **Probe warm restart** — an E3-style increasing-depth boundedness
  probe on a span-1 chain query.  The cold arm runs against an empty
  store directory; the warm arm reruns the identical probe in a new
  process against the same directory, where the persisted probe
  checkpoint (settled depths + final result) answers it without
  re-examining a single cactus.
* **Screen warm restart** — the zoo screen workload (``q3``/``q4``/
  ``q5``/``q7`` over a random instance family).  The warm arm replays
  the screen checkpoint rows written by the cold run instead of
  re-deciding any homomorphism.

Both arms must produce byte-identical answers (digest-compared), and
both workloads are pure python and serial, so every criterion is
enforced on all hardware.  Timing is measured *inside* the child
process around the workload (including ``Session`` construction and
store open, excluding interpreter start-up and workload generation,
which are identical in both arms).

Usage::

    python scripts/bench_store.py [--check] [--output PATH] [--rounds N]

``--check`` exits non-zero unless every criterion holds: warm probe
restart >= 2x over cold, warm screen restart >= 1.5x over cold, and
cold/warm answers identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import benchlib
from benchlib import chain_query, criterion, digest, run_child

SCRIPT = str(Path(__file__).resolve())

MIN_PROBE_SPEEDUP = 2.0
MIN_SCREEN_SPEEDUP = 1.5

PROBE_INTERIOR = 4
PROBE_DEPTH = 14

SCREEN_INSTANCES = 100
SCREEN_NODES = 48
SCREEN_EDGES = 120
SCREEN_SEED = 11


def _worker_probe(cache_dir: str) -> dict:
    from repro import EngineConfig, Session
    from repro.core.boundedness import probe_boundedness
    from repro.core.cq import OneCQ

    query = chain_query(PROBE_INTERIOR)
    start = time.perf_counter()
    with Session(
        EngineConfig(cache_dir=cache_dir, workers=1)
    ) as session:
        cq = OneCQ.from_structure(query)
        result = probe_boundedness(cq, PROBE_DEPTH, session=session)
    elapsed = time.perf_counter() - start
    answers = (
        result.verdict.value,
        result.depth,
        result.cactuses_examined,
        tuple(result.uncovered),
    )
    return {"elapsed": elapsed, "digest": digest(answers)}


def _worker_screen(cache_dir: str) -> dict:
    from repro import EngineConfig, Session, zoo
    from repro.workloads.generators import instance_family

    queries = [zoo.q3(), zoo.q4(), zoo.q5(), zoo.q7()]
    targets = instance_family(
        SCREEN_INSTANCES, SCREEN_NODES, SCREEN_EDGES, SCREEN_SEED
    )
    start = time.perf_counter()
    with Session(
        EngineConfig(cache_dir=cache_dir, workers=1)
    ) as session:
        matrix = session.screen(queries, targets)
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "digest": digest(matrix)}


def bench_restart(mode: str, rounds: int, workdir: Path) -> dict:
    """Cold (fresh store dir per round) vs warm (primed dir) restarts."""
    cold_times = []
    digests = set()
    for i in range(rounds):
        d = workdir / f"{mode}-cold-{i}"
        shutil.rmtree(d, ignore_errors=True)
        rep = run_child(SCRIPT, "--worker", mode, "--cache-dir", str(d))
        cold_times.append(rep["elapsed"])
        digests.add(rep["digest"])

    warm_dir = workdir / f"{mode}-warm"
    shutil.rmtree(warm_dir, ignore_errors=True)
    prime = run_child(SCRIPT, "--worker", mode, "--cache-dir", str(warm_dir))
    digests.add(prime["digest"])
    warm_times = []
    for _ in range(rounds):
        rep = run_child(SCRIPT, "--worker", mode, "--cache-dir", str(warm_dir))
        warm_times.append(rep["elapsed"])
        digests.add(rep["digest"])

    cold = min(cold_times)
    warm = min(warm_times)
    speedup = cold / warm
    print(
        f"[bench_store] {mode} restart: cold {cold * 1e3:.1f}ms, "
        f"warm {warm * 1e3:.1f}ms ({speedup:.2f}x), "
        f"answers {'identical' if len(digests) == 1 else 'DIVERGED'}"
    )
    return {
        "cold_s": cold,
        "warm_s": warm,
        "speedup": speedup,
        "answers_identical": len(digests) == 1,
        "digest": sorted(digests)[0] if len(digests) == 1 else None,
    }


def main() -> int:
    parser = benchlib.parser(
        __doc__, "BENCH_store.json", rounds=3, worker=("probe", "screen")
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=argparse.SUPPRESS,  # internal: the child's store directory
    )
    args = parser.parse_args()

    if args.worker is not None:
        fn = _worker_probe if args.worker == "probe" else _worker_screen
        print(json.dumps(fn(args.cache_dir)))
        return 0

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        workdir = Path(tmp)
        probe = bench_restart("probe", args.rounds, workdir)
        screen = bench_restart("screen", args.rounds, workdir)

    criteria = {
        "probe_warm_restart_ge_2x": criterion(
            probe["speedup"], probe["speedup"] >= MIN_PROBE_SPEEDUP
        ),
        "screen_warm_restart_ge_1_5x": criterion(
            screen["speedup"], screen["speedup"] >= MIN_SCREEN_SPEEDUP
        ),
        "probe_answers_identical": criterion(
            probe["answers_identical"], probe["answers_identical"]
        ),
        "screen_answers_identical": criterion(
            screen["answers_identical"], screen["answers_identical"]
        ),
    }

    report = {
        "description": (
            "durable-store warm restarts across real process "
            "boundaries: an E3-style boundedness probe and the zoo "
            "screen rerun in fresh interpreters against a primed store "
            "directory vs an empty one; times are best-of-rounds wall "
            "clock measured inside the child around the workload"
        ),
        "cpu_count": os.cpu_count() or 1,
        "rounds": args.rounds,
        "probe_restart": {
            "query": f"chain({PROBE_INTERIOR} interior)",
            "probe_depth": PROBE_DEPTH,
            **probe,
        },
        "screen_restart": {
            "queries": ["q3", "q4", "q5", "q7"],
            "instances": SCREEN_INSTANCES,
            **screen,
        },
        "criteria": criteria,
    }
    return benchlib.finish("bench_store", report, args)


if __name__ == "__main__":
    sys.exit(main())
