#!/usr/bin/env python
"""Benchmark harness: the job service under load, seeded into
``BENCH_service.json`` at the repo root.

Three legs, each against a *real* ``python -m repro serve`` subprocess
(nothing shared with the measuring process but the wire):

* **Concurrent screen jobs** — 8 client threads submit one screen job
  each (distinct tenants, distinct instance families) and poll to
  completion.  Reported: per-job p50/p99 latency and aggregate
  throughput (answers/s).  Gate: throughput no worse than 0.8x a
  direct in-process ``Session.screen`` of the same total work, and
  every job's matrix identical to the direct oracle's.
* **Kill -9 restart resume** — a screen job is submitted, the server
  is SIGKILLed after the first shards settle, a new server over the
  same ``--cache-dir`` recovers the in-flight job from its durable
  record, and the engine's shard checkpoints replay the settled spans.
  Gate: the resumed matrix is digest-identical to the direct oracle.
* **Smoke** (``--smoke``) — the CI liveness leg: boot, healthz,
  config, one small screen job watched over SSE (shards must cover
  the family contiguously), metrics.  No thresholds; exit status is
  the assertion.

The engine inside the server runs serial (``REPRO_HOM_WORKERS=0``);
concurrency comes from the service's job executor, so the comparison
isolates the service tier's overhead rather than pool scheduling.

Usage::

    python scripts/bench_service.py [--check] [--output PATH] [--smoke]
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import benchlib
from benchlib import criterion, digest, start_server, stop_server

SCRIPT = str(Path(__file__).resolve())

MIN_THROUGHPUT_RATIO = 0.8

CLIENTS = 8

# The screening matrix is deliberately query-heavy over dense hostile
# instances: hom-search time scales with |queries| x |facts| while the
# wire decode scales with |facts| alone, so this shape keeps the
# service's per-job codec work small next to the engine work the
# throughput gate compares against.
QUERY_COUNT = 80
QUERY_SIZE = 12
FAMILY_COUNT = 12
FAMILY_NODES = 80
FAMILY_DENSITY = 8.0
FAMILY_SEED = 100  # client i screens family seed FAMILY_SEED + i

KILL_COUNT = 24
KILL_NODES = 60
KILL_DENSITY = 6.0
KILL_SEED = 500
KILL_AFTER_EVENTS = 2


def _family(
    count: int,
    seed: int,
    nodes: int = FAMILY_NODES,
    density: float = FAMILY_DENSITY,
):
    from repro.workloads.generators import hostile_family

    return hostile_family(count, nodes, seed=seed, density=density)


def _screen_payload(
    count: int,
    seed: int,
    nodes: int = FAMILY_NODES,
    density: float = FAMILY_DENSITY,
) -> dict:
    return benchlib.screen_payload(
        QUERY_COUNT, QUERY_SIZE, count, nodes, density, seed
    )


# ----------------------------------------------------------------------
# The direct (no service) oracle, in a fresh interpreter
# ----------------------------------------------------------------------


def _worker_direct() -> dict:
    """Screen every bench family directly through one serial Session;
    the timing covers the 8 concurrency families, the kill family is
    digested untimed.

    The oracle runs the *same* engine configuration the service is
    required to run — durable store attached, shard checkpointing on —
    so the throughput ratio isolates the service tier (HTTP, job
    queue, wire codecs) instead of charging the service for the
    durability the kill -9 gate demands of it.
    """
    from repro import EngineConfig, Session

    queries = benchlib.ditree_queries(QUERY_COUNT, QUERY_SIZE)
    families = [
        _family(FAMILY_COUNT, FAMILY_SEED + i) for i in range(CLIENTS)
    ]
    with tempfile.TemporaryDirectory(
        prefix="repro-bench-direct-"
    ) as cache_dir, Session(
        EngineConfig(workers=0, cache_dir=cache_dir)
    ) as session:
        start = time.perf_counter()
        digests = [
            digest(session.screen(queries, family))
            for family in families
        ]
        elapsed = time.perf_counter() - start
        kill_digest = digest(
            session.screen(
                queries,
                _family(KILL_COUNT, KILL_SEED, KILL_NODES, KILL_DENSITY),
            )
        )
    return {
        "elapsed": elapsed,
        "digests": digests,
        "kill_digest": kill_digest,
        "answers": CLIENTS * FAMILY_COUNT * len(queries),
    }


# ----------------------------------------------------------------------
# Leg 1: concurrent screen-job clients
# ----------------------------------------------------------------------


def bench_concurrent(cache_dir: str) -> dict:
    # payload construction is request *preparation*, not service work:
    # build every submission before the timed window opens
    payloads = [
        _screen_payload(FAMILY_COUNT, FAMILY_SEED + i)
        for i in range(CLIENTS)
    ]
    proc, port = start_server(cache_dir)
    try:
        client = benchlib.client(port)
        latencies = [0.0] * CLIENTS
        matrices: list = [None] * CLIENTS
        errors: list = []

        def one(i: int) -> None:
            # results arrive over the SSE stream (event: done carries
            # the final record), so completion is pushed, not polled —
            # 8 clients hammering GET /v1/jobs/<id> would steal GIL
            # time from the very engine threads being measured
            try:
                started = time.perf_counter()
                record = client.submit(
                    "screen", payloads[i], tenant=f"bench{i}"
                )
                final = None
                for event, data in client.watch(
                    record["id"], timeout=600.0
                ):
                    if event == "done":
                        final = data
                latencies[i] = time.perf_counter() - started
                if not final or final["status"] != "done":
                    raise RuntimeError(
                        f"job {record['id']} did not stream to done: "
                        f"{final!r}"
                    )
                matrices[i] = final["result"]["matrix"]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"client {i}: {exc}")

        threads = [
            threading.Thread(target=one, args=(i,))
            for i in range(CLIENTS)
        ]
        wall_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall_start
        if errors:
            raise RuntimeError("; ".join(errors))
    finally:
        stop_server(proc)

    answers = CLIENTS * FAMILY_COUNT * QUERY_COUNT
    ordered = sorted(latencies)
    return {
        "clients": CLIENTS,
        "answers": answers,
        "wall_s": wall,
        "throughput_per_s": answers / wall,
        "p50_ms": ordered[len(ordered) // 2] * 1e3,
        "p99_ms": ordered[
            min(len(ordered) - 1, int(len(ordered) * 0.99))
        ] * 1e3,
        "digests": [digest(m) for m in matrices],
    }


# ----------------------------------------------------------------------
# Leg 2: kill -9 and resume from the store
# ----------------------------------------------------------------------


def bench_kill9(cache_dir: str) -> dict:
    payload = _screen_payload(
        KILL_COUNT, KILL_SEED, KILL_NODES, KILL_DENSITY
    )
    proc, port = start_server(cache_dir)
    job_id = None
    try:
        client = benchlib.client(port)
        record = client.submit("screen", payload, tenant="kill")
        job_id = record["id"]
        # wait for the first shards to settle (checkpoint rows exist),
        # then SIGKILL the server mid-job
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            got = client.job(job_id)
            if got["events"] >= KILL_AFTER_EVENTS:
                break
            if got["status"] in ("done", "failed"):
                break
            time.sleep(0.02)
        events_at_kill = client.job(job_id)["events"]
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(10)

    restart = time.perf_counter()
    proc, port = start_server(cache_dir)
    try:
        client = benchlib.client(port)
        final = client.wait(job_id, timeout=600.0)
        resume_s = time.perf_counter() - restart
        recovered = client.metrics()["service"]["recovered"]
    finally:
        stop_server(proc)
    if final["status"] != "done":
        raise RuntimeError(
            f"resumed job {job_id} {final['status']}: "
            f"{final.get('error')}"
        )
    return {
        "instances": KILL_COUNT,
        "events_at_kill": events_at_kill,
        "resume_s": resume_s,
        "recovered_jobs": recovered,
        "digest": digest(final["result"]["matrix"]),
    }


# ----------------------------------------------------------------------
# Smoke (the CI liveness leg)
# ----------------------------------------------------------------------


def smoke() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-svc-smoke-") as tmp:
        proc, port = start_server(tmp)
        try:
            client = benchlib.client(port, timeout=30.0)
            health = client.healthz()
            assert health["status"] == "ok", health
            config = client.config()
            assert config["cache_path"].endswith(
                "repro_store.sqlite"
            ), config
            record = client.submit(
                "screen",
                _screen_payload(4, FAMILY_SEED, nodes=24, density=4.0),
            )
            spans = []
            final = None
            for event, data in client.watch(record["id"]):
                if event == "shard":
                    spans.append((data["start"], data["stop"]))
                else:
                    final = data
            assert final and final["status"] == "done", final
            spans.sort()
            assert spans[0][0] == 0 and spans[-1][1] == 4, spans
            assert all(
                a[1] == b[0] for a, b in zip(spans, spans[1:])
            ), spans
            metrics = client.metrics()
            assert metrics["service"]["completed"] == 1, metrics
            print(
                f"[bench_service] smoke OK: {len(spans)} shards, "
                f"healthz/config/metrics served on port {port}"
            )
            return 0
        finally:
            stop_server(proc)


# ----------------------------------------------------------------------


def main() -> int:
    parser = benchlib.parser(
        __doc__,
        "BENCH_service.json",
        smoke="CI liveness leg only: boot, submit, stream, assert",
        worker=("direct",),
    )
    args = parser.parse_args()

    if args.worker is not None:
        print(json.dumps(_worker_direct()))
        return 0
    if args.smoke:
        return smoke()

    direct = benchlib.run_child(SCRIPT, "--worker", "direct")
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        concurrent = bench_concurrent(str(Path(tmp) / "concurrent"))
        kill9 = bench_kill9(str(Path(tmp) / "kill9"))

    direct_throughput = direct["answers"] / direct["elapsed"]
    ratio = concurrent["throughput_per_s"] / direct_throughput
    answers_match = concurrent["digests"] == direct["digests"]
    resume_match = kill9["digest"] == direct["kill_digest"]

    print(
        f"[bench_service] {CLIENTS} concurrent screen jobs: "
        f"p50 {concurrent['p50_ms']:.0f}ms, "
        f"p99 {concurrent['p99_ms']:.0f}ms, "
        f"{concurrent['throughput_per_s']:.1f} answers/s "
        f"({ratio:.2f}x direct), answers "
        f"{'identical' if answers_match else 'DIVERGED'}"
    )
    print(
        f"[bench_service] kill -9 resume: {kill9['events_at_kill']} "
        f"shards settled at kill, resumed in {kill9['resume_s']:.2f}s, "
        f"answers {'identical' if resume_match else 'DIVERGED'}"
    )

    criteria = {
        "throughput_ge_0_8x_direct": criterion(
            ratio, ratio >= MIN_THROUGHPUT_RATIO
        ),
        "concurrent_answers_identical": criterion(
            answers_match, answers_match
        ),
        "kill9_resume_answers_identical": criterion(
            resume_match, resume_match
        ),
    }

    report = {
        "description": (
            "the job service under load against a real `repro serve` "
            "subprocess: 8 concurrent screen-job clients (p50/p99 "
            "latency, throughput vs one direct serial Session.screen "
            "of the same work) and a kill -9 mid-job restart that "
            "recovers the job from the durable store and replays "
            "checkpointed shards to a digest-identical matrix"
        ),
        "cpu_count": os.cpu_count() or 1,
        "queries": {
            "generator": "random_ditree_cq",
            "count": QUERY_COUNT,
            "size": QUERY_SIZE,
        },
        "instances": {
            "generator": "hostile_family",
            "per_job": FAMILY_COUNT,
            "nodes": FAMILY_NODES,
            "density": FAMILY_DENSITY,
        },
        "direct": {
            "elapsed_s": direct["elapsed"],
            "throughput_per_s": direct_throughput,
        },
        "concurrent": concurrent,
        "kill9": kill9,
        "criteria": criteria,
    }
    return benchlib.finish("bench_service", report, args)


if __name__ == "__main__":
    sys.exit(main())
