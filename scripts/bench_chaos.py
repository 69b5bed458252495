#!/usr/bin/env python
"""Chaos harness: the supervised job service under injected faults,
seeded into ``BENCH_chaos.json`` at the repo root.

Every leg runs against a *real* ``python -m repro serve`` subprocess
and compares its answers against an unfaulted in-process oracle (one
serial ``Session.screen`` of the same workload).  The fault schedule:

* **Worker kill** — the engine pool's first chunk worker is SIGKILLed
  (``REPRO_FAULT_PLAN=kill:0``); the pool recovers and the screen
  matrix must be digest-identical to the oracle.
* **Server SIGKILL** — the server dies uncleanly mid-screen with one
  job running and one queued; a restart over the same cache dir must
  settle *both* (the running record is adopted once the dead owner's
  lease lapses; checkpointed shards replay) to oracle-identical
  matrices, with zero lost jobs.
* **Server SIGTERM** — graceful drain: admission returns 503 with
  ``Retry-After`` while the running jobs settle (a blocker job keeps
  the drain open until the probe is made, then is cancelled), the
  process exits within the drain deadline, and a restart completes the
  queued job.
* **Store bit-flip** — a checkpoint row is corrupted on disk between
  runs; the CRC sweep drops it and a re-screen recomputes only that
  row, digest-identical.
* **Cancel storm** — half of a burst of screen jobs, queued behind a
  blocker job, is cancelled; every job reaches exactly one terminal
  state, the SSE stream of a cancelled job ends in ``event:
  cancelled``, and the survivors are digest-identical.
* **Poison job** — ``REPRO_FAULT_PLAN=jobfail:...`` makes the same job
  fail on every attempt; it must be quarantined FAILED after exactly
  ``--retry-max`` attempts, and the terminal record must survive a
  restart.
* **Hung-job cancel** — a deep ungoverned boundedness probe (would run
  for minutes) is cancelled; the Budget cancel hook must settle it
  CANCELLED within seconds.

``--smoke`` is the CI liveness leg: injected-fault retry, cancel over
SSE, and a SIGTERM drain on one small server; exit status is the
assertion.

Usage::

    python scripts/bench_chaos.py [--check] [--output PATH] [--smoke]
"""

from __future__ import annotations

import os
import signal
import sqlite3
import sys
import tempfile
import time
from pathlib import Path

import benchlib
from benchlib import criterion, digest, start_server, stop_server

# The chaos workload: shaped so a serial screen takes seconds (plenty
# of shards to kill / cancel / checkpoint mid-job) without dominating
# the bench's wall clock.
QUERY_COUNT = 24
QUERY_SIZE = 10
FAMILY_COUNT = 10
FAMILY_NODES = 48
FAMILY_DENSITY = 5.0
FAMILY_SEED = 900

RETRY_MAX = 3
LEASE_TTL_MS = 2000
STORM_JOBS = 6
CANCEL_LATENCY_BOUND_S = 10.0
DRAIN_DEADLINE_S = 60.0

TERMINAL = ("done", "failed", "cancelled")


def _screen_payload(
    count: int = FAMILY_COUNT,
    seed: int = FAMILY_SEED,
    nodes: int = FAMILY_NODES,
    density: float = FAMILY_DENSITY,
    queries: int = QUERY_COUNT,
    size: int = QUERY_SIZE,
) -> dict:
    return benchlib.screen_payload(queries, size, count, nodes, density, seed)


def _oracle_digest(payload: dict) -> str:
    """The unfaulted answer: one serial in-process screen."""
    from repro import EngineConfig, Session
    from repro.service.wire import structure_from_json

    queries = [structure_from_json(q) for q in payload["queries"]]
    instances = [structure_from_json(i) for i in payload["instances"]]
    with Session(EngineConfig(workers=0)) as session:
        return digest(session.screen(queries, instances))


def _wait_events(client, job_id: str, count: int, timeout: float = 300.0):
    """Poll until ``count`` shard events settled (or the job did)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.job(job_id)
        if record["events"] >= count or record["status"] in TERMINAL:
            return record
        time.sleep(0.02)
    raise RuntimeError(f"job {job_id} produced no progress in {timeout}s")


def _wait_running(client, job_id: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.job(job_id)["status"] == "running":
            return
        time.sleep(0.02)
    raise RuntimeError(f"job {job_id} never started running")


def _start_blocker(client, tenant: str) -> str:
    """Submit a deep ungoverned boundedness probe (minutes of search)
    and wait until it runs.  Until it is cancelled it holds one of
    ``tenant``'s job slots and keeps a drain open, however fast the
    screens around it are."""
    from repro import zoo
    from repro.service.wire import structure_to_json

    record = client.submit(
        "probe",
        {"query": structure_to_json(zoo.q4()), "probe_depth": 150},
        tenant=tenant,
    )
    _wait_running(client, record["id"])
    return record["id"]


# ----------------------------------------------------------------------
# Legs
# ----------------------------------------------------------------------


def leg_worker_kill(payload: dict, oracle: str) -> dict:
    """A pool worker SIGKILLed mid-screen inside the server."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-wk-") as tmp:
        proc, port = start_server(
            tmp,
            env={
                "REPRO_HOM_WORKERS": "2",
                "REPRO_HOM_PARALLEL_MIN": "2",
                "REPRO_FAULT_PLAN": "kill:0",
            },
        )
        try:
            client = benchlib.client(port)
            record = client.submit("screen", payload, tenant="chaos")
            final = client.wait(record["id"], timeout=600.0)
        finally:
            stop_server(proc)
    got = digest(final["result"]["matrix"]) if final["status"] == "done" else None
    return {
        "status": final["status"],
        "digest": got,
        "identical": got == oracle,
    }


def leg_sigkill(payload: dict, oracle: str, cache_dir: str) -> dict:
    """kill -9 the server with one running + one queued job; restart
    must settle both with zero lost jobs."""
    env = {
        "REPRO_SERVICE_TENANT_JOBS": "1",
        "REPRO_SERVICE_LEASE_TTL_MS": str(LEASE_TTL_MS),
    }
    proc, port = start_server(cache_dir, env=env)
    try:
        client = benchlib.client(port)
        running = client.submit("screen", payload, tenant="chaos")
        queued = client.submit("screen", payload, tenant="chaos")
        at_kill = _wait_events(client, running["id"], 2)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(15)

    restart = time.perf_counter()
    proc, port = start_server(cache_dir, env=env)
    try:
        client = benchlib.client(port)
        finals = {
            jid: client.wait(jid, timeout=600.0)
            for jid in (running["id"], queued["id"])
        }
        resume_s = time.perf_counter() - restart
        metrics = client.metrics()["service"]
    finally:
        stop_server(proc)
    digests = {
        jid: (digest(f["result"]["matrix"])
              if f["status"] == "done" else None)
        for jid, f in finals.items()
    }
    return {
        "events_at_kill": at_kill["events"],
        "resume_s": resume_s,
        "statuses": {jid: f["status"] for jid, f in finals.items()},
        "adopted": metrics["adopted"],
        "recovered": metrics["recovered"],
        "all_terminal": all(
            f["status"] in TERMINAL for f in finals.values()
        ),
        "identical": all(d == oracle for d in digests.values()),
    }


def leg_sigterm(payload: dict, oracle: str, cache_dir: str) -> dict:
    """Graceful drain: SIGTERM stops admission with 503, the running
    job settles, the process exits in the deadline, queued work
    resumes after restart."""
    from repro.service.client import ServiceError

    env = {
        "REPRO_SERVICE_TENANT_JOBS": "1",
        "REPRO_SERVICE_DRAIN_MS": str(int(DRAIN_DEADLINE_S * 1000)),
    }
    proc, port = start_server(cache_dir, env=env)
    drain_status = None
    try:
        client = benchlib.client(port)
        running = client.submit("screen", payload, tenant="chaos")
        queued = client.submit("screen", payload, tenant="chaos")
        _wait_events(client, running["id"], 1)
        # The running screen may settle within milliseconds; the
        # blocker keeps the drain window open for the admission probe,
        # which is made the moment healthz flips to "draining".
        blocker = _start_blocker(client, "blocker")
        sent = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        probe_deadline = time.monotonic() + 10.0
        while time.monotonic() < probe_deadline:
            try:
                if client.healthz().get("status") == "draining":
                    break
            except (ServiceError, ConnectionError, OSError):
                break
            time.sleep(0.005)
        try:
            client.submit("screen", payload, tenant="chaos")
            drain_status = "accepted"
        except ServiceError as exc:
            drain_status = exc.status
        except (ConnectionError, OSError):
            drain_status = "connection-refused"
        client.cancel(blocker)
        proc.wait(DRAIN_DEADLINE_S + 30)
        exit_s = time.perf_counter() - sent
        returncode = proc.returncode
    finally:
        stop_server(proc)

    proc, port = start_server(cache_dir, env=env)
    try:
        client = benchlib.client(port)
        finals = {
            jid: client.wait(jid, timeout=600.0)
            for jid in (running["id"], queued["id"])
        }
    finally:
        stop_server(proc)
    digests = {
        jid: (digest(f["result"]["matrix"])
              if f["status"] == "done" else None)
        for jid, f in finals.items()
    }
    return {
        "admission_during_drain": drain_status,
        "exit_s": exit_s,
        "returncode": returncode,
        "exited_in_deadline": exit_s < DRAIN_DEADLINE_S + 15,
        "running_settled_before_exit": finals[running["id"]]["status"]
        == "done",
        "statuses": {jid: f["status"] for jid, f in finals.items()},
        "identical": all(d == oracle for d in digests.values()),
    }


def leg_bitflip(payload: dict, oracle: str, cache_dir: str) -> dict:
    """Corrupt one checkpoint row on disk; the CRC sweep must drop it
    and a re-screen must recompute to the identical matrix."""
    from repro.core.store import resolve_store_path

    proc, port = start_server(cache_dir)
    try:
        client = benchlib.client(port)
        record = client.submit("screen", payload, tenant="chaos")
        first = client.wait(record["id"], timeout=600.0)
    finally:
        stop_server(proc)
    if first["status"] != "done":
        raise RuntimeError(f"seed run failed: {first}")

    db_path = resolve_store_path(cache_dir)
    conn = sqlite3.connect(db_path)
    try:
        row = conn.execute(
            "SELECT ns, key, value FROM kv WHERE ns LIKE 'ckpt:%' LIMIT 1"
        ).fetchone()
        if row is None:
            raise RuntimeError("no checkpoint rows to corrupt")
        ns, key, value = row
        flipped = bytes(b ^ 0xFF for b in value[:4]) + value[4:]
        with conn:
            conn.execute(
                "UPDATE kv SET value = ? WHERE ns = ? AND key = ?",
                (flipped, ns, key),
            )
    finally:
        conn.close()

    proc, port = start_server(cache_dir)
    try:
        client = benchlib.client(port)
        record = client.submit("screen", payload, tenant="chaos")
        final = client.wait(record["id"], timeout=600.0)
    finally:
        stop_server(proc)
    got = (
        digest(final["result"]["matrix"])
        if final["status"] == "done" else None
    )
    return {
        "status": final["status"],
        "identical": got == oracle,
    }


def leg_cancel_storm(payload: dict, oracle: str) -> dict:
    """Cancel half a burst of screen jobs mid-flight; everything must
    settle exactly once and the survivors must match the oracle."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-storm-") as tmp:
        proc, port = start_server(
            tmp, env={"REPRO_SERVICE_TENANT_JOBS": "1"}
        )
        try:
            client = benchlib.client(port)
            # The screens queue behind the blocker (one job per tenant
            # at a time), so every cancel lands on a queued job.
            blocker = _start_blocker(client, "storm")
            jobs = [
                client.submit("screen", payload, tenant="storm")["id"]
                for _ in range(STORM_JOBS)
            ]
            doomed = jobs[1::2]
            for jid in doomed:
                client.cancel(jid)
            client.cancel(blocker)
            finals = {
                jid: client.wait(jid, timeout=600.0) for jid in jobs
            }
            # a cancelled job's SSE stream ends in `event: cancelled`
            sse_terminal = None
            for event, _data in client.watch(doomed[0], timeout=60.0):
                sse_terminal = event
        finally:
            stop_server(proc)
    survivors = [jid for jid in jobs if jid not in doomed]
    return {
        "jobs": len(jobs),
        "statuses": {jid: f["status"] for jid, f in finals.items()},
        "all_terminal": all(
            f["status"] in TERMINAL for f in finals.values()
        ),
        "cancelled": sum(
            finals[jid]["status"] == "cancelled" for jid in doomed
        ),
        "sse_terminal_event": sse_terminal,
        "survivors_identical": all(
            finals[jid]["status"] == "done"
            and digest(finals[jid]["result"]["matrix"]) == oracle
            for jid in survivors
        ),
    }


def leg_poison(cache_dir: str) -> dict:
    """A job that fails every attempt: quarantined FAILED after exactly
    RETRY_MAX attempts, and the terminal record survives a restart."""
    from repro.service.wire import structure_to_json
    from repro import zoo

    env = {
        "REPRO_FAULT_PLAN": ",".join(
            f"jobfail:{i}" for i in range(RETRY_MAX)
        ),
        "REPRO_SERVICE_RETRY_BACKOFF_MS": "10",
    }
    query = {"query": structure_to_json(zoo.q5()), "probe_depth": 2}
    proc, port = start_server(
        cache_dir, env=env,
        args=("--retry-max", str(RETRY_MAX)),
    )
    try:
        client = benchlib.client(port)
        poison = client.submit("decide", query, tenant="poison")
        final = client.wait(poison["id"], timeout=120.0)
        # the plan is spent (ordinals 0..N-1): a fresh job runs clean
        clean = client.wait(
            client.submit("decide", query, tenant="poison")["id"],
            timeout=120.0,
        )
    finally:
        stop_server(proc)

    proc, port = start_server(cache_dir, env=env)
    try:
        survived = benchlib.client(port).job(poison["id"])
    finally:
        stop_server(proc)
    return {
        "status": final["status"],
        "attempts": final["attempts"],
        "error": final.get("error"),
        "clean_status": clean["status"],
        "quarantined_exactly": (
            final["status"] == "failed"
            and final["attempts"] == RETRY_MAX
            and (final.get("error") or "").startswith("quarantined")
        ),
        "record_survives_restart": survived["status"] == "failed"
        and survived["attempts"] == RETRY_MAX,
    }


def leg_hung_cancel() -> dict:
    """A deep ungoverned probe (minutes of search) cancelled mid-run:
    the Budget cancel hook must settle it CANCELLED within seconds."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-hang-") as tmp:
        proc, port = start_server(tmp)
        try:
            client = benchlib.client(port)
            job_id = _start_blocker(client, "hang")
            time.sleep(0.5)  # let it descend into the search
            started = time.perf_counter()
            client.cancel(job_id)
            final = client.wait(job_id, timeout=60.0)
            latency = time.perf_counter() - started
        finally:
            stop_server(proc)
    return {
        "status": final["status"],
        "cancel_latency_s": latency,
        "within_bound": final["status"] == "cancelled"
        and latency < CANCEL_LATENCY_BOUND_S,
    }


# ----------------------------------------------------------------------
# Smoke (the CI liveness leg)
# ----------------------------------------------------------------------


def smoke() -> int:
    from repro import zoo
    from repro.service.wire import structure_to_json

    payload = _screen_payload(
        count=4, nodes=24, density=4.0, queries=8, size=8
    )
    oracle = _oracle_digest(payload)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        proc, port = start_server(
            tmp,
            env={
                "REPRO_FAULT_PLAN": "jobfail:0",
                "REPRO_SERVICE_RETRY_BACKOFF_MS": "10",
                "REPRO_SERVICE_TENANT_JOBS": "1",
            },
        )
        try:
            client = benchlib.client(port, timeout=30.0)
            # injected fault on the first execution: retried to done
            record = client.submit("screen", payload)
            final = client.wait(record["id"], timeout=120.0)
            assert final["status"] == "done", final
            assert final["attempts"] == 2, final
            assert digest(final["result"]["matrix"]) == oracle
            # cancel a queued job; its SSE stream ends in `cancelled`.
            # The blocker is about a second of work no earlier job
            # settled (a repeat of the screen above answers from the
            # store in milliseconds), so `doomed` is still queued behind
            # it when the cancel arrives.
            blocker = client.submit(
                "decide", {"query": structure_to_json(zoo.q2())}
            )
            doomed = client.submit("screen", payload)
            got = client.cancel(doomed["id"])
            assert got["status"] in ("cancelled", "running"), got
            events = list(client.watch(doomed["id"], timeout=60.0))
            assert events[-1][0] == "cancelled", events[-1]
            assert client.wait(blocker["id"])["status"] == "done"
            # SIGTERM: graceful drain, prompt exit, clean rc
            proc.send_signal(signal.SIGTERM)
            proc.wait(30)
            assert proc.returncode == 0, proc.returncode
        finally:
            stop_server(proc)
    print(
        "[bench_chaos] smoke OK: injected-fault retry (attempts=2), "
        "cancel streamed `event: cancelled`, SIGTERM drained cleanly"
    )
    return 0


# ----------------------------------------------------------------------


def main() -> int:
    parser = benchlib.parser(
        __doc__,
        "BENCH_chaos.json",
        smoke="CI liveness leg only: fault retry, cancel SSE, drain",
    )
    args = parser.parse_args()

    if args.smoke:
        return smoke()

    payload = _screen_payload()
    oracle = _oracle_digest(payload)
    print(f"[bench_chaos] oracle digest {oracle}")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        worker_kill = leg_worker_kill(payload, oracle)
        print(f"[bench_chaos] worker kill: {worker_kill}")
        sigkill = leg_sigkill(
            payload, oracle, str(Path(tmp) / "sigkill")
        )
        print(f"[bench_chaos] server SIGKILL: {sigkill}")
        sigterm = leg_sigterm(
            payload, oracle, str(Path(tmp) / "sigterm")
        )
        print(f"[bench_chaos] server SIGTERM: {sigterm}")
        bitflip = leg_bitflip(
            payload, oracle, str(Path(tmp) / "bitflip")
        )
        print(f"[bench_chaos] store bit-flip: {bitflip}")
        storm = leg_cancel_storm(payload, oracle)
        print(f"[bench_chaos] cancel storm: {storm}")
        poison = leg_poison(str(Path(tmp) / "poison"))
        print(f"[bench_chaos] poison job: {poison}")
        hung = leg_hung_cancel()
        print(f"[bench_chaos] hung-job cancel: {hung}")

    criteria = {
        "worker_kill_digest_identical": criterion(
            worker_kill["status"], worker_kill["identical"]
        ),
        "sigkill_both_jobs_settle_identical": criterion(
            sigkill["statuses"],
            sigkill["all_terminal"] and sigkill["identical"],
        ),
        "sigterm_admission_rejected_during_drain": criterion(
            sigterm["admission_during_drain"],
            sigterm["admission_during_drain"] == 503,
        ),
        "sigterm_exits_in_deadline": criterion(
            sigterm["exit_s"],
            sigterm["exited_in_deadline"] and sigterm["returncode"] == 0,
        ),
        "sigterm_work_settles_identical": criterion(
            sigterm["statuses"],
            sigterm["running_settled_before_exit"]
            and sigterm["identical"],
        ),
        "bitflip_recomputed_identical": criterion(
            bitflip["status"], bitflip["identical"]
        ),
        "cancel_storm_exactly_one_terminal_each": criterion(
            storm["statuses"],
            storm["all_terminal"]
            and storm["cancelled"] == len(storm["statuses"]) // 2
            and storm["sse_terminal_event"] == "cancelled"
            and storm["survivors_identical"],
        ),
        "poison_failed_after_exactly_n_attempts": criterion(
            {"attempts": poison["attempts"], "status": poison["status"]},
            poison["quarantined_exactly"]
            and poison["clean_status"] == "done"
            and poison["record_survives_restart"],
        ),
        "hung_job_cancelled_within_bound": criterion(
            hung["cancel_latency_s"], hung["within_bound"]
        ),
    }

    report = {
        "description": (
            "the supervised job service under injected faults, every "
            "leg against a live `repro serve` subprocess and compared "
            "to an unfaulted serial oracle: pool-worker SIGKILL, "
            "server SIGKILL (restart adopts the orphaned lease and "
            "replays checkpoints), SIGTERM graceful drain, on-disk "
            "checkpoint bit-flip, a cancel storm, a poison job "
            "quarantined after exactly retry-max attempts, and a "
            "hung job cancelled through the Budget hook"
        ),
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "queries": QUERY_COUNT,
            "query_size": QUERY_SIZE,
            "instances": FAMILY_COUNT,
            "nodes": FAMILY_NODES,
            "density": FAMILY_DENSITY,
            "retry_max": RETRY_MAX,
            "lease_ttl_ms": LEASE_TTL_MS,
        },
        "oracle_digest": oracle,
        "worker_kill": worker_kill,
        "sigkill": sigkill,
        "sigterm": sigterm,
        "bitflip": bitflip,
        "cancel_storm": storm,
        "poison": poison,
        "hung_cancel": hung,
        "criteria": criteria,
    }
    return benchlib.finish("bench_chaos", report, args)


if __name__ == "__main__":
    sys.exit(main())
