"""The service tier: wire codecs, tenant registry, job manager, HTTP.

Covers the four layers of :mod:`repro.service` bottom-up: JSON codecs
round-trip (structures by fingerprint, answers with UNKNOWN never
coerced), the session registry applies overlays and LRU-evicts with
``close()``, the job manager runs every kind with admission control
and durable records, and the asyncio HTTP front serves submit / get /
SSE / health / config / metrics end-to-end — including a simulated
restart that recovers jobs from the store.
"""

import json
import threading
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.errors import (
    Answer,
    Budget,
    JobCancelled,
    ResourceExhausted,
    WorkerFailure,
)
from repro.core.store import JOB_NS, LEASE_NS, DurableStore
from repro.core.structure import path_structure
from repro.service import (
    AdmissionError,
    JobManager,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SessionRegistry,
    wire,
)
from repro.service.jobs import Job, validate_payload
from repro.workloads import instance_family
from repro import zoo

QUERY = path_structure(["T", "", "F"])
FAMILY = instance_family(6, 8, 14, seed=3)


def sjson(structure):
    return wire.structure_to_json(structure)


def screen_payload(instances=FAMILY, queries=(QUERY,)):
    return {
        "queries": [sjson(q) for q in queries],
        "instances": [sjson(i) for i in instances],
    }


def base_config(**overrides):
    defaults = dict(workers=0, service_port=0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------


class TestWire:
    def test_structure_round_trip_preserves_fingerprint(self):
        for s in (QUERY, zoo.q5(), FAMILY[0]):
            back = wire.structure_from_json(sjson(s))
            assert back.fingerprint == s.fingerprint

    def test_structure_json_is_deterministic(self):
        assert json.dumps(sjson(QUERY)) == json.dumps(sjson(QUERY))

    def test_structure_from_json_rejects_garbage(self):
        for bad in (None, [], {"nodes": []}, {"unary": [["F"]]}):
            with pytest.raises(wire.WireError):
                wire.structure_from_json(bad)

    def test_answer_round_trip(self):
        for a in (True, False, Answer.TRUE, Answer.FALSE):
            encoded = wire.answer_to_json(a)
            assert isinstance(encoded, bool)
            assert wire.answer_from_json(encoded) == bool(a)
        encoded = wire.answer_to_json(Answer.unknown("fuel"))
        assert encoded == {"unknown": "fuel"}
        back = wire.answer_from_json(encoded)
        assert isinstance(back, Answer) and not back.known
        assert back.reason == "fuel"

    def test_answer_to_json_rejects_non_answers(self):
        with pytest.raises(wire.WireError):
            wire.answer_to_json("yes")

    def test_config_to_json_is_json_and_complete(self):
        config = base_config(cache_dir="/tmp/x")
        data = json.loads(json.dumps(wire.config_to_json(config)))
        assert data["workers"] == 0
        assert data["service_port"] == 0
        assert data["effective_workers"] == 0
        assert data["cache_path"].endswith("repro_store.sqlite")
        # every config field is present
        from dataclasses import fields

        for f in fields(config):
            assert f.name in data


# ----------------------------------------------------------------------
# Session registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_sessions_are_cached_per_tenant(self):
        with SessionRegistry(base_config()) as reg:
            assert reg.get("a") is reg.get("a")
            assert reg.get("a") is not reg.get("b")

    def test_lru_evicts_and_closes(self):
        with SessionRegistry(base_config(), capacity=2) as reg:
            a = reg.get("a")
            reg.get("b")
            reg.get("a")  # refresh a; b is now LRU
            reg.get("c")  # evicts b
            assert reg.tenants() == ["a", "c"]
            assert reg.evictions == 1
            assert reg.get("a") is a

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SessionRegistry(base_config(), capacity=0)

    def test_metrics_shape(self):
        with SessionRegistry(base_config()) as reg:
            reg.get("a")
            m = reg.metrics()
            assert m["live"] == 1 and "a" in m["tenants"]
            assert "hom_cache" in m["tenants"]["a"]


# ----------------------------------------------------------------------
# Job manager
# ----------------------------------------------------------------------


class TestJobManager:
    def manager(self, config=None, store=None):
        registry = SessionRegistry(config or base_config())
        return JobManager(registry, store=store)

    def test_validate_payload_rejects_bad_requests(self):
        with pytest.raises(wire.WireError):
            validate_payload("frobnicate", {})
        with pytest.raises(wire.WireError):
            validate_payload("decide", {})
        with pytest.raises(wire.WireError):
            validate_payload("evaluate", {"query": sjson(QUERY)})
        with pytest.raises(wire.WireError):
            validate_payload("screen", {"queries": [], "instances": []})

    def test_decide_evaluate_probe_screen_lifecycle(self):
        mgr = self.manager()
        try:
            jobs = {
                "decide": mgr.submit(
                    "decide", {"query": sjson(zoo.q5()), "probe_depth": 2}
                ),
                "evaluate": mgr.submit(
                    "evaluate",
                    {
                        "query": sjson(QUERY),
                        "data": sjson(FAMILY[0]),
                        "semiring": "count",
                    },
                ),
                "probe": mgr.submit(
                    "probe", {"query": sjson(zoo.q4()), "probe_depth": 2}
                ),
                "screen": mgr.submit("screen", screen_payload()),
            }
            for kind, job in jobs.items():
                assert job.wait(60), kind
                assert job.status == "done", (kind, job.error)
            assert jobs["decide"].result["bounded"] is True
            assert jobs["evaluate"].result["value"] == 1
            assert jobs["probe"].result["verdict"]
            matrix = jobs["screen"].result["matrix"]
            assert len(matrix) == 1 and len(matrix[0]) == len(FAMILY)
            assert all(isinstance(a, bool) for a in matrix[0])
            # screen emitted completion-ordered shard events that
            # jointly cover the family exactly once
            spans = sorted(
                (e["start"], e["stop"]) for e in jobs["screen"].events
            )
            assert spans[0][0] == 0
            assert spans[-1][1] == len(FAMILY)
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        finally:
            mgr.close()

    def test_failed_job_isolates_error(self):
        mgr = self.manager()
        try:
            # q1 has two solitary F nodes: OneCQ.from_structure raises
            job = mgr.submit("probe", {"query": sjson(zoo.q1())})
            assert job.wait(30)
            assert job.status == "failed"
            assert "ValueError" in job.error
            assert mgr.metrics()["failed"] == 1
        finally:
            mgr.close()

    def test_tenant_cap_queues_not_rejects(self):
        mgr = self.manager(
            base_config(service_tenant_jobs=1, service_threads=4)
        )
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            j1 = mgr.submit("decide", {"query": sjson(QUERY)})
            j2 = mgr.submit("decide", {"query": sjson(QUERY)})
            deadline = time.monotonic() + 5
            while j1.status != "running" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert j1.status == "running"
            assert j2.status == "queued"  # capped, not rejected
            gate.set()
            assert j1.wait(10) and j2.wait(10)
            assert j1.status == j2.status == "done"
        finally:
            gate.set()
            mgr.close()

    def test_backlog_overflow_rejects_with_admission_error(self):
        mgr = self.manager(
            base_config(service_queue_depth=1, service_threads=1)
        )
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            mgr.submit("decide", {"query": sjson(QUERY)})
            with pytest.raises(AdmissionError):
                mgr.submit("decide", {"query": sjson(QUERY)})
            assert mgr.metrics()["rejected"] == 1
        finally:
            gate.set()
            mgr.close()

    def test_governed_unknown_preserved(self):
        mgr = self.manager(base_config(hom_fuel=1))
        try:
            job = mgr.submit(
                "evaluate",
                {"query": sjson(zoo.q2()), "data": sjson(zoo.d2())},
            )
            assert job.wait(30)
            assert job.status == "done"
            assert job.result["value"] is None
            assert job.result["answer"] == {"unknown": "fuel"}
        finally:
            mgr.close()

    def test_records_persist_and_recover(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        mgr = self.manager(config, store=store)
        try:
            job = mgr.submit("screen", screen_payload())
            assert job.wait(60) and job.status == "done"
            record = store.job_get(job.id)
            assert record["status"] == "done"
            matrix = record["result"]["matrix"]
        finally:
            mgr.close()
        # a fresh manager over the same store serves the settled job
        # and re-enqueues an in-flight one under its original id
        crashed = Job("deadcafe0001", "default", "screen", screen_payload())
        store.job_put(crashed.id, crashed.snapshot())
        mgr2 = self.manager(config, store=store)
        try:
            assert mgr2.recover() == 1
            settled = mgr2.get(job.id)
            assert settled is not None and settled.status == "done"
            assert settled.result["matrix"] == matrix
            resumed = mgr2.get("deadcafe0001")
            assert resumed.wait(60) and resumed.status == "done"
            assert resumed.result["matrix"] == matrix
        finally:
            mgr2.close()
            store.close()


# ----------------------------------------------------------------------
# HTTP front
# ----------------------------------------------------------------------


def collect_watch(client, job_id):
    shards, final = [], None
    for event, data in client.watch(job_id):
        if event == "shard":
            shards.append(data)
        else:
            final = data
    return shards, final


class TestServiceHTTP:
    def test_end_to_end(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        with ServiceServer(config) as server:
            client = ServiceClient(server.host, server.port)

            health = client.healthz()
            assert health["status"] == "ok"

            served = client.config()
            assert served == wire.config_to_json(config)

            record = client.submit("screen", screen_payload())
            assert record["status"] in ("queued", "running", "done")
            assert "payload" not in record

            shards, final = collect_watch(client, record["id"])
            assert final["status"] == "done"
            spans = sorted((s["start"], s["stop"]) for s in shards)
            assert spans[0][0] == 0 and spans[-1][1] == len(FAMILY)
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

            got = client.job(record["id"])
            assert got["status"] == "done"
            assert got["progress"] == {
                "done": len(FAMILY),
                "total": len(FAMILY),
            }

            metrics = client.metrics()
            assert metrics["service"]["completed"] == 1
            assert metrics["registry"]["live"] == 1

    def test_error_statuses(self, tmp_path):
        with ServiceServer(base_config(cache_dir=str(tmp_path))) as server:
            client = ServiceClient(server.host, server.port)
            with pytest.raises(ServiceError) as exc:
                client.job("nope")
            assert exc.value.status == 404
            with pytest.raises(ServiceError) as exc:
                client.submit("frobnicate", {})
            assert exc.value.status == 400
            with pytest.raises(ServiceError) as exc:
                client.submit("decide", {})
            assert exc.value.status == 400
            with pytest.raises(ServiceError) as exc:
                client._request("GET", "/nope")
            assert exc.value.status == 404

    def test_backlog_overflow_is_429(self, tmp_path):
        config = base_config(
            cache_dir=str(tmp_path), service_queue_depth=0
        )
        with ServiceServer(config) as server:
            client = ServiceClient(server.host, server.port)
            with pytest.raises(ServiceError) as exc:
                client.submit("decide", {"query": sjson(QUERY)})
            assert exc.value.status == 429

    def test_unknown_survives_the_wire(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path), hom_fuel=1)
        with ServiceServer(config) as server:
            client = ServiceClient(server.host, server.port)
            record = client.submit(
                "evaluate",
                {"query": sjson(zoo.q2()), "data": sjson(zoo.d2())},
            )
            final = client.wait(record["id"])
            assert final["status"] == "done"
            assert final["result"]["answer"] == {"unknown": "fuel"}
            decoded = wire.answer_from_json(final["result"]["answer"])
            assert isinstance(decoded, Answer) and not decoded.known

    def test_restart_recovers_jobs_from_store(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        payload = screen_payload()
        with ServiceServer(config) as first:
            client = ServiceClient(first.host, first.port)
            record = client.submit("screen", payload)
            done = client.wait(record["id"])
            matrix = done["result"]["matrix"]
        # simulate a crash with an in-flight job left in the store
        store = DurableStore.open(tmp_path, config.cache_bytes)
        crashed = Job("deadcafe0002", "default", "screen", payload)
        store.job_put(crashed.id, crashed.snapshot())
        store.close()
        with ServiceServer(config) as second:
            client = ServiceClient(second.host, second.port)
            # the settled job is served from its record, SSE included
            served = client.job(record["id"])
            assert served["status"] == "done"
            assert served["result"]["matrix"] == matrix
            shards, final = collect_watch(client, record["id"])
            assert final["status"] == "done" and shards
            # the in-flight job re-ran (from checkpoints) to the same
            # matrix under its original id
            resumed = client.wait("deadcafe0002")
            assert resumed["status"] == "done"
            assert resumed["result"]["matrix"] == matrix
            assert client.metrics()["service"]["recovered"] == 1


# ----------------------------------------------------------------------
# Supervision: cancellation, bounded retry, leases, drain
# ----------------------------------------------------------------------


def make_manager(config=None, store=None):
    registry = SessionRegistry(config or base_config())
    return JobManager(registry, store=store)


def wait_status(job, status, timeout=5.0):
    deadline = time.monotonic() + timeout
    while job.status != status and time.monotonic() < deadline:
        time.sleep(0.005)
    return job.status == status


class TestBudgetCancelHook:
    def test_checkpoint_raises_job_cancelled(self):
        flag = threading.Event()
        b = Budget(cancel=flag.is_set)
        b.checkpoint()  # not yet flagged
        flag.set()
        with pytest.raises(JobCancelled):
            b.checkpoint()

    def test_charge_polls_the_hook_periodically(self):
        flag = threading.Event()
        flag.set()
        b = Budget(cancel=flag.is_set)
        with pytest.raises(JobCancelled):
            for _ in range(5000):  # > the periodic check interval
                b.charge()

    def test_job_cancelled_is_not_resource_exhaustion(self):
        # Governed surfaces turn ResourceExhausted into UNKNOWN partial
        # answers; a cancellation must escape that net entirely.
        assert not issubclass(JobCancelled, ResourceExhausted)

    def test_active_budget_is_thread_local(self):
        # The session's budget slot is per-thread: two concurrent
        # operations each install and see their own budget, never the
        # sibling's (whose cancel hook belongs to a different job).
        from repro.session import Session

        session = Session(base_config())
        barrier = threading.Barrier(2, timeout=10)
        own_budget_seen = []

        def operation():
            assert session.active_budget is None
            budget = Budget(cancel=lambda: False)
            session.active_budget = budget
            barrier.wait()  # both threads now hold an installed budget
            own_budget_seen.append(session.active_budget is budget)
            session.active_budget = None

        try:
            threads = [
                threading.Thread(target=operation) for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert own_budget_seen == [True, True]
            assert session.active_budget is None
        finally:
            session.close()


class TestCancellation:
    def test_cancel_queued_job_settles_immediately(self):
        mgr = make_manager(
            base_config(service_tenant_jobs=1, service_threads=4)
        )
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            j1 = mgr.submit("decide", {"query": sjson(QUERY)})
            j2 = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(j1, "running")
            assert j2.status == "queued"
            got = mgr.cancel(j2.id)
            assert got is j2 and j2.status == "cancelled"
            assert j2.error == "cancelled before start"
            # idempotent: cancelling a settled job changes nothing
            assert mgr.cancel(j2.id).status == "cancelled"
            gate.set()
            assert j1.wait(10) and j1.status == "done"
            assert mgr.metrics()["cancelled"] == 1
        finally:
            gate.set()
            mgr.close()

    def test_cancel_unknown_job_returns_none(self):
        mgr = make_manager()
        try:
            assert mgr.cancel("nope") is None
        finally:
            mgr.close()

    def test_cancel_does_not_leak_into_sibling_job(self):
        # Regression: with the budget slot shared session-wide, a
        # concurrent same-tenant job picked up the cancelled job's
        # budget and settled CANCELLED itself.  The slot is thread-local
        # now, so the sibling installs its own budget and survives.
        from repro.service.jobs import _job_scope

        mgr = make_manager(base_config(service_tenant_jobs=2))
        victim_running = threading.Event()
        victim_release = threading.Event()

        def fake_execute(job):
            session = mgr.registry.get(job.tenant)
            with _job_scope(session, job):
                budget = session.active_budget
                assert budget is not None, "scope must install a budget"
                if job.payload.get("who") == "victim":
                    victim_running.set()
                    victim_release.wait(15)
                    budget.checkpoint()  # raises JobCancelled here
                    return {"survived": True}
                # the victim is running *and flagged* right now; this
                # job's own budget must not observe that cancel
                budget.checkpoint()
                return {"ok": True}

        mgr._execute = fake_execute
        try:
            victim = mgr.submit(
                "decide", {"query": sjson(QUERY), "who": "victim"}
            )
            assert victim_running.wait(10)
            mgr.cancel(victim.id)
            sibling = mgr.submit("decide", {"query": sjson(QUERY)})
            assert sibling.wait(15) and sibling.status == "done"
            assert sibling.result == {"ok": True}
            victim_release.set()
            assert victim.wait(15) and victim.status == "cancelled"
            assert mgr.metrics()["cancelled"] == 1
        finally:
            victim_release.set()
            mgr.close()

    def test_cancel_between_shards_keeps_checkpoints(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        mgr = make_manager(config, store=store)
        try:
            session = mgr.registry.get("default")
            real_screen = session.screen
            holder: dict = {}
            ready = threading.Event()

            def cancel_after_first(queries, instances, **kw):
                for shard in real_screen(queries, instances, **kw):
                    yield shard
                    assert ready.wait(10)
                    mgr.cancel(holder["id"])

            session.screen = cancel_after_first
            job = mgr.submit("screen", screen_payload())
            holder["id"] = job.id
            ready.set()
            assert job.wait(30)
            assert job.status == "cancelled"
            assert "cancelled between shards" in job.error
            # the settled shard streamed; nothing after the cancel did
            assert len(job.events) == 1
            assert job.progress_done < job.progress_total
            record = store.job_get(job.id)
            assert record["status"] == "cancelled"
            # the settled span is checkpointed: a resubmission replays
            # it from disk and completes to the full matrix
            session.screen = real_screen
            redo = mgr.submit("screen", screen_payload())
            assert redo.wait(60) and redo.status == "done"
            assert len(redo.result["matrix"][0]) == len(FAMILY)
        finally:
            mgr.close()
            store.close()


class TestRetryQuarantine:
    def retry_config(self, **overrides):
        return base_config(
            service_retry_max=3, service_retry_backoff_ms=1, **overrides
        )

    def test_transient_failure_retries_then_succeeds(self):
        mgr = make_manager(self.retry_config())
        calls = []

        def flaky(job):
            calls.append(job.id)
            if len(calls) == 1:
                raise WorkerFailure("worker lost mid-shard")
            return {"ok": True}

        mgr._execute = flaky
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert job.wait(30)
            assert job.status == "done" and job.result == {"ok": True}
            assert job.attempts == 2
            assert mgr.metrics()["retried"] == 1
            assert mgr.metrics()["quarantined"] == 0
        finally:
            mgr.close()

    def test_poison_job_quarantined_after_max_attempts(self):
        mgr = make_manager(self.retry_config())

        def poison(job):
            raise WorkerFailure("boom")

        mgr._execute = poison
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert job.wait(30)
            assert job.status == "failed"
            assert job.attempts == 3
            assert job.error.startswith("quarantined after 3 attempts")
            m = mgr.metrics()
            assert m["quarantined"] == 1 and m["retried"] == 2
        finally:
            mgr.close()

    def test_jobfail_fault_plan_drives_real_quarantine(self):
        # The service-tier fault mode: the ordinal-th _execute call
        # raises WorkerFailure, so a plan covering every retry of the
        # first job quarantines it while a later job runs clean.
        mgr = make_manager(
            self.retry_config(
                fault_plan=(("jobfail", 0), ("jobfail", 1), ("jobfail", 2))
            )
        )
        try:
            poison = mgr.submit("decide", {"query": sjson(QUERY)})
            assert poison.wait(30)
            assert poison.status == "failed" and poison.attempts == 3
            assert "injected job fault" in poison.error
            clean = mgr.submit("decide", {"query": sjson(zoo.q5())})
            assert clean.wait(30) and clean.status == "done"
        finally:
            mgr.close()

    def test_retry_resets_stale_events_and_progress(self):
        # A screen job that streamed shards before a transient failure
        # must not keep them across the retry: the re-run replays the
        # settled prefix from its checkpoints and re-emits it, so stale
        # events would stream every shard twice and push progress past
        # total.
        mgr = make_manager(self.retry_config())
        attempts = []

        def flaky_screen(job):
            attempts.append(job.id)
            half = job.progress_total // 2
            job.add_event({"start": 0, "stop": half}, advance=half)
            if len(attempts) == 1:
                raise WorkerFailure("worker lost mid-screen")
            job.add_event(
                {"start": half, "stop": job.progress_total},
                advance=job.progress_total - half,
            )
            return {"matrix": [[]]}

        mgr._execute = flaky_screen
        try:
            job = mgr.submit("screen", screen_payload())
            assert job.wait(30) and job.status == "done"
            assert job.attempts == 2
            assert job.progress_done == job.progress_total
            half = job.progress_total // 2
            spans = [(e["start"], e["stop"]) for e in job.events]
            assert spans == [(0, half), (half, job.progress_total)]
        finally:
            mgr.close()

    def test_deterministic_error_fails_on_first_attempt(self):
        mgr = make_manager(self.retry_config())

        def buggy(job):
            raise ValueError("this will never work")

        mgr._execute = buggy
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert job.wait(30)
            assert job.status == "failed" and job.attempts == 1
            assert mgr.metrics()["retried"] == 0
        finally:
            mgr.close()

    def test_backoff_is_exponential_capped_and_jittered(self):
        mgr = make_manager(
            base_config(service_retry_backoff_ms=1000)
        )
        try:
            for attempts, nominal in ((1, 1.0), (2, 2.0), (3, 4.0)):
                delay = mgr._backoff_s(attempts)
                assert nominal * 0.5 <= delay < nominal
            assert mgr._backoff_s(50) <= 30.0  # capped, whatever 2^49 says
        finally:
            mgr.close()


class TestLeases:
    def test_running_job_holds_lease_until_settled(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        mgr = make_manager(config, store=store)
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(job, "running")
            lease = store.lease_get(job.id)
            assert lease is not None and lease["owner"] == mgr.owner
            assert lease["expires"] > time.time()
            gate.set()
            assert job.wait(10) and job.status == "done"
            deadline = time.monotonic() + 5
            while store.lease_get(job.id) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert store.lease_get(job.id) is None
        finally:
            gate.set()
            mgr.close()
            store.close()

    def test_recover_registers_foreign_lease_read_only(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        running = Job("deadcafe0010", "default", "decide",
                      {"query": sjson(QUERY)})
        running.status = "running"
        store.job_put(running.id, running.snapshot())
        store.lease_acquire(running.id, "sibling-abc", ttl_s=60.0)
        mgr = make_manager(config, store=store)
        try:
            assert mgr.recover() == 0
            # visible, but not executing here: a live sibling owns it
            ghost = mgr.get(running.id)
            assert ghost is not None and ghost.status == "running"
            m = mgr.metrics()
            assert m["lease_skips"] == 1 and m["running"] == 0
            lease = store.lease_get(running.id)
            assert lease["owner"] == "sibling-abc"  # untouched
        finally:
            mgr.close()
            store.close()

    def test_orphaned_foreign_lease_adopted_after_expiry(self, tmp_path):
        config = base_config(
            cache_dir=str(tmp_path), service_lease_ttl_ms=50
        )
        store = DurableStore.open(tmp_path, config.cache_bytes)
        orphan = Job("deadcafe0014", "default", "decide",
                     {"query": sjson(zoo.q5()), "probe_depth": 2})
        orphan.status = "running"
        store.job_put(orphan.id, orphan.snapshot())
        # an owner that just died: its lease is live now but will
        # never be renewed again
        store.lease_acquire(orphan.id, "dying-sibling", ttl_s=0.3)
        mgr = make_manager(config, store=store)
        try:
            assert mgr.recover() == 0
            job = mgr.get(orphan.id)
            assert job is not None and job.status == "running"
            # once the lease lapses the heartbeat sweep adopts the job
            # (the same Job object, so waiters see it settle)
            assert job.wait(30) and job.status == "done"
            assert mgr.metrics()["adopted"] == 1
        finally:
            mgr.close()
            store.close()

    def test_run_defers_to_live_foreign_lease(self, tmp_path):
        # _run must honour a refused lease claim: the job parks as a
        # foreign placeholder instead of double-executing, then the
        # heartbeat sweep adopts and runs it once the sibling's lease
        # lapses unrenewed.
        config = base_config(
            cache_dir=str(tmp_path), service_lease_ttl_ms=50
        )
        store = DurableStore.open(tmp_path, config.cache_bytes)
        mgr = make_manager(config, store=store)
        try:
            store.lease_acquire("deadcafe0042", "live-sibling", ttl_s=0.8)
            job = mgr.submit(
                "decide",
                {"query": sjson(zoo.q5()), "probe_depth": 2},
                job_id="deadcafe0042",
            )
            deadline = time.monotonic() + 5
            while (
                mgr.metrics()["lease_skips"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            m = mgr.metrics()
            assert m["lease_skips"] == 1 and m["running"] == 0
            # the sibling dies (never renews): the sweep takes over
            assert job.wait(30) and job.status == "done"
            assert mgr.metrics()["adopted"] == 1
        finally:
            mgr.close()
            store.close()

    def test_adoption_absorbs_foreign_terminal_record(self, tmp_path):
        # An owner that settles the job before releasing its lease must
        # have its terminal record absorbed, never re-executed.
        config = base_config(
            cache_dir=str(tmp_path), service_lease_ttl_ms=50
        )
        store = DurableStore.open(tmp_path, config.cache_bytes)
        foreign = Job("deadcafe0099", "default", "decide",
                      {"query": sjson(QUERY)})
        foreign.status = "running"
        store.job_put(foreign.id, foreign.snapshot())
        store.lease_acquire(foreign.id, "sibling-abc", ttl_s=60.0)
        mgr = make_manager(config, store=store)
        try:
            assert mgr.recover() == 0
            ghost = mgr.get(foreign.id)
            assert ghost is not None and ghost.status == "running"
            # the sibling finishes: terminal record landed, lease gone
            record = foreign.snapshot()
            record["status"] = "done"
            record["result"] = {"ok": True}
            store.job_put(foreign.id, record)
            store.lease_release(foreign.id, "sibling-abc")
            assert ghost.wait(10) and ghost.status == "done"
            assert ghost.result == {"ok": True}
            assert mgr.metrics()["adopted"] == 0
            assert store.lease_get(foreign.id) is None
        finally:
            mgr.close()
            store.close()

    def test_recover_adopts_job_with_expired_lease(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        orphan = Job("deadcafe0011", "default", "decide",
                     {"query": sjson(zoo.q5()), "probe_depth": 2})
        orphan.status = "running"
        store.job_put(orphan.id, orphan.snapshot())
        # an owner that crashed: its lease expired long ago
        store.lease_acquire(
            orphan.id, "dead-owner", ttl_s=1.0, now=time.time() - 60
        )
        mgr = make_manager(config, store=store)
        try:
            assert mgr.recover() == 1
            adopted = mgr.get(orphan.id)
            assert adopted is not None
            assert adopted.wait(30) and adopted.status == "done"
        finally:
            mgr.close()
            store.close()

    def test_recover_quarantines_persisted_attempt_count(self, tmp_path):
        config = base_config(
            cache_dir=str(tmp_path), service_retry_max=3
        )
        store = DurableStore.open(tmp_path, config.cache_bytes)
        poison = Job("deadcafe0012", "default", "decide",
                     {"query": sjson(QUERY)})
        poison.status = "running"
        poison.attempts = 3  # crashed the service three times already
        store.job_put(poison.id, poison.snapshot())
        mgr = make_manager(config, store=store)
        try:
            assert mgr.recover() == 0
            job = mgr.get(poison.id)
            assert job is not None and job.status == "failed"
            assert job.error.startswith("quarantined after 3 attempts")
            assert mgr.metrics()["quarantined"] == 1
            assert store.job_get(poison.id)["status"] == "failed"
        finally:
            mgr.close()
            store.close()

    def test_stalled_executor_lease_lapses(self, tmp_path):
        # A thread that stops beating must become observable: the
        # heartbeat refuses to renew it, so its lease expires on disk.
        config = base_config(
            cache_dir=str(tmp_path), service_lease_ttl_ms=50
        )
        store = DurableStore.open(tmp_path, config.cache_bytes)
        mgr = make_manager(config, store=store)
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(30), {})[1]  # never beats
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(job, "running")
            # stall threshold is 6 TTLs = 0.3s; past it the lease lapses
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                lease = store.lease_get(job.id)
                if lease is not None and lease["expires"] < time.time():
                    break
                time.sleep(0.05)
            lease = store.lease_get(job.id)
            assert lease is not None and lease["expires"] < time.time()
        finally:
            gate.set()
            mgr.close()
            store.close()

    def test_lease_store_helpers(self, tmp_path):
        store = DurableStore.open(tmp_path, 1 << 20)
        assert store.lease_acquire("j", "a", ttl_s=60)
        assert not store.lease_acquire("j", "b", ttl_s=60)  # held by a
        assert store.lease_acquire("j", "a", ttl_s=60)  # reentrant
        assert store.lease_renew("j", "a", ttl_s=60)
        assert not store.lease_renew("j", "b", ttl_s=60)
        store.lease_release("j", "b")  # wrong owner: must not clobber
        assert store.lease_get("j")["owner"] == "a"
        store.lease_release("j", "a")
        assert store.lease_get("j") is None
        assert not store.lease_renew("j", "a", ttl_s=60)  # gone
        # an expired lease is free for the taking
        assert store.lease_acquire("k", "a", ttl_s=1, now=time.time() - 60)
        assert store.lease_acquire("k", "b", ttl_s=60)
        assert store.lease_list()["k"]["owner"] == "b"
        assert LEASE_NS in dict(store.stats().namespaces)
        store.close()


class TestDrainAndShed:
    def test_drain_stops_admission_with_503(self):
        mgr = make_manager(base_config(service_drain_ms=5000))
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            running = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(running, "running")
            mgr.begin_drain()
            with pytest.raises(AdmissionError) as exc:
                mgr.submit("decide", {"query": sjson(QUERY)})
            assert exc.value.status == 503
            assert exc.value.retry_after is not None
            assert mgr.metrics()["draining"] is True
            gate.set()
            assert mgr.drain(5.0) is True
            assert running.status == "done"
        finally:
            gate.set()
            mgr.close()

    def test_drain_deadline_reports_stuck_jobs(self):
        mgr = make_manager()
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(job, "running")
            assert mgr.drain(0.2) is False  # still running at deadline
        finally:
            gate.set()
            mgr.close()

    def test_close_records_running_jobs_interrupted(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        mgr = make_manager(config, store=store)
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(5), {})[1]
        try:
            job = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(job, "running")
        finally:
            mgr.close()
        record = store.job_get(job.id)
        assert record["status"] == "interrupted"
        assert store.lease_get(job.id) is None  # released for the heir
        gate.set()
        time.sleep(0.1)  # let the worker thread unwind
        store.close()

    def test_recover_requeues_interrupted_record(self, tmp_path):
        config = base_config(cache_dir=str(tmp_path))
        store = DurableStore.open(tmp_path, config.cache_bytes)
        lost = Job("deadcafe0013", "default", "decide",
                   {"query": sjson(zoo.q5()), "probe_depth": 2})
        lost.attempts = 1
        record = lost.snapshot()
        record["status"] = "interrupted"
        store.job_put(lost.id, record)
        mgr = make_manager(config, store=store)
        try:
            assert mgr.recover() == 1
            job = mgr.get(lost.id)
            assert job.wait(30) and job.status == "done"
            assert job.attempts == 2  # the persisted attempt counted
        finally:
            mgr.close()
            store.close()

    def test_backlog_full_sheds_queued_longest(self):
        mgr = make_manager(
            base_config(
                service_queue_depth=2,
                service_tenant_jobs=1,
                service_threads=2,
            )
        )
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            j1 = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(j1, "running")
            j2 = mgr.submit("decide", {"query": sjson(QUERY)})
            assert j2.status == "queued"
            j3 = mgr.submit("decide", {"query": sjson(QUERY)})
            # j2 waited longest; it was shed to make room for j3
            assert j2.status == "failed"
            assert j2.error == "shed: backlog full"
            assert mgr.metrics()["shed"] == 1
            gate.set()
            assert j1.wait(10) and j3.wait(10)
            assert j1.status == j3.status == "done"
        finally:
            gate.set()
            mgr.close()

    def test_shed_skips_already_settled_candidate(self):
        # Regression: the shed transition used to happen outside the
        # manager lock, so a cancel racing the popleft could have its
        # terminal CANCELLED overwritten by FAILED (a double settle).
        mgr = make_manager(
            base_config(
                service_queue_depth=2,
                service_tenant_jobs=1,
                service_threads=2,
            )
        )
        gate = threading.Event()
        mgr._execute = lambda job: (gate.wait(10), {})[1]
        try:
            running = mgr.submit("decide", {"query": sjson(QUERY)})
            assert wait_status(running, "running")
            queued = mgr.submit("decide", {"query": sjson(QUERY)})
            assert queued.status == "queued"
            # simulate the race window: the candidate settles while
            # still sitting in the queue
            queued._transition("cancelled")
            overflow = mgr.submit("decide", {"query": sjson(QUERY)})
            assert queued.status == "cancelled"  # never flipped to failed
            assert mgr.metrics()["shed"] == 0
            gate.set()
            assert running.wait(10) and overflow.wait(10)
            assert running.status == overflow.status == "done"
        finally:
            gate.set()
            mgr.close()


# ----------------------------------------------------------------------
# Supervision over HTTP: cancel route, SSE cursor, drain 503, client
# ----------------------------------------------------------------------


class TestSupervisionHTTP:
    def test_cancel_route_and_cancelled_sse_frame(self, tmp_path):
        config = base_config(
            cache_dir=str(tmp_path), service_tenant_jobs=1
        )
        with ServiceServer(config) as server:
            client = ServiceClient(server.host, server.port)
            gate = threading.Event()
            server.manager._execute = lambda job: (gate.wait(10), {})[1]
            try:
                first = client.submit("decide", {"query": sjson(QUERY)})
                queued = client.submit("decide", {"query": sjson(QUERY)})
                record = client.cancel(queued["id"])
                assert record["status"] == "cancelled"
                events = list(client.watch(queued["id"]))
                assert events[-1][0] == "cancelled"
                assert events[-1][1]["status"] == "cancelled"
                got = client.job(queued["id"])
                assert got["status"] == "cancelled"
                assert got["error"] == "cancelled before start"
                with pytest.raises(ServiceError) as exc:
                    client.cancel("nope")
                assert exc.value.status == 404
            finally:
                gate.set()
            assert client.wait(first["id"])["status"] == "done"

    def test_sse_cursor_skips_replayed_events(self, tmp_path):
        with ServiceServer(base_config(cache_dir=str(tmp_path))) as server:
            client = ServiceClient(server.host, server.port)
            record = client.submit("screen", screen_payload())
            shards, final = collect_watch(client, record["id"])
            assert final["status"] == "done" and len(shards) >= 2
            # re-watch from a mid-stream cursor: only the suffix replays
            tail = list(
                client._watch_once(record["id"], len(shards) - 1, 30.0)
            )
            tail_shards = [d for e, d in tail if e == "shard"]
            assert tail_shards == shards[-1:]
            assert tail[-1][0] == "done"

    def test_draining_server_sends_503_with_retry_after(self, tmp_path):
        import http.client as hc

        with ServiceServer(base_config(cache_dir=str(tmp_path))) as server:
            server.manager.begin_drain()
            client = ServiceClient(server.host, server.port)
            with pytest.raises(ServiceError) as exc:
                client.submit("decide", {"query": sjson(QUERY)})
            assert exc.value.status == 503
            assert client.healthz()["status"] == "draining"
            conn = hc.HTTPConnection(server.host, server.port, timeout=10)
            try:
                conn.request(
                    "POST", "/v1/jobs",
                    body=json.dumps(
                        {"kind": "decide",
                         "payload": {"query": sjson(QUERY)}}
                    ),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 503
                assert int(response.getheader("Retry-After")) >= 1
            finally:
                conn.close()


class TestClientResilience:
    def test_request_retries_transient_connection_errors(self):
        client = ServiceClient(retries=3, retry_backoff=0.001)
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            if len(calls) < 3:
                raise ConnectionRefusedError("server restarting")
            return {"ok": True}

        client._request_once = flaky
        assert client._request("GET", "/healthz") == {"ok": True}
        assert len(calls) == 3

    def test_request_gives_up_after_retry_budget(self):
        client = ServiceClient(retries=2, retry_backoff=0.001)

        def down(method, path, payload=None):
            raise ConnectionRefusedError("still down")

        client._request_once = down
        with pytest.raises(ConnectionRefusedError):
            client._request("GET", "/healthz")

    def test_watch_reconnects_from_last_cursor(self):
        client = ServiceClient(retries=3, retry_backoff=0.001)
        cursors = []

        def torn_stream(job_id, cursor, timeout):
            cursors.append(cursor)
            if len(cursors) == 1:
                yield "shard", {"start": 0, "stop": 1}
                raise ConnectionResetError("server restarted mid-stream")
            assert cursor == 1  # resumed exactly past the seen shard
            yield "shard", {"start": 1, "stop": 2}
            yield "done", {"status": "done"}

        client._watch_once = torn_stream
        events = list(client.watch("j", timeout=10.0))
        assert [e for e, _ in events] == ["shard", "shard", "done"]
        assert cursors == [0, 1]

    def test_watch_gives_up_without_progress(self):
        client = ServiceClient(retries=1, retry_backoff=0.001)

        def dead(job_id, cursor, timeout):
            raise ConnectionRefusedError("gone")
            yield  # pragma: no cover

        client._watch_once = dead
        with pytest.raises(ServiceError) as exc:
            list(client.watch("j", timeout=10.0))
        assert exc.value.status == 504


class TestJobNamespaceHelpers:
    def test_job_roundtrip_and_delete(self, tmp_path):
        store = DurableStore.open(tmp_path, 1 << 20)
        assert store.job_get("j1") is None
        store.job_put("j1", {"status": "queued"})
        store.job_put("j2", {"status": "done"})
        assert store.job_get("j1") == {"status": "queued"}
        assert set(store.job_list()) == {"j1", "j2"}
        store.job_delete("j1")
        store.job_delete("j1")  # idempotent
        assert store.job_get("j1") is None
        assert set(store.job_list()) == {"j2"}
        # job rows live in their own namespace
        assert JOB_NS in dict(store.stats().namespaces)
        store.close()
