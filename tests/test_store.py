"""The durable state tier: crash-safe persistence, corruption handling,
and checkpoint/resume for screens and probes.

Four layers under test:

* **The key-value store itself** — round-trips across process-like
  reopens, checksummed reads, FIFO pruning, namespace maintenance.
* **Corruption discipline** — bit-flipped rows are dropped and treated
  as misses (never believed), truncated or version-skewed files are
  quarantined and rebuilt, strict durability raises instead, and an
  unusable directory degrades the session to memory-only.
* **Sharing** — pool workers share the file safely.
* **Checkpoint/resume** — a screen or probe killed mid-run (including
  a real ``kill -9`` of the parent) resumes in a fresh process with
  answers identical to an uninterrupted serial run, skipping the
  checkpointed work: a replay starts no hom search.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import EngineConfig, OneCQ, Session, zoo
from repro.core.boundedness import probe_boundedness
from repro.core.errors import StoreCorruption
from repro.core.runtime import parallel_screen
from repro.core.store import (
    MISS,
    DurableStore,
    SCHEMA_VERSION,
    op_digest,
    resolve_store_path,
)
from repro.core.structure import path_structure
from repro.workloads import instance_family

SRC = str(Path(__file__).resolve().parent.parent / "src")

QUERIES = [path_structure(["T", "", "F"]), path_structure(["T", "F"])]
FAMILY = instance_family(12, 14, 26, seed=31)


def oracle_screen(queries, family):
    with Session(EngineConfig(workers=1)) as s:
        return [
            [s.has_homomorphism(q, d) for d in family] for q in queries
        ]


def open_store(tmp_path, **kwargs):
    kwargs.setdefault("cache_bytes", 1 << 20)
    return DurableStore.open(tmp_path / "cache", **kwargs)


# ----------------------------------------------------------------------
# The key-value tier
# ----------------------------------------------------------------------


class TestKeyValueTier:
    def test_round_trip_across_reopen(self, tmp_path):
        store = open_store(tmp_path)
        store.put("ns", ("k", 1), {"answer": True}, flush=True)
        store.put("ns", ("k", 2), [1, 2, 3])
        store.close()  # close flushes the buffered put too
        again = open_store(tmp_path)
        assert again.get("ns", ("k", 1)) == {"answer": True}
        assert again.get("ns", ("k", 2)) == [1, 2, 3]
        assert again.get("ns", ("k", 3)) is MISS
        assert again.get("other", ("k", 1)) is MISS
        again.close()

    def test_buffered_put_visible_before_flush(self, tmp_path):
        store = open_store(tmp_path)
        store.put("ns", "pending", 42)
        assert store.get("ns", "pending") == 42
        store.close()

    def test_write_rows_is_immediately_durable(self, tmp_path):
        store = open_store(tmp_path)
        store.write_rows("ckpt:x", [(0, True), (1, False)])
        # A *different* handle over the same file sees the rows without
        # any flush/close on the writer: they were committed.
        reader = open_store(tmp_path)
        assert reader.load_ns("ckpt:x") == {0: True, 1: False}
        reader.close()
        store.close()

    def test_clear_ns_and_clear(self, tmp_path):
        store = open_store(tmp_path)
        store.write_rows("a", [(1, 1), (2, 2)])
        store.write_rows("b", [(1, 1)])
        assert store.clear_ns("a") == 2
        assert store.load_ns("a") == {}
        assert store.load_ns("b") == {1: 1}
        assert store.clear() == 1
        assert store.stats().entries == 0
        store.close()

    def test_prune_keeps_file_under_cap(self, tmp_path):
        cap = 16 * 1024
        store = open_store(tmp_path, cache_bytes=cap)
        for i in range(200):
            store.put("ns", i, os.urandom(512), flush=True)
        assert store.stats().total_bytes <= cap
        # The newest entries survive FIFO pruning.
        assert store.get("ns", 199) is not MISS
        store.close()

    def test_unpicklable_put_is_skipped(self, tmp_path):
        store = open_store(tmp_path)
        store.put("ns", "bad", lambda: None, flush=True)
        assert store.get("ns", "bad") is MISS
        assert store.enabled  # degrade only, never crash
        store.close()

    def test_op_digest_stable_and_discriminating(self):
        assert op_digest("screen", ("a", "b"), 3) == op_digest(
            "screen", ("a", "b"), 3
        )
        assert op_digest("screen", ("a", "b"), 3) != op_digest(
            "screen", ("a", "b"), 4
        )
        assert op_digest("probe", "fp") != op_digest("screen", "fp")

    def test_resolve_store_path(self, tmp_path):
        assert resolve_store_path(None) is None
        assert resolve_store_path("") is None
        p = resolve_store_path(tmp_path / "c")
        assert p is not None and p.name == "repro_store.sqlite"


# ----------------------------------------------------------------------
# Corruption discipline
# ----------------------------------------------------------------------


def corrupt_row(path, ns):
    """Bit-flip every payload in ``ns`` behind the store's back."""
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "UPDATE kv SET value = X'00DEADBEEF' WHERE ns = ?", (ns,)
        )
    conn.close()


class TestCorruption:
    def test_bit_flipped_row_is_dropped_not_believed(self, tmp_path):
        store = open_store(tmp_path)
        store.put("hom", "key", True, flush=True)
        store.close()
        corrupt_row(resolve_store_path(tmp_path / "cache"), "hom")
        again = open_store(tmp_path)
        assert again.get("hom", "key") is MISS
        assert again.stats().corrupt_dropped == 1
        # The bad row was deleted: a recompute-and-put heals it.
        again.put("hom", "key", True, flush=True)
        assert again.get("hom", "key") is True
        again.close()

    def test_strict_durability_raises_on_checksum_failure(self, tmp_path):
        store = open_store(tmp_path)
        store.put("hom", "key", True, flush=True)
        store.close()
        corrupt_row(resolve_store_path(tmp_path / "cache"), "hom")
        strict = open_store(tmp_path, durability="strict")
        with pytest.raises(StoreCorruption):
            strict.get("hom", "key")
        strict.close()

    def test_verify_sweeps_corrupt_rows(self, tmp_path):
        store = open_store(tmp_path)
        store.write_rows("good", [(i, i) for i in range(5)])
        store.write_rows("bad", [(i, i) for i in range(3)])
        store.close()
        corrupt_row(resolve_store_path(tmp_path / "cache"), "bad")
        again = open_store(tmp_path)
        checked, dropped = again.verify()
        assert (checked, dropped) == (8, 3)
        assert again.verify() == (5, 0)  # second sweep is clean
        again.close()

    def test_schema_mismatch_quarantines_and_rebuilds(self, tmp_path):
        store = open_store(tmp_path)
        store.put("ns", "k", 1, flush=True)
        store.close()
        path = resolve_store_path(tmp_path / "cache")
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute("UPDATE meta SET v = '999' WHERE k = 'schema'")
        conn.close()
        again = open_store(tmp_path)
        assert again.enabled
        assert again.get("ns", "k") is MISS  # never read from the old file
        assert Path(f"{path}.quarantined-0").exists()
        assert again.stats().quarantined == 1
        assert again.stats().schema_version == SCHEMA_VERSION
        again.close()

    def test_torn_write_truncated_file_never_lies(self, tmp_path):
        store = open_store(tmp_path)
        originals = {i: os.urandom(256) for i in range(200)}
        store.write_rows("ns", list(originals.items()))
        store.close()
        path = resolve_store_path(tmp_path / "cache")
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(int(size * 0.6))
        again = open_store(tmp_path)  # must not raise
        for i, want in originals.items():
            got = again.get("ns", i)
            # Every answer from the torn file is MISS or exact; a
            # structural error mid-read quarantines and rebuilds.
            assert got is MISS or got == want
        again.verify()
        again.put("ns", "fresh", 7, flush=True)
        if again.enabled:
            assert again.get("ns", "fresh") == 7
        again.close()

    def test_unusable_directory_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        store = DurableStore.open(
            blocker / "sub", cache_bytes=1 << 20
        )
        assert store is not None and not store.enabled
        store.put("ns", "k", 1, flush=True)  # all no-ops, no crash
        assert store.get("ns", "k") is MISS
        with pytest.raises(StoreCorruption):
            DurableStore.open(
                blocker / "sub", cache_bytes=1 << 20, durability="strict"
            )
        # A session over the same bad directory runs memory-only with
        # answers identical to no cache_dir at all.
        with Session(
            EngineConfig(cache_dir=str(blocker / "sub"), workers=1)
        ) as s:
            got = [s.has_homomorphism(QUERIES[0], d) for d in FAMILY]
        assert got == oracle_screen(QUERIES[:1], FAMILY)[0]

    def test_disabled_store_handle_is_inert(self, tmp_path):
        store = open_store(tmp_path)
        store.close()
        assert store.get("ns", "k") is MISS
        store.put("ns", "k", 1)
        store.write_rows("ns", [(1, 1)])
        assert store.load_ns("ns") == {}
        assert store.verify() == (0, 0)
        assert store.clear() == 0
        store.close()  # idempotent


# ----------------------------------------------------------------------
# Sharing the store
# ----------------------------------------------------------------------


class TestTwoTierCache:
    """The parent session and its pool workers on one store file."""

    def test_pool_workers_share_the_store(self, tmp_path):
        want = oracle_screen(QUERIES, FAMILY)
        cfg = EngineConfig(
            cache_dir=str(tmp_path / "cache"),
            workers=2,
            parallel_min=4,
        )
        with Session(cfg) as s:
            got = parallel_screen(QUERIES, FAMILY, session=s)
            checked, dropped = s.store.verify()
        assert got == want
        assert checked > 0 and dropped == 0


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_screen_resumes_from_checkpoint(self, tmp_path, kernel_calls):
        cfg = EngineConfig(cache_dir=str(tmp_path / "cache"), workers=1)
        with Session(cfg) as cold:
            want = cold.screen(QUERIES, FAMILY)
        searched = sum(kernel_calls.values())
        assert searched == len(QUERIES) * len(FAMILY)
        with Session(cfg) as warm:
            got = warm.screen(QUERIES, FAMILY)
        # The checkpoint replay never ran the hom kernel at all.
        assert sum(kernel_calls.values()) == searched
        assert got == want == oracle_screen(QUERIES, FAMILY)

    def test_streaming_screen_replays_checkpoint(self, tmp_path):
        cfg = EngineConfig(cache_dir=str(tmp_path / "cache"), workers=1)
        with Session(cfg) as cold:
            want = cold.screen(QUERIES, FAMILY)
        with Session(cfg) as warm:
            shards = sorted(
                warm.screen(QUERIES, FAMILY, stream=True),
                key=lambda sh: sh.start,
            )
        got = [[] for _ in QUERIES]
        for shard in shards:
            for qi, row in enumerate(shard.answers):
                got[qi].extend(row)
        assert got == want

    def test_governed_partial_then_ungoverned_resume(self, tmp_path):
        cache = str(tmp_path / "cache")
        with Session(
            EngineConfig(cache_dir=cache, workers=1, hom_fuel=150)
        ) as starved:
            partial = starved.screen(QUERIES, FAMILY)
        settled = sum(
            isinstance(e, bool) for row in partial for e in row
        )
        with Session(EngineConfig(cache_dir=cache, workers=1)) as resumed:
            got = resumed.screen(QUERIES, FAMILY)
        want = oracle_screen(QUERIES, FAMILY)
        assert got == want
        # Whatever the starved run settled must already agree.
        for prow, wrow in zip(partial, want):
            for p, w in zip(prow, wrow):
                if isinstance(p, bool):
                    assert p == w
        assert settled >= 0  # any prefix may have settled before the trip

    def test_probe_resumes_with_identical_result(self, tmp_path, kernel_calls):
        cfg = EngineConfig(cache_dir=str(tmp_path / "cache"), workers=1)
        cq = OneCQ.from_structure(zoo.q5())
        with Session(cfg) as cold_s:
            cold = probe_boundedness(cq, 3, session=cold_s)
        searched = sum(kernel_calls.values())
        assert searched > 0
        with Session(cfg) as warm_s:
            warm = probe_boundedness(cq, 3, session=warm_s)
        assert sum(kernel_calls.values()) == searched  # pure replay
        assert (warm.verdict, warm.depth, warm.uncovered) == (
            cold.verdict, cold.depth, cold.uncovered
        )
        assert warm.cactuses_examined == cold.cactuses_examined

    def test_kill_9_mid_screen_then_resume(self, tmp_path, kernel_calls):
        """The acceptance scenario: SIGKILL the parent mid-screen, then
        rerun against the same cache_dir — identical answers, with the
        checkpointed shards skipped."""
        cache = str(tmp_path / "cache")
        script = tmp_path / "killed_screen.py"
        script.write_text(textwrap.dedent(f"""
            import os, signal, sys
            sys.path.insert(0, {SRC!r})
            from repro import EngineConfig, Session
            from repro.core.structure import path_structure
            from repro.workloads import instance_family

            queries = [path_structure(["T", "", "F"]),
                       path_structure(["T", "F"])]
            family = instance_family(12, 14, 26, seed=31)
            session = Session(
                EngineConfig(cache_dir={cache!r}, workers=1)
            )
            store = session.store
            orig = store.write_rows
            state = {{"rows": 0}}

            def killing_write(ns, rows):
                rows = list(rows)
                orig(ns, rows)
                if ns.startswith("ckpt:"):
                    state["rows"] += len(rows)
                    if state["rows"] >= 5:
                        os.kill(os.getpid(), signal.SIGKILL)

            store.write_rows = killing_write
            session.screen(queries, family)
            print("UNREACHABLE")
        """))
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "UNREACHABLE" not in proc.stdout

        # The committed checkpoint rows survived the kill.
        with Session(EngineConfig(cache_dir=cache, workers=1)) as s:
            stats = s.store.stats()
            ckpt = [
                count
                for ns, count in stats.namespaces
                if ns.startswith("ckpt:")
            ]
            assert ckpt and sum(ckpt) >= 5
            got = s.screen(QUERIES, FAMILY)
            searched = sum(kernel_calls.values())
            checked, dropped = s.store.verify()
        assert got == oracle_screen(QUERIES, FAMILY)
        assert dropped == 0 and checked >= 5
        # Resume did strictly less hom work than a cold serial screen:
        # at least the five checkpointed instances were skipped.
        full = len(QUERIES) * len(FAMILY)
        assert 0 < searched <= full - 5
