"""The shard executor: wire format round-trips and parallel batch paths.

The wire format must reproduce structures *exactly* — equal fact sets,
equal fingerprints, the same interning order, and indexes that rebuild
to the same masks in the receiving process.  The parallel entry points
must agree with their serial counterparts bit for bit, fall back to the
serial fast path below the batch threshold, and keep the rewired
consumers (``ucq_certain_answers``, the boundedness probe) exact.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.core import OneCQ, build_cactus, full_shape, path_structure
from repro.core import runtime
from repro.core.config import EngineConfig
from repro.core.homengine import covers_any, evaluate_batch
from repro.core.runtime import (
    PoolRuntime,
    from_wire,
    parallel_covers_any,
    parallel_evaluate_batch,
    parallel_screen,
    to_wire,
)
from repro.core.structure import BitsetIndex
from repro.workloads import instance_family, random_instance

SRC = str(Path(__file__).resolve().parent.parent / "src")

# A child program that opens a live two-worker pool and prints the
# worker pids; each test appends what the child does next.
POOL_CHILD = textwrap.dedent(f"""
    import multiprocessing, sys
    sys.path.insert(0, {SRC!r})
    from repro import EngineConfig, Session
    from repro.core.runtime import parallel_evaluate_batch
    from repro.core.structure import path_structure
    from repro.workloads import instance_family

    def open_pool():
        session = Session(EngineConfig(workers=2, parallel_min=4))
        parallel_evaluate_batch(
            path_structure(["T", "", "F"]),
            instance_family(8, 10, 20, seed=1),
            session=session,
        )
        assert session.pool_info().running
        print(*(p.pid for p in multiprocessing.active_children()),
              flush=True)
        return session
""")


def alive(pid):
    """Whether ``pid`` runs (a zombie waiting for its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def gone_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(map(alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    return not any(map(alive, pids))


@pytest.fixture
def small_pool():
    """A 2-worker, tiny-threshold session installed as the default
    session (the tests call the free functions), closed and replaced
    by the previous default afterwards."""
    from repro.session import Session, set_default_session

    session = Session(EngineConfig(workers=2, parallel_min=4))
    previous = set_default_session(session)
    try:
        yield session
    finally:
        session.close()
        set_default_session(previous)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestWireFormat:
    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_preserves_everything(self, seed):
        s = random_instance(10, 18, seed, preds=("R", "S"))
        _ = s.fingerprint  # force, to compare against the rebuilt one
        r = from_wire(pickle.loads(pickle.dumps(to_wire(s))))
        assert r == s
        assert r.fingerprint == s.fingerprint
        assert r.node_order == s.node_order
        assert dict(r.node_index) == dict(s.node_index)

    def test_rebuilt_indexes_equal(self):
        s = random_instance(8, 14, seed=4, preds=("R", "S"))
        r = from_wire(to_wire(s))
        mine, theirs = r.bitset_index, s.bitset_index
        rebuilt = BitsetIndex(s)
        for idx in (mine, theirs):
            assert idx.nodes == rebuilt.nodes
            assert idx.succ == rebuilt.succ
            assert idx.pred == rebuilt.pred
            assert idx.label_nodes == rebuilt.label_nodes
            assert idx.has_out == rebuilt.has_out
            assert idx.has_in == rebuilt.has_in

    def test_composite_cactus_nodes_survive(self):
        # Cactus nodes are (path, variable) tuples — the wire format
        # must carry them and keep the interning order (and with it the
        # fingerprint) stable across the hop.
        one_cq = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        cactus = build_cactus(one_cq, full_shape(one_cq.span, 2))
        s = cactus.structure
        r = from_wire(pickle.loads(pickle.dumps(to_wire(s))))
        assert r == s
        assert r.fingerprint == s.fingerprint
        assert r.node_order == s.node_order

    def test_empty_structure(self):
        from repro.core import Structure

        r = from_wire(to_wire(Structure()))
        assert len(r.nodes) == 0 and r.size() == 0


# ----------------------------------------------------------------------
# Parallel batch entry points
# ----------------------------------------------------------------------


class TestParallelEvaluateBatch:
    def test_matches_serial(self, small_pool):
        q = path_structure(["T", "", "F"])
        family = instance_family(24, 20, 40, seed=5)
        assert parallel_evaluate_batch(q, family) == evaluate_batch(q, family)

    def test_order_preserved(self, small_pool):
        q = path_structure(["T", "F"])
        yes = path_structure(["T", "F"])
        no = path_structure(["F", "T"])
        family = [yes, no] * 8
        assert parallel_evaluate_batch(q, family) == [True, False] * 8

    def test_small_batch_serial_fallback(self, small_pool):
        small_pool.pool.shutdown()
        q = path_structure(["T", "F"])
        family = instance_family(3, 6, 8, seed=1)  # below min_batch=4
        assert parallel_evaluate_batch(q, family) == evaluate_batch(q, family)
        assert not small_pool.pool_info().running  # no pool was spawned for it

    def test_workers_one_disables_parallelism(self, small_pool):
        small_pool.pool.shutdown()
        q = path_structure(["T", "F"])
        family = instance_family(12, 6, 8, seed=2)
        result = parallel_evaluate_batch(q, family, workers=1)
        assert result == evaluate_batch(q, family)
        assert not small_pool.pool_info().running

    def test_empty_batch(self, small_pool):
        assert parallel_evaluate_batch(path_structure(["T"]), []) == []


class TestParallelScreen:
    def test_matches_per_query_serial(self, small_pool):
        queries = [
            path_structure(["T", "F"]),
            path_structure(["T", "", "F"]),
            path_structure(["", ""]),
        ]
        family = instance_family(16, 15, 30, seed=8)
        sharded = parallel_screen(queries, family)
        assert sharded == [evaluate_batch(q, family) for q in queries]

    def test_serial_fallback_below_threshold(self, small_pool):
        small_pool.pool.shutdown()
        queries = [path_structure(["T", "F"])]
        family = instance_family(3, 6, 8, seed=4)
        assert parallel_screen(queries, family) == [
            evaluate_batch(queries[0], family)
        ]
        assert not small_pool.pool_info().running

    def test_empty_query_pool(self, small_pool):
        assert parallel_screen([], instance_family(8, 5, 6, seed=1)) == []


class TestParallelUcqAnswers:
    def test_matches_serial_or_of_disjuncts(self, small_pool):
        from repro.core.runtime import parallel_ucq_answers

        disjuncts = [
            path_structure(["T", "F"]),
            path_structure(["T", "", "F"]),
        ]
        family = instance_family(16, 12, 24, seed=6)
        sharded = parallel_ucq_answers(disjuncts, family)
        assert sharded is not None  # pool up, batch over threshold
        per_disjunct = [evaluate_batch(d, family) for d in disjuncts]
        expected = [
            any(col[i] for col in per_disjunct) for i in range(len(family))
        ]
        assert sharded == expected

    def test_returns_none_below_threshold(self, small_pool):
        from repro.core.runtime import parallel_ucq_answers

        small_pool.pool.shutdown()
        disjuncts = [path_structure(["T", "F"])]
        family = instance_family(3, 6, 8, seed=2)
        assert parallel_ucq_answers(disjuncts, family) is None
        assert not small_pool.pool_info().running

    def test_returns_none_for_empty_inputs(self, small_pool):
        from repro.core.runtime import parallel_ucq_answers

        assert parallel_ucq_answers([], instance_family(8, 5, 6, 1)) is None
        assert parallel_ucq_answers([path_structure(["T"])], []) is None


class TestParallelCoversAny:
    def test_matches_serial(self, small_pool):
        target = random_instance(30, 70, seed=11)
        sources = [random_instance(3, 4, seed=s) for s in range(16)]
        assert parallel_covers_any(target, sources) == covers_any(
            target, sources
        )

    def test_negative_batch(self, small_pool):
        target = path_structure(["", ""])  # unlabelled edge
        sources = [path_structure(["T"], prefix=f"q{i}") for i in range(12)]
        assert not parallel_covers_any(target, sources)

    def test_seed_pair_conventions(self, small_pool):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        assert parallel_covers_any(d, [(q, {"q0": "d1"})])
        assert not parallel_covers_any(d, [(q, {"q0": "d2"})])
        assert parallel_covers_any(
            d, [q, q], seeds=[{"q0": "d2"}, {"q0": "d0"}]
        )
        with pytest.raises(ValueError):
            parallel_covers_any(d, [q, q, q], seeds=[None])
        with pytest.raises(ValueError):
            parallel_covers_any(d, [(q, None)], seeds=[None])

    def test_seeds_cross_process(self, small_pool):
        # Force the sharded path (batch >= min_batch) with seeds that
        # only admit one specific source: the hit must be found in a
        # worker and reported back.
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        pairs = [(q, {"q0": "d2"})] * 7 + [(q, {"q0": "d0"})]
        assert parallel_covers_any(d, pairs)
        assert not parallel_covers_any(d, [(q, {"q0": "d2"})] * 8)


class TestRewiredConsumers:
    def test_ucq_certain_answers_parallel_matches_serial(self, small_pool):
        from repro.core.boundedness import (
            ucq_certain_answer,
            ucq_certain_answers,
            ucq_rewriting,
        )

        one_cq = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        ucq = ucq_rewriting(one_cq, 2)
        family = instance_family(16, 5, 7, seed=9)
        batch = ucq_certain_answers(ucq, family)
        single = [ucq_certain_answer(ucq, data) for data in family]
        assert batch == single

    def test_probe_boundedness_unchanged(self, small_pool):
        from repro import zoo
        from repro.core.boundedness import Verdict, probe_boundedness

        probe = probe_boundedness(
            OneCQ.from_structure(zoo.q5()), probe_depth=3
        )
        assert probe.verdict is Verdict.BOUNDED and probe.depth == 1

    def test_screen_zoo_sweep(self, small_pool):
        from repro.core.boundedness import ucq_certain_answers, ucq_rewriting
        from repro.zoo import screen_zoo

        family = instance_family(8, 8, 14, seed=2)
        rows = {row.name: row for row in screen_zoo(family, probe_depth=3)}
        assert rows["q1"].decision is None  # two solitary Fs: not a 1-CQ
        assert rows["q2"].answers is None  # unbounded: no certified depth
        q5 = rows["q5"]
        assert q5.covering_depth == 1
        one_cq = OneCQ.from_structure(__import__("repro").zoo.q5())
        expected = ucq_certain_answers(ucq_rewriting(one_cq, 1), family)
        assert list(q5.answers) == expected


class TestPoolManagement:
    def test_shutdown_idempotent(self):
        rt = PoolRuntime(EngineConfig(workers=2))
        assert rt.get_pool() is not None and rt.info().running
        rt.shutdown()
        rt.shutdown()
        assert not rt.info().running


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state in /proc"
)
class TestWorkerLifecycle:
    @pytest.fixture
    def pool_child(self):
        """``start(body)`` runs ``POOL_CHILD + body`` and returns
        ``(process, worker pids)``; whatever is left of either is
        killed afterwards."""
        children = []

        def start(body):
            proc = subprocess.Popen(
                [sys.executable, "-c", POOL_CHILD + textwrap.dedent(body)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            pids: list[int] = []
            children.append((proc, pids))
            pids.extend(int(pid) for pid in proc.stdout.readline().split())
            assert pids
            return proc, pids

        yield start
        for proc, pids in children:
            proc.kill()
            proc.wait(10)
            proc.stdin.close()
            proc.stdout.close()
            for pid in filter(alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_workers_exit_when_parent_is_killed(self, pool_child):
        """A SIGKILLed parent runs no atexit sweep: its pool workers
        must notice the lost parent on their own and exit."""
        proc, pids = pool_child("""
            import time
            open_pool()
            time.sleep(600)
        """)
        proc.kill()
        proc.wait(10)
        assert gone_within(pids, 5)

    def test_worker_sigterm_ends_only_that_worker(self, pool_child):
        """Workers forked under an asyncio SIGTERM handler, as in
        ``repro serve``: the SIGTERM that ``mark_failed`` sends a
        worker must end that worker and never reach the parent."""
        proc, pids = pool_child("""
            import asyncio, signal

            async def main():
                loop = asyncio.get_running_loop()
                signalled = asyncio.Event()
                loop.add_signal_handler(signal.SIGTERM, signalled.set)
                open_pool()
                await loop.run_in_executor(None, sys.stdin.readline)
                try:
                    await asyncio.wait_for(signalled.wait(), 1.0)
                    print("parent signalled", flush=True)
                except asyncio.TimeoutError:
                    print("parent quiet", flush=True)

            asyncio.run(main())
        """)
        os.kill(pids[0], signal.SIGTERM)
        assert gone_within(pids[:1], 5)
        proc.stdin.write("\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == "parent quiet"

    def test_sigterm_during_worker_init_never_reaches_parent(
        self, monkeypatch
    ):
        """A worker SIGTERMed before its initializer has reset the
        inherited handler and wakeup fd (the executor terminates every
        worker once one dies) must end, not write to the parent's
        wakeup fd; the shard then settles on a rebuilt pool."""
        original = runtime._watch_parent

        def slow_init():
            time.sleep(1.0)
            original()

        monkeypatch.setattr(runtime, "_watch_parent", slow_init)
        read_end, write_end = os.pipe()
        os.set_blocking(read_end, False)
        os.set_blocking(write_end, False)
        old_handler = signal.signal(signal.SIGTERM, lambda *_: None)
        old_fd = signal.set_wakeup_fd(write_end)
        rt = runtime.PoolRuntime(EngineConfig(workers=2))
        try:
            pool = rt.get_pool()

            def terminate_in_init():
                deadline = time.monotonic() + 10
                while (
                    len(pool._processes or {}) < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                for proc in list(pool._processes.values()):
                    os.kill(proc.pid, signal.SIGTERM)

            killer = threading.Thread(target=terminate_in_init)
            killer.start()
            results = list(
                rt.run_chunks(pool, pow, [(2, 5)], lambda r, a: True)
            )
            killer.join(10)
            assert not killer.is_alive()
            assert results == [(0, 32)]
            with pytest.raises(BlockingIOError):
                os.read(read_end, 16)
        finally:
            signal.set_wakeup_fd(old_fd)
            signal.signal(signal.SIGTERM, old_handler)
            rt.shutdown()
            os.close(read_end)
            os.close(write_end)
