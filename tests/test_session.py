"""The Session facade: EngineConfig, isolation, precedence, streaming.

Covers the acceptance criteria of the session redesign:

* two concurrently-live sessions with different configs produce
  correct, isolated results in one process;
* configuration precedence is env < constructor < per-call kwarg, with
  ``EngineConfig.from_env`` as the single env ingestion point read at
  call time (monkeypatched environments behave consistently);
* ``backend="auto"`` resolves per call from the target's size and edge
  density, pinned on both sides of the calibrated threshold;
* ``Session.screen(..., stream=True)`` yields completion-ordered shard
  results that jointly reproduce the blocking screen;
* the worker-side wire cache skips rebuilds for repeated families;
* the pre-Session free functions remain working shims over the
  default session.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Answer, EngineConfig, Session, zoo
from repro.core import homengine
from repro.core.cactus import cactus_factory
from repro.core.config import (
    AUTO_MIN_EDGES_PER_NODE,
    AUTO_MIN_NODES,
    choose_auto_backend,
)
from repro.core.cq import OneCQ
from repro.core.runtime import ScreenShard, from_wire_cached, to_wire
from repro.core.structure import path_structure
from repro.session import (
    default_session,
    reset_default_session,
    set_default_session,
)
from repro.workloads import instance_family

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fresh_default():
    """Run a test against a pristine default session, then restore."""
    previous = set_default_session(Session(EngineConfig()))
    try:
        yield default_session()
    finally:
        default_session().close()
        set_default_session(previous) if previous is not None else (
            reset_default_session()
        )


# ----------------------------------------------------------------------
# EngineConfig
# ----------------------------------------------------------------------


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "bitset"
        assert config.workers is None and config.effective_workers() >= 1

    def test_explicit_zero_workers_disables_parallelism(self, monkeypatch):
        """Pre-Session behaviour: REPRO_HOM_WORKERS=0 (or --workers 0,
        or EngineConfig(workers=0)) disables parallelism; only the
        *unset* default resolves to the CPU count."""
        monkeypatch.setenv("REPRO_HOM_WORKERS", "0")
        assert EngineConfig.from_env().effective_workers() == 0
        assert EngineConfig(workers=0).effective_workers() == 0
        with Session(EngineConfig(workers=0)) as s:
            assert s.pool.get_pool() is None

    def test_from_env_reads_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOM_BACKEND", "naive")
        monkeypatch.setenv("REPRO_PROBE_WARMSTART", "0")
        monkeypatch.setenv("REPRO_HOM_PARALLEL_MIN", "17")
        monkeypatch.setenv("REPRO_HOM_WORKERS", "3")
        config = EngineConfig.from_env()
        assert config.backend == "naive"
        assert config.probe_warmstart is False
        assert config.parallel_min == 17
        assert config.workers == 3
        monkeypatch.setenv("REPRO_HOM_BACKEND", "matrix")
        assert EngineConfig.from_env().backend == "matrix"

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOM_BACKEND", "naive")
        monkeypatch.setenv("REPRO_HOM_WORKERS", "3")
        config = EngineConfig.from_env(backend="bitset")
        assert config.backend == "bitset"  # constructor wins over env
        assert config.workers == 3  # untouched knobs still come from env

    def test_invalid_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="simd")
        monkeypatch.setenv("REPRO_HOM_BACKEND", "simd")
        with pytest.raises(ValueError, match="REPRO_HOM_BACKEND"):
            EngineConfig.from_env()

    def test_malformed_int_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOM_PARALLEL_MIN", "not-a-number")
        assert EngineConfig.from_env().parallel_min == 24

    def test_frozen_and_replace(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.backend = "naive"
        derived = config.replace(backend="naive", workers=2)
        assert (derived.backend, derived.workers) == ("naive", 2)
        assert config.backend == "bitset"
        with pytest.raises(ValueError):
            config.replace(backend="simd")

    def test_describe_lists_every_knob(self):
        text = EngineConfig().describe()
        for field in ("backend", "workers", "parallel_min",
                      "cactus_max_nodes", "effective_workers"):
            assert field in text

    def test_env_reads_confined_to_config_module(self):
        """The make-lint grep gate, mirrored as a test: the process
        environment (os.environ, os.getenv, `from os import environ`)
        may only be consulted inside core/config.py."""
        import re

        pattern = re.compile(
            r"os\.environ|os\.getenv|from os import.*environ|getenv"
        )
        offenders = []
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            if path.name == "config.py" and path.parent.name == "core":
                continue
            if pattern.search(path.read_text()):
                offenders.append(str(path))
        assert offenders == []


# ----------------------------------------------------------------------
# Session isolation
# ----------------------------------------------------------------------


class TestSessionIsolation:
    def test_isolated_backends_and_caches(self, kernel_calls):
        """Two live sessions with different backends answer correctly
        without sharing any state: each call runs its own session's
        backend."""
        q = path_structure(["T", "T", "F"])
        d = path_structure(["T", "T", "T", "F"])
        with Session(EngineConfig(backend="naive")) as a, \
                Session(EngineConfig(backend="bitset")) as b:
            assert a.resolve_backend() == "naive"
            assert b.resolve_backend() == "bitset"
            assert a.has_homomorphism(q, d) is True
            assert (kernel_calls["naive"], kernel_calls["bitset"]) == (1, 0)
            assert b.has_homomorphism(q, d) is True
            assert (kernel_calls["naive"], kernel_calls["bitset"]) == (1, 1)

    def test_isolated_cactus_pools(self):
        cq = OneCQ.from_structure(zoo.q3())
        with Session(EngineConfig()) as a, Session(EngineConfig()) as b:
            fa = a.cactus_factory(cq)
            fb = b.cactus_factory(cq)
            assert fa is not fb
            assert a.cactus_factory(cq) is fa  # pooled within a session
            assert cactus_factory(cq, session=a) is fa  # free-fn routing

    def test_end_to_end_agreement_across_sessions(self):
        """The tentpole acceptance: naive vs bitset sessions, live at
        once, agree on the paper's end-to-end operations."""
        q2, d2 = zoo.q2(), zoo.d2()
        q5 = OneCQ.from_structure(zoo.q5())
        family = instance_family(count=6, n=12, edge_count=24, seed=3)
        with Session(EngineConfig(backend="naive")) as a, \
                Session(EngineConfig(backend="bitset")) as b:
            assert a.certain_answer(q2, d2) == b.certain_answer(q2, d2) is True
            da = a.decide_boundedness(zoo.q5())
            db = b.decide_boundedness(zoo.q5())
            assert da.bounded is db.bounded is True
            rewriting_a = a.ucq_rewriting(q5, 1)
            rewriting_b = b.ucq_rewriting(q5, 1)
            assert a.ucq_certain_answers(rewriting_a, family) == \
                b.ucq_certain_answers(rewriting_b, family)

    def test_session_probe_matches_free_function(self):
        cq = OneCQ.from_structure(zoo.q5())
        with Session(EngineConfig(backend="naive")) as s:
            probe = s.probe_boundedness(cq, 3)
        from repro.core.boundedness import probe_boundedness

        free = probe_boundedness(cq, 3)
        assert (probe.verdict, probe.depth) == (free.verdict, free.depth)

    def test_evaluate_strategies(self):
        q, d = zoo.q2(), zoo.d2()
        with Session(EngineConfig(backend="naive")) as s:
            for strategy in ("auto", "exhaustive", "branching", "pi"):
                assert s.evaluate_dsirup(q, d, strategy).certain is True

    def test_close_clears_state(self):
        cq = OneCQ.from_structure(zoo.q3())
        s = Session(EngineConfig())
        factory = s.cactus_factory(cq)
        assert s.cactus_factory(cq) is factory
        s.close()
        assert s.cactus_factory(cq) is not factory


# ----------------------------------------------------------------------
# Precedence: env < config < per-call
# ----------------------------------------------------------------------


class TestPrecedence:
    def test_per_call_beats_config(self, kernel_calls):
        with Session(EngineConfig(backend="bitset")) as s:
            assert s.resolve_backend("naive") == "naive"
            q = path_structure(["T", ""])
            d = path_structure(["T", "", ""])
            # A per-call backend actually reaches the engine.
            assert s.has_homomorphism(q, d, backend="naive")
            assert (kernel_calls["naive"], kernel_calls["bitset"]) == (1, 0)
            assert s.has_homomorphism(q, d)
            assert (kernel_calls["naive"], kernel_calls["bitset"]) == (1, 1)

    def test_default_session_honours_env_on_reset(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOM_BACKEND", "naive")
        reset_default_session()
        try:
            assert default_session().config.backend == "naive"
        finally:
            monkeypatch.delenv("REPRO_HOM_BACKEND")
            reset_default_session()
        assert default_session().config.backend == "bitset"

    def test_reset_closes_the_default_sessions_store(
        self, monkeypatch, tmp_path
    ):
        """Resetting the default session closes its durable store, so
        its sqlite connection is released and it stops backing the
        decomp plan intern."""
        from repro.core import decomp

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        reset_default_session()
        try:
            store = default_session().store
            assert store is not None and store.enabled
            assert decomp._PLAN_STORE is store
        finally:
            monkeypatch.delenv("REPRO_CACHE_DIR")
            reset_default_session()
        assert store.enabled is False
        assert decomp._PLAN_STORE is None


# ----------------------------------------------------------------------
# Adaptive backend selection
# ----------------------------------------------------------------------


class TestAutoBackend:
    def test_heuristic_both_sides_of_threshold(self):
        n = AUTO_MIN_NODES
        dense = int(AUTO_MIN_EDGES_PER_NODE * n)
        # At or above both thresholds: matrix (when numpy is present).
        assert choose_auto_backend(n, dense, True) == "matrix"
        assert choose_auto_backend(10 * n, 100 * dense, True) == "matrix"
        # Below either threshold: bitset.
        assert choose_auto_backend(n - 1, dense, True) == "bitset"
        assert choose_auto_backend(n, dense - 1, True) == "bitset"
        assert choose_auto_backend(8, 200, True) == "bitset"
        # Without numpy the dense path does not exist: always bitset.
        assert choose_auto_backend(10 * n, 100 * dense, False) == "bitset"

    def test_session_resolves_auto_per_target(self):
        with Session(EngineConfig(backend="auto")) as s:
            small = zoo.q2()
            assert s.resolve_backend(None, small) == "bitset"
            big = instance_family(
                count=1,
                n=AUTO_MIN_NODES + 50,
                edge_count=int(
                    AUTO_MIN_EDGES_PER_NODE * (AUTO_MIN_NODES + 50) * 2
                ),
                seed=1,
            )[0]
            expected = (
                "matrix"
                if homengine.matrix_backend_available()
                else "bitset"
            )
            assert s.resolve_backend(None, big) == expected
            # auto also works per call, on a non-auto session.
        with Session(EngineConfig(backend="bitset")) as s:
            assert s.resolve_backend("auto", small) == "bitset"

    def test_auto_answers_match_bitset(self):
        q = path_structure(["", "", ""])
        family = instance_family(count=4, n=150, edge_count=450, seed=5)
        with Session(EngineConfig(backend="auto")) as auto, \
                Session(EngineConfig(backend="bitset")) as bits:
            assert [auto.has_homomorphism(q, d) for d in family] == \
                [bits.has_homomorphism(q, d) for d in family]


# ----------------------------------------------------------------------
# Streaming screen
# ----------------------------------------------------------------------


class TestStreamingScreen:
    @staticmethod
    def _reassemble(shards, n_queries, n_instances):
        matrix = [[None] * n_instances for _ in range(n_queries)]
        for shard in shards:
            assert isinstance(shard, ScreenShard)
            for qi in range(n_queries):
                row = shard.answers[qi]
                assert len(row) == shard.stop - shard.start
                for i, answer in enumerate(row):
                    assert matrix[qi][shard.start + i] is None  # no overlap
                    matrix[qi][shard.start + i] = answer
        assert all(a is not None for row in matrix for a in row)  # coverage
        return matrix

    @pytest.mark.parametrize(
        "hom_fuel", [None, 50], ids=["ungoverned", "governed"]
    )
    def test_stream_matches_blocking_screen_serial(self, hom_fuel):
        q5 = OneCQ.from_structure(zoo.q5())
        family = instance_family(count=10, n=12, edge_count=24, seed=7)
        with Session(EngineConfig(workers=1)) as s:
            queries = s.ucq_rewriting(q5, 1)
        # A fresh session per form, so both start from the same state.
        config = EngineConfig(workers=1, hom_fuel=hom_fuel)
        with Session(config) as s:
            blocking = s.screen(queries, family)
        with Session(config) as s:
            shards = list(s.screen(queries, family, stream=True))
        assert self._reassemble(
            shards, len(queries), len(family)
        ) == blocking
        if hom_fuel is not None:
            # The budget really tripped partway through the screen.
            assert any(isinstance(a, Answer) for row in blocking for a in row)

    def test_stream_matches_blocking_screen_parallel(self):
        q5 = OneCQ.from_structure(zoo.q5())
        family = instance_family(count=24, n=12, edge_count=24, seed=8)
        with Session(
            EngineConfig(workers=2, parallel_min=4)
        ) as s:
            queries = s.ucq_rewriting(q5, 1)
            blocking = s.screen(queries, family)
            shards = list(s.screen(queries, family, stream=True))
            assert self._reassemble(
                shards, len(queries), len(family)
            ) == blocking
            # The parallel path shards the family, so the stream has
            # strictly more than one shard iff the pool spawned; either
            # way the reassembly above proves exact coverage.
            if s.pool_info().running:
                assert len(shards) > 1

    def test_stream_empty_inputs(self):
        with Session(EngineConfig(workers=1)) as s:
            assert list(s.screen([], [], stream=True)) == []
            assert list(
                s.screen([zoo.q2()], [], stream=True)
            ) == []


# ----------------------------------------------------------------------
# Worker-side wire cache
# ----------------------------------------------------------------------


class TestWorkerWireCache:
    def test_repeated_wire_returns_cached_object(self):
        d = instance_family(count=1, n=20, edge_count=40, seed=9)[0]
        wire = to_wire(d)
        first = from_wire_cached(wire, 8)
        # A *new, equal* wire (fresh tuples, as a worker receives per
        # task) must hit: the cache is keyed on wire content.
        again = from_wire_cached(to_wire(d), 8)
        assert again is first
        assert again.fingerprint == d.fingerprint

    def test_limit_zero_bypasses(self):
        d = instance_family(count=1, n=10, edge_count=20, seed=9)[0]
        wire = to_wire(d)
        assert from_wire_cached(wire, 0) is not from_wire_cached(wire, 0)

    def test_lru_bound_respected(self):
        from repro.core import runtime

        runtime._WIRE_CACHE.clear()
        family = instance_family(count=5, n=8, edge_count=12, seed=10)
        for d in family:
            from_wire_cached(to_wire(d), 3)
        assert len(runtime._WIRE_CACHE) == 3

    def test_worker_opts_carry_session_backend_and_cache(self):
        """Sharded tasks ship the calling session's resolved backend
        *and full config* — workers must not silently fall back to
        their own env-built defaults (the naive-oracle pattern of
        quickstart section 7 depends on this)."""
        from repro.core import runtime

        with Session(
            EngineConfig(backend="naive", cactus_max_nodes=3)
        ) as oracle:
            backend, config = runtime._worker_opts(oracle, None)
            assert backend == "naive"
            # The full resolved config ships, with nested parallelism
            # stripped (a worker must never spawn its own pool).
            assert config == oracle.config.replace(workers=1)
            assert config.cactus_max_nodes == 3
            # A per-call backend still wins over the session default.
            assert runtime._worker_opts(oracle, "matrix")[0] == "matrix"
        with Session(EngineConfig(backend="auto")) as adaptive:
            # "auto" ships as-is: workers keep resolving it per target.
            assert runtime._worker_opts(adaptive, None)[0] == "auto"

    def test_worker_session_honours_shipped_config(self):
        """A worker task carrying an EngineConfig runs in a session
        built from it — cache sizes and thresholds included — instead
        of the worker's env-built default session (ROADMAP leftover
        closed: the full config now ships over the wire)."""
        from repro.core import runtime

        config = EngineConfig(backend="naive", cactus_max_nodes=7)
        shipped = config.replace(workers=1)
        session = runtime._worker_session(shipped)
        assert session.cactus.max_nodes == 7
        assert session.config.backend == "naive"
        assert session.pool.workers == 1
        # Same config -> same worker session (and its warm caches).
        assert runtime._worker_session(shipped) is session
        # A task from a differently-configured caller swaps it out.
        other = runtime._worker_session(shipped.replace(cactus_max_nodes=9))
        assert other is not session
        assert other.cactus.max_nodes == 9
        # In-process worker call honours the shipped config end to end.
        q = path_structure(["T", ""])
        d = path_structure(["T", "", ""])
        answers = runtime._worker_screen_chunk(
            [to_wire(q)], [to_wire(d)], None, shipped
        )
        assert answers == [[True]]
        assert runtime._WORKER_SESSION[0] == shipped
        runtime._WORKER_SESSION = None

    def test_parallel_screen_correct_with_worker_cache(self):
        """Back-to-back screens over one family (the cache's target
        traffic) stay correct through the sharded path."""
        q5 = OneCQ.from_structure(zoo.q5())
        family = instance_family(count=24, n=12, edge_count=24, seed=11)
        with Session(
            EngineConfig(workers=2, parallel_min=4)
        ) as s:
            queries = s.ucq_rewriting(q5, 1)
            first = s.screen(queries, family)
            second = s.screen(queries, family)
            assert first == second
            with Session(EngineConfig(workers=1)) as serial:
                assert serial.screen(queries, family) == first


# ----------------------------------------------------------------------
# Free-function shims over the default session
# ----------------------------------------------------------------------


class TestDefaultSessionShims:
    def test_free_functions_use_default_session_cache(
        self, fresh_default, kernel_calls
    ):
        """The free functions run in the default session: they search
        with its backend."""
        q = path_structure(["T", ""])
        d = path_structure(["T", "", ""])
        assert repro.has_homomorphism(q, d) is True
        assert (kernel_calls["naive"], kernel_calls["bitset"]) == (0, 1)
        with Session(EngineConfig(backend="naive")) as naive:
            set_default_session(naive)
            try:
                assert repro.has_homomorphism(q, d) is True
            finally:
                set_default_session(fresh_default)
        assert (kernel_calls["naive"], kernel_calls["bitset"]) == (1, 1)

    @pytest.mark.parametrize("name", ["q4", "q5"])
    def test_classifiers_run_in_the_given_session(
        self, fresh_default, kernel_calls, name
    ):
        """The classifiers and the minimality helpers take ``session=``
        and run every hom search there, not in the (bitset) default
        session: q4 reaches the symmetry test, q5 the contact models."""
        from repro.ditree import (
            DitreeCQ,
            classify_disjoint,
            classify_plain,
            contact_models_admit_q,
            is_minimal,
            minimise,
            theorem11_trichotomy,
        )

        q = getattr(zoo, name)()
        cq = DitreeCQ.from_structure(q)
        with Session(EngineConfig(backend="naive")) as naive:
            plain = classify_plain(cq, session=naive)
            assert kernel_calls["naive"] > 0
            classify_disjoint(cq, session=naive)
            theorem11_trichotomy(cq, session=naive)
            contact_models_admit_q(cq, session=naive)
            cq.is_quasi_symmetric(session=naive)
            assert is_minimal(q, session=naive)
            assert minimise(q, session=naive) == q
        assert kernel_calls["bitset"] == 0
        assert classify_plain(cq) == plain  # same answer in the default
        assert kernel_calls["bitset"] > 0

    def test_screen_zoo_accepts_session(self):
        family = instance_family(count=3, n=10, edge_count=15, seed=12)
        with Session(EngineConfig(backend="naive")) as s:
            rows = s.screen_zoo(family, probe_depth=2)
        names = [row.name for row in rows]
        assert names == [e.name for e in zoo.zoo_table()]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestCLIConfig:
    def _run(self, *args, env=None):
        import os

        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + full_env["PYTHONPATH"]
            if full_env.get("PYTHONPATH")
            else ""
        )
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=full_env,
            cwd=REPO_ROOT,
        )

    def test_config_prints_resolved_config(self):
        result = self._run("config")
        assert result.returncode == 0
        assert "backend='bitset'" in result.stdout
        assert "effective_workers=" in result.stdout

    def test_flags_override_env(self):
        result = self._run(
            "--backend", "naive", "--workers", "2", "config",
            env={"REPRO_HOM_BACKEND": "matrix"},
        )
        assert result.returncode == 0
        assert "backend='naive'" in result.stdout
        assert "workers=2" in result.stdout

    def test_env_reaches_config_without_flags(self):
        result = self._run(
            "config", env={"REPRO_HOM_BACKEND": "naive"}
        )
        assert result.returncode == 0
        assert "backend='naive'" in result.stdout

    def test_decide_respects_backend_flag(self):
        result = self._run("--backend", "naive", "decide", "q5")
        assert result.returncode == 0
        assert "bounded" in result.stdout
