"""Sharded parallel batch evaluation: wire format + bounded process pool.

The batch entry points of :mod:`repro.core.homengine` —
:func:`~repro.core.homengine.covers_any` (many sources, one target) and
:func:`~repro.core.homengine.evaluate_batch` (one query, many targets)
— are embarrassingly parallel across their batch axis.  This module
adds the process-pool story the engine was designed around:

Wire format
===========

:func:`to_wire` flattens a :class:`~repro.core.structure.Structure` to
a compact picklable triple ``(node_order, unary, binary)`` with facts
referring to nodes by their interning index; :func:`from_wire` rebuilds
the structure *preserving the interning order* and leaves every index
lazy, so a worker only pays for the indexes its chunk actually touches.
Shipping the wire form instead of pickling structures directly avoids
serialising the lazily-built engine indexes (bitset masks, dense
matrices, compiled source plans), which can dwarf the facts themselves.

Each worker process additionally keeps a small content-keyed LRU of
rebuilt structures (:func:`from_wire_cached`, bounded by
:data:`WORKER_CACHE_SIZE`): the wire triple is itself the structure's
content fingerprint in serialised form, so a family screened
repeatedly — back-to-back :func:`parallel_screen` sweeps over the same
instances — skips the rebuild *and* reuses every index the worker
already built on those structures.

Pool
====

Each :class:`~repro.session.Session` owns one :class:`PoolRuntime`: a
lazily-created :class:`~concurrent.futures.ProcessPoolExecutor` bounded
by the session's worker count (``EngineConfig.workers``; default the
machine's CPU count, ``<= 1`` after resolution disables parallelism).
The config fixes the pool for the session's lifetime; a per-call
``workers=`` or ``min_batch=`` only changes one call's sharding, and
``Session.close`` releases the workers.  A failed pool spawn (a
sandbox without process support) quarantines the runtime to the
serial path for :data:`POOL_COOLDOWN_MS`, after which the next large
batch tries again — never an error.  Every worker watches the process
that spawned it and exits once that parent is gone, so a SIGKILLed
caller leaves no idle workers behind.

Sharded entry points
====================

:meth:`PoolRuntime.run_chunks` is the one shard executor: the only
code that submits work to the pool.  It yields ``(shard_index,
result)`` in completion order and owns the whole fault story (per-shard
timeout, result validation, one retry on a rebuilt pool, in-parent
execution of the shards that still failed); closing it early cancels
the shards that have not started.  Every entry point consumes it.
Batches smaller than ``min_batch`` (``EngineConfig.parallel_min``,
default 24) — and all batches when the pool is disabled or unavailable
— take the serial path in-process.

* :func:`parallel_evaluate_batch`, :func:`parallel_semiring_batch` and
  :func:`parallel_ucq_answers` collect the executor in input order.
* :func:`parallel_covers_any` returns at the first chunk that reports a
  hit, closing the executor.
* :func:`parallel_screen_stream` is the one screen pipeline, for the
  many-queries x one-family shape (zoo bulk classification, UCQ
  disjunct sweeps, the service's screen jobs): the family is wired
  once, each worker rebuilds its chunk once and answers every query
  against it, and :class:`ScreenShard` results stream out in
  completion order, with checkpoint replay and resume when a durable
  store is attached.  Its serial path walks instance by instance under
  one budget for the whole screen.  :func:`parallel_screen` is that
  stream collected into the answer matrix.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import homengine
from .config import BACKEND_CHOICES, EngineConfig
from .errors import (
    Answer,
    ResourceExhausted,
    UnknownSemiring,
    WorkerFailure,
    _resolve_session,
    call_budget,
    governed_scope,
)
from .semiring import Evaluation, Semiring, resolve_semiring
from .structure import BinaryFact, Structure, UnaryFact

# The failure types that mean "the pool (or one worker) let us down" —
# the only ones the sharded entry points are allowed to swallow into
# recovery.  Anything else raised out of a worker is an engine bug and
# must propagate to the caller, not silently degrade to the serial
# path.
_POOL_FAILURES = (
    BrokenProcessPool,
    CancelledError,
    FuturesTimeout,
    TimeoutError,
    OSError,
    pickle.PickleError,
)

Wire = tuple  # (node_order, unary, binary) — see to_wire

#: Capacity of each worker process's rebuilt-structure LRU
#: (:func:`from_wire_cached`).
WORKER_CACHE_SIZE = 64
#: How long a runtime whose pool failed repeatedly (or could not be
#: spawned) stays quarantined to the serial path before the next large
#: batch health-probes a fresh pool.
POOL_COOLDOWN_MS = 5000

__all__ = [
    "PoolInfo",
    "PoolRuntime",
    "ScreenShard",
    "from_wire",
    "from_wire_cached",
    "parallel_covers_any",
    "parallel_evaluate_batch",
    "parallel_screen",
    "parallel_screen_stream",
    "parallel_semiring_batch",
    "parallel_ucq_answers",
    "to_wire",
]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


def to_wire(structure: Structure) -> Wire:
    """A compact picklable form of ``structure``.

    ``(node_order, unary, binary)`` with ``unary`` a tuple of
    ``(label, node_index)`` pairs and ``binary`` a tuple of
    ``(pred, src_index, dst_index)`` triples.  Node names themselves
    appear once (in ``node_order``), so composite cactus node names are
    not repeated per fact, and the receiving side rebuilds the same
    interning order — fingerprints and bitset positions survive the
    round trip.  Fact order is whatever the frozensets iterate (the
    receiving side rebuilds sets, and sorting here would put an
    ``O(E log E)`` toll on the parent's shard-dispatch hot path).
    """
    index = structure.node_index
    unary = tuple(
        (f.label, index[f.node]) for f in structure.unary_facts
    )
    binary = tuple(
        (f.pred, index[f.src], index[f.dst])
        for f in structure.binary_facts
    )
    return (structure.node_order, unary, binary)


def from_wire(wire: Wire) -> Structure:
    """Rebuild a :class:`Structure` from :func:`to_wire` output.

    The wire's node order becomes the structure's interning order;
    everything else (label maps, adjacency, bitset/matrix indexes,
    fingerprint) stays lazy and is rebuilt in the receiving process on
    first use.
    """
    order, unary, binary = wire
    order = tuple(order)
    s = Structure(
        order,
        (UnaryFact(label, order[i]) for label, i in unary),
        (BinaryFact(pred, order[si], order[di]) for pred, si, di in binary),
    )
    s._node_order = order
    return s


# Per-process rebuilt-structure LRU, keyed on the wire triple itself
# (node order + facts — a serialised content fingerprint; two equal
# wires rebuild identical structures, so the cached object, along with
# every index lazily built on it since, is a sound substitute).  Lives
# at module level so it persists across tasks inside one pool worker;
# the parent process never populates it.
_WIRE_CACHE: OrderedDict[Wire, Structure] = OrderedDict()


def from_wire_cached(wire: Wire, limit: int | None = None) -> Structure:
    """:func:`from_wire` through the per-process LRU of ``limit``
    structures (default :data:`WORKER_CACHE_SIZE`, read per call;
    ``limit <= 0`` bypasses the cache entirely)."""
    if limit is None:
        limit = WORKER_CACHE_SIZE
    if limit <= 0:
        return from_wire(wire)
    cached = _WIRE_CACHE.get(wire)
    if cached is None:
        cached = from_wire(wire)
        _WIRE_CACHE[wire] = cached
        while len(_WIRE_CACHE) > limit:
            _WIRE_CACHE.popitem(last=False)
    else:
        _WIRE_CACHE.move_to_end(wire)
    return cached


def _freeze_seed(seed) -> tuple | None:
    if not seed:
        return None
    return tuple(seed.items())


# ----------------------------------------------------------------------
# Worker entry points (must be importable top-level functions)
# ----------------------------------------------------------------------

# One session per worker process, keyed by the (picklable, frozen)
# EngineConfig that shipped with the task.  Tasks from the same calling
# session reuse it — along with its decomp plans and cactus state —
# across the pool's lifetime; a task from a differently-configured
# session swaps it out.
_WORKER_SESSION: tuple[EngineConfig, object] | None = None

# Fault injection (test-only, driven by ``EngineConfig.fault_plan``):
# the per-process ordinal counts chunk tasks this worker has started —
# only while a fault plan ships, so production workers never touch it —
# and the pending action signals "corrupt" to the chunk function that
# triggered it.
_FAULT_ORDINAL = 0
_FAULT_ACTION: str | None = None


def _maybe_inject_fault(config: EngineConfig) -> None:
    """Fire the configured fault, if this worker task is scheduled for
    one.  ``crash`` hard-exits the worker (simulating a segfault),
    ``kill`` SIGKILLs it (uncatchable — no atexit, no buffered-write
    flush — the honest ``kill -9``), ``hang`` sleeps far past any sane
    shard timeout, ``corrupt`` arms :func:`_take_fault` so the chunk
    function returns a wrong-shaped result.  Never fires in the parent
    process, so the in-parent serial quarantine path always computes
    real answers."""
    global _FAULT_ORDINAL, _FAULT_ACTION
    _FAULT_ACTION = None
    if not config.fault_plan:
        return
    if multiprocessing.parent_process() is None:
        return
    ordinal = _FAULT_ORDINAL
    _FAULT_ORDINAL += 1
    for mode, when in config.fault_plan:
        if when == ordinal:
            if mode == "crash":
                os._exit(86)
            if mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if mode == "hang":
                time.sleep(600)
            _FAULT_ACTION = mode
            return


def _take_fault() -> str | None:
    """Consume the pending injected fault action, if any."""
    global _FAULT_ACTION
    action = _FAULT_ACTION
    _FAULT_ACTION = None
    return action


def _worker_session(config: EngineConfig):
    """The worker-side session honouring the calling session's resolved
    config."""
    global _WORKER_SESSION
    _maybe_inject_fault(config)
    if _WORKER_SESSION is not None and _WORKER_SESSION[0] == config:
        return _WORKER_SESSION[1]
    from ..session import Session

    session = Session(config)
    _WORKER_SESSION = (config, session)
    return session


def _worker_semiring_chunk(
    query_wire: Wire,
    instance_wires: list[Wire],
    semiring_name: str,
    weights_wire: tuple | None,
    backend: str | None,
    config: EngineConfig,
) -> "list[tuple]":
    """One semiring-tagged shard: evaluate the query over a chunk of
    instances under a named (registry-resolved) semiring.

    Answers travel per-dtype through the semiring's wire codec:
    entries are ``("ok", sr.encode(value))`` or — once a governed
    budget trips — ``("x", reason)`` for every remaining slot, the
    semiring analogue of the reason-string tail of
    :func:`~repro.core.homengine.evaluate_batch_governed`.
    """
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return "corrupt"  # type: ignore[return-value]
    sr = resolve_semiring(semiring_name)
    weights = (
        None
        if weights_wire is None
        else {fact: sr.decode(val) for fact, val in weights_wire}
    )
    query = from_wire_cached(query_wire)
    out: "list[tuple]" = []
    reason: str | None = None
    with governed_scope(session) as budget:
        for wire in instance_wires:
            if reason is not None:
                out.append(("x", reason))
                continue
            try:
                if budget is not None:
                    budget.checkpoint()
                ev = homengine.semiring_evaluate(
                    query,
                    from_wire_cached(wire),
                    sr,
                    weights=weights,
                    backend=backend,
                    session=session,
                )
                out.append(("ok", sr.encode(ev.value)))
            except ResourceExhausted as exc:
                reason = exc.reason
                out.append(("x", reason))
    return out


def _worker_ucq_chunk(
    disjunct_wires: list[Wire],
    instance_wires: list[Wire],
    backend: str | None,
    config: EngineConfig,
) -> "list[bool | str]":
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return "corrupt"  # type: ignore[return-value]
    disjuncts = [from_wire_cached(w) for w in disjunct_wires]
    answers: "list[bool | str]" = []
    with governed_scope(session) as budget:
        reason: str | None = None
        for wire in instance_wires:
            if reason is not None:
                answers.append(reason)
                continue
            try:
                if budget is not None:
                    budget.checkpoint()
                instance = from_wire_cached(wire)
                answers.append(
                    any(
                        homengine.has_homomorphism(
                            d, instance, backend=backend, session=session,
                        )
                        for d in disjuncts
                    )
                )
            except ResourceExhausted as exc:
                reason = exc.reason
                answers.append(reason)
    return answers


def _screen_columns(queries, instances, backend, session, budget):
    """Yield each instance's answer column (one entry per query),
    instance by instance, every answer charged to the one ``budget``.

    Once the budget trips, every later entry is its reason tag (the
    wire form of ``Answer.unknown``), so the answers settled before the
    trip survive.  Shared by the screen's serial path and its worker
    chunks.
    """
    reason: str | None = None
    for instance in instances:
        column: "list[bool | str]" = []
        for q in queries:
            if reason is None:
                try:
                    if budget is not None:
                        budget.checkpoint()
                    column.append(
                        homengine.has_homomorphism(
                            q, instance, backend=backend, session=session,
                            budget=budget,
                        )
                    )
                    continue
                except ResourceExhausted as exc:
                    reason = exc.reason
            column.append(reason)
        yield column


def _worker_screen_chunk(
    query_wires: list[Wire],
    instance_wires: list[Wire],
    backend: str | None,
    config: EngineConfig,
) -> "list[list[bool | str]]":
    """One screen shard: the answer column of each instance in the
    chunk.  One budget per chunk task: each worker gets the full
    per-operation fuel/deadline for its shard."""
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return []  # wrong column count for any non-empty chunk
    queries = [from_wire_cached(w) for w in query_wires]
    instances = [from_wire_cached(w) for w in instance_wires]
    with governed_scope(session) as budget:
        return list(
            _screen_columns(queries, instances, backend, session, budget)
        )


def _worker_covers_chunk(
    target_wire: Wire,
    pairs: list[tuple[Wire, tuple | None]],
    backend: str | None,
    config: EngineConfig,
) -> "bool | str":
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return None  # type: ignore[return-value]
    target = from_wire_cached(target_wire)
    with governed_scope(session) as budget:
        try:
            for source_wire, seed_items in pairs:
                if budget is not None:
                    budget.checkpoint()
                if homengine.has_homomorphism(
                    from_wire_cached(source_wire),
                    target,
                    seed=dict(seed_items) if seed_items else None,
                    backend=backend,
                    session=session,
                ):
                    return True
        except ResourceExhausted as exc:
            return exc.reason
    return False


# ----------------------------------------------------------------------
# Pool management
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolInfo:
    """Configuration and liveness of one session's shard executor.

    ``broken`` now means *quarantined*: the pool is resting out a
    cooldown after repeated failures and will be health-probed again
    once it elapses.  ``last_fallback`` records why the most recent
    serial fallback or quarantine happened (``None`` if never).
    """

    workers: int
    min_batch: int
    running: bool
    broken: bool
    failures: int = 0
    last_fallback: str | None = None


_MAX_POOL_FAILURES = 2

# Every live runtime, for the atexit sweep: an interpreter exiting with
# a still-open session (a REPL, a script that never calls close())
# must not leave orphaned worker processes behind.  Weak references —
# garbage-collected runtimes need no sweep, and registering in
# __init__ must not keep them alive.
_LIVE_RUNTIMES: "weakref.WeakSet[PoolRuntime]" = weakref.WeakSet()


def _shutdown_all_pools() -> None:
    for rt in list(_LIVE_RUNTIMES):
        try:
            rt.shutdown()
        except Exception:
            pass


atexit.register(_shutdown_all_pools)

# How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _watch_parent() -> None:
    """Pool-worker initializer: exit the worker once its parent is gone.

    The atexit sweep above never runs for a SIGKILLed parent, and its
    idle workers would otherwise sit re-parented to init indefinitely.
    A daemon thread polls ``os.getppid()``, which changes when the
    parent dies.

    A worker forked from an asyncio program (``repro serve``) also
    inherits its SIGTERM handler and signal wakeup fd.  A SIGTERM that
    reached the worker under them — from :meth:`PoolRuntime.mark_failed`,
    or from the executor's own clean-up, which terminates every worker
    once one dies — would leave it running and write to the parent's
    wakeup fd, which the parent's event loop reads as a SIGTERM of its
    own (a server drain).  So the worker is forked with SIGTERM blocked
    (:meth:`PoolRuntime.run_chunks` blocks it around its submits), both
    are reset to the defaults here, and only then is SIGTERM unblocked:
    one that arrived meanwhile now ends the worker.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class PoolRuntime:
    """The mutable shard-executor state of one session.

    Owns the (lazily created) :class:`ProcessPoolExecutor`, the
    serial-fallback threshold and the failure bookkeeping.  Sessions
    never share a runtime, so two differently-sized pools can coexist
    in one process.

    Failure policy: a worker fault (crash, hang past the shard
    timeout, corrupt result, broken pool) drops the pool and requeues
    the failed shards once on a fresh one; a second consecutive
    failure *quarantines* the runtime — serial execution only — for
    :data:`POOL_COOLDOWN_MS`, after which the next large batch
    health-probes a new pool.  Quarantine is a cooldown, not a death
    sentence: transient faults (an OOM-killed worker, a container
    hiccup) heal on their own, while a deterministically crashing
    workload stops burning spawn + wire + recompute on every call.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.workers = config.effective_workers()
        self.min_batch = config.parallel_min
        self.shard_timeout = (
            None
            if config.shard_timeout_ms is None
            else config.shard_timeout_ms / 1000.0
        )
        self.cooldown = POOL_COOLDOWN_MS / 1000.0
        self.last_fallback: str | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._quarantined_until: float | None = None
        self._failures = 0  # consecutive failures
        _LIVE_RUNTIMES.add(self)

    def _quarantined(self) -> bool:
        return (
            self._quarantined_until is not None
            and time.monotonic() < self._quarantined_until
        )

    def info(self) -> PoolInfo:
        return PoolInfo(
            self.workers,
            self.min_batch,
            self._pool is not None,
            self._quarantined(),
            self._failures,
            self.last_fallback,
        )

    def shutdown(self) -> None:
        """Stop the worker processes (they respawn lazily when needed).

        Queued futures are cancelled; running shards finish first (a
        *hung* shard is the one case that would block forever, and
        :meth:`mark_failed` — which terminates — handles it before any
        orderly shutdown runs).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def get_pool(self) -> ProcessPoolExecutor | None:
        """The session's executor, or ``None`` when parallelism is
        unavailable.

        Always sized by the configured worker count: a per-call
        ``workers=`` override gates the serial/parallel decision and
        caps the chunk fan-out, but never creates or resizes the pool.
        """
        if self.workers <= 1:
            return None
        if self._quarantined_until is not None:
            if time.monotonic() < self._quarantined_until:
                return None
            # Cooldown elapsed: health-probe by building a fresh pool.
            self._quarantined_until = None
            self._failures = 0
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_watch_parent
                )
            except (OSError, ValueError):  # no process support here
                self._quarantine("spawn-failed")
                return None
        return self._pool

    def _quarantine(self, reason: str) -> None:
        self._quarantined_until = time.monotonic() + self.cooldown
        self.last_fallback = reason

    def mark_failed(self, reason: str | None = None) -> None:
        """Drop a pool that raised; the next large batch respawns a
        fresh one — but a second consecutive failure quarantines the
        runtime for the cooldown (see the class docstring).

        Worker processes are terminated outright: a *hung* worker
        ignores an orderly shutdown, and waiting on it would turn a
        shard timeout back into the very hang it guards against.
        """
        pool = self._pool
        self._pool = None
        if pool is not None:
            try:
                procs = list((getattr(pool, "_processes", None) or {}).values())
            except Exception:
                procs = []
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:
                    pass
        self._failures += 1
        if reason is not None:
            self.last_fallback = reason
        if self._failures >= _MAX_POOL_FAILURES:
            self._quarantined_until = time.monotonic() + self.cooldown

    def mark_healthy(self) -> None:
        """A completed round clears the consecutive-failure streak."""
        self._failures = 0

    def shard_chunks(self, items: Sequence, eff_workers: int, threshold: int):
        """Gate the parallel path and split ``items`` into worker chunks.

        The one place the serial-fallback policy lives: small batch,
        single-worker override, or no usable pool all return
        ``(None, None)`` — the caller then takes its serial path.
        """
        if eff_workers <= 1 or len(items) < threshold:
            return None, None
        pool = self.get_pool()
        if pool is None:
            return None, None
        return pool, _chunk(items, min(eff_workers, self.workers) * 2)

    def run_chunks(self, pool, worker, args_list, validate):
        """Run one task per argument tuple; yield ``(i, result)`` for
        every ``args_list[i]``, in completion order, exactly once.

        The one shard executor, with the full fault story: a per-shard
        timeout (``shard_timeout_ms`` without any shard completing marks
        every outstanding shard hung), parent-side result validation (a
        result ``validate`` rejects is a
        :class:`~repro.core.errors.WorkerFailure`), one retry round of
        only the failed shards on a rebuilt pool, and — when the retry
        fails too and the runtime is quarantined — in-parent execution
        of the stragglers, running the *same* chunk functions, where
        fault injection never fires and engine exceptions propagate
        normally.  Closing the generator early cancels every shard that
        has not started.
        """
        pending = list(range(len(args_list)))
        for attempt in (0, 1):
            if pool is None:
                break
            failed: list[int] = []
            reason: str | None = None
            futures: dict = {}
            try:
                # The first submit forks the workers, which inherit this
                # thread's signal mask: they start with SIGTERM blocked
                # until _watch_parent has reset the handler.
                mask = signal.pthread_sigmask(
                    signal.SIG_BLOCK, {signal.SIGTERM}
                )
                try:
                    for i in pending:
                        try:
                            futures[pool.submit(worker, *args_list[i])] = i
                        except (
                            RuntimeError, OSError, pickle.PickleError
                        ) as exc:
                            # submit() after a concurrent shutdown raises
                            # RuntimeError; unpicklable args surface too.
                            reason = f"submit:{type(exc).__name__}"
                            failed.append(i)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                outstanding = set(futures)
                while outstanding:
                    done, outstanding = wait(
                        outstanding,
                        timeout=self.shard_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        reason = "TimeoutError"
                        failed.extend(futures[f] for f in outstanding)
                        break
                    for future in done:
                        i = futures[future]
                        try:
                            result = future.result()
                            if not validate(result, args_list[i]):
                                raise WorkerFailure(
                                    "corrupt worker result shape"
                                )
                        except (*_POOL_FAILURES, WorkerFailure) as exc:
                            reason = type(exc).__name__
                            failed.append(i)
                            continue
                        yield i, result
            finally:
                for future in futures:
                    future.cancel()
            if not failed:
                self.mark_healthy()
                return
            pending = sorted(failed)
            self.mark_failed(reason)
            pool = self.get_pool() if attempt == 0 else None
        # Quarantined (or pool gone): finish the stragglers in-parent.
        for i in pending:
            yield i, worker(*args_list[i])


def _worker_opts(session, backend: str | None) -> tuple[str, EngineConfig]:
    """What shipped tasks must honour from the calling session.

    Workers run their *own* sessions, so an explicitly configured
    calling session would silently lose its knobs the moment a batch
    shards.  This resolves everything on the parent side: the wire
    backend is the per-call override or the calling session's default
    (``"auto"`` ships as-is — workers keep resolving it per call), and
    the *full resolved* :class:`EngineConfig` ships alongside, so
    worker sessions honour the caller's limits and budgets instead of
    env-built defaults.  ``workers`` is forced to 1 in the
    shipped config: a worker must never spawn a nested pool.
    """
    if backend is not None and backend not in BACKEND_CHOICES:
        # Validate on the parent side: a typo'd backend must raise
        # here, not fail inside every worker and burn the pool's
        # failure budget (two bad calls would otherwise take the whole
        # session's parallelism out of service).
        raise ValueError(
            f"unknown backend {backend!r}; expected {BACKEND_CHOICES}"
        )
    wire_backend = (
        backend if backend is not None else session.config.backend
    )
    return wire_backend, session.config.replace(workers=1)


def _chunk(items: Sequence, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, near-equal runs."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    chunks = []
    start = 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


# Parent-side result-shape validators, one per chunk function: a
# worker that returns the wrong shape (the "corrupt wire" fault, or a
# genuinely garbled pickle round trip) is treated as a WorkerFailure
# and its shard requeued/quarantined, never silently folded into the
# answer.  Entries may be reason strings on governed sessions, so only
# the container shape is checked, not element types.


def _validate_row(result, args) -> bool:
    return isinstance(result, list) and len(result) == len(args[1])


def _validate_screen(result, args) -> bool:
    return (
        isinstance(result, list)
        and len(result) == len(args[1])
        and all(
            isinstance(column, list) and len(column) == len(args[0])
            for column in result
        )
    )


def _validate_covers(result, args) -> bool:
    return isinstance(result, (bool, str))


def _sharded_ordered(
    rt, items, eff_workers, threshold, worker, make_args, validate
):
    """Run ``worker`` over chunks of ``items``, collecting in order.

    The shared scaffolding of the order-preserving entry points:
    gate/chunk via :meth:`PoolRuntime.shard_chunks`, build one argument
    tuple per chunk (``make_args`` is only called on the parallel path,
    so shared wire forms are not built for serial batches), and collect
    :meth:`PoolRuntime.run_chunks` — which owns the
    timeout/retry/quarantine fault story — into a chunk-ordered result
    list.  Returns ``None`` only for the serial gate (small batch,
    single worker, no usable pool); worker faults are recovered
    *inside* ``run_chunks``, and anything else a worker raises is an
    engine bug that propagates.
    """
    pool, chunks = rt.shard_chunks(items, eff_workers, threshold)
    if pool is None:
        return None
    args_list = [make_args(chunk) for chunk in chunks]
    results: list = [None] * len(args_list)
    for i, result in rt.run_chunks(pool, worker, args_list, validate):
        results[i] = result
    return results


# ----------------------------------------------------------------------
# Sharded batch entry points
# ----------------------------------------------------------------------


def parallel_evaluate_batch(
    query: Structure,
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> list[bool]:
    """:func:`~repro.core.homengine.evaluate_batch`, sharded.

    Small batches (fewer than ``min_batch`` instances), a single-worker
    configuration, and pool-less sandboxes all take the serial path.
    Large batches are split into two chunks per worker (for load
    balancing) and evaluated in worker processes that rebuild the
    structures from the wire format; result order matches the input
    order.  A per-call ``workers=`` override gates the serial/parallel
    decision and caps this call's chunk fan-out; the pool itself is
    sized by the session config.
    """
    session = _resolve_session(session)
    rt = session.pool
    wire_backend, wire_config = _worker_opts(session, backend)
    instances = list(instances)
    shared: dict = {}

    def make_args(chunk):
        # A one-query screen: each chunk comes back as one-entry columns.
        if "query" not in shared:
            shared["query"] = [to_wire(query)]
        return (
            shared["query"],
            [to_wire(s) for s in chunk],
            wire_backend,
            wire_config,
        )

    chunk_results = _sharded_ordered(
        rt,
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
        _worker_screen_chunk,
        make_args,
        _validate_screen,
    )
    if chunk_results is None:
        # Serial fast path (small batch, single worker, no pool).
        if wire_config.governed:
            return [
                Answer.decode(entry)
                for entry in homengine.evaluate_batch_governed(
                    query, instances, backend=backend, session=session
                )
            ]
        return homengine.evaluate_batch(
            query, instances, backend=backend, session=session
        )
    return [
        Answer.decode(column[0])
        for chunk in chunk_results
        for column in chunk
    ]


def _validate_semiring_row(result, args) -> bool:
    return (
        isinstance(result, list)
        and len(result) == len(args[1])
        and all(isinstance(e, tuple) and len(e) == 2 for e in result)
    )


def parallel_semiring_batch(
    query: Structure,
    instances: Iterable[Structure],
    semiring: "str | Semiring" = "bool",
    *,
    weights=None,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> "list[Evaluation]":
    """One weighted query over many instances, sharded: the semiring
    analogue of :func:`parallel_evaluate_batch`.

    Returns one :class:`~repro.core.semiring.Evaluation` per instance,
    input order.  Weights ship once per chunk as ``(fact,
    encoded-value)`` pairs and values come back through the semiring's
    per-dtype wire codec, so worker answers are canonical (``why``
    polynomials sort their witness sets).  Only *registered* semirings
    can cross the process boundary — a bespoke unregistered
    :class:`~repro.core.semiring.Semiring` instance (or an opaque
    ``node_filter``-free call with unpicklable weights) quietly takes
    the serial path, identical answers included.  Governed behaviour
    matches the outermost-surface contract: entries computed before a
    budget trips are kept, later entries carry ``reason``.
    """
    session = _resolve_session(session)
    rt = session.pool
    wire_backend, wire_config = _worker_opts(session, backend)
    sr = resolve_semiring(semiring)
    instances = list(instances)

    def serial() -> "list[Evaluation]":
        out: "list[Evaluation]" = []
        reason: str | None = None
        with governed_scope(session) as budget:
            for data in instances:
                if reason is not None:
                    out.append(
                        Evaluation(None, sr.name, wire_backend, reason=reason)
                    )
                    continue
                try:
                    if budget is not None:
                        budget.checkpoint()
                    out.append(
                        homengine.semiring_evaluate(
                            query, data, sr, weights=weights,
                            backend=backend, session=session,
                        )
                    )
                except ResourceExhausted as exc:
                    reason = exc.reason
                    out.append(
                        Evaluation(None, sr.name, wire_backend, reason=reason)
                    )
        return out

    try:
        shippable = resolve_semiring(sr.name) is sr
    except UnknownSemiring:
        shippable = False
    weights_wire = None
    if shippable and weights is not None:
        try:
            weights_wire = tuple(
                (fact, sr.encode(val)) for fact, val in weights.items()
            )
            pickle.dumps(weights_wire)
        except (TypeError, pickle.PickleError, AttributeError):
            shippable = False
    if not shippable:
        return serial()
    shared: dict = {}

    def make_args(chunk):
        if "query" not in shared:
            shared["query"] = to_wire(query)
        return (
            shared["query"],
            [to_wire(s) for s in chunk],
            sr.name,
            weights_wire,
            wire_backend,
            wire_config,
        )

    chunk_results = _sharded_ordered(
        rt,
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
        _worker_semiring_chunk,
        make_args,
        _validate_semiring_row,
    )
    if chunk_results is None:
        return serial()
    out: "list[Evaluation]" = []
    for tag, payload in (e for chunk in chunk_results for e in chunk):
        if tag == "ok":
            out.append(Evaluation(sr.decode(payload), sr.name, wire_backend))
        else:
            out.append(Evaluation(None, sr.name, wire_backend, reason=payload))
    return out


def _screen_ckpt(session, queries, instances, wire_backend):
    """The checkpoint home for one screen: ``((store, ns), done)``, or
    ``(None, {})`` when checkpointing is unavailable or off.

    The namespace digests the full operation identity — every query
    and instance fingerprint plus the backend — so resuming finds
    exactly its own rows and any other screen cannot.  ``done`` maps
    instance index -> settled per-query bool column; rows of the wrong
    shape (a stale or damaged checkpoint) are ignored, never trusted.
    """
    store = session.store
    if store is None or not store.enabled:
        return None, {}
    from .store import op_digest

    ns = "ckpt:" + op_digest(
        "screen",
        tuple(q.fingerprint for q in queries),
        tuple(s.fingerprint for s in instances),
        wire_backend,
    )
    nq = len(queries)
    done: dict[int, tuple] = {}
    for key, value in store.load_ns(ns).items():
        if (
            isinstance(key, int)
            and 0 <= key < len(instances)
            and isinstance(value, tuple)
            and len(value) == nq
            and all(isinstance(v, bool) for v in value)
        ):
            done[key] = value
    return (store, ns), done


def parallel_screen(
    queries: Sequence[Structure],
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> list[list[bool]]:
    """Evaluate a pool of Boolean CQs over one instance family.

    Returns one answer vector per query, ``result[qi][di]`` being the
    answer of ``queries[qi]`` on the ``di``-th instance: the
    :func:`parallel_screen_stream` of the same arguments, collected
    into the matrix.  Everything else — sharding, fault recovery,
    checkpoint resume, and the single budget of a governed serial
    screen — is the stream's, so the two forms answer identically.
    """
    queries = list(queries)
    instances = list(instances)
    matrix: list[list] = [[None] * len(instances) for _ in queries]
    for shard in parallel_screen_stream(
        queries,
        instances,
        backend=backend,
        workers=workers,
        min_batch=min_batch,
        session=session,
    ):
        for row, answers in zip(matrix, shard.answers):
            row[shard.start : shard.stop] = answers
    return matrix


@dataclass(frozen=True)
class ScreenShard:
    """One completed shard of a streaming screen.

    ``answers[qi][i]`` is the answer of query ``qi`` on instance
    ``start + i`` of the screened family; shards arrive in completion
    order and jointly cover ``range(len(instances))`` exactly once.
    """

    start: int  # first instance index covered by this shard
    stop: int  # one past the last instance index
    answers: tuple[tuple[bool, ...], ...]  # per query, per instance


def parallel_screen_stream(
    queries: Sequence[Structure],
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> Iterator[ScreenShard]:
    """Screen a pool of Boolean CQs over one instance family, yielding
    each shard's answers as it completes.

    The parallel path shards by *instances*: the family is wired once,
    each worker rebuilds its chunk once and answers every query against
    it, so the per-instance serialisation and index-rebuild cost is
    amortised over the whole query pool; shards arrive in completion
    order (not chunk order), so a long screen surfaces its first
    answers while later shards are still running.  Worker faults are
    recovered inside :meth:`PoolRuntime.run_chunks`, and an index once
    yielded is never yielded again.  Serial screens — below
    ``min_batch``, single worker, pool-less sandbox — yield one shard
    per instance as it is answered, charging one budget for the whole
    screen (:func:`~repro.core.errors.governed_scope`): once it trips,
    every later answer is ``Answer.unknown(reason)``.  A governed
    worker chunk gets a budget of its own.

    With a durable store attached (``cache_dir``), previously settled
    instance columns are yielded first as synthesized shards (no
    recompute), and every fully settled column is checkpointed as its
    shard lands: a process killed mid-screen — or a governed screen
    whose budget tripped partway — resumes on the next identical call,
    recomputing only the unsettled instances.
    """
    session = _resolve_session(session)
    rt = session.pool
    wire_backend, wire_config = _worker_opts(session, backend)
    queries = list(queries)
    instances = list(instances)
    if not queries or not instances:
        return
    ckpt, done = _screen_ckpt(session, queries, instances, wire_backend)
    for start, stop in _contiguous_runs(sorted(done)):
        yield ScreenShard(
            start, stop, tuple(zip(*(done[i] for i in range(start, stop))))
        )
    missing = [i for i in range(len(instances)) if i not in done]
    pool, chunks = rt.shard_chunks(
        missing,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
    )
    if pool is None:
        runs = [(i, i + 1) for i in missing]
        serial = _screen_columns(
            queries,
            (instances[i] for i in missing),
            backend,
            session,
            call_budget(session),
        )
        results = ((k, [column]) for k, column in enumerate(serial))
    else:
        # Each task covers one contiguous span of instance indices.
        runs = [run for chunk in chunks for run in _contiguous_runs(chunk)]
        query_wires = [to_wire(q) for q in queries]
        results = rt.run_chunks(
            pool,
            _worker_screen_chunk,
            [
                (
                    query_wires,
                    [to_wire(s) for s in instances[start:stop]],
                    wire_backend,
                    wire_config,
                )
                for start, stop in runs
            ],
            _validate_screen,
        )
    with closing(results):
        for k, columns in results:
            start, stop = runs[k]
            columns = [tuple(map(Answer.decode, column)) for column in columns]
            if ckpt is not None:
                store, ns = ckpt
                store.write_rows(
                    ns,
                    [
                        (start + j, column)
                        for j, column in enumerate(columns)
                        if all(isinstance(v, bool) for v in column)
                    ],
                )
            yield ScreenShard(start, stop, tuple(zip(*columns)))


def _contiguous_runs(indices):
    """``(start, stop)`` spans of consecutive ints in a sorted list."""
    runs = []
    for i in indices:
        if runs and i == runs[-1][1]:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [(a, b) for a, b in runs]


def parallel_ucq_answers(
    disjuncts: Sequence[Structure],
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> list[bool] | None:
    """Certain answers of a Boolean UCQ over a family, sharded.

    ``result[i]`` is true iff *some* disjunct maps into the ``i``-th
    instance.  Shards by instances: each worker rebuilds its chunk once
    and sweeps the whole UCQ against it with per-instance early exit,
    so the per-instance wire/rebuild cost is amortised over all
    disjuncts (the reason this beats one
    :func:`parallel_evaluate_batch` call per disjunct, which would
    re-ship the family every sweep).  Returns ``None`` when the batch
    is below ``min_batch`` or the pool is unavailable — the caller
    should then take its serial path
    (:func:`repro.core.boundedness.ucq_certain_answers` keeps the
    pending-filtered sweep).
    """
    session = _resolve_session(session)
    rt = session.pool
    wire_backend, wire_config = _worker_opts(session, backend)
    disjuncts = list(disjuncts)
    instances = list(instances)
    if not disjuncts or not instances:
        return None
    shared: dict = {}

    def make_args(chunk):
        if "disjuncts" not in shared:
            shared["disjuncts"] = [to_wire(d) for d in disjuncts]
        return (
            shared["disjuncts"],
            [to_wire(s) for s in chunk],
            wire_backend,
            wire_config,
        )

    chunk_results = _sharded_ordered(
        rt,
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
        _worker_ucq_chunk,
        make_args,
        _validate_row,
    )
    if chunk_results is None:
        return None
    flat = [answer for chunk in chunk_results for answer in chunk]
    if wire_config.governed:
        return [Answer.decode(entry) for entry in flat]
    return flat


def parallel_covers_any(
    target: Structure,
    sources: Iterable[Structure | tuple[Structure, homengine.Seed | None]],
    seeds: Sequence[homengine.Seed | None] | None = None,
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> bool:
    """:func:`~repro.core.homengine.covers_any`, sharded.

    Accepts the same source/seed conventions as the serial API.  Small
    batches stay serial (lazy consumption, early exit, shared cache);
    large batches ship one chunk of (source, seed) pairs per worker and
    return as soon as any chunk reports a hit, cancelling chunks that
    have not started.
    """
    session = _resolve_session(session)
    rt = session.pool
    wire_backend, wire_config = _worker_opts(session, backend)
    pairs = list(homengine._source_seed_pairs(sources, seeds))
    pool, chunks = rt.shard_chunks(
        pairs,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
    )
    if pool is None:
        return homengine.covers_any(
            target, pairs, backend=backend, session=session
        )
    target_wire = to_wire(target)
    args_list = [
        (
            target_wire,
            [(to_wire(s), _freeze_seed(seed)) for s, seed in chunk],
            wire_backend,
            wire_config,
        )
        for chunk in chunks
    ]
    unknown_reason: str | None = None
    # Early exit: the first hit closes the executor, which cancels the
    # chunks that have not started.
    with closing(
        rt.run_chunks(pool, _worker_covers_chunk, args_list, _validate_covers)
    ) as results:
        for _, result in results:
            if result is True:
                return True
            if isinstance(result, str):
                # A governed worker ran out of budget before any hit;
                # remember why, but keep draining — another chunk may
                # still report a definite hit.
                unknown_reason = result
    if unknown_reason is not None:
        # No chunk found a hit and at least one gave up: the overall
        # answer is unknown, and the caller's governed surface decides
        # how to report it.
        raise ResourceExhausted.from_reason(unknown_reason)
    return False
