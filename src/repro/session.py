"""The :class:`Session` facade: one typed configuration + execution
context for the whole engine.

A session owns a frozen :class:`~repro.core.config.EngineConfig` and
*all* mutable engine state that used to live in module globals: the
cactus factory pool and cross-factory structure intern
(:class:`~repro.core.cactus.CactusState`), the shard executor
(:class:`~repro.core.runtime.PoolRuntime`) and the durable store.  The
config is the session's whole configuration: nothing re-points a live
session, so a different backend or pool size is a different session.
Two sessions never share state, so two differently-configured
evaluations — say ``backend="naive"`` against ``backend="bitset"``,
or a big pool against a serial run — can live side by side in one
process::

    from repro import EngineConfig, Session

    fast = Session(EngineConfig(backend="bitset"))
    oracle = Session(EngineConfig(backend="naive"))
    assert fast.certain_answer(q, d) == oracle.certain_answer(q, d)

Configuration precedence is ``env < config < per-call kwarg``: the
environment is only read by :meth:`EngineConfig.from_env` (which backs
the default session), an explicit config overrides it, and per-call
keywords (``backend=``, ``workers=`` ...) override the config for one
call.

The module-level :func:`default_session` is created lazily from the
environment on first use.  Every engine function that takes
``session=None`` (``certain_answer``, ``decide_boundedness``,
``ucq_certain_answers``, ``screen_zoo``, ``find_homomorphism`` ...)
runs in it when no session is passed, looked up in one place,
:func:`repro.core.errors._resolve_session`.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Iterable, Sequence

from .core import boundedness as _boundedness
from .core import cactus as _cactus
from .core import decomp as _decomp
from .core import dsirup as _dsirup
from .core import errors as _errors
from .core import homengine as _homengine
from .core import runtime as _runtime
from .core import semiring as _semiring
from .core import store as _store
from .core.config import EngineConfig
from .core.structure import Structure

__all__ = [
    "EngineConfig",
    "Session",
    "default_session",
    "reset_default_session",
    "set_default_session",
]


class Session:
    """An isolated engine instance: config + caches + pools.

    Construct with an :class:`EngineConfig` (or nothing, for the
    hardcoded defaults — note that, unlike :func:`default_session`,
    ``Session()`` deliberately ignores the environment; use
    ``Session(EngineConfig.from_env())`` to honour it).  Sessions are
    cheap: state is created eagerly but empty, caches fill on use.

    The paper's end-to-end operations are methods —
    :meth:`certain_answer`, :meth:`decide_boundedness`,
    :meth:`evaluate`, :meth:`screen` — alongside the engine-level
    entry points (:meth:`find_homomorphism`, :meth:`evaluate_batch`,
    :meth:`probe_boundedness`, ...).  Every method accepts the same
    per-call overrides as the free functions.
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.cactus = _cactus.CactusState(self.config)
        self.pool = _runtime.PoolRuntime(self.config)
        # Durable disk tier (None unless cache_dir is configured):
        # layered under the decomp plan intern, and the home of
        # screen/probe checkpoint rows.  Workers build their own
        # Session from the shipped config and thus open the same store
        # file (sqlite WAL makes that safe).
        self.store = _store.DurableStore.open(
            self.config.cache_dir,
            self.config.cache_bytes,
            self.config.durability,
        )
        if self.store is not None:
            _decomp.set_plan_store(self.store)
        # The operation-wide budget installed by governed_scope() (or
        # the service tier's per-job scope) while a top-level governed
        # operation runs on the *current thread*; None otherwise.  The
        # slot is thread-local: concurrent operations on one session —
        # e.g. two same-tenant service jobs on executor threads — each
        # govern their own budget, so one job's cancel hook, deadline
        # or fuel can never leak into a sibling's kernels.
        self._budget_slot = threading.local()
        self._closed = False

    @property
    def active_budget(self):
        """The budget governing the current thread's in-flight
        operation (None when ungoverned).  Per-thread by design — see
        ``__init__``; read and written by
        :func:`~repro.core.errors.governed_scope` /
        :func:`~repro.core.errors.call_budget`."""
        return getattr(self._budget_slot, "budget", None)

    @active_budget.setter
    def active_budget(self, budget) -> None:
        self._budget_slot.budget = budget

    def __repr__(self) -> str:
        return (
            f"Session(backend={self.config.backend!r}, "
            f"workers={self.pool.workers})"
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release worker processes and drop every cache.

        Idempotent: closing an already-closed session is a no-op unless
        the session was used again in between (pools respawn lazily and
        engine use refills caches, so renewed use re-arms ``close``).
        Scoped usage — ``with session:`` — therefore never leaks
        process pools and double-``close`` never trips.
        """
        if self._closed and not self.pool.info().running:
            return
        self.pool.shutdown()
        self.clear_caches()
        if self.store is not None:
            self.store.close()
            _decomp.clear_plan_store(self.store)
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def clear_caches(self) -> None:
        """Drop the factory pool and the intern table."""
        self.cactus.clear()

    def resolve_backend(
        self,
        backend: str | None = None,
        target: Structure | None = None,
        source: Structure | None = None,
    ) -> str:
        """The concrete backend a call would use: per-call ``backend``
        beats the config default; ``auto`` resolves per call from the
        ``source``'s cached decomposition width (tree-shaped queries
        route to ``decomp``) and the ``target``'s size/density."""
        return _homengine.resolve_backend(
            self.config.backend, backend, target, source
        )

    # -- engine-level entry points --------------------------------------

    def find_homomorphism(self, source, target, *args, **kwargs):
        """:func:`repro.core.homengine.find_homomorphism` in this session."""
        return _homengine.find_homomorphism(
            source, target, *args, session=self, **kwargs
        )

    def has_homomorphism(self, source, target, *args, **kwargs) -> bool:
        """:func:`repro.core.homengine.has_homomorphism` in this session."""
        return _homengine.has_homomorphism(
            source, target, *args, session=self, **kwargs
        )

    def iter_homomorphisms(self, source, target, *args, **kwargs):
        """:func:`repro.core.homengine.iter_homomorphisms` in this session."""
        return _homengine.iter_homomorphisms(
            source, target, *args, session=self, **kwargs
        )

    def count_homomorphisms(self, source, target, *args, **kwargs) -> int:
        """The number of homomorphisms ``source -> target`` — a thin
        wrapper over the COUNT instance of the semiring surface
        (``self.evaluate(source, target, semiring="count")``), kept as
        a method because exact integer counting is the engine's most
        common non-Boolean ask.  Ungoverned sessions return a plain
        int; a governed budget that trips *raises*
        :class:`~repro.core.errors.ResourceExhausted` (counts have no
        partial value — use :meth:`evaluate` for the tri-state view).
        """
        return _homengine._count_homomorphisms(
            source, target, *args, session=self, **kwargs
        )

    def covers_any(self, target, sources, *args, **kwargs) -> bool:
        """:func:`repro.core.homengine.covers_any` in this session."""
        return _homengine.covers_any(
            target, sources, *args, session=self, **kwargs
        )

    def evaluate_batch(self, query, instances, *, semiring=None, **kwargs):
        """Sharded one-query/many-instances evaluation.

        With ``semiring=None`` (default), the Boolean fast path
        (:func:`repro.core.runtime.parallel_evaluate_batch`): a list of
        bools — on a governed session, settled entries stay plain bools
        and entries after a tripped budget are ``Answer`` UNKNOWNs
        (the outermost-surface contract).  With a ``semiring=`` (name
        or instance, plus optional ``weights=``), one
        :class:`~repro.core.semiring.Evaluation` per instance via
        :func:`repro.core.runtime.parallel_semiring_batch`, tripped
        entries carrying ``reason`` instead.
        """
        if semiring is None:
            return _runtime.parallel_evaluate_batch(
                query, instances, session=self, **kwargs
            )
        return _runtime.parallel_semiring_batch(
            query, instances, semiring, session=self, **kwargs
        )

    def cactus_factory(self, one_cq):
        """This session's pooled cactus factory for ``one_cq``."""
        return self.cactus.factory(one_cq)

    def iter_cactuses(self, one_cq, max_depth: int, max_count=None):
        """Stream cactuses out of this session's pooled factory."""
        return _cactus.iter_cactuses(
            one_cq, max_depth, max_count, session=self
        )

    def probe_boundedness(self, one_cq, probe_depth: int, **kwargs):
        """:func:`repro.core.boundedness.probe_boundedness` here."""
        return _boundedness.probe_boundedness(
            one_cq, probe_depth, session=self, **kwargs
        )

    def ucq_rewriting(self, one_cq, depth: int) -> list[Structure]:
        """:func:`repro.core.boundedness.ucq_rewriting` here."""
        return _boundedness.ucq_rewriting(one_cq, depth, session=self)

    def ucq_certain_answers(self, ucq, instances, **kwargs) -> list[bool]:
        """:func:`repro.core.boundedness.ucq_certain_answers` here."""
        return _boundedness.ucq_certain_answers(
            ucq, instances, session=self, **kwargs
        )

    def hom_cache_info(self):
        """Zero hits and misses: there is no hom-answer cache.  Kept,
        with the ``hom_cache`` block of :meth:`metrics`, for the
        readers of the old counters until they are removed."""
        return SimpleNamespace(hits=0, misses=0)

    def pool_info(self):
        """Configuration and liveness of this session's shard executor."""
        return self.pool.info()

    def metrics(self) -> dict:
        """Every engine counter of this session as one plain-data dict:
        pool configuration/liveness/failure bookkeeping and (when a
        durable store is attached) the store's lifetime traffic and
        occupancy.  JSON-serialisable by construction — the payload
        behind the service tier's ``GET /v1/metrics``.  The
        ``hom_cache`` block is always zero (see :meth:`hom_cache_info`).
        """
        pool = self.pool.info()
        out = {
            "hom_cache": {"hits": 0, "misses": 0},
            "pool": {
                "workers": pool.workers,
                "min_batch": pool.min_batch,
                "running": pool.running,
                "quarantined": pool.broken,
                "failures": pool.failures,
                "last_fallback": pool.last_fallback,
            },
            "store": None,
        }
        if self.store is not None:
            stats = self.store.stats()
            out["store"] = {
                "path": stats.path,
                "enabled": stats.enabled,
                "entries": stats.entries,
                "bytes": stats.total_bytes,
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
                "corrupt_dropped": stats.corrupt_dropped,
                "quarantined_files": stats.quarantined,
                "namespaces": {ns: n for ns, n in stats.namespaces},
            }
        return out

    # -- the paper's end-to-end operations ------------------------------

    def certain_answer(
        self, q: Structure, data: Structure, strategy: str = "auto"
    ) -> "bool | _errors.Answer":
        """Certain answer to the d-sirup ``(Δ_q, G)`` over ``data``
        (:func:`repro.core.dsirup.certain_answer`).

        Outermost-surface contract: on a governed session
        (``deadline_ms`` / ``hom_fuel`` set) a tripped budget yields
        ``Answer.unknown(reason)`` instead of an exception or a hang;
        ungoverned sessions always return a plain bool.
        """
        try:
            return _dsirup.evaluate_dsirup(
                q, data, strategy, session=self
            ).certain
        except _errors.ResourceExhausted as exc:
            return _errors.Answer.unknown(exc.reason)

    def evaluate(
        self,
        q: Structure,
        data: Structure,
        semiring: "str | _semiring.Semiring" = "bool",
        *,
        weights=None,
        backend: str | None = None,
        seed=None,
        restrict_image=None,
    ) -> "_semiring.Evaluation":
        """Evaluate the CQ ``q`` over ``data`` under a commutative
        semiring — the unified evaluation surface.

        ``semiring`` is a registered name (``"bool"``, ``"count"``,
        ``"prob"``, ``"minplus"``, ``"maxplus"``, ``"why"``) or a
        :class:`~repro.core.semiring.Semiring` instance; ``weights``
        optionally annotates individual facts of ``data``.  Returns a
        typed :class:`~repro.core.semiring.Evaluation` whose ``value``
        is ``⊕`` over all homomorphisms of the ``⊗`` of per-atom fact
        weights, with ``.answer`` giving the
        :class:`~repro.core.errors.Answer`-compatible tri-state view.

        Outermost-surface contract: on a governed session a tripped
        budget never raises — the returned ``Evaluation`` has
        ``value=None`` and ``reason`` set (so ``.answer`` is
        UNKNOWN(reason)); ungoverned sessions always return a settled
        value.  A d-sirup strategy name such as ``"auto"`` is not a
        semiring and raises :class:`~repro.core.errors.UnknownSemiring`;
        the certain-answer procedure is :meth:`evaluate_dsirup`.
        """
        sr = _semiring.resolve_semiring(semiring)
        try:
            with _errors.governed_scope(self):
                return _homengine.semiring_evaluate(
                    q,
                    data,
                    sr,
                    seed,
                    restrict_image,
                    weights=weights,
                    backend=backend,
                    session=self,
                )
        except _errors.ResourceExhausted as exc:
            return _semiring.Evaluation(
                None,
                sr.name,
                backend if backend is not None else self.config.backend,
                reason=exc.reason,
            )

    def evaluate_dsirup(
        self, q: Structure, data: Structure, strategy: str = "auto"
    ):
        """Full d-sirup certain-answer evaluation with countermodel
        bookkeeping (:func:`repro.core.dsirup.evaluate_dsirup`).

        An *inner* structured surface: a governed budget that trips
        raises :class:`~repro.core.errors.ResourceExhausted`; use
        :meth:`certain_answer` for the tri-state outermost view.
        """
        return _dsirup.evaluate_dsirup(q, data, strategy, session=self)

    def decide_boundedness(self, q, probe_depth: int = 3):
        """Route ``q`` to the strongest boundedness decider
        (:func:`repro.decide.decide_boundedness`)."""
        from .decide import decide_boundedness

        return decide_boundedness(q, probe_depth, session=self)

    def screen(
        self,
        queries: Sequence[Structure],
        instances: Iterable[Structure],
        *,
        stream: bool = False,
        backend: str | None = None,
        workers: int | None = None,
        min_batch: int | None = None,
    ):
        """Screen a pool of Boolean CQs over one instance family.

        With ``stream=True`` returns the *completion-ordered* iterator
        of :class:`~repro.core.runtime.ScreenShard` results of
        :func:`repro.core.runtime.parallel_screen_stream` — each shard
        covers a contiguous instance range and arrives as soon as its
        worker finishes, so a long screen surfaces answers early
        instead of blocking until the slowest shard.  With
        ``stream=False`` (default) returns that stream collected into
        the answer matrix ``result[qi][di]``
        (:func:`repro.core.runtime.parallel_screen`).  Both forms give
        the same answers, governed ones included.
        """
        screen = (
            _runtime.parallel_screen_stream
            if stream
            else _runtime.parallel_screen
        )
        return screen(
            queries,
            instances,
            backend=backend,
            workers=workers,
            min_batch=min_batch,
            session=self,
        )

    def screen_zoo(self, instances: list[Structure], probe_depth: int = 3):
        """Bulk-classify the paper's query zoo and screen ``instances``
        (:func:`repro.zoo.screen_zoo`) inside this session."""
        from .zoo import screen_zoo

        return screen_zoo(instances, probe_depth, session=self)


# ----------------------------------------------------------------------
# The default session
# ----------------------------------------------------------------------

_DEFAULT: Session | None = None


def default_session() -> Session:
    """The process-wide default session backing every free function.

    Created lazily from :meth:`EngineConfig.from_env` on first use —
    *not* at import time, so tests that monkeypatch ``REPRO_*``
    variables before first engine use see them honoured, and
    :func:`reset_default_session` re-reads a changed environment.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session(EngineConfig.from_env())
    return _DEFAULT


def set_default_session(session: Session) -> Session | None:
    """Install ``session`` as the process default; returns the previous
    default (which keeps its state and can be re-installed, but is no
    longer shut down automatically)."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = session
    return previous


def reset_default_session() -> None:
    """Close and drop the default session (its pool, caches and durable
    store); the next free-function call builds a fresh one from the
    current environment."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.close()
    _DEFAULT = None
