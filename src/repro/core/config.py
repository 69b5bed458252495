"""Engine configuration: one frozen dataclass, one env-var ingestion point.

Everything tunable about the engine — hom backend, probe warm start,
shard executor, resource governance, durable store, job service — is
described by an immutable :class:`EngineConfig`.  A
:class:`~repro.session.Session` owns exactly one config plus the
mutable state it parameterises; the module-level default session is
built from :meth:`EngineConfig.from_env` on first use.

Precedence is ``env < config < per-call kwarg``:

* :meth:`EngineConfig.from_env` reads every ``REPRO_*`` variable — this
  module is the *single* place in the package where ``os.environ`` is
  consulted (enforced by a grep gate in ``make lint``), and the read
  happens at call time, never at import time, so a monkeypatched
  environment behaves consistently;
* explicit keyword arguments to :meth:`from_env` (or a plain
  ``EngineConfig(...)`` constructor call) override the environment;
* per-call keywords on the session/engine entry points (``backend=``,
  ``workers=`` ...) override the config for that call.

Environment variables
=====================

``REPRO_HOM_BACKEND``
    Default hom-search backend: ``naive``, ``bitset`` (default),
    ``matrix``, ``decomp`` (tree-decomposition semijoin DP), or
    ``auto`` (route per call: ``decomp`` for tree-shaped queries on
    non-trivial targets, else ``matrix`` vs ``bitset`` from the
    target's size and edge density).
``REPRO_PROBE_WARMSTART``
    Enable (default) the boundedness probe's delta warm-started
    coverage checks; ``0`` restores the serial ``covers_any`` batch
    path.
``REPRO_HOM_WORKERS`` / ``REPRO_HOM_PARALLEL_MIN``
    Shard-executor worker count (unset: CPU count; ``<= 1`` disables
    parallelism) and the batch size below which batch entry points
    stay serial (default 24).
``REPRO_DEADLINE_MS`` / ``REPRO_HOM_FUEL``
    Cooperative resource governance (unset: off).  ``deadline_ms`` is a
    wall-clock budget per governed operation; ``hom_fuel`` caps the
    number of coarse search steps (AC-3 edge revisions, backtracking
    candidates, semijoin tuples).  When either is set, governed
    surfaces return tri-state :class:`~repro.core.errors.Answer`
    results instead of hanging on hostile inputs.
``REPRO_CACTUS_MAX_NODES``
    Hard cap on the node count of any single cactus the factory will
    materialise (unset: unlimited); raises
    :class:`~repro.core.errors.CactusBudgetExceeded` past it.
``REPRO_SHARD_TIMEOUT_MS``
    Per-shard wall-clock timeout in the pool runtime (unset: none).  A
    shard that exceeds it is treated as a worker failure: requeued once
    on a rebuilt pool, then quarantined to in-parent serial execution.
``REPRO_CACHE_DIR``
    Directory for the durable store (:mod:`repro.core.store`): decomp
    plans and screen/probe checkpoints persist there across restarts
    and are shared by pool workers.  Unset or empty (the default): no
    disk tier, and so no checkpoint/resume.
``REPRO_CACHE_BYTES``
    Byte cap on the durable store file (default 256 MiB); past it the
    oldest entries are evicted FIFO.  ``0`` means uncapped.
``REPRO_DURABILITY``
    ``best-effort`` (default): a missing, full, read-only or corrupt
    store degrades/quarantines silently and the engine recomputes.
    ``strict``: the same conditions raise
    :class:`~repro.core.errors.StoreCorruption` instead.
``REPRO_SERVICE_HOST`` / ``REPRO_SERVICE_PORT``
    Bind address of the job service (:mod:`repro.service`); default
    ``127.0.0.1:8765``.  Port ``0`` binds an ephemeral port (printed
    by ``repro serve`` on startup).
``REPRO_SERVICE_TENANTS``
    Capacity of the service's tenant -> :class:`~repro.session.Session`
    LRU (default 8); the least recently used tenant session is closed
    on eviction.
``REPRO_SERVICE_THREADS``
    Worker threads of the service's job executor (default 4) — the
    bound on jobs *running* concurrently across all tenants.
``REPRO_SERVICE_QUEUE_DEPTH``
    Admission cap on jobs queued or running (default 64); a submit
    past it is rejected (HTTP 429), the service analogue of the pool
    runtime's serial degradation.
``REPRO_SERVICE_TENANT_JOBS``
    Per-tenant concurrency cap (default 2): a tenant with that many
    jobs running has further jobs *queued* (not rejected) until one
    finishes.
``REPRO_SERVICE_RETRY_MAX``
    How many execution attempts a job gets before the manager
    quarantines it to a terminal FAILED state (default 3).  Transient
    failures — a pool worker crash, a best-effort store hiccup —
    re-enqueue the job with exponential backoff until this cap; a
    poison job that fails every attempt settles as
    ``FAILED(quarantined after N attempts)`` instead of re-queueing
    forever.
``REPRO_SERVICE_RETRY_BACKOFF_MS``
    Base of the retry backoff (default 100): attempt ``k`` waits
    ``backoff * 2^(k-1)`` milliseconds, jittered, capped at 30 s.
``REPRO_SERVICE_LEASE_TTL_MS``
    TTL of the ownership lease a running job holds in the durable
    store's ``lease:v1`` namespace (default 10000).  A heartbeat
    renews it at TTL/3 while the executor thread makes progress;
    ``recover()`` only takes over jobs whose lease has expired, so a
    record that says "running" under a live lease is left to its
    owner, and a stuck thread is detected by its lease lapsing.
``REPRO_SERVICE_DRAIN_MS``
    Graceful-drain deadline (default 10000): on SIGTERM the server
    stops admission (503 + ``Retry-After``), lets running jobs
    checkpoint and settle for up to this long, persists whatever is
    still in flight as re-queueable, then exits.
``REPRO_FAULT_PLAN``
    Test-only fault injection, ``mode:ordinal[,mode:ordinal...]``
    (e.g. ``kill:0,jobfail:2``) — the environment form of
    ``EngineConfig.fault_plan`` so chaos harnesses can arm faults in a
    spawned ``repro serve`` process.  Malformed entries are ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Mapping

BACKENDS = ("naive", "bitset", "matrix", "decomp")
#: Accepted values for ``EngineConfig.backend`` — the concrete backends
#: plus ``auto`` (resolved per call by :func:`choose_auto_backend`).
BACKEND_CHOICES = BACKENDS + ("auto",)

_FALSY = ("0", "off", "false", "no")

#: Accepted values for ``EngineConfig.durability`` (see
#: :mod:`repro.core.store` for the contract each implies).
DURABILITY_CHOICES = ("best-effort", "strict")

#: Accepted fault-injection modes (``EngineConfig.fault_plan``):
#: worker-process faults plus the service tier's ``jobfail``.
FAULT_MODES = ("crash", "hang", "corrupt", "kill", "jobfail")

# Calibration of the auto heuristic, from the committed BENCH_batch.json
# backend duel: the ``matrix`` backend's boolean-semiring matvecs win
# >=2x on targets with n >= 200 nodes at edge density (edges/node) >= 4
# and keep winning down the measured grid, while ``bitset``'s
# label-pruned int domains win on the small structures of the paper's
# examples.  The thresholds sit below the measured win region (half of
# the smallest measured n, half its density) so the crossover lands in
# matrix territory without claiming wins the bench never measured.
AUTO_MIN_NODES = 100
AUTO_MIN_EDGES_PER_NODE = 2.0

# Routing on *query shape*, from the committed BENCH_decomp.json duel:
# for forest-shaped queries (decomposition width <= 1) the ``decomp``
# backend's single directional-semijoin pass beats both backtracking
# backends on every measured large target *except* the dense-and-numpy
# corner (edge density >= ~6 per node, where the matrix backend's C
# matvecs win the satisfiable cases) — so width-1 queries route to
# ``decomp`` whenever the target clears the size floor and is not in
# matrix's dense home turf; higher-width queries keep the bitset/matrix
# crossover.  The density boundary sits between the measured decomp win
# at 3 edges/node and the measured matrix win at 6.
AUTO_DECOMP_MAX_WIDTH = 1
AUTO_DECOMP_MIN_NODES = 100
AUTO_DECOMP_MAX_EDGES_PER_NODE = 4.0


def choose_auto_backend(
    nodes: int,
    edges: int,
    matrix_available: bool = True,
    query_width: int | None = None,
) -> str:
    """The concrete backend ``backend="auto"`` resolves to for a target
    with the given node and binary-fact counts.

    ``query_width`` is the query's cached tree-decomposition width
    (:func:`repro.core.decomp.query_width`) when the caller knows the
    source: tree-shaped queries (width <= 1) route to the poly-time
    ``decomp`` DP on large targets outside the dense-numpy corner,
    while high-width queries keep the bitset/matrix crossover.  Pure
    and deterministic so tests can pin the heuristic on both sides of
    every threshold; the live path feeds it the target structure's
    counts, numpy availability and the source's cached width.
    """
    if (
        query_width is not None
        and query_width <= AUTO_DECOMP_MAX_WIDTH
        and nodes >= AUTO_DECOMP_MIN_NODES
        and (
            not matrix_available
            or edges < AUTO_DECOMP_MAX_EDGES_PER_NODE * nodes
        )
    ):
        return "decomp"
    if (
        matrix_available
        and nodes >= AUTO_MIN_NODES
        and edges >= AUTO_MIN_EDGES_PER_NODE * nodes
    ):
        return "matrix"
    return "bitset"


def _env_bool(env: dict, name: str, default: bool) -> bool:
    raw = env.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


def _env_int(env: dict, name: str, default: int) -> int:
    raw = env.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _env_fault_plan(env: dict, name: str, default: tuple) -> tuple:
    """Parse ``mode:ordinal,mode:ordinal`` into a fault plan; entries
    that fail to parse (or name an unknown mode) are dropped rather
    than crashing the server they were meant to test."""
    raw = env.get(name)
    if raw is None:
        return default
    plan = []
    for part in raw.split(","):
        mode, _, when = part.strip().partition(":")
        try:
            ordinal = int(when)
        except ValueError:
            continue
        if mode in FAULT_MODES and ordinal >= 0:
            plan.append((mode, ordinal))
    return tuple(plan)


@dataclass(frozen=True)
class EngineConfig:
    """Frozen description of one engine instance's tunables.

    Field defaults are the engine's hardcoded defaults; the environment
    only enters through :meth:`from_env`.  Use :meth:`replace` (or
    ``dataclasses.replace``) to derive variants.
    """

    # hom engine
    backend: str = "bitset"
    # Delta warm-start of the boundedness probe's coverage checks
    # (repro.core.decomp.ProbeCoverage).  Disabling it restores the
    # serial covers_any batch path for every coverage batch.
    probe_warmstart: bool = True
    # shard runtime.  ``workers=None`` (the default) means the
    # machine's CPU count; an explicit value <= 1 — constructor, env or
    # CLI — disables parallelism, exactly as it always has.
    workers: int | None = None
    parallel_min: int = 24
    # resource governance (None = ungoverned: no deadline, no fuel cap,
    # unbounded cactuses — the historical behaviour, and the default)
    deadline_ms: int | None = None
    hom_fuel: int | None = None
    cactus_max_nodes: int | None = None
    # pool resilience.  shard_timeout_ms=None means shards may run
    # unboundedly (a hung worker is then only caught by the deadline).
    shard_timeout_ms: int | None = None
    # durable state tier (repro.core.store).  cache_dir=None (the
    # default) disables the disk tier entirely; with a store attached,
    # screens and probes write checkpoint rows.
    cache_dir: str | None = None
    cache_bytes: int = 256 * 1024 * 1024
    durability: str = "best-effort"
    # Job service (repro.service).  These knobs only matter to a
    # process running `repro serve` (or embedding ServiceServer);
    # library sessions ignore them, so they ride along in the frozen
    # config and ship unchanged to any worker.
    service_host: str = "127.0.0.1"
    service_port: int = 8765
    service_tenants: int = 8
    service_threads: int = 4
    service_queue_depth: int = 64
    service_tenant_jobs: int = 2
    # Service supervision (PR 10): bounded retry + poison quarantine,
    # lease-based job ownership, graceful drain.  See the matching
    # REPRO_* entries in the module docstring.
    service_retry_max: int = 3
    service_retry_backoff_ms: int = 100
    service_lease_ttl_ms: int = 10000
    service_drain_ms: int = 10000
    # Test-only fault injection: ((mode, ordinal), ...) with mode in
    # {"crash", "hang", "corrupt", "kill", "jobfail"}.  The first four
    # fire inside pool worker processes (runtime._worker_session) at
    # the ordinal-th chunk task; "jobfail" fires inside the service's
    # JobManager at the ordinal-th job execution (a deterministic
    # transient WorkerFailure, for exercising the retry/quarantine
    # ladder).  Empty in production.  "kill" is SIGKILL (uncatchable,
    # unlike "crash"'s os._exit), for proving checkpoint durability.
    fault_plan: tuple = ()

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {BACKEND_CHOICES}, "
                f"got {self.backend!r}"
            )
        for name in (
            "parallel_min",
            "cache_bytes",
            "service_port",
            "service_queue_depth",
            "service_retry_backoff_ms",
            "service_drain_ms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in (
            "service_tenants",
            "service_threads",
            "service_tenant_jobs",
            "service_retry_max",
            "service_lease_ttl_ms",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.durability not in DURABILITY_CHOICES:
            raise ValueError(
                f"durability must be one of {DURABILITY_CHOICES}, "
                f"got {self.durability!r}"
            )
        for name in (
            "deadline_ms",
            "hom_fuel",
            "cactus_max_nodes",
            "shard_timeout_ms",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")
        for entry in self.fault_plan:
            mode, when = entry  # ValueError on malformed entries
            if mode not in FAULT_MODES or when < 0:
                raise ValueError(f"bad fault_plan entry {entry!r}")

    @property
    def governed(self) -> bool:
        """Whether governed surfaces should produce tri-state results
        (any of the deadline/fuel budgets is set)."""
        return self.deadline_ms is not None or self.hom_fuel is not None

    @classmethod
    def from_env(cls, environ: Mapping | None = None, **overrides):
        """Build a config from ``REPRO_*`` variables, then apply
        ``overrides`` on top (the ``env < config`` half of the
        precedence chain).

        ``environ`` defaults to ``os.environ`` and is read *now* — the
        one place in the package environment variables are ingested.
        An invalid ``REPRO_HOM_BACKEND`` raises immediately (a silently
        ignored backend typo would send every workload to the wrong
        search); malformed integers fall back to the field default.
        """
        env = dict(os.environ if environ is None else environ)
        defaults = cls()
        backend = env.get("REPRO_HOM_BACKEND", defaults.backend)
        if backend not in BACKEND_CHOICES:
            raise ValueError(
                f"REPRO_HOM_BACKEND must be one of {BACKEND_CHOICES}, "
                f"got {backend!r}"
            )
        durability = env.get("REPRO_DURABILITY", defaults.durability)
        if durability not in DURABILITY_CHOICES:
            raise ValueError(
                f"REPRO_DURABILITY must be one of {DURABILITY_CHOICES}, "
                f"got {durability!r}"
            )
        values = dict(
            backend=backend,
            probe_warmstart=_env_bool(
                env, "REPRO_PROBE_WARMSTART", defaults.probe_warmstart
            ),
            workers=_env_int(env, "REPRO_HOM_WORKERS", defaults.workers),
            parallel_min=_env_int(
                env, "REPRO_HOM_PARALLEL_MIN", defaults.parallel_min
            ),
            deadline_ms=_env_int(
                env, "REPRO_DEADLINE_MS", defaults.deadline_ms
            ),
            hom_fuel=_env_int(env, "REPRO_HOM_FUEL", defaults.hom_fuel),
            cactus_max_nodes=_env_int(
                env, "REPRO_CACTUS_MAX_NODES", defaults.cactus_max_nodes
            ),
            shard_timeout_ms=_env_int(
                env, "REPRO_SHARD_TIMEOUT_MS", defaults.shard_timeout_ms
            ),
            cache_dir=env.get("REPRO_CACHE_DIR") or defaults.cache_dir,
            cache_bytes=_env_int(
                env, "REPRO_CACHE_BYTES", defaults.cache_bytes
            ),
            durability=durability,
            service_host=env.get("REPRO_SERVICE_HOST", defaults.service_host),
            service_port=_env_int(
                env, "REPRO_SERVICE_PORT", defaults.service_port
            ),
            service_tenants=_env_int(
                env, "REPRO_SERVICE_TENANTS", defaults.service_tenants
            ),
            service_threads=_env_int(
                env, "REPRO_SERVICE_THREADS", defaults.service_threads
            ),
            service_queue_depth=_env_int(
                env, "REPRO_SERVICE_QUEUE_DEPTH", defaults.service_queue_depth
            ),
            service_tenant_jobs=_env_int(
                env, "REPRO_SERVICE_TENANT_JOBS", defaults.service_tenant_jobs
            ),
            service_retry_max=_env_int(
                env, "REPRO_SERVICE_RETRY_MAX", defaults.service_retry_max
            ),
            service_retry_backoff_ms=_env_int(
                env,
                "REPRO_SERVICE_RETRY_BACKOFF_MS",
                defaults.service_retry_backoff_ms,
            ),
            service_lease_ttl_ms=_env_int(
                env,
                "REPRO_SERVICE_LEASE_TTL_MS",
                defaults.service_lease_ttl_ms,
            ),
            service_drain_ms=_env_int(
                env, "REPRO_SERVICE_DRAIN_MS", defaults.service_drain_ms
            ),
            fault_plan=_env_fault_plan(
                env, "REPRO_FAULT_PLAN", defaults.fault_plan
            ),
        )
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "EngineConfig":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)

    def effective_workers(self) -> int:
        """The worker count with the ``None = CPU count`` default
        resolved.  Explicit values pass through untouched, so ``0`` /
        ``1`` / negatives disable parallelism downstream."""
        if self.workers is None:
            return os.cpu_count() or 1
        return self.workers

    def describe(self) -> str:
        """One ``field=value`` line per knob, for ``repro config``."""
        lines = [
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        ]
        lines.append(f"effective_workers={self.effective_workers()!r}")
        return "\n".join(lines)
