"""Durable state tier: a crash-safe, checksummed, disk-backed store.

This module is the persistence layer of a session: compiled
:class:`~repro.core.decomp.DecompPlan`s shared process-wide via
:func:`repro.core.decomp.set_plan_store`, the checkpoint rows that let
:meth:`repro.session.Session.screen` and the boundedness probe resume
after a crash, and the job service's job records and leases.  Plans and
checkpoints are keyed by *content fingerprints*
(:attr:`repro.core.structure.Structure.fingerprint` — a stable blake2b
multiset hash), so a store written by one process, worker, or deploy is
valid for any other that computes the same structures.

The atomicity / corruption contract
===================================

The store must never turn disk trouble into a *wrong answer*.  Three
layers enforce that:

* **Atomic writes.**  The backing file is sqlite in WAL mode; every
  mutation happens inside a transaction, so a ``kill -9`` (or power
  loss) mid-write leaves either the old state or the new state on
  disk, never a half-written row.  ``synchronous=NORMAL`` under WAL
  survives process death unconditionally (a committed transaction is
  in the WAL); only an OS-level crash can lose the tail of the WAL,
  which again rolls back to a consistent prior state.
* **Per-row checksums + version tags.**  Every payload is stored with
  a CRC32 of its encoded bytes, and the whole file carries a
  ``schema`` version tag in its ``meta`` table.  A bit-flipped payload
  fails its checksum on read and is *dropped and treated as a miss*
  (sqlite's own page checks catch most structural damage; the row CRC
  catches silent payload damage inside an intact page).  A schema tag
  this build does not recognise means the file was written by an
  incompatible engine: the store refuses to read a single row from it.
* **Quarantine, then rebuild.**  A file that fails to open, fails the
  schema check, or raises a database-corruption error mid-use is
  *quarantined* — renamed to ``<name>.quarantined-N`` next to the
  store, preserving the evidence — and a fresh, empty store is built
  in its place.  The engine then recomputes; it never guesses.

Degradation is graceful by default (``durability="best-effort"``): an
unavailable, full, or read-only disk silently disables the store and
the engine runs in memory alone, byte-for-byte as if ``cache_dir`` had
never been set.  ``durability="strict"`` turns every
quarantine/degrade event into a raised
:class:`~repro.core.errors.StoreCorruption` instead, for deployments
that monitor their cache tier.

Writes to the key-value tier are buffered and flushed in batches
(cheap under WAL); checkpoint rows — whose entire point is surviving a
crash *mid-operation* — are flushed transactionally as they are
written (:meth:`DurableStore.write_rows`).
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import pickle
import sqlite3
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import StoreCorruption

__all__ = [
    "JOB_NS",
    "LEASE_NS",
    "MISS",
    "DurableStore",
    "StoreStats",
    "op_digest",
    "resolve_store_path",
]

#: Sentinel returned by :meth:`DurableStore.get` when a key is absent
#: (or its row failed the checksum and was dropped).
MISS = object()

#: Bumped whenever the row encoding or the table layout changes; a
#: store whose ``meta.schema`` differs is quarantined, never read.
SCHEMA_VERSION = 1

STORE_FILENAME = "repro_store.sqlite"

#: Namespace of the job service's durable job records
#: (:mod:`repro.service.jobs`).  Versioned separately from the store
#: schema: a record layout change bumps this tag, orphaning (not
#: corrupting) records written by older services.
JOB_NS = "job:v1"

#: Namespace of job ownership leases (:mod:`repro.service.jobs`).
#: A running job's manager holds ``job_id -> {"owner", "expires"}``
#: here, heartbeat-renewed; ``recover()`` only adopts a job whose
#: lease is absent or expired, so "crashed mid-run" and "still running
#: under another manager" are distinguishable after a restart.
LEASE_NS = "lease:v1"

# Buffered puts are flushed every this many entries (and on close /
# checkpoint / stats).  WAL commits are cheap, but one transaction per
# put would still dominate a burst of small rows.
_FLUSH_EVERY = 64

# When the file outgrows ``cache_bytes``, the oldest rows (by insertion
# order) are deleted until occupancy is back under this fraction.
_PRUNE_TO = 0.8

_PICKLE_PROTOCOL = 4

# Failures the guard converts into degradation / quarantine instead of
# letting them escape an engine call.  sqlite3.Error covers corruption
# (DatabaseError) and disk-full/locked (OperationalError); OSError
# covers a vanished or read-only directory; pickle errors cover
# unpicklable keys/payloads, which are simply not persisted.
_STORE_FAILURES = (sqlite3.Error, OSError, pickle.PickleError, ValueError)

# pickle reports unpicklable payloads inconsistently: PicklingError for
# some, bare TypeError/AttributeError for lambdas, local classes and
# closed handles.  Encoding sites catch this wider net (such entries
# simply stay memory-only); it is NOT part of the general guard above,
# where a TypeError would mask a real programming error.
_ENCODE_FAILURES = _STORE_FAILURES + (TypeError, AttributeError)


def resolve_store_path(cache_dir: "str | os.PathLike | None") -> Path | None:
    """The absolute sqlite file path a ``cache_dir`` resolves to, or
    ``None`` when the durable store is disabled (no ``cache_dir``)."""
    if not cache_dir:
        return None
    return Path(cache_dir).expanduser().resolve() / STORE_FILENAME


def op_digest(*parts) -> str:
    """A stable digest naming one long-running operation.

    ``parts`` must be plain data (strings, ints, bools, None, nested
    tuples — typically structure fingerprints plus the knobs that pin
    the operation's answers).  Checkpoint rows live in the namespace
    ``"ckpt:" + op_digest(...)``, so an identical re-invocation finds
    them and any other invocation cannot.
    """
    blob = pickle.dumps(parts, protocol=_PICKLE_PROTOCOL)
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """One snapshot of a store's occupancy and traffic counters.

    ``hits``/``misses``/``writes`` are *lifetime* counters persisted in
    the store's ``meta`` table (this process's deltas folded in), so
    ``repro cache stats`` reports the store's whole history, not just
    the CLI process's.  ``corrupt_dropped`` counts rows discarded by
    checksum failures; ``quarantined`` counts sibling files a past
    corruption event renamed aside.
    """

    path: str
    enabled: bool
    schema_version: int
    entries: int
    total_bytes: int
    cache_bytes: int
    namespaces: tuple[tuple[str, int], ...]
    hits: int
    misses: int
    writes: int
    corrupt_dropped: int
    quarantined: int

    def describe(self) -> str:
        lines = [
            f"path={self.path}",
            f"enabled={self.enabled}",
            f"schema_version={self.schema_version}",
            f"entries={self.entries}",
            f"bytes={self.total_bytes} (cap {self.cache_bytes})",
            f"hits={self.hits} misses={self.misses} writes={self.writes}",
            f"corrupt_dropped={self.corrupt_dropped}",
            f"quarantined_files={self.quarantined}",
        ]
        for ns, count in self.namespaces:
            lines.append(f"  ns {ns}: {count} entries")
        return "\n".join(lines)


def _locked(method):
    """Serialize a store operation on the instance lock: one sqlite
    connection is shared across threads (``check_same_thread=False``),
    so every touch of ``_conn`` / ``_pending`` must be exclusive."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class DurableStore:
    """The disk tier: a checksummed key-value store over sqlite WAL.

    One instance per :class:`~repro.session.Session`; many processes
    (the parent and every pool worker shipping the same resolved
    config) may hold instances over the *same* file — WAL plus a busy
    timeout makes concurrent readers/writers safe, and content-keyed
    entries make lost races harmless (both sides write the same
    value).  Within a process the instance is thread-safe: the service
    tier's job manager persists records from executor threads, so the
    single connection is shared (``check_same_thread=False``) and every
    operation serializes on an internal lock.

    Use :meth:`open` — it applies the durability policy — rather than
    the constructor.
    """

    def __init__(
        self,
        path: Path,
        cache_bytes: int,
        durability: str = "best-effort",
    ) -> None:
        self.path = path
        self.cache_bytes = cache_bytes
        self.durability = durability
        self.enabled = False
        self.last_error: str | None = None
        self._conn: sqlite3.Connection | None = None
        self._pending: dict[tuple[str, bytes], tuple[bytes, int]] = {}
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt_dropped = 0
        self._lock = threading.RLock()
        self._connect_or_recover()

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls,
        cache_dir: "str | os.PathLike | None",
        cache_bytes: int,
        durability: str = "best-effort",
    ) -> "DurableStore | None":
        """A store for ``cache_dir``, or ``None`` when disabled.

        Best-effort policy: any failure to create the directory or the
        file yields a *disabled* store object (every operation a no-op)
        rather than an exception.  Strict policy raises
        :class:`~repro.core.errors.StoreCorruption`.
        """
        path = resolve_store_path(cache_dir)
        if path is None:
            return None
        store = cls(path, cache_bytes, durability)
        if not store.enabled and durability == "strict":
            raise StoreCorruption(
                f"cannot open durable store at {path}: {store.last_error}"
            )
        return store

    def _connect_or_recover(self) -> None:
        """Open (creating if needed) and schema-check the backing file;
        quarantine and retry once on corruption or version mismatch."""
        for attempt in (0, 1):
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    str(self.path), timeout=5.0, check_same_thread=False
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA busy_timeout=5000")
                with conn:
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS meta "
                        "(k TEXT PRIMARY KEY, v TEXT NOT NULL)"
                    )
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS kv ("
                        " ns TEXT NOT NULL,"
                        " key BLOB NOT NULL,"
                        " value BLOB NOT NULL,"
                        " crc INTEGER NOT NULL,"
                        " nbytes INTEGER NOT NULL,"
                        " PRIMARY KEY (ns, key))"
                    )
                    conn.execute(
                        "INSERT OR IGNORE INTO meta (k, v) VALUES "
                        "('schema', ?), ('hits', '0'), ('misses', '0'),"
                        " ('writes', '0')",
                        (str(SCHEMA_VERSION),),
                    )
                row = conn.execute(
                    "SELECT v FROM meta WHERE k = 'schema'"
                ).fetchone()
                if row is None or row[0] != str(SCHEMA_VERSION):
                    conn.close()
                    raise sqlite3.DatabaseError(
                        f"schema tag {row[0] if row else None!r} != "
                        f"{SCHEMA_VERSION}"
                    )
                self._conn = conn
                self.enabled = True
                return
            except sqlite3.DatabaseError as exc:
                # Corrupt or stale-schema file: quarantine the evidence
                # and build fresh on the retry pass.
                self.last_error = f"{type(exc).__name__}: {exc}"
                if attempt == 0:
                    self._quarantine()
                    continue
                self._disable()
                return
            except OSError as exc:
                # Unavailable / read-only / full disk: nothing to
                # quarantine, nothing to retry.
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._disable()
                return

    def _quarantine(self) -> None:
        """Rename the backing file (and its WAL/SHM) aside, preserving
        the corrupt evidence; raise under the strict policy."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        n = 0
        while True:
            target = Path(f"{self.path}.quarantined-{n}")
            if not target.exists():
                break
            n += 1
        try:
            if self.path.exists():
                os.replace(self.path, target)
            for suffix in ("-wal", "-shm"):
                side = Path(str(self.path) + suffix)
                if side.exists():
                    side.unlink()
        except OSError as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
            self._disable()
            return
        if self.durability == "strict":
            raise StoreCorruption(
                f"durable store at {self.path} failed integrity checks "
                f"({self.last_error}); quarantined to {target}"
            )

    def _disable(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        self.enabled = False
        self._pending.clear()

    @_locked
    def close(self) -> None:
        """Flush buffered writes and counters, then drop the connection.
        Idempotent; a closed store answers every ``get`` with MISS."""
        if self._conn is not None:
            try:
                self.flush()
            except _STORE_FAILURES:
                pass
        self._disable()

    # -- failure policy -------------------------------------------------

    def _failed(self, exc: BaseException):
        """Apply the degradation policy to one failed operation."""
        self.last_error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, sqlite3.DatabaseError) and not isinstance(
            exc, sqlite3.OperationalError
        ):
            # Structural corruption discovered mid-use: quarantine and
            # rebuild so the *next* operation runs on a clean store.
            self._quarantine()
            self._connect_or_recover()
            return
        if self.durability == "strict":
            raise StoreCorruption(
                f"durable store operation failed: {self.last_error}"
            ) from exc
        # Disk full / locked / gone: degrade to memory-only.
        self._disable()

    # -- encoding -------------------------------------------------------

    @staticmethod
    def _encode_key(key) -> bytes:
        return pickle.dumps(key, protocol=_PICKLE_PROTOCOL)

    @staticmethod
    def _encode_value(value) -> tuple[bytes, int]:
        blob = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        return blob, zlib.crc32(blob)

    def _decode_row(self, ns: str, key_blob: bytes, blob: bytes, crc: int):
        """Checksum-verified decode; a failed row is dropped (returns
        MISS) rather than trusted."""
        if zlib.crc32(blob) != crc:
            self._corrupt_dropped += 1
            try:
                with self._conn:
                    self._conn.execute(
                        "DELETE FROM kv WHERE ns = ? AND key = ?",
                        (ns, key_blob),
                    )
            except _STORE_FAILURES:
                pass
            if self.durability == "strict":
                raise StoreCorruption(
                    f"checksum mismatch in namespace {ns!r}"
                )
            return MISS
        try:
            return pickle.loads(blob)
        except Exception:  # noqa: BLE001 - any unpickling failure is a miss
            self._corrupt_dropped += 1
            return MISS

    # -- the key-value tier ---------------------------------------------

    @_locked
    def get(self, ns: str, key):
        """The stored payload for ``(ns, key)``, or :data:`MISS`."""
        if not self.enabled:
            return MISS
        try:
            key_blob = self._encode_key(key)
        except _ENCODE_FAILURES:
            return MISS
        pending = self._pending.get((ns, key_blob))
        if pending is not None:
            self._hits += 1
            return pickle.loads(pending[0])
        try:
            row = self._conn.execute(
                "SELECT value, crc FROM kv WHERE ns = ? AND key = ?",
                (ns, key_blob),
            ).fetchone()
        except _STORE_FAILURES as exc:
            self._failed(exc)
            return MISS
        if row is None:
            self._misses += 1
            return MISS
        value = self._decode_row(ns, key_blob, row[0], row[1])
        if value is MISS:
            self._misses += 1
            return MISS
        self._hits += 1
        return value

    @_locked
    def put(self, ns: str, key, value, flush: bool = False) -> None:
        """Buffer ``(ns, key) -> value``; ``flush`` commits the whole
        buffer transactionally now."""
        if not self.enabled:
            return
        try:
            key_blob = self._encode_key(key)
            blob, crc = self._encode_value(value)
        except _ENCODE_FAILURES:
            return  # unpicklable entries just stay memory-only
        self._pending[(ns, key_blob)] = (blob, crc)
        self._writes += 1
        if flush or len(self._pending) >= _FLUSH_EVERY:
            self.flush()

    @_locked
    def flush(self) -> None:
        """Commit buffered puts and persist the traffic counters."""
        if not self.enabled or self._conn is None:
            self._pending.clear()
            return
        try:
            with self._conn:
                if self._pending:
                    self._conn.executemany(
                        "INSERT OR REPLACE INTO kv "
                        "(ns, key, value, crc, nbytes) "
                        "VALUES (?, ?, ?, ?, ?)",
                        [
                            (ns, kb, blob, crc, len(kb) + len(blob))
                            for (ns, kb), (blob, crc) in self._pending.items()
                        ],
                    )
                for name, delta in (
                    ("hits", self._hits),
                    ("misses", self._misses),
                    ("writes", self._writes),
                ):
                    if delta:
                        self._conn.execute(
                            "UPDATE meta SET v = CAST(CAST(v AS INTEGER) "
                            "+ ? AS TEXT) WHERE k = ?",
                            (delta, name),
                        )
            self._hits = self._misses = self._writes = 0
            self._pending.clear()
            self._maybe_prune()
        except _STORE_FAILURES as exc:
            self._pending.clear()
            self._failed(exc)

    def _maybe_prune(self) -> None:
        """FIFO-evict the oldest rows once past the byte cap."""
        if self.cache_bytes <= 0 or self._conn is None:
            return
        total = self._conn.execute(
            "SELECT COALESCE(SUM(nbytes), 0) FROM kv"
        ).fetchone()[0]
        if total <= self.cache_bytes:
            return
        target = int(self.cache_bytes * _PRUNE_TO)
        with self._conn:
            for rowid, nbytes in self._conn.execute(
                "SELECT rowid, nbytes FROM kv ORDER BY rowid"
            ).fetchall():
                if total <= target:
                    break
                self._conn.execute(
                    "DELETE FROM kv WHERE rowid = ?", (rowid,)
                )
                total -= nbytes

    # -- checkpoint rows ------------------------------------------------

    @_locked
    def write_rows(self, ns: str, rows) -> None:
        """Durably commit ``(key, value)`` rows in one transaction.

        The checkpoint write path: unlike :meth:`put` these rows are
        *never* buffered — when this returns, a ``kill -9`` cannot lose
        them (WAL commit).  Rows are plain data, keyed within the
        operation's ``ckpt:`` namespace.
        """
        if not self.enabled or not rows:
            return
        try:
            encoded = []
            for key, value in rows:
                kb = self._encode_key(key)
                blob, crc = self._encode_value(value)
                encoded.append((ns, kb, blob, crc, len(kb) + len(blob)))
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO kv (ns, key, value, crc, nbytes)"
                    " VALUES (?, ?, ?, ?, ?)",
                    encoded,
                )
            self._writes += len(rows)
        except _STORE_FAILURES as exc:
            self._failed(exc)

    @_locked
    def load_ns(self, ns: str) -> dict:
        """Every checksum-verified ``key -> value`` in a namespace
        (corrupt rows dropped), e.g. one operation's checkpoint rows."""
        if not self.enabled:
            return {}
        try:
            rows = self._conn.execute(
                "SELECT key, value, crc FROM kv WHERE ns = ?", (ns,)
            ).fetchall()
        except _STORE_FAILURES as exc:
            self._failed(exc)
            return {}
        out: dict = {}
        for key_blob, blob, crc in rows:
            value = self._decode_row(ns, key_blob, blob, crc)
            if value is MISS:
                continue
            try:
                out[pickle.loads(key_blob)] = value
            except Exception:  # noqa: BLE001
                continue
        return out

    @_locked
    def clear_ns(self, ns: str) -> int:
        """Drop one namespace; returns the number of rows removed."""
        if not self.enabled:
            return 0
        self._pending = {
            k: v for k, v in self._pending.items() if k[0] != ns
        }
        try:
            with self._conn:
                cur = self._conn.execute(
                    "DELETE FROM kv WHERE ns = ?", (ns,)
                )
            return cur.rowcount
        except _STORE_FAILURES as exc:
            self._failed(exc)
            return 0

    # -- job records (the service tier's durable state) -----------------

    def job_put(self, job_id: str, record: dict) -> None:
        """Durably commit one job record (see :data:`JOB_NS`).

        Job state transitions use the checkpoint write path
        (:meth:`write_rows`), never the buffered one: a service killed
        right after marking a job done must still report it done after
        restart.
        """
        self.write_rows(JOB_NS, [(job_id, record)])

    def job_get(self, job_id: str) -> dict | None:
        """The stored record of one job, or ``None``."""
        value = self.get(JOB_NS, job_id)
        return None if value is MISS or not isinstance(value, dict) else value

    def job_list(self) -> dict[str, dict]:
        """Every stored ``job_id -> record`` (corrupt rows dropped)."""
        return {
            key: value
            for key, value in self.load_ns(JOB_NS).items()
            if isinstance(key, str) and isinstance(value, dict)
        }

    @_locked
    def job_delete(self, job_id: str) -> None:
        """Drop one job record (a no-op when absent)."""
        if not self.enabled:
            return
        try:
            key_blob = self._encode_key(job_id)
            with self._conn:
                self._conn.execute(
                    "DELETE FROM kv WHERE ns = ? AND key = ?",
                    (JOB_NS, key_blob),
                )
        except _STORE_FAILURES as exc:
            self._failed(exc)

    # -- job leases (ownership rows, see :data:`LEASE_NS`) ---------------

    def lease_acquire(
        self, job_id: str, owner: str, ttl_s: float, now: float | None = None
    ) -> bool:
        """Claim the lease on ``job_id`` for ``owner``; True iff taken.

        A lease held by a *different* owner and not yet expired refuses
        the claim; an absent, expired, or same-owner lease is
        (re)written with a fresh expiry.  The read-decide-write runs as
        one compare-and-swap (:meth:`_lease_cas`), so two managers —
        sibling threads sharing this store object or separate processes
        sharing the file — can never both observe an expired lease and
        both claim it.  With no disk tier attached the claim trivially
        succeeds — leases are an ownership signal, not a correctness
        requirement.
        """
        if not self.enabled:
            return True
        now = time.time() if now is None else now
        return self._lease_cas(job_id, owner, ttl_s, now, require_owner=False)

    def lease_renew(
        self, job_id: str, owner: str, ttl_s: float, now: float | None = None
    ) -> bool:
        """Push the expiry of a lease ``owner`` still holds; False when
        the lease is gone or was taken over (the heartbeat's cue to
        stop claiming the job)."""
        if not self.enabled:
            return True
        now = time.time() if now is None else now
        return self._lease_cas(job_id, owner, ttl_s, now, require_owner=True)

    @_locked
    def _lease_cas(
        self,
        job_id: str,
        owner: str,
        ttl_s: float,
        now: float,
        require_owner: bool,
    ) -> bool:
        """One atomic check-and-write on a lease row.

        ``BEGIN IMMEDIATE`` takes sqlite's write lock before the read,
        so a concurrent process's CAS serialises here instead of racing
        the SELECT; the instance lock covers sibling threads.  With
        ``require_owner`` the write only lands when ``owner`` already
        holds the row (renew discipline); otherwise an absent, expired,
        corrupt, or same-owner row is claimable.
        """
        try:
            key_blob = self._encode_key(job_id)
            blob, crc = self._encode_value(
                {"owner": owner, "expires": now + ttl_s}
            )
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT value, crc FROM kv WHERE ns = ? AND key = ?",
                    (LEASE_NS, key_blob),
                ).fetchone()
                current = self._decode_lease_row(row)
                if require_owner:
                    allowed = (
                        current is not None and current.get("owner") == owner
                    )
                else:
                    allowed = (
                        current is None
                        or current.get("owner") == owner
                        or current.get("expires", 0.0) <= now
                    )
                if not allowed:
                    self._conn.execute("ROLLBACK")
                    return False
                self._conn.execute(
                    "INSERT OR REPLACE INTO kv (ns, key, value, crc, nbytes)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (LEASE_NS, key_blob, blob, crc, len(key_blob) + len(blob)),
                )
                self._conn.execute("COMMIT")
                self._writes += 1
                return True
            except BaseException:
                self._lease_rollback()
                raise
        except _STORE_FAILURES as exc:
            self._failed(exc)
            # A degraded-to-memory store grants advisorily (matching
            # the no-disk-tier policy); a store that recovered refuses
            # this round — refusing a claim is always the safe answer.
            return not self.enabled

    @staticmethod
    def _decode_lease_row(row) -> "dict | None":
        """Decode one raw lease row; corrupt or mistyped rows read as
        absent (the CAS overwrites them) — never deleted mid-CAS, which
        would commit the surrounding explicit transaction early."""
        if row is None or zlib.crc32(row[0]) != row[1]:
            return None
        try:
            value = pickle.loads(row[0])
        except Exception:  # noqa: BLE001 - any unpickling failure is a miss
            return None
        return value if isinstance(value, dict) else None

    def _lease_rollback(self) -> None:
        try:
            if self._conn is not None and self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    @_locked
    def lease_release(self, job_id: str, owner: str | None = None) -> None:
        """Drop a lease (a no-op when absent).  With ``owner`` given,
        only that owner's lease is dropped — atomically, so a manager
        releasing a job it lost to takeover can never clobber a lease
        the new owner wrote between the check and the delete."""
        if not self.enabled:
            return
        try:
            key_blob = self._encode_key(job_id)
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if owner is not None:
                    row = self._conn.execute(
                        "SELECT value, crc FROM kv WHERE ns = ? AND key = ?",
                        (LEASE_NS, key_blob),
                    ).fetchone()
                    current = self._decode_lease_row(row)
                    if current is not None and current.get("owner") != owner:
                        self._conn.execute("ROLLBACK")
                        return
                self._conn.execute(
                    "DELETE FROM kv WHERE ns = ? AND key = ?",
                    (LEASE_NS, key_blob),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._lease_rollback()
                raise
        except _STORE_FAILURES as exc:
            self._failed(exc)

    def lease_get(self, job_id: str) -> dict | None:
        """The stored lease row of one job, or ``None``."""
        value = self.get(LEASE_NS, job_id)
        return None if value is MISS or not isinstance(value, dict) else value

    def lease_list(self) -> dict[str, dict]:
        """Every stored ``job_id -> lease`` row (corrupt rows dropped)."""
        return {
            key: value
            for key, value in self.load_ns(LEASE_NS).items()
            if isinstance(key, str) and isinstance(value, dict)
        }

    # -- maintenance (the CLI surface) ----------------------------------

    @_locked
    def clear(self) -> int:
        """Drop every entry (the ``repro cache clear`` action); the
        file and its schema stay."""
        if not self.enabled:
            return 0
        self._pending.clear()
        try:
            with self._conn:
                cur = self._conn.execute("DELETE FROM kv")
            return cur.rowcount
        except _STORE_FAILURES as exc:
            self._failed(exc)
            return 0

    @_locked
    def verify(self) -> tuple[int, int]:
        """Full checksum sweep: ``(rows_checked, rows_dropped)``.

        Every row's CRC is recomputed; rows that fail are deleted (the
        ``repro cache verify`` action and the fuzz leg's final sweep).
        """
        if not self.enabled:
            return (0, 0)
        self.flush()
        if not self.enabled:
            return (0, 0)
        try:
            rows = self._conn.execute(
                "SELECT ns, key, value, crc FROM kv"
            ).fetchall()
            bad = [
                (ns, key_blob)
                for ns, key_blob, blob, crc in rows
                if zlib.crc32(blob) != crc
            ]
            if bad:
                self._corrupt_dropped += len(bad)
                with self._conn:
                    self._conn.executemany(
                        "DELETE FROM kv WHERE ns = ? AND key = ?", bad
                    )
            return (len(rows), len(bad))
        except _STORE_FAILURES as exc:
            self._failed(exc)
            return (0, 0)

    @_locked
    def stats(self) -> StoreStats:
        """Occupancy + lifetime traffic counters (see
        :class:`StoreStats`)."""
        entries = total = 0
        namespaces: tuple[tuple[str, int], ...] = ()
        hits, misses, writes = self._hits, self._misses, self._writes
        if self.enabled:
            self.flush()
        if self.enabled:
            try:
                entries, total = self._conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM kv"
                ).fetchone()
                namespaces = tuple(
                    self._conn.execute(
                        "SELECT ns, COUNT(*) FROM kv GROUP BY ns ORDER BY ns"
                    ).fetchall()
                )
                counters = dict(
                    self._conn.execute(
                        "SELECT k, v FROM meta WHERE k IN "
                        "('hits', 'misses', 'writes')"
                    ).fetchall()
                )
                hits = int(counters.get("hits", 0))
                misses = int(counters.get("misses", 0))
                writes = int(counters.get("writes", 0))
            except _STORE_FAILURES as exc:
                self._failed(exc)
        quarantined = len(
            glob.glob(str(self.path) + ".quarantined-*")
        )
        return StoreStats(
            path=str(self.path),
            enabled=self.enabled,
            schema_version=SCHEMA_VERSION,
            entries=entries,
            total_bytes=total,
            cache_bytes=self.cache_bytes,
            namespaces=namespaces,
            hits=hits,
            misses=misses,
            writes=writes,
            corrupt_dropped=self._corrupt_dropped,
            quarantined=quarantined,
        )
