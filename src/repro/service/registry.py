"""Tenant → :class:`~repro.session.Session` registry with LRU eviction.

Every tenant gets its own session (own cactus state, own pool, own
governance budgets) built from the server's
:class:`~repro.core.config.EngineConfig`.  All tenants share its
``cache_dir``: the durable store keys by operation digest, so one
tenant's settled screens warm every tenant's disk tier.

Capacity is ``config.service_tenants``; the least-recently-used
session is evicted and closed (flushing its store buffers) when a new
tenant would exceed it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.config import EngineConfig
from ..session import Session

__all__ = ["SessionRegistry"]


class SessionRegistry:
    """Thread-safe LRU map of tenant name to live :class:`Session`."""

    def __init__(
        self, base_config: EngineConfig | None = None, capacity: int | None = None
    ) -> None:
        self.base_config = base_config if base_config is not None else EngineConfig()
        self.capacity = (
            capacity if capacity is not None else self.base_config.service_tenants
        )
        if self.capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, tenant: str) -> Session:
        """The tenant's session, creating (and possibly evicting) one."""
        evicted: list[Session] = []
        with self._lock:
            session = self._sessions.get(tenant)
            if session is not None:
                self._sessions.move_to_end(tenant)
                return session
            session = Session(self.base_config)
            self._sessions[tenant] = session
            while len(self._sessions) > self.capacity:
                _, old = self._sessions.popitem(last=False)
                evicted.append(old)
                self.evictions += 1
        for old in evicted:
            old.close()
        return session

    def tenants(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def metrics(self) -> dict:
        """Per-tenant engine counters plus registry occupancy."""
        with self._lock:
            live = list(self._sessions.items())
        return {
            "capacity": self.capacity,
            "live": len(live),
            "evictions": self.evictions,
            "tenants": {name: session.metrics() for name, session in live},
        }

    def close(self) -> None:
        with self._lock:
            live = list(self._sessions.values())
            self._sessions.clear()
        for session in live:
            session.close()

    def __enter__(self) -> "SessionRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
