"""The service tier: a multi-tenant async job API over the engine.

ROADMAP item 4 — "heavy query load over slowly changing data" as a
long-running server, stdlib only.  The pieces:

* :mod:`~repro.service.wire` — JSON codecs (structures, tri-state
  answers, shard frames, the shared config serializer);
* :mod:`~repro.service.registry` — tenant → Session LRU, every
  session built from the server's
  :class:`~repro.core.config.EngineConfig`;
* :mod:`~repro.service.jobs` — bounded-executor job manager with
  admission control and durable ``job:v1`` records;
* :mod:`~repro.service.server` — asyncio HTTP/1.1 + SSE front;
* :mod:`~repro.service.client` — blocking client the CLI and bench
  speak through.
"""

from .client import ServiceClient, ServiceError
from .jobs import JOB_KINDS, AdmissionError, Job, JobManager
from .registry import SessionRegistry
from .server import ServiceServer, run
from .wire import (
    WireError,
    answer_from_json,
    answer_to_json,
    config_to_json,
    structure_from_json,
    structure_to_json,
)

__all__ = [
    "AdmissionError",
    "JOB_KINDS",
    "Job",
    "JobManager",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SessionRegistry",
    "WireError",
    "answer_from_json",
    "answer_to_json",
    "config_to_json",
    "run",
    "structure_from_json",
    "structure_to_json",
]
