"""The HTTP/1.1 front of the job service — stdlib asyncio only.

A hand-rolled request loop over ``asyncio.start_server``: one
connection, one request, ``Connection: close`` (the service's traffic
shape is few long-lived SSE watchers plus short submit/poll calls, so
keep-alive buys nothing worth the parser state).  Engine work never
runs on the event loop — jobs execute on the
:class:`~repro.service.jobs.JobManager` thread executor, and handlers
only read job state.

Routes
------

==============================  ==============================================
``POST /v1/jobs``               submit ``{"kind", "tenant"?, "payload"}`` →
                                202 job record; 400 bad payload; 429 backlog
                                full; 503 + ``Retry-After`` while draining
``POST /v1/jobs/<id>/cancel``   request cooperative cancellation → 200 the
                                (possibly already terminal) record
``GET /v1/jobs``                id → status summary of every known job
``GET /v1/jobs/<id>``           full job record (404 unknown)
``GET /v1/jobs/<id>/events``    SSE: ``event: shard`` frames straight off
                                ``Session.screen(stream=True)``, then one
                                ``event: done`` (or ``event: cancelled``)
                                with the final record; ``?cursor=N`` resumes
                                after the first N events (client reconnect)
``GET /healthz``                liveness + backlog counters + drain flag
``GET /v1/config``              resolved ``EngineConfig``
                                (:func:`~repro.service.wire.config_to_json`)
``GET /v1/metrics``             pool / store / job counters
==============================  ==============================================

Graceful drain: ``run()`` (the ``repro serve`` entry) installs a
SIGTERM handler that stops admission (503s with ``Retry-After``),
keeps serving reads and SSE while running jobs checkpoint and settle
— up to ``service_drain_ms`` — then exits; whatever is still in
flight is persisted re-queueable by ``JobManager.close``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from urllib.parse import parse_qs

from ..core.config import EngineConfig
from ..core.store import DurableStore
from . import wire
from .jobs import AdmissionError, JobManager
from .registry import SessionRegistry

__all__ = ["ServiceServer", "run"]

# How long one SSE executor wait parks before re-checking (a liveness
# backstop only — event arrival and job settlement wake it instantly).
_SSE_WAIT_S = 5.0
_MAX_BODY = 64 * 1024 * 1024

_public = wire.public_record


class ServiceServer:
    """Multi-tenant job service bound to one host:port."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self.store = DurableStore.open(
            self.config.cache_dir,
            self.config.cache_bytes,
            self.config.durability,
        )
        self.registry = SessionRegistry(self.config)
        self.manager = JobManager(
            self.registry, store=self.store, config=self.config
        )
        self.host = self.config.service_host
        self.port = self.config.service_port
        self.started = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ServiceServer":
        self.manager.recover()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # Port 0 binds an ephemeral port; report the real one.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
        self.manager.close()
        self.registry.close()
        if self.store is not None:
            self.store.close()

    def start_in_thread(self) -> "ServiceServer":
        """Run the server on a dedicated event-loop thread (tests,
        quickstart).  Returns once the socket is bound."""
        ready = threading.Event()

        def _target() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            ready.set()
            try:
                loop.run_forever()
            finally:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
                loop.close()

        self._thread = threading.Thread(
            target=_target, name="repro-service", daemon=True
        )
        self._thread.start()
        if not ready.wait(10):
            raise RuntimeError("service failed to start within 10s")
        return self

    def stop(self) -> None:
        """Stop a :meth:`start_in_thread` server and release engines."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(10)
        self.manager.close()
        self.registry.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "ServiceServer":
        return self.start_in_thread()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request plumbing ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(writer, method, path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # last-resort 500; keep serving
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length < 0 or length > _MAX_BODY:
            return None
        body = await reader.readexactly(length) if length else b""
        path, _, raw_query = target.partition("?")
        query = {
            name: values[-1]
            for name, values in parse_qs(raw_query).items()
        }
        return method.upper(), path, query, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        reason: str | None = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        reason = reason or {
            200: "OK",
            202: "Accepted",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            429: "Too Many Requests",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        body: bytes,
    ) -> None:
        if method == "POST":
            if path == "/v1/jobs":
                return await self._post_job(writer, body)
            if path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/") : -len("/cancel")]
                job = self.manager.cancel(job_id)
                if job is None:
                    return await self._respond(
                        writer, 404, {"error": f"no such job {job_id!r}"}
                    )
                return await self._respond(
                    writer, 200, _public(job.snapshot())
                )
        if method == "GET":
            if path == "/healthz":
                return await self._respond(writer, 200, self._healthz())
            if path == "/v1/config":
                return await self._respond(
                    writer, 200, wire.config_to_json(self.config)
                )
            if path == "/v1/metrics":
                return await self._respond(writer, 200, self._metrics())
            if path == "/v1/jobs":
                return await self._respond(
                    writer,
                    200,
                    {
                        "jobs": {
                            job.id: job.status
                            for job in self.manager.jobs()
                        }
                    },
                )
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/") :]
                if rest.endswith("/events"):
                    try:
                        cursor = max(0, int(query.get("cursor", 0)))
                    except ValueError:
                        cursor = 0
                    return await self._sse(
                        writer, rest[: -len("/events")], cursor
                    )
                job = self.manager.get(rest)
                if job is None:
                    return await self._respond(
                        writer, 404, {"error": f"no such job {rest!r}"}
                    )
                return await self._respond(
                    writer, 200, _public(job.snapshot())
                )
            return await self._respond(
                writer, 404, {"error": f"no route for {path!r}"}
            )
        await self._respond(writer, 405, {"error": f"method {method}"})

    async def _post_job(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise wire.WireError("request body must be a JSON object")
            job = self.manager.submit(
                str(request.get("kind", "")),
                request.get("payload") or {},
                tenant=str(request.get("tenant", "default")),
            )
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return await self._respond(
                writer, 400, {"error": f"bad JSON: {exc}"}
            )
        except wire.WireError as exc:
            return await self._respond(writer, 400, {"error": str(exc)})
        except AdmissionError as exc:
            headers = None
            if exc.retry_after is not None:
                headers = {"Retry-After": str(int(exc.retry_after) + 1)}
            return await self._respond(
                writer, exc.status, {"error": str(exc)}, headers=headers
            )
        await self._respond(writer, 202, _public(job.snapshot()))

    def _healthz(self) -> dict:
        jobs = self.manager.metrics()
        return {
            "status": "draining" if self.manager.draining else "ok",
            "uptime_s": round(time.monotonic() - self.started, 3),
            "queued": jobs["queued"],
            "running": jobs["running"],
            "draining": self.manager.draining,
        }

    def _metrics(self) -> dict:
        return {
            "service": self.manager.metrics(),
            "registry": self.registry.metrics(),
            "uptime_s": round(time.monotonic() - self.started, 3),
        }

    # -- SSE -----------------------------------------------------------

    async def _sse(
        self, writer: asyncio.StreamWriter, job_id: str, cursor: int = 0
    ) -> None:
        job = self.manager.get(job_id)
        if job is None:
            return await self._respond(
                writer, 404, {"error": f"no such job {job_id!r}"}
            )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        while True:
            # Push, not poll: park a (sleeping) executor thread on the
            # job's condition variable until a shard settles.  Waking
            # the event loop 20x/s per watcher would steal GIL slices
            # from the very engine threads producing the shards.
            events, done = await loop.run_in_executor(
                None, job.events_since, cursor, _SSE_WAIT_S
            )
            for event in events:
                writer.write(
                    b"event: shard\ndata: "
                    + json.dumps(event).encode()
                    + b"\n\n"
                )
            cursor += len(events)
            if events:
                await writer.drain()
            if done:
                final = (
                    b"cancelled" if job.status == "cancelled" else b"done"
                )
                writer.write(
                    b"event: " + final + b"\ndata: "
                    + json.dumps(_public(job.snapshot())).encode()
                    + b"\n\n"
                )
                await writer.drain()
                return


def run(config: EngineConfig | None = None, print_fn=print) -> None:
    """Blocking entry point for ``repro serve``: bind, announce, serve
    until interrupted.

    SIGTERM triggers a graceful drain: admission stops immediately
    (503 + ``Retry-After``) while reads and SSE keep serving, running
    jobs get up to ``service_drain_ms`` to checkpoint and settle, then
    the process exits (anything still in flight is persisted
    re-queueable).  SIGINT / kill -9 take the abrupt path — which the
    durable records and ``recover()`` are built to survive.
    """
    server = ServiceServer(config)

    async def _main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        drain_requested = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, drain_requested.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-unix / nested loop: no graceful drain, only ^C
        print_fn(
            f"repro service listening on "
            f"http://{server.host}:{server.port}"
        )
        sys.stdout.flush()
        serving = asyncio.ensure_future(server.serve_forever())
        waiting = asyncio.ensure_future(drain_requested.wait())
        done, _pending = await asyncio.wait(
            {serving, waiting}, return_when=asyncio.FIRST_COMPLETED
        )
        if waiting in done:
            drain_s = server.config.service_drain_ms / 1000.0
            print_fn(
                f"repro service draining (deadline {drain_s:.1f}s) ..."
            )
            sys.stdout.flush()
            server.manager.begin_drain()
            # The drain wait blocks on job conditions — keep it off the
            # event loop so 503s and SSE stay responsive throughout.
            clean = await loop.run_in_executor(
                None, server.manager.drain, drain_s
            )
            print_fn(
                "repro service drained"
                + ("" if clean else " (jobs persisted re-queueable)")
            )
        serving.cancel()
        waiting.cancel()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
