"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``zoo``
    Print the Example 1 query zoo with classifier verdicts.
``decide <query>``
    Decide boundedness of a zoo query (``q2`` .. ``q8``) or of a CQ
    read from a file of ``label(node)`` / ``pred(src, dst)`` lines.
``eval <query> <data> [--semiring NAME]``
    Evaluate a CQ over a data instance under a commutative semiring
    (``bool`` / ``count`` / ``prob`` / ``minplus`` / ``maxplus`` /
    ``why``) through the unified ``Session.evaluate`` surface; both
    arguments are zoo names or CQ-file paths, and ``--weights`` reads
    per-fact annotations from ``atom = value`` lines.
``demo``
    Run the Theorem 3 pipeline on the toy alternating Turing machines.
``config [--json]``
    Print the resolved :class:`~repro.core.config.EngineConfig` — the
    environment, the global flags, and the defaults merged in
    precedence order (env < flag) — plus the resolved durable-store
    path (``cache_path``).  ``--json`` emits the same resolution as
    machine-readable JSON through the service wire serializer, so
    scripted callers and ``GET /v1/config`` read one format.
``serve``
    Run the multi-tenant job service (:mod:`repro.service`) until
    interrupted; ``--host`` / ``--port`` / ``--tenants`` / ``--threads``
    / ``--queue-depth`` / ``--tenant-jobs`` / ``--retry-max`` /
    ``--drain-ms`` / ``--lease-ttl-ms`` override the
    ``REPRO_SERVICE_*`` environment.  SIGTERM drains gracefully
    (admission 503s, running jobs checkpoint, then exit).
``jobs submit|get|watch|cancel``
    Client for a running service: ``submit`` posts a
    decide/evaluate/probe/screen job built from zoo names, CQ files or
    a generated ``--family``; ``get`` prints the job record; ``watch``
    streams the SSE shard feed; ``cancel`` requests cooperative
    cancellation.  Exit status 1 when the job failed, 3 when its
    tri-state outcome is UNKNOWN, 4 when it was cancelled.
``cache stats|clear|verify``
    Operate on the durable store (``REPRO_CACHE_DIR`` /
    ``--cache-dir``): ``stats`` prints entry counts, bytes, lifetime
    hit rates and quarantine history; ``clear`` drops every entry;
    ``verify`` recomputes every row checksum, dropping (and reporting)
    corrupt rows — exit status 1 when any were found.

Global flags (before the command) configure the session every command
runs in: ``--backend`` picks the hom backend (``naive`` / ``bitset`` /
``matrix`` / ``auto``), ``--workers`` sizes the shard executor and
``--cache-dir`` points the durable store at a directory.  The CLI is a
thin veneer over the public :class:`~repro.session.Session` API;
anything serious should import :mod:`repro` directly.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import zoo
from .core.config import BACKEND_CHOICES, EngineConfig
from .core.structure import Structure, StructureBuilder
from .session import Session


def _parse_cq_file(path: str) -> Structure:
    """Read a CQ from ``label(node)`` / ``pred(a, b)`` lines.

    Lines starting with ``#`` and blank lines are skipped.
    """
    builder = StructureBuilder()
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition("(")
            args = [a.strip() for a in rest.rstrip(")").split(",")]
            if len(args) == 1:
                builder.add_node(args[0], name.strip())
            elif len(args) == 2:
                builder.add_edge(args[0], args[1], name.strip())
            else:
                raise ValueError(f"cannot parse atom: {line!r}")
    return builder.build()


def _load_structure(name_or_path: str) -> Structure:
    """A zoo query by name (``q2`` / ``d1`` ...) or a CQ file."""
    if hasattr(zoo, name_or_path):
        return getattr(zoo, name_or_path)()
    return _parse_cq_file(name_or_path)


def _parse_atom(text: str):
    """``label(node)`` -> UnaryFact, ``pred(a, b)`` -> BinaryFact."""
    from .core.structure import BinaryFact, UnaryFact

    name, _, rest = text.partition("(")
    args = [a.strip() for a in rest.rstrip(")").split(",")]
    if len(args) == 1:
        return UnaryFact(name.strip(), args[0])
    if len(args) == 2:
        return BinaryFact(name.strip(), args[0], args[1])
    raise ValueError(f"cannot parse atom: {text!r}")


def _parse_weights_file(path: str) -> dict:
    """Read fact annotations from ``atom = value`` lines (value a
    python number; ``#`` comments and blank lines skipped)."""
    weights: dict = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            atom, sep, value = line.rpartition("=")
            if not sep:
                raise ValueError(f"expected 'atom = value': {line!r}")
            parsed = float(value.strip())
            weights[_parse_atom(atom.strip())] = (
                int(parsed) if parsed.is_integer() else parsed
            )
    return weights


def _config_from_args(args: argparse.Namespace) -> EngineConfig:
    """The resolved config every command runs under: environment
    first, explicit flags on top (the documented env < config
    precedence).  Service flags only exist on ``serve``."""
    overrides: dict = {}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir or None
    for flag, field in (
        ("host", "service_host"),
        ("port", "service_port"),
        ("tenants", "service_tenants"),
        ("threads", "service_threads"),
        ("queue_depth", "service_queue_depth"),
        ("tenant_jobs", "service_tenant_jobs"),
        ("retry_max", "service_retry_max"),
        ("drain_ms", "service_drain_ms"),
        ("lease_ttl_ms", "service_lease_ttl_ms"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return EngineConfig.from_env(**overrides)


def _session_from_args(args: argparse.Namespace) -> Session:
    return Session(_config_from_args(args))


def _cmd_zoo(_session: Session, _args: argparse.Namespace) -> int:
    from .core.cq import solitary_f_nodes, solitary_t_nodes, twin_nodes

    for entry in zoo.zoo_table():
        q = entry.query
        census = (
            f"F={len(solitary_f_nodes(q))} T={len(solitary_t_nodes(q))} "
            f"FT={len(twin_nodes(q))}"
        )
        print(f"{entry.name:4} {census:16} paper: {entry.expected}")
    return 0


def _cmd_decide(session: Session, args: argparse.Namespace) -> int:
    if hasattr(zoo, args.query):
        q = getattr(zoo, args.query)()
    else:
        q = _parse_cq_file(args.query)
    decision = session.decide_boundedness(q, probe_depth=args.probe_depth)
    print(decision.describe())
    return 0


def _cmd_eval(session: Session, args: argparse.Namespace) -> int:
    from .core.semiring import resolve_semiring

    q = _load_structure(args.query)
    data = _load_structure(args.data)
    weights = (
        _parse_weights_file(args.weights) if args.weights else None
    )
    if weights and resolve_semiring(args.semiring).dtype == "object":
        print(
            f"--weights files hold numbers, but semiring "
            f"{args.semiring!r} has a non-numeric carrier (its values "
            f"are witness sets); drop --weights or pick a numeric "
            f"semiring",
            file=sys.stderr,
        )
        return 2
    ev = session.evaluate(
        q, data, args.semiring, weights=weights, backend=args.eval_backend
    )
    if not ev.known:
        # Exit 3 is the governed-UNKNOWN code (2 stays usage errors),
        # so scripts can tell UNKNOWN from FALSE and from bad flags.
        print(f"UNKNOWN ({ev.reason}) [semiring={ev.semiring}]")
        return 3
    print(f"{ev.value!r} [semiring={ev.semiring} backend={ev.backend}]")
    if ev.witness is not None:
        mapping = ", ".join(
            f"{k}->{v}" for k, v in sorted(ev.witness.items(), key=str)
        )
        print(f"witness: {mapping}")
    return 0


def _cmd_demo(_session: Session, _args: argparse.Namespace) -> int:
    from .atm.machine import toy_alternation_machine
    from .atm.reduction import build_query, skeleton_boundedness_semantics

    machine = toy_alternation_machine()
    for word in ("1", "0"):
        result = build_query(machine, word)
        print(result.describe())
        report = skeleton_boundedness_semantics(machine, word)
        print(report.describe())
        print()
    return 0


def _cmd_config(session: Session, args: argparse.Namespace) -> int:
    from .core.store import resolve_store_path

    if args.json:
        from .service.wire import config_to_json

        print(json.dumps(config_to_json(session.config), indent=2))
        return 0
    print(session.config.describe())
    path = resolve_store_path(session.config.cache_dir)
    print(f"cache_path={str(path) if path else None!r}")
    return 0


def _cmd_cache(session: Session, args: argparse.Namespace) -> int:
    store = session.store
    if store is None:
        print(
            "no durable store configured: set REPRO_CACHE_DIR or pass "
            "--cache-dir",
            file=sys.stderr,
        )
        return 2
    if args.action == "stats":
        print(store.stats().describe())
        return 0
    if args.action == "clear":
        dropped = store.clear()
        print(f"cleared {dropped} entries from {store.path}")
        return 0
    checked, dropped = store.verify()
    print(f"verified {checked} entries, dropped {dropped} corrupt")
    return 1 if dropped else 0


def _cmd_serve(config: EngineConfig, _args: argparse.Namespace) -> int:
    from .service.server import run

    run(config)
    return 0


def _parse_server(spec: str | None, config: EngineConfig) -> tuple[str, int]:
    if not spec:
        return config.service_host, config.service_port
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--server needs HOST:PORT, got {spec!r}")
    return host, int(port)


def _submit_payload(args: argparse.Namespace) -> dict:
    """Build the job payload from zoo names / CQ files / ``--family``."""
    from .service.wire import structure_to_json

    queries = [
        structure_to_json(_load_structure(q)) for q in (args.query or ())
    ]
    instances = [
        structure_to_json(_load_structure(d)) for d in (args.data or ())
    ]
    if args.family:
        from .workloads.generators import instance_family

        try:
            count, nodes, edges, seed = (
                int(x) for x in args.family.split(",")
            )
        except ValueError:
            raise SystemExit(
                f"--family needs COUNT,NODES,EDGES,SEED, got "
                f"{args.family!r}"
            ) from None
        instances.extend(
            structure_to_json(s)
            for s in instance_family(count, nodes, edges, seed=seed)
        )
    if args.kind == "screen":
        if not queries or not instances:
            raise SystemExit(
                "screen needs at least one --query and one --data/--family"
            )
        payload: dict = {"queries": queries, "instances": instances}
    else:
        if len(queries) != 1:
            raise SystemExit(f"{args.kind} needs exactly one --query")
        payload = {"query": queries[0]}
        if args.kind == "evaluate":
            if len(instances) != 1:
                raise SystemExit("evaluate needs exactly one --data")
            payload["data"] = instances[0]
            payload["semiring"] = args.semiring
        else:
            payload["probe_depth"] = args.probe_depth
    return payload


def _job_exit_code(record: dict) -> int:
    """0 settled-known, 1 failed, 3 any tri-state UNKNOWN in the result
    (the same code ``repro eval`` uses for a governed UNKNOWN), 4
    cancelled."""
    if record.get("status") == "cancelled":
        return 4
    if record.get("status") != "done":
        return 1
    result = record.get("result") or {}
    if isinstance(result, dict):
        answer = result.get("answer")
        if isinstance(answer, dict) and "unknown" in answer:
            return 3
        if result.get("bounded") is None and "bounded" in result:
            return 3
        matrix = result.get("matrix") or []
        for row in matrix:
            if any(isinstance(a, dict) and "unknown" in a for a in row):
                return 3
    return 0


def _watch_job(client, job_id: str) -> int:
    final: dict = {}
    for event, data in client.watch(job_id):
        if event == "shard":
            print(
                f"shard [{data['start']},{data['stop']}) "
                f"{json.dumps(data['answers'])}"
            )
        elif event in ("done", "cancelled"):
            final = data or {}
    status = final.get("status", "unknown")
    print(f"job {job_id}: {status}")
    if final.get("error"):
        print(final["error"], file=sys.stderr)
    return _job_exit_code(final)


def _cmd_jobs(config: EngineConfig, args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    host, port = _parse_server(args.server, config)
    client = ServiceClient(host, port)
    try:
        if args.jobs_command == "submit":
            record = client.submit(
                args.kind, _submit_payload(args), tenant=args.tenant
            )
            print(f"job {record['id']}: {record['status']}")
            if args.watch:
                return _watch_job(client, record["id"])
            return 0
        if args.jobs_command == "get":
            print(json.dumps(client.job(args.job_id), indent=2))
            return 0
        if args.jobs_command == "cancel":
            record = client.cancel(args.job_id)
            print(f"job {record['id']}: {record['status']}")
            return 0
        return _watch_job(client, args.job_id)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Deciding Boundedness of Monadic Sirups (PODS 2021)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="hom-search backend for this run (overrides REPRO_HOM_BACKEND)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="shard-executor worker count (overrides REPRO_HOM_WORKERS; "
        "<= 1 disables parallelism)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="durable-store directory (overrides REPRO_CACHE_DIR; "
        "empty string disables the disk tier)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("zoo", help="print the Example 1 query zoo")

    decide = commands.add_parser(
        "decide", help="decide boundedness of a zoo query or CQ file"
    )
    decide.add_argument("query", help="zoo name (q2..q8) or path to a CQ file")
    decide.add_argument(
        "--probe-depth", type=int, default=3,
        help="probe depth for non-Lambda queries (default 3)",
    )

    ev = commands.add_parser(
        "eval", help="evaluate a CQ over an instance under a semiring"
    )
    ev.add_argument("query", help="zoo name (q1..q8) or path to a CQ file")
    ev.add_argument("data", help="zoo name (d1, d2) or path to a CQ file")
    ev.add_argument(
        "--semiring", default="bool",
        help="registered semiring name: bool / count / prob / minplus / "
        "maxplus / why (default bool)",
    )
    ev.add_argument(
        "--weights", default=None, metavar="FILE",
        help="per-fact annotations, one 'atom = value' line each",
    )
    ev.add_argument(
        "--eval-backend", default=None, choices=BACKEND_CHOICES,
        help="force one hom backend for this evaluation",
    )

    commands.add_parser("demo", help="run the Theorem 3 toy pipeline")

    config_cmd = commands.add_parser(
        "config", help="print the resolved engine configuration"
    )
    config_cmd.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (the /v1/config wire format)",
    )

    serve = commands.add_parser(
        "serve", help="run the multi-tenant job service"
    )
    serve.add_argument(
        "--host", default=None,
        help="bind address (overrides REPRO_SERVICE_HOST)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind port, 0 for ephemeral (overrides REPRO_SERVICE_PORT)",
    )
    serve.add_argument(
        "--tenants", type=int, default=None,
        help="session-registry LRU capacity (REPRO_SERVICE_TENANTS)",
    )
    serve.add_argument(
        "--threads", type=int, default=None,
        help="job executor threads (REPRO_SERVICE_THREADS)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None,
        help="backlog cap before 429 (REPRO_SERVICE_QUEUE_DEPTH)",
    )
    serve.add_argument(
        "--tenant-jobs", type=int, default=None,
        help="per-tenant running-job cap (REPRO_SERVICE_TENANT_JOBS)",
    )
    serve.add_argument(
        "--retry-max", type=int, default=None,
        help="job attempts before quarantine (REPRO_SERVICE_RETRY_MAX)",
    )
    serve.add_argument(
        "--drain-ms", type=int, default=None,
        help="SIGTERM graceful-drain deadline (REPRO_SERVICE_DRAIN_MS)",
    )
    serve.add_argument(
        "--lease-ttl-ms", type=int, default=None,
        help="job ownership lease TTL (REPRO_SERVICE_LEASE_TTL_MS)",
    )

    jobs = commands.add_parser(
        "jobs", help="submit to / query a running job service"
    )
    jobs.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="service endpoint (default: the resolved service host/port)",
    )
    jobs_commands = jobs.add_subparsers(dest="jobs_command", required=True)
    submit = jobs_commands.add_parser(
        "submit", help="post a job: decide / evaluate / probe / screen"
    )
    submit.add_argument(
        "kind", choices=("decide", "evaluate", "probe", "screen"),
    )
    submit.add_argument(
        "--query", action="append", metavar="Q",
        help="zoo name or CQ file (repeatable for screen)",
    )
    submit.add_argument(
        "--data", action="append", metavar="D",
        help="zoo name or CQ file (repeatable for screen instances)",
    )
    submit.add_argument(
        "--family", default=None, metavar="COUNT,NODES,EDGES,SEED",
        help="generate screen instances with workloads.instance_family",
    )
    submit.add_argument(
        "--semiring", default="bool",
        help="semiring for evaluate jobs (default bool)",
    )
    submit.add_argument(
        "--probe-depth", type=int, default=3,
        help="probe depth for decide/probe jobs (default 3)",
    )
    submit.add_argument(
        "--tenant", default="default", help="tenant to run the job as"
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's SSE feed after submitting",
    )
    get = jobs_commands.add_parser("get", help="print one job record")
    get.add_argument("job_id")
    watch = jobs_commands.add_parser(
        "watch", help="stream a job's SSE shard feed"
    )
    watch.add_argument("job_id")
    cancel = jobs_commands.add_parser(
        "cancel", help="request cooperative cancellation of a job"
    )
    cancel.add_argument("job_id")

    cache = commands.add_parser(
        "cache", help="inspect or maintain the durable store"
    )
    cache.add_argument(
        "action", choices=("stats", "clear", "verify"),
        help="stats: occupancy + hit rates; clear: drop every entry; "
        "verify: full checksum sweep (exit 1 if corrupt rows found)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "zoo": _cmd_zoo,
        "decide": _cmd_decide,
        "eval": _cmd_eval,
        "demo": _cmd_demo,
        "config": _cmd_config,
        "cache": _cmd_cache,
    }
    if args.command == "serve":
        return _cmd_serve(_config_from_args(args), args)
    if args.command == "jobs":
        return _cmd_jobs(_config_from_args(args), args)
    with _session_from_args(args) as session:
        return handlers[args.command](session, args)


if __name__ == "__main__":
    sys.exit(main())
