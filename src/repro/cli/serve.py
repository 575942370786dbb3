"""``serve``, ``submit``, ``jobs``: the analysis daemon and its two
clients. The clients need the socket client and nothing else, so this
module imports the service (and ``asyncio``) only inside ``serve``."""
from __future__ import annotations

import argparse
import sys

from repro.cli.common import _add_common_flags, _write_json, usage_error

#: Default TCP port of the ``repro serve`` daemon.
DEFAULT_SERVE_PORT = 7587


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.service import ServeSettings, serve_forever

    if args.port is None and args.unix is None:
        return usage_error("serve needs --port and/or --unix")
    settings = ServeSettings(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        workers=args.workers,
        queue_limit=args.queue_limit,
        quota=args.quota,
        backend=args.backend or "inline",
        shards=args.shards or 2,
    )
    try:
        asyncio.run(serve_forever(settings))
    except KeyboardInterrupt:
        pass
    return 0


def _connect_serve(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    try:
        return ServeClient(args.server, timeout=args.timeout)
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot connect to {args.server}: {exc}",
            file=sys.stderr,
        )
        return None


def _describe_serve_error(exc) -> str:
    message = f"error: {exc.code}: {exc}"
    if exc.retryable:
        hint = (
            f" (retryable; retry after {exc.retry_after:.1f}s)"
            if exc.retry_after is not None
            else " (retryable)"
        )
        message += hint
    return message


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeError

    client = _connect_serve(args)
    if client is None:
        return 2
    with client:
        try:
            if args.target.endswith(".py"):
                with open(args.target, "r", encoding="utf-8") as handle:
                    source = handle.read()
                job_id = client.submit(
                    tenant=args.tenant,
                    source=source,
                    op=args.analysis,
                    ranks=args.ranks,
                )
            elif args.target.endswith(".json"):
                with open(args.target, "r", encoding="utf-8") as handle:
                    trace = json.load(handle)
                job_id = client.submit(tenant=args.tenant, trace=trace)
            else:
                job_id = client.submit(
                    tenant=args.tenant,
                    workload=args.target,
                    ranks=args.ranks,
                )
        except ServeError as exc:
            return usage_error(_describe_serve_error(exc))
        except OSError as exc:
            return usage_error(f"error: cannot read {args.target}: {exc}")
        print(f"submitted {job_id} (tenant {args.tenant})")
        if args.no_wait:
            return 0
        if args.watch:
            final = None
            for item in client.watch(job_id):
                if "final" in item:
                    final = item["final"]
                    break
                print(json.dumps(item, sort_keys=True))
            result = (final or {}).get("result", {})
        else:
            try:
                doc = client.result(
                    job_id, wait=True, timeout=args.timeout
                )
            except ServeError as exc:
                print(_describe_serve_error(exc), file=sys.stderr)
                return 1 if exc.code == "job-failed" else 2
            result = doc.get("result", {})
        verdict = result.get("verdict", "unknown")
        print(f"{job_id}: {verdict}")
        if result.get("deadlocked"):
            ranks = ", ".join(map(str, result["deadlocked"]))
            print(f"  deadlocked ranks: {ranks}")
        if args.json_out:
            _write_json(args.json_out, result)
        return int(result.get("exit_code", 0))


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError

    client = _connect_serve(args)
    if client is None:
        return 2
    with client:
        try:
            if args.metrics:
                print(client.metrics(), end="")
                return 0
            stats = client.stats()
            doc = client.jobs(tenant=args.tenant)
        except ServeError as exc:
            return usage_error(_describe_serve_error(exc))
        print(
            f"queue depth {stats['queue_depth']}, "
            f"running {stats['running']}/{stats['workers']} workers, "
            f"quota {stats['quota']}/tenant"
            + (" (draining)" if stats["draining"] else "")
        )
        for job in doc["jobs"]:
            line = (
                f"  {job['job']}  {job['state']:<9}  "
                f"{job['tenant']:<10}  {job['spec']}"
            )
            if job.get("error"):
                line += f"  ({job['error']})"
            print(line)
        counts = ", ".join(
            f"{state}={count}"
            for state, count in sorted(doc["counts"].items())
            if count
        )
        if counts:
            print(f"  totals: {counts}")
        if args.json_out:
            _write_json(args.json_out, {"stats": stats, **doc})
        return 0


def _register_serve(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=DEFAULT_SERVE_PORT,
        help=f"TCP listen port (default {DEFAULT_SERVE_PORT}; 0 = "
        "ephemeral; use --no-tcp to disable)",
    )
    serve.add_argument(
        "--no-tcp", dest="port", action="store_const", const=None,
        help="no TCP listener (serve only on --unix)",
    )
    serve.add_argument(
        "--unix", metavar="PATH", default=None,
        help="also (or only) listen on this Unix socket path",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="analysis worker processes (default 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help="max queued jobs before queue-full rejections (default 32)",
    )
    serve.add_argument(
        "--quota", type=int, default=4,
        help="max in-flight jobs per tenant (default 4)",
    )
    serve.add_argument(
        "--backend", choices=("inline", "sharded"), default="inline",
        help="analysis backend the workers use (default inline)",
    )
    serve.add_argument("--shards", type=int, default=2)


def _register_submit(submit: argparse.ArgumentParser) -> None:
    submit.add_argument(
        "target",
        help="a workload name, a rank-program .py file, or a matched "
        "trace .json file",
    )
    submit.add_argument(
        "--server", default=f"127.0.0.1:{DEFAULT_SERVE_PORT}",
        help="daemon address: host:port or a Unix socket path "
        f"(default 127.0.0.1:{DEFAULT_SERVE_PORT})",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument("-n", "--ranks", type=int, default=4)
    submit.add_argument(
        "--analysis", choices=("analyze", "verify", "blame"),
        default="analyze",
        help="analysis for .py submissions (default analyze)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return after submission without waiting for the verdict",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's repro-live/1 windows while waiting",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="connect/wait timeout in seconds (default 300)",
    )
    _add_common_flags(submit, "submit")
    submit.set_defaults(json_out=None)


def _register_jobs(jobs: argparse.ArgumentParser) -> None:
    jobs.add_argument(
        "--server", default=f"127.0.0.1:{DEFAULT_SERVE_PORT}",
        help="daemon address: host:port or a Unix socket path",
    )
    jobs.add_argument(
        "--tenant", default=None, help="only this tenant's jobs"
    )
    jobs.add_argument(
        "--metrics", action="store_true",
        help="print the daemon's OpenMetrics scrape and exit",
    )
    jobs.add_argument("--timeout", type=float, default=30.0)
    _add_common_flags(jobs, "jobs")
    jobs.set_defaults(json_out=None)


#: command -> (add its arguments to a parser, run it)
HANDLERS = {
    "serve": (_register_serve, _cmd_serve),
    "submit": (_register_submit, _cmd_submit),
    "jobs": (_register_jobs, _cmd_jobs),
}
