"""Run the coordination server with spans at its public boundaries.

Takes the flags of ``repro serve`` that the benchmark passes, plus
``--spans FILE``.  The server is the library's ``CoordServer`` over a
benchmark-owned traced ``SweepEngine``; ``CoordinationService.resolve``
and ``prefetch`` are wrapped on the instance.  All of them run on the
single resolver thread, so one ``Tracer`` records them.  The spans are
written to FILE as JSON after the server shuts down.

    PYTHONPATH=src python benchmarks/perf/serve_launcher.py --spans s.json \\
        --host 127.0.0.1 --port 0 --sweep-mode full --jobs 1 \\
        --max-batch 32 --max-wait-us 2000 --resolvers 1 --stats-interval 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

from measure import ENGINE_FLAGS, Tracer, make_engine, span


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", type=Path, required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--sweep-mode", choices=("full", "adaptive"), required=True)
    p.add_argument("--jobs", type=int, choices=(ENGINE_FLAGS["n_jobs"],), required=True)
    p.add_argument("--max-batch", type=int, required=True)
    p.add_argument("--max-wait-us", type=int, required=True)
    p.add_argument("--resolvers", type=int, choices=(1,), required=True)
    p.add_argument("--stats-interval", type=float, required=True)
    return p.parse_args()


async def _serve(args: argparse.Namespace, tracer: Tracer) -> None:
    from repro.serve.server import CoordServer, ServeConfig

    config = ServeConfig(host=args.host, port=args.port, max_batch=args.max_batch,
                         max_wait_us=args.max_wait_us,
                         stats_interval_s=args.stats_interval,
                         n_resolvers=args.resolvers)
    server = CoordServer(config, engine=make_engine(tracer, args.sweep_mode))
    service = server.service
    resolve, prefetch = service.resolve, service.prefetch

    def traced_resolve(request):
        with span(tracer, "service.resolve", request.id):
            return resolve(request)

    def traced_prefetch(requests):
        with span(tracer, "service.prefetch"):
            return prefetch(requests)

    service.resolve = traced_resolve
    service.prefetch = traced_prefetch
    host, port = await server.start()
    print(f"repro serve: listening on {host}:{port}", flush=True)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.stop()


def main() -> None:
    args = _parse()
    tracer = Tracer()
    asyncio.run(_serve(args, tracer))
    args.spans.write_text(json.dumps(tracer.drain()))


if __name__ == "__main__":
    main()
