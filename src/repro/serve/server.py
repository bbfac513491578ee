"""The coordination daemon: asyncio TCP front-end over the batcher.

One process, one shared :class:`~repro.core.parallel.SweepEngine`, any
number of clients.  Each connection is read line-by-line; every query
frame becomes its own task that rides the micro-batcher, so replies on
a connection may arrive out of request order (clients match on ``id``).
Control frames (``ping``/``stats``/``shutdown``) are answered inline —
they must stay responsive even while heavy flushes are resolving.

Nothing here ever lets one request kill the process: protocol
violations are answered with ``ok: false`` envelopes, library errors
are typed into the error family, and an armed fault plan degrades
individual replies (flagged in the envelope) while the listener keeps
accepting connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import time
from typing import Any, TextIO

from repro import errors
from repro.core.parallel import SweepEngine
from repro.errors import FaultError, ProtocolError, ServeError
from repro.serve.batching import MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    CONTROL_OPS,
    PROTOCOL_VERSION,
    Request,
    decode_request,
    encode_frame,
    error_payload,
    response_envelope,
)
from repro.serve.service import CoordinationService

__all__ = ["ServeConfig", "CoordServer", "run_server", "run_smoke"]


async def _discard_through_newline(reader: asyncio.StreamReader) -> bool:
    """Drop the rest of an oversized frame; ``False`` if the stream ends first.

    Each overrun reports how many buffered bytes precede the newline (all
    of them, when none has arrived yet); dropping exactly those keeps the
    buffer bounded however long the frame is.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


class CoordServer:
    """One listening socket fronting one warm engine stack."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        engine: SweepEngine | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.service = CoordinationService(engine)
        self.batcher = MicroBatcher(
            self.service,
            max_batch=self.config.max_batch,
            max_wait_us=self.config.max_wait_us,
            n_resolvers=self.config.n_resolvers,
        )
        self.started_at = time.monotonic()
        self.connections_total = 0
        self.frames_total = 0
        self.protocol_errors = 0
        self._server: asyncio.Server | None = None
        self._stats_task: asyncio.Task[None] | None = None
        self._frame_tasks: set[asyncio.Task[None]] = set()
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``.

        Port 0 binds an ephemeral port — the return value is the real
        one, which is what the tests and the smoke harness use.
        """
        if self._server is not None:
            raise ServeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        sockets = self._server.sockets
        host, port = sockets[0].getsockname()[:2]
        if self.config.stats_interval_s > 0:
            self._stats_task = asyncio.get_running_loop().create_task(
                self._stats_loop(self.config.stats_interval_s)
            )
        return str(host), int(port)

    async def stop(self) -> None:
        """Stop listening, drain in-flight work, release the executor."""
        if self._stats_task is not None:
            self._stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._stats_task
            self._stats_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._frame_tasks:
            await asyncio.gather(*tuple(self._frame_tasks), return_exceptions=True)
        # Idle connections sit in readuntil() forever; reap them so loop
        # teardown never cancels a handler mid-close.
        for task in tuple(self._conn_tasks):
            task.cancel()
        while self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        await self.batcher.aclose()
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` frame arrives, then stop cleanly."""
        await self._shutdown.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.connections_total += 1
        # Replies from concurrent frame tasks interleave on one socket;
        # the lock keeps each frame's bytes contiguous.
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # end of stream: the last, unterminated frame
                except asyncio.LimitOverrunError:
                    # A frame past the stream's line limit: answer it once,
                    # drop the rest of it, keep serving the connection.
                    self.frames_total += 1
                    self.protocol_errors += 1
                    oversized = ProtocolError("frame exceeds the server's line limit")
                    await self._send(
                        writer,
                        write_lock,
                        response_envelope(None, None, error=error_payload(oversized)),
                    )
                    if await _discard_through_newline(reader):
                        continue
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.frames_total += 1
                frame_task = asyncio.get_running_loop().create_task(
                    self._handle_frame(line, writer, write_lock)
                )
                self._frame_tasks.add(frame_task)
                frame_task.add_done_callback(self._frame_tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; nothing left to answer
        except asyncio.CancelledError:
            # Only stop() cancels connection tasks (reaping an idle
            # read); finish normally so the streams protocol's
            # done-callback never trips over a cancelled task.
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                try:
                    await writer.wait_closed()
                except asyncio.CancelledError:
                    pass  # reaped at shutdown while the FIN was in flight

    async def _handle_frame(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.protocol_errors += 1
            await self._send(
                writer,
                write_lock,
                response_envelope(None, None, error=error_payload(exc)),
            )
            return
        if request.op in CONTROL_OPS:
            payload = self._control(request)
        else:
            resolution, served = await self.batcher.submit(request)
            if resolution.ok:
                payload = response_envelope(
                    request.id,
                    request.op,
                    result=resolution.result,
                    served=served,
                    degraded=resolution.degraded,
                    events=resolution.events,
                )
            else:
                payload = response_envelope(
                    request.id,
                    request.op,
                    error=resolution.error_dict(),
                    served=served,
                    degraded=resolution.degraded,
                    events=resolution.events,
                )
        await self._send(writer, write_lock, payload)
        if request.op == "shutdown":
            # Reply first, then tear the whole server down.
            asyncio.get_running_loop().create_task(self.stop())

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: dict[str, Any],
    ) -> None:
        frame = encode_frame(payload)
        async with write_lock:
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass  # client went away mid-reply; nothing to salvage

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _control(self, request: Request) -> dict[str, Any]:
        if request.op == "ping":
            result: dict[str, Any] = {
                "protocol": PROTOCOL_VERSION,
                "uptime_s": time.monotonic() - self.started_at,
            }
        elif request.op == "stats":
            result = self.stats_payload()
        else:  # shutdown
            result = {"stopping": True}
        return response_envelope(request.id, request.op, result=result)

    def stats_payload(self) -> dict[str, Any]:
        """One structured snapshot across every tier of the stack."""
        payload = self.service.stats_snapshot()
        payload["batcher"] = self.batcher.stats.to_dict()
        payload["server"] = {
            "uptime_s": time.monotonic() - self.started_at,
            "connections_total": self.connections_total,
            "frames_total": self.frames_total,
            "protocol_errors": self.protocol_errors,
            "faults_armed": self.service.faults_armed(),
        }
        return payload

    async def _stats_loop(self, interval_s: float) -> None:
        while True:
            await asyncio.sleep(interval_s)
            self.log_stats_line()

    def log_stats_line(self, stream: TextIO | None = None) -> None:
        """One human-grade stats line (the ``--stats-interval`` heartbeat)."""
        snapshot = self.stats_payload()
        cache = snapshot["engine"]["cache"]
        planner = snapshot["engine"]["planner"]
        batcher = snapshot["batcher"]
        profiles = snapshot["profiles"]
        print(
            "[serve] "
            f"frames={self.frames_total} "
            f"memo_hit={cache['hit_ratio']:.2f} "
            f"disk_hit={cache['disk_hit_ratio']:.2f} "
            f"profile_hit={profiles['hit_ratio']:.2f} "
            f"planner_saved={planner['savings_ratio']:.2f} "
            f"occupancy={batcher['mean_occupancy']:.1f} "
            f"dedup={batcher['dedup_ratio']:.2f}",
            file=stream if stream is not None else sys.stderr,
            flush=True,
        )


async def _amain(config: ServeConfig, engine: SweepEngine | None) -> None:
    server = CoordServer(config, engine=engine)
    host, port = await server.start()
    print(f"repro serve: listening on {host}:{port}", flush=True)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.stop()


def run_server(config: ServeConfig, *, engine: SweepEngine | None = None) -> None:
    """Blocking entry point: serve until a ``shutdown`` frame (or Ctrl-C)."""
    try:
        asyncio.run(_amain(config, engine))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", flush=True)


# ----------------------------------------------------------------------
# smoke harness (``repro serve --smoke`` / ``make serve-smoke``)
# ----------------------------------------------------------------------

_SMOKE_QUERIES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("coord", {"workload": "dgemm", "budget_w": 180.0}),
    ("coord", {"workload": "stream", "budget_w": 160.0}),
    ("profile", {"workload": "dgemm"}),
    ("sweep_best", {"workload": "dgemm", "budget_w": 180.0}),
    ("sweep_best", {"workload": "stream", "budget_w": 200.0}),
    ("budget_curve", {"workload": "dgemm", "budgets_w": [144.0, 176.0, 208.0]}),
    ("coord", {"workload": "sgemm", "budget_w": 200.0}),
    ("sweep_best", {"workload": "gpu-stream", "budget_w": 200.0}),
)


def _is_fault_error(reply: dict[str, Any]) -> bool:
    """True when ``reply`` failed with a typed :class:`FaultError`."""
    error: dict[str, Any] = reply.get("error") or {}
    cls = getattr(errors, str(error.get("type")), None)
    return bool(
        error.get("family") == "repro"
        and isinstance(cls, type)
        and issubclass(cls, FaultError)
    )


async def _smoke(
    config: ServeConfig, n_clients: int, engine: SweepEngine | None
) -> dict[str, Any]:
    from repro.serve.client import ServeClient
    from repro.serve.service import CoordinationService

    server = CoordServer(config, engine=engine)
    host, port = await server.start()

    async def one_client(index: int) -> list[dict[str, Any]]:
        async with await ServeClient.connect(host, port) as client:
            op, params = _SMOKE_QUERIES[index % len(_SMOKE_QUERIES)]
            replies = [await client.request("ping")]
            replies.append(await client.request(op, params))
            return replies

    burst = await asyncio.gather(*(one_client(i) for i in range(n_clients)))
    replies = [reply for per_client in burst for reply in per_client]
    errored = [r for r in replies if not r.get("ok")]
    degraded = sum(1 for r in replies if r.get("degraded"))

    # Bit-identity spot checks against direct library calls on a cold
    # full-mode engine — a COORD answer and a sweep answer, which the
    # served engine resolves in its own mode and disk tier, must carry
    # the exact same numbers.
    from repro.serve.protocol import Request

    spots = (_SMOKE_QUERIES[0], _SMOKE_QUERIES[3])  # coord, sweep_best
    direct = CoordinationService(SweepEngine())
    wants = [
        direct.resolve(Request(id=None, op=op, params=params)).result
        for op, params in spots
    ]
    async with await ServeClient.connect(host, port) as client:
        gots = [(await client.request(op, params)).get("result") for op, params in spots]
    identical = gots == wants

    async with await ServeClient.connect(host, port) as client:
        stats = (await client.request("stats"))["result"]
        await client.request("shutdown")
    await server.serve_until_shutdown()
    # A typed fault error is an outcome the contract allows, but only
    # while a plan is armed.
    faults_armed = stats["server"]["faults_armed"]
    typed = sum(1 for r in errored if faults_armed and _is_fault_error(r))
    return {
        "replies": len(replies),
        "failed": len(errored) - typed,
        "typed": typed,
        "degraded": degraded,
        "identical": identical,
        "mean_occupancy": stats["batcher"]["mean_occupancy"],
        "faults_armed": faults_armed,
    }


def run_smoke(
    config: ServeConfig,
    *,
    n_clients: int = 24,
    engine: SweepEngine | None = None,
) -> None:
    """Start a server, drive a concurrent burst over TCP, shut down clean.

    The server runs on ``engine`` (a fresh default engine when ``None``),
    the one ``repro serve --smoke`` builds from its engine flags.  Raises
    :class:`ServeError` on any failed reply or identity drift, so the CI
    target fails loudly.  Under an armed fault plan, degraded replies and
    typed :class:`~repro.errors.FaultError` replies are expected and
    counted, not fatal — that is the contract; any other error fails.
    """
    outcome = asyncio.run(_smoke(config, n_clients, engine))
    print(
        "repro serve --smoke: "
        f"{outcome['replies']} replies, {outcome['failed']} failed, "
        f"{outcome['typed']} typed fault errors, "
        f"{outcome['degraded']} degraded, "
        f"identical={outcome['identical']}, "
        f"occupancy={outcome['mean_occupancy']:.1f}, "
        f"faults_armed={outcome['faults_armed']}",
        flush=True,
    )
    if outcome["failed"]:
        raise ServeError(f"smoke burst had {outcome['failed']} failed replies")
    if not outcome["identical"] and not outcome["faults_armed"]:
        raise ServeError("served answer drifted from the direct library call")
