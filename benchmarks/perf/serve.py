"""The ``serve-mixed`` workload: open-loop load on the coordination server.

The catalogue is ~1,000 distinct queries (coord, profile, sweep_best and
4-budget budget_curve over 11 CPU workloads x {ivybridge, haswell} x
120-256 W, about a fifth of them on the two GPU cards).  Requests draw
queries Zipf(1.1) by catalogue rank and arrive as a seeded Poisson
process over two connections from one client process; latency runs from
each request's scheduled send time, so a stall also charges the
requests queued behind it.

The catalogue is the same for every seed; the seed orders the catalogue
passes and draws the arrival times and the ranks asked.  A catalogue
drawn from the seed moved p50 latency by 20% from seed to seed, because
it decides how much work the popular ranks take.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from measure import (
    HERE,
    HostSpeed,
    make_engine,
    percentile,
    pieced,
    spawn_until_ready,
    stop_process,
)

CPU_PLATFORMS = ("ivybridge", "haswell")
GPU_PLATFORMS = ("titan-xp", "titan-v")
CPU_BUDGETS_W = tuple(120.0 + 8.0 * i for i in range(18))  # 120-256 W
GPU_CAPS_W = tuple(130.0 + 8.0 * i for i in range(16))  # 130-250 W
#: Distinct catalogue queries per (device, op).
COMPOSITION = {
    ("cpu", "sweep_best"): 340,
    ("cpu", "coord"): 300,
    ("cpu", "budget_curve"): 140,
    ("cpu", "profile"): 20,
    ("gpu", "sweep_best"): 90,
    ("gpu", "coord"): 70,
    ("gpu", "budget_curve"): 30,
    ("gpu", "profile"): 10,
}
#: The catalogue's own fixed draw (see the module docstring).
CATALOGUE_SEED = 2016
ZIPF_S = 1.1
CONNECTIONS = 2
#: Requests in flight per connection during a catalogue pass.
IN_FLIGHT = 32
#: Pieces of a catalogue pass, with a host-factor sample after each.
PASS_PARTS = 4
RATES = (150.0, 450.0)
SERVE_FLAGS = ["--host", "127.0.0.1", "--port", "0", "--sweep-mode", "full",
               "--jobs", "1", "--max-batch", "32", "--max-wait-us", "2000",
               "--resolvers", "1", "--stats-interval", "0"]

Query = tuple[str, dict[str, Any]]


def catalogue(scale: float = 1.0) -> list[Query]:
    """Distinct queries in Zipf rank order; ``scale`` shrinks every kind."""
    from repro.workloads import list_cpu_workloads, list_gpu_workloads

    rng = random.Random(f"catalogue-{CATALOGUE_SEED}")
    names = {"cpu": list_cpu_workloads(), "gpu": list_gpu_workloads()}
    platforms = {"cpu": CPU_PLATFORMS, "gpu": GPU_PLATFORMS}
    budgets = {"cpu": CPU_BUDGETS_W, "gpu": GPU_CAPS_W}
    pools: dict[tuple[str, str], list[Query]] = {}
    slots: list[tuple[float, int, tuple[str, str]]] = []
    for order, ((device, op), full_count) in enumerate(COMPOSITION.items()):
        count = max(1, round(full_count * scale))
        pairs = [(w, p) for w in names[device] for p in platforms[device]]
        if op == "profile":
            universe = [{"workload": w, "platform": p} for w, p in pairs]
            chosen = rng.sample(universe, count)
        elif op in ("coord", "sweep_best"):
            universe = [{"workload": w, "platform": p, "budget_w": b}
                        for w, p in pairs for b in budgets[device]]
            chosen = rng.sample(universe, count)
        else:
            seen: set[tuple] = set()
            chosen = []
            while len(chosen) < count:
                w, p = rng.choice(pairs)
                curve = tuple(sorted(rng.sample(budgets[device], 4)))
                if (w, p, curve) not in seen:
                    seen.add((w, p, curve))
                    chosen.append({"workload": w, "platform": p,
                                   "budgets_w": list(curve)})
        pools[(device, op)] = [(op, params) for params in chosen]
        # Spread each kind evenly over the ranks.
        slots += [((i + 0.5) / count, order, (device, op)) for i in range(count)]
    cursor = {kind: 0 for kind in pools}
    out = []
    for _, _, kind in sorted(slots):
        out.append(pools[kind][cursor[kind]])
        cursor[kind] += 1
    return out


def arrivals(seed: int, rate: float, seconds: float, n_queries: int):
    """``(offset_s, catalogue index)`` pairs: Poisson arrivals at ``rate``,
    queries drawn Zipf(1.1) by rank.  A pure function of its arguments."""
    rng = random.Random(f"arrivals-{seed}-{rate}")
    cumulative = []
    total = 0.0
    for rank in range(1, n_queries + 1):
        total += rank ** -ZIPF_S
        cumulative.append(total)
    out = []
    t = rng.expovariate(rate)
    while t < seconds:
        index = bisect.bisect_left(cumulative, rng.random() * total)
        out.append((t, min(index, n_queries - 1)))
        t += rng.expovariate(rate)
    return out


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """Replies to one phase's requests."""

    sent: int = 0
    received: int = 0
    not_ok: int = 0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)
    sending: bool = True

    def finish_if_done(self) -> None:
        if not self.sending and self.received == self.sent:
            self.done.set()


class Client:
    """One process, ``CONNECTIONS`` connections, replies matched by id.

    Each distinct query's first reply is kept for the correctness check;
    later replies to the same query must equal it.
    """

    def __init__(self, queries: list[Query], codec: bool) -> None:
        from repro.serve.protocol import decode_response, encode_frame

        self.queries = queries
        self._encode = encode_frame
        self._decode = decode_response
        self.codec = codec
        self.codec_s = {"encode": 0.0, "decode": 0.0}
        self.reply_bytes = 0
        self.replies = 0
        self.results: dict[int, Any] = {}
        self.inconsistent: set[int] = set()
        self._inflight: dict[int, tuple[float, int, Phase, Callable | None]] = {}
        self._next_id = 0
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []

    async def connect(self, host: str, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            self._writers.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)

    async def send(self, conn: int, index: int, due: float, phase: Phase,
                   on_reply: Callable | None = None) -> None:
        rid = self._next_id
        self._next_id += 1
        op, params = self.queries[index]
        start = time.perf_counter()
        frame = self._encode({"id": rid, "op": op, "params": params})
        if self.codec:
            self.codec_s["encode"] += time.perf_counter() - start
        self._inflight[rid] = (due, index, phase, on_reply)
        phase.sent += 1
        writer = self._writers[conn]
        writer.write(frame)
        await writer.drain()

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            reply = self._decode(line)
            if self.codec:
                self.codec_s["decode"] += time.perf_counter() - now
                self.reply_bytes += len(line)
            self.replies += 1
            due, index, phase, on_reply = self._inflight.pop(reply["id"])
            phase.received += 1
            phase.latencies.append(now - due)
            if not reply.get("ok"):
                phase.not_ok += 1
            elif index not in self.results:
                self.results[index] = reply["result"]
            elif self.results[index] != reply["result"]:
                self.inconsistent.add(index)
            if on_reply is not None:
                on_reply()
            phase.finish_if_done()

    async def wait(self, phase: Phase, timeout_s: float) -> None:
        phase.sending = False
        phase.finish_if_done()
        try:
            await asyncio.wait_for(phase.done.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass

    async def closed_pass(self, order: list[int]) -> tuple[float, Phase]:
        """Every query in ``order`` once, ``IN_FLIGHT`` per connection."""
        phase = Phase()
        start = time.perf_counter()

        async def feed(conn: int, indices: list[int]) -> None:
            window = asyncio.Semaphore(IN_FLIGHT)
            for index in indices:
                await window.acquire()
                await self.send(conn, index, time.perf_counter(), phase,
                                window.release)

        await asyncio.gather(*(feed(c, order[c::CONNECTIONS])
                               for c in range(CONNECTIONS)))
        await self.wait(phase, 60.0)
        return time.perf_counter() - start, phase

    async def open_loop(self, schedule) -> Phase:
        """Send on ``schedule`` regardless of replies, then wait for them."""
        phase = Phase()
        t0 = time.perf_counter() + 0.005
        for i, (offset, index) in enumerate(schedule):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lateness.append(time.perf_counter() - due)
            await self.send(i % CONNECTIONS, index, due, phase)
        await self.wait(phase, 5.0 + 0.01 * len(schedule))
        return phase


def step_summary(phase: Phase) -> dict[str, Any]:
    return {
        "sent": phase.sent,
        "failed": phase.sent - phase.received + phase.not_ok,
        "p50_s": percentile(phase.latencies, 50.0),
        "p90_s": percentile(phase.latencies, 90.0),
        "p99_s": percentile(phase.latencies, 99.0),
        "late_p99_s": percentile(phase.lateness, 99.0),
    }


# ---------------------------------------------------------------------------
# server processes
# ---------------------------------------------------------------------------

def _control(host: str, port: int, op: str) -> dict[str, Any]:
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(json.dumps({"id": op, "op": op}).encode() + b"\n")
        reply = sock.makefile("rb").readline()
    return json.loads(reply)["result"]


def start_server(spans_path=None):
    """Spawn a server; returns ``(process, host, port, setup_s)``.

    Set-up runs from spawn until the server has answered a ping.  With
    ``spans_path`` the benchmark's tracing launcher replaces
    ``repro serve``; it takes the same flags.
    """
    if spans_path is None:
        argv = [sys.executable, "-m", "repro", "serve"] + SERVE_FLAGS
    else:
        argv = [sys.executable, str(HERE / "serve_launcher.py"),
                "--spans", str(spans_path)] + SERVE_FLAGS
    start = time.perf_counter()
    proc, line = spawn_until_ready(argv, "listening on")
    host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
    try:
        _control(host, int(port), "ping")
    except BaseException:
        proc.kill()
        stop_process(proc)
        raise
    return proc, host, int(port), time.perf_counter() - start


def stop_server(proc, host: str, port: int) -> None:
    try:
        _control(host, port, "shutdown")
    except OSError:
        proc.kill()
    stop_process(proc, timeout_s=30.0)


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def _stats_counts(stats: dict[str, Any]) -> dict[str, float]:
    cache = stats["engine"]["cache"]
    return {
        "engine.lookups": cache["lookups"],
        "engine.hits": cache["hits"],
        "engine.misses": cache["misses"],
        "engine.evictions": cache["evictions"],
        "engine.disk_hits": cache["disk_hits"],
        "server.frames": stats["server"]["frames_total"],
        "server.protocol_errors": stats["server"]["protocol_errors"],
        "service.profile_hit_ratio": stats["profiles"]["hit_ratio"],
    }


def _batcher_delta(before: dict, after: dict, step: str) -> dict[str, float]:
    b, a = before["batcher"], after["batcher"]
    flushes = a["flushes"] - b["flushes"]
    submitted = a["submitted"] - b["submitted"]
    out = {f"batcher.{k}.{step}": a[k] - b[k]
           for k in ("flushes", "flushes_timeout", "flushes_depth", "prefetch_passes")}
    out[f"batcher.mean_occupancy.{step}"] = submitted / flushes if flushes else 0.0
    out[f"batcher.dedup_ratio.{step}"] = (
        (a["deduped"] - b["deduped"]) / submitted if submitted else 0.0
    )
    return out


async def _drive(host, port, queries, order, seed, seconds, *, steps, codec,
                 speed: HostSpeed, ready: float):
    """Cold and warm catalogue passes, then (with ``steps``) the rate steps.

    Each catalogue pass runs in ``PASS_PARTS`` pieces with a host-factor
    sample after each (the client is idle there), so a change of host
    speed during the pass is caught; ``factors`` holds each pass's factor.
    ``ready`` is the sample taken once the server was up.
    """
    client = Client(queries, codec)
    await client.connect(host, port)

    async def stats() -> dict[str, Any]:
        return await asyncio.to_thread(_control, host, port, "stats")

    out: dict[str, Any] = {"steps": {}, "sent": 0, "failed": 0}
    try:
        before = _stats_counts(await stats())
        out["factors"] = []
        factors = [ready]
        start = time.perf_counter()
        for name in ("cold_s", "warm_s"):
            elapsed = []
            for part in range(PASS_PARTS):
                lo = part * len(order) // PASS_PARTS
                hi = (part + 1) * len(order) // PASS_PARTS
                seconds_, phase = await client.closed_pass(order[lo:hi])
                factors.append(speed.factor())
                elapsed.append(seconds_)
                out["sent"] += phase.sent
                out["failed"] += phase.sent - phase.received + phase.not_ok
            out[name] = sum(elapsed)
            out["factors"].append(pieced(elapsed, factors[-PASS_PARTS - 1:]))
        out["pair_window"] = (start, time.perf_counter())
        after = _stats_counts(await stats())
        out["counts"] = {k: after[k] - before[k] for k in after}
        out["counts"]["service.profile_hit_ratio"] = after["service.profile_hit_ratio"]

        if steps:
            for rate, share in zip(RATES, (0.75, 0.25)):
                s0 = await stats()
                phase = await client.open_loop(
                    arrivals(seed, rate, seconds * share, len(queries)))
                s1 = await stats()
                key = f"r{rate:g}"
                out["steps"][key] = step_summary(phase)
                out["counts"].update(_batcher_delta(s0, s1, key))
                out["sent"] += phase.sent
                out["failed"] += out["steps"][key]["failed"]
        out["codec"] = dict(client.codec_s, replies=client.replies,
                            reply_bytes=client.reply_bytes)
        return out
    finally:
        out["results"] = client.results
        out["inconsistent"] = client.inconsistent
        await client.close()


def verify(queries: list[Query], results: dict[int, Any]) -> list[str]:
    """Served answers against ``CoordinationService(SweepEngine()).resolve``."""
    from repro.serve.protocol import Request
    from repro.serve.service import CoordinationService

    direct = CoordinationService(make_engine(None, "full"))
    errors = []
    for index, served in sorted(results.items()):
        op, params = queries[index]
        want = direct.resolve(Request(id=None, op=op, params=params))
        if not want.ok or json.loads(json.dumps(want.result)) != served:
            errors.append(f"serve: {op} {params} differs from the library answer")
    return errors


def serve_run(seed: int, seconds: float, quick: bool, trace: bool) -> dict[str, Any]:
    """Five fresh servers (two in quick mode): each is timed from spawn to
    ready and answers the catalogue cold, then warm; the last one also
    takes the open-loop rate steps.  With ``trace`` the first server runs
    untraced and the others under the tracing launcher."""
    queries = catalogue(0.1 if quick else 1.0)
    order = list(range(len(queries)))
    random.Random(f"order-{seed}").shuffle(order)
    n_servers = 2 if quick else 5
    speed = HostSpeed()
    runs = []
    for i in range(n_servers):
        traced = trace and i > 0
        spans_path = None
        if traced:
            spans_path = Path(tempfile.gettempdir(), f"serve-spans-{i}.json")
        spawned = speed.spawn_factor()
        proc, host, port, setup_s = start_server(spans_path)
        try:
            started = speed.spawn_factor()
            run = asyncio.run(_drive(
                host, port, queries, order, seed, seconds,
                steps=i == n_servers - 1, codec=traced, speed=speed,
                ready=speed.factor()))
        finally:
            stop_server(proc, host, port)
        # Host factors of the set-up, the cold pass and the warm pass.
        run["factors"] = [(spawned + started) / 2.0, *run["factors"]]
        run["setup_s"] = setup_s
        run["traced"] = traced
        if traced:
            run["spans"] = [tuple(s) for s in json.loads(spans_path.read_text())]
            spans_path.unlink()
        runs.append(run)
    results: dict[int, Any] = {}
    inconsistent: set[int] = set()
    for run in runs:
        inconsistent |= run["inconsistent"]
        for index, result in run["results"].items():
            if results.setdefault(index, result) != result:
                inconsistent.add(index)
    errors = [f"serve: replies to {queries[i]} disagree" for i in sorted(inconsistent)]
    errors += verify(queries, results)
    return {"runs": runs, "errors": errors}
