"""Differential battery for the coordination server (``repro.serve``).

The server's whole contract is "the wire adds nothing": every served
answer must be bit-identical to the direct library call, whatever the
batching, dedup, or fault weather.  This module locks that contract
stage by stage — the protocol codec, knob validation, the coalescer's
flush triggers and dedup accounting, served-vs-library identity over
real TCP (full and adaptive engines, CPU and GPU ops), the control
plane, and the chaos pass: an armed fault plan may degrade individual
replies (flagged in the envelope) but never kills the server and never
silently changes an answer.
"""

from __future__ import annotations

import asyncio
import io
import re

import pytest

from repro.core.coord import coord_cpu
from repro.core.parallel import SweepEngine
from repro.core.planner import plan_cpu_sweep
from repro.core.profiler import profile_cpu_workload
from repro.core.sweep import (
    cpu_budget_curve,
    sweep_cpu_allocations,
    sweep_gpu_allocations,
)
from repro.errors import ProtocolError, ReproError, ServeError
from repro.faults.injector import use_faults
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.hardware.platforms import get_platform
from repro.serve.batching import MicroBatcher
from repro.serve.client import ServeClient, request_sync
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Request,
    canonical_key,
    decode_request,
    decode_response,
    encode_frame,
    error_payload,
    response_envelope,
)
from repro.cli import main
from repro.serve.server import CoordServer, ServeConfig, _is_fault_error, run_smoke
from repro.serve.service import CoordinationService
from repro.workloads import get_workload

# Small grids keep the battery fast; identity does not care about scale.
STEP_W = 8.0
CHAOS_PLAN = FaultPlan(
    seed=11,
    specs=(
        FaultSpec(site="rapl.read", kind=FaultKind.DROPOUT, probability=0.35),
    ),
)


def serve(coro_fn, *, config: ServeConfig | None = None, engine=None):
    """Start a server, run ``await coro_fn(server, host, port)``, stop it.

    Returns ``(server, value)`` so tests can inspect post-run counters.
    """

    async def main():
        server = CoordServer(config or ServeConfig(port=0), engine=engine)
        host, port = await server.start()
        try:
            value = await coro_fn(server, host, port)
        finally:
            await server.stop()
        return server, value

    return asyncio.run(main())


def run_batched(requests, *, max_batch, max_wait_us, engine=None, service=None):
    """Submit ``requests`` concurrently through one MicroBatcher."""

    async def main():
        nonlocal service
        if service is None:
            service = CoordinationService(engine)
        batcher = MicroBatcher(
            service, max_batch=max_batch, max_wait_us=max_wait_us, n_resolvers=1
        )
        try:
            outs = await asyncio.gather(*(batcher.submit(r) for r in requests))
        finally:
            await batcher.aclose()
        return outs, batcher.stats

    return asyncio.run(main())


def q(op: str, index: int = 0, **params) -> Request:
    return Request(id=index, op=op, params=params)


# ---------------------------------------------------------------------------
# protocol codec
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_canonical_key_normalizes_param_order(self):
        a = canonical_key("coord", {"workload": "dgemm", "budget_w": 180.0})
        b = canonical_key("coord", {"budget_w": 180.0, "workload": "dgemm"})
        assert a == b

    def test_canonical_key_separates_ops_params_and_ignores_id(self):
        base = canonical_key("coord", {"budget_w": 180.0})
        assert canonical_key("sweep_best", {"budget_w": 180.0}) != base
        assert canonical_key("coord", {"budget_w": 181.0}) != base
        # id never participates: it is not even an argument.
        assert "id" not in base

    @pytest.mark.parametrize(
        "frame, match",
        [
            (b"not json\n", "not valid JSON"),
            (b"[1, 2]\n", "must be a JSON object"),
            (b"{}\n", "missing the 'op'"),
            (b'{"op": 5}\n', "missing the 'op'"),
            (b'{"op": "frobnicate"}\n', "unknown op"),
            (b'{"op": "coord", "params": [1]}\n', "'params' must be"),
            (b"\xff\xfe\n", "not valid UTF-8"),
        ],
    )
    def test_decode_request_rejects_malformed(self, frame, match):
        with pytest.raises(ProtocolError, match=match):
            decode_request(frame)

    def test_decode_request_defaults(self):
        request = decode_request(b'{"op": "ping"}')
        assert request.id is None
        assert request.op == "ping"
        assert dict(request.params) == {}

    def test_request_require_names_the_missing_parameter(self):
        request = q("coord", workload="dgemm")
        assert request.param("budget_w", 100.0) == 100.0
        with pytest.raises(ProtocolError, match="requires parameter 'budget_w'"):
            request.require("budget_w")

    def test_envelope_roundtrips_exactly(self):
        payload = response_envelope("7", "coord", result={"proc_w": 104.5})
        assert decode_response(encode_frame(payload)) == payload

    def test_envelope_requires_exactly_one_of_result_and_error(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            response_envelope(1, "coord")
        with pytest.raises(ProtocolError, match="exactly one"):
            response_envelope(1, "coord", result={}, error={"type": "X"})

    def test_error_payload_families(self):
        assert error_payload(ReproError("x"))["family"] == "repro"
        assert error_payload(ValueError("x"))["family"] == "internal"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"max_batch": 0}, {"max_wait_us": -1}, {"n_resolvers": 0}]
    )
    def test_batcher_rejects_bad_knobs(self, kwargs):
        knobs = {"max_batch": 32, "max_wait_us": 2000, "n_resolvers": 1}
        with pytest.raises(ServeError):
            MicroBatcher(CoordinationService(), **{**knobs, **kwargs})


# ---------------------------------------------------------------------------
# the coalescer: flush triggers, dedup, prefetch
# ---------------------------------------------------------------------------

class TestMicroBatcher:
    def test_flush_on_depth(self):
        requests = [
            q("coord", i, workload="dgemm", budget_w=150.0 + 10.0 * i)
            for i in range(3)
        ]
        # Wait is effectively infinite: only depth can trigger the flush.
        outs, stats = run_batched(requests, max_batch=3, max_wait_us=10**7)
        assert all(resolution.ok for resolution, _ in outs)
        assert stats.flushes_depth == 1 and stats.flushes_timeout == 0
        assert {served.flush for _, served in outs} == {"depth"}
        assert {served.batch_size for _, served in outs} == {3}
        assert stats.mean_occupancy == 3.0

    def test_flush_on_timeout(self):
        requests = [
            q("coord", i, workload="dgemm", budget_w=150.0 + 10.0 * i)
            for i in range(3)
        ]
        # Depth is out of reach: only the timer can trigger the flush.
        outs, stats = run_batched(requests, max_batch=100, max_wait_us=1000)
        assert all(resolution.ok for resolution, _ in outs)
        assert stats.flushes_timeout == 1 and stats.flushes_depth == 0
        assert {served.flush for _, served in outs} == {"timeout"}

    def test_identical_inflight_queries_share_one_resolution(self):
        requests = [
            q("budget_curve", i, workload="dgemm",
              budgets_w=[120.0, 160.0], step_w=STEP_W)
            for i in range(4)
        ]
        outs, stats = run_batched(requests, max_batch=4, max_wait_us=10**7)
        assert [served.deduped for _, served in outs] == [
            False, True, True, True,
        ]
        assert {served.n_unique for _, served in outs} == {1}
        # Twins share the resolution object itself, not a copy.
        assert all(resolution is outs[0][0] for resolution, _ in outs)
        assert stats.deduped == 3 and stats.resolved == 4
        assert stats.dedup_ratio == pytest.approx(0.75)

    def test_distinct_queries_are_not_deduped(self):
        requests = [
            q("coord", 0, workload="dgemm", budget_w=150.0),
            q("coord", 1, workload="dgemm", budget_w=170.0),
        ]
        outs, stats = run_batched(requests, max_batch=2, max_wait_us=10**7)
        assert [served.deduped for _, served in outs] == [False, False]
        assert {served.n_unique for _, served in outs} == {2}
        assert stats.deduped == 0

    def test_coalesced_flush_prefetches_one_union_pass(self):
        # Two budgets of one workload on one step grid: one partition,
        # one host_subgrid kernel pass priming both queries.
        requests = [
            q("sweep_best", 0, workload="dgemm", budget_w=120.0, step_w=STEP_W),
            q("sweep_best", 1, workload="dgemm", budget_w=140.0, step_w=STEP_W),
        ]
        engine = SweepEngine(mode="full")
        outs, stats = run_batched(
            requests, max_batch=2, max_wait_us=10**7, engine=engine
        )
        assert stats.prefetch_passes == 1
        node = get_platform("ivybridge")
        workload = get_workload("dgemm")
        for (resolution, _), budget in zip(outs, (120.0, 140.0)):
            sweep = sweep_cpu_allocations(
                node.cpu, node.dram, workload, budget, step_w=STEP_W
            )
            assert resolution.ok
            assert resolution.result["proc_w"] == sweep.best.allocation.proc_w
            assert resolution.result["mem_w"] == sweep.best.allocation.mem_w
            assert resolution.result["performance"] == sweep.best.performance

    def test_singleton_flush_skips_the_union_pass(self):
        requests = [q("sweep_best", 0, workload="dgemm", budget_w=120.0,
                      step_w=STEP_W)]
        outs, stats = run_batched(
            requests, max_batch=1, max_wait_us=10**7,
            engine=SweepEngine(mode="full"),
        )
        assert outs[0][0].ok
        assert stats.prefetch_passes == 0

    def test_prefetch_is_skipped_in_adaptive_mode(self):
        service = CoordinationService(SweepEngine(mode="adaptive"))
        requests = [
            q("sweep_best", 0, workload="dgemm", budget_w=120.0, step_w=STEP_W),
            q("sweep_best", 1, workload="dgemm", budget_w=140.0, step_w=STEP_W),
        ]
        assert service.prefetch(requests) == 0

    def test_prefetch_is_skipped_while_faults_are_armed(self):
        service = CoordinationService(SweepEngine(mode="full"))
        requests = [
            q("sweep_best", 0, workload="dgemm", budget_w=120.0, step_w=STEP_W),
            q("sweep_best", 1, workload="dgemm", budget_w=140.0, step_w=STEP_W),
        ]
        with use_faults(CHAOS_PLAN):
            assert service.faults_armed()
            assert service.prefetch(requests) == 0

    def test_use_faults_context_arms_an_engineless_service(self):
        service = CoordinationService()
        assert not service.faults_armed()
        with use_faults(CHAOS_PLAN):
            assert service.faults_armed()
        assert not service.faults_armed()


# ---------------------------------------------------------------------------
# served-vs-library identity over real TCP
# ---------------------------------------------------------------------------

class TestServedIdentity:
    def _expected_answers(self) -> list[tuple[str, dict, dict]]:
        """(op, params, expected-result) for every query op, from the
        direct library entry points — not from CoordinationService."""
        node = get_platform("ivybridge")
        dgemm = get_workload("dgemm")
        stream = get_workload("stream")
        critical = profile_cpu_workload(node.cpu, node.dram, dgemm)
        decision = coord_cpu(critical, 180.0)
        sweep = sweep_cpu_allocations(
            node.cpu, node.dram, dgemm, 150.0, step_w=STEP_W
        )
        curve = cpu_budget_curve(
            node.cpu, node.dram, stream, [120.0, 160.0], step_w=STEP_W
        )
        return [
            (
                "profile",
                {"workload": "dgemm"},
                {
                    "workload": dgemm.name,
                    "platform": node.name,
                    "device": "cpu",
                    "critical": critical.as_dict(),
                },
            ),
            (
                "coord",
                {"workload": "dgemm", "budget_w": 180.0},
                {
                    "workload": dgemm.name,
                    "platform": node.name,
                    "budget_w": 180.0,
                    "status": decision.status.value,
                    "accepted": decision.accepted,
                    "proc_w": decision.allocation.proc_w,
                    "mem_w": decision.allocation.mem_w,
                    "surplus_w": decision.surplus_w,
                },
            ),
            (
                "sweep_best",
                {"workload": "dgemm", "budget_w": 150.0, "step_w": STEP_W},
                {
                    "workload": dgemm.name,
                    "platform": node.name,
                    "budget_w": 150.0,
                    "proc_w": sweep.best.allocation.proc_w,
                    "mem_w": sweep.best.allocation.mem_w,
                    "performance": sweep.best.performance,
                    "metric_unit": dgemm.metric_unit,
                    "scenario": sweep.best.scenario.roman,
                    "actual_total_w": sweep.best.result.total_power_w,
                    "n_points": len(sweep.points),
                },
            ),
            (
                "budget_curve",
                {"workload": "stream", "budgets_w": [120.0, 160.0],
                 "step_w": STEP_W},
                {
                    "workload": stream.name,
                    "platform": node.name,
                    "metric_unit": curve.metric_unit,
                    "budgets_w": [float(b) for b in curve.budgets_w],
                    "perf_max": [float(p) for p in curve.perf_max],
                    "optimal_mem_w": [float(m) for m in curve.optimal_mem_w],
                    "saturation_budget_w": curve.saturation_budget_w,
                },
            ),
        ]

    def test_every_op_is_bit_identical_to_the_library(self):
        cases = self._expected_answers()

        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                return [await client.request(op, params) for op, params, _ in cases]

        _, replies = serve(drive)
        for (op, _, expected), reply in zip(cases, replies):
            assert reply["ok"], (op, reply)
            assert not reply["degraded"]
            assert reply["events"] == []
            # Full structural equality: every field, every float bit.
            assert reply["result"] == expected, op

    def test_identity_holds_with_an_adaptive_engine(self):
        # The adaptive planner selects its own points but is bit-identical
        # to the full sweep by contract — serving through it must be too.
        cases = [c for c in self._expected_answers() if c[0] != "profile"]

        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                return [await client.request(op, params) for op, params, _ in cases]

        _, replies = serve(drive, engine=SweepEngine(mode="adaptive"))
        for (op, _, expected), reply in zip(cases, replies):
            assert reply["ok"], (op, reply)
            assert reply["result"] == expected, op

    def test_adaptive_sweep_best_plans_fewer_points(self):
        # An adaptive engine answers sweep_best through the planner: every
        # reply (n_points and mem_freq_mhz included) equals a full engine's,
        # while the grids are only partly executed.
        queries = [
            q("sweep_best", workload=name, budget_w=budget)
            for name in ("dgemm", "stream", "sra", "bt")
            for budget in (140.0, 180.0, 240.0)
        ] + [
            q("sweep_best", workload=name, platform=card, budget_w=cap)
            for name in ("sgemm", "gpu-stream", "minife")
            for card in ("titan-xp", "titan-v")
            for cap in (150.0, 200.0, 250.0)
        ]
        full = CoordinationService(SweepEngine(mode="full"))
        adaptive = CoordinationService(SweepEngine(mode="adaptive"))
        expected = [full.resolve(request) for request in queries]
        replies = [adaptive.resolve(request) for request in queries]
        for request, want, got in zip(queries, expected, replies):
            assert want.ok and got.ok, request.params
            assert got.result == want.result, request.params
        grid_points = sum(reply.result["n_points"] for reply in replies)
        planner = adaptive.engine.planner.stats
        assert planner.sweeps == len(queries)
        assert planner.native_points == grid_points
        assert adaptive.engine.stats.misses < grid_points
        assert full.engine.stats.misses == grid_points

    def test_gpu_sweep_identity(self):
        card = get_platform("titan-xp")
        workload = get_workload("gpu-stream")
        sweep = sweep_gpu_allocations(card, workload, 200.0, freq_stride=1)
        best = sweep.best

        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                return await client.request(
                    "sweep_best", {"workload": "gpu-stream", "budget_w": 200.0}
                )

        _, reply = serve(drive)
        assert reply["ok"], reply
        result = reply["result"]
        assert result["proc_w"] == best.allocation.proc_w
        assert result["mem_w"] == best.allocation.mem_w
        assert result["performance"] == best.performance
        assert result["mem_freq_mhz"] == float(
            sweep.mem_freqs_mhz[sweep.points.index(best)]
        )

    def test_concurrent_fan_in_served_from_one_resolution(self):
        params = {"workload": "dgemm", "budgets_w": [120.0, 160.0],
                  "step_w": STEP_W}

        async def drive(server, host, port):
            async def one_client():
                async with await ServeClient.connect(host, port) as client:
                    return await client.request("budget_curve", params)

            return await asyncio.gather(*(one_client() for _ in range(8)))

        config = ServeConfig(port=0, max_batch=8, max_wait_us=200_000)
        server, replies = serve(drive, config=config)
        assert all(reply["ok"] for reply in replies)
        first = replies[0]["result"]
        assert all(reply["result"] == first for reply in replies)
        assert server.batcher.stats.deduped > 0
        assert sum(reply["served"]["deduped"] for reply in replies) > 0


# ---------------------------------------------------------------------------
# control plane and wire robustness
# ---------------------------------------------------------------------------

class TestControlPlane:
    def test_ping_reports_the_protocol_version(self):
        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                return await client.request("ping")

        _, reply = serve(drive)
        assert reply["ok"]
        assert reply["result"]["protocol"] == PROTOCOL_VERSION
        assert reply["result"]["uptime_s"] >= 0.0

    def test_stats_query_snapshots_every_tier(self):
        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                await client.request(
                    "coord", {"workload": "dgemm", "budget_w": 180.0}
                )
                return await client.request("stats")

        _, reply = serve(drive)
        stats = reply["result"]
        assert {"engine", "profiles", "batcher", "server"} <= set(stats)
        assert {"cache", "planner"} <= set(stats["engine"])
        assert stats["batcher"]["submitted"] == 1
        assert stats["server"]["faults_armed"] is False
        assert stats["server"]["connections_total"] == 1

    def test_protocol_errors_are_answered_and_the_connection_survives(self):
        async def drive(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = decode_response(await reader.readline())
                writer.write(encode_frame({"id": 1, "op": "ping"}))
                await writer.drain()
                good = decode_response(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return bad, good

        server, (bad, good) = serve(drive)
        assert bad["ok"] is False and bad["id"] is None
        assert bad["error"]["family"] == "repro"
        assert "not valid JSON" in bad["error"]["message"]
        assert good["ok"] is True  # same connection, still serving
        assert server.protocol_errors == 1

    def test_oversized_frames_are_answered_and_the_connection_survives(self):
        async def drive(server, host, port):
            handled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: handled.append(context)
            )
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            try:
                # Both frames overrun asyncio's 64 KiB line limit.
                for size in (100_000, 1_000_000):
                    writer.write(encode_frame(
                        {"id": size, "op": "ping", "params": {"pad": "x" * size}}
                    ))
                    writer.write(encode_frame({"id": 1, "op": "ping"}))
                    await writer.drain()
                    replies.append(decode_response(await reader.readline()))
                    replies.append(decode_response(await reader.readline()))
            finally:
                writer.close()
                await writer.wait_closed()
            return replies, handled

        server, (replies, handled) = serve(drive)
        for oversized, pong in zip(replies[::2], replies[1::2]):
            assert oversized["ok"] is False and oversized["id"] is None
            assert oversized["error"]["type"] == "ProtocolError"
            assert "line limit" in oversized["error"]["message"]
            assert pong["ok"] is True and pong["id"] == 1
        assert server.protocol_errors == 2
        assert handled == []

    def test_unknown_op_is_a_protocol_error(self):
        async def drive(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(encode_frame({"id": 1, "op": "frobnicate"}))
                await writer.drain()
                return decode_response(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()

        _, reply = serve(drive)
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]["message"]

    def test_query_errors_are_typed_not_fatal(self):
        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                missing = await client.request("coord", {"workload": "dgemm"})
                unknown = await client.request(
                    "coord", {"workload": "no-such-workload", "budget_w": 100.0}
                )
                alive = await client.request("ping")
            return missing, unknown, alive

        _, (missing, unknown, alive) = serve(drive)
        assert missing["ok"] is False
        assert missing["error"]["family"] == "repro"
        assert "budget_w" in missing["error"]["message"]
        assert unknown["ok"] is False
        assert unknown["error"]["family"] == "repro"
        assert alive["ok"] is True

    def test_shutdown_frame_stops_the_server(self):
        async def drive(server, host, port):
            async with await ServeClient.connect(host, port) as client:
                reply = await client.request("shutdown")
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10.0)
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return reply

        _, reply = serve(drive)
        assert reply["ok"] and reply["result"] == {"stopping": True}

    def test_request_sync_round_trip(self):
        async def drive(server, host, port):
            return await asyncio.get_running_loop().run_in_executor(
                None, request_sync, host, port, "ping"
            )

        _, reply = serve(drive)
        assert reply["ok"] and reply["result"]["protocol"] == PROTOCOL_VERSION

    def test_stats_log_line_renders_every_ratio(self):
        stream = io.StringIO()
        CoordServer(ServeConfig(port=0)).log_stats_line(stream=stream)
        line = stream.getvalue()
        assert line.startswith("[serve] frames=0 ")
        for token in ("memo_hit=", "disk_hit=", "profile_hit=",
                      "planner_saved=", "occupancy=", "dedup="):
            assert token in line, token


# ---------------------------------------------------------------------------
# chaos: armed fault plans degrade replies, never the server
# ---------------------------------------------------------------------------

class TestChaos:
    # Saturating profiler noise: profiling can never certify a result, so
    # every profile-dependent query earns a deterministic typed refusal.
    NOISY_PROFILE_PLAN = FaultPlan(
        seed=13,
        specs=(
            FaultSpec(
                site="profiler.sample", kind=FaultKind.NOISE,
                probability=1.0, amplitude=0.5,
            ),
        ),
    )

    def test_armed_server_serves_classified_replies_and_survives(self):
        # Mixed burst under one armed plan: coord needs a profile, so it
        # must come back a typed repro-family error; sweep_best never
        # profiles, so it must come back clean.  Per-reply isolation —
        # and the server answers everything, including the stats frame.
        async def drive(server, host, port):
            async def one_client(op, params):
                async with await ServeClient.connect(host, port) as client:
                    return await client.request(op, params)

            queries = [
                ("coord", {"workload": "dgemm", "budget_w": 150.0 + 10.0 * i})
                for i in range(3)
            ] + [
                ("sweep_best",
                 {"workload": "dgemm", "budget_w": 150.0 + 10.0 * i,
                  "step_w": STEP_W})
                for i in range(3)
            ]
            replies = await asyncio.gather(
                *(one_client(op, params) for op, params in queries)
            )
            async with await ServeClient.connect(host, port) as client:
                stats = await client.request("stats")
            return replies, stats

        # Armed exactly the way `repro serve` under REPRO_FAULTS arms it:
        # the process-wide context, visible to the resolver threads.
        with use_faults(self.NOISY_PROFILE_PLAN):
            server, (replies, stats) = serve(drive)
        coord_replies, sweep_replies = replies[:3], replies[3:]
        for reply in coord_replies:
            assert reply["ok"] is False, reply
            assert reply["error"]["family"] == "repro", reply
            assert "Degraded" in reply["error"]["type"], reply
        for reply in sweep_replies:
            assert reply["ok"] is True, reply
            assert not reply["degraded"]
        assert stats["ok"]
        assert stats["result"]["server"]["faults_armed"] is True

    def test_served_sweeps_carry_their_resubmissions(self):
        # Recovered worker crashes change no answer, but each reply must
        # list the resubmissions its own sweep made, whether it resolves
        # directly or on a batcher's resolver thread.
        plan = FaultPlan(
            seed=3,
            max_attempts=6,
            specs=(
                FaultSpec(
                    site="parallel.worker", kind=FaultKind.WORKER_CRASH,
                    probability=0.2,
                ),
            ),
        )
        requests = [
            q("sweep_best", i, workload="sra", budget_w=budget)
            for i, budget in enumerate((176.0, 208.0))
        ]
        clean = [
            CoordinationService(SweepEngine()).resolve(r) for r in requests
        ]
        with use_faults(plan):
            service = CoordinationService(SweepEngine())
            direct = [service.resolve(r) for r in requests]
        with use_faults(plan):
            outs, _ = run_batched(
                requests, max_batch=2, max_wait_us=10**7, engine=SweepEngine()
            )
        batched = [resolution for resolution, _ in outs]
        for resolutions in (direct, batched):
            assert [len(r.events) for r in resolutions] == [5, 9]
            for reply, reference in zip(resolutions, clean):
                assert reply.result == reference.result
                assert not reply.degraded
                assert {e["action"] for e in reply.events} == {"resubmitted"}
        assert [(r.degraded, r.events) for r in clean] == [(False, [])] * 2

    def test_armed_flushes_never_dedup(self):
        # Two clients asking the same question under faults may earn
        # different degradation outcomes: each request must consume its
        # own slice of the deterministic fault schedule.
        requests = [
            q("coord", i, workload="dgemm", budget_w=180.0) for i in range(4)
        ]
        with use_faults(CHAOS_PLAN):
            outs, stats = run_batched(requests, max_batch=4, max_wait_us=10**7)
        assert stats.deduped == 0
        assert [served.deduped for _, served in outs] == [False] * 4
        assert {served.n_unique for _, served in outs} == {4}


class TestArmedAgreesInEveryLayer:
    """Engine, planner, service and batcher read one predicate for "armed".

    Under a non-empty plan armed through ``use_faults``, each layer takes
    its fault-aware path; under an armed empty plan, each keeps its clean
    fast path.  The engine runs the kernel either way: armed, each miss
    first passes the worker-fault schedule, which is otherwise never
    consulted.  A layer that decided "armed" on its own could put a
    served ``coord`` on the armed branch with no fault schedule behind
    it, which answers clean while claiming per-request isolation.
    """

    @pytest.mark.parametrize(
        "plan, is_armed",
        [(TestChaos.NOISY_PROFILE_PLAN, True), (FaultPlan.empty(), False)],
        ids=["plan", "empty"],
    )
    def test_every_layer_reads_the_same_state(self, plan, is_armed, monkeypatch):
        from repro.core import parallel as parallel_mod

        kernel_calls = []
        original = parallel_mod.batch_execute_indices

        def counting(kernel, rows):
            kernel_calls.append(len(rows))
            return original(kernel, rows)

        monkeypatch.setattr("repro.core.parallel.batch_execute_indices", counting)
        node = get_platform("ivybridge")
        dgemm = get_workload("dgemm")
        coords = [q("coord", i, workload="dgemm", budget_w=180.0) for i in range(3)]
        planned_engine = SweepEngine(mode="adaptive")
        service = CoordinationService(SweepEngine())
        with use_faults(plan) as injector:
            # engine: a sub-grid miss
            SweepEngine().host_subgrid(
                node.cpu, node.dram, dgemm.phases, [100.0, 120.0], [40.0, 48.0]
            ).run([0, 1])
            subgrid_kernel_calls = len(kernel_calls)
            worker_calls = injector.calls("parallel.worker")
            # planner: the replay stash (read back below, disarmed)
            plan_cpu_sweep(node.cpu, node.dram, dgemm, 176.0, engine=planned_engine)
            # service and batcher: a flush of duplicate coord queries
            assert service.faults_armed() is is_armed
            calls_before = injector.calls("profiler.sample")
            outs, stats = run_batched(
                coords, max_batch=3, max_wait_us=10**7, service=service
            )
            calls_after = injector.calls("profiler.sample")
        replayed = plan_cpu_sweep(
            node.cpu, node.dram, dgemm, 176.0, engine=planned_engine
        )
        profile_memo = service.stats_snapshot()["profiles"]
        assert subgrid_kernel_calls == 1
        if is_armed:
            assert worker_calls == 2  # one check per missed row
            assert replayed.stats.executed_points > 0  # no stash was written
            assert calls_after > calls_before
            assert profile_memo["hits"] + profile_memo["misses"] == 0
            assert stats.deduped == 0
            assert {served.n_unique for _, served in outs} == {3}
            assert all(not resolution.ok for resolution, _ in outs)
        else:
            assert worker_calls == 0
            assert replayed.stats.executed_points == 0  # replayed from the stash
            assert profile_memo["misses"] == 1
            assert stats.deduped == 2
            assert {served.n_unique for _, served in outs} == {1}
            assert all(resolution.ok for resolution, _ in outs)


# ---------------------------------------------------------------------------
# smoke harness (what `repro serve --smoke` / `make serve-smoke` runs)
# ---------------------------------------------------------------------------

class TestSmokeHarness:
    def test_run_smoke_passes_clean(self, capsys):
        run_smoke(ServeConfig(port=0, max_batch=8), n_clients=6)
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "identical=True" in out

    def test_run_smoke_serves_from_the_given_engine(self, capsys):
        engine = SweepEngine(mode="adaptive")
        run_smoke(ServeConfig(port=0, max_batch=8), n_clients=6, engine=engine)
        assert "identical=True" in capsys.readouterr().out
        assert engine.planner.stats.sweeps > 0

    def test_run_smoke_counts_typed_fault_errors_under_a_plan(self, capsys):
        # Profiling never certifies under saturating noise, so the burst's
        # profile and coord queries earn typed ProfilingDegradedError
        # replies: counted as typed outcomes, not as failures.
        with use_faults(TestChaos.NOISY_PROFILE_PLAN):
            run_smoke(ServeConfig(port=0, max_batch=8), n_clients=8)
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "faults_armed=True" in out
        assert re.search(r"\b4 typed fault errors\b", out), out

    @pytest.mark.parametrize(
        "error, typed",
        [
            ({"type": "ProfilingDegradedError", "family": "repro"}, True),
            ({"type": "WorkerRetryExhaustedError", "family": "repro"}, True),
            ({"type": "ProtocolError", "family": "repro"}, False),
            ({"type": "ValueError", "family": "internal"}, False),
            ({"type": "NoSuchError", "family": "repro"}, False),
        ],
    )
    def test_only_fault_errors_count_as_typed(self, error, typed):
        assert _is_fault_error({"ok": False, "error": error}) is typed

    def test_cli_smoke_rejects_more_jobs(self, capsys):
        assert main(["serve", "--smoke", "--jobs", "4"]) == 2
        assert "error: sweeps resolve in the calling thread" in capsys.readouterr().err
