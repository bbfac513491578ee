"""The micro-batching request coalescer.

Incoming query frames do not go straight to the engine: they join an
admission queue that drains as one **flush** whenever the queue reaches
``max_batch`` depth or the oldest queued request has waited
``max_wait_us`` — whichever comes first.  A flush is resolved off the
event loop in one executor job that deduplicates its requests by
:func:`~repro.serve.protocol.canonical_key` (identical in-flight queries
resolve once and share the answer) and then answers each unique query
with :meth:`~repro.serve.service.CoordinationService.resolve`, the
query's own library call.

The two knobs bound the trade-off: ``max_wait_us`` bounds the queueing
delay added to any request, and ``max_batch`` bounds how many requests
one flush can dedup and hand to the resolver in one job.
``max_batch=1`` serves one request per flush, with no dedup.

With a fault plan armed, dedup is disabled for the whole flush:
requests are keyed by position instead of by fingerprint, so they
resolve individually, in admission order, each consuming its own slice
of the deterministic fault schedule and owning its own degradation
classification.  Two clients may legitimately receive different
degradation outcomes for the same query.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServeError
from repro.serve.protocol import Request, ServedInfo, canonical_key
from repro.serve.service import CoordinationService, Resolution

__all__ = ["BatchStats", "MicroBatcher"]


@dataclass
class BatchStats:
    """Coalescer counters (event-loop-thread only — no lock needed)."""

    submitted: int = 0
    resolved: int = 0
    deduped: int = 0
    flushes: int = 0
    flushes_depth: int = 0
    flushes_timeout: int = 0
    flushes_drain: int = 0
    max_depth_seen: int = 0
    _occupancy_sum: int = field(default=0, repr=False)

    @property
    def mean_occupancy(self) -> float:
        """Mean requests per flush — the amortization the batcher won."""
        return self._occupancy_sum / self.flushes if self.flushes else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of submitted requests answered by an in-flight twin."""
        return self.deduped / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "resolved": self.resolved,
            "deduped": self.deduped,
            "dedup_ratio": self.dedup_ratio,
            "flushes": self.flushes,
            "flushes_depth": self.flushes_depth,
            "flushes_timeout": self.flushes_timeout,
            "flushes_drain": self.flushes_drain,
            # Always 0; kept only for the benchmark's reader (ROADMAP item 1).
            "prefetch_passes": 0,
            "mean_occupancy": self.mean_occupancy,
            "max_depth_seen": self.max_depth_seen,
        }


class MicroBatcher:
    """Admission queue + flush scheduler in front of one service.

    All mutable state (`_pending`, the timer handle, the stats) is
    touched exclusively from the event-loop thread; only the pure
    resolution work (service calls against the internally-locked engine
    caches) runs on the resolver executor.
    """

    def __init__(
        self,
        service: CoordinationService,
        *,
        max_batch: int,
        max_wait_us: int,
        n_resolvers: int,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_us < 0:
            raise ServeError(f"max_wait_us must be >= 0, got {max_wait_us}")
        if n_resolvers < 1:
            raise ServeError(f"n_resolvers must be >= 1, got {n_resolvers}")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_wait_us = int(max_wait_us)
        self.stats = BatchStats()
        self._pending: list[tuple[Request, asyncio.Future[tuple[Resolution, ServedInfo]]]] = []
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: set[asyncio.Task[None]] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=int(n_resolvers), thread_name_prefix="repro-serve"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def submit(self, request: Request) -> tuple[Resolution, ServedInfo]:
        """Queue one query and await its resolution."""
        if self._closed:
            raise ServeError("batcher is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future[tuple[Resolution, ServedInfo]] = loop.create_future()
        self._pending.append((request, future))
        self.stats.submitted += 1
        depth = len(self._pending)
        if depth > self.stats.max_depth_seen:
            self.stats.max_depth_seen = depth
        if depth >= self.max_batch:
            self._flush("depth")
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_wait_us / 1e6, self._flush, "timeout"
            )
        return await future

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def _flush(self, reason: str) -> None:
        """Drain the admission queue into one resolver job."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.stats.flushes += 1
        self.stats._occupancy_sum += len(batch)
        if reason == "depth":
            self.stats.flushes_depth += 1
        elif reason == "timeout":
            self.stats.flushes_timeout += 1
        else:
            self.stats.flushes_drain += 1
        task = asyncio.get_running_loop().create_task(self._resolve_flush(batch, reason))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _resolve_flush(
        self,
        batch: list[tuple[Request, asyncio.Future[tuple[Resolution, ServedInfo]]]],
        reason: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        # Dedup: the first request with a given key resolves; its twins
        # share the resolution object (and the answer).  Armed, every
        # request is keyed by its position, so none has a twin.
        keys: list[str | int]
        if self.service.faults_armed():
            keys = list(range(len(batch)))
        else:
            keys = [canonical_key(request.op, request.params) for request, _ in batch]
        unique: dict[str | int, Request] = {}
        for key, (request, _) in zip(keys, batch):
            unique.setdefault(key, request)
        try:
            resolved = await loop.run_in_executor(
                self._executor, self._resolve_unique, list(unique.values())
            )
        except Exception as exc:  # pragma: no cover - resolver crash guard
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        by_key = dict(zip(unique, resolved))
        seen: set[str | int] = set()
        for key, (_, future) in zip(keys, batch):
            deduped = key in seen
            seen.add(key)
            info = ServedInfo(
                batch_size=len(batch),
                n_unique=len(unique),
                flush=reason,
                deduped=deduped,
            )
            if deduped:
                self.stats.deduped += 1
            self.stats.resolved += 1
            if not future.done():
                future.set_result((by_key[key], info))

    def _resolve_unique(self, requests: list[Request]) -> list[Resolution]:
        """Executor-side: each unique query through its own library call."""
        return [self.service.resolve(r) for r in requests]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Flush the queue, await in-flight resolutions, stop the pool."""
        if self._closed:
            return
        self._closed = True
        self._flush("drain")
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=True)
