"""Server settings, importable without the server or asyncio."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Server configuration; ``repro serve`` takes its flag defaults from here."""

    host: str = "127.0.0.1"
    port: int = 7077
    max_batch: int = 32
    max_wait_us: int = 2000
    stats_interval_s: float = 0.0
    n_resolvers: int = 1
