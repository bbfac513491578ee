"""Coordination-as-a-service: a long-lived allocation server.

Instead of paying engine construction, profile extraction, and kernel
compilation per CLI invocation, ``repro serve`` keeps one warm
:class:`~repro.core.parallel.SweepEngine` stack behind a tiny
newline-delimited-JSON TCP protocol and answers coordination queries
(``profile``, ``coord``, ``sweep_best``, ``budget_curve``) for any
number of concurrent clients.

The throughput story is the **micro-batching coalescer**
(:mod:`repro.serve.batching`): concurrent queries are admitted to a
queue that drains on a depth/latency trigger, identical in-flight
queries are deduplicated, and each unique query is answered by its own
library call against the warm engine (:mod:`repro.serve.service`), so
served answers are bit-identical to direct library calls.

See ``docs/serving.md`` for the protocol, the batching knobs, and the
latency-SLO methodology.
"""

from __future__ import annotations

from typing import Any

#: Every export -> the submodule that defines it.  Exports resolve
#: lazily (PEP 562), so importing one submodule (the CLI reads
#: ``ServeConfig``'s defaults for every verb) loads neither the server
#: nor asyncio.
_LAZY = {
    "BatchStats": "repro.serve.batching",
    "MicroBatcher": "repro.serve.batching",
    "ServeClient": "repro.serve.client",
    "request_sync": "repro.serve.client",
    "ServeConfig": "repro.serve.config",
    "CONTROL_OPS": "repro.serve.protocol",
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "QUERY_OPS": "repro.serve.protocol",
    "Request": "repro.serve.protocol",
    "ServedInfo": "repro.serve.protocol",
    "canonical_key": "repro.serve.protocol",
    "decode_request": "repro.serve.protocol",
    "decode_response": "repro.serve.protocol",
    "encode_frame": "repro.serve.protocol",
    "error_payload": "repro.serve.protocol",
    "response_envelope": "repro.serve.protocol",
    "CoordServer": "repro.serve.server",
    "run_server": "repro.serve.server",
    "run_smoke": "repro.serve.server",
    "CoordinationService": "repro.serve.service",
    "Resolution": "repro.serve.service",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
